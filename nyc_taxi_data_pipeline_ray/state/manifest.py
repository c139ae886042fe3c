"""Epoch manifests, idempotent commits, lineage counters, resume scan.

Replaces three reference mechanisms at once:

- the S3-object-existence sync ledger that decides which monthly files
  still need loading (``airflow/dags/scripts/sync_manager.py:24-58``),
- the Spark streaming checkpoint dir (``streaming/spark/
  fraud_detector.py:190``),
- the Redis metric counters (``fraud_detector.py:54-118``) — lineage
  and per-epoch metrics live *in* the manifest, summed monoid-style
  across epochs when queried (exactly-once, unlike Redis increments
  which double-count under replay — a documented reference weakness).

Layout under ``lake/p=NNNN/``:

- ``base-GGGGGG.parquet``      compacted base run (generation G)
- ``delta-EEEEEE.parquet``     delta run committed by epoch E
- ``manifest-EEEEEE.json``     commit marker + lineage for epoch E
- ``rejects-EEEEEE.parquet``   dead-letter rows of epoch E (if any)

The commit rule (Delta Lake, VLDB 2020), kept by one primitive,
:func:`nyc_taxi_data_pipeline_ray.io.commit_file`: every file is written
to a tmp sibling and published by one atomic rename, data files before
the marker that makes them visible, and readers act only on what a
marker has published.  A partition-epoch is committed iff its manifest
exists, a base iff its compact marker does, so a re-executed Ray task
(retry or replayed run) either skips (already committed) or
deterministically rewrites identical bytes — replaying a committed
epoch is a no-op (exactly-once).
"""

from __future__ import annotations

import glob
import json
import os
import re
from typing import Iterable

# {6,} not {6}: the writers format with :06d, which GROWS past six
# digits at epoch/generation 1,000,000 — an exact-width match would
# silently drop those commits from every merge (data loss at the scale
# this lake is designed for)
_MANIFEST_RE = re.compile(r"manifest-(\d{6,})\.json$")
_DELTA_RE = re.compile(r"delta-(\d{6,})\.parquet$")
_BASE_RE = re.compile(r"base-(\d{6,})\.parquet$")
_COMPACT_RE = re.compile(r"compact-(\d{6,})\.json$")


def partition_dir(lake_path: str, pid: int) -> str:
    return os.path.join(lake_path, f"p={pid:04d}")


def manifest_path(lake_path: str, pid: int, epoch: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"manifest-{epoch:06d}.json")


def delta_path(lake_path: str, pid: int, epoch: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"delta-{epoch:06d}.parquet")


def rejects_path(lake_path: str, pid: int, epoch: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"rejects-{epoch:06d}.parquet")


def base_path(lake_path: str, pid: int, generation: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"base-{generation:06d}.parquet")


def is_file_not_found(e: BaseException) -> bool:
    """FileNotFoundError, possibly Ray-wrapped (RayTaskError.cause) —
    the predicate behind the one-retry reader-vs-compactor idiom shared
    by the engine's pruned key readers, MinHashIndex and IvfIndex."""
    return isinstance(e, FileNotFoundError) or isinstance(
        getattr(e, "cause", None), FileNotFoundError
    )


def committed_epochs(lake_path: str, pid: int) -> set[int]:
    return _listing(lake_path, pid)[0]


def committed_epoch_groups(
    lake_path: str, pid: int, min_epoch: int | None = None
) -> set[int]:
    """All epochs covered by this partition's committed manifests (a
    manifest file may commit several epochs applied as one group).

    With ``min_epoch``, only the manifests that can cover an epoch at or
    above it are loaded: a manifest is named by its group id, which is
    the maximum epoch of its group, so ``manifest-G.json`` with
    ``G < min_epoch`` covers no such epoch.  A resume check then reads
    the manifests of the groups it may be retrying, not the whole
    history."""
    out: set[int] = set()
    d = partition_dir(lake_path, pid)
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        m = _MANIFEST_RE.match(name)
        if m and (min_epoch is None or int(m.group(1)) >= min_epoch):
            with open(os.path.join(d, name)) as f:
                man = json.load(f)
            out.update(man.get("epochs", [man.get("group_id")]))
    return out


def read_manifests(lake_path: str, pid: int) -> list[dict]:
    d = partition_dir(lake_path, pid)
    out = []
    for path in sorted(glob.glob(os.path.join(d, "manifest-*.json"))):
        with open(path) as f:
            out.append(json.load(f))
    return out


def state_changing_watermark(
    lake_path: str, pid: int, after_group: int | None = None
) -> int:
    """Latest commit group that CHANGED a partition's merged state.

    The engine writes a manifest for every partition in every commit
    group (the exactly-once ledger needs that), but a group that
    delivered no upserts/deletes there (empty slice, or rejects-only)
    leaves the merged state untouched, so it must not invalidate an
    incremental consumer's cached partition.  The staleness rule of the
    consumer ledger (:mod:`state.consumer`).

    ``after_group`` is a watermark this function returned earlier (a
    consumer's stored one).  Manifests are never rewritten and groups
    only grow, so then only ``manifest-G.json`` with ``G >= after_group``
    is loaded: a refresh reads the manifests committed since, not the
    whole history.  When ``manifest-{after_group}.json`` is not a
    state-changing commit of this partition (a watermark of another
    lake), the whole ledger is scanned."""
    d = partition_dir(lake_path, pid)
    lo = -1 if after_group is None else after_group
    wm, anchored = -1, lo < 0
    for name in os.listdir(d) if os.path.isdir(d) else ():
        m = _MANIFEST_RE.match(name)
        if not m or int(m.group(1)) < lo:
            continue
        with open(os.path.join(d, name)) as f:
            c = json.load(f).get("counters", {})
        if c.get("upserts", 0) or c.get("deletes", 0):
            g = int(m.group(1))
            wm = max(wm, g)
            anchored = anchored or g == lo
    return wm if anchored else state_changing_watermark(lake_path, pid)


def _listing(lake_path: str, pid: int):
    """One directory listing of a partition, by kind: (committed group
    ids, {epoch: delta path}, {generation: base path}, generations with
    a compact marker)."""
    d = partition_dir(lake_path, pid)
    groups, deltas, bases, markers = set(), {}, {}, set()
    for name in os.listdir(d) if os.path.isdir(d) else ():
        if m := _MANIFEST_RE.match(name):
            groups.add(int(m.group(1)))
        elif m := _DELTA_RE.match(name):
            deltas[int(m.group(1))] = os.path.join(d, name)
        elif m := _BASE_RE.match(name):
            bases[int(m.group(1))] = os.path.join(d, name)
        elif m := _COMPACT_RE.match(name):
            markers.add(int(m.group(1)))
    return groups, deltas, bases, markers


def _current_base(bases: dict, markers: set) -> tuple[int, str] | None:
    valid = [g for g in bases if g in markers]  # committed by its marker
    return (max(valid), bases[max(valid)]) if valid else None


def delta_runs(lake_path: str, pid: int) -> list[tuple[int, str]]:
    """Committed delta runs, oldest first: [(epoch, path)].

    Only deltas whose manifest exists count — an orphan ``delta-*.parquet``
    from a crashed task is invisible until its commit marker lands.
    Deltas already folded into the base are listed too; readers want
    :func:`live_runs`.
    """
    groups, deltas, _, _ = _listing(lake_path, pid)
    return sorted((e, p) for e, p in deltas.items() if e in groups)


def current_base(lake_path: str, pid: int) -> tuple[int, str] | None:
    """Newest committed base run: (generation, path) or None."""
    _, _, bases, markers = _listing(lake_path, pid)
    return _current_base(bases, markers)


def live_runs(
    lake_path: str, pid: int
) -> tuple[tuple[int, str] | None, int, list[tuple[int, str]]]:
    """The runs that hold a partition's state, from one listing and at
    most one marker read: ``(base, through, deltas)`` — the current base
    ``(generation, path)`` or None, its fold watermark (-1 without a
    base), and the committed deltas above it, oldest first.  A delta at
    or below the watermark was folded into the base: a compaction cut
    between its marker and its unlinks leaves it on disk, dead."""
    groups, deltas, bases, markers = _listing(lake_path, pid)
    base = _current_base(bases, markers)
    through = -1 if base is None else compact_through(lake_path, pid, base[0])
    live = sorted((e, p) for e, p in deltas.items() if e in groups and e > through)
    return base, through, live


def compact_marker_path(lake_path: str, pid: int, generation: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"compact-{generation:06d}.json")


def compact_through(lake_path: str, pid: int, generation: int) -> int:
    """The last commit group folded into base ``generation``, from that
    generation's marker alone (-1 when it has none).  Markers of
    superseded generations are never opened."""
    try:
        with open(compact_marker_path(lake_path, pid, generation)) as f:
            return int(json.load(f).get("through_group", -1))
    except FileNotFoundError:
        return -1


def read_compact_markers(lake_path: str, pid: int) -> list[dict]:
    out = []
    for path in sorted(
        glob.glob(os.path.join(partition_dir(lake_path, pid), "compact-*.json"))
    ):
        with open(path) as f:
            out.append(json.load(f))
    return out


def merge_counters(manifests: Iterable[dict]) -> dict:
    """Monoid merge of lineage counters across partition-epoch manifests
    (the Redis-counter analog, exactly-once because manifests are
    per-committed-epoch, not increments).  Keys prefixed ``min_`` fold
    by min and ``max_`` by max (the event-time watermark rides the
    ``max_ts_us`` counter); everything else sums.  Summing a bound
    across partitions would be meaningless."""
    total: dict[str, float] = {}
    for m in manifests:
        for k, v in m.get("counters", {}).items():
            if not isinstance(v, (int, float)):
                continue
            if k.startswith("min_"):
                total[k] = v if k not in total else min(total[k], v)
            elif k.startswith("max_"):
                total[k] = v if k not in total else max(total[k], v)
            else:
                total[k] = total.get(k, 0) + v
    return total


#: capacity of the recent-alert ring (reference keeps the latest 100
#: fraud alerts via Redis ``lpush`` + ``ltrim 0 99``,
#: ``streaming/spark/fraud_detector.py:76-77``).
ALERT_RING_K = 100


def merge_alert_ring(manifests: Iterable[dict], k: int = ALERT_RING_K) -> list[dict]:
    """Most-recent-K alert entries across all committed manifests.

    Each manifest carries at most K ``alerts`` entries; the merge is a
    keep-last-K monoid (concat -> sort by event recency -> truncate), so
    the ring is exactly-once by construction — replaying a committed
    epoch re-reads the same manifest instead of re-pushing entries (the
    documented double-count weakness of the reference's Redis lpush).
    Entries with a ``ts`` sort before ts-less ones; ``lsn`` breaks ties.
    """
    entries = [e for m in manifests for e in m.get("alerts", [])]
    entries.sort(
        key=lambda e: (e.get("ts") is not None, e.get("ts") or 0, e.get("lsn") or 0),
        reverse=True,
    )
    return entries[:k]
