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

A partition-epoch is committed iff its manifest file exists; data files
are written to ``*.tmp`` and atomically renamed *before* the manifest,
so a re-executed Ray task (retry or replayed run) either skips (already
committed) or deterministically rewrites identical bytes — replaying a
committed epoch is a no-op (exactly-once).
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


def atomic_write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def committed_epochs(lake_path: str, pid: int) -> set[int]:
    d = partition_dir(lake_path, pid)
    out = set()
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        m = _MANIFEST_RE.match(name)
        if m:
            out.add(int(m.group(1)))
    return out


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


def delta_runs(lake_path: str, pid: int) -> list[tuple[int, str]]:
    """Committed delta runs, oldest first: [(epoch, path)].

    Only deltas whose manifest exists count — an orphan ``delta-*.parquet``
    from a crashed task is invisible until its commit marker lands.
    """
    committed = committed_epochs(lake_path, pid)
    d = partition_dir(lake_path, pid)
    out = []
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        m = _DELTA_RE.match(name)
        if m and int(m.group(1)) in committed:
            out.append((int(m.group(1)), os.path.join(d, name)))
    return sorted(out)


def current_base(lake_path: str, pid: int) -> tuple[int, str] | None:
    """Newest committed base run: (generation, path) or None."""
    d = partition_dir(lake_path, pid)
    if not os.path.isdir(d):
        return None
    gens = []
    for name in os.listdir(d):
        m = _BASE_RE.match(name)
        if m:
            gens.append((int(m.group(1)), os.path.join(d, name)))
    if not gens:
        return None
    # a base is valid iff its compaction marker exists
    valid = [
        (g, p)
        for g, p in gens
        if os.path.exists(os.path.join(d, f"compact-{g:06d}.json"))
    ]
    return max(valid) if valid else None


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
