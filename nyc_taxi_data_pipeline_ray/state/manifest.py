"""The lake's layout and its one commit log: committed groups, lineage
counters, the event-time watermark and the resume scan.

Replaces three reference mechanisms at once:

- the S3-object-existence sync ledger that decides which monthly files
  still need loading (``airflow/dags/scripts/sync_manager.py:24-58``),
- the Spark streaming checkpoint dir (``streaming/spark/
  fraud_detector.py:190``),
- the Redis metric counters (``fraud_detector.py:54-118``) — lineage
  and per-partition metrics live *in* the log records, summed
  monoid-style when folded (exactly-once, unlike Redis increments which
  double-count under replay — a documented reference weakness).

Layout under ``lake/``:

- ``_log/commit-SSSSSS.json``      commit record number S, in commit
  order: the group's id and epochs, the counters of each partition it
  wrote, its alert ring, the event-time watermark after it and the
  apply's stage seconds
- ``_log/checkpoint-SSSSSS.json``  the fold of records 1..S
- ``p=NNNN/delta-GGGGGG.parquet``   delta run of commit group G (a
  group's id is its largest epoch)
- ``p=NNNN/rejects-GGGGGG.parquet`` dead-letter rows of group G (if any)
- ``p=NNNN/base-GGGGGG.parquet``    compacted base run (generation G)
- ``p=NNNN/compact-GGGGGG.json``    its marker: ``generation``,
  ``through_group`` (the largest group id folded), ``through_seq`` (the
  log position folded through) and ``rows``

The commit rule (Delta Lake, VLDB 2020), kept by one primitive,
:func:`nyc_taxi_data_pipeline_ray.io.commit_file`: every file is written
to a tmp sibling and published by one atomic rename, data files before
the record that makes them visible.  Apply's tasks write only data
files; the driver then commits the whole group with one fsynced record
numbered ``head + 1`` under the single-writer lease, so the group
becomes visible in every partition at once.  A delta run is committed
iff its group has a record, and live iff that record comes after its
partition's ``through_seq``: a late group, committed after a compaction
that folded larger group ids, is still live.  A base is committed iff
its marker exists.  Replaying a committed epoch is a no-op
(exactly-once); a crashed group has no record, and its retry rewrites
the same data files.

:func:`read_log` is the one reader: one listing of ``_log/``, then the
newest checkpoint plus the records after it, folded.  Records and
checkpoints are write-once, so a process-wide cache keyed by each
file's stat identity serves a repeat read without loading JSON.
``compact()`` folds a checkpoint (:func:`write_checkpoint`) and deletes
the records it covers, so one checkpoint stays live.

The same log serves every ledger of the package, each under its own
root and with its own payload fold: the lake's groups (:class:`Log`),
an index's segments (:class:`~state.segment_ledger.Segments`, records
named by segment id) and a consumer's outputs
(:class:`~state.consumer.Outputs`).  A fold is a class with ``seq``,
``fold(record)``, ``copy()``, ``checkpoint()`` and
``from_checkpoint(doc)``.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from nyc_taxi_data_pipeline_ray import io as nio

# {6,} not {6}: the writers format with :06d, which GROWS past six
# digits at epoch/generation 1,000,000 — an exact-width match would
# silently drop those commits from every merge (data loss at the scale
# this lake is designed for)
_DELTA_RE = re.compile(r"delta-(\d{6,})\.parquet$")
_REJECTS_RE = re.compile(r"rejects-(\d{6,})\.parquet$")
_BASE_RE = re.compile(r"base-(\d{6,})\.parquet$")
_COMPACT_RE = re.compile(r"compact-(\d{6,})\.json$")
_RECORD_RE = re.compile(r"commit-(\d{6,})\.json$")
_CHECKPOINT_RE = re.compile(r"checkpoint-(\d{6,})\.json$")
_LOG_DIR = "_log"


class LakeLayoutError(RuntimeError):
    """A ledger directory (a lake, an index or a consumer) was written in
    a marker layout this engine does not read: one without a commit
    log.  Rebuild it from its source (a lake from its WAL)."""


def check_layout(root: str, *retired: str) -> None:
    """Raise :class:`LakeLayoutError` on a directory without ``_log/``
    that holds a file of a retired marker layout: one of the ``retired``
    globs, by default the lake's (per-partition ``manifest-*.json``
    files, global ``_epochs`` markers, a ``_watermark.json`` cache)."""
    if os.path.isdir(os.path.join(root, _LOG_DIR)):
        return
    retired = retired or ("_epochs", "_watermark.json", os.path.join("p=*", "manifest-*.json"))
    found = [p for pat in retired for p in glob.glob(os.path.join(root, pat))]
    if found:
        raise LakeLayoutError(
            f"{root} uses a retired per-file manifest layout ({found[0]}) and has "
            "no commit log; rebuild it from its source"
        )


def partition_dir(lake_path: str, pid: int) -> str:
    return os.path.join(lake_path, f"p={pid:04d}")


def delta_path(lake_path: str, pid: int, group: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"delta-{group:06d}.parquet")


def rejects_path(lake_path: str, pid: int, group: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"rejects-{group:06d}.parquet")


def base_path(lake_path: str, pid: int, generation: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"base-{generation:06d}.parquet")


def compact_marker_path(lake_path: str, pid: int, generation: int) -> str:
    return os.path.join(partition_dir(lake_path, pid), f"compact-{generation:06d}.json")


def record_path(root: str, seq: int) -> str:
    return os.path.join(root, _LOG_DIR, f"commit-{seq:06d}.json")


def checkpoint_path(root: str, seq: int) -> str:
    return os.path.join(root, _LOG_DIR, f"checkpoint-{seq:06d}.json")


def is_file_not_found(e: BaseException) -> bool:
    """FileNotFoundError, possibly Ray-wrapped (RayTaskError.cause) —
    the predicate behind the one-retry reader-vs-compactor idiom shared
    by the engine's pruned key readers, MinHashIndex and IvfIndex."""
    return isinstance(e, FileNotFoundError) or isinstance(
        getattr(e, "cause", None), FileNotFoundError
    )


# ------------------------------------------------------------------- the log


@dataclass
class Log:
    """A lake's committed state: the fold of its newest checkpoint and
    the records after it.  Shared through the read cache, so callers
    treat it as read-only."""

    seq: int = 0  #: position of the newest record (0: empty log)
    #: group id -> [record position, epochs]
    groups: dict[int, list] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  #: :func:`merge_counters` of every partition
    alerts: list = field(default_factory=list)  #: :func:`merge_alert_ring` of every group
    #: pid -> the log position of the latest record that changed its
    #: merged state
    changed: dict[int, int] = field(default_factory=dict)
    #: group id -> {pid: delta rows} of the records after the checkpoint
    #: (a checkpoint follows a full compaction: no delta before it is live)
    rows: dict[int, dict[int, int]] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)  #: the records after the checkpoint

    @property
    def epochs(self) -> set[int]:
        return {e for _, eps in self.groups.values() for e in eps}

    @property
    def watermark_us(self) -> int | None:
        """The event-time watermark: max committed event time (µs)."""
        return self.counters.get("max_ts_us")

    def fold(self, rec: dict) -> None:
        g, parts = rec["group_id"], {int(p): c for p, c in rec["partitions"].items()}
        self.seq = rec["seq"]
        self.groups[g] = [self.seq, rec["epochs"]]
        self.counters = merge_counters([self.counters, *parts.values()])
        self.alerts = merge_alert_ring([self.alerts, rec.get("alerts", [])])
        for p, c in parts.items():
            if c.get("upserts") or c.get("deletes"):
                self.changed[p] = self.seq
        self.rows[g] = {p: c.get("upserts", 0) + c.get("deletes", 0) for p, c in parts.items()}
        self.records.append(rec)

    def copy(self) -> "Log":
        return replace(
            self,
            groups=dict(self.groups),
            changed=dict(self.changed),
            rows=dict(self.rows),
            records=list(self.records),
        )

    def slim(self) -> "Log":
        """What a partition task needs — group positions and epochs, the
        watermark — without the rest, for shipping into Ray tasks."""
        return replace(self, alerts=[], changed={}, rows={}, records=[])

    def upto(self, seq: int) -> "Log":
        """The committed view as it stood after log position ``seq``: the
        groups committed at or before it.  A base folded past ``seq``
        cannot serve that view (the engine's partition read refuses
        it)."""
        groups = {g: v for g, v in self.groups.items() if v[0] <= seq}
        return replace(self.slim(), seq=seq, groups=groups)

    def checkpoint(self) -> dict:
        """The checkpoint document; JSON keys are strings, so the int-keyed
        maps are stored as pairs."""
        return {
            "seq": self.seq,
            "groups": sorted(self.groups.items()),
            "counters": self.counters,
            "alerts": self.alerts,
            "changed": sorted(self.changed.items()),
        }

    @classmethod
    def from_checkpoint(cls, d: dict) -> "Log":
        return cls(**{**d, "groups": dict(d["groups"]), "changed": dict(d["changed"])})


def _load(path: str) -> dict:
    """The one reader of ledger JSON: log files and compact markers."""
    with open(path) as f:
        return json.load(f)


def _ident(path: str) -> tuple:
    st = os.stat(path)
    return (path, st.st_ino, st.st_size, st.st_mtime_ns)


#: (log root, fold class) -> (stat identities of the files folded, the
#: fold), for at most :data:`_CACHE_LOGS` logs, oldest dropped first
_LOGS: dict[tuple[str, type], tuple[tuple, object]] = {}
_CACHE_LOGS = 64
_CACHE_LOCK = threading.Lock()


def _cache(key: tuple[str, type], idents: tuple, log) -> None:
    with _CACHE_LOCK:
        _LOGS.pop(key, None)
        _LOGS[key] = (idents, log)
        while len(_LOGS) > _CACHE_LOGS:
            _LOGS.pop(next(iter(_LOGS)))


def _log_names(names: Iterable[str]) -> tuple[int, list[int]]:
    """The newest checkpoint's position (-1: none) and the positions of
    the records after it, in order."""
    ckpt, recs = -1, []
    for name in names:
        if m := _CHECKPOINT_RE.match(name):
            ckpt = max(ckpt, int(m.group(1)))
        elif m := _RECORD_RE.match(name):
            recs.append(int(m.group(1)))
    return ckpt, sorted(s for s in recs if s > ckpt)


def _list_log(root: str) -> list[str]:
    try:
        return sorted(os.listdir(os.path.join(root, _LOG_DIR)))
    except FileNotFoundError:
        return []


def read_log(root: str, kind: type = Log):
    """The committed state under ``root`` (the lake's :class:`Log`
    unless ``kind`` names another fold), from one listing of ``_log/``:
    the newest checkpoint plus the records after it.  A file that
    vanishes under the listing (a checkpoint deleting the records it
    covers) makes it list once more."""
    try:
        return _read_log_once(root, kind)
    except FileNotFoundError:
        return _read_log_once(root, kind)


def _read_log_once(root: str, kind: type):
    ckpt, recs = _log_names(_list_log(root))
    paths = ([checkpoint_path(root, ckpt)] if ckpt >= 0 else []) + [
        record_path(root, s) for s in recs
    ]
    idents = tuple(_ident(p) for p in paths)
    key = (root, kind)
    cached = _LOGS.get(key)
    if cached is not None and cached[0] == idents:
        return cached[1]
    if cached is not None and cached[0] and idents[: len(cached[0])] == cached[0]:
        log, done = cached[1].copy(), len(cached[0])
    elif ckpt >= 0:
        log, done = kind.from_checkpoint(_load(paths[0])), 1
    else:
        log, done = kind(), 0
    for p in paths[done:]:
        log.fold(_load(p))
    _cache(key, idents, log)
    return log


def log_head(root: str) -> int:
    """The newest position listed under ``root/_log/`` (-1: none),
    whether or not its file can be read."""
    ckpt, recs = _log_names(_list_log(root))
    return max(recs, default=ckpt)


def append_record(root: str, log, record: dict):
    """Commit ``record`` as log position ``log.seq + 1``, unless it names
    its own ``seq`` (an index names a record by its segment id) —
    ``log`` is the state the writer read under its lease — and return
    the new state.  The record is fsynced before its rename
    (:func:`io.commit_json`); it is the one commit point of what it
    records."""
    rec = {"seq": log.seq + 1, **record}
    path = record_path(root, rec["seq"])
    nio.commit_json(path, rec)
    new = log.copy()
    new.fold(rec)
    key = (root, type(log))
    cached = _LOGS.get(key)
    if cached is not None and cached[1] is log:  # the next read loads nothing
        _cache(key, cached[0] + (_ident(path),), new)
    return new


def write_checkpoint(root: str, log) -> None:
    """Fold ``log`` into ``_log/checkpoint-S.json`` (S: its head), then
    delete the records and the checkpoints it covers — best effort: a
    cut leaves them for ``vacuum``.  The lake checkpoints after a full
    compaction, which left no delta of those records live, so its
    checkpoint keeps no per-partition row counts."""
    path, doc = checkpoint_path(root, log.seq), log.checkpoint()
    nio.commit_json(path, doc)
    vacuum_log(root)
    _cache((root, type(log)), (_ident(path),), type(log).from_checkpoint(doc))


def ledger_remnants(root: str) -> list[dict]:
    """``fsck`` entries for ``_log/``: tmp siblings of cut commits, and
    the records and checkpoints the newest checkpoint covers
    (``folded_log``); reclaimable, invisible to readers."""
    names = _list_log(root)
    ckpt, _ = _log_names(names)
    out = []
    for name in names:
        m = _RECORD_RE.match(name) or _CHECKPOINT_RE.match(name)
        seq = int(m.group(1)) if m else None
        folded = m is not None and (seq < ckpt or (seq == ckpt and m.re is _RECORD_RE))
        kind = "tmp_file" if nio.is_tmp(name) else "folded_log" if folded else None
        if kind:
            out.append({"kind": kind, "pid": None, "file": os.path.join(_LOG_DIR, name)})
    return out


def vacuum_log(root: str) -> int:
    """Delete :func:`ledger_remnants`; returns how many were removed."""
    removed = 0
    for r in ledger_remnants(root):
        with contextlib.suppress(OSError):
            os.remove(os.path.join(root, r["file"]))
            removed += 1
    return removed


def state_changing_watermark(lake_path: str, pid: int, log: Log | None = None) -> int:
    """Log position of the latest record that CHANGED a partition's
    merged state (-1: none) — the staleness rule of the consumer ledger
    (:mod:`state.consumer`).  A position, not a group id: a late group
    committed after larger group ids still moves it.  A group that
    delivered no upserts/deletes there (empty slice, or rejects-only)
    leaves the merged state untouched, so it must not invalidate a
    consumer's cached partition."""
    log = read_log(lake_path) if log is None else log
    return log.changed.get(pid, -1)


def check_group_boundary(log: Log, epoch: int, above: int = -1) -> None:
    """Raise ValueError when ``epoch`` falls inside a committed group
    above ``above`` (epochs reaching below it and past it): the group
    committed its epochs at once, so no state exists at that epoch."""
    for g, (_, eps) in log.groups.items():
        if g > above and min(eps) <= epoch < max(eps):
            raise ValueError(
                f"epoch {epoch} falls inside commit group {g} (epochs {sorted(eps)}); "
                "lake states and changes exist only at commit-group boundaries"
            )


# ------------------------------------------------------------ partition runs


def _listing(lake_path: str, pid: int):
    """One directory listing of a partition, by kind: ({group: delta
    path}, {group: rejects path}, {generation: base path}, generations
    with a compact marker)."""
    d = partition_dir(lake_path, pid)
    deltas, rejects, bases, markers = {}, {}, {}, set()
    for name in os.listdir(d) if os.path.isdir(d) else ():
        if m := _DELTA_RE.match(name):
            deltas[int(m.group(1))] = os.path.join(d, name)
        elif m := _REJECTS_RE.match(name):
            rejects[int(m.group(1))] = os.path.join(d, name)
        elif m := _BASE_RE.match(name):
            bases[int(m.group(1))] = os.path.join(d, name)
        elif m := _COMPACT_RE.match(name):
            markers.add(int(m.group(1)))
    return deltas, rejects, bases, markers


def _current_base(bases: dict, markers: set) -> tuple[int, str] | None:
    valid = [g for g in bases if g in markers]  # committed by its marker
    return (max(valid), bases[max(valid)]) if valid else None


class Runs(NamedTuple):
    """The runs that hold a partition's state."""

    base: tuple[int, str] | None  #: current base (generation, path)
    through_group: int  #: largest group id folded into it (-1: no base)
    through_seq: int  #: log position it folded through (-1: no base)
    live: list[tuple[int, str]]  #: live deltas (group, path), oldest group first


def live_runs(lake_path: str, pid: int, log: Log | None = None) -> Runs:
    """A partition's :class:`Runs`, from one listing, at most one marker
    read and the log (read here unless given).  A delta is live iff its
    group is committed after the base's ``through_seq``: one at or below
    it was folded, and a compaction cut between its marker and its
    unlinks leaves it on disk, dead."""
    log = read_log(lake_path) if log is None else log
    deltas, _, bases, markers = _listing(lake_path, pid)
    base = _current_base(bases, markers)
    # only the current generation's marker: superseded ones are never opened
    m = _load(compact_marker_path(lake_path, pid, base[0])) if base is not None else {}
    through_seq = int(m.get("through_seq", -1))
    live = sorted(
        (g, p) for g, p in deltas.items() if g in log.groups and log.groups[g][0] > through_seq
    )
    return Runs(base, int(m.get("through_group", -1)), through_seq, live)


def delta_runs(lake_path: str, pid: int) -> list[tuple[int, str]]:
    """Committed delta runs, oldest group first: [(group, path)].

    Only deltas whose group has a log record count — an orphan
    ``delta-*.parquet`` from a crashed apply is invisible until its
    record lands.  Deltas already folded into the base are listed too;
    readers want :func:`live_runs`.
    """
    log = read_log(lake_path)
    deltas = _listing(lake_path, pid)[0]
    return sorted((g, p) for g, p in deltas.items() if g in log.groups)


def rejects_runs(lake_path: str, pid: int, log: Log) -> list[tuple[int, str]]:
    """Committed dead-letter files, oldest group first: [(group, path)]."""
    rejects = _listing(lake_path, pid)[1]
    return sorted((g, p) for g, p in rejects.items() if g in log.groups)


def current_base(lake_path: str, pid: int) -> tuple[int, str] | None:
    """Newest committed base run: (generation, path) or None."""
    _, _, bases, markers = _listing(lake_path, pid)
    return _current_base(bases, markers)


def read_compact_markers(lake_path: str, pid: int) -> list[dict]:
    return [
        _load(path)
        for path in sorted(
            glob.glob(os.path.join(partition_dir(lake_path, pid), "compact-*.json"))
        )
    ]


# ------------------------------------------------------------------ lineage


def merge_counters(counters: Iterable[dict]) -> dict:
    """Monoid merge of lineage counter dicts (the Redis-counter analog,
    exactly-once because each committed group's counters are recorded
    once, not incremented).  Keys prefixed ``min_`` fold by min and
    ``max_`` by max (the event-time watermark rides the ``max_ts_us``
    counter); everything else sums.  Summing a bound across partitions
    would be meaningless."""
    total: dict[str, float] = {}
    for c in counters:
        for k, v in c.items():
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


def merge_alert_ring(rings: Iterable[list[dict]], k: int = ALERT_RING_K) -> list[dict]:
    """Most-recent-K alert entries across alert lists.

    Each committed group records at most K ``alerts`` entries; the merge
    is a keep-last-K monoid (concat -> sort by event recency ->
    truncate), so the ring is exactly-once by construction — replaying a
    committed epoch commits nothing instead of re-pushing entries (the
    documented double-count weakness of the reference's Redis lpush).
    Entries with a ``ts`` sort before ts-less ones; ``lsn`` breaks ties.
    """
    entries = [e for ring in rings for e in ring]
    entries.sort(
        key=lambda e: (e.get("ts") is not None, e.get("ts") or 0, e.get("lsn") or 0),
        reverse=True,
    )
    return entries[:k]
