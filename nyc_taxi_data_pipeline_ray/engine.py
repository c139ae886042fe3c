"""CdcEngine — WAL replay -> keyed LWW upsert into a partitioned Parquet lake.

The Ray-Data-native replacement for the reference's whole ELT loop:

- discovery of unapplied input (``airflow/dags/scripts/sync_manager.py:24-58``
  month-walk + S3 head_object)            -> :meth:`CdcEngine.discover`
- idempotent bulk load (``nyc_taxi_sync_dag.py:41-48`` COPY INTO ...
  FILES=(...))                            -> :meth:`CdcEngine.apply`
- incremental keyed merge (``nyc_taxi_dbt/models/marts/core/
  fct_trips.sql:1-13``)                   -> per-partition LWW delta runs
- schema evolution (``snowflake/setup.sql:58-61``) -> Arrow unification
- checkpoint/resume (``streaming/spark/fraud_detector.py:190``)
                                          -> one commit log per lake
- Redis counters (``fraud_detector.py:54-118``) -> lineage in the log
  records, merged monoid-style by :meth:`CdcEngine.metrics`

Dataflow of one :meth:`apply` run (a group of unapplied epochs) — ONE
Ray Data execution, Stage A -> [A2] -> Stage B::

    Stage A  (map over WAL row-group ranges):
      one unit per ~row-group-range of a segment file:
        read -> conform -> validate -> per-unit LWW pre-combine
        -> ONE indexed, uncompressed Arrow IPC file per unit, rows
           grouped by (pid, salt): lake/_staging/group-G/unit-<unit>.arrow
           with one record batch per (pid, salt) run.  One file per unit —
           not per (unit x partition) — avoids the map-side small-file
           explosion (M x N files) at 10^10 events.
        -> emits one slice row per (unit, pid, salt) run naming its batch
           ordinals; a unit's invalid rows go to rej-<unit>.arrow and
           emit one reject-marked row on partition 0's key.
      unit names are DETERMINISTIC per (group, epoch, file, range),
      written tmp+rename: a retried task atomically overwrites identical
      bytes (exactly-once without any coordination).

    [Stage A2, salt_shards > 1]  (one call per (pid, salt) group):
      pre-merge of one hot partition's salt slice into a single combined
      fragment — the skew reducer: a conversation-heavy partition is
      collapsed by salt_shards groups before the final merge.  A group
      of one staged run passes through: Stage A already combined it.

    Stage B  (one call per pid group):
      one group per lake partition: its slice rows ARE its slice index.
      Memory-map the named batches, LWW-merge, write the delta run and
      rejects (data files only) and return the partition's counters and
      alerts in its report row.

    Units enter as min(units, cluster CPUs // task_cpus) blocks
    (``io.fan_out``), one per task slot, and the block count picks the
    plan (``ApplyReport.plan``).  One block ("fused": a one-unit
    micro-batch, any apply on a 1-slot node): its map task runs Stage A,
    then A2 and B over its own slice rows — no exchange.  More blocks
    ("exchange"): groupby exchanges feed A2 and B; they keep the input
    width, so each stage runs at most one task per slot, and a task works
    through its units or partitions one at a time.  Both plans call the
    same task bodies; only the grouping differs.

    driver: staging cleanup, then the group's one log record — the
    commit point that makes it visible in every partition at once
    (state/manifest.py).

The payload never crosses the object store: an exchange moves only the
small slice rows, while the rows themselves go through the partitioned
staging write into the lake's storage (node-local disk here, S3/HDFS on
a real cluster) — the standard external-shuffle layout for CDC upsert
at the 10^10-event scale, where a sort-based exchange of the full text
payload would bottleneck the object store.  Per-unit pre-combine
collapses repeated writes to the same key before anything is staged.
State lives in the lake (base + delta runs per partition), never in
actor memory — tasks are stateless and retryable; the log record is
the unit of truth.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import glob
import hashlib
import json
import os
import re
import shutil
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray import schemas
from nyc_taxi_data_pipeline_ray.config import LakeConfig
from nyc_taxi_data_pipeline_ray.stages import validate as validate_mod
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state import merge as mg

_EPOCH_DIR_RE = re.compile(r"epoch=(\d{6,})$")
# {4,}: mf.partition_dir formats p={pid:04d}, which grows to five digits
# at partition 10 000
_PARTITION_DIR_RE = re.compile(r"p=(\d{4,})$")


def _wal_epochs(wal_dir: str) -> list[tuple[int, str]]:
    """``(epoch, dir name)`` of each ``epoch=N`` dir of a WAL, oldest
    first by number: writers pad to 6 digits, so past 999999 the names
    no longer sort as their epochs do."""
    return sorted(
        (int(m.group(1)), name)
        for name in os.listdir(wal_dir)
        if (m := _EPOCH_DIR_RE.match(name))
    )


def hash_partition_ids(conv_id: pa.ChunkedArray | pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic (process-stable) hash partitioning of conv_id.

    Uses pandas' vectorized siphash with a fixed key — NOT Python
    ``hash()`` (salted per process, which would break resume).
    """
    arr = conv_id.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False)
    return (h % np.uint64(num_partitions)).astype(np.int32)


_worker_threads_set = False


def _ensure_worker_thread_limit() -> None:
    """Cap Arrow's internal thread pool inside Ray worker tasks.

    Each map task is scheduled as 1 CPU, but Arrow kernels
    (sort_indices/take/filter) default to a machine-wide pool — 30
    concurrent tasks x 32 Arrow threads oversubscribes the node ~30x.
    One Arrow thread per 1-CPU task keeps wall time ~= cpu time.
    """
    global _worker_threads_set
    if not _worker_threads_set:
        pa.set_cpu_count(max(1, int(os.environ.get("OMP_NUM_THREADS", "1"))))
        _worker_threads_set = True


def _stage_plan(
    t: pa.Table, num_partitions: int, salt_shards: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Compute the Stage-A routing plan *without touching the payload*.

    Works entirely on the 4 small key columns: validity, per-key LWW
    winner selection (the pre-shuffle combiner), partition/salt routing,
    and the (pid, salt)-grouped gather order.  Returns
    ``(final_idx, pid_sorted, salt_sorted, nsrc_sorted, bad_idx)`` so the
    caller can materialize winners with ONE take of the 2 KB-text rows.
    """
    mask = validate_mod.validity_mask(t).to_numpy(zero_copy_only=False).astype(bool)
    if mask.all():
        valid_idx = None
        keys = t.select(["conv_id", "turn_idx", "ts", "lsn"])
        bad_idx = None
    else:
        valid_idx = np.nonzero(mask)[0]
        bad_idx = np.nonzero(~mask)[0]
        keys = t.select(["conv_id", "turn_idx", "ts", "lsn"]).take(pa.array(valid_idx))
    if keys.num_rows == 0:
        return np.array([], np.int64), np.array([], np.int32), np.array([], np.int32), np.array([], np.int64), bad_idx
    order, last = mg.lww_order(keys)
    ends = np.flatnonzero(last)
    sizes = np.diff(ends, prepend=-1)
    winners_local = order[last]
    winners = valid_idx[winners_local] if valid_idx is not None else winners_local
    conv_w = keys["conv_id"].take(pa.array(winners_local))
    pid = hash_partition_ids(conv_w, num_partitions)
    if salt_shards > 1:
        salt = (
            keys["lsn"].take(pa.array(winners_local)).to_numpy(zero_copy_only=False)
            % salt_shards
        ).astype(np.int32)
    else:
        salt = np.zeros(len(winners), np.int32)
    forder = np.lexsort((salt, pid))
    return winners[forder], pid[forder], salt[forder], sizes[forder], bad_idx


def _named(fn, name: str):
    """map_groups requires a __name__; give a callable-class instance one
    without losing its per-call state."""
    def wrapped(group):
        return fn(group)

    wrapped.__name__ = name
    return wrapped


def _per_group(t: pa.Table, keys: list[str], fn) -> pa.Table:
    """In-task ``groupby(keys).map_groups(fn)``: sort ``t`` by ``keys``
    and call ``fn`` once per run of equal keys."""
    t = t.sort_by([(k, "ascending") for k in keys])
    edge = np.zeros(t.num_rows, bool)
    edge[:1] = True
    for k in keys:
        c = t[k].to_numpy()
        edge[1:] |= c[1:] != c[:-1]
    bounds = np.append(np.nonzero(edge)[0], t.num_rows)
    return pa.concat_tables([fn(t.slice(a, b - a)) for a, b in zip(bounds[:-1], bounds[1:])])


def _unit_name(u: dict) -> str:
    return f"e{u['epoch']:06d}-f{u['file_idx']:04d}-r{u['rg_lo']:05d}"


#: The rows that flow from Stage A (through A2) into Stage B:
#: one per staged (file, pid, salt) run.  ``file`` is a name inside the
#: group's staging dir (null on the one placeholder row per partition that
#: makes every pid a group); ``batches`` lists its batch ordinals (null:
#: the whole file); ``rej`` marks dead-letter rows, which always sit on pid 0.
_SLICE_SCHEMA = pa.schema(
    [
        ("pid", pa.int32()),
        ("salt", pa.int32()),
        ("file", pa.string()),
        ("batches", pa.list_(pa.int32())),
        ("rej", pa.bool_()),
    ]
)


def _slice_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) or [[] for _ in _SLICE_SCHEMA]
    return pa.table(
        [pa.array(c, f.type) for c, f in zip(cols, _SLICE_SCHEMA)], schema=_SLICE_SCHEMA
    )


def _write_staged(path: str, schema: pa.Schema, batches: list[pa.RecordBatch]) -> None:
    """Commit a staging file: uncompressed Arrow IPC, one record batch
    per item of ``batches`` (their ordinals are what slice rows name),
    so a retry replaces it atomically."""

    def write(tmp: str) -> None:
        with pa.OSFile(tmp, "wb") as sink, pa.ipc.new_file(sink, schema) as w:
            for b in batches:
                w.write_batch(b)

    nio.commit_file(path, write)


class _StageUnits:
    """Stage A task: for each unit of its block (one WAL row-group
    range), read, prepare, and write the rows split by (pid, salt) into
    one indexed Arrow IPC staging file per unit.

    This is the map side of the shuffle — a partitioned write into lake
    storage instead of an object-store all-to-all.  File names are a pure
    function of (group, epoch, file, row-group range), so a retried or
    replayed task atomically rewrites identical bytes.
    """

    def __init__(
        self,
        staging_dir: str,
        target_schema_str: bytes | None,
        num_partitions: int,
        salt_shards: int,
        first_unit: str,
    ):
        self.staging_dir = staging_dir
        # schemas don't pickle cheaply across many tasks; ship serialized
        self.target_schema = (
            pa.ipc.read_schema(pa.py_buffer(target_schema_str))
            if target_schema_str
            else None
        )
        self.num_partitions = num_partitions
        self.salt_shards = salt_shards
        #: the unit whose task also emits one placeholder row per partition
        self.first_unit = first_unit

    def __call__(self, units: pa.Table) -> pa.Table:
        """Returns :data:`_SLICE_SCHEMA` rows: one per (unit, pid, salt)
        run, reject units on partition 0's key with ``rej`` set.  These
        rows reach Stage B inside the execution (in-task or through the
        pid exchange), so the calling process never holds the
        O(units x partitions) slice map (~10 GB of heap at 10^10 events /
        4096 partitions).  The first unit also emits a
        placeholder row for every partition, so a partition this group
        does not touch still gets its (empty) report row."""
        _ensure_worker_thread_limit()
        rows = []
        for u in units.to_pylist():  # tiny descriptor rows, not a data loop
            pf = pq.ParquetFile(u["path"])
            t = pf.read_row_groups(list(range(u["rg_lo"], u["rg_hi"] + 1)))
            if self.target_schema is not None:
                t = mg.conform(t, self.target_schema)
            name = _unit_name(u)
            rows.extend(self._write_fragments(t, name))
            if name == self.first_unit:
                rows.extend((p, 0, None, None, False) for p in range(self.num_partitions))
        return _slice_table(rows)

    def _write_fragments(self, t: pa.Table, name: str) -> list[tuple]:
        """Write ONE indexed Arrow IPC file per unit: rows sorted by
        (pid, salt), one record batch per (pid, salt) run (one per chunk
        if the gathered body is chunked), and return its
        :data:`_SLICE_SCHEMA` rows — the in-band index naming each run's
        batch ordinals, plus one reject row if the unit has invalid rows.

        One file per unit — NOT one per (unit x partition) — is what
        survives scale: M units x N partitions of separate fragment
        files is the map-side shuffle small-file explosion (300M files
        at 10^10 events / 4096 partitions).  Merge tasks memory-map the
        file and touch only their batches, so I/O stays selective.  Names
        are deterministic and every file lands by tmp+rename, so retries
        rewrite in place.
        """
        final_idx, pid_s, salt_s, nsrc_s, bad_idx = _stage_plan(
            t, self.num_partitions, self.salt_shards
        )
        rows: list[tuple] = []
        if len(final_idx):
            # the ONE full-payload gather: winners, already (pid, salt)-grouped
            body = t.take(pa.array(final_idx))
            body = body.append_column(mg.NSRC, pa.array(nsrc_s, pa.int64()))
            changes = np.nonzero((np.diff(pid_s) != 0) | (np.diff(salt_s) != 0))[0]
            starts = np.concatenate([[0], changes + 1])
            ends = np.concatenate([changes + 1, [len(pid_s)]])
            file = f"unit-{name}.arrow"
            batches: list[pa.RecordBatch] = []
            for st, en in zip(starts, ends):
                run = body.slice(st, en - st).to_batches()
                ordinals = list(range(len(batches), len(batches) + len(run)))
                rows.append((int(pid_s[st]), int(salt_s[st]), file, ordinals, False))
                batches += run
            _write_staged(os.path.join(self.staging_dir, file), body.schema, batches)
        if bad_idx is not None and len(bad_idx):
            # dead-letter rows: raw, uncombined, routed to partition 0
            bad = t.take(pa.array(bad_idx))
            file = f"rej-{name}.arrow"
            _write_staged(os.path.join(self.staging_dir, file), bad.schema, bad.to_batches())
            rows.append((0, 0, file, None, True))
        return rows


def _read_slices(staging_dir: str, slices: pa.Table) -> pa.Table | None:
    """Concat the staged runs named by ``slices`` (:data:`_SLICE_SCHEMA`
    rows with a file), in (salt, file) order so a retry reads its rows in
    the same order; files are memory-mapped, so reading decodes nothing."""
    tables = []
    for r in slices.sort_by([("salt", "ascending"), ("file", "ascending")]).to_pylist():
        f = pa.ipc.open_file(pa.memory_map(os.path.join(staging_dir, r["file"])))
        ords = range(f.num_record_batches) if r["batches"] is None else r["batches"]
        tables.append(pa.Table.from_batches([f.get_batch(i) for i in ords], f.schema))
    return mg.concat_unified(tables) if tables else None


class _PreMergeSalts:
    """Stage A2 group task (salt_shards > 1), called once per (pid, salt)
    group of slice rows inside the apply's single execution: collapse
    one (pid, salt) slice into a single pre-combined fragment — parallel
    skew reduction for conversation-heavy partitions before the per-pid
    merge.  Emits one slice row naming that fragment;
    reject and placeholder rows pass through unchanged.  A group with
    at most one staged run passes through whole and writes nothing: the
    run is one unit of one epoch, which Stage A already combined per key.

    The pre-combine is one LWW resolve across the group's epochs, the
    same resolve Stage B runs over the whole group, so it keeps each
    key's winner; ``_nsrc`` lineage weights sum over each key's rows, so
    Stage B's ``rows_in`` stays exact.
    """

    def __init__(self, staging_dir: str):
        self.staging_dir = staging_dir

    def __call__(self, group: pa.Table) -> pa.Table:
        _ensure_worker_thread_limit()
        runs = pc.and_(pc.is_valid(group["file"]), pc.invert(group["rej"]))
        if pc.sum(runs).as_py() < 2:
            return group
        rest = group.filter(pc.invert(runs))
        good = _read_slices(self.staging_dir, group.filter(runs))
        pre = mg.merge_runs([good], drop_tombstones=False)
        pid, salt = int(group["pid"][0].as_py()), int(group["salt"][0].as_py())
        name = f"pre-p{pid:04d}-s{salt:02d}.arrow"
        _write_staged(os.path.join(self.staging_dir, name), pre.schema, pre.to_batches())
        return pa.concat_tables([rest, _slice_table([(pid, salt, name, None, False)])])


@dataclass
class ApplyReport:
    epochs: list[int]
    plan: str | None = None  # "fused" | "exchange" (module docstring); None: no-op
    blocks: int = 0
    partitions: int = 0
    rows_in: int = 0
    rejects: int = 0
    upserts: int = 0
    deletes: int = 0
    staged_bytes: int = 0  # size of the group's staging dir just before cleanup
    seconds: float = 0.0
    #: ``unit_scan`` (schemas, units, the log read), ``execute`` (the one
    #: Ray Data execution: Stage A, A2, B) and ``commit`` (staging cleanup,
    #: the log record, this report); they sum to ``seconds``.  The record
    #: stores them too, its ``commit`` stopping at the record's own write.
    stage_seconds: dict = field(default_factory=dict)
    details: list[dict] = field(default_factory=list)


class LakeLockedError(RuntimeError):
    """Another writer holds the lake's apply/compact lease."""


class _LakeLease:
    """Single-writer lease for apply/compact (advisory lock file).

    Two concurrent applies would delete each other's staging dirs
    (``apply`` clears stale ``_staging/group-*``), so writes are guarded
    by ``<lake>/_lock.json``, created atomically (hard link of a fully
    written temp file, which fails if the lock exists).  A crashed writer's
    lock is stolen when its pid is dead (same host) or the lease is
    older than ``stale_after_s`` (the cross-host fallback a real cluster
    would replace with an object-store conditional put / DynamoDB lock,
    as Delta/Iceberg single-writer commits do).
    """

    def __init__(
        self, lake_path: str, stale_after_s: float = 3600.0, wait_s: float = 0.0
    ):
        self.path = os.path.join(lake_path, "_lock.json")
        self.stale_after_s = stale_after_s
        #: >0: poll for up to this long instead of failing fast —
        #: writer QUEUEING (a follow loop and a cron compaction can
        #: coexist without the operator sequencing them by hand).
        self.wait_s = wait_s

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        deadline = time.time() + self.wait_s
        while True:
            token = uuid.uuid4().hex
            self.payload = json.dumps(
                {"pid": os.getpid(), "ts": time.time(), "token": token}
            ).encode()
            tmp = f"{self.path}.new-{token}"
            with open(tmp, "wb") as f:
                f.write(self.payload)
            try:
                os.link(tmp, self.path)  # atomic create: never seen half-written
                return self
            except FileExistsError:
                pass
            finally:
                os.remove(tmp)
            try:
                with open(self.path, "rb") as f:
                    held = f.read()
            except FileNotFoundError:
                continue  # released meanwhile: retry the create
            if self._is_stale(held):
                self._remove_if(held)
                continue
            if time.time() < deadline:
                time.sleep(0.1)
                continue
            raise LakeLockedError(
                f"lake is locked by another writer ({self.path}); "
                "concurrent apply/compact is not allowed"
            )

    def _is_stale(self, held: bytes) -> bool:
        try:
            lease = json.loads(held)
        except ValueError:
            return True  # corrupt lock: treat as stale
        if time.time() - float(lease.get("ts", 0)) > self.stale_after_s:
            return True
        pid = lease.get("pid")
        if isinstance(pid, int):
            try:
                os.kill(pid, 0)  # signal 0: existence check only
            except ProcessLookupError:
                return True
            except PermissionError:
                pass  # alive, owned by someone else
        return False

    def _remove_if(self, expected: bytes) -> None:
        """Compare-and-delete: remove the lock only if it still holds
        ``expected``.  A plain remove races — two waiters that judge the
        same lock stale both remove it, and the second deletes the lease
        the first has just created.  So the caller first hard-links the
        lock to a claim name derived from ``expected`` (one claimant per
        payload; the holder's own release uses the same name), re-reads
        the linked file, and removes the lock only if it is unchanged.
        While the claim exists no one else may remove this lease, and no
        one can create a lock over it, so the removed file is the one
        that was read."""
        claim = f"{self.path}.del-{hashlib.sha1(expected).hexdigest()}"
        try:
            os.link(self.path, claim)
        except FileNotFoundError:
            return  # already released or removed
        except FileExistsError:
            # another caller is removing this lease — unless its claim is
            # old, left by a caller that died mid-removal: clear it so a
            # later attempt can proceed
            with contextlib.suppress(FileNotFoundError):
                if time.time() - os.stat(claim).st_ctime > 60:
                    os.remove(claim)
            return
        try:
            with open(claim, "rb") as f:
                if f.read() == expected:
                    os.remove(self.path)
        finally:
            os.remove(claim)

    def __exit__(self, *exc):
        # only our own lease: one stolen from us as stale is the thief's
        self._remove_if(self.payload)
        return False


class CdcEngine:
    def __init__(self, cfg: LakeConfig):
        """Open (or create) a lake.  Opening an existing lake with a
        config that disagrees on the physical routing constants raises —
        ``num_partitions``/``salt_shards`` decide where every key lives,
        so silently overwriting ``_lake.json`` would misroute all
        subsequent applies and break partition-pruned lookups.  A lake
        in the retired per-partition-manifest layout raises
        :class:`LakeLayoutError`."""
        if os.path.exists(cfg.meta_path):
            mf.check_layout(cfg.path)
            existing = LakeConfig.load(cfg.path)
            for attr in ("num_partitions", "salt_shards"):
                if getattr(existing, attr) != getattr(cfg, attr):
                    raise ValueError(
                        f"lake at {cfg.path} was created with "
                        f"{attr}={getattr(existing, attr)}, got {getattr(cfg, attr)}; "
                        "use LakeConfig.open_or_create / LakeConfig.load"
                    )
            self.cfg = cfg
        else:
            self.cfg = cfg
            cfg.save()

    # ------------------------------------------------------------- discovery
    def discover(self, wal_dir: str) -> list[tuple[int, list[str]]]:
        """Unapplied epochs, oldest first: [(epoch, [segment files])].

        The smart-sync analog: instead of per-month S3 ``head_object``
        checks (``sync_manager.py:38-41``), list WAL epoch dirs and diff
        against the epochs of the lake's commit log.
        """
        done = mf.read_log(self.cfg.path).epochs
        out = []
        for epoch, name in _wal_epochs(wal_dir):
            if epoch in done:
                continue
            d = os.path.join(wal_dir, name)
            files = sorted(
                os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
            )
            if files:
                out.append((epoch, files))
        return out

    def last_committed_group(self) -> int:
        """The largest committed group id (-1: none).  A group is
        committed in every partition at once by its log record, so one
        still running (or cut before its record) does not count."""
        return max(mf.read_log(self.cfg.path).groups, default=-1)

    # ----------------------------------------------------------------- apply
    def apply(
        self,
        wal_dir: str,
        *,
        max_epochs: int | None = None,
        lease_wait_s: float = 0.0,
    ) -> ApplyReport:
        """Apply all (or the next ``max_epochs``) unapplied epochs as one
        Dataset pipeline run, committed by one log record.  Idempotent:
        committed epochs are not rediscovered, so a fully committed run is
        a no-op, and a group cut before its record is rerun whole."""
        if not self.discover(wal_dir)[:max_epochs]:
            return ApplyReport(epochs=[])
        with _LakeLease(self.cfg.path, wait_s=lease_wait_s):
            # again under the lease: a writer that held it may have
            # committed some of these epochs meanwhile
            work = self.discover(wal_dir)[:max_epochs]
            return self._apply_locked(work) if work else ApplyReport(epochs=[])

    def _apply_locked(self, work) -> ApplyReport:
        epochs = [e for e, _ in work]
        t0 = time.perf_counter()

        # schema evolution across epochs: unify per-epoch file schemas
        # (driver-side footer read, one file per epoch) and conform every
        # unit to the union before staging, so heterogeneous WAL segments
        # (added columns, widened ints) coexist in one run.
        epoch_schemas = [pq.read_schema(fs[0]) for _, fs in work]
        target_schema = schemas.unify(*epoch_schemas)

        group_id = max(epochs)
        staging_root = os.path.join(self.cfg.path, "_staging")
        staging_dir = os.path.join(staging_root, f"group-{group_id:06d}")
        # ALL stale staging is dead weight — including our own group's dir
        # from a crashed earlier attempt: a retry restages every unit it
        # merges, and Stage B reads only the runs this execution's slice
        # rows name, so leftovers would only hold disk.
        if os.path.isdir(staging_root):
            for name in os.listdir(staging_root):
                shutil.rmtree(os.path.join(staging_root, name), ignore_errors=True)

        units = self._stage_units(work)
        # the committed state this group builds on, read once under the
        # lease: Stage B's auto-compaction folds only its runs, and its
        # event-time watermark is the lateness threshold of every
        # partition of this group (a retry reads the same log)
        log = mf.read_log(self.cfg.path)
        t_scan = time.perf_counter()

        # ONE execution: Stage A (partitioned staging write, one task per
        # task slot) -> [A2: (pid, salt) pre-merge] -> Stage B
        # (per-partition LWW merge, data files only).  Only the small
        # slice rows pass between the stages, and this process collects
        # just one report row per partition.
        task_cpus = nio.capped_cpus(self.cfg.task_cpus)
        stage = _StageUnits(
            staging_dir,
            target_schema.serialize().to_pybytes(),
            self.cfg.num_partitions,
            self.cfg.salt_shards,
            first_unit=_unit_name(units[0]),
        )
        pre_merge = _PreMergeSalts(staging_dir) if self.cfg.salt_shards > 1 else None
        merge = _MergePartitions(
            self.cfg.path,
            staging_dir,
            group_id,
            log.slim(),
            self.cfg.max_delta_runs,
            self.cfg.base_row_group_rows,
        )
        units_ds = nio.fan_out(units, task_cpus)
        blocks = units_ds.num_blocks()
        kw = dict(batch_format="pyarrow", num_cpus=task_cpus)
        if blocks == 1:
            # the one task holds every pid's slice rows: group them in-task
            def fused(unit_rows: pa.Table) -> pa.Table:
                slices = stage(unit_rows)
                if pre_merge is not None:
                    slices = _per_group(slices, ["pid", "salt"], pre_merge)
                return _per_group(slices, ["pid"], merge)

            out = units_ds.map_batches(fused, batch_size=None, **kw)
        else:
            out = units_ds.map_batches(stage, batch_size=None, **kw)
            if pre_merge is not None:
                out = out.groupby(["pid", "salt"]).map_groups(
                    _named(pre_merge, "pre_merge_salts"), **kw
                )
            out = out.groupby("pid").map_groups(_named(merge, "merge_partitions"), **kw)
        reports = sorted(out.take_all(), key=lambda r: r["pid"])
        t_exec = time.perf_counter()

        # every partition wrote its data files: drop the dead staging, then
        # commit the group with its one log record — the last commit
        # point, so nothing may follow it
        staged = os.scandir(staging_dir) if os.path.isdir(staging_dir) else []
        staged_bytes = sum(f.stat().st_size for f in staged)
        shutil.rmtree(staging_dir, ignore_errors=True)
        stage_seconds = {"unit_scan": t_scan - t0, "execute": t_exec - t_scan}
        mf.append_record(
            self.cfg.path,
            log,
            {
                "group_id": group_id,
                "epochs": epochs,
                "partitions": _record_partitions(reports),
                "alerts": mf.merge_alert_ring(json.loads(r["alerts"]) for r in reports),
                "stage_seconds": {**stage_seconds, "commit": time.perf_counter() - t_exec},
            },
        )

        rep = ApplyReport(
            epochs=epochs,
            plan="fused" if blocks == 1 else "exchange",
            blocks=blocks,
            partitions=len(reports),
            staged_bytes=staged_bytes,
            details=reports,
            **{k: sum(r[k] for r in reports) for k in ("rows_in", "rejects", "upserts", "deletes")},
        )
        t_end = time.perf_counter()
        rep.stage_seconds = {**stage_seconds, "commit": t_end - t_exec}
        rep.seconds = t_end - t0
        return rep

    def _stage_units(self, work) -> list[dict]:
        """Split the WAL segment files of this run into row-group-aligned
        work units (driver-side footer metadata scan only)."""
        rows_per_unit = self.cfg.stage_unit_rows
        out = []
        for epoch, fs in work:
            for fi, path in enumerate(fs):
                md = pq.ParquetFile(path).metadata
                lo, acc = 0, 0
                for rg in range(md.num_row_groups):
                    acc += md.row_group(rg).num_rows
                    if acc >= rows_per_unit or rg == md.num_row_groups - 1:
                        out.append(
                            {"epoch": epoch, "path": path, "file_idx": fi, "rg_lo": lo, "rg_hi": rg}
                        )
                        lo, acc = rg + 1, 0
        return out

    # ----------------------------------------------------------- tail / lag
    def lag(self, wal_dir: str) -> dict:
        """Consumer-lag metrics vs the WAL head (the Kafka-lag analog,
        ``streaming/README.md`` throughput dashboard): unapplied epoch
        count/ids and the newest WAL epoch vs newest committed."""
        committed = mf.read_log(self.cfg.path).epochs
        wal_epochs = [e for e, _ in _wal_epochs(wal_dir)] if os.path.isdir(wal_dir) else []
        pending = sorted(e for e in wal_epochs if e not in committed)
        return {
            "wal_head": max(wal_epochs, default=None),
            "committed_head": max(committed, default=None),
            "epochs_behind": len(pending),
            "pending_epochs": pending,
        }

    def follow(
        self,
        wal_dir: str,
        *,
        poll_interval_s: float = 1.0,
        max_idle_polls: int = 3,
        epochs_per_apply: int | None = None,
        on_apply=None,
    ) -> list[ApplyReport]:
        """Tail the WAL: repeatedly apply newly arrived epochs until the
        log goes quiet for ``max_idle_polls`` polls (the micro-batch
        trigger loop analog, ``fraud_detector.py:306-310`` — epoch
        directories stand in for Kafka offsets; exactly-once commits make
        re-polling free)."""
        reports: list[ApplyReport] = []
        idle = 0
        while idle < max_idle_polls:
            rep = self.apply(wal_dir, max_epochs=epochs_per_apply)
            if rep.epochs:
                idle = 0
                reports.append(rep)
                if on_apply is not None:
                    on_apply(rep)
            else:
                idle += 1
                time.sleep(poll_interval_s)
        return reports

    # ------------------------------------------------------------ compaction
    def wal_gc(self, wal_dir: str) -> dict:
        """WAL retention: delete epoch directories the lake has fully
        committed (the epochs of the commit log — the same ledger
        ``discover`` diffs against), so the log's disk footprint tracks
        lag instead of history.  The Kafka-retention analog with an
        exactly-once twist: a committed epoch is a no-op on re-apply,
        so GC never changes replay semantics — it only reclaims bytes.
        Epochs at or above the first UNcommitted epoch are always kept
        (even if individually committed) so a resumable gap never loses
        its tail.  Returns ``{"removed": n, "kept": n}``."""
        done = mf.read_log(self.cfg.path).epochs
        names = _wal_epochs(wal_dir)
        removed = kept = 0
        for epoch, name in names:
            if epoch in done:
                shutil.rmtree(os.path.join(wal_dir, name), ignore_errors=True)
                removed += 1
            else:
                # first gap: keep everything from here on
                kept = len(names) - removed
                break
        else:
            kept = 0
        return {"removed": removed, "kept": kept}

    def compact(
        self,
        pids: list[int] | None = None,
        *,
        drop_tombstones: bool = False,
    ) -> int:
        """Merge each partition's base + delta runs into a new base
        generation (LSM compaction).  Distributed: map_batches over
        partition descriptors, one Ray task per task slot.

        Tombstones are RETAINED by default: the WAL carries out-of-order
        timestamps that cross epoch boundaries, so a delete's tombstone
        must keep masking any later-arriving event with an older
        ``(ts, lsn)`` for the same key.  Pass ``drop_tombstones=True``
        only for a full compaction when the WAL is known complete (no
        epoch can still deliver an older write) — the event-time
        watermark decision belongs to the operator, not the engine.

        A partition without a live delta run is left as it is: its base
        is already the fold of everything.  A full compaction (``pids``
        None) then folds the commit log into one checkpoint
        (:func:`state.manifest.write_checkpoint`), so later reads load it
        instead of every record.
        """
        full = pids is None
        pids = self.live_pids() if full else pids
        if not pids:
            return 0
        lake_path = self.cfg.path

        with _LakeLease(self.cfg.path):
            log = mf.read_log(lake_path)
            slim = log.slim()
            row_group_rows = self.cfg.base_row_group_rows

            def compact_one(batch: pa.Table) -> pa.Table:
                done = []
                for pid in batch["pid"].to_pylist():
                    done.append(
                        _compact_partition(
                            lake_path,
                            int(pid),
                            slim,
                            drop_tombstones=drop_tombstones,
                            row_group_rows=row_group_rows,
                        )
                    )
                return pa.table({"pid": batch["pid"], "compacted": pa.array(done, pa.bool_())})

            ds = _fan_out_pids(pids).map_batches(compact_one, batch_format="pyarrow")
            n = sum(1 for r in ds.take_all() if r["compacted"])
            if full and log.records:
                mf.write_checkpoint(lake_path, log)
            return n

    def live_pids(self) -> list[int]:
        out = []
        if not os.path.isdir(self.cfg.path):
            return out
        for name in os.listdir(self.cfg.path):
            m = _PARTITION_DIR_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    # -------------------------------------------------------------- snapshot
    def snapshot(
        self, columns: list[str] | None = None, *, as_of_epoch: int | None = None
    ) -> rd.Dataset:
        """The lake's current state as a Dataset: one task per task slot,
        each merging its partitions' base and delta runs one partition at
        a time (a fully-compacted partition is one run, so its merge only
        drops tombstones).

        ``as_of_epoch`` time-travels: the returned state is what the
        lake held right after that epoch's commit group (the log is the
        ledger; deltas of larger groups are simply not read).
        Raises if the target predates the compaction watermark or falls
        inside a multi-epoch commit group.

        Output rows are unique on (conv_id, turn_idx) and sorted by that
        key *within* each partition — the stable turn ordering the
        equality oracle requires is obtained with a final global sort by
        the caller when needed.
        """
        pids = self.live_pids()
        lake_path = self.cfg.path
        log = mf.read_log(lake_path).slim()  # one committed view for every partition

        def select(t: pa.Table) -> pa.Table:
            if columns:
                return t.select([c for c in columns if c in t.schema.names])
            return t

        if not pids:
            return rd.from_arrow(select(schemas.empty_state()))

        def read_one(batch: pa.Table):
            states = (
                read_partition_state(lake_path, int(pid), as_of_epoch, log)
                for pid in batch["pid"].to_pylist()
            )
            yield from map(select, _rows_or_empty(states, schemas.empty_state()))

        return _fan_out_pids(pids).map_batches(read_one, batch_format="pyarrow")

    def snapshot_table(
        self, columns: list[str] | None = None, *, as_of_epoch: int | None = None
    ) -> pa.Table:
        """Materialized, globally key-sorted snapshot (tests / small lakes)."""
        batches = [
            b
            for b in self.snapshot(columns=columns, as_of_epoch=as_of_epoch).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if b.num_rows
        ]
        if not batches:
            return schemas.empty_state()
        t = mg.concat_unified([pa.table(b) if isinstance(b, dict) else b for b in batches])
        return mg.sort_by_key(t)

    def changes(
        self, *, after_epoch: int = -1, through_epoch: int | None = None
    ) -> rd.Dataset:
        """Change data feed: the committed per-group delta runs with
        commit group in ``(after_epoch, through_epoch]`` as one Dataset,
        ``op`` retained (upserts AND tombstones) and each row tagged
        with its ``change_group`` — the incremental-consumer surface: a
        downstream sync reads only what changed since its last watermark
        instead of re-scanning snapshots.  Raises if the window reaches
        below a partition's compaction watermark (those deltas were
        folded into the base — re-sync from a snapshot) or if a window
        edge cuts through a multi-epoch commit group."""
        pids = self.live_pids()
        lake_path = self.cfg.path
        feed_schema = pa.schema(
            [("lsn", pa.int64()), ("op", pa.string())]
            + list(schemas.TRANSCRIPT_SCHEMA)
            + [("change_group", pa.int32())]
        )
        empty = feed_schema.empty_table()
        if not pids:
            return rd.from_arrow(empty)

        log = mf.read_log(lake_path).slim()

        def partition_changes(pid: int) -> pa.Table | None:
            runs = mf.live_runs(lake_path, pid, log)
            if after_epoch < runs.through_group:
                raise ValueError(
                    f"changes after epoch {after_epoch} of partition {pid} were "
                    f"folded into the base (compaction watermark {runs.through_group}); "
                    "re-sync from a snapshot"
                )
            for edge in (after_epoch, through_epoch):
                if edge is not None:
                    mf.check_group_boundary(log, edge)
            outs = []
            for ep, path in runs.live:
                if ep > after_epoch and (through_epoch is None or ep <= through_epoch):
                    t = pq.read_table(path)
                    t = t.drop_columns(
                        [c for c in (mg.NSRC, mg.RUN_SEQ) if c in t.schema.names]
                    )
                    outs.append(
                        t.append_column(
                            "change_group", pa.array(np.full(t.num_rows, ep, np.int32))
                        )
                    )
            outs = [o for o in outs if o.num_rows]
            return mg.concat_unified(outs) if outs else None

        def read_changes(batch: pa.Table):
            yield from _rows_or_empty(
                (partition_changes(int(pid)) for pid in batch["pid"].to_pylist()),
                empty,
            )

        return _fan_out_pids(pids).map_batches(read_changes, batch_format="pyarrow")

    def rejects(
        self, *, after_epoch: int = -1, through_epoch: int | None = None
    ) -> rd.Dataset:
        """Dead-letter feed: the validation rejects of committed commit
        groups in ``(after_epoch, through_epoch]`` as one Dataset, each
        row tagged with its ``reject_group`` and a vectorized
        first-failing-rule ``reason`` (stages/validate.py) — the
        queryable analog of the reference's log-and-drop invalid-trip
        handling (``streaming/api/main.py`` returns 422s that vanish;
        here every reject is addressable for replay after a fix).

        Rejects files are committed by the same log record as their
        group's delta (exactly-once: replaying a committed epoch never
        duplicates them) and are NEVER folded by compaction, so the
        full audit history stays readable regardless of the lake's
        compaction watermark.
        """
        pids = self.live_pids()
        lake_path = self.cfg.path
        feed_schema = pa.schema(
            [("reject_group", pa.int32()), ("reason", pa.string())]
            + list(schemas.EVENT_SCHEMA)
        )
        empty = feed_schema.empty_table()
        if not pids:
            return rd.from_arrow(empty)

        log = mf.read_log(lake_path).slim()

        def partition_rejects(pid: int) -> pa.Table | None:
            outs = []
            for g, path in mf.rejects_runs(lake_path, pid, log):
                if g <= after_epoch or (through_epoch is not None and g > through_epoch):
                    continue
                t = pq.read_table(path)
                t = t.drop_columns([c for c in (mg.NSRC, mg.RUN_SEQ) if c in t.schema.names])
                reason = pa.array(validate_mod.reject_reasons(t), pa.string())
                # feed_schema's order, so every block of the feed has one schema
                t = t.add_column(
                    0, "reject_group", pa.array(np.full(t.num_rows, g, np.int32))
                ).add_column(1, "reason", reason)
                outs.append(t)
            outs = [o for o in outs if o.num_rows]
            return mg.concat_unified(outs) if outs else None

        def read_rejects(batch: pa.Table):
            yield from _rows_or_empty(
                (partition_rejects(int(pid)) for pid in batch["pid"].to_pylist()),
                empty,
            )

        return _fan_out_pids(pids).map_batches(read_rejects, batch_format="pyarrow")

    def diff(self, *, from_epoch: int, to_epoch: int | None = None) -> rd.Dataset:
        """Before/after-image change classification between two committed
        snapshots: every key whose LWW winner differs between the state
        as of ``from_epoch`` and the state as of ``to_epoch`` (default:
        current), tagged ``insert`` / ``update`` / ``delete`` with both
        images.  This is the Debezium-style enriched feed ``changes()``
        deliberately omits (the raw feed ships new values only): rather
        than burden the hot apply path with before-image capture, the
        images are derived on demand from the LSM runs themselves.

        Partition-local and shuffle-free — both states of a key live in
        the same partition, so a task merges each of its partitions
        twice and joins the two states vectorized.  Inherits ``snapshot()``'s
        time-travel constraints: raises below the compaction watermark
        or inside a multi-epoch commit group.
        """
        pids = self.live_pids()
        lake_path = self.cfg.path
        if not pids:
            return rd.from_arrow(_empty_diff())

        return _fan_out_pids(pids).map_batches(
            _diff_partitions(lake_path, from_epoch, lake_path, to_epoch),
            batch_format="pyarrow",
        )

    # -------------------------------------------------- derived WAL epochs
    def _next_wal_epoch(self, wal_dir: str) -> int:
        """Next free epoch number in a WAL directory (max present + 1,
        also past anything already committed to this lake)."""
        present = [-1]
        if os.path.isdir(wal_dir):
            present += [e for e, _ in _wal_epochs(wal_dir)]
        present += mf.read_log(self.cfg.path).epochs
        return max(present) + 1

    def _emit_derived_epoch(
        self, wal_dir: str, rows: rd.Dataset, *, op: str, ts, lsn: int
    ) -> int | None:
        """Write a Dataset of payload rows into ``wal_dir`` as a new WAL
        epoch of ``op`` events, stamped with one (ts, lsn) chosen by the
        caller to win LWW against the rows being corrected/retired.
        The epoch directory appears atomically (tmp dir + rename), so a
        crash mid-write never leaves a half epoch that ``discover``
        would replay.  Returns the epoch number, or None if ``rows`` was
        empty (no epoch created)."""
        epoch = self._next_wal_epoch(wal_dir)
        ts_us = int(pd.Timestamp(ts).value // 1000)

        def stamp(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                "lsn": pa.array(np.full(n, lsn, np.int64)),
                "op": pa.array(np.full(n, op)),
                "epoch": pa.array(np.full(n, epoch, np.int32), pa.int32()),
            }
            for name in t.schema.names:
                if name not in ("lsn", "op", "epoch", "ts"):
                    cols[name] = t[name]
            cols["ts"] = pa.array(
                np.full(n, ts_us, np.int64).view("datetime64[us]"),
                pa.timestamp("us"),
            )
            # the ingest gate expects the full base envelope (tombstones
            # carry keys only) — null-fill what the caller didn't supply
            for f in schemas.TRANSCRIPT_SCHEMA:
                if f.name not in cols:
                    cols[f.name] = pa.nulls(n, f.type)
            return pa.table(cols)

        return self._write_epoch_dir(
            wal_dir, rows.map_batches(stamp, batch_format="pyarrow"), epoch
        )

    @staticmethod
    def _write_epoch_dir(wal_dir: str, stamped: rd.Dataset, epoch: int) -> int | None:
        """Commit fully-stamped WAL rows as the directory
        ``wal_dir/epoch=NNNNNN``, published whole by one rename; None if
        the Dataset was empty."""

        def write(tmp: str) -> bool:
            shutil.rmtree(tmp, ignore_errors=True)
            stamped.write_parquet(tmp)
            files = glob.glob(os.path.join(tmp, "*.parquet"))  # none for zero rows
            if sum(pq.read_metadata(f).num_rows for f in files):
                return True
            shutil.rmtree(tmp, ignore_errors=True)
            return False

        final = os.path.join(wal_dir, f"epoch={epoch:06d}")
        return epoch if nio.commit_file(final, write) else None

    def export_changes_as_wal(
        self,
        out_wal_dir: str,
        *,
        after_epoch: int = -1,
        through_epoch: int | None = None,
        target: "CdcEngine | None" = None,
        epoch: int | None = None,
    ) -> int | None:
        """Cross-lake replication bridge: export the change feed as ONE
        WAL epoch another :class:`CdcEngine` can ``apply``.  Delta runs
        are already per-(key, group) LWW winners with winning tombstones
        retained and each row keeps its original (ts, lsn), so replaying
        the whole window as a single epoch reproduces this lake's end
        state on the target — the key with the greatest (ts, lsn) wins
        there exactly as it did here.  Pair with :meth:`checksum` on
        both sides to verify convergence without moving rows again.
        Incremental: run per consumer watermark window; rows stream
        straight from the feed Dataset into the target's WAL files.

        Epoch numbering: the exported epoch must be new TO THE TARGET —
        a number the target's committed ledger already contains would
        make its ``apply`` silently skip the data (possible after
        ``wal_gc`` of the feed dir, or when two sources replicate into
        one target).  Pass ``target`` (the consuming engine) so the
        number is derived from the TARGET's committed ledger plus the
        feed-dir contents, or supply a monotone ``epoch`` yourself
        (e.g. a replication watermark).  Without either, the fallback
        uses the feed dir plus this SOURCE's ledger — correct only for
        the single-source, un-gc'd-feed topology."""
        feed = self.changes(after_epoch=after_epoch, through_epoch=through_epoch)
        if epoch is None:
            epoch = (target or self)._next_wal_epoch(out_wal_dir)

        def stamp(t: pa.Table) -> pa.Table:
            drop = [c for c in ("change_group", "epoch") if c in t.schema.names]
            if drop:
                t = t.drop_columns(drop)
            return t.append_column(
                "epoch", pa.array(np.full(t.num_rows, epoch, np.int32), pa.int32())
            )

        os.makedirs(out_wal_dir, exist_ok=True)
        return self._write_epoch_dir(
            out_wal_dir, feed.map_batches(stamp, batch_format="pyarrow"), epoch
        )

    def backfill(
        self, wal_dir: str, fn, *, ts, lsn: int = 1 << 60
    ) -> tuple[int | None, "ApplyReport"]:
        """Bulk correction THROUGH the CDC path: run ``fn`` (an Arrow
        batch transform: rows in, corrected rows out — return only the
        rows to rewrite) over the current snapshot, emit the result as
        one new epoch of ``op='update'`` events stamped at ``ts`` (which
        must exceed every corrected row's current ts), and apply it via
        the normal exactly-once machinery.  The correction is therefore
        replayable, time-travelable (the pre-backfill state stays
        reachable via ``as_of_epoch``), visible in ``changes()``, and
        crash-safe — none of which an in-place rewrite of lake files
        would give.  The reference's analog is a full dbt re-run; this
        touches only the corrected keys' partitions at merge time.
        """
        upd = self.snapshot().map_batches(fn, batch_format="pyarrow")
        epoch = self._emit_derived_epoch(wal_dir, upd, op="update", ts=ts, lsn=lsn)
        return epoch, self.apply(wal_dir)

    def purge(
        self, wal_dir: str, *, older_than, lsn: int = 1 << 60
    ) -> tuple[int | None, "ApplyReport"]:
        """Retention (TTL) delete through the CDC path: tombstone every
        key whose current winner ``ts`` is older than ``older_than``.
        Tombstones are stamped at exactly ``older_than`` (a purged row's
        ts is strictly smaller, so the tombstone wins; anything at or
        after the cutoff is untouched even if a concurrent writer races
        the purge).  Deletion is logical and auditable — ``changes()``
        shows the tombstones, ``as_of_epoch`` still reads the pre-purge
        state — and ``compact()`` later reclaims the space physically.
        """
        cutoff = pd.Timestamp(older_than)
        cutoff_us = int(cutoff.value // 1000)

        def expired(t: pa.Table) -> pa.Table:
            keep = pc.less(
                pc.cast(t["ts"], pa.int64()), pa.scalar(cutoff_us, pa.int64())
            )
            return t.filter(pc.fill_null(keep, False))

        dead = self.snapshot(columns=["conv_id", "turn_idx", "ts"]).map_batches(
            expired, batch_format="pyarrow"
        )
        epoch = self._emit_derived_epoch(wal_dir, dead, op="delete", ts=cutoff, lsn=lsn)
        return epoch, self.apply(wal_dir)

    def checksum(
        self, columns: list[str] | None = None, *, as_of_epoch: int | None = None
    ) -> dict:
        """Order-independent content checksum of the lake state — the
        anti-entropy / replication-verification primitive: two replicas
        (or a replica and an independent reimplementation) can be
        compared by exchanging ONE 64-bit digest instead of rows.

        XOR of per-row 64-bit md5 digests over a canonical row encoding
        (each field length-prefixed as ``<charlen>:<value>``, fields
        '|'-joined, nulls as '', timestamps as epoch microseconds; the
        length prefix makes the encoding injective across column
        boundaries — ('a|b','c') and ('a','b|c') encode differently,
        the same guarantee ``state/derived._key_of`` uses).  XOR is a
        commutative monoid, so each partition folds its own rows
        locally and the driver folds ~P partials — no row ever moves,
        and the result is independent of partition count, merge order,
        and compaction state.  Mirrors the SQL
        ``bit_xor(md5_number_lower(concat_ws('|', length(v) || ':' ||
        v, ...)))`` exactly (the per-row md5 is a Python loop — no
        Arrow md5 kernel — like the fingerprint op; at 10^10 rows swap
        in a vectorized 128-bit hash on both sides).
        """
        cols = columns or [f.name for f in schemas.TRANSCRIPT_SCHEMA]
        snap = self.snapshot(columns=cols, as_of_epoch=as_of_epoch)

        def part(t: pa.Table) -> pa.Table:
            n = t.num_rows
            if n == 0:
                return pa.table(
                    {"x": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
                )
            x = _fold_md5_xor(_canon_rows(t, cols))
            return pa.table(
                {
                    "x": pa.array([np.int64(x.view(np.int64))], pa.int64()),
                    "n": pa.array([n], pa.int64()),
                }
            )

        parts = snap.map_batches(part, batch_format="pyarrow").to_pandas()
        x = np.uint64(0)
        for v in parts["x"].to_numpy(np.int64):
            x ^= np.int64(v).view(np.uint64)
        return {"rows": int(parts["n"].sum()), "checksum": int(np.int64(x.view(np.int64)))}

    def export_snapshot(
        self, out_dir: str, *, as_of_epoch: int | None = None
    ) -> dict:
        """Exactly-once snapshot EXPORT — the external-sink analog of
        the lake's own commit protocol: one Parquet file per lake
        partition written tmp+rename, then an atomic ``_SUCCESS``
        marker carrying the content checksum.  Re-running against an
        unchanged lake is a NO-OP (marker checksum matches — nothing is
        rewritten); after new commits the export rewrites and
        re-commits.  A crashed export leaves no marker (any previous
        marker is REMOVED before part files are touched, so a torn
        rewrite can never hide behind a stale ``_SUCCESS``), consumers
        never see a partial snapshot, and the retry simply overwrites
        deterministic bytes — the resumable-output contract
        (per-partition files, never one giant file).  The lake's
        single-writer lease is held for the duration, so the marker
        checksum is computed over exactly the partition states the part
        files were exported from (no apply/compact can interleave
        between the checksum pass and the per-partition reads)."""
        with _LakeLease(self.cfg.path):
            return self._export_snapshot_locked(out_dir, as_of_epoch)

    def _export_snapshot_locked(self, out_dir: str, as_of_epoch) -> dict:
        cs = self.checksum(as_of_epoch=as_of_epoch)
        marker = os.path.join(out_dir, "_SUCCESS")
        try:
            with open(marker) as f:
                prev = json.load(f)
            if prev.get("checksum") == cs["checksum"] and prev.get("rows") == cs["rows"]:
                return {"skipped": True, **cs}
        except (OSError, ValueError):
            pass
        os.makedirs(out_dir, exist_ok=True)
        # invalidate FIRST: from here until the new marker lands, readers
        # must treat the directory as uncommitted (crash-mid-rewrite would
        # otherwise leave the old marker over a mix of old and new parts)
        try:
            os.remove(marker)
        except OSError:
            pass
        lake_path = self.cfg.path
        pids = self.live_pids()

        def export_one(batch: pa.Table) -> pa.Table:
            out_pid, out_rows = [], []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                state = read_partition_state(lake_path, pid, as_of_epoch)
                if state is None:
                    state = schemas.empty_state()
                keep = [
                    c
                    for c in state.schema.names
                    if c not in (*schemas.INTERNAL_COLUMNS, mg.NSRC)
                ]
                atomic_write_parquet(
                    os.path.join(out_dir, f"part-p{pid:04d}.parquet"),
                    state.select(keep),
                )
                out_pid.append(pid)
                out_rows.append(state.num_rows)
            return pa.table(
                {
                    "pid": pa.array(out_pid, pa.int32()),
                    "rows": pa.array(out_rows, pa.int64()),
                }
            )

        if pids:
            _fan_out_pids(pids).map_batches(export_one, batch_format="pyarrow").count()
        # drop part files from a previous export with MORE partitions
        # (e.g. exporting a resharded lake into the same directory) —
        # stale files must not pollute a glob-reading consumer
        want = {f"part-p{pid:04d}.parquet" for pid in pids}
        for name in os.listdir(out_dir):
            if name.startswith("part-p") and name.endswith(".parquet") and name not in want:
                try:
                    os.remove(os.path.join(out_dir, name))
                except OSError:
                    pass
        nio.commit_json(
            marker, {"checksum": cs["checksum"], "rows": cs["rows"], "as_of_epoch": as_of_epoch}
        )
        return {"skipped": False, **cs}

    def reshard(self, target_path: str, num_partitions: int) -> "CdcEngine":
        """Scale-out (or -in) repartitioning: rewrite the lake at a new
        partition count — the operation a 10^10-event lake needs when
        the partition count chosen at creation stops fitting the
        cluster (hot partitions outgrow worker heaps, or 4096
        partitions starve a 16-node cluster of parallelism).  The
        reference has no analog (Snowflake hides physical layout); for
        an explicit-layout lake this is as fundamental as compaction.

        Two distributed stages, both embarrassingly parallel:

        1. each SOURCE partition merges its runs (tombstones
           RETAINED — they must keep masking late out-of-order events
           after the move, exactly as in compaction) and splits the
           rows by ``hash(conv_id) % new_N`` into per-target fragment
           files — uncompressed Arrow IPC, like apply's staging: each is
           written once, memory-mapped once and deleted by the same call
           (tmp-named, atomic);
        2. each TARGET partition concatenates its fragments —
           no re-merge needed: each key lived in exactly one source
           partition and arrives already LWW-resolved, keys from
           different sources are disjoint — key-sorts, and writes a
           generation-1 base with bloom sidecar and compact marker.

        Then one bootstrap log record commits the source's applied
        epochs and the target partitions' counters, whose ``max_ts_us``
        carries the event-time watermark across.  The target lake behaves like a freshly-compacted lake
        at the same watermark: ``discover``/``apply`` skip the already
        applied epochs and later WAL epochs apply under the new
        partitioning; history
        below the watermark reads as compacted-away (time travel /
        change feed re-sync from a snapshot, the documented LSM
        horizon).  Reject/audit history stays with the source lake.
        Convergence is checkable with :meth:`checksum`, which is
        partition-layout invariant by construction."""
        # _lake.json is written LAST (below) and _RESHARDING is dropped FIRST,
        # so "_RESHARDING present, _lake.json absent" identifies a crashed
        # previous reshard: wipe the leftovers so the retry rebuilds from
        # scratch instead of mixing generations.  Both present: a reshard
        # cut between its completion marker and dropping the flag — done.
        # A non-empty directory WITHOUT the flag is someone else's data —
        # refuse to clobber it.
        in_progress = os.path.join(target_path, "_RESHARDING")
        if os.path.exists(os.path.join(target_path, "_lake.json")):
            done = LakeConfig.load(target_path)
            if not os.path.exists(in_progress) or done.num_partitions != num_partitions:
                raise ValueError(f"target lake already exists: {target_path}")
            os.unlink(in_progress)
            return CdcEngine(done)
        if os.path.isdir(target_path) and os.listdir(target_path):
            if not os.path.exists(in_progress):
                raise ValueError(
                    f"target path is non-empty and not a crashed reshard: {target_path}"
                )
            shutil.rmtree(target_path)
        os.makedirs(target_path, exist_ok=True)
        with open(in_progress, "w") as f:
            f.write("reshard in progress\n")
        src = self.cfg
        tgt_cfg = LakeConfig(
            path=target_path,
            num_partitions=num_partitions,
            max_delta_runs=src.max_delta_runs,
            salt_shards=src.salt_shards,
            batch_size=src.batch_size,
            stage_unit_rows=src.stage_unit_rows,
            task_cpus=src.task_cpus,
            base_row_group_rows=src.base_row_group_rows,
        )
        with _LakeLease(src.path):
            log = mf.read_log(src.path)
            slim = log.slim()
            watermark = max(log.groups, default=-1)
            src_pids = self.live_pids()
            lake_path = src.path
            stage_dir = os.path.join(target_path, "_reshard")
            row_group_rows = tgt_cfg.base_row_group_rows

            def split_one(batch: pa.Table) -> pa.Table:
                out_pid, out_rows = [], []
                for pid in batch["pid"].to_pylist():
                    pid = int(pid)
                    runs = _partition_runs(lake_path, pid, log=slim)
                    if not runs:
                        continue
                    state = mg.merge_runs(runs, drop_tombstones=False)
                    tpids = hash_partition_ids(state["conv_id"], num_partitions)
                    for t in np.unique(tpids):
                        frag = state.take(pa.array(np.flatnonzero(tpids == t)))
                        _write_staged(
                            os.path.join(stage_dir, f"t={int(t):04d}-src={pid:04d}.arrow"),
                            frag.schema,
                            frag.to_batches(),
                        )
                    out_pid.append(pid)
                    out_rows.append(state.num_rows)
                return pa.table(
                    {
                        "pid": pa.array(out_pid, pa.int32()),
                        "rows": pa.array(out_rows, pa.int64()),
                    }
                )

            if src_pids:
                _fan_out_pids(src_pids).map_batches(split_one, batch_format="pyarrow").count()

            def build_one(batch: pa.Table) -> pa.Table:
                rows = []
                for t in batch["pid"].to_pylist():
                    t = int(t)
                    frags = sorted(
                        glob.glob(os.path.join(stage_dir, f"t={t:04d}-src=*.arrow"))
                    )
                    parts = [pa.ipc.open_file(pa.memory_map(f)).read_all() for f in frags]
                    parts = [p for p in parts if p.num_rows]
                    if not parts:
                        # nothing hashed here: the partition dir is
                        # created lazily by the first apply that hits it
                        continue
                    base = mg.sort_by_key(mg.concat_unified(parts)).combine_chunks()
                    _write_run(mf.base_path(target_path, t, 1), base, row_group_rows)
                    _write_bloom(mf.base_path(target_path, t, 1), base["conv_id"])
                    # folded through the bootstrap record, log position 1
                    nio.commit_json(
                        mf.compact_marker_path(target_path, t, 1),
                        {
                            "generation": 1,
                            "through_group": watermark,
                            "through_seq": 1,
                            "rows": base.num_rows,
                        },
                    )
                    live = mg.live_rows(base).num_rows
                    # the max-ts row always wins its key, so max over
                    # retained winners == max over all valid source rows
                    max_ts = pc.max(pc.cast(base["ts"], pa.int64())).as_py()
                    rows.append(
                        _report_row(
                            t,
                            {
                                "rows_in": base.num_rows,
                                "upserts": live,
                                "deletes": base.num_rows - live,
                                "max_ts_us": max_ts,
                            },
                        )
                    )
                return pa.concat_tables(rows) if rows else _report_row(0, {}).slice(0, 0)

            built = (
                _fan_out_pids(range(num_partitions))
                .map_batches(build_one, batch_format="pyarrow")
                .take_all()
            )
            if log.groups:
                mf.append_record(
                    target_path,
                    mf.Log(),
                    {
                        "group_id": watermark,
                        "epochs": sorted(log.epochs),
                        "partitions": _record_partitions(built),
                        "resharded_from": src.path,
                    },
                )
            shutil.rmtree(stage_dir, ignore_errors=True)
            # completion marker LAST: an interrupted reshard leaves no
            # _lake.json, so it can't pass for a healthy lake and the retry's
            # crashed-attempt sweep (above, keyed on _RESHARDING) cleans it
            # up automatically.
            tgt_cfg.save()
            os.unlink(in_progress)
        return CdcEngine(tgt_cfg)

    def key_history(self, conv_id: str) -> pa.Table:
        """Forensic key lineage: every event for one conversation still
        physically present in the lake (base + live delta runs), with
        its origin ``epoch``, ``op``, and an ``is_winner`` flag per
        turn under the engine's LWW order — the "why does this turn
        have this text" audit a CDC operator reaches for before
        blaming the source.  Partition- and row-group-pruned like
        :meth:`get_conversation`; history below the compaction
        watermark has been folded away (only each turn's winner
        survives a fold), the same horizon every LSM lake has."""
        pid = int(
            hash_partition_ids(pa.array([conv_id], pa.string()), self.cfg.num_partitions)[0]
        )

        def _collect() -> list[pa.Table]:
            outs = []
            for path in _partition_run_paths(self.cfg.path, pid):
                t, _, _ = read_run_pruned(path, [conv_id])
                if t is not None and t.num_rows:
                    outs.append(
                        t.drop_columns(
                            [c for c in (mg.NSRC, mg.RUN_SEQ) if c in t.schema.names]
                        )
                    )
            return outs

        # one retry on the reader-vs-compactor unlink race (cf. _partition_runs)
        try:
            outs = _collect()
        except FileNotFoundError:
            outs = _collect()
        if not outs:  # the columns of a populated history
            return schemas.EVENT_SCHEMA.empty_table().append_column(
                "is_winner", pa.array([], pa.bool_())
            )
        # runs oldest-first: the kernel's LWW order, in which each
        # turn's last row is its winner
        hist = mg.concat_unified(outs)
        order, last = mg.lww_order(hist)
        return hist.take(order).append_column("is_winner", pa.array(last))

    def checksum_partitions(self) -> dict[int, dict]:
        """Per-partition content digests — the Merkle level below
        :meth:`checksum`: two same-layout lakes (a replica pair, or
        source and `reshard` target at equal partition counts) compare
        P small digests and drill into ONLY the partitions that
        disagree, instead of shipping rows.  One digest per
        partition, same row encoding as the global checksum (which
        equals the XOR of these)."""
        cols = [f.name for f in schemas.TRANSCRIPT_SCHEMA]
        lake_path = self.cfg.path
        pids = self.live_pids()
        if not pids:
            return {}

        def one(batch: pa.Table) -> pa.Table:
            out_pid, out_x, out_n = [], [], []
            for pid in batch["pid"].to_pylist():
                state = read_partition_state(lake_path, int(pid))
                x = np.uint64(0)
                n = 0
                if state is not None and state.num_rows:
                    n = state.num_rows
                    x = _fold_md5_xor(_canon_rows(state, cols))
                out_pid.append(int(pid))
                out_x.append(np.int64(x.view(np.int64)))
                out_n.append(n)
            return pa.table(
                {
                    "pid": pa.array(out_pid, pa.int32()),
                    "x": pa.array(out_x, pa.int64()),
                    "n": pa.array(out_n, pa.int64()),
                }
            )

        df = _fan_out_pids(pids).map_batches(one, batch_format="pyarrow").to_pandas()
        return {
            int(r.pid): {"checksum": int(r.x), "rows": int(r.n)}
            for r in df.itertuples()
        }

    def antientropy_diff(self, other: "CdcEngine") -> pa.Table:
        """Merkle-style anti-entropy between two SAME-LAYOUT lakes:
        compare per-partition digests, then compute before/after key
        diffs ONLY for the partitions that disagree (partition-local;
        agreeing partitions ship one int).  Returns
        the :data:`DIFF_SCHEMA` table of keys whose LWW winner differs
        (``before`` = this lake, ``after`` = other) — the repair
        worklist replication (``export_changes_as_wal``) or a targeted
        backfill then closes.  The divergence-detection primitive every
        multi-region lake pair needs."""
        if self.cfg.num_partitions != other.cfg.num_partitions:
            raise ValueError(
                "anti-entropy diff needs equal partition layouts; reshard "
                f"first ({self.cfg.num_partitions} != {other.cfg.num_partitions})"
            )
        mine = self.checksum_partitions()
        theirs = other.checksum_partitions()
        stale = sorted(
            pid
            for pid in set(mine) | set(theirs)
            if mine.get(pid) != theirs.get(pid)
        )
        if not stale:
            return _empty_diff()
        batches = list(
            _fan_out_pids(stale)
            .map_batches(
                _diff_partitions(self.cfg.path, None, other.cfg.path, None),
                batch_format="pyarrow",
            )
            .iter_batches(batch_format="pyarrow")
        )
        t = pa.concat_tables(batches or [_empty_diff()], promote_options="default")
        return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])

    def get_conversation(self, conv_id: str) -> pa.Table:
        """Point lookup: one conversation's current turns, in order.

        Partition-pruned — hashes ``conv_id`` to its lake partition and
        merges ONLY that partition's runs (the lake-side analog of the
        reference's per-key Redis reads); never scans the other
        ``num_partitions - 1`` partitions.
        """
        pid = int(
            hash_partition_ids(pa.array([conv_id], pa.string()), self.cfg.num_partitions)[0]
        )
        out, _, _ = _read_keys_pruned(self.cfg.path, pid, [conv_id])
        # merged rows are key-sorted, so one conv_id's are in turn order
        return schemas.empty_state() if out is None else out

    def get_conversations(self, conv_ids) -> rd.Dataset:
        """Bulk point lookup, partition- AND row-group-pruned: hashes
        the requested keys to their owning partitions and reads ONLY
        those — a lake with 10 000 partitions serving a 50-conversation
        lookup merges at most 50 partitions, and each task receives
        just the key subset it owns (no full request list broadcast).
        Within a partition, every run (base or delta) is key-sorted in
        row groups of at most ~512 KiB, so footer min/max stats narrow
        the read to the O(keys) groups that can hold the requested
        conversations (``_read_keys_pruned``) instead of scanning the
        partition; a partition of one run only drops its tombstones.
        Rows come back (conv_id, turn_idx)-sorted within each
        partition, like :meth:`snapshot`."""
        ids = sorted(set(conv_ids))
        lake_path = self.cfg.path
        if not ids:
            return rd.from_arrow(
                schemas.empty_state()
            )
        pids = hash_partition_ids(pa.array(ids, pa.string()), self.cfg.num_partitions)
        live = set(self.live_pids())
        by_pid: dict[int, list[str]] = {}
        for cid, pid in zip(ids, pids):
            if int(pid) in live:
                by_pid.setdefault(int(pid), []).append(cid)
        if not by_pid:
            return rd.from_arrow(
                schemas.empty_state()
            )

        def read_keys(batch: pa.Table) -> pa.Table:
            outs = []
            for pid, keys in zip(batch["pid"].to_pylist(), batch["keys"].to_pylist()):
                hit, _, _ = _read_keys_pruned(lake_path, int(pid), list(keys))
                if hit is not None and hit.num_rows:
                    outs.append(hit)
            if not outs:
                return schemas.empty_state()
            return mg.concat_unified(outs)

        work = [{"pid": pid, "keys": keys} for pid, keys in by_pid.items()]
        return nio.fan_out(work).map_batches(read_keys, batch_format="pyarrow")

    # --------------------------------------------------------------- metrics
    def describe(self) -> dict:
        """Physical lake statistics from parquet FOOTERS only (no data
        read): per-partition base generation, delta-run count, rows and
        bytes — the ``SHOW TABLE``/ops surface a lake operator reads
        before deciding to compact or re-shard.  ``row_groups`` and
        ``max_row_group_bytes`` (uncompressed, over the base and the
        deltas) show whether a point lookup decodes bounded groups:
        it reads about one group per run."""
        parts = []
        log = mf.read_log(self.cfg.path)
        for pid in self.live_pids():
            entry = {"pid": pid, "base_generation": None, "base_rows": 0,
                     "delta_runs": 0, "delta_rows": 0, "bytes": 0,
                     "row_groups": 0, "max_row_group_bytes": 0}

            def add_run(path: str) -> int:
                md = pq.ParquetFile(path).metadata
                entry["bytes"] += os.path.getsize(path)
                entry["row_groups"] += md.num_row_groups
                entry["max_row_group_bytes"] = max(
                    [entry["max_row_group_bytes"]]
                    + [md.row_group(g).total_byte_size for g in range(md.num_row_groups)]
                )
                return md.num_rows

            runs = mf.live_runs(self.cfg.path, pid, log)
            if runs.base is not None:
                entry["base_generation"] = runs.base[0]
                entry["base_rows"] = add_run(runs.base[1])
            for _, path in runs.live:
                entry["delta_runs"] += 1
                entry["delta_rows"] += add_run(path)
            parts.append(entry)
        return {
            "partitions": len(parts),
            "total_rows": sum(p["base_rows"] + p["delta_rows"] for p in parts),
            "total_bytes": sum(p["bytes"] for p in parts),
            "max_delta_runs": max((p["delta_runs"] for p in parts), default=0),
            "per_partition": parts,
        }

    def fsck(self) -> dict:
        """Lake integrity audit from the commit log + parquet footers (no
        data read) — the recovery-time question "is every committed
        group actually on disk, and does the ledger add up?":

        - ``missing_delta``: the log commits a live delta whose parquet is
          gone (real loss);
        - ``row_mismatch``: a live delta's footer row count differs from
          its record's ``upserts + deletes`` lineage;
        - ``orphan_base``: a base parquet without its compact marker
          (crashed compaction — ignored by readers, reclaimable);
        - ``orphan_delta`` / ``orphan_rejects``: a delta or rejects
          parquet of a group without a log record (crashed apply, rerun
          as another group — invisible to readers, reclaimable);
        - ``folded_delta`` / ``superseded_base``: a committed delta at or
          below the base's fold position, or an older committed base —
          runs a compaction folded but was cut before it unlinked them
          (invisible to readers, reclaimable);
        - ``folded_log``: a log record or checkpoint the newest
          checkpoint covers (a ``compact()`` cut before it deleted them);
        - ``tmp_file``: the unpublished tmp sibling (:func:`io.is_tmp`)
          of an interrupted commit, in a partition, the log or the lake
          root (reclaimable).

        ``ok`` is True iff no REAL issues (missing_delta/row_mismatch);
        crash remnants are listed as reclaimable, not failures —
        exactly-once means a crashed writer may leave them behind by
        design.  Each reclaimable entry names its ``file`` under the
        lake."""
        lake = self.cfg.path
        log = mf.read_log(lake)
        issues: list[dict] = []
        reclaimable = [
            {"kind": "tmp_file", "pid": None, "file": name}
            for name in sorted(os.listdir(lake))
            if nio.is_tmp(name)
        ] + mf.ledger_remnants(lake)
        for pid in self.live_pids():
            d = mf.partition_dir(lake, pid)
            runs = mf.live_runs(lake, pid, log)
            live = dict(runs.live)
            for g, rows in log.rows.items():
                expected = rows.get(pid, 0)
                if g in live:
                    footer = pq.ParquetFile(live[g]).metadata.num_rows
                    if footer != expected:
                        issues.append(
                            {
                                "kind": "row_mismatch",
                                "pid": pid,
                                "group": g,
                                "footer_rows": footer,
                                "ledger_rows": expected,
                            }
                        )
                elif expected > 0 and log.groups[g][0] > runs.through_seq:
                    issues.append({"kind": "missing_delta", "pid": pid, "group": g})
            for name in os.listdir(d):
                entry = {"pid": pid, "file": os.path.join(os.path.basename(d), name)}
                if nio.is_tmp(name):
                    reclaimable.append({"kind": "tmp_file", **entry})
                elif name.startswith(("delta-", "rejects-")) and name.endswith(".parquet"):
                    kind, g = name[:-8].split("-")
                    if int(g) not in log.groups:
                        reclaimable.append({"kind": f"orphan_{kind}", "group": int(g), **entry})
                    elif kind == "delta" and int(g) not in live:
                        reclaimable.append({"kind": "folded_delta", "group": int(g), **entry})
                elif name.startswith("base-") and name.endswith(".parquet"):
                    gen = int(name[5:-8])
                    if not os.path.exists(mf.compact_marker_path(lake, pid, gen)):
                        kind = "orphan_base"
                    elif gen != runs.base[0]:
                        kind = "superseded_base"
                    else:
                        continue
                    reclaimable.append({"kind": kind, "generation": gen, **entry})
        return {
            "ok": not issues,
            "issues": issues,
            "reclaimable": reclaimable,
            "partitions": len(self.live_pids()),
        }

    def vacuum(self) -> dict:
        """Delete the crash remnants :meth:`fsck` classifies as
        reclaimable (a base with its bloom sidecar).  None is visible to
        a reader, so it is safe concurrent with readers; run it after
        crash recovery or on a janitor schedule."""
        rep = self.fsck()
        removed = 0
        for r in rep["reclaimable"]:
            path = os.path.join(self.cfg.path, r["file"])
            for victim in (path, _bloom_path(path)) if "generation" in r else (path,):
                with contextlib.suppress(OSError):
                    os.remove(victim)
                    removed += 1
        return {"removed": removed, "had_issues": not rep["ok"]}

    def metrics(self) -> dict:
        """Monoid-merged lineage counters of every committed group, from
        the commit log (the Redis-dashboard analog,
        ``streaming/dashboard/utils/redis_client.py:22-138``)."""
        log = mf.read_log(self.cfg.path)
        counters = dict(log.counters)
        counters["partitions"] = len(self.live_pids())
        counters["committed_epochs"] = len(log.epochs)
        # keep-last-K alert ring (the capped Redis fraud-alert list analog)
        counters["recent_rejects"] = list(log.alerts)
        return counters


# ---------------------------------------------------------------- task bodies


def _fan_out_pids(pids) -> rd.Dataset:
    """Partition ids as an :func:`io.fan_out` Dataset: one block per task slot."""
    return nio.fan_out([{"pid": int(p)} for p in pids])


def _rows_or_empty(tables, empty: pa.Table):
    """The body of a per-partition generator task: yield each non-empty
    table of ``tables`` (a lazy per-partition iterator, so the task
    holds one partition's output at a time), or ``empty`` when none has
    rows, so every task still reports the output schema."""
    seen = False
    for t in tables:
        if t is not None and t.num_rows:
            seen = True
            yield t
    if not seen:
        yield empty


def _diff_partitions(a_path: str, a_epoch, b_path: str, b_epoch):
    """Generator task for :meth:`CdcEngine.diff` and
    :meth:`CdcEngine.antientropy_diff`: one :data:`DIFF_SCHEMA` table per
    partition between lake ``a`` as of ``a_epoch`` and lake ``b`` as of
    ``b_epoch`` (None: current)."""

    def diff_batch(batch: pa.Table):
        yield from _rows_or_empty(
            (
                diff_states(
                    read_partition_state(a_path, int(pid), a_epoch),
                    read_partition_state(b_path, int(pid), b_epoch),
                )
                for pid in batch["pid"].to_pylist()
            ),
            _empty_diff(),
        )

    return diff_batch


class _MergePartitions:
    """Stage B group task, called once per pid group of slice rows: one
    call per lake partition, whose slice rows name its staged runs (rejects
    only ever arrive on partition 0) — read them, LWW-merge and write the
    partition's data files.  The driver commits them with the group's log
    record (state/manifest.py)."""

    def __init__(
        self,
        lake_path: str,
        staging_dir: str,
        group_id: int,
        log: mf.Log,
        max_delta_runs: int,
        base_row_group_rows: int,
    ):
        self.lake_path = lake_path
        self.staging_dir = staging_dir
        self.group_id = group_id
        self.log = log
        self.max_delta_runs = max_delta_runs
        self.base_row_group_rows = base_row_group_rows

    def __call__(self, group: pa.Table) -> pa.Table:
        _ensure_worker_thread_limit()
        staged = group.filter(pc.is_valid(group["file"]))
        return _apply_partition_group(
            _read_slices(self.staging_dir, staged.filter(pc.invert(staged["rej"]))),
            _read_slices(self.staging_dir, staged.filter(staged["rej"])),
            int(group["pid"][0].as_py()),
            self.lake_path,
            self.group_id,
            self.log,
            self.max_delta_runs,
            self.base_row_group_rows,
        )


def _apply_partition_group(
    good: pa.Table | None,
    bad: pa.Table | None,
    pid: int,
    lake_path: str,
    group_id: int,
    log: mf.Log,
    max_delta_runs: int,
    base_row_group_rows: int,
) -> pa.Table:
    """Write one partition's data files of group ``group_id`` and return
    its report row.  Files an earlier attempt at the same group left
    here and this attempt does not rewrite are removed: the group's
    record commits every ``delta-G``/``rejects-G`` of the lake."""
    has_good = good is not None and good.num_rows > 0
    has_bad = bad is not None and bad.num_rows > 0
    delta_path = mf.delta_path(lake_path, pid, group_id)
    rejects_path = mf.rejects_path(lake_path, pid, group_id)
    for stale, written in ((delta_path, has_good or has_bad), (rejects_path, has_bad)):
        if not written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
    if not (has_good or has_bad):
        os.makedirs(mf.partition_dir(lake_path, pid), exist_ok=True)
        return _report_row(pid, {})
    if good is None:
        good = bad.schema.empty_table().append_column(mg.NSRC, pa.array([], pa.int64()))

    # exact lineage despite the pre-shuffle combiner: _nsrc sums source rows
    n_valid_src = int(pc.sum(good[mg.NSRC]).as_py() or 0) if good.num_rows else 0
    n_bad_src = bad.num_rows if has_bad else 0

    alerts: list[dict] = []
    if has_bad:
        atomic_write_parquet(rejects_path, bad)
        alerts = _alert_ring_entries(bad, mf.ALERT_RING_K)

    delta = mg.resolve_lww(good.drop_columns([mg.NSRC]), drop_tombstones=False)
    _write_run(delta_path, delta, base_row_group_rows)

    ops = pc.fill_null(delta["op"], "insert")
    n_del = pc.sum(pc.cast(pc.equal(ops, "delete"), pa.int64())).as_py() or 0
    # event-time watermark: max ts survives the pre-shuffle combiner
    # exactly (the max-ts row is the LWW winner of its own key), so this
    # equals the max over all valid SOURCE rows routed here.  min would
    # not (a losing duplicate's ts is dropped), so no min_ts counter.
    max_ts_us = (
        pc.max(pc.cast(good["ts"], pa.int64())).as_py() if good.num_rows else None
    )
    # late-data accounting vs the lake's event-time watermark BEFORE this
    # group (the log's, the same threshold for every partition): delta
    # rows that arrived with event time at or below it.  Deterministic
    # under retry — the group's record is not there yet, so a retry
    # reads the same log.
    late = 0
    if log.watermark_us is not None and delta.num_rows:
        late = (
            pc.sum(
                pc.cast(
                    pc.less_equal(
                        pc.cast(delta["ts"], pa.int64()),
                        pa.scalar(log.watermark_us, pa.int64()),
                    ),
                    pa.int64(),
                )
            ).as_py()
            or 0
        )
    counters = {
        "rows_in": n_valid_src + n_bad_src,
        "valid": n_valid_src,
        "rejects": n_bad_src,
        "upserts": delta.num_rows - n_del,
        "deletes": n_del,
        "delta_bytes": delta.nbytes,
        "min_lsn": pc.min(good["lsn"]).as_py() if good.num_rows else None,
        "max_lsn": pc.max(good["lsn"]).as_py() if good.num_rows else None,
        "max_ts_us": max_ts_us,
        "late_upserts": late,
    }
    # opportunistic LSM compaction when read amplification grows, of the
    # COMMITTED runs only: the delta just written commits with the
    # group's record, after this compaction's marker (state/manifest.py)
    runs = mf.live_runs(lake_path, pid, log)
    if _compaction_due(len(runs.live) + 1, pid, group_id, max_delta_runs):
        _compact_partition(lake_path, pid, log, row_group_rows=base_row_group_rows)
    return _report_row(pid, counters, alerts)


def _compaction_due(runs: int, pid: int, group_id: int, max_delta_runs: int) -> bool:
    """Stage B's auto-compaction rule, staggered by pid.  A partition past
    ``max_delta_runs`` live delta runs (the one being written included)
    compacts in a group whose id is on its phase,
    ``(group_id + pid) % (max_delta_runs + 1) == 0``, and at
    ``2 * max_delta_runs`` runs in any group.  In a loop of one-epoch
    groups that touch every partition, each partition still compacts
    every ``max_delta_runs + 1`` groups, but no longer all in the same
    apply: about ``P / (max_delta_runs + 1)`` partitions per apply.  The
    inputs are fixed for a given group and partition, so a retry decides
    the same way."""
    if runs <= max_delta_runs:
        return False
    return runs >= 2 * max_delta_runs or (group_id + pid) % (max_delta_runs + 1) == 0


#: the lineage counters a Stage-B report row carries and the group's log
#: record stores per partition; ``min_``/``max_`` ones are null without
#: valid rows, the others 0
_REPORT_COUNTERS = (
    "rows_in", "valid", "rejects", "upserts", "deletes",
    "delta_bytes", "min_lsn", "max_lsn", "max_ts_us", "late_upserts",
)


def _report_row(pid: int, counters: dict, alerts: list[dict] = ()) -> pa.Table:
    row = {"pid": pa.array([pid], pa.int64())}
    for k in _REPORT_COUNTERS:
        default = None if k.startswith(("min_", "max_")) else 0
        row[k] = pa.array([counters.get(k, default)], pa.int64())
    row["alerts"] = pa.array([json.dumps(list(alerts))])
    return pa.table(row)


def _record_partitions(reports: list[dict]) -> dict:
    """A log record's per-partition counters: the report rows of the
    partitions that received rows."""
    return {
        str(r["pid"]): {k: r[k] for k in _REPORT_COUNTERS} for r in reports if r["rows_in"]
    }


def _alert_ring_entries(bad: pa.Table, k: int) -> list[dict]:
    """The K most recent reject rows as compact alert descriptors — the
    log-resident analog of the reference's capped Redis alert list
    (``fraud_detector.py:76-77`` lpush + ltrim 0..99).  Merged keep-last-K
    into the group's record and at read time
    (:func:`state.manifest.merge_alert_ring`), so replays never
    double-push."""
    idx = pc.sort_indices(
        bad.select(["ts", "lsn"]),
        sort_keys=[("ts", "descending"), ("lsn", "descending")],
        null_placement="at_end",
    )
    top = bad.take(idx.slice(0, min(k, bad.num_rows)))
    reasons = validate_mod.reject_reasons(top)
    ts_us = pc.cast(top["ts"], pa.int64()).to_pylist()
    return [
        {
            "ts": ts_us[i],
            "lsn": top["lsn"][i].as_py(),
            "conv_id": top["conv_id"][i].as_py(),
            "turn_idx": top["turn_idx"][i].as_py(),
            "reason": reasons[i],
        }
        for i in range(top.num_rows)
    ]


def _dict_cols(schema: pa.Schema) -> list[str]:
    """Dictionary-encode only the low-cardinality string columns.
    Building a dictionary over the ~unique 2 KB ``text`` payloads is
    pure overhead (~20% of write time measured) — the page falls back
    to plain encoding anyway."""
    return [c for c in ("conv_id", "role", "tool", "op", "model") if c in schema.names]


#: codec for every lake parquet file (deltas, bases, rejects, exports).
#: LZ4 over the default snappy: measured on the WAL-shaped payload (200k
#: rows / 218 MB of ~2 KB texts), lz4 reads 2.2x faster (0.23 s vs
#: 0.52 s) at +15% file size — bases are read by every snapshot/query,
#: so decode speed dominates storage.  Apply's staging files, deleted by
#: the same apply, skip the codec (:func:`_write_staged`).  One bulk apply
#: in-process (8 x 12.5k events, 43 MB of WAL, 1 CPU), staged bytes and
#: task time: LZ4 parquet 20.5 MB / 993 ms, LZ4 Arrow IPC 20.8 MB /
#: 812 ms, uncompressed Arrow IPC 51.2 MB / 605 ms.
#:
#: Lake runs (:func:`_write_run`) cut row groups at _RUN_GROUP_BYTES of
#: Arrow data and keep min/max statistics on the key columns only.  One
#: follow-sized base partition (1 496 rows, 652 817 B as one group with
#: every column's statistics): 512-row groups cost +2.3 % with all
#: statistics but -1.4 % with key statistics only, and the byte-bounded
#: groups (4 of them) -1.0 % — ``text``'s min/max (up to 4 KB each, in
#: the footer and in every page header) was the overhead.
_LAKE_CODEC = "lz4"

#: Arrow bytes per lake-run row group.  A point lookup decodes the groups
#: whose key range can hold its key — about one per run — so this bounds
#: a lookup's decode work per run.  Measured on the follow-sized base
#: above, one-key pruned read p50 (1 CPU, in-process): one group
#: 2.92 ms, 1024-row groups 1.86 ms, 512 rows 1.73 ms, 256 rows 1.50 ms,
#: these byte-bounded groups (~374 rows each) 1.77 ms.
_RUN_GROUP_BYTES = 512 << 10

#: the columns readers prune lake runs on (:func:`read_run_pruned`);
#: the only ones whose footer statistics a lake run keeps
_RUN_STATS_COLUMNS = ("conv_id", "turn_idx")


def atomic_write_parquet(
    path: str, table: pa.Table, *, row_group_rows: int | None = None
) -> None:
    nio.commit_file(
        path,
        lambda tmp: pq.write_table(
            table,
            tmp,
            use_dictionary=_dict_cols(table.schema),
            compression=_LAKE_CODEC,
            **({"row_group_size": row_group_rows} if row_group_rows else {}),
        ),
    )


def _run_group_ends(table: pa.Table, row_group_rows: int) -> list[int]:
    """Row-group end offsets for a lake run: each group holds at most
    ``row_group_rows`` rows and at most :data:`_RUN_GROUP_BYTES` Arrow
    bytes (or one row, if a row is larger).  A row's bytes are its string
    values' lengths plus an even share of the rest (fixed-width values,
    offsets); a table that fits one group skips that sum.  Groups are cut
    on cumulative bytes, not at a mean row count: with mean-sized groups,
    one ran 531 410 B of 524 288."""
    n, nbytes = table.num_rows, table.nbytes
    var = np.zeros(n, np.int64)
    for col in table.columns if nbytes > _RUN_GROUP_BYTES else ():
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            var += pc.fill_null(pc.binary_length(col), 0).to_numpy().astype(np.int64)
    cum = np.cumsum(var + (nbytes - int(var.sum())) / max(n, 1))
    ends, start = [], 0
    while start < n:
        before = cum[start - 1] if start else 0.0
        end = int(np.searchsorted(cum, before + _RUN_GROUP_BYTES, side="right"))
        start = min(max(end, start + 1), start + row_group_rows)
        ends.append(start)
    return ends


def _write_run(path: str, table: pa.Table, row_group_rows: int) -> None:
    """Commit a lake run (delta or base), in the byte-bounded row groups
    of :func:`_run_group_ends`, with footer statistics on
    :data:`_RUN_STATS_COLUMNS` only."""

    def write(tmp: str) -> None:
        with pq.ParquetWriter(
            tmp,
            table.schema,
            use_dictionary=_dict_cols(table.schema),
            compression=_LAKE_CODEC,
            write_statistics=[c for c in _RUN_STATS_COLUMNS if c in table.schema.names],
        ) as w:
            start = 0
            for end in _run_group_ends(table, row_group_rows):
                w.write_table(table.slice(start, end - start), row_group_size=end - start)
                start = end

    nio.commit_file(path, write)


def _partition_runs(
    lake_path: str, pid: int, as_of_epoch: int | None = None, log: mf.Log | None = None
) -> list[pa.Table]:
    """Reader-vs-compactor race guard: a concurrent ``compact()`` may
    fold the runs this reader just listed (old base/deltas unlinked
    after the new generation's marker lands).  The ledger is always
    consistent, so one re-list + re-read sees the post-compaction
    layout; state equality is guaranteed because compaction preserves
    merged content.  One retry suffices — a second loss means a second
    full compaction cycle inside one read, i.e. misuse."""
    try:
        return _partition_runs_once(lake_path, pid, as_of_epoch, log)
    except FileNotFoundError:
        return _partition_runs_once(lake_path, pid, as_of_epoch, log)


def _partition_runs_once(
    lake_path: str, pid: int, as_of_epoch: int | None, log: mf.Log | None
) -> list[pa.Table]:
    """Base + live deltas, oldest group first, as Arrow tables.

    ``as_of_epoch`` time-travels to the state after that epoch's commit:
    delta groups are named by their max epoch, so a group is included
    iff ``group_id <= as_of_epoch``; a ``log`` truncated by
    :meth:`Log.upto` reads the state after its log position.  Raises if
    the target falls inside a multi-epoch commit group (no mid-group
    state ever existed) or below the compaction watermark (that history
    has been folded away — the retention horizon of any LSM lake), and
    when the base folded past the ``log`` read."""
    log = mf.read_log(lake_path) if log is None else log
    runs = mf.live_runs(lake_path, pid, log)
    if runs.through_seq > log.seq:
        raise ValueError(
            f"partition {pid}'s base folded through log position {runs.through_seq}, "
            f"past the view's {log.seq}; that history was compacted away"
        )
    if as_of_epoch is not None and runs.through_group > as_of_epoch:
        raise ValueError(
            f"as_of_epoch={as_of_epoch} predates partition {pid}'s compaction "
            f"watermark (folded through group {runs.through_group}); that history was "
            "compacted away"
        )
    if as_of_epoch is not None:
        # groups folded into the base are history, not snapshot
        # candidates — only later groups can straddle the target
        mf.check_group_boundary(log, as_of_epoch, above=runs.through_group)
    paths = [runs.base[1]] if runs.base is not None else []
    paths += [p for ep, p in runs.live if as_of_epoch is None or ep <= as_of_epoch]
    return [pq.read_table(p) for p in paths]


#: Output row of :meth:`CdcEngine.diff` — one row per key whose LWW
#: winner changed, with both images of the representative payload.
DIFF_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("change", pa.string()),
        ("before_text", pa.string()),
        ("after_text", pa.string()),
        ("before_role", pa.string()),
        ("after_role", pa.string()),
        ("before_ts", pa.timestamp("us")),
        ("after_ts", pa.timestamp("us")),
        ("before_lsn", pa.int64()),
        ("after_lsn", pa.int64()),
    ]
)


def _empty_diff() -> pa.Table:
    return pa.table({f.name: pa.array([], f.type) for f in DIFF_SCHEMA})


def diff_states(a: pa.Table | None, b: pa.Table | None) -> pa.Table:
    """Classify key-level changes between two merged partition states.

    Vectorized outer join on the merge key; a key changed iff its
    winning ``(ts, lsn)`` differs — the LWW ordering key identifies the
    winning event, so equal (ts, lsn) means the very same row won both
    times (duplicates were already collapsed by the merge).
    """
    cols = ["conv_id", "turn_idx", "text", "role", "ts", "lsn"]

    def frame(t: pa.Table | None) -> pd.DataFrame:
        if t is None or t.num_rows == 0:
            return pd.DataFrame({c: pd.Series(dtype=object) for c in cols})
        return t.select(cols).to_pandas()

    m = frame(a).merge(
        frame(b),
        on=["conv_id", "turn_idx"],
        how="outer",
        suffixes=("_a", "_b"),
        indicator=True,
    )
    ins = (m["_merge"] == "right_only").to_numpy()
    dele = (m["_merge"] == "left_only").to_numpy()
    both = (m["_merge"] == "both").to_numpy()
    upd = both & (
        (m["ts_a"].to_numpy() != m["ts_b"].to_numpy())
        | (m["lsn_a"].to_numpy() != m["lsn_b"].to_numpy())
    )
    keep = ins | dele | upd
    m = m[keep]
    change = np.where(
        (m["_merge"] == "right_only").to_numpy(),
        "insert",
        np.where((m["_merge"] == "left_only").to_numpy(), "delete", "update"),
    )
    def col(s: pd.Series, typ: pa.DataType) -> pa.Array:
        # outer-merge NaN padding: route through nullable dtypes so
        # missing-side images become Arrow nulls, not float garbage
        if pa.types.is_integer(typ):
            s = pd.to_numeric(s).astype("Int64")
        elif pa.types.is_timestamp(typ):
            s = pd.to_datetime(s)
        return pa.Array.from_pandas(s, type=typ)

    return pa.table(
        {
            "conv_id": col(m["conv_id"], pa.string()),
            "turn_idx": col(m["turn_idx"], pa.int32()),
            "change": pa.array(change, pa.string()),
            "before_text": col(m["text_a"], pa.string()),
            "after_text": col(m["text_b"], pa.string()),
            "before_role": col(m["role_a"], pa.string()),
            "after_role": col(m["role_b"], pa.string()),
            "before_ts": col(m["ts_a"], pa.timestamp("us")),
            "after_ts": col(m["ts_b"], pa.timestamp("us")),
            "before_lsn": col(m["lsn_a"], pa.int64()),
            "after_lsn": col(m["lsn_b"], pa.int64()),
        }
    )


def _canon_rows(t: pa.Table, cols: list[str]):
    """Canonical INJECTIVE row encoding shared by :meth:`CdcEngine.checksum`
    and :meth:`CdcEngine.checksum_partitions`: each field rendered as
    ``<charlen>:<value>`` (nulls as ``0:``, timestamps as epoch
    microseconds), fields joined with '|'.  The length prefix makes the
    encoding injective across column boundaries — without it
    ``('a|b','c')`` and ``('a','b|c')`` collide, so two divergent
    replicas could checksum equal (same construction as
    ``state/derived._key_of`` and the SQL oracle's
    ``length(v) || ':' || v``)."""
    n = t.num_rows
    pieces = []
    for c in cols:
        col = t[c] if c in t.schema.names else pa.nulls(n, pa.string())
        if pa.types.is_timestamp(col.type):
            col = pc.cast(pc.cast(col, pa.int64()), pa.string())
        elif not pa.types.is_string(col.type) and not pa.types.is_large_string(
            col.type
        ):
            col = pc.cast(col, pa.string())
        col = pc.fill_null(col, "")
        col = pc.binary_join_element_wise(
            pc.cast(pc.utf8_length(col), pa.string()), col, ":"
        )
        pieces.append(col)
    enc = pieces[0]
    for p in pieces[1:]:
        enc = pc.binary_join_element_wise(enc, p, "|")
    return enc


def _fold_md5_xor(enc) -> np.uint64:
    """XOR-fold little-endian uint64 of md5(row)[8:16] over encoded rows
    (== DuckDB ``bit_xor(md5_number_lower(...))``)."""
    import hashlib

    x = np.uint64(0)
    for s in enc.to_pylist():
        x ^= np.frombuffer(hashlib.md5(s.encode()).digest()[8:], dtype=np.uint64)[0]
    return x


def _merge_lake_runs(runs: list[pa.Table]) -> pa.Table:
    """Live LWW state of lake runs listed oldest-first, without the
    internal columns.  Every lake run is already unique and key-sorted
    (its writer is ``resolve_lww``, ``merge_runs`` or reshard's
    ``sort_by_key``), and row filters keep that, so a single run only
    drops its tombstones — no LWW sort."""
    if len(runs) == 1:
        merged = mg.live_rows(runs[0])
    else:
        merged = mg.merge_runs(runs, drop_tombstones=True)
    return merged.drop_columns(
        [c for c in schemas.INTERNAL_COLUMNS if c in merged.schema.names]
    )


def read_partition_state(
    lake_path: str, pid: int, as_of_epoch: int | None = None, log: mf.Log | None = None
) -> pa.Table | None:
    """A partition's merged live state (None without runs); ``log``: the
    committed view to read it in (default: the lake's current log)."""
    runs = _partition_runs(lake_path, pid, as_of_epoch, log)
    return _merge_lake_runs(runs) if runs else None


def _partition_run_paths(lake_path: str, pid: int) -> list[str]:
    """Current base + live delta paths, oldest first (the file list
    ``_partition_runs`` reads, without reading them).  The point-lookup
    listing: it also drops the partition's lookup-cache entries of runs
    that are no longer live (:meth:`_RunCache.retain`)."""
    runs = mf.live_runs(lake_path, pid)
    paths = ([runs.base[1]] if runs.base is not None else []) + [p for _, p in runs.live]
    _LOOKUP_CACHE.retain(mf.partition_dir(lake_path, pid), paths)
    return paths


#: Bloom sidecar parameters: ~10 bits/key, 6 double-hashed probes ->
#: ~1% false-positive rate; the filter only SKIPS reads, never rows, so
#: a false positive costs one row-group read and a false negative is
#: impossible (standard per-SSTable bloom, cf. the LSM literature).
_BLOOM_K = 6
_BLOOM_H1 = "cdc-bloom-h1-key"
_BLOOM_H2 = "cdc-bloom-h2-key"


def _bloom_path(base_path: str) -> str:
    return base_path + ".bloom.npy"


def _bloom_positions(keys: np.ndarray, m: int) -> np.ndarray:
    """(len(keys), K) bit positions via double hashing of two
    independent deterministic 64-bit key hashes."""
    # categorize=False: no factorize pass first (a one-key probe hashes
    # in ~0.03 ms instead of ~0.17 ms); the hashes are the same, so
    # sidecars written either way agree
    h1 = pd.util.hash_array(keys, hash_key=_BLOOM_H1, categorize=False)
    h2 = pd.util.hash_array(keys, hash_key=_BLOOM_H2, categorize=False) | np.uint64(1)
    i = np.arange(_BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m)).astype(np.int64)


def _write_bloom(base_path: str, conv_ids) -> None:
    """Key-membership bloom sidecar for a compacted base, committed
    next to it.  Built once per compaction from the unique conv_ids
    (vectorized hashing, no per-key Python)."""
    arr = np.unique(np.asarray(conv_ids.to_numpy(zero_copy_only=False), dtype=object))
    m = 1 << int(np.ceil(np.log2(max(10 * max(len(arr), 1), 64))))
    bits = np.zeros(m >> 3, np.uint8)
    if len(arr):
        pos = _bloom_positions(arr, m).ravel()
        np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))

    def write(tmp: str) -> None:
        with open(tmp, "wb") as f:
            np.save(f, bits, allow_pickle=False)

    nio.commit_file(_bloom_path(base_path), write)


def _bloom_filter_keys(base_path: str, keys: list[str]) -> list[str] | None:
    """Subset of ``keys`` the base MIGHT contain, or None when no
    sidecar exists (older lakes: read everything).  The bits come
    through the lookup cache: the sidecar is write-once, like its base."""
    try:
        bits = _LOOKUP_CACHE.bloom_bits(_bloom_path(base_path))
    except (OSError, ValueError):
        return None
    m = int(bits.shape[0]) << 3
    arr = np.asarray(keys, dtype=object)
    pos = _bloom_positions(arr, m)
    hit = (bits[pos >> 3] & (np.uint8(1) << (pos & 7).astype(np.uint8))) != 0
    return [k for k, ok in zip(keys, hit.all(axis=1)) if ok]


def _group_bounds(f: pq.ParquetFile, column: str) -> list[tuple | None]:
    """Per row group, the footer ``(min, max)`` of ``column``, or None
    for a group without usable statistics (it is always read)."""
    md = f.metadata
    try:
        ci = f.schema_arrow.get_field_index(column)
    except KeyError:
        ci = -1
    out: list[tuple | None] = []
    for g in range(md.num_row_groups):
        st = md.row_group(g).column(ci).statistics if ci >= 0 else None
        out.append((st.min, st.max) if st is not None and st.has_min_max else None)
    return out


def _pick_groups(bounds: list[tuple | None], keys_sorted: list[str]) -> list[int]:
    """The row groups whose bounds can hold one of ``keys_sorted``."""
    pick = []
    for g, b in enumerate(bounds):
        if b is not None:
            j = bisect.bisect_left(keys_sorted, b[0])
            if not (j < len(keys_sorted) and keys_sorted[j] <= b[1]):
                continue
        pick.append(g)
    return pick


def _file_ident(path: str, st: os.stat_result) -> tuple:
    return (path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


#: Byte cap of the process-wide lookup cache (:data:`_LOOKUP_CACHE`).
#: Live-set eviction keeps it far below this on a follow-style lake (8
#: partitions of one base and a few deltas each); the cap bounds a lake
#: whose live runs outgrow it.
_LOOKUP_CACHE_BYTES = 64 << 20

#: the write-once lake runs, the only files the lookup cache holds
#: (with a base's bloom sidecar); a consumer's ``p=NNNN.parquet``, whose
#: name gets new bytes on every refresh, never matches
_LAKE_RUN_RE = re.compile(r"(?:^|/)p=\d{4,}/(?:base|delta)-\d{6,}\.parquet$")


class _RunCache:
    """Process-wide, byte-capped LRU of what point lookups decode from
    lake runs: each run's footer key bounds, its decoded row groups and
    a base's bloom bits — the block cache of an LSM store over immutable
    runs.  A decoded group is cached with its ``{conv_id: (start,
    stop)}`` spans (counted in its bytes), so a warm read slices it.

    Only write-once files are cached: once committed, a lake run's name
    never gets other bytes (a retry renames identical bytes over it).
    Entries are keyed by the file's stat identity ``(path, st_dev,
    st_ino, st_size, st_mtime_ns)``, so a lake deleted and rebuilt at
    the same path misses instead of serving the old rows.  A miss opens
    the file and keys what it decodes by that open file's ``fstat``, so
    an entry always holds the bytes of the inode its key names; a
    vanished file raises ``FileNotFoundError`` from the stat, which the
    readers' one-retry re-list handles.

    Bounded twice: :meth:`retain` drops a partition's entries of runs no
    longer live (folded by compaction) whenever a lookup lists that
    partition, and the LRU evicts past :data:`_LOOKUP_CACHE_BYTES`."""

    def __init__(self, cap_bytes: int):
        self.cap = cap_bytes
        self._lru: collections.OrderedDict = collections.OrderedDict()  # key -> (value, nbytes)
        self._files: dict[str, dict[str, set]] = {}  # dir -> file -> keys
        self._lock = threading.Lock()
        self.bytes = self.hits = self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._lru),
                "bytes": self.bytes,
                "hits": self.hits,
                "misses": self.misses,
            }

    def files(self) -> set[str]:
        """The paths of the files with a cached entry."""
        with self._lock:
            return {f for files in self._files.values() for f in files}

    def _get(self, key: tuple):
        with self._lock:
            hit = self._lru.get(key)
            if hit is None:
                return None
            self._lru.move_to_end(key)
            self.hits += 1
            return hit[0]

    def _drop(self, key: tuple) -> None:
        _, nbytes = self._lru.pop(key)
        self.bytes -= nbytes
        path = key[0][0]
        d = os.path.dirname(path)
        keys = self._files[d][path]
        keys.discard(key)
        if not keys:
            del self._files[d][path]
            if not self._files[d]:
                del self._files[d]

    def _put(self, key: tuple, value, nbytes: int) -> None:
        ident = key[0]
        path = ident[0]
        with self._lock:
            self.misses += 1
            if key in self._lru:
                return
            # one identity per path: a rebuilt file's entries replace the old one's
            old = self._files.get(os.path.dirname(path), {}).get(path, ())
            for k in [k for k in old if k[0] != ident]:
                self._drop(k)
            self._lru[key] = (value, nbytes)
            self.bytes += nbytes
            self._files.setdefault(os.path.dirname(path), {}).setdefault(path, set()).add(key)
            while self.bytes > self.cap:
                self._drop(next(iter(self._lru)))

    def retain(self, partition_dir: str, live_runs: list[str]) -> None:
        """Drop the entries of ``partition_dir``'s files that belong to
        no run in ``live_runs``."""
        with self._lock:
            files = self._files.get(partition_dir)
            if not files:
                return
            keep = set(live_runs) | {_bloom_path(p) for p in live_runs}
            for path in [p for p in files if p not in keep]:
                for key in list(files[path]):
                    self._drop(key)

    def bloom_bits(self, path: str) -> np.ndarray:
        ident = _file_ident(path, os.stat(path))
        bits = self._get((ident, "bloom"))
        if bits is None:
            with open(path, "rb") as f:
                ident = _file_ident(path, os.fstat(f.fileno()))
                bits = np.load(f, allow_pickle=False)
            self._put((ident, "bloom"), bits, bits.nbytes)
        return bits

    def run_groups(self, path: str, keys_sorted: list[str]) -> tuple[int, list[tuple]]:
        """``(groups in the run, [(decoded group, its key spans)])`` of
        the groups of a key-sorted lake run that can hold one of
        ``keys_sorted``; only the missing parts are decoded.  A base's
        bloom sidecar is probed only on such a cold read — when every
        picked group is cached, its spans answer membership exactly — and
        a miss there decodes nothing (the total is then 0 if the footer
        was never read)."""
        ident = _file_ident(path, os.stat(path))
        bounds = self._get((ident, "bounds"))
        got: dict = {}
        if bounds is not None:
            got = {g: self._get((ident, g)) for g in _pick_groups(bounds, keys_sorted)}
            if None not in got.values():
                return len(bounds), list(got.values())
        if os.path.basename(path).startswith("base-"):
            maybe = _bloom_filter_keys(path, keys_sorted)
            if maybe == []:
                return (0 if bounds is None else len(bounds)), []
            keys_sorted = keys_sorted if maybe is None else maybe
        with open(path, "rb") as fh:
            opened = _file_ident(path, os.fstat(fh.fileno()))
            if opened != ident:  # replaced since the stat: read the new file
                ident, bounds, got = opened, None, {}
            f = pq.ParquetFile(fh)
            if bounds is None:
                bounds = _group_bounds(f, "conv_id")
                self._put((ident, "bounds"), bounds, 128 * (len(bounds) + 1))
            out = []
            for g in _pick_groups(bounds, keys_sorted):
                if got.get(g) is None:
                    t = f.read_row_group(g)
                    spans = _key_spans(t["conv_id"])
                    got[g] = (t, spans)
                    self._put((ident, g), got[g], t.nbytes + _spans_nbytes(spans))
                out.append(got[g])
        return len(bounds), out


def _key_spans(keys: pa.ChunkedArray) -> dict[str, tuple[int, int]]:
    """``{key: (start, stop)}``: the rows of each key of a key-sorted
    column."""
    n = len(keys)
    if n == 0:
        return {}
    change = pc.not_equal(keys.slice(1), keys.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    stops = np.append(starts[1:], n)
    return dict(zip(keys.take(starts).to_pylist(), zip(starts.tolist(), stops.tolist())))


def _spans_nbytes(spans: dict) -> int:
    """Heap bytes of a spans dict: its table, key strings and
    ``(start, stop)`` tuples (the ints inside them: 2 x 32 bytes)."""
    one = sys.getsizeof((0, 0)) + 64
    return sys.getsizeof(spans) + sum(sys.getsizeof(k) + one for k in spans)


_LOOKUP_CACHE = _RunCache(_LOOKUP_CACHE_BYTES)


def lookup_cache_stats() -> dict:
    """This process's lookup cache: ``entries`` (footer bounds, decoded
    row groups with their key spans, and bloom bitmaps held), their
    ``bytes``, the ``hits`` of every cache probe so far and the
    ``misses``: the parts a read had to decode."""
    return _LOOKUP_CACHE.stats()


def read_run_pruned(
    path: str, keys: list[str], column: str = "conv_id"
) -> tuple[pa.Table | None, int, int]:
    """Row-group-pruned run read for point lookups: parquet footer
    min/max statistics on ``column`` select only the groups a requested
    key can live in.  Lake runs are key-sorted and written in groups of
    at most ~512 KiB (:func:`_write_run`), so a k-key lookup decodes
    O(k) bounded groups of a multi-GB partition instead of scanning it;
    a run written as one large group (older lakes) is read whole.  Returns
    ``(rows, groups_read, groups_total)``; rows are already filtered to
    the requested keys.  Parquet string stats may be truncated, but
    truncation keeps them valid bounds, so pruning is always safe —
    a group with no stats is read (correctness over selectivity).

    A lake run's bounds and groups, with each group's ``conv_id`` spans,
    come through the lookup cache (:class:`_RunCache`), so its rows are
    zero-copy slices of cached groups, and a base's bloom sidecar is
    probed only when a picked group is not cached; any other file (a
    consumer's ``p=NNNN.parquet``, rewritten by every refresh) is read
    from disk and filtered every time."""
    keys_sorted = sorted(set(keys))
    if column == "conv_id" and _LAKE_RUN_RE.search(path):
        total, groups = _LOOKUP_CACHE.run_groups(path, keys_sorted)
        # zero-copy slices; a key crossing a group boundary gets one per group
        hits = [
            t.slice(a, b - a)
            for t, spans in groups
            for a, b in filter(None, map(spans.get, keys_sorted))
        ]
        read = len(groups)
    else:
        f = pq.ParquetFile(path)
        bounds = _group_bounds(f, column)
        pick = _pick_groups(bounds, keys_sorted)
        total, read = len(bounds), len(pick)
        hits = []
        if pick:
            t = f.read_row_groups(pick)
            hits = [t.filter(pc.is_in(t[column], value_set=pa.array(keys_sorted, pa.string())))]
    if not hits:
        return None, read, total
    t = hits[0] if len(hits) == 1 else pa.concat_tables(hits)
    return (t if t.num_rows else None), read, total


def _read_keys_pruned(
    lake_path: str, pid: int, keys: list[str]
) -> tuple[pa.Table | None, int, int]:
    """Merged LWW state restricted to ``keys``, reading only the row
    groups that can contain them.  Filtering each run by ``conv_id``
    before the merge preserves LWW exactly: every run's rows for a key
    either all pass or all fail the filter, and tombstones for the
    requested keys are retained until the merge drops them.

    Same reader-vs-compactor race guard as :func:`_partition_runs`: a
    concurrent ``compact()`` may unlink a just-listed base/delta; one
    re-list + re-read sees the post-compaction layout."""
    try:
        return _read_keys_pruned_once(lake_path, pid, keys)
    except FileNotFoundError:
        return _read_keys_pruned_once(lake_path, pid, keys)


def _read_keys_pruned_once(
    lake_path: str, pid: int, keys: list[str]
) -> tuple[pa.Table | None, int, int]:
    runs: list[pa.Table] = []
    read = total = 0
    for path in _partition_run_paths(lake_path, pid):
        t, r, n = read_run_pruned(path, keys)
        read += r
        total += n
        if t is not None:
            runs.append(t)
    return (_merge_lake_runs(runs) if runs else None), read, total


def _compact_partition(
    lake_path: str,
    pid: int,
    log: mf.Log | None = None,
    *,
    drop_tombstones: bool = False,
    row_group_rows: int,
) -> bool:
    """Fold base + the live deltas ``log`` commits (default: the lake's
    current log) into a new base generation, whose marker records
    ``log.seq`` as the position it folded through (a delta committed
    later stays live).  Tombstones are
    RETAINED unless ``drop_tombstones`` (full compaction, WAL complete):
    dropping them mid-stream would let a later epoch's out-of-order
    event with an older ``(ts, lsn)`` resurrect a deleted key (the WAL's
    ooo jitter spans epoch boundaries — see sources/generator.py:130-131).
    Idempotent: generation id = prior generation + 1; marker commits it.
    The folded runs are unlinked after the marker, best effort: a cut
    before that leaves them dead (``fsck`` lists them, ``vacuum``
    removes them)."""
    log = mf.read_log(lake_path) if log is None else log
    base, through, _, deltas = mf.live_runs(lake_path, pid, log)
    if not deltas:  # a lone base has nothing to fold
        return False
    runs = [pq.read_table(p) for p in ([base[1]] if base else []) + [p for _, p in deltas]]
    merged = mg.merge_runs(runs, drop_tombstones=drop_tombstones)
    gen = (base[0] + 1) if base else 1
    _write_run(mf.base_path(lake_path, pid, gen), merged, row_group_rows)
    _write_bloom(mf.base_path(lake_path, pid, gen), merged["conv_id"])
    nio.commit_json(
        mf.compact_marker_path(lake_path, pid, gen),
        {
            "generation": gen,
            "through_group": max([through] + [g for g, _ in deltas]),
            "through_seq": log.seq,
            "rows": merged.num_rows,
        },
    )
    for victim in [p for _, p in deltas] + ([base[1], _bloom_path(base[1])] if base else []):
        with contextlib.suppress(OSError):
            os.remove(victim)
    return True
