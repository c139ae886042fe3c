"""The package's one commit primitive, and shared Dataset read helpers.

:func:`commit_file` is how every file of the lake, its staging, the WAL
generator and the persisted indexes lands: written to a tmp sibling,
then published by one atomic rename (the Delta Lake rule: data files
first, each published whole, and a marker last — see
:mod:`state.manifest`).  Callers reach it as ``io.commit_file``, so a
test can wrap that one module attribute to count or cut every commit
point of a run, in the driver and in every worker.

``read_parquet_clean`` strips the parquet files' pandas key-value schema
metadata right after the read (zero-copy, fused into the read stage):
pyarrow ``Schema.__hash__`` raises on metadata-bearing schemas, which
makes Ray Data's schema-deduplication log a warning in every downstream
reduce task and defeats its early-exit schema unification.
"""

from __future__ import annotations

import json
import os
from typing import Callable

import pyarrow as pa

import ray.data as rd


#: suffix of the sibling a commit writes before its rename
TMP_SUFFIX = ".tmp"


def is_tmp(name: str) -> bool:
    """Whether ``name`` is a commit's unpublished tmp sibling: with no
    writer running, a crash remnant that ``fsck`` lists and ``vacuum``
    removes."""
    return name.endswith(TMP_SUFFIX)


def commit_file(path: str, write: Callable[[str], object]) -> bool:
    """Publish ``path`` atomically: create its parent directory, let
    ``write(tmp)`` fill the tmp sibling (a file, or a directory), then
    ``os.replace`` it into place.  A reader sees the old file or the
    whole new one, and a retry overwrites the same tmp name, so a crash
    at any point leaves at most one reclaimable tmp.  ``write`` returning
    False publishes nothing (it produced nothing to publish); the result
    says whether ``path`` was published.

    Durability is the writer's: commit markers fsync inside ``write``
    (:func:`commit_json`); data and staging files do not, because a
    marker, not the data file, is what makes them visible."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + TMP_SUFFIX
    published = write(tmp) is not False
    if published:
        os.replace(tmp, path)
    return published


def commit_json(path: str, payload: dict, *, indent: int | None = None) -> None:
    """Publish a commit marker through :func:`commit_file`, fsynced
    before the rename so the marker never lands ahead of its bytes."""

    def write(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=indent)
            f.flush()
            os.fsync(f.fileno())

    commit_file(path, write)


def fresh_tmp_root(prefix: str) -> str:
    """Per-process scratch root ``{prefix}_{pid}`` for a query's
    throwaway index, with stale-sibling cleanup: roots left behind by
    EXITED processes (best-of-N bench runs, ``--scaling``'s fresh
    processes, past pytest sessions) are removed; roots owned by live
    pids — a concurrent sweep — are left alone.  The per-pid suffix is
    what makes concurrent runs safe; this reclaims the disk they would
    otherwise leak across runs."""
    import glob
    import shutil

    if os.path.isdir("/proc"):
        for d in glob.glob(prefix + "_*"):
            pid = d.rsplit("_", 1)[-1]
            if (
                pid.isdigit()
                and int(pid) != os.getpid()
                and not os.path.exists(f"/proc/{pid}")
            ):
                shutil.rmtree(d, ignore_errors=True)
    root = f"{prefix}_{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    return root


def _strip_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def read_parquet_clean(path: str, *, columns: list[str] | None = None, **kwargs) -> rd.Dataset:
    if (
        isinstance(path, str)
        and path.endswith(".parquet")
        and "schema" not in kwargs
        # a DIRECTORY named *.parquet (Spark-style output layout) would
        # crash pq.read_schema; the strip-stage fallback reads it fine
        and os.path.isfile(path)
    ):
        # pass the (column-pruned) file schema with the pandas key-value
        # metadata stripped (driver-side footer read): read tasks then
        # emit metadata-free blocks directly and no strip stage is needed
        import pyarrow.parquet as pq

        full = pq.read_schema(path)
        sel = pa.schema([full.field(c) for c in columns]) if columns else full
        kwargs["schema"] = sel.remove_metadata()
        return rd.read_parquet(path, columns=columns, **kwargs)
    ds = rd.read_parquet(path, columns=columns, **kwargs)
    return ds.map_batches(_strip_schema_metadata, batch_format="pyarrow")


def _cluster_cpus(default: float) -> float:
    import ray

    if not ray.is_initialized():
        ray.init()
    return ray.cluster_resources().get("CPU", default)


def capped_cpus(task_cpus: float) -> float:
    """``task_cpus`` capped at the cluster's CPU count: Ray never
    schedules a task that asks for more CPUs than the cluster has, so an
    uncapped request (the default ``task_cpus=2`` on a 1-CPU node) would
    make ``apply`` wait forever."""
    return min(task_cpus, _cluster_cpus(task_cpus))


def fan_out(rows: list[dict], task_cpus: float = 1) -> rd.Dataset:
    """A Dataset of small work descriptors (partition ids, Stage-A units)
    with one block per task slot the cluster can run at once, not one per
    row: ``min(len(rows), cluster CPUs // task_cpus)`` blocks.  A task
    works through its block's rows in turn and holds one row's data at a
    time; blocks beyond the slot count would add scheduling and exchange
    overhead without adding parallelism."""
    cpus = _cluster_cpus(task_cpus)
    slots = int(cpus // min(task_cpus, cpus))
    return rd.from_items(rows, override_num_blocks=max(1, min(len(rows), slots)))


def collect_table(ds: rd.Dataset) -> pa.Table:
    """Materialize a SMALL dataset (dims, pruned query sets) into one
    Arrow table on the caller, skipping the schemaless empty blocks a
    filtered/mapped read can emit."""
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    if not blocks:
        raise ValueError("collect_table: dataset produced no rows")
    return pa.concat_tables(blocks)
