"""Consumer ledger: the refresh protocol behind every incremental consumer.

:class:`~state.matview.MaterializedView`,
:class:`~state.derived.DerivedTable` / ``CorpusTable`` and
:class:`~state.secondary_index.SecondaryIndex` each compose one
:class:`ConsumerLedger`.  The split follows Delta Lake's (VLDB 2020): a
reader acts only on fully committed versions, and one log protocol
serves every table format.  The ledger owns the layout, staleness, the
per-partition commit, the refresh report and the committed read view; a
consumer owns only its build step (lake partition -> output table) and
its own read API.

Layout under ``path/``:

- ``p=NNNN.parquet``  the consumer's output for lake partition NNNN
- ``p=NNNN.json``     its commit marker: ``{"pid", "watermark", "rows"}``
                      plus the consumer's witness field, if any

Protocol:

- Consumers are partition-local: the lake hash-partitions on
  ``conv_id``, so a refresh is a shuffle-free parallel map over stale
  partitions, and untouched partitions' files are reused byte-for-byte.
- A partition is stale when its marker is missing, corrupt, or records
  a watermark other than the lake partition's latest state-changing
  commit group (:func:`~state.manifest.state_changing_watermark`), read
  from one fold of the lake's commit log per refresh.
- Exactly-once: the data file is written tmp+rename, then its marker.
  A crash between the two leaves the partition stale, and the re-run
  deterministically rewrites the same bytes; a committed partition is
  never rebuilt until the lake moves past its watermark.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Callable

import pyarrow as pa
import ray.data as rd

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray.engine import atomic_write_parquet
from nyc_taxi_data_pipeline_ray.state import manifest as mf

#: ``build(lake_path, pid, old_watermark, data_path) -> (table, work)``:
#: one stale partition's new output, and the work it took (the witness
#: count; ignored by a consumer without one).  ``old_watermark`` is the
#: stored one (None on a first build) and ``data_path`` holds the output
#: it reflects, for consumers that patch instead of recompute.
Build = Callable[[str, int, "int | None", str], "tuple[pa.Table, int]"]


def manifest_path(view_path: str, pid: int) -> str:
    return os.path.join(view_path, f"p={pid:04d}.json")


def data_path(view_path: str, pid: int) -> str:
    return os.path.join(view_path, f"p={pid:04d}.parquet")


def _load_marker(view_path: str, pid: int) -> tuple[int | None, int]:
    """``(watermark, rows)`` of a consumer's committed partition
    manifest, or ``(None, 0)`` when missing/corrupt (treated as stale)."""
    try:
        with open(manifest_path(view_path, pid)) as f:
            entry = json.load(f)
        return int(entry["watermark"]), int(entry.get("rows", 0))
    except (OSError, ValueError, KeyError, TypeError):
        # TypeError: valid JSON of the wrong shape (null, a list,
        # {"watermark": null}) — corrupt means stale, never a crash
        return None, 0


def stored_watermark(view_path: str, pid: int) -> int | None:
    """Watermark recorded by a consumer's committed partition manifest,
    or None when missing/corrupt (treated as stale)."""
    return _load_marker(view_path, pid)[0]


def _refresh_batch(
    build: Build,
    lake_path: str,
    view_path: str,
    witness_field: str | None,
    row_group_rows: int | None,
    batch: pa.Table,
) -> pa.Table:
    """Ray task body: build, write and commit each stale partition of the
    batch; returns each one's work and rows.  Module-level, so a task
    carries no consumer or engine."""
    work, rows = [], []
    for pid, wm, old in zip(
        batch["pid"].to_pylist(), batch["wm"].to_pylist(), batch["old"].to_pylist()
    ):
        pid = int(pid)
        out, n = build(lake_path, pid, old, data_path(view_path, pid))
        atomic_write_parquet(
            data_path(view_path, pid), out, row_group_rows=row_group_rows
        )
        entry = {"pid": pid, "watermark": int(wm), "rows": out.num_rows}
        if witness_field is not None:
            entry[witness_field] = int(n)
        nio.commit_json(manifest_path(view_path, pid), entry)
        work.append(int(n))
        rows.append(out.num_rows)
    return pa.table(
        {
            "pid": batch["pid"],
            "work": pa.array(work, pa.int64()),
            "rows": pa.array(rows, pa.int64()),
        }
    )


class ConsumerLedger:
    """One consumer's per-partition commit ledger over a lake."""

    def __init__(self, engine, path: str):
        self.engine = engine
        self.path = path
        os.makedirs(path, exist_ok=True)

    def manifest_path(self, pid: int) -> str:
        return manifest_path(self.path, pid)

    def data_path(self, pid: int) -> str:
        return data_path(self.path, pid)

    def stored_watermark(self, pid: int) -> int | None:
        return stored_watermark(self.path, pid)

    def lake_watermark(self, pid: int) -> int:
        return mf.state_changing_watermark(self.engine.cfg.path, pid)

    # --------------------------------------------------------------- refresh
    def refresh(
        self,
        build: Build,
        *,
        witness: tuple[str, str] | None = None,
        row_group_rows: int | None = None,
    ) -> dict:
        """Rebuild the stale partitions in parallel Ray tasks (the caller
        reads only small JSON manifests to decide staleness).  Returns
        ``{"refreshed", "reused", "rows"}``; a ``witness`` of
        ``(manifest_field, report_key)`` records each partition's build
        work in its manifest and reports the total before ``rows``."""
        pids = self.engine.live_pids()
        log = mf.read_log(self.engine.cfg.path)
        stale: list[dict] = []
        work = rows = 0
        for pid in pids:
            old, n = _load_marker(self.path, pid)
            wm = mf.state_changing_watermark(self.engine.cfg.path, pid, log)
            if old != wm:
                stale.append({"pid": pid, "wm": wm, "old": old})
            else:
                rows += n  # reused as committed: one manifest load each

        if stale:
            task = functools.partial(
                _refresh_batch,
                build,
                self.engine.cfg.path,
                self.path,
                witness[0] if witness else None,
                row_group_rows,
            )
            ds = nio.fan_out(stale).map_batches(task, batch_format="pyarrow")
            for r in ds.take_all():
                work += int(r["work"])
                rows += int(r["rows"])
        report = {"refreshed": len(stale), "reused": len(pids) - len(stale)}
        if witness:
            report[witness[1]] = work
        report["rows"] = rows
        return report

    # ----------------------------------------------------------------- reads
    def committed_pids(self) -> list[int]:
        """Live partitions with a committed output."""
        return [
            pid
            for pid in self.engine.live_pids()
            if self.stored_watermark(pid) is not None
        ]

    def read(self, empty: pa.Table) -> rd.Dataset:
        """The committed outputs as a streaming Dataset (``empty`` when
        no partition has committed yet)."""
        paths = [
            self.data_path(pid)
            for pid in self.committed_pids()
            if os.path.exists(self.data_path(pid))
        ]
        return rd.read_parquet(paths) if paths else rd.from_arrow(empty)

    def table(self, empty: pa.Table) -> pa.Table:
        """:meth:`read`, materialized (tests / small lakes)."""
        batches = [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in self.read(empty).iter_batches(batch_format="pyarrow")
        ]
        return pa.concat_tables(batches or [empty], promote_options="default")
