"""Consumer ledger: the refresh protocol behind every incremental consumer.

:class:`~state.matview.MaterializedView`,
:class:`~state.derived.DerivedTable` / ``CorpusTable`` and
:class:`~state.secondary_index.SecondaryIndex` each compose one
:class:`ConsumerLedger`.  The split follows Delta Lake's (VLDB 2020): a
reader acts only on fully committed versions, and one log protocol
serves every table format.  The ledger owns the layout, staleness, the
commit, the refresh report and the committed read view; a consumer owns
only its build step (lake partition -> output table) and its own read
API.

Layout under ``path/``:

- ``p=NNNN.parquet``  the consumer's output for lake partition NNNN
- the commit log of :mod:`state.manifest` (:class:`Outputs` is its
  fold): one checkpoint per refresh that rebuilt anything, holding each
  committed partition's ``watermark`` and ``rows`` plus the consumer's
  witness field, if any.  The state is P small entries, so each commit
  writes it whole: a read loads one file whatever the history

Protocol:

- Consumers are partition-local: the lake hash-partitions on
  ``conv_id``, so a refresh is a shuffle-free parallel map over stale
  partitions, and untouched partitions' files are reused byte-for-byte.
- A partition's watermark is the lake log position of the latest record
  that changed it (:func:`~state.manifest.state_changing_watermark`).
  A partition is stale when the consumer's log commits no output for
  it, or one at another watermark; a log that cannot be read makes
  every partition stale.  Staleness costs one cached read of each log.
- Exactly-once: the refresh's tasks write only data files (tmp+rename);
  the driver then commits them with one checkpoint.  A crash before it
  leaves those partitions stale, and the re-run deterministically
  rewrites the same bytes; a committed partition is never rebuilt until
  the lake moves past its watermark.  A refresh first deletes what a
  cut commit left in the log (:func:`~state.manifest.vacuum_log`).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
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


def data_path(view_path: str, pid: int) -> str:
    return os.path.join(view_path, f"p={pid:04d}.parquet")


@dataclass
class Outputs:
    """A consumer's committed outputs: per lake partition, the entry of
    the newest refresh that rebuilt it (``watermark``, ``rows`` and the
    witness field, if any).  Shared through the log's read cache, so
    callers treat it as read-only."""

    seq: int = 0  #: position of the newest checkpoint (0: empty log)
    partitions: dict[int, dict] = field(default_factory=dict)

    def fold(self, rec: dict) -> None:
        for pid, e in rec["partitions"]:
            # a malformed entry raises: the log is unreadable, not half-read
            self.partitions[int(pid)] = {
                **e, "watermark": int(e["watermark"]), "rows": int(e["rows"])
            }
        self.seq = rec["seq"]

    def copy(self) -> "Outputs":
        return replace(self, partitions=dict(self.partitions))

    def checkpoint(self) -> dict:
        return {"seq": self.seq, "partitions": sorted(self.partitions.items())}

    @classmethod
    def from_checkpoint(cls, d: dict) -> "Outputs":
        out = cls()
        out.fold(d)
        return out


def _refresh_batch(
    build: Build,
    lake_path: str,
    view_path: str,
    row_group_rows: int | None,
    batch: pa.Table,
) -> pa.Table:
    """Ray task body: build and write each stale partition of the batch;
    returns each one's ``(pid, wm, rows, work)`` for the driver's
    commit.  Module-level, so a task carries no consumer or engine."""
    done = []
    for r in batch.to_pylist():
        path = data_path(view_path, r["pid"])
        out, n = build(lake_path, r["pid"], r["old"], path)
        atomic_write_parquet(path, out, row_group_rows=row_group_rows)
        done.append({"pid": r["pid"], "wm": r["wm"], "rows": out.num_rows, "work": int(n)})
    return pa.Table.from_pylist(done)


class ConsumerLedger:
    """One consumer's commit ledger over a lake."""

    def __init__(self, engine, path: str):
        self.engine = engine
        self.path = path
        os.makedirs(path, exist_ok=True)
        mf.check_layout(path, "p=*.json")

    def data_path(self, pid: int) -> str:
        return data_path(self.path, pid)

    def outputs(self) -> Outputs:
        """The committed outputs.  A log that cannot be read commits none
        (every partition stale, never a crash) and is positioned at its
        newest file, so the next refresh's checkpoint supersedes it."""
        try:
            return mf.read_log(self.path, Outputs)
        except (OSError, ValueError, KeyError, TypeError):
            return Outputs(seq=mf.log_head(self.path))

    def stored_watermark(self, pid: int) -> int | None:
        """The watermark of the partition's committed output, or None."""
        entry = self.outputs().partitions.get(pid)
        return None if entry is None else entry["watermark"]

    # --------------------------------------------------------------- refresh
    def refresh(
        self,
        build: Build,
        *,
        witness: tuple[str, str] | None = None,
        row_group_rows: int | None = None,
    ) -> dict:
        """Rebuild the stale partitions in parallel Ray tasks and commit
        them with one checkpoint.  Returns ``{"refreshed", "reused",
        "rows"}``; a ``witness`` of ``(record_field, report_key)``
        records each partition's build work in its entry and reports the
        total before ``rows``."""
        mf.vacuum_log(self.path)
        pids = self.engine.live_pids()
        lake = mf.read_log(self.engine.cfg.path)
        out = self.outputs()
        done = out.partitions
        stale: list[dict] = []
        work = rows = 0
        for pid in pids:
            wm = mf.state_changing_watermark(self.engine.cfg.path, pid, lake)
            old = done[pid]["watermark"] if pid in done else None
            if old != wm:
                stale.append({"pid": pid, "wm": wm, "old": old})
            else:
                rows += done[pid]["rows"]

        if stale:
            task = functools.partial(
                _refresh_batch, build, self.engine.cfg.path, self.path, row_group_rows
            )
            entries = []
            for r in nio.fan_out(stale).map_batches(task, batch_format="pyarrow").take_all():
                entry = {"watermark": int(r["wm"]), "rows": int(r["rows"])}
                if witness:
                    entry[witness[0]] = int(r["work"])
                entries.append([int(r["pid"]), entry])
                work += int(r["work"])
                rows += int(r["rows"])
            new = out.copy()
            new.fold({"seq": new.seq + 1, "partitions": sorted(entries)})
            mf.write_checkpoint(self.path, new)
        report = {"refreshed": len(stale), "reused": len(pids) - len(stale)}
        if witness:
            report[witness[1]] = work
        report["rows"] = rows
        return report

    # ----------------------------------------------------------------- reads
    def committed_pids(self) -> list[int]:
        """Live partitions with a committed output."""
        done = self.outputs().partitions
        return [pid for pid in self.engine.live_pids() if pid in done]

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
