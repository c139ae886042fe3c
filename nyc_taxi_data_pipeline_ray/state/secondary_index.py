"""Incrementally-maintained SECONDARY INDEX over a non-key lake column.

The lake is physically keyed by ``hash(conv_id)`` — a query like "every
turn that used tool X" has no pruning story and must scan all
partitions.  This module keeps a value-sorted projection
``(value, conv_id, turn_idx)`` per partition as an index table, so such
queries read O(hits) row groups instead of the lake:

- **Maintenance** is partition-granular recompute-on-touch (the
  MaterializedView strategy): an update can move a key between ANY two
  values, so per-value delta math needs before-images for every change;
  recomputing only the touched partition's projection from merged LWW
  state is cheap (a projection, not an aggregate) and correct under any
  op mix.  Untouched partitions' index files are reused byte-for-byte.
- **Lookup** reuses the engine's row-group pruning: index files are
  written sorted by ``(value, conv_id, turn_idx)`` with bounded row
  groups, so footer min/max stats on ``value`` narrow each partition's
  read to the groups that can hold the probe values
  (``engine._read_run_pruned(column="value")``) — the same machinery
  point lookups use on ``conv_id``.  Hits come back as lake keys; the
  caller joins them to full rows with
  :meth:`CdcEngine.get_conversations` when payloads are needed.
- **Exactly-once / crash-resume** mirrors the other incremental
  consumers: tmp+rename data file plus a per-partition manifest
  recording the lake watermark; a deterministic rewrite makes re-runs
  idempotent.

The reference has no secondary access path at all (every dashboard
query re-filters Snowflake tables, e.g. the zone drilldowns in
``streaming/dashboard/app.py``); this is the lake-native answer.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from nyc_taxi_data_pipeline_ray.io import fan_out
from nyc_taxi_data_pipeline_ray.state import manifest as mf


def _canon_probe_values(values) -> list[str]:
    """Render probe values exactly as :meth:`SecondaryIndex.refresh`
    stores them — through the SAME Arrow string cast.  Python ``str()``
    disagrees with Arrow's rendering for non-string types (timestamps:
    ``'2024-01-01 00:00:00'`` vs ``'2024-01-01 00:00:00.000000'``;
    booleans: ``'True'`` vs ``'true'``), which would silently return
    zero hits for matching rows.  Nulls are dropped (the index stores
    no null values)."""
    vals = [v for v in values if v is not None]
    if not vals:
        return []
    return sorted(set(pc.cast(pa.array(vals), pa.string()).to_pylist()))


def _index_schema(value_type: pa.DataType = pa.string()) -> pa.Schema:
    return pa.schema(
        [
            ("value", value_type),
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
        ]
    )


class SecondaryIndex:
    """Value -> (conv_id, turn_idx) index over one lake column,
    refreshed incrementally from the commit ledger."""

    def __init__(self, engine, path: str, column: str):
        self.engine = engine
        self.path = path
        self.column = column
        os.makedirs(path, exist_ok=True)

    # ------------------------------------------------------------ watermarks
    # shared consumer-ledger helpers (manifest.py): every incremental
    # consumer must agree on the state-changing staleness rule
    def _lake_watermark(self, pid: int, stored: int | None = None) -> int:
        return mf.state_changing_watermark(self.engine.cfg.path, pid, stored)

    def _manifest_path(self, pid: int) -> str:
        return mf.consumer_manifest_path(self.path, pid)

    def _data_path(self, pid: int) -> str:
        return mf.consumer_data_path(self.path, pid)

    def _stored_watermark(self, pid: int) -> int | None:
        return mf.consumer_stored_watermark(self.path, pid)

    # --------------------------------------------------------------- refresh
    def refresh(self) -> dict:
        """Recompute stale partitions' index files in parallel Ray
        tasks; returns ``{"refreshed", "reused", "rows"}``."""
        from nyc_taxi_data_pipeline_ray.engine import (
            _atomic_write_parquet,
            _read_partition_state,
        )

        lake_path = self.engine.cfg.path
        view_path = self.path
        column = self.column
        row_group_rows = self.engine.cfg.base_row_group_rows
        pids = self.engine._live_pids()
        stale: list[tuple[int, int]] = []
        reused = 0
        for pid in pids:
            stored = self._stored_watermark(pid)
            wm = self._lake_watermark(pid, stored)
            if stored == wm:
                reused += 1
            else:
                stale.append((pid, wm))

        if stale:

            def refresh_one(batch: pa.Table) -> pa.Table:
                rows = []
                for pid, wm in zip(batch["pid"].to_pylist(), batch["wm"].to_pylist()):
                    pid = int(pid)
                    state = _read_partition_state(lake_path, pid)
                    if state is None or column not in state.schema.names:
                        idx = pa.table(
                            {f.name: pa.array([], f.type) for f in _index_schema()}
                        )
                    else:
                        idx = pa.table(
                            {
                                "value": pc.cast(state[column], pa.string()),
                                "conv_id": state["conv_id"],
                                "turn_idx": state["turn_idx"],
                            }
                        )
                        idx = idx.filter(pc.is_valid(idx["value"]))
                        idx = idx.sort_by(
                            [
                                ("value", "ascending"),
                                ("conv_id", "ascending"),
                                ("turn_idx", "ascending"),
                            ]
                        ).combine_chunks()
                    _atomic_write_parquet(
                        mf.consumer_data_path(view_path, pid),
                        idx,
                        row_group_rows=row_group_rows,
                    )
                    mf.atomic_write_json(
                        mf.consumer_manifest_path(view_path, pid),
                        {"pid": pid, "watermark": int(wm), "rows": idx.num_rows},
                    )
                    rows.append(idx.num_rows)
                return pa.table(
                    {"pid": batch["pid"], "rows": pa.array(rows, pa.int64())}
                )

            work = [{"pid": p, "wm": w} for p, w in stale]
            fan_out(work).map_batches(refresh_one, batch_format="pyarrow").count()

        rows = 0
        for pid in pids:
            try:
                with open(self._manifest_path(pid)) as f:
                    rows += int(json.load(f)["rows"])
            except (OSError, ValueError, KeyError):
                pass
        return {"refreshed": len(stale), "reused": reused, "rows": rows}

    # ----------------------------------------------------------------- reads
    def lookup(self, values) -> rd.Dataset:
        """All lake keys whose ``column`` equals any requested value —
        one row-group-pruned read per partition, in parallel Ray
        tasks."""
        from nyc_taxi_data_pipeline_ray.engine import _read_run_pruned

        vals = _canon_probe_values(values)
        view_path = self.path
        pids = [
            pid
            for pid in self.engine._live_pids()
            if self._stored_watermark(pid) is not None
        ]
        empty = pa.table({f.name: pa.array([], f.type) for f in _index_schema()})
        if not pids or not vals:
            return rd.from_arrow(empty)

        def read_one(batch: pa.Table) -> pa.Table:
            outs = []
            for pid in batch["pid"].to_pylist():
                path = mf.consumer_data_path(view_path, int(pid))
                t, _, _ = _read_run_pruned(path, vals, column="value")
                if t is not None:
                    outs.append(t)
            # promote: partitions refreshed around a schema evolution
            # can disagree on turn_idx width until both are rewritten
            return pa.concat_tables(outs, promote_options="default") if outs else empty

        return fan_out([{"pid": p} for p in pids]).map_batches(
            read_one, batch_format="pyarrow"
        )

    def lookup_stats(self, values) -> dict:
        """Driver-side pruning witness: groups read vs total across all
        partitions for a probe (tests assert read < total)."""
        from nyc_taxi_data_pipeline_ray.engine import _read_run_pruned

        vals = _canon_probe_values(values)
        read = total = hits = 0
        for pid in self.engine._live_pids():
            if self._stored_watermark(pid) is None:
                continue
            t, r, n = _read_run_pruned(self._data_path(pid), vals, column="value")
            read += r
            total += n
            hits += t.num_rows if t is not None else 0
        return {"groups_read": read, "groups_total": total, "hits": hits}
