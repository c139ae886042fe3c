"""Incrementally-maintained SECONDARY INDEX over a non-key lake column.

The lake is physically keyed by ``hash(conv_id)`` — a query like "every
turn that used tool X" has no pruning story and must scan all
partitions.  This module keeps a value-sorted projection
``(value, conv_id, turn_idx)`` per partition as an index table, so such
queries read O(hits) row groups instead of the lake:

- **Maintenance** is partition-granular recompute-on-touch (the
  MaterializedView strategy) through the shared consumer ledger
  (:mod:`state.consumer`), which owns staleness, the commit and
  crash-resume: an update can move a key between ANY two
  values, so per-value delta math needs before-images for every change;
  recomputing only the touched partition's projection from merged LWW
  state is cheap (a projection, not an aggregate) and correct under any
  op mix.
- **Lookup** reuses the engine's row-group pruning: index files are
  written sorted by ``(value, conv_id, turn_idx)`` with bounded row
  groups, so footer min/max stats on ``value`` narrow each partition's
  read to the groups that can hold the probe values
  (``engine.read_run_pruned(column="value")``) — the same machinery
  point lookups use on ``conv_id``.  Hits come back as lake keys; the
  caller joins them to full rows with
  :meth:`CdcEngine.get_conversations` when payloads are needed.

The reference has no secondary access path at all (every dashboard
query re-filters Snowflake tables, e.g. the zone drilldowns in
``streaming/dashboard/app.py``); this is the lake-native answer.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from nyc_taxi_data_pipeline_ray.engine import read_partition_state, read_run_pruned
from nyc_taxi_data_pipeline_ray.io import fan_out
from nyc_taxi_data_pipeline_ray.state import consumer


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


#: One index row: a lake key under its column value, rendered as a string.
_INDEX_SCHEMA = pa.schema(
    [("value", pa.string()), ("conv_id", pa.string()), ("turn_idx", pa.int32())]
)


def build_index(
    column: str, lake_path: str, pid: int, old, prev_path: str
) -> tuple[pa.Table, int]:
    """Consumer build step: the partition's value-sorted projection of
    ``column``, recomputed from its merged state (work = index rows)."""
    state = read_partition_state(lake_path, pid)
    if state is None or column not in state.schema.names:
        idx = _INDEX_SCHEMA.empty_table()
    else:
        idx = pa.table(
            {
                "value": pc.cast(state[column], pa.string()),
                "conv_id": state["conv_id"],
                "turn_idx": state["turn_idx"],
            }
        )
        idx = idx.filter(pc.is_valid(idx["value"]))
        order = [(c, "ascending") for c in ("value", "conv_id", "turn_idx")]
        idx = idx.sort_by(order).combine_chunks()
    return idx, idx.num_rows


class SecondaryIndex:
    """Value -> (conv_id, turn_idx) index over one lake column,
    refreshed incrementally from the commit ledger."""

    def __init__(self, engine, path: str, column: str):
        self.engine = engine
        self.path = path
        self.column = column
        self.ledger = consumer.ConsumerLedger(engine, path)

    def refresh(self) -> dict:
        """Recompute stale partitions' index files in parallel Ray
        tasks; returns ``{"refreshed", "reused", "rows"}``."""
        return self.ledger.refresh(
            functools.partial(build_index, self.column),
            row_group_rows=self.engine.cfg.base_row_group_rows,
        )

    # ----------------------------------------------------------------- reads
    def lookup(self, values) -> rd.Dataset:
        """All lake keys whose ``column`` equals any requested value —
        one row-group-pruned read per partition, in parallel Ray
        tasks."""
        vals = _canon_probe_values(values)
        view_path = self.path
        pids = self.ledger.committed_pids()
        empty = _INDEX_SCHEMA.empty_table()
        if not pids or not vals:
            return rd.from_arrow(empty)

        def read_one(batch: pa.Table) -> pa.Table:
            outs = []
            for pid in batch["pid"].to_pylist():
                t, _, _ = read_run_pruned(
                    consumer.data_path(view_path, int(pid)), vals, column="value"
                )
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
        vals = _canon_probe_values(values)
        read = total = hits = 0
        for pid in self.ledger.committed_pids():
            t, r, n = read_run_pruned(self.ledger.data_path(pid), vals, column="value")
            read += r
            total += n
            hits += t.num_rows if t is not None else 0
        return {"groups_read": read, "groups_total": total, "hits": hits}
