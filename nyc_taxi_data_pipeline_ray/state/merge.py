"""Vectorized last-writer-wins merge kernels over Arrow tables.

This is the heart of the upsert: the reference's dbt incremental merge
on a *non-unique* surrogate key (``nyc_taxi_dbt/models/marts/core/
fct_trips.sql:1-7``; duplicates documented at ``models/staging/
schema.yml:8``) has de-facto "last written row wins" semantics with an
*undefined* order.  Here the rule is explicit and deterministic:
for each key ``(conv_id, turn_idx)`` the winner is the row with the
greatest ``(ts, lsn, run_seq)``; a winning ``op='delete'`` removes the
key (tombstone).

Everything is vectorized: one Arrow sort + numpy boundary masks; no
Python per-row loops (contrast with the reference's per-row Spark UDF,
``streaming/spark/fraud_detector.py:221-294``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nyc_taxi_data_pipeline_ray import schemas

#: internal column ranking runs: base=0, older deltas < newer deltas < incoming
RUN_SEQ = "_run_seq"

#: internal lineage weight: how many source rows collapsed into this row
#: (kept exact across combiner stages so the log's counters reconcile).
NSRC = "_nsrc"

# merge key, then LWW order, then run order — the last row per key wins
_SORT_KEYS = [
    (c, "ascending")
    for c in (*schemas.KEY_COLUMNS, *schemas.LWW_COLUMNS, RUN_SEQ)
]


def _last_per_key_mask(table: pa.Table) -> np.ndarray:
    """Boolean mask (over a key-sorted table) selecting the last row of
    each ``(conv_id, turn_idx)`` group — fully vectorized."""
    n = table.num_rows
    if n == 0:
        return np.zeros(0, dtype=bool)
    conv = table["conv_id"].combine_chunks()
    turn = table["turn_idx"].combine_chunks()
    # row i is last of its key iff key[i] != key[i+1]
    same_conv = pc.equal(conv.slice(0, n - 1), conv.slice(1)).to_numpy(zero_copy_only=False)
    same_turn = pc.equal(turn.slice(0, n - 1), turn.slice(1)).to_numpy(zero_copy_only=False)
    # astype(bool) maps null-comparison Nones to False (a null key is
    # never "the same" as its neighbour)
    same = same_conv.astype(bool) & same_turn.astype(bool)
    mask = np.empty(n, dtype=bool)
    mask[-1] = True
    mask[:-1] = ~same
    return mask


def resolve_lww(table: pa.Table, *, drop_tombstones: bool) -> pa.Table:
    """Collapse a multi-run table to one winning row per key.

    ``table`` must carry ``conv_id, turn_idx, ts, lsn, op`` and a
    ``_run_seq`` column (monotone per run).  Output is sorted by
    ``(conv_id, turn_idx)`` — the stable turn ordering the equality
    oracle requires.  With ``drop_tombstones=False`` winning deletes are
    kept (needed when the result is itself a delta run that must mask
    older base rows later).

    The payload (2 KB ``text`` values) is gathered exactly once: the
    sort runs over the small key columns only, winners are selected on
    the sorted keys, and one ``take`` materializes the winning rows.
    """
    if table.num_rows == 0:
        return table
    keys = table.select([k for k, _ in _SORT_KEYS if k in table.schema.names])
    idx = pc.sort_indices(keys, sort_keys=[kv for kv in _SORT_KEYS if kv[0] in keys.schema.names])
    keys_sorted = keys.select(["conv_id", "turn_idx"]).take(idx)
    mask = _last_per_key_mask(keys_sorted)
    idx_np = idx.to_numpy()
    winners = idx_np[mask]
    out = table.take(pa.array(winners))
    if NSRC in table.schema.names:
        # winner inherits the summed lineage weight of its key group
        nsrc_sorted = table[NSRC].to_numpy(zero_copy_only=False).astype(np.int64)[idx_np]
        ends = np.nonzero(mask)[0]
        starts = np.concatenate([[0], ends[:-1] + 1]) if len(ends) else np.array([], np.int64)
        sums = np.add.reduceat(nsrc_sorted, starts) if len(starts) else np.array([], np.int64)
        out = out.set_column(
            out.schema.get_field_index(NSRC), NSRC, pa.array(sums, pa.int64())
        )
    return live_rows(out) if drop_tombstones else out


def live_rows(table: pa.Table) -> pa.Table:
    """``table`` without its tombstones (rows whose ``op`` is 'delete')."""
    return table.filter(pc.not_equal(pc.fill_null(table["op"], "insert"), "delete"))


def with_run_seq(table: pa.Table, seq: int) -> pa.Table:
    if RUN_SEQ in table.schema.names:
        table = table.drop_columns([RUN_SEQ])
    return table.append_column(RUN_SEQ, pa.array(np.full(table.num_rows, seq, np.int32)))


def concat_unified(tables: list[pa.Table]) -> pa.Table:
    """Concat tables with widening schema unification (schema evolution:
    add-column null-fill + int32->int64 promotion), the
    ``ENABLE_SCHEMA_EVOLUTION`` analog (``snowflake/setup.sql:58-61``)."""
    tables = [t for t in tables if t is not None]
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


def merge_runs(runs: list[pa.Table], *, drop_tombstones: bool) -> pa.Table:
    """k-way LWW merge of runs listed oldest-first."""
    stamped = [with_run_seq(t, i) for i, t in enumerate(runs)]
    merged = resolve_lww(concat_unified(stamped), drop_tombstones=drop_tombstones)
    return merged.drop_columns([RUN_SEQ])


def conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Cast a batch to the target (unified) schema: missing columns are
    null-filled, compatible types widened (int32->int64, string->large).
    This is the per-batch half of schema evolution — every block entering
    the shuffle shares one schema."""
    cols = []
    for f in schema:
        if f.name in table.schema.names:
            col = table[f.name]
            if col.type != f.type:
                col = pc.cast(col, f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(table.num_rows, f.type))
    return pa.table(cols, schema=schema)


def sort_by_key(table: pa.Table) -> pa.Table:
    return table.take(
        pc.sort_indices(
            table, sort_keys=[(c, "ascending") for c in schemas.KEY_COLUMNS]
        )
    )
