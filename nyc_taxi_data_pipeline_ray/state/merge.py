"""Vectorized last-writer-wins merge kernel over Arrow tables.

This is the heart of the upsert: the reference's dbt incremental merge
on a *non-unique* surrogate key (``nyc_taxi_dbt/models/marts/core/
fct_trips.sql:1-7``; duplicates documented at ``models/staging/
schema.yml:8``) has de-facto "last written row wins" semantics with an
*undefined* order.  Here the rule is explicit and deterministic:
for each key ``(conv_id, turn_idx)`` the winner is the row with the
greatest ``(ts, lsn, run position)``, and of rows equal in all three
the later one; a winning ``op='delete'`` removes the key (tombstone).

Every LWW resolve of the package goes through ONE kernel,
:func:`lww_order`: ``conv_id`` is dense-ranked once (strings are
compared in Arrow's C++ sort), the integer columns ``(rank, turn_idx,
ts, lsn)`` and the row index are packed into one distinct int64 code
per row, one ``argsort`` of the codes orders the rows by key and LWW
order (the stable lexicographic order, without a stable sort per
column), and the last row of each key wins.  :func:`resolve_lww` /
:func:`merge_runs` (lookups, snapshots, compaction, reshard, Stage B),
Stage A's routing plan and ``key_history`` all read their winners from
it.  Winners are selected
on index arrays — tombstones are dropped from the winner index, not
from a gathered table — so the 2 KB ``text`` payload is gathered by
exactly one ``take``.  No Python per-row loops (contrast with the
reference's per-row Spark UDF, ``streaming/spark/fraud_detector.py:
221-294``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nyc_taxi_data_pipeline_ray import schemas

#: internal run-number column that :func:`with_run_seq` stamps; the
#: kernel takes run order from row order and never reads it
RUN_SEQ = "_run_seq"

#: internal lineage weight: how many source rows collapsed into this row
#: (kept exact across combiner stages so the log's counters reconcile).
NSRC = "_nsrc"


def _int64(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _dense_rank(strings: pa.ChunkedArray) -> np.ndarray:
    """Dense rank (0-based) of each string in sort order: the distinct
    values are hashed out first, so only they are sorted (in C++)."""
    enc = pc.dictionary_encode(strings).combine_chunks()
    rank = pc.rank(enc.dictionary, sort_keys="ascending", tiebreaker="dense")
    return (rank.to_numpy() - 1)[enc.indices.to_numpy(zero_copy_only=False)].astype(np.int64)


def _unique_rank(x: np.ndarray) -> np.ndarray:
    """Rank of each value of an array of DISTINCT values."""
    r = np.empty(len(x), np.int64)
    r[np.argsort(x)] = np.arange(len(x))
    return r


def _lex_codes(cols: list[np.ndarray]) -> np.ndarray:
    """One distinct int64 per row whose order is the stable lexicographic
    order of ``cols`` (least significant first, as ``np.lexsort`` takes
    them), row index last: columns are packed into mixed-radix digits,
    and the accumulator is re-ranked into ``[0, n)`` whenever the next
    digit would overflow.  Sorting distinct codes needs no stable sort,
    so the order costs a few unstable ``argsort`` calls, not one stable
    sort per column."""
    n = len(cols[0])
    acc, width = np.arange(n, dtype=np.int64), n
    for c in cols:
        lo, hi = int(c.min()), int(c.max())
        w = hi - lo + 1
        if w * width >= 1 << 63:
            acc, width = _unique_rank(acc), n
            if w * width >= 1 << 63:  # a sparse wide column: its dense rank
                c = np.unique(c, return_inverse=True)[1]
                lo, w = 0, int(c.max()) + 1
        acc = (c - lo).astype(np.int64) * width + acc
        width *= w
    return acc


def lww_order(table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The LWW kernel: ``(order, last)`` for a table with non-null
    ``conv_id, turn_idx, ts, lsn`` (validation guarantees them) whose
    rows are in run order (runs concatenated oldest-first).

    ``order`` lists the row indices sorted by ``(conv_id, turn_idx, ts,
    lsn)``, rows equal in all of these in row order.  ``last[i]`` is
    True iff ``order[i]`` is the last row of its key — the key's winner.
    """
    n = table.num_rows
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, bool)
    rank = _dense_rank(table["conv_id"])
    ti = _int64(table["turn_idx"])
    lww = [_int64(table["lsn"]), _int64(table["ts"])]
    order = np.argsort(_lex_codes(lww + [ti, rank]))
    rs, ts_ = rank[order], ti[order]
    last = np.empty(n, bool)
    last[:-1] = (rs[1:] != rs[:-1]) | (ts_[1:] != ts_[:-1])
    last[-1] = True
    return order, last


def resolve_lww(table: pa.Table, *, drop_tombstones: bool) -> pa.Table:
    """Collapse a multi-run table to one winning row per key.

    ``table`` carries ``conv_id, turn_idx, ts, lsn, op`` in run order
    (runs concatenated oldest-first).  Output is sorted by ``(conv_id,
    turn_idx)`` — the stable turn ordering the equality oracle requires.  With
    ``drop_tombstones=False`` winning deletes are kept (needed when the
    result is itself a delta run that must mask older base rows later).
    A ``_nsrc`` column becomes each winner's sum over its key's rows.
    """
    if table.num_rows == 0:
        return table
    order, last = lww_order(table)
    winners = order[last]
    sums = None
    if NSRC in table.schema.names:
        # winner inherits the summed lineage weight of its key group
        ends = np.flatnonzero(last)
        starts = np.concatenate([[0], ends[:-1] + 1])
        sums = np.add.reduceat(_int64(table[NSRC])[order], starts)
    if drop_tombstones:
        live = pc.fill_null(pc.not_equal(table["op"].take(winners), "delete"), True)
        live = live.to_numpy(zero_copy_only=False)
        winners = winners[live]
        sums = None if sums is None else sums[live]
    out = table.take(winners)
    if sums is not None:
        out = out.set_column(out.schema.get_field_index(NSRC), NSRC, pa.array(sums, pa.int64()))
    return out


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
    """k-way LWW merge of runs listed oldest-first.  The kernel's sort
    is stable over the runs' concatenation, so list position is the run
    order: no run column is stamped."""
    return resolve_lww(concat_unified(runs), drop_tombstones=drop_tombstones)


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
