"""Vectorized event validation / normalization (ingest gate).

Analog of the reference's two ingest gates: the Pydantic ``TripEvent``
model with ranges/defaults (``streaming/api/schemas.py:7-34``) and the
row-level-skip bulk load ``ON_ERROR='CONTINUE'``
(``airflow/dags/nyc_taxi_sync_dag.py:47``).  Instead of per-row model
validation, a single Arrow boolean mask per batch marks invalid rows;
they are routed to a per-partition dead-letter file (``rejects-*.parquet``)
by the apply stage and counted in the commit log.

Rules (keep in sync with ``state.oracle.is_valid_event``):
  conv_id non-null & non-empty; turn_idx non-null & >= 0; ts and lsn
  non-null; op in {insert,update,delete}; role in
  {user,assistant,system,tool} unless op = delete.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from nyc_taxi_data_pipeline_ray import schemas

from nyc_taxi_data_pipeline_ray.stages import replace_column

VALID_COL = "_valid"


def validity_mask(batch: pa.Table) -> pa.ChunkedArray | pa.Array:
    conv = batch["conv_id"]
    ok = pc.and_kleene(conv.is_valid(), pc.not_equal(pc.fill_null(conv, ""), ""))
    turn = batch["turn_idx"]
    ok = pc.and_(ok, pc.and_(turn.is_valid(), pc.greater_equal(pc.fill_null(turn, -1), 0)))
    ok = pc.and_(ok, batch["ts"].is_valid())
    ok = pc.and_(ok, batch["lsn"].is_valid())
    op = pc.fill_null(batch["op"], "?")
    ok = pc.and_(ok, pc.is_in(op, value_set=pa.array(schemas.OPS)))
    role_ok = pc.is_in(pc.fill_null(batch["role"], "?"), value_set=pa.array(schemas.ROLES))
    ok = pc.and_(ok, pc.or_(pc.equal(op, "delete"), role_ok))
    return pc.fill_null(ok, False)


def reject_reasons(batch: pa.Table) -> list[str]:
    """First-failing-rule label per row (vectorized), for alert/dead-letter
    introspection — the Pydantic ValidationError-message analog."""
    import numpy as np

    conv_bad = pc.or_kleene(
        batch["conv_id"].is_null(), pc.equal(pc.fill_null(batch["conv_id"], ""), "")
    ).to_numpy(zero_copy_only=False)
    turn_bad = pc.or_kleene(
        batch["turn_idx"].is_null(),
        pc.less(pc.fill_null(batch["turn_idx"], -1), 0),
    ).to_numpy(zero_copy_only=False)
    ts_bad = batch["ts"].is_null().to_numpy(zero_copy_only=False)
    lsn_bad = batch["lsn"].is_null().to_numpy(zero_copy_only=False)
    op = pc.fill_null(batch["op"], "?")
    op_bad = pc.invert(pc.is_in(op, value_set=pa.array(schemas.OPS))).to_numpy(
        zero_copy_only=False
    )
    role_bad = pc.and_(
        pc.not_equal(op, "delete"),
        pc.invert(pc.is_in(pc.fill_null(batch["role"], "?"), value_set=pa.array(schemas.ROLES))),
    ).to_numpy(zero_copy_only=False)
    out = np.select(
        [conv_bad, turn_bad, ts_bad, lsn_bad, op_bad, role_bad],
        ["null_conv_id", "bad_turn_idx", "null_ts", "null_lsn", "bad_op", "bad_role"],
        default="invalid",
    )
    return out.astype(str).tolist()


def tag_valid(batch: pa.Table) -> pa.Table:
    """map_batches stage: appends the ``_valid`` boolean column."""
    return replace_column(batch, VALID_COL, validity_mask(batch))


def split_valid(batch: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(valid_rows, reject_rows), both without the marker column."""
    if VALID_COL not in batch.schema.names:
        batch = tag_valid(batch)
    mask = batch[VALID_COL]
    batch = batch.drop_columns([VALID_COL])
    # all-valid fast path: skip the full-batch filter copy (the common
    # case — rejects are rare, and the batch can be hundreds of MB)
    if pc.sum(mask).as_py() == batch.num_rows:
        return batch, batch.slice(0, 0)
    good = batch.filter(mask)
    bad = batch.filter(pc.invert(mask))
    return good, bad
