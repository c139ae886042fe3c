"""Property test of the LWW kernel (``state/merge.py``, no Ray):
``merge_runs`` and ``resolve_lww`` against a plain-Python per-key max
over ``(ts, lsn, run position, row)`` and against the sort-based resolve
the kernel replaced, on random runs with duplicate keys, exact
``(ts, lsn)`` ties across runs, null ``op``, empty runs, and runs
before (``int32`` ``turn_idx``, no ``model``) and after a schema
evolution."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from nyc_taxi_data_pipeline_ray.state import merge as mg

COLS = ["conv_id", "turn_idx", "ts", "lsn", "op", "text", "model"]

_row = st.tuples(
    st.sampled_from(["a", "b", "bb", "c"]),  # conv_id
    st.integers(0, 2),  # turn_idx
    st.integers(0, 2),  # ts: few values, so (ts, lsn) ties are common
    st.integers(0, 2),  # lsn
    st.sampled_from(["insert", "update", "delete", None]),  # op
    st.integers(1, 3),  # _nsrc
)
_run = st.tuples(st.lists(_row, max_size=8), st.booleans())  # (rows, evolved)


def _table(rows, evolved: bool, tag: str) -> pa.Table:
    cols = {
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int64() if evolved else pa.int32()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "lsn": pa.array([r[3] for r in rows], pa.int64()),
        "op": pa.array([r[4] for r in rows], pa.string()),
        "text": pa.array([f"{tag}.{i}" for i in range(len(rows))], pa.string()),
    }
    if evolved:
        cols["model"] = pa.array([f"m{tag}" for _ in rows], pa.string())
    return pa.table(cols)


def _rows(t: pa.Table) -> list[dict]:
    t = t.select([c for c in COLS if c in t.schema.names])
    return [{c: r.get(c) for c in COLS} for r in t.to_pylist()]


def _python_lww(tables: list[pa.Table], drop_tombstones: bool):
    """Per key, the row with the greatest ``(ts, lsn, run position,
    row)`` — runs are the tables in list order, rows counted across
    them — and the sum of the key's ``_nsrc``."""
    best, nsrc, row = {}, {}, 0
    for pos, t in enumerate(tables):
        for r, w in zip(_rows(t), t["_nsrc"].to_pylist() if "_nsrc" in t.schema.names else [1] * t.num_rows):
            key = (r["conv_id"], r["turn_idx"])
            rank = (r["ts"], r["lsn"], pos, row)
            if key not in best or rank > best[key][0]:
                best[key] = (rank, r)
            nsrc[key] = nsrc.get(key, 0) + w
            row += 1
    out = [
        (best[k][1], nsrc[k])
        for k in sorted(best)
        if not (drop_tombstones and best[k][1]["op"] == "delete")
    ]
    return [r for r, _ in out], [n for _, n in out]


def _sort_resolve(table: pa.Table, *, drop_tombstones: bool) -> pa.Table:
    """The sort-based resolve the kernel replaced, kept as a second
    reference: one Arrow sort on ``(conv_id, turn_idx, ts, lsn,
    _run_seq)``, the last row per key, one take, then the tombstone
    filter."""
    keys = ["conv_id", "turn_idx", "ts", "lsn", mg.RUN_SEQ]
    idx = pc.sort_indices(table, sort_keys=[(k, "ascending") for k in keys]).to_numpy()
    conv = table["conv_id"].to_numpy(zero_copy_only=False)[idx]
    ti = table["turn_idx"].to_numpy()[idx]
    last = np.ones(len(idx), bool)
    last[:-1] = (conv[1:] != conv[:-1]) | (ti[1:] != ti[:-1])
    out = table.take(pa.array(idx[last]))
    return mg.live_rows(out) if drop_tombstones else out


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(_run, max_size=5), drop=st.booleans())
def test_merge_runs_equals_python_max(runs, drop):
    tables = [_table(rows, ev, str(i)) for i, (rows, ev) in enumerate(runs)]
    if not tables:
        return
    got = mg.merge_runs(tables, drop_tombstones=drop)
    want, _ = _python_lww(tables, drop)
    assert _rows(got) == want
    stamped = mg.concat_unified([mg.with_run_seq(t, i) for i, t in enumerate(tables)])
    assert _rows(_sort_resolve(stamped, drop_tombstones=drop)) == want


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(_run, min_size=1, max_size=5), drop=st.booleans())
def test_resolve_lww_sums_nsrc(runs, drop):
    """Runs concatenated oldest-first, as Stage B and the Stage-A2
    pre-combine resolve them; the winner carries its key's ``_nsrc``
    sum."""
    tables = []
    for i, (rows, ev) in enumerate(runs):
        t = _table(rows, ev, str(i))
        tables.append(t.append_column(mg.NSRC, pa.array([r[5] for r in rows], pa.int64())))
    table = mg.concat_unified(tables)
    got = mg.resolve_lww(table, drop_tombstones=drop)
    want, sums = _python_lww(tables, drop)
    assert _rows(got) == want
    assert got[mg.NSRC].to_pylist() == sums
    if table.num_rows:
        stamped = mg.concat_unified([mg.with_run_seq(t, i) for i, t in enumerate(tables)])
        assert _rows(_sort_resolve(stamped, drop_tombstones=drop)) == want


def test_kernel_order_is_stable_and_marks_each_keys_last_row():
    t = _table(
        [("b", 0, 1, 1, "insert", 1), ("a", 1, 1, 1, None, 1), ("b", 0, 1, 1, "update", 1)],
        False,
        "x",
    )
    order, last = mg.lww_order(t)
    assert order.tolist() == [1, 0, 2]  # ties keep row order
    assert last.tolist() == [True, False, True]
    order, last = mg.lww_order(t.slice(0, 0))
    assert len(order) == len(last) == 0
