"""LWW merge kernel unit tests (no Ray)."""

import pyarrow as pa

from nyc_taxi_data_pipeline_ray.state import merge as mg


def _t(rows):
    cols = {
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "lsn": pa.array([r[3] for r in rows], pa.int64()),
        "op": [r[4] for r in rows],
        "text": [r[5] for r in rows],
    }
    return pa.table(cols)


def test_lww_by_ts_then_lsn():
    t = _t(
        [
            ("a", 0, 100, 1, "insert", "v1"),
            ("a", 0, 300, 2, "update", "v2"),  # winner: later ts
            ("a", 0, 200, 9, "update", "v3"),  # bigger lsn but earlier ts loses
            ("b", 0, 100, 3, "insert", "b1"),
            ("b", 0, 100, 4, "update", "b2"),  # ts tie -> lsn breaks
        ]
    )
    out = mg.resolve_lww(mg.with_run_seq(t, 0), drop_tombstones=True)
    assert out.column("text").to_pylist() == ["v2", "b2"]


def test_tombstone_semantics():
    t = _t(
        [
            ("a", 0, 100, 1, "insert", "v1"),
            ("a", 0, 200, 2, "delete", None),
            ("b", 1, 100, 3, "insert", "b1"),
            ("b", 1, 50, 4, "delete", None),  # stale delete loses to insert
        ]
    )
    kept = mg.resolve_lww(mg.with_run_seq(t, 0), drop_tombstones=True)
    assert kept.column("conv_id").to_pylist() == ["b"]
    masked = mg.resolve_lww(mg.with_run_seq(t, 0), drop_tombstones=False)
    assert masked.num_rows == 2  # tombstone retained for later runs


def test_merge_runs_run_seq_tiebreak():
    old = _t([("a", 0, 100, 1, "insert", "old")])
    new = _t([("a", 0, 100, 1, "insert", "new")])  # identical stamp, newer run
    out = mg.merge_runs([old, new], drop_tombstones=True)
    assert out.column("text").to_pylist() == ["new"]


def test_merge_runs_base_beats_stale_delta():
    base = _t([("a", 0, 500, 9, "update", "fresh")])
    delta = _t([("a", 0, 100, 1, "update", "stale")])
    out = mg.merge_runs([base, delta], drop_tombstones=True)
    assert out.column("text").to_pylist() == ["fresh"]


def test_conform_widens_and_nullfills():
    t = pa.table({"a": pa.array([1, 2], pa.int32())})
    target = pa.schema([("a", pa.int64()), ("b", pa.string())])
    out = mg.conform(t, target)
    assert out.schema == target
    assert out["b"].null_count == 2


def test_empty_table():
    t = _t([])
    out = mg.resolve_lww(mg.with_run_seq(t, 0), drop_tombstones=True)
    assert out.num_rows == 0


def test_oracle_all_deleted_returns_typed_empty():
    """An all-deleted log must replay to a TYPED empty table (matching
    the engine's TRANSCRIPT_SCHEMA-typed empty snapshot), not NULL-typed
    columns that spuriously mismatch."""
    from nyc_taxi_data_pipeline_ray.state import oracle

    ev = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "op": ["insert", "delete"],
            "epoch": pa.array([0, 0], pa.int32()),
            "conv_id": ["c", "c"],
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": ["user", None],
            "text": ["hi", None],
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([1, 2], pa.timestamp("us")),
        }
    )
    out = oracle.replay(ev)
    assert out.num_rows == 0
    assert out.schema.field("ts").type == pa.timestamp("us")
    assert out.schema.field("lsn").type == pa.int64()
    assert "op" not in out.schema.names and "epoch" not in out.schema.names


def test_oracle_tie_keeps_later_arrival():
    """Exact (ts, lsn) stamp tie: the LATER arrival wins, matching the
    engine's stable-sort + last-per-key winner selection."""
    from nyc_taxi_data_pipeline_ray.state import oracle

    ev = pa.table(
        {
            "lsn": pa.array([5, 5], pa.int64()),
            "op": ["insert", "insert"],
            "epoch": pa.array([0, 1], pa.int32()),
            "conv_id": ["c", "c"],
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": ["user", "user"],
            "text": ["first", "second"],
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([7, 7], pa.timestamp("us")),
        }
    )
    assert oracle.replay(ev)["text"].to_pylist() == ["second"]


def test_manifest_ledger_survives_seven_digit_ids(tmp_path):
    """:06d grows past six digits at id 1,000,000 — the ledger regexes
    must keep matching or those commits silently vanish from merges."""
    import os

    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    lake = str(tmp_path)
    os.makedirs(mf.partition_dir(lake, 0))
    log = mf.Log()
    for epoch in (999999, 1000000):
        pq.write_table(_t([("c", 0, 1, 1, "insert", "x")]), mf.delta_path(lake, 0, epoch))
        log = mf.append_record(lake, log, {"group_id": epoch, "epochs": [epoch], "partitions": {}})
    assert os.path.basename(mf.delta_path(lake, 0, 1000000)) == "delta-1000000.parquet"
    assert mf.read_log(lake).epochs == {999999, 1000000}
    assert [e for e, _ in mf.delta_runs(lake, 0)] == [999999, 1000000]


def test_consumer_watermark_corrupt_json_is_stale(tmp_path):
    """Valid-JSON-wrong-shape consumer checkpoints (null, a list, a null
    watermark, a null entry) must read as stale (None), never crash the
    consumer; a well-formed checkpoint reads back."""
    import os

    from nyc_taxi_data_pipeline_ray.state import manifest as mf
    from nyc_taxi_data_pipeline_ray.state.consumer import ConsumerLedger

    ledger = ConsumerLedger(None, str(tmp_path))
    path = mf.checkpoint_path(ledger.path, 1)
    os.makedirs(os.path.dirname(path))
    entry = '{"seq": 1, "partitions": [[0, %s]]}'
    for payload in ["null", "[1,2]", entry % '{"watermark": null}', entry % "null"]:
        with open(path, "w") as f:
            f.write(payload)
        assert ledger.stored_watermark(0) is None
    with open(path, "w") as f:
        f.write(entry % '{"watermark": 3, "rows": 2}')
    assert ledger.stored_watermark(0) == 3
