"""MaterializedView: incremental per-conversation aggregates over the
lake.  The reference rebuilds its gold aggregates from scratch every
``dbt run`` (``nyc_taxi_dbt/models/marts/core/agg_daily_metrics.sql``);
here the view refreshes only partitions whose commit ledger advanced,
and these tests pin (a) equality vs an independent full recompute,
(b) the partition-reuse witness, (c) crash-resume, (d) tombstones."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig, schemas
from nyc_taxi_data_pipeline_ray.engine import hash_partition_ids
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state import oracle
from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

SPEC = WalSpec(
    seed=11,
    num_conversations=120,
    num_epochs=3,
    events_per_epoch=1200,
    p_update=0.3,
    p_delete=0.08,
    ooo_fraction=0.1,
    dup_fraction=0.02,
)


def _build(tmp):
    gen = WalGenerator(SPEC)
    wal = os.path.join(tmp, "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4)
    )
    mv = MaterializedView(eng, os.path.join(tmp, "view"))
    return gen, wal, eng, mv


def _expected(events: pa.Table) -> pd.DataFrame:
    """Independent recompute: dict-oracle LWW replay, then pandas aggs."""
    final = oracle.replay(events).to_pandas()
    g = final.groupby("conv_id")
    return (
        pd.DataFrame(
            {
                "n_turns": g.size(),
                "first_ts": g["ts"].min(),
                "last_ts": g["ts"].max(),
                "n_user_turns": g["role"].apply(lambda s: int((s == "user").sum())),
                "n_tool_calls": g["tool"].apply(lambda s: int(s.notna().sum())),
                "total_chars": g["text"].apply(
                    lambda s: int(s.fillna("").str.len().sum())
                ),
                "last_lsn": g["lsn"].max(),
            }
        )
        .reset_index()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )


def _assert_view_equals(mv, expected: pd.DataFrame):
    got = mv.table().to_pandas()[expected.columns.tolist()]
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_matview_equals_full_recompute(tmp_path):
    gen, wal, eng, mv = _build(str(tmp_path))
    eng.apply(wal)
    rep = mv.refresh()
    assert rep["refreshed"] == 4 and rep["reused"] == 0
    _assert_view_equals(mv, _expected(gen.events_table()))
    # tombstone coverage: the spec deletes ~8% of touched turns, and a
    # fully-deleted conversation must vanish from the view
    assert rep["rows"] == len(_expected(gen.events_table()))


def test_matview_incremental_reuse(tmp_path):
    gen, wal, eng, mv = _build(str(tmp_path))
    eng.apply(wal)
    mv.refresh()
    # idempotent: nothing changed -> everything reused
    rep = mv.refresh()
    assert rep == {"refreshed": 0, "reused": 4, "rows": rep["rows"]}

    # a new epoch touching ONE conversation refreshes only its partition
    final = oracle.replay(gen.events_table())
    conv = final["conv_id"][0].as_py()
    ev = pa.table(
        {
            "lsn": pa.array([10_000_000], pa.int64()),
            "op": pa.array(["insert"]),
            "epoch": pa.array([SPEC.num_epochs], pa.int32()),
            "conv_id": pa.array([conv]),
            "turn_idx": pa.array([9999], pa.int32()),
            "role": pa.array(["assistant"]),
            "text": pa.array(["late turn"]),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([pd.Timestamp("2031-01-01").to_datetime64()]),
        }
    ).cast(schemas.EVENT_SCHEMA)
    d = os.path.join(str(tmp_path), "wal", f"epoch={SPEC.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ev, os.path.join(d, "part-0000.parquet"))
    eng.apply(os.path.join(str(tmp_path), "wal"))

    rep = mv.refresh()
    assert rep["refreshed"] == 1 and rep["reused"] == 3
    expected = _expected(pa.concat_tables([gen.events_table(), ev]))
    _assert_view_equals(mv, expected)
    # and the refreshed partition is the one owning that conversation
    pid = int(hash_partition_ids(pa.array([conv]), 4)[0])
    assert mv.ledger.stored_watermark(pid) == mf.state_changing_watermark(eng.cfg.path, pid)


def test_matview_crash_resume(tmp_path):
    gen, wal, eng, mv = _build(str(tmp_path))
    eng.apply(wal)
    mv.refresh()
    expected = _expected(gen.events_table())
    # simulate a crash after the data files landed but before the
    # commit: the log is the ledger, so every partition re-runs
    os.remove(mf.checkpoint_path(mv.ledger.path, 1))
    rep = mv.refresh()
    assert rep["refreshed"] == 4 and rep["reused"] == 0
    _assert_view_equals(mv, expected)


def _expected_role_stats(events: pa.Table) -> pd.DataFrame:
    final = oracle.replay(events).to_pandas()
    g = final.groupby("role")
    return (
        pd.DataFrame(
            {
                "n_turns": g.size(),
                "total_chars": g["text"].apply(
                    lambda s: int(s.fillna("").str.len().sum())
                ),
            }
        )
        .reset_index()
        .sort_values("role")
        .reset_index(drop=True)
    )


def test_delta_aggregate_incremental(tmp_path):
    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    gen, wal, eng, _ = _build(str(tmp_path))
    da = DeltaAggregate(eng, os.path.join(str(tmp_path), "role_stats.json"))

    eng.apply(wal, max_epochs=1)
    assert da.refresh()["mode"] == "full"  # first sync bootstraps
    eng.apply(wal)
    assert da.refresh()["mode"] == "incremental"  # folds diff images only
    assert da.refresh()["mode"] == "noop"  # watermark unchanged

    got = da.table().to_pandas()
    exp = _expected_role_stats(gen.events_table())
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_delta_aggregate_ignores_partially_committed_group(tmp_path):
    """A group whose data files have landed but whose log record has not
    (a crash before ``apply`` commits it, or an apply still running) is
    not committed yet.  Folding its landed part would record the group
    as done, and it would never be folded once the apply resumes."""
    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    gen, wal, eng, _ = _build(str(tmp_path))
    da = DeltaAggregate(eng, os.path.join(str(tmp_path), "role_stats.json"))
    eng.apply(wal, max_epochs=2)
    assert da.refresh()["mode"] == "full"
    eng.apply(wal)
    # group 2's data files landed, and apply never committed its record
    os.remove(mf.record_path(eng.cfg.path, mf.read_log(eng.cfg.path).seq))
    assert da.refresh()["mode"] == "noop"
    assert eng.apply(wal).epochs == [2]  # the resumed apply commits it
    assert da.refresh()["mode"] == "incremental"
    got = da.table().to_pandas()
    exp = _expected_role_stats(gen.events_table())
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_delta_aggregate_compaction_fallback(tmp_path):
    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    gen, wal, eng, _ = _build(str(tmp_path))
    da = DeltaAggregate(eng, os.path.join(str(tmp_path), "role_stats.json"))
    eng.apply(wal, max_epochs=1)
    da.refresh()
    eng.apply(wal)
    eng.compact()  # folds the history the incremental path would need
    # one more state-changing commit so the watermark moves past compaction
    ev = pa.table(
        {
            "lsn": pa.array([20_000_000], pa.int64()),
            "op": pa.array(["insert"]),
            "epoch": pa.array([SPEC.num_epochs], pa.int32()),
            "conv_id": pa.array(["conv-new"]),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["system"]),
            "text": pa.array(["hello"]),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([pd.Timestamp("2031-01-01").to_datetime64()]),
        }
    ).cast(schemas.EVENT_SCHEMA)
    d = os.path.join(str(tmp_path), "wal", f"epoch={SPEC.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ev, os.path.join(d, "part-0000.parquet"))
    eng.apply(os.path.join(str(tmp_path), "wal"))

    rep = da.refresh()
    assert rep["mode"] == "full"  # compacted history -> snapshot re-sync
    got = da.table().to_pandas()
    exp = _expected_role_stats(pa.concat_tables([gen.events_table(), ev]))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_views_survive_schema_evolution(tmp_path):
    """An evolved WAL (adds the nullable ``model`` column mid-stream)
    must not break either view: both aggregate base columns only and
    read states whose schema was unified at merge time."""
    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    spec = WalSpec(
        seed=23,
        num_conversations=80,
        num_epochs=3,
        events_per_epoch=900,
        p_update=0.3,
        p_delete=0.05,
        evolve_at_epoch=1,
    )
    gen = WalGenerator(spec)
    wal = os.path.join(str(tmp_path), "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(str(tmp_path), "lake"), num_partitions=4)
    )
    mv = MaterializedView(eng, os.path.join(str(tmp_path), "view"))
    da = DeltaAggregate(eng, os.path.join(str(tmp_path), "roles.json"))
    eng.apply(wal, max_epochs=1)
    mv.refresh()
    da.refresh()
    eng.apply(wal)  # evolved epochs land here
    mv.refresh()
    assert da.refresh()["mode"] == "incremental"

    events = gen.events_table()
    final = oracle.replay(events).to_pandas()
    assert "model" in final.columns  # evolution actually happened
    _assert_view_equals(mv, _expected(events))
    g = final.groupby("role")
    exp_roles = (
        pd.DataFrame(
            {
                "n_turns": g.size(),
                "total_chars": g["text"].apply(
                    lambda s: int(s.fillna("").str.len().sum())
                ),
            }
        )
        .reset_index()
        .sort_values("role")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        da.table().to_pandas(), exp_roles, check_dtype=False
    )


def test_matview_property_random_shapes(tmp_path_factory):
    """Property-style: across random op mixes, an epoch-at-a-time
    refresh sequence must equal the full recompute."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        p_update=st.floats(min_value=0.0, max_value=0.5),
        p_delete=st.floats(min_value=0.0, max_value=0.25),
    )
    def inner(seed, p_update, p_delete):
        tmp = str(tmp_path_factory.mktemp(f"mvprop{seed % 100000}"))
        spec = WalSpec(
            seed=seed,
            num_conversations=30,
            num_epochs=2,
            events_per_epoch=300,
            p_update=p_update,
            p_delete=p_delete,
            ooo_fraction=0.1,
        )
        gen = WalGenerator(spec)
        wal = os.path.join(tmp, "wal")
        gen.write(wal)
        eng = CdcEngine(
            LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4)
        )
        mv = MaterializedView(eng, os.path.join(tmp, "view"))
        eng.apply(wal, max_epochs=1)
        mv.refresh()
        eng.apply(wal)
        mv.refresh()
        _assert_view_equals(mv, _expected(gen.events_table()))

    inner()


def test_matview_survives_compaction(tmp_path):
    """Compaction rewrites runs but not logical state: the view's
    watermark (committed groups) is unchanged, so nothing refreshes
    and reads still match."""
    gen, wal, eng, mv = _build(str(tmp_path))
    eng.apply(wal)
    mv.refresh()
    eng.compact()
    rep = mv.refresh()
    assert rep["refreshed"] == 0 and rep["reused"] == 4
    _assert_view_equals(mv, _expected(gen.events_table()))


def test_delta_aggregate_pins_fold_to_recorded_watermark(tmp_path, monkeypatch):
    """A commit group landing between the watermark read and the
    diff/snapshot read must NOT be folded into the stored groups —
    the next refresh diffs from the recorded watermark and would fold
    it AGAIN, and additive state double-counts forever (unlike the
    recompute consumers, which self-heal).  Simulate the race by
    pinning ``_watermark_now`` below the lake's true watermark."""
    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    gen, wal, eng, _ = _build(str(tmp_path))
    da = DeltaAggregate(eng, os.path.join(str(tmp_path), "role_stats.json"))
    eng.apply(wal, max_epochs=1)  # group 0 committed (epoch 0)
    eng.apply(wal, max_epochs=1)  # group 1 committed (epoch 1)
    # full-mode race: the reader's watermark scan finished at group 0,
    # then group 1 committed before the snapshot read
    monkeypatch.setattr(DeltaAggregate, "_watermark_now", lambda self: 0)
    assert da.refresh()["mode"] == "full"  # must snapshot as_of_epoch=0
    monkeypatch.undo()
    eng.apply(wal)  # group 2 committed
    # incremental race: reader saw group 1, group 2 landed mid-refresh
    monkeypatch.setattr(DeltaAggregate, "_watermark_now", lambda self: 1)
    assert da.refresh()["mode"] == "incremental"  # folds ONLY group 1
    monkeypatch.undo()
    assert da.refresh()["mode"] == "incremental"  # folds group 2
    got = da.table().to_pandas()
    exp = _expected_role_stats(gen.events_table())
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_noop_refresh_reads_only_manifests_since_its_watermark(tmp_path, monkeypatch):
    """A no-op refresh's JSON loads do not grow with the lake's history
    (both logs are read through the log cache)."""
    import json

    spec = WalSpec(seed=12, num_conversations=40, num_epochs=15, events_per_epoch=200)
    gen = WalGenerator(spec)
    wal = os.path.join(str(tmp_path), "wal")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(os.path.join(str(tmp_path), "lake"), num_partitions=4))
    mv = MaterializedView(eng, os.path.join(str(tmp_path), "view"))
    real_load = json.load

    def noop_refresh_loads() -> int:
        mv.refresh()
        calls = []
        monkeypatch.setattr(json, "load", lambda f, **kw: calls.append(1) or real_load(f, **kw))
        rep = mv.refresh()
        monkeypatch.undo()
        assert rep["refreshed"] == 0 and rep["reused"] == 4
        return len(calls)

    for _ in range(5):
        eng.apply(wal, max_epochs=1)
    after_5 = noop_refresh_loads()
    for _ in range(10):
        eng.apply(wal, max_epochs=1)
    assert noop_refresh_loads() == after_5
    _assert_view_equals(mv, _expected(gen.events_table()))


def test_state_changing_watermark_after_foreign_group_scans_all(tmp_path):
    """A partition's state-changing watermark is the log position of the
    latest record that gives it upserts or deletes, folded from the
    whole log (checkpoint included) whatever watermark a consumer
    stored."""
    lake = str(tmp_path)
    log = mf.Log()
    for g, upserts in ((1, 5), (3, 0), (4, 2), (6, 0)):
        part = {"rows_in": upserts + 1, "upserts": upserts, "deletes": 0}
        log = mf.append_record(lake, log, {"group_id": g, "epochs": [g], "partitions": {"0": part}})
        if g == 3:
            mf.write_checkpoint(lake, log)
    assert mf.state_changing_watermark(lake, 0) == 3  # group 4, the third record
    assert mf.state_changing_watermark(lake, 1) == -1


def test_delta_aggregate_folds_a_late_group(tmp_path):
    """The watermark is a log position: epoch 2 committed after groups 3
    and 4 (a late group) changes partitions below a group-id watermark,
    and the next refresh folds it, equal to a fresh aggregate."""
    import shutil

    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    tmp = str(tmp_path)
    full, wal = os.path.join(tmp, "full"), os.path.join(tmp, "wal")
    gen = WalGenerator(WalSpec(seed=7, num_conversations=60, num_epochs=5, events_per_epoch=300))
    gen.write(full)

    def deliver(epoch: int) -> None:
        name = f"epoch={epoch:06d}"
        shutil.copytree(os.path.join(full, name), os.path.join(wal, name))

    eng = CdcEngine(LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4))
    da = DeltaAggregate(eng, os.path.join(tmp, "roles.json"))
    for e in (0, 1, 3, 4):
        deliver(e)
        eng.apply(wal)
    assert da.refresh()["mode"] == "full"
    deliver(2)
    assert eng.apply(wal).epochs == [2]
    assert da.refresh()["mode"] == "incremental"
    fresh = DeltaAggregate(eng, os.path.join(tmp, "fresh.json"))
    assert fresh.refresh()["mode"] == "full"
    assert da.table().equals(fresh.table())
    pd.testing.assert_frame_equal(
        da.table().to_pandas(), _expected_role_stats(gen.events_table()), check_dtype=False
    )
    assert da.refresh()["mode"] == "noop"
