"""CdcEngine end-to-end: equality vs oracle, exactly-once, resume,
schema evolution, skew — the dbt-test surface re-expressed as pytest
(reference ``nyc_taxi_dbt/models/staging/schema.yml``, ``tests/*.sql``)."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import oracle


def _build(tmp, spec, **lake_kwargs):
    gen = WalGenerator(spec)
    wal = os.path.join(tmp, "wal")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4, **lake_kwargs))
    return gen, wal, eng


def _assert_equal_state(eng, gen):
    snap = eng.snapshot_table()
    exp = oracle.replay(gen.events_table())
    cols = sorted(exp.schema.names)
    a, b = snap.select(cols), exp.select(cols)
    assert a.num_rows == b.num_rows
    assert a.equals(b)
    return snap


SPEC = WalSpec(
    seed=7,
    num_conversations=150,
    num_epochs=3,
    events_per_epoch=1500,
    ooo_fraction=0.1,
    dup_fraction=0.05,
    invalid_fraction=0.02,
)


@pytest.fixture(scope="module")
def applied(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("eng"))
    gen, wal, eng = _build(tmp, SPEC)
    rep = eng.apply(wal)
    return gen, wal, eng, rep


def test_end_state_equality(applied):
    gen, _, eng, rep = applied
    assert rep.epochs == [0, 1, 2]
    _assert_equal_state(eng, gen)


def test_key_uniqueness_and_not_null(applied):
    # dbt `unique` + `not_null` analogs (schema.yml:61-69, :7-10)
    _, _, eng, _ = applied
    snap = eng.snapshot_table()
    keys = [(c, t) for c, t in zip(snap["conv_id"].to_pylist(), snap["turn_idx"].to_pylist())]
    assert len(keys) == len(set(keys))
    assert snap["conv_id"].null_count == 0
    assert snap["turn_idx"].null_count == 0
    assert snap["ts"].null_count == 0


def test_accepted_values(applied):
    # dbt `accepted_values` analog (schema.yml:16-28)
    _, _, eng, _ = applied
    snap = eng.snapshot_table()
    roles = set(pc.unique(snap["role"]).to_pylist())
    assert roles <= {"user", "assistant", "system", "tool"}
    assert pc.min(snap["turn_idx"]).as_py() >= 0  # in_range/positive_value macro analog


def test_row_count_reconciliation(applied):
    # lineage counters vs generator totals and final state (north rule):
    # every input row is accounted for (valid + rejects = rows_in) and the
    # final row count matches the oracle's insert-minus-delete arithmetic.
    gen, _, eng, rep = applied
    m = eng.metrics()
    ev = gen.events_table()
    assert m["rows_in"] == ev.num_rows
    assert m["valid"] + m["rejects"] == m["rows_in"]
    snap = eng.snapshot_table()
    exp = oracle.replay(ev)
    assert snap.num_rows == exp.num_rows
    # upserts counts per-run winners, an upper bound on live keys
    assert m["upserts"] >= snap.num_rows
    assert m["deletes"] >= 0


def test_rejects_dead_letter(applied):
    _, _, eng, rep = applied
    assert rep.rejects > 0
    reject_files = glob.glob(os.path.join(eng.cfg.path, "p=*", "rejects-*.parquet"))
    assert reject_files
    total = sum(pa.parquet.read_table(f).num_rows for f in reject_files)
    assert total == rep.rejects


def test_fsck(applied):
    _, _, eng, _ = applied
    rep = eng.fsck()
    assert rep["ok"] and rep["issues"] == []

    # leftover tmp + orphan delta (crashed writer) are reclaimable, not failures
    pdir = os.path.join(eng.cfg.path, "p=0000")
    open(os.path.join(pdir, "delta-000099.parquet.tmp"), "w").close()
    import shutil as _sh

    _sh.copy(
        glob.glob(os.path.join(pdir, "delta-*.parquet"))[0],
        os.path.join(pdir, "delta-000098.parquet"),
    )
    rep = eng.fsck()
    assert rep["ok"]
    kinds = {r["kind"] for r in rep["reclaimable"]}
    assert {"tmp_file", "orphan_delta"} <= kinds

    # a committed delta vanishing IS a real issue
    victim = glob.glob(os.path.join(pdir, "delta-*.parquet"))
    victim = [v for v in victim if "000098" not in v][0]
    os.rename(victim, victim + ".bak")
    rep = eng.fsck()
    assert not rep["ok"]
    assert any(i["kind"] == "missing_delta" for i in rep["issues"])
    os.rename(victim + ".bak", victim)
    # vacuum reclaims the remnants, never committed state
    rep = eng.vacuum()
    assert rep["removed"] == 2 and not rep["had_issues"]
    clean = eng.fsck()
    assert clean["ok"] and clean["reclaimable"] == []
    _assert_equal_state(eng, applied[0])  # lake state untouched


def _lake_files(root: str) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs
    )


def test_compaction_cut_before_unlinks_leaves_reclaimable_runs(tmp_path, monkeypatch):
    """A compaction cut between its marker and the unlinks that follow
    has committed, but leaves the folded delta and the superseded base
    (with its bloom) on disk.  They are dead: ``describe`` counts what a
    crash-free compaction counts, ``fsck`` lists them as reclaimable,
    and after ``vacuum`` the lake holds a crash-free run's files."""
    from nyc_taxi_data_pipeline_ray.engine import _compact_partition as compact_partition

    spec = WalSpec(seed=21, num_conversations=60, num_epochs=2, events_per_epoch=400)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    lakes = {}
    for name in ("clean", "cut"):
        eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / name), num_partitions=2))
        eng.apply(wal, max_epochs=1)
        eng.compact()
        eng.apply(wal, max_epochs=1)
        lakes[name] = eng
    clean, cut = lakes["clean"], lakes["cut"]
    rgr = clean.cfg.base_row_group_rows
    assert compact_partition(clean.cfg.path, 0, row_group_rows=rgr)

    def refuse(path):
        raise OSError(f"cut before unlinking {path}")

    with monkeypatch.context() as m:
        m.setattr(os, "remove", refuse)
        assert compact_partition(cut.cfg.path, 0, row_group_rows=rgr)
    assert cut.describe()["total_rows"] == clean.describe()["total_rows"]
    _assert_equal_state(cut, gen)
    rep = cut.fsck()
    assert rep["ok"] and rep["issues"] == []
    assert sorted((r["kind"], r["file"]) for r in rep["reclaimable"]) == [
        ("folded_delta", os.path.join("p=0000", "delta-000001.parquet")),
        ("superseded_base", os.path.join("p=0000", "base-000001.parquet")),
    ]
    # the next compaction folds only live runs: the remnants stay for vacuum
    assert not compact_partition(cut.cfg.path, 0, row_group_rows=rgr)
    assert cut.vacuum()["removed"] == 3  # delta, base, bloom sidecar
    assert _lake_files(cut.cfg.path) == _lake_files(clean.cfg.path)
    _assert_equal_state(cut, gen)


def test_fsck_lists_tmp_files_outside_partitions(applied):
    """A commit cut before its rename leaves its tmp sibling wherever the
    file lives: the lake root and the commit log too, not only partitions."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    _, _, eng, _ = applied
    record = os.path.relpath(mf.record_path(eng.cfg.path, 99), eng.cfg.path)
    names = [record + ".tmp", "_lake.json.tmp"]
    for n in names:
        open(os.path.join(eng.cfg.path, n), "w").close()
    rep = eng.fsck()
    assert rep["ok"]
    assert sorted(r["file"] for r in rep["reclaimable"] if r["kind"] == "tmp_file") == sorted(
        names
    )
    assert eng.vacuum()["removed"] == 2
    assert eng.fsck()["reclaimable"] == []


def test_get_conversations_bulk_lookup(applied):
    # partition-pruned bulk point reads == the snapshot filtered to the
    # same keys; unknown keys return nothing; empty request is empty
    gen, _, eng, _ = applied
    snap = eng.snapshot_table()
    ids = sorted(set(snap["conv_id"].to_pylist()))[:7]
    got = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.get_conversations(ids + ["conv-does-not-exist"]).iter_batches(
                batch_format="pyarrow"
            )
        ],
        promote_options="default",
    )
    exp = snap.filter(pc.is_in(snap["conv_id"], value_set=pa.array(ids)))
    cols = sorted(exp.schema.names)
    got = got.select(cols)
    got = got.take(
        pc.sort_indices(got, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    assert got.equals(exp.select(cols))
    assert eng.get_conversations([]).count() == 0
    assert eng.get_conversations(["conv-does-not-exist"]).count() == 0


def test_rejects_feed(applied):
    # the queryable dead-letter feed: every reject row, group-tagged,
    # with a first-failing-rule reason; exactly-once under re-apply
    gen, wal, eng, rep = applied
    feed = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.rejects().iter_batches(batch_format="pyarrow")
        ],
        promote_options="default",
    )
    assert feed.num_rows == rep.rejects
    assert feed["reason"].null_count == 0
    assert set(feed["reject_group"].to_pylist()) <= set(rep.epochs)
    # the feed is the set of actually-invalid events
    ev = gen.events_table()
    bad_lsns = sorted(
        r["lsn"] for r in ev.to_pylist() if not oracle.is_valid_event(r)
    )
    assert sorted(feed["lsn"].to_pylist()) == bad_lsns
    # windowing: a window past the last group is empty
    assert eng.rejects(after_epoch=max(rep.epochs)).count() == 0
    # exactly-once: a no-op re-apply adds nothing
    eng.apply(wal)
    assert eng.rejects().count() == rep.rejects


def test_alert_ring_keeps_most_recent_rejects(applied):
    # the capped last-K alert list analog (fraud_detector.py:76-77
    # lpush + ltrim 0..99): metrics() exposes the most recent K rejects,
    # ordered by event recency, exactly-once under re-apply.
    gen, wal, eng, _ = applied
    ring = eng.metrics()["recent_rejects"]
    assert 0 < len(ring) <= 100
    stamps = [(e["ts"] is not None, e["ts"] or 0, e["lsn"]) for e in ring]
    assert stamps == sorted(stamps, reverse=True)
    # ring content == the actually-invalid events, most recent first
    ev = gen.events_table()
    bad_rows = [r for r in ev.to_pylist() if not oracle.is_valid_event(r)]
    expected = sorted(
        bad_rows,
        key=lambda r: (r["ts"] is not None, r["ts"] or 0, r["lsn"]),
        reverse=True,
    )[: len(ring)]
    assert [e["lsn"] for e in ring] == [r["lsn"] for r in expected]
    # exactly-once: a no-op re-apply leaves the ring unchanged
    eng.apply(wal)
    assert eng.metrics()["recent_rejects"] == ring


def test_exactly_once_reapply(applied):
    gen, wal, eng, _ = applied
    before = eng.metrics()
    rep2 = eng.apply(wal)
    assert rep2.epochs == []
    assert eng.metrics() == before
    _assert_equal_state(eng, gen)


def _lose_last_record(eng) -> None:
    """Simulate a driver crash before a group's log record landed: its
    data files are on disk, its record is not."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    os.remove(mf.record_path(eng.cfg.path, mf.read_log(eng.cfg.path).seq))


def test_crash_resume(tmp_path):
    gen, wal, eng = _build(str(tmp_path), SPEC)
    eng.apply(wal, max_epochs=2)
    # driver crash before the group's log record
    _lose_last_record(eng)
    eng.apply(wal)
    _assert_equal_state(eng, gen)
    assert eng.fsck()["ok"]


def test_compaction_preserves_state(applied):
    gen, _, eng, _ = applied
    eng.compact()
    snap = _assert_equal_state(eng, gen)
    # compaction folded every delta away
    assert not glob.glob(os.path.join(eng.cfg.path, "p=*", "delta-*.parquet"))
    assert snap.num_rows > 0


def test_schema_evolution(tmp_path):
    spec = WalSpec(seed=9, num_conversations=60, num_epochs=4, events_per_epoch=600, evolve_at_epoch=2)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    snap = _assert_equal_state(eng, gen)
    assert "model" in snap.schema.names
    assert str(snap.schema.field("turn_idx").type) == "int64"
    # pre-evolution rows read back with null model
    assert snap["model"].null_count > 0


def test_hot_key_skew_salted(tmp_path):
    spec = WalSpec(seed=13, num_conversations=50, num_epochs=2, events_per_epoch=3000, zipf_s=1.5)
    gen, wal, eng = _build(str(tmp_path), spec, salt_shards=4)
    eng.apply(wal)
    _assert_equal_state(eng, gen)


def test_epoch_by_epoch_matches_bulk(tmp_path):
    # applying epoch-at-a-time (micro-batch mode) == one bulk apply
    spec = WalSpec(seed=21, num_conversations=80, num_epochs=3, events_per_epoch=800)
    gen, wal, eng = _build(str(tmp_path), spec)
    for _ in range(spec.num_epochs):
        eng.apply(wal, max_epochs=1)
    _assert_equal_state(eng, gen)


def test_lag_and_follow(tmp_path):
    # lag reports unapplied epochs; follow drains the WAL as epochs land
    spec = WalSpec(seed=31, num_conversations=60, num_epochs=4, events_per_epoch=500)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    # only the first two epochs exist initially
    gen.write_epoch(wal, 0)
    gen.write_epoch(wal, 1)
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))

    lag0 = eng.lag(wal)
    assert lag0["epochs_behind"] == 2 and lag0["committed_head"] is None

    applied = []

    def on_apply(rep):
        applied.append(rep.epochs)
        # epochs 2/3 "arrive" while the tail loop is running
        if len(applied) == 1:
            gen.write_epoch(wal, 2)
            gen.write_epoch(wal, 3)

    reports = eng.follow(wal, poll_interval_s=0.05, max_idle_polls=2, on_apply=on_apply)
    assert [e for r in reports for e in r.epochs] == [0, 1, 2, 3]

    lag1 = eng.lag(wal)
    assert lag1["epochs_behind"] == 0 and lag1["committed_head"] == 3

    # end state equals the oracle over the full log
    snap = eng.snapshot_table()
    exp = oracle.replay(gen.events_table())
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))


def test_resume_with_new_epochs_after_partial_commit(tmp_path):
    # crash after every partition wrote its data files but before the
    # group's log record, with NEW epochs landing before the retry: the
    # regrouped apply reruns the uncommitted epochs with the new ones and
    # converges to the oracle state
    spec = WalSpec(seed=33, num_conversations=70, num_epochs=4, events_per_epoch=600)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write_epoch(wal, 0)
    gen.write_epoch(wal, 1)
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    eng.apply(wal)
    # simulate the crash: the data files exist, the record is gone
    _lose_last_record(eng)
    # new epochs arrive before the retry
    gen.write_epoch(wal, 2)
    gen.write_epoch(wal, 3)
    rep = eng.apply(wal)
    assert rep.epochs == [0, 1, 2, 3]
    # the first attempt's data files are orphans: never read, each
    # delivered event counted once
    exp = oracle.replay(gen.events_table())
    snap = eng.snapshot_table()
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))
    # lineage: total rows_in across the log equals total delivered events
    assert eng.metrics()["rows_in"] == gen.events_table().num_rows
    kinds = {r["kind"] for r in eng.fsck()["reclaimable"]}
    assert kinds <= {"orphan_delta", "orphan_rejects"} and eng.vacuum()["removed"] > 0
    assert not glob.glob(os.path.join(eng.cfg.path, "p=*", "*-000001.parquet"))


def test_type_widen_text_tool(tmp_path):
    # north-rule evolution case: a later epoch ships text/tool as
    # large_string (and lsn as int64 already) — Arrow unification widens,
    # merge state still equals the oracle
    import pyarrow.parquet as pq

    spec = WalSpec(seed=41, num_conversations=40, num_epochs=2, events_per_epoch=500)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    # rewrite epoch 1's segment with widened string types
    seg = sorted(glob.glob(os.path.join(wal, "epoch=000001", "*.parquet")))[0]
    t = pq.read_table(seg)
    widened = pa.schema(
        [
            pa.field(f.name, pa.large_string())
            if f.name in ("text", "tool", "role", "op", "conv_id")
            else f
            for f in t.schema
        ]
    )
    pq.write_table(t.cast(widened), seg)

    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    eng.apply(wal)
    snap = eng.snapshot_table()
    exp = oracle.replay(gen.events_table())
    # compare as-if-narrow: cast snapshot back for value equality
    snap = snap.cast(pa.schema([exp.schema.field(n) for n in snap.schema.names]))
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))


def _custom_epoch_rows(epoch, rows):
    """Build one WAL epoch table from (lsn, op, conv, turn, ts_us) tuples."""
    from nyc_taxi_data_pipeline_ray import schemas

    return pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "epoch": pa.array([epoch] * len(rows), pa.int32()),
            "conv_id": pa.array([r[2] for r in rows], pa.string()),
            "turn_idx": pa.array([r[3] for r in rows], pa.int32()),
            "role": pa.array(
                [None if r[1] == "delete" else "user" for r in rows], pa.string()
            ),
            "text": pa.array(
                [None if r[1] == "delete" else f"text-{r[0]}" for r in rows], pa.string()
            ),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([r[4] for r in rows], pa.timestamp("us")),
        },
        schema=schemas.EVENT_SCHEMA,
    )


def _write_custom_wal(wal, epochs_rows):
    import pyarrow.parquet as pq

    tables = []
    for epoch, rows in enumerate(epochs_rows):
        t = _custom_epoch_rows(epoch, rows)
        d = os.path.join(wal, f"epoch={epoch:06d}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t, os.path.join(d, "part-0000.parquet"))
        tables.append(t)
    return pa.concat_tables(tables)


def test_epoch_ids_past_six_digits_apply_in_numeric_order(tmp_path):
    """Writers pad epoch ids to 6 digits, so epoch 1 000 000 has a
    7-digit dir and marker: it is discovered, ordered after 999 999 (as
    a string it sorts before), committed, and not re-discovered."""
    import pyarrow.parquet as pq

    T = 1_735_689_600_000_000
    wal = str(tmp_path / "wal")
    for epoch, rows in [
        (999_999, [(1, "insert", "c1", 0, T)]),
        (1_000_000, [(2, "update", "c1", 0, T + 1)]),
    ]:
        d = os.path.join(wal, f"epoch={epoch:06d}")
        os.makedirs(d)
        pq.write_table(_custom_epoch_rows(epoch, rows), os.path.join(d, "part-0000.parquet"))
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    assert [e for e, _ in eng.discover(wal)] == [999_999, 1_000_000]
    assert eng.apply(wal).epochs == [999_999, 1_000_000]
    assert eng.last_committed_group() == 1_000_000
    assert eng.discover(wal) == []
    assert eng.snapshot_table()["text"].to_pylist() == ["text-2"]


def test_tombstone_survives_midstream_compaction(tmp_path):
    # ADVICE (high): a delete compacted mid-stream must keep masking a
    # later-epoch out-of-order event carrying an OLDER (ts, lsn) for the
    # same key — the tombstone may not be dropped by auto-compaction.
    T = 1_735_689_600_000_000
    events = _write_custom_wal(
        str(tmp_path / "wal"),
        [
            [(1, "insert", "c1", 0, T), (2, "insert", "c2", 0, T)],
            [(100, "delete", "c1", 0, T + 5_000_000)],
            # ooo update: newer lsn but ts BEFORE the delete -> must lose
            [(200, "update", "c1", 0, T + 1_000_000)],
        ],
    )
    eng = CdcEngine(
        LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=2, max_delta_runs=1)
    )
    wal = str(tmp_path / "wal")
    eng.apply(wal, max_epochs=1)
    eng.apply(wal, max_epochs=1)  # commit of epoch 1 auto-compacts (2 runs > 1)
    eng.apply(wal)
    snap = eng.snapshot_table()
    exp = oracle.replay(events)
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))
    assert "c1" not in snap["conv_id"].to_pylist()  # delete still masks


def test_full_compaction_drops_tombstones(tmp_path):
    T = 1_735_689_600_000_000
    events = _write_custom_wal(
        str(tmp_path / "wal"),
        [
            [(1, "insert", "c1", 0, T), (2, "insert", "c2", 0, T)],
            [(100, "delete", "c1", 0, T + 5_000_000)],
        ],
    )
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=2))
    eng.apply(str(tmp_path / "wal"))
    eng.compact(drop_tombstones=True)  # operator asserts the WAL is complete
    snap = eng.snapshot_table()
    exp = oracle.replay(events)
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))
    # tombstone physically gone from every base run
    for f in glob.glob(os.path.join(eng.cfg.path, "p=*", "base-*.parquet")):
        t = pa.parquet.read_table(f)
        if "op" in t.schema.names:
            assert "delete" not in set(pc.unique(pc.drop_null(t["op"])).to_pylist())


def test_init_rejects_routing_mismatch(tmp_path):
    lake = str(tmp_path / "lake")
    CdcEngine(LakeConfig.open_or_create(lake, num_partitions=4))
    with pytest.raises(ValueError, match="num_partitions"):
        CdcEngine(LakeConfig(lake, num_partitions=8))
    # persisted routing survived the failed open
    assert LakeConfig.load(lake).num_partitions == 4


def test_writer_lease_blocks_concurrent_apply(tmp_path):
    import json

    from nyc_taxi_data_pipeline_ray.engine import LakeLockedError

    spec = WalSpec(seed=61, num_conversations=20, num_epochs=1, events_per_epoch=100)
    gen, wal, eng = _build(str(tmp_path), spec)
    lock = os.path.join(eng.cfg.path, "_lock.json")
    with open(lock, "w") as f:
        json.dump({"pid": os.getpid(), "ts": __import__("time").time()}, f)
    with pytest.raises(LakeLockedError):
        eng.apply(wal)
    # writer queueing: with lease_wait_s the apply WAITS for the live
    # holder instead of failing; release the lock from a timer thread
    import threading
    import time as _time

    threading.Timer(0.5, lambda: os.remove(lock)).start()
    rep = eng.apply(wal, lease_wait_s=10.0)
    assert rep.epochs == [0]
    _assert_equal_state(eng, gen)
    # a dead writer's lock is stolen and the apply proceeds (fresh lake)
    import shutil as _sh

    _sh.rmtree(eng.cfg.path)
    eng2 = CdcEngine(LakeConfig.open_or_create(eng.cfg.path, num_partitions=4))
    lock2 = os.path.join(eng2.cfg.path, "_lock.json")
    with open(lock2, "w") as f:
        json.dump({"pid": 2**22 + 12345, "ts": _time.time()}, f)
    rep = eng2.apply(wal)
    assert rep.epochs == [0]
    assert not os.path.exists(lock2)
    _assert_equal_state(eng2, gen)


def test_salted_resume_rows_in_reconciles(tmp_path):
    # ADVICE (low): with salt_shards > 1 the A2 pre-merge must not sum
    # lineage across epoch boundaries, or a resume-with-new-epochs retry
    # over/under-counts rows_in vs delivered events.
    spec = WalSpec(seed=37, num_conversations=30, num_epochs=4, events_per_epoch=600, zipf_s=1.2)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write_epoch(wal, 0)
    gen.write_epoch(wal, 1)
    eng = CdcEngine(
        LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4, salt_shards=4)
    )
    eng.apply(wal)
    _lose_last_record(eng)
    gen.write_epoch(wal, 2)
    gen.write_epoch(wal, 3)
    eng.apply(wal)
    _assert_equal_state(eng, gen)
    assert eng.metrics()["rows_in"] == gen.events_table().num_rows


def test_get_conversation_point_lookup(tmp_path):
    spec = WalSpec(seed=51, num_conversations=60, num_epochs=2, events_per_epoch=800)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    exp = oracle.replay(gen.events_table())
    # pick a conversation that survived replay
    conv = exp["conv_id"][0].as_py()
    got = eng.get_conversation(conv)
    want = exp.filter(pc.equal(exp["conv_id"], conv))
    want = want.take(pc.sort_indices(want, sort_keys=[("turn_idx", "ascending")]))
    cols = sorted(want.schema.names)
    assert got.select(cols).equals(want.select(cols))
    # unknown conversation -> empty, correct schema
    assert eng.get_conversation("no_such_conv").num_rows == 0


def test_key_history_lineage(tmp_path):
    """key_history returns every physically-live event for a key with
    correct winner flags: winners reproduce the snapshot's rows, and
    an updated turn shows its superseded versions as non-winners."""
    spec = WalSpec(
        seed=29, num_conversations=40, num_epochs=3, events_per_epoch=800,
        p_update=0.5, ooo_fraction=0.1,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    # one commit group per epoch: the staged merge collapses history
    # WITHIN a group, so lineage rows survive only across groups
    for _ in range(spec.num_epochs):
        eng.apply(wal, max_epochs=1)
    snap = eng.snapshot_table()
    # pick a key that received events in MORE THAN ONE epoch
    ev = gen.events_table().to_pandas()
    eps = ev.groupby(["conv_id", "turn_idx"])["epoch"].nunique()
    conv = eps[eps > 1].index[0][0]
    hist = eng.key_history(conv)
    assert hist.num_rows > 0 and "is_winner" in hist.schema.names
    win = hist.filter(pc.and_(hist["is_winner"], pc.not_equal(hist["op"], "delete")))
    want = snap.filter(pc.equal(snap["conv_id"], conv))
    cols = sorted(set(want.schema.names) & set(win.schema.names) - {"is_winner"})
    win_s = win.select(cols).take(
        pc.sort_indices(win.select(cols), sort_keys=[("turn_idx", "ascending")])
    )
    want_s = want.select(cols).take(
        pc.sort_indices(want.select(cols), sort_keys=[("turn_idx", "ascending")])
    )
    assert win_s.equals(want_s)
    # at least one turn of this conv carries superseded history
    n_events = hist.num_rows
    n_turns = len(set(hist["turn_idx"].to_pylist()))
    assert n_events > n_turns  # updates present -> losers retained
    # unknown key -> empty with flag column
    assert eng.key_history("no-such-conv").num_rows == 0


def test_export_snapshot_exactly_once(tmp_path):
    """Exported snapshot == lake state; re-export of an unchanged lake
    is a skip; a new commit re-exports; a crashed export (no marker)
    simply rewrites."""
    import glob as _glob
    import json as _json

    import pyarrow.parquet as pq

    spec = WalSpec(seed=19, num_conversations=60, num_epochs=2, events_per_epoch=700)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal, max_epochs=1)
    out = os.path.join(str(tmp_path), "export")
    r1 = eng.export_snapshot(out)
    assert not r1["skipped"]
    files = sorted(_glob.glob(os.path.join(out, "part-p*.parquet")))
    assert len(files) == len(eng.live_pids())  # one file per partition
    got = pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")
    snap = eng.snapshot_table()
    cols = sorted(c for c in snap.schema.names if not c.startswith("_"))
    got = got.select(cols).take(
        pc.sort_indices(
            got.select(cols),
            sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")],
        )
    )
    assert got.equals(snap.select(cols))

    assert eng.export_snapshot(out)["skipped"]  # unchanged lake: no-op
    eng.apply(wal)
    r3 = eng.export_snapshot(out)
    assert not r3["skipped"] and r3["checksum"] != r1["checksum"]
    # crash: marker gone -> rewrite, same committed content
    os.remove(os.path.join(out, "_SUCCESS"))
    r4 = eng.export_snapshot(out)
    assert not r4["skipped"] and r4["checksum"] == r3["checksum"]
    marker = _json.load(open(os.path.join(out, "_SUCCESS")))
    assert marker["checksum"] == r4["checksum"]

    # exporting a fewer-partition lake into the SAME dir removes stale
    # part files (no pollution for glob-reading consumers).  Identical
    # content skips regardless of layout (checksum is layout-invariant)
    eng2 = eng.reshard(os.path.join(str(tmp_path), "lake2"), 2)
    assert eng2.export_snapshot(out)["skipped"]
    os.remove(os.path.join(out, "_SUCCESS"))  # force the rewrite
    r5 = eng2.export_snapshot(out)
    assert not r5["skipped"] and r5["checksum"] == r4["checksum"]
    files2 = sorted(_glob.glob(os.path.join(out, "part-p*.parquet")))
    assert len(files2) == len(eng2.live_pids()) <= 2
    got2 = pa.concat_tables(
        [pq.read_table(f) for f in files2], promote_options="default"
    )
    assert got2.num_rows == eng.snapshot_table().num_rows


def test_wal_gc(tmp_path):
    """GC deletes only fully-committed epoch dirs below the first gap,
    and replay semantics are unchanged (re-apply is a no-op; a new
    epoch after GC still applies)."""
    spec = WalSpec(seed=41, num_conversations=50, num_epochs=3, events_per_epoch=500)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal, max_epochs=2)
    rep = eng.wal_gc(wal)
    assert rep["removed"] == 2 and rep["kept"] == 1
    assert len(eng.discover(wal)) == 1  # uncommitted epoch survived
    before = eng.checksum()
    assert eng.apply(wal).epochs == [2]
    _assert_equal_state(eng, gen)
    assert eng.wal_gc(wal) == {"removed": 1, "kept": 0}
    assert eng.discover(wal) == []
    assert eng.apply(wal).epochs == []  # nothing left, still a no-op
    assert eng.checksum() != before  # epoch 2 did land


def test_reshard_convergence(tmp_path):
    """Scale-out repartitioning: the resharded lake holds the same
    state (checksum + snapshot equality), keeps serving pruned lookups,
    skips already-applied epochs, and CONVERGES with the source when
    the remaining WAL epochs are applied to both under the new
    partitioning — including late out-of-order events that must stay
    masked by moved tombstones."""
    spec = WalSpec(
        seed=67,
        num_conversations=120,
        num_epochs=3,
        events_per_epoch=1200,
        p_update=0.3,
        p_delete=0.1,
        ooo_fraction=0.15,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal, max_epochs=2)

    tgt = os.path.join(str(tmp_path), "lake7")
    eng2 = eng.reshard(tgt, 7)
    assert eng2.cfg.num_partitions == 7

    assert eng2.checksum() == eng.checksum()
    cols = sorted(f.name for f in __import__(
        "nyc_taxi_data_pipeline_ray.schemas", fromlist=["TRANSCRIPT_SCHEMA"]
    ).TRANSCRIPT_SCHEMA)
    snap_a = eng.snapshot_table().select(cols)
    snap_b = eng2.snapshot_table().select(cols)
    assert snap_a.equals(snap_b)

    # already-applied epochs are skipped on the target
    assert eng2.discover(wal) == eng.discover(wal)
    assert len(eng2.discover(wal)) == 1

    # pruned point lookup on the resharded layout
    conv = snap_b["conv_id"][0].as_py()
    got = eng2.get_conversation(conv)
    want = snap_b.filter(pc.equal(snap_b["conv_id"], conv))
    want = want.take(pc.sort_indices(want, sort_keys=[("turn_idx", "ascending")]))
    assert got.select(cols).equals(want.select(cols))

    # converge: remaining epoch (with ooo events) applied to both
    eng.apply(wal)
    eng2.apply(wal)
    assert eng2.checksum() == eng.checksum()
    _assert_equal_state(eng2, gen)

    # target path collision is refused
    with pytest.raises(ValueError):
        eng.reshard(tgt, 3)


def test_bloom_sidecar_skips_absent_keys(tmp_path):
    """Compaction writes a per-base key bloom; a lookup for a key the
    partition never held skips the base read entirely (no false
    negatives: present keys always pass)."""
    from nyc_taxi_data_pipeline_ray.engine import (
        _bloom_filter_keys,
        _bloom_path,
        _partition_run_paths,
        hash_partition_ids,
    )

    spec = WalSpec(seed=91, num_conversations=80, num_epochs=2, events_per_epoch=900)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    eng.compact()

    snap = eng.snapshot_table()
    present = sorted(set(snap["conv_id"].to_pylist()))
    # a key lexicographically inside the base's [min, max] range that
    # was never written: min/max pruning can't reject it, bloom must
    ghost = present[0] + "-ghost"
    assert present[0] < ghost < present[-1]

    for pid in eng.live_pids():
        paths = _partition_run_paths(eng.cfg.path, pid)
        base = paths[0]
        assert os.path.exists(_bloom_path(base)), "compaction must write the sidecar"
        assert _bloom_filter_keys(base, [ghost]) == []
        in_pid = [
            c
            for c in present
            if int(hash_partition_ids(pa.array([c]), eng.cfg.num_partitions)[0]) == pid
        ]
        if in_pid:
            kept = _bloom_filter_keys(base, [in_pid[0], ghost])
            assert in_pid[0] in kept and ghost not in kept

    # end-to-end: ghost lookup is empty, real lookups unaffected
    assert eng.get_conversation(ghost).num_rows == 0
    conv = present[0]
    got = eng.get_conversation(conv)
    want = snap.filter(pc.equal(snap["conv_id"], conv))
    want = want.take(pc.sort_indices(want, sort_keys=[("turn_idx", "ascending")]))
    cols = sorted(want.schema.names)
    assert got.select(cols).equals(want.select(cols))


def test_row_group_pruned_lookup(tmp_path):
    """Compacted bases are key-sorted with bounded row groups; a point
    lookup reads only the groups whose footer [min,max] conv_id range
    can hold the requested keys — and stays exactly equal to the
    filtered snapshot."""
    from nyc_taxi_data_pipeline_ray.engine import (
        _partition_run_paths,
        _read_keys_pruned,
        read_run_pruned,
        hash_partition_ids,
    )

    spec = WalSpec(seed=77, num_conversations=300, num_epochs=2, events_per_epoch=3000)
    gen = WalGenerator(spec)
    wal = os.path.join(str(tmp_path), "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(
            os.path.join(str(tmp_path), "lake"),
            num_partitions=2,
            base_row_group_rows=64,
        )
    )
    eng.apply(wal)
    eng.compact()

    snap = eng.snapshot_table()
    conv = snap["conv_id"][0].as_py()
    pid = int(hash_partition_ids(pa.array([conv]), eng.cfg.num_partitions)[0])

    # the base really has multiple bounded row groups ...
    base = _partition_run_paths(eng.cfg.path, pid)[0]
    t, read, total = read_run_pruned(base, [conv])
    assert total >= 4, f"base has only {total} row groups"
    # ... and the lookup touched a strict subset of them
    assert 0 < read < total, (read, total)

    # pruned merged state == filtered snapshot, for single and bulk
    got = eng.get_conversation(conv)
    want = snap.filter(pc.equal(snap["conv_id"], conv))
    want = want.take(pc.sort_indices(want, sort_keys=[("turn_idx", "ascending")]))
    cols = sorted(want.schema.names)
    assert got.select(cols).equals(want.select(cols))

    ids = sorted(set(snap["conv_id"].to_pylist()))[:9]
    merged, _, _ = _read_keys_pruned(
        eng.cfg.path, pid, [c for c in ids] + ["missing-key"]
    )
    in_pid = [
        c
        for c in ids
        if int(hash_partition_ids(pa.array([c]), eng.cfg.num_partitions)[0]) == pid
    ]
    exp = snap.filter(pc.is_in(snap["conv_id"], value_set=pa.array(in_pid)))
    merged = merged.take(
        pc.sort_indices(
            merged, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
    )
    assert merged.select(cols).equals(exp.select(cols))


def test_time_travel_snapshot_matches_prefix_oracle(tmp_path):
    gen, wal, eng = _build(str(tmp_path), SPEC)
    for _ in range(SPEC.num_epochs):
        eng.apply(wal, max_epochs=1)
    events = gen.events_table()
    for k in range(SPEC.num_epochs):
        snap = eng.snapshot_table(as_of_epoch=k)
        exp = oracle.replay(events.filter(pc.less_equal(events["epoch"], k)))
        cols = sorted(exp.schema.names)
        assert snap.select(cols).equals(exp.select(cols)), f"as_of_epoch={k}"
    # latest as-of == current state
    assert eng.snapshot_table(as_of_epoch=SPEC.num_epochs - 1).equals(eng.snapshot_table())


def test_time_travel_rejects_mid_group_and_compacted_history(tmp_path):
    gen, wal, eng = _build(str(tmp_path), SPEC)
    eng.apply(wal)  # all 3 epochs commit as ONE group (group_id = 2)
    with pytest.raises(Exception, match="inside commit group"):
        eng.snapshot_table(as_of_epoch=1)
    # boundary epoch is fine
    snap = eng.snapshot_table(as_of_epoch=2)
    assert snap.num_rows > 0
    # compaction folds the history away -> earlier as-of raises
    eng.compact()
    with pytest.raises(Exception, match="compact"):
        eng.snapshot_table(as_of_epoch=1)


def test_change_feed_reconstructs_state(tmp_path):
    from nyc_taxi_data_pipeline_ray.state import merge as mg

    gen, wal, eng = _build(str(tmp_path), SPEC)
    for _ in range(SPEC.num_epochs):
        eng.apply(wal, max_epochs=1)
    feed = mg.concat_unified(
        [
            b
            for b in eng.changes().iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows
        ]
    )
    groups = sorted(set(feed["change_group"].to_pylist()))
    assert groups == [0, 1, 2]
    # replaying the full feed (oldest group first) rebuilds the lake state
    runs = [
        feed.filter(pc.equal(feed["change_group"], g)).drop_columns(["change_group"])
        for g in groups
    ]
    rebuilt = mg.merge_runs(runs, drop_tombstones=True)
    rebuilt = rebuilt.drop_columns(
        [c for c in ("op", "epoch") if c in rebuilt.schema.names]
    )
    rebuilt = mg.sort_by_key(rebuilt)
    snap = eng.snapshot_table()
    cols = sorted(snap.schema.names)
    assert rebuilt.select(cols).equals(snap.select(cols))
    # incremental window: only groups after the consumer's watermark
    tail = mg.concat_unified(
        [
            b
            for b in eng.changes(after_epoch=0).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    )
    assert sorted(set(tail["change_group"].to_pylist())) == [1, 2]


def test_change_feed_compaction_guard(tmp_path):
    gen, wal, eng = _build(str(tmp_path), SPEC)
    eng.apply(wal)
    eng.compact()
    with pytest.raises(Exception, match="folded into the base"):
        eng.changes(after_epoch=-1).materialize()
    # at-or-above the watermark: empty feed, no error
    assert eng.changes(after_epoch=SPEC.num_epochs - 1).count() == 0


def test_time_travel_across_schema_evolution(tmp_path):
    spec = WalSpec(seed=9, num_conversations=60, num_epochs=4, events_per_epoch=600, evolve_at_epoch=2)
    gen, wal, eng = _build(str(tmp_path), spec)
    for _ in range(spec.num_epochs):
        eng.apply(wal, max_epochs=1)
    events = gen.events_table()
    # pre-evolution snapshot: no v2 'model' column in any committed delta
    pre = eng.snapshot_table(as_of_epoch=1)
    assert "model" not in pre.schema.names
    exp = oracle.replay(events.filter(pc.less_equal(events["epoch"], 1)))
    cols = sorted(set(pre.schema.names) & set(exp.schema.names))
    # pre-evolution state legitimately keeps the narrow v1 turn_idx:int32;
    # the oracle ran over the unified (widened) events table — compare values
    target = pa.schema([exp.schema.field(c) for c in cols])
    assert pre.select(cols).cast(target).equals(exp.select(cols))
    # post-evolution snapshot carries the evolved column and full equality
    post = eng.snapshot_table(as_of_epoch=3)
    assert "model" in post.schema.names
    exp2 = oracle.replay(events)
    cols2 = sorted(exp2.schema.names)
    assert post.select(cols2).equals(exp2.select(cols2))


def test_describe_reports_physical_stats(tmp_path):
    gen, wal, eng = _build(str(tmp_path), SPEC)
    for _ in range(SPEC.num_epochs):
        eng.apply(wal, max_epochs=1)
    d = eng.describe()
    assert d["partitions"] == 4
    assert d["max_delta_runs"] >= 1
    assert d["total_bytes"] > 0
    # footer row counts cover every live row (upserts incl. superseded
    # versions across runs >= final distinct keys)
    assert d["total_rows"] >= eng.snapshot_table().num_rows
    eng.compact()
    d2 = eng.describe()
    assert d2["max_delta_runs"] == 0
    assert all(p["base_generation"] is not None for p in d2["per_partition"])


def test_incremental_feed_on_time_travel_base(tmp_path):
    # the consumer-sync invariant: snapshot(as_of=k) + changes(after=k)
    # replayed through the LWW merge == the current lake state
    from nyc_taxi_data_pipeline_ray.state import merge as mg

    gen, wal, eng = _build(str(tmp_path), SPEC)
    for _ in range(SPEC.num_epochs):
        eng.apply(wal, max_epochs=1)
    base = eng.snapshot_table(as_of_epoch=0)
    base = base.append_column("op", pa.array(["insert"] * base.num_rows))
    feed = mg.concat_unified(
        [
            b
            for b in eng.changes(after_epoch=0).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if b.num_rows
        ]
    )
    groups = sorted(set(feed["change_group"].to_pylist()))
    runs = [base] + [
        feed.filter(pc.equal(feed["change_group"], g)).drop_columns(["change_group"])
        for g in groups
    ]
    rebuilt = mg.merge_runs(runs, drop_tombstones=True)
    rebuilt = mg.sort_by_key(
        rebuilt.drop_columns([c for c in ("op", "epoch") if c in rebuilt.schema.names])
    )
    snap = eng.snapshot_table()
    cols = sorted(snap.schema.names)
    assert rebuilt.select(cols).equals(snap.select(cols))


def test_backfill_through_cdc_path(tmp_path):
    """backfill() = bulk correction as a derived update epoch: state size
    unchanged, corrected values present, pre-backfill state still
    time-travelable, re-apply a no-op."""
    import pandas as pd

    gen, wal, eng = _build(str(tmp_path), WalSpec(seed=11, num_conversations=80,
                                                  num_epochs=2, events_per_epoch=800))
    eng.apply(wal)
    snap0 = eng.snapshot_table()
    n_assist0 = snap0.filter(pc.equal(snap0["role"], "assistant")).num_rows
    assert n_assist0 > 0

    def fix(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.equal(t["role"], "assistant"))
        return sel.set_column(
            sel.schema.get_field_index("role"),
            "role",
            pa.array(["system"] * sel.num_rows),
        )

    ts = pd.Timestamp(pc.max(snap0["ts"]).as_py()) + pd.Timedelta(seconds=1)
    epoch, rep = eng.backfill(wal, fix, ts=ts)
    assert epoch is not None and rep.rejects == 0
    snap1 = eng.snapshot_table()
    assert snap1.num_rows == snap0.num_rows
    assert snap1.filter(pc.equal(snap1["role"], "assistant")).num_rows == 0
    assert (
        snap1.filter(pc.equal(snap1["role"], "system")).num_rows
        >= n_assist0
    )
    # time travel: the pre-backfill state is still reachable
    pre = eng.snapshot_table(as_of_epoch=epoch - 1)
    assert pre.filter(pc.equal(pre["role"], "assistant")).num_rows == n_assist0
    # exactly-once: the derived epoch doesn't re-apply
    assert eng.apply(wal).epochs == []


def test_purge_retention_ttl(tmp_path):
    """purge() tombstones exactly the keys whose winner predates the
    cutoff; compaction preserves the post-purge state; an all-younger
    cutoff emits no epoch."""
    import pandas as pd

    gen, wal, eng = _build(str(tmp_path), WalSpec(seed=12, num_conversations=80,
                                                  num_epochs=2, events_per_epoch=800))
    eng.apply(wal)
    snap0 = eng.snapshot_table()
    med = pd.Series(snap0["ts"].to_pandas()).median()
    epoch, rep = eng.purge(wal, older_than=med)
    assert epoch is not None and rep.rejects == 0 and rep.deletes > 0
    snap1 = eng.snapshot_table()
    exp = snap0.filter(pc.greater_equal(snap0["ts"], pa.scalar(med.to_datetime64())))
    assert snap1.num_rows == exp.num_rows
    assert snap1.select(["conv_id", "turn_idx"]).equals(
        exp.select(["conv_id", "turn_idx"])
    )
    # physical reclaim keeps the logical state
    eng.compact()
    snap2 = eng.snapshot_table()
    assert snap2.equals(snap1)
    # nothing older than epoch-0 time: no epoch emitted
    ep_none, _ = eng.purge(wal, older_than=pd.Timestamp("1990-01-01"))
    assert ep_none is None


def test_checksum_partition_invariant(tmp_path):
    """The anti-entropy checksum is a content digest: identical WALs
    replayed into lakes with DIFFERENT partition counts (different file
    layout, merge order, task split) produce the SAME digest; a single
    extra update changes it."""
    import os

    spec = WalSpec(seed=21, num_conversations=60, num_epochs=2, events_per_epoch=600)
    sums = []
    for np_ in (2, 8):
        tmp = os.path.join(str(tmp_path), f"p{np_}")
        gen = WalGenerator(spec)
        wal = os.path.join(tmp, "wal")
        gen.write(wal)
        eng = CdcEngine(
            LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=np_)
        )
        eng.apply(wal)
        sums.append(eng.checksum())
    assert sums[0] == sums[1]
    assert sums[0]["rows"] > 0

    # one backfilled row flips the digest
    import pandas as pd

    tmp = os.path.join(str(tmp_path), "p8")
    eng = CdcEngine(LakeConfig.load(os.path.join(tmp, "lake")))

    def touch_one(t: pa.Table) -> pa.Table:
        one = t.slice(0, min(1, t.num_rows))
        if one.num_rows == 0:
            return one
        return one.set_column(
            one.schema.get_field_index("text"), "text", pa.array(["EDITED"])
        )

    eng.backfill(
        os.path.join(tmp, "wal"), touch_one, ts=pd.Timestamp("2030-01-01")
    )
    assert eng.checksum() != sums[0]


def test_incremental_replication_converges(tmp_path):
    """Replication loop: export lake A's change feed per watermark
    window into lake B's WAL (different partition count) and apply;
    after each window the anti-entropy checksums match — rows move once,
    verification moves 8 bytes."""
    import os

    spec = WalSpec(seed=31, num_conversations=60, num_epochs=3, events_per_epoch=500)
    gen, wal_a, eng_a = _build(str(tmp_path), spec)
    wal_b = os.path.join(str(tmp_path), "wal_b")
    eng_b = CdcEngine(
        LakeConfig.open_or_create(os.path.join(str(tmp_path), "lake_b"), num_partitions=8)
    )

    # window 1: first commit group only
    eng_a.apply(wal_a, max_epochs=1)
    assert eng_a.export_changes_as_wal(wal_b, after_epoch=-1, through_epoch=0) is not None
    eng_b.apply(wal_b)
    assert eng_a.checksum() == eng_b.checksum()

    # window 2: the rest
    eng_a.apply(wal_a)
    assert eng_a.export_changes_as_wal(wal_b, after_epoch=0) is not None
    eng_b.apply(wal_b)
    assert eng_a.checksum() == eng_b.checksum()
    # and B's state equals the full oracle
    exp = oracle.replay(gen.events_table())
    cols = sorted(exp.schema.names)
    assert eng_b.snapshot_table().select(cols).equals(exp.select(cols))


def test_antientropy_diff_between_replicas(tmp_path):
    """Merkle-style anti-entropy: per-partition digests agree on
    converged replicas; after the target misses an epoch, the diff
    names exactly the diverged keys — computed only over mismatched
    partitions — and replication repairs it back to digest equality."""
    from nyc_taxi_data_pipeline_ray.engine import diff_states  # noqa: F401

    spec = WalSpec(
        seed=83, num_conversations=60, num_epochs=2, events_per_epoch=900,
        p_update=0.4, p_delete=0.1,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    for _ in range(spec.num_epochs):  # one commit group per epoch
        eng.apply(wal, max_epochs=1)

    # replica: full convergence via replication
    twal = os.path.join(str(tmp_path), "twal")
    tlake = os.path.join(str(tmp_path), "tlake")
    eng.export_changes_as_wal(twal, after_epoch=-1)
    eng2 = CdcEngine(LakeConfig.open_or_create(tlake, num_partitions=4))
    eng2.apply(twal)
    assert eng.checksum_partitions() == eng2.checksum_partitions()
    assert eng.antientropy_diff(eng2).num_rows == 0

    # diverge: a stale replica holding only epoch 0
    s_wal = os.path.join(str(tmp_path), "swal")
    s_lake = os.path.join(str(tmp_path), "slake")
    eng.export_changes_as_wal(s_wal, after_epoch=-1, through_epoch=0)
    eng3 = CdcEngine(LakeConfig.open_or_create(s_lake, num_partitions=4))
    eng3.apply(s_wal)
    d = eng.antientropy_diff(eng3)
    assert d.num_rows > 0
    # the diverged keys are exactly the keys whose winner changed
    # between epoch 0 and now on the source
    exp = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.diff(from_epoch=0).iter_batches(batch_format="pyarrow")
        ],
        promote_options="default",
    )
    got_keys = set(zip(d["conv_id"].to_pylist(), d["turn_idx"].to_pylist()))
    exp_keys = set(zip(exp["conv_id"].to_pylist(), exp["turn_idx"].to_pylist()))
    assert got_keys == exp_keys

    # repair: ship the missing window into the replica's feed (epoch
    # numbers accumulate per feed dir), digests re-converge
    eng.export_changes_as_wal(s_wal, after_epoch=0)
    eng3.apply(s_wal)
    assert eng.antientropy_diff(eng3).num_rows == 0

    # layout mismatch is refused
    eng7 = eng.reshard(os.path.join(str(tmp_path), "lake7"), 7)
    with pytest.raises(ValueError):
        eng.antientropy_diff(eng7)


def test_reshard_with_evolved_schema(tmp_path):
    """Reshard a lake whose WAL evolved mid-stream (added `model`
    column, widened turn_idx): the moved bases carry the evolved
    schema and the remaining epochs still converge on the new
    layout."""
    spec = WalSpec(
        seed=97,
        num_conversations=60,
        num_epochs=3,
        events_per_epoch=700,
        evolve_at_epoch=1,
        p_update=0.3,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal, max_epochs=2)  # evolution included
    eng2 = eng.reshard(os.path.join(str(tmp_path), "lake5"), 5)
    assert eng2.checksum() == eng.checksum()
    snap2 = eng2.snapshot_table()
    assert "model" in snap2.schema.names
    eng.apply(wal)
    eng2.apply(wal)
    assert eng2.checksum() == eng.checksum()
    _assert_equal_state(eng2, gen)


def test_checksum_encoding_injective_across_columns():
    """The canonical checksum row encoding is length-prefixed, so values
    that straddle column boundaries cannot collide: ('a|b','c') and
    ('a','b|c') must produce different digests (ADVICE: un-escaped
    '|'-joins let divergent replicas checksum equal)."""
    from nyc_taxi_data_pipeline_ray.engine import _canon_rows, _fold_md5_xor

    a = pa.table({"x": ["a|b"], "y": ["c"]})
    b = pa.table({"x": ["a"], "y": ["b|c"]})
    ea, eb = _canon_rows(a, ["x", "y"]), _canon_rows(b, ["x", "y"])
    assert ea.to_pylist() != eb.to_pylist()
    assert _fold_md5_xor(ea) != _fold_md5_xor(eb)
    # and the ':' in the prefix itself can't be confused with data
    c = pa.table({"x": ["1:"], "y": [""]})
    d = pa.table({"x": ["1"], "y": [":"]})
    assert _canon_rows(c, ["x", "y"]).to_pylist() != _canon_rows(d, ["x", "y"]).to_pylist()


def test_replication_epoch_numbered_past_target_after_feed_gc(tmp_path):
    """Epoch-number reuse regression (ADVICE engine.py:1154): export
    window 1, target applies + wal-gc's its feed, then export window 2.
    With the epoch derived from the SOURCE's ledger both windows get the
    same number and the target silently skips window 2; deriving it from
    the TARGET's committed ledger keeps replication converging."""
    spec = WalSpec(seed=53, num_conversations=40, num_epochs=2, events_per_epoch=400)
    gen, wal, eng_a = _build(str(tmp_path), spec)
    # source fully applied BEFORE either export, one commit group per
    # epoch so the change feed can be windowed at epoch granularity
    eng_a.apply(wal, max_epochs=1)
    eng_a.apply(wal)
    feed = os.path.join(str(tmp_path), "feed")
    eng_b = CdcEngine(
        LakeConfig.open_or_create(os.path.join(str(tmp_path), "lakeb"), num_partitions=4)
    )
    e1 = eng_a.export_changes_as_wal(feed, through_epoch=0, target=eng_b)
    assert e1 is not None
    assert eng_b.apply(feed).epochs == [e1]
    eng_b.wal_gc(feed)  # supported flow: the applied feed epoch is reclaimed

    e2 = eng_a.export_changes_as_wal(feed, after_epoch=0, target=eng_b)
    assert e2 is not None and e2 > e1  # new TO THE TARGET despite the empty feed dir
    assert eng_b.apply(feed).epochs == [e2]
    assert eng_a.checksum() == eng_b.checksum()
    # explicit caller-supplied epoch (replication watermark) also works
    e3 = eng_a.export_changes_as_wal(feed, after_epoch=-1, epoch=e2 + 7)
    assert e3 == e2 + 7


def test_reshard_crash_is_detectable_and_retryable(tmp_path, monkeypatch):
    """Completion-marker ordering (ADVICE engine.py:1462): a reshard that
    crashes mid-way must NOT leave a target that looks like a healthy
    lake, and the retry must succeed instead of failing on 'already
    exists'."""
    import nyc_taxi_data_pipeline_ray.engine as E

    spec = WalSpec(seed=59, num_conversations=40, num_epochs=2, events_per_epoch=400)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    tgt = os.path.join(str(tmp_path), "tgt")

    def boom(*a, **k):
        raise RuntimeError("simulated crash during the bootstrap log record")

    monkeypatch.setattr(E.mf, "append_record", boom)
    with pytest.raises(RuntimeError):
        eng.reshard(tgt, 2)
    # half-built target: data may exist but the completion marker must not
    assert os.path.isdir(tgt)
    assert not os.path.exists(os.path.join(tgt, "_lake.json"))
    monkeypatch.undo()

    eng2 = eng.reshard(tgt, 2)  # retry sweeps the crashed attempt and rebuilds
    assert os.path.exists(os.path.join(tgt, "_lake.json"))
    assert eng2.checksum() == eng.checksum()
    _assert_equal_state(eng2, gen)


def test_export_snapshot_invalidates_marker_before_rewrite(tmp_path, monkeypatch):
    """Exactly-once export (ADVICE engine.py:1292): once a rewrite
    starts, the OLD _SUCCESS marker must already be gone — a crash
    mid-rewrite may never leave a valid marker over torn part files.
    Also: the export takes the single-writer lease, so no apply can
    interleave between the checksum pass and the partition reads."""
    from nyc_taxi_data_pipeline_ray.engine import LakeLockedError, _LakeLease

    spec = WalSpec(seed=61, num_conversations=40, num_epochs=2, events_per_epoch=400)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal, max_epochs=1)
    out = os.path.join(str(tmp_path), "export")
    assert not eng.export_snapshot(out)["skipped"]
    assert os.path.exists(os.path.join(out, "_SUCCESS"))

    eng.apply(wal)  # change the lake so the next export rewrites

    real_live = eng.live_pids
    calls = {"n": 0}

    def boom(*a, **k):
        # call 1 is checksum()'s snapshot; call 2 is the export's own
        # partition listing — AFTER the marker invalidation, BEFORE any
        # part file is (re)written
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("simulated crash before part writes")
        return real_live()

    monkeypatch.setattr(eng, "live_pids", boom)
    with pytest.raises(RuntimeError):
        eng.export_snapshot(out)
    assert not os.path.exists(os.path.join(out, "_SUCCESS"))  # invalidated first
    monkeypatch.undo()

    r = eng.export_snapshot(out)
    assert not r["skipped"]
    assert r["checksum"] == eng.checksum()["checksum"]

    # the export respects the lake's single-writer lease
    with _LakeLease(eng.cfg.path):
        with pytest.raises(LakeLockedError):
            eng.export_snapshot(out)


def test_pruned_point_lookups_retry_compactor_race(tmp_path, monkeypatch):
    """Reader-vs-compactor guard for the PRUNED read path (ADVICE
    engine.py:2355): one FileNotFoundError (compactor unlinked a listed
    base) triggers a re-list + re-read instead of raising."""
    import nyc_taxi_data_pipeline_ray.engine as E

    spec = WalSpec(seed=67, num_conversations=40, num_epochs=2, events_per_epoch=400)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    key = eng.snapshot_table()["conv_id"][0].as_py()

    real = E.read_run_pruned
    calls = {"fail": 0}

    def flaky(path, keys, column="conv_id"):
        if calls["fail"] == 0:
            calls["fail"] += 1
            raise FileNotFoundError(path)
        return real(path, keys, column)

    monkeypatch.setattr(E, "read_run_pruned", flaky)
    t = eng.get_conversation(key)
    assert calls["fail"] == 1 and t.num_rows > 0

    calls["fail"] = 0
    h = eng.key_history(key)
    assert calls["fail"] == 1 and h.num_rows > 0


def test_event_time_watermark_and_lateness(tmp_path):
    """Each log record's partition counters carry the event-time
    watermark (max_ts_us — exact through the pre-shuffle combiner) and
    the late-arrival count vs the lake's prior watermark (late_upserts);
    both match an independent pandas recomputation and stay stable
    across idempotent re-apply and crash-retry."""
    from nyc_taxi_data_pipeline_ray.stages.validate import split_valid
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    spec = WalSpec(
        seed=11,
        num_conversations=80,
        num_epochs=3,
        events_per_epoch=800,
        ooo_fraction=0.3,
        dup_fraction=0.1,
        invalid_fraction=0.05,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    for _ in range(spec.num_epochs):
        eng.apply(wal, max_epochs=1)

    good, _ = split_valid(gen.events_table())
    df = good.select(["conv_id", "turn_idx", "ts", "lsn", "epoch"]).to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    # expected per-epoch watermark: max valid event time in the epoch
    wm = df.groupby("epoch")["ts_us"].max()
    # expected late winners: LWW winner per (epoch, key) with event time
    # at/below the running watermark of all PRIOR epochs
    winners = (
        df.sort_values(["epoch", "conv_id", "turn_idx", "ts_us", "lsn"])
        .groupby(["epoch", "conv_id", "turn_idx"], as_index=False)
        .last()
    )
    got = {e: {"watermark_us": None, "late_upserts": 0} for e in wm.index}
    for rec in mf.read_log(eng.cfg.path).records:
        e = int(rec["epochs"][0])
        for c in rec["partitions"].values():
            v = c.get("max_ts_us")
            if v is not None:
                cur = got[e]["watermark_us"]
                got[e]["watermark_us"] = v if cur is None else max(cur, v)
            got[e]["late_upserts"] += int(c.get("late_upserts", 0))
    prior = None
    for e in sorted(wm.index):
        assert got[e]["watermark_us"] == int(wm[e]), e
        w_e = winners[winners["epoch"] == e]
        exp_late = 0 if prior is None else int((w_e["ts_us"] <= prior).sum())
        assert got[e]["late_upserts"] == exp_late, e
        prior = int(wm[e]) if prior is None else max(prior, int(wm[e]))

    # crash-retry: lose the last group's record — the re-applied group
    # commits the same counters against the same prior watermark
    def late_counts():
        return [
            (rec["group_id"], sorted((p, c["late_upserts"]) for p, c in rec["partitions"].items()))
            for rec in mf.read_log(eng.cfg.path).records
        ]

    before = late_counts()
    _lose_last_record(eng)
    eng.apply(wal)
    assert late_counts() == before
    _assert_equal_state(eng, gen)


def test_merge_counters_folds_bounds():
    from nyc_taxi_data_pipeline_ray.state.manifest import merge_counters

    ms = [
        {"rows_in": 3, "min_lsn": 5, "max_lsn": 9, "max_ts_us": 100},
        {"rows_in": 4, "min_lsn": 2, "max_lsn": 11, "max_ts_us": 70},
        {"rows_in": 1, "min_lsn": None},
    ]
    out = merge_counters(ms)
    assert out == {
        "rows_in": 8,
        "min_lsn": 2,
        "max_lsn": 11,
        "max_ts_us": 100,
    }


def test_watermark_survives_reshard(tmp_path):
    """Reshard's bootstrap log record preserves the event-time watermark
    (max_ts_us), so late-arrival accounting doesn't reset after a
    layout change."""
    spec = WalSpec(
        seed=5, num_conversations=60, num_epochs=2,
        events_per_epoch=500, ooo_fraction=0.3,
    )
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    w_src = mf.read_log(eng.cfg.path).watermark_us
    tgt = eng.reshard(os.path.join(str(tmp_path), "lake2"), 8)
    assert w_src is not None
    assert mf.read_log(tgt.cfg.path).watermark_us == w_src
    assert tgt.metrics()["max_ts_us"] == w_src


def test_reshard_refuses_unrelated_nonempty_target(tmp_path):
    """The crashed-attempt sweep is keyed on the _RESHARDING marker: a
    non-empty target directory WITHOUT it is someone else's data and
    must be refused, never rm -rf'd (review finding on the round-4
    completion-marker change)."""
    spec = WalSpec(seed=61, num_conversations=20, num_epochs=1, events_per_epoch=200)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    tgt = os.path.join(str(tmp_path), "precious")
    os.makedirs(tgt)
    keep = os.path.join(tgt, "do-not-delete.txt")
    with open(keep, "w") as f:
        f.write("user data\n")
    with pytest.raises(ValueError, match="non-empty"):
        eng.reshard(tgt, 2)
    assert os.path.exists(keep)  # untouched


def test_apply_retry_discards_stale_staging(tmp_path):
    """A retry of a crashed apply() must recompute everything it reads:
    a unit file staged by the failed attempt (possibly over a
    since-rewritten WAL segment) may not leak into the merge, even under
    the very unit name the retry stages again."""
    from nyc_taxi_data_pipeline_ray.engine import _write_staged

    spec = WalSpec(seed=62, num_conversations=30, num_epochs=2, events_per_epoch=300)
    gen, wal, eng = _build(str(tmp_path), spec)
    # plant poison staging for the group id apply() will use (max epoch),
    # under the name of the retry's first unit: well-formed rows that
    # would break oracle equality if they were merged
    staging = os.path.join(eng.cfg.path, "_staging", "group-000001")
    os.makedirs(staging)
    unit = "e000000-f0000-r00000"
    bogus = gen.events_table().slice(0, 5)
    bogus = bogus.set_column(
        bogus.schema.get_field_index("text"), "text", pa.array(["poison"] * 5)
    ).append_column("_nsrc", pa.array([1] * 5, pa.int64()))
    poison = os.path.join(staging, f"unit-{unit}.arrow")
    _write_staged(poison, bogus.schema, bogus.to_batches())
    eng.apply(wal)
    assert not os.path.exists(poison)  # wiped before staging, not merged
    _assert_equal_state(eng, gen)


def _assert_ledger(eng, events, rep, num_partitions):
    """One report row per partition, in pid order, and one log record
    naming the group and the partitions it wrote; the state equals the
    oracle; every reject sits in partition 0 and the rejects() /
    metrics() counts agree with the report."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    assert rep.partitions == num_partitions
    assert [d["pid"] for d in rep.details] == list(range(num_partitions))
    assert eng.live_pids() == list(range(num_partitions))
    group = max(rep.epochs)
    rec = mf.read_log(eng.cfg.path).records[-1]
    assert (rec["group_id"], rec["epochs"]) == (group, rep.epochs)
    assert sorted(map(int, rec["partitions"])) == [d["pid"] for d in rep.details if d["rows_in"]]
    snap = eng.snapshot_table()
    exp = oracle.replay(events)
    cols = sorted(exp.schema.names)
    assert snap.select(cols).equals(exp.select(cols))
    rej_files = glob.glob(os.path.join(eng.cfg.path, "p=*", "rejects-*.parquet"))
    assert {os.path.basename(os.path.dirname(f)) for f in rej_files} <= {"p=0000"}
    n_rej = sum(d["rejects"] for d in rep.details)
    assert n_rej == rep.rejects == rep.details[0]["rejects"]
    assert eng.rejects(after_epoch=group - 1).count() == n_rej
    assert eng.fsck()["ok"]


def _assert_reapply_noop(eng, wal, num_partitions):
    """Re-applying is a no-op: nothing left to discover, and with the
    group's log record lost (crash before it landed) the rerun group
    rewrites the same data files and commits the same state."""
    before = eng.snapshot_table()
    assert eng.apply(wal).epochs == []
    _lose_last_record(eng)
    rep = eng.apply(wal)
    assert rep.partitions == num_partitions
    assert [d["pid"] for d in rep.details] == list(range(num_partitions))
    assert eng.snapshot_table().equals(before)
    assert eng.fsck()["reclaimable"] == []


def test_single_conversation_commits_every_partition(tmp_path):
    """A group that touches one partition of 16 still reports all 16
    (untouched ones empty) in pid order; its record names the one."""
    T = 1_735_689_600_000_000
    wal = str(tmp_path / "wal")
    events = _write_custom_wal(
        wal,
        [[(1, "insert", "c1", 0, T), (2, "insert", "c1", 1, T + 1), (3, "update", "c1", 0, T + 2)]],
    )
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=16))
    rep = eng.apply(wal)
    assert (rep.plan, rep.blocks) == ("fused", 1)  # one unit: one block
    _assert_ledger(eng, events, rep, 16)
    touched = [d for d in rep.details if d["rows_in"]]
    assert len(touched) == 1 and touched[0]["rows_in"] == 3
    _assert_reapply_noop(eng, wal, 16)


def test_all_invalid_epoch_lands_in_partition_zero_rejects(tmp_path):
    """An epoch of nothing but invalid rows (spread over conversations
    that hash everywhere) commits as rejects of partition 0 only."""
    T = 1_735_689_600_000_000
    wal = str(tmp_path / "wal")
    good = [(i, "insert", f"c{i}", 0, T + i) for i in range(20)]
    bad = [(100 + i, "bogus", f"c{i}", 1, T + 100 + i) for i in range(12)]
    events = _write_custom_wal(wal, [good, bad])
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=8))
    eng.apply(wal, max_epochs=1)
    rep = eng.apply(wal)
    assert rep.epochs == [1]
    assert (rep.plan, rep.blocks) == ("fused", 1)
    assert rep.rejects == rep.rows_in == 12
    assert rep.upserts == rep.deletes == 0
    _assert_ledger(eng, events, rep, 8)
    assert eng.metrics()["rejects"] == 12
    assert eng.rejects().count() == 12


def test_salted_apply_with_rejects_and_untouched_partitions(tmp_path):
    """salt_shards=4: the (pid, salt) pre-merge exchange keeps rejects on
    partition 0 and still commits every untouched partition."""
    spec = WalSpec(
        seed=63,
        num_conversations=3,
        num_epochs=2,
        events_per_epoch=400,
        invalid_fraction=0.05,
        zipf_s=1.5,
    )
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=16, salt_shards=4)
    )
    rep = eng.apply(wal)
    assert rep.rejects > 0
    # at most one partition per conversation, plus partition 0's rejects
    assert sum(1 for d in rep.details if d["rows_in"] == 0) >= 16 - 4
    _assert_ledger(eng, gen.events_table(), rep, 16)
    _assert_reapply_noop(eng, wal, 16)


def test_task_cpus_above_cluster_size_still_runs(tmp_path):
    """A task_cpus request larger than the cluster is capped at the
    cluster's CPU count, so apply and compact run instead of waiting
    forever for a node that does not exist."""
    import ray

    spec = WalSpec(seed=64, num_conversations=30, num_epochs=2, events_per_epoch=300)
    big = int(ray.cluster_resources()["CPU"]) * 16
    gen, wal, eng = _build(str(tmp_path), spec, task_cpus=big)
    eng.apply(wal, max_epochs=1)
    eng.apply(wal)
    assert eng.compact() > 0
    _assert_equal_state(eng, gen)


def test_lease_steal_race_has_one_winner(tmp_path):
    """Waiters racing to steal one stale lock: exactly one of them ends
    up holding the lease (compare-and-delete, never a blind remove of a
    lock another waiter has just created)."""
    import json
    import sys
    import threading

    from nyc_taxi_data_pipeline_ray.engine import LakeLockedError, _LakeLease

    lock = os.path.join(str(tmp_path), "_lock.json")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(25):
            with open(lock, "w") as f:
                json.dump({"pid": 2**22 + 12345, "ts": 0.0}, f)  # dead and expired
            leases = [_LakeLease(str(tmp_path)) for _ in range(8)]
            barrier = threading.Barrier(len(leases))
            held = []

            def race(lease):
                barrier.wait(timeout=30)
                try:
                    lease.__enter__()
                    held.append(lease)
                except LakeLockedError:
                    pass

            threads = [threading.Thread(target=race, args=(le,)) for le in leases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(held) == 1, f"round {round_}: {len(held)} holders"
            held[0].__exit__(None, None, None)
            assert os.listdir(str(tmp_path)) == []
    finally:
        sys.setswitchinterval(old)


def test_all_deleted_lake_stays_oracle_equal(tmp_path):
    """Delete EVERY live key: the engine's empty snapshot and the
    oracle's empty replay must still compare equal (both sides must
    return the TYPED merged-state schema incl. lsn — a NULL-typed or
    TRANSCRIPT-only empty on either side is a spurious mismatch), and
    compaction of the empty lake must preserve that."""
    import pandas as pd
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray import schemas

    spec = WalSpec(seed=13, num_conversations=30, num_epochs=2, events_per_epoch=400)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    live = eng.snapshot_table().select(["conv_id", "turn_idx"]).to_pandas()
    n = len(live)
    ev = pa.table(
        {
            "lsn": pa.array(range(10_000_000, 10_000_000 + n), pa.int64()),
            "op": pa.array(["delete"] * n),
            "epoch": pa.array([spec.num_epochs] * n, pa.int32()),
            "conv_id": pa.array(live["conv_id"], pa.string()),
            "turn_idx": pa.array(live["turn_idx"], pa.int32()),
            "role": pa.array([None] * n, pa.string()),
            "text": pa.array([None] * n, pa.string()),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([pd.Timestamp("2032-01-01").to_datetime64()] * n),
        }
    ).cast(schemas.EVENT_SCHEMA)
    d = os.path.join(wal, f"epoch={spec.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ev, os.path.join(d, "part-0000.parquet"))
    eng.apply(wal)
    exp = oracle.replay(pa.concat_tables([gen.events_table(), ev]))
    assert exp.num_rows == 0 and exp.schema.field("lsn").type == pa.int64()
    cols = sorted(exp.schema.names)
    snap = eng.snapshot_table()
    assert snap.num_rows == 0
    assert snap.select(cols).equals(exp.select(cols))
    eng.compact()
    assert eng.snapshot_table().select(cols).equals(exp.select(cols))


# ------------------------------------------------- fan-out to task slots


@pytest.mark.parametrize("task_cpus", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_fan_out_blocks_follow_task_slots(n, task_cpus):
    """``fan_out`` makes one block per task slot, never more than rows,
    and keeps every row in order."""
    import ray

    from nyc_taxi_data_pipeline_ray.io import fan_out

    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus == 4  # the test cluster (conftest.py)
    ds = fan_out([{"i": i} for i in range(n)], task_cpus).materialize()
    assert ds.num_blocks() == min(n, cpus // task_cpus)
    assert [r["i"] for r in ds.take_all()] == list(range(n))


@pytest.mark.parametrize("salt_shards", [1, 4])
def test_apply_with_more_units_than_slots_equals_oracle(tmp_path, salt_shards):
    """Many one-row-group units over few task slots: a Stage-A block
    holds several units, one of them the first unit that emits the
    placeholder rows, so every partition (most of them untouched) still
    commits and the state equals the oracle."""
    spec = WalSpec(
        seed=71,
        num_conversations=6,
        num_epochs=3,
        events_per_epoch=600,
        invalid_fraction=0.03,
        dup_fraction=0.05,
        rows_per_file=150,
    )
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(
            str(tmp_path / "lake"),
            num_partitions=16,
            salt_shards=salt_shards,
            stage_unit_rows=1,
            task_cpus=1,
        )
    )
    units = eng._stage_units(eng.discover(wal))
    assert len(units) > 4 * 2  # at least two units per slot
    rep = eng.apply(wal)
    assert (rep.plan, rep.blocks) == ("exchange", 4)
    _assert_ledger(eng, gen.events_table(), rep, 16)
    _assert_reapply_noop(eng, wal, 16)


def test_snapshot_of_empty_partitions_keeps_schema(tmp_path):
    """Partitions without live rows yield an empty table of the
    requested columns, so every block of a snapshot has one schema —
    both when only some partitions are empty and when all are."""
    import ray

    from nyc_taxi_data_pipeline_ray import schemas

    T = 1_735_689_600_000_000
    wal = str(tmp_path / "wal")
    good = [(1, "insert", "c1", 0, T), (2, "insert", "c2", 0, T + 1)]
    bad = [(100 + i, "bogus", f"c{i}", 1, T + 100 + i) for i in range(12)]
    _write_custom_wal(wal, [good])
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=8))
    eng.apply(wal)
    cols = ["conv_id", "text"]

    def block_schemas():
        ds = eng.snapshot(columns=cols)
        return ds, [b.schema.names for b in ray.get(ds.to_arrow_refs())]

    ds, names = block_schemas()
    assert names and all(n == cols for n in names)
    assert ds.count() == 2

    # all-invalid lake: every partition is empty
    empty_wal = str(tmp_path / "wal-bad")
    _write_custom_wal(empty_wal, [bad])
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake-bad"), num_partitions=8))
    assert eng.apply(empty_wal).rejects == 12
    ds, names = block_schemas()
    assert names and all(n == cols for n in names)
    assert ds.count() == 0
    assert eng.snapshot().schema().names == schemas.empty_state().schema.names


def test_stage_b_compaction_uses_lake_base_row_group_rows(tmp_path):
    """Auto-compaction inside apply writes bases with the lake's
    ``base_row_group_rows``, not the 64k-row default."""
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    gen, wal, eng = _build(str(tmp_path), SPEC, base_row_group_rows=64, max_delta_runs=1)
    for _ in range(3):
        eng.apply(wal, max_epochs=1)
    bases = [mf.current_base(eng.cfg.path, pid) for pid in eng.live_pids()]
    mds = [pq.ParquetFile(b[1]).metadata for b in bases if b is not None]
    assert mds and max(md.num_rows for md in mds) > 64
    for md in mds:
        assert max(md.row_group(i).num_rows for i in range(md.num_row_groups)) <= 64
    _assert_equal_state(eng, gen)


def test_corrupt_superseded_compact_marker_is_ignored(tmp_path):
    """Readers and the compactor open only the current generation's
    compact marker; a damaged marker of a superseded generation breaks
    none of them."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    gen, wal, eng = _build(str(tmp_path), SPEC)
    eng.apply(wal, max_epochs=1)
    eng.compact()
    eng.apply(wal, max_epochs=1)
    eng.compact()
    for pid in eng.live_pids():
        assert mf.current_base(eng.cfg.path, pid)[0] == 2
        with open(mf.compact_marker_path(eng.cfg.path, pid, 1), "w") as f:
            f.write("{not json")
    conv = gen.events_table()["conv_id"][0].as_py()
    assert eng.get_conversation(conv).num_rows > 0
    eng.apply(wal)
    assert eng.compact() == len(eng.live_pids())
    _assert_equal_state(eng, gen)


def test_resume_check_reads_only_manifests_that_can_cover_the_group(tmp_path, monkeypatch):
    """The resume check (the committed epochs ``discover`` diffs
    against) reads the newest checkpoint and the records after it: a
    record the checkpoint covers is never opened, even unreadable, and a
    multi-epoch group folded into the checkpoint still covers all its
    epochs."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    lake = str(tmp_path)
    log = mf.Log()
    for g, eps in ((1, [0, 1]), (4, [2, 3, 4])):
        log = mf.append_record(lake, log, {"group_id": g, "epochs": eps, "partitions": {}})
    mf.write_checkpoint(lake, log)
    with open(mf.record_path(lake, 1), "w") as f:  # left by a cut compact(), damaged
        f.write("{not json")
    mf.append_record(lake, mf.read_log(lake), {"group_id": 5, "epochs": [5], "partitions": {}})
    loaded = []
    real_load = mf._load
    monkeypatch.setattr(mf, "_load", lambda p: loaded.append(os.path.basename(p)) or real_load(p))
    monkeypatch.setattr(mf, "_LOGS", {})
    log = mf.read_log(lake)
    assert loaded == ["checkpoint-000002.json", "commit-000003.json"]
    assert log.epochs == {0, 1, 2, 3, 4, 5} and log.seq == 3
    with pytest.raises(ValueError, match=r"inside commit group 4 \(epochs \[2, 3, 4\]\)"):
        mf.check_group_boundary(log, 3)
    assert [r["kind"] for r in mf.ledger_remnants(lake)] == ["folded_log"]


# ------------------------------------------------- one-block (fused) plan


@pytest.mark.parametrize("salt_shards", [1, 4])
def test_fused_micro_batches_equal_oracle(tmp_path, salt_shards):
    """One-epoch applies of one Stage-A unit each take the fused plan:
    Stage A, the salted pre-merge and Stage B run in the one map task.
    After every epoch the ledger and the state equal the oracle over the
    applied prefix; losing the last group's log record and re-applying
    reruns the group to the same state."""
    spec = WalSpec(
        seed=81,
        num_conversations=30,
        num_epochs=4,
        events_per_epoch=400,
        invalid_fraction=0.03,
        dup_fraction=0.05,
        zipf_s=1.5,
    )
    gen, wal, eng = _build(str(tmp_path), spec, salt_shards=salt_shards)
    events = gen.events_table()
    for e in range(spec.num_epochs):
        rep = eng.apply(wal, max_epochs=1)
        assert rep.epochs == [e]
        assert (rep.plan, rep.blocks) == ("fused", 1)
        _assert_ledger(eng, events.filter(pc.less_equal(events["epoch"], e)), rep, 4)
    assert eng.metrics()["rejects"] > 0
    before = eng.snapshot_table()
    _lose_last_record(eng)
    rep = eng.apply(wal)
    assert rep.epochs == [spec.num_epochs - 1] and rep.plan == "fused"
    assert rep.partitions == 4
    assert eng.snapshot_table().equals(before)
    _assert_equal_state(eng, gen)
    assert eng.fsck()["ok"]


def test_rejects_feed_blocks_share_one_schema(tmp_path):
    """Rejects sit on partition 0 only; the other partitions' empty
    blocks and partition 0's block have the same columns in the same
    order."""
    import ray

    T = 1_735_689_600_000_000
    wal = str(tmp_path / "wal")
    good = [(i, "insert", f"c{i}", 0, T + i) for i in range(20)]
    bad = [(100 + i, "bogus", f"c{i}", 1, T + 100 + i) for i in range(5)]
    _write_custom_wal(wal, [good + bad])
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    assert eng.apply(wal).rejects == 5
    blocks = ray.get(eng.rejects().to_arrow_refs())
    assert len(blocks) > 1 and sum(b.num_rows for b in blocks) == 5
    assert all(b.schema == blocks[0].schema for b in blocks)
    assert blocks[0].schema.names[:2] == ["reject_group", "reason"]


# ------------------------------------------------------ Arrow IPC staging


@pytest.mark.parametrize("salt_shards", [1, 2])
def test_staged_runs_round_trip_through_arrow_ipc(tmp_path, salt_shards):
    """A unit staged as one Arrow IPC file reads back, per partition,
    exactly the unit's LWW winners routed there, in staged order
    ((salt, conv_id, turn_idx)), with each winner's source-row count;
    every batch of the file is named by exactly one run; the invalid
    rows come back from the dead-letter file on partition 0."""
    import pyarrow.ipc as ipc
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray import schemas
    from nyc_taxi_data_pipeline_ray.engine import (
        _read_slices,
        _StageUnits,
        _unit_name,
        hash_partition_ids,
    )
    from nyc_taxi_data_pipeline_ray.stages import validate as validate_mod
    from nyc_taxi_data_pipeline_ray.state import merge as mg

    # epoch 1 of an evolving WAL (schema v2, invalid and duplicate rows),
    # rewritten so that ONE unit spans several WAL row groups
    spec = WalSpec(
        seed=91, num_conversations=40, num_epochs=2, events_per_epoch=600,
        invalid_fraction=0.05, dup_fraction=0.1, evolve_at_epoch=1,
    )
    wal = str(tmp_path / "wal")
    WalGenerator(spec).write(wal)
    seg = glob.glob(os.path.join(wal, "epoch=000001", "*.parquet"))[0]
    path = str(tmp_path / "seg.parquet")
    pq.write_table(pq.read_table(seg), path, row_group_size=64)
    n_rg = pq.ParquetFile(path).metadata.num_row_groups
    assert n_rg > 3
    v1 = pq.read_schema(glob.glob(os.path.join(wal, "epoch=000000", "*.parquet"))[0])
    target = schemas.unify(v1, pq.read_schema(path))
    unit = {"epoch": 1, "path": path, "file_idx": 0, "rg_lo": 0, "rg_hi": n_rg - 1}
    stage = _StageUnits(
        str(tmp_path / "staging"), target.serialize().to_pybytes(), 4, salt_shards,
        first_unit=_unit_name(unit),
    )
    slices = stage(pa.Table.from_pylist([unit]))
    t = mg.conform(pq.read_table(path), target)
    assert "model" in t.schema.names  # the evolved column rides along
    valid = validate_mod.validity_mask(t).to_numpy(zero_copy_only=False).astype(bool)
    rows = t.to_pylist()
    best, nsrc = {}, {}
    for ok, r in zip(valid, rows):
        if ok:
            k = (r["conv_id"], r["turn_idx"])
            nsrc[k] = nsrc.get(k, 0) + 1
            if k not in best or (r["ts"], r["lsn"]) > (best[k]["ts"], best[k]["lsn"]):
                best[k] = r
    winners = [dict(best[k], _nsrc=nsrc[k]) for k in sorted(best)]
    pids = hash_partition_ids(pa.array([w["conv_id"] for w in winners]), 4)

    runs = slices.filter(pc.and_(pc.is_valid(slices["file"]), pc.invert(slices["rej"])))
    assert len(set(runs["file"].to_pylist())) == 1
    unit_file = os.path.join(stage.staging_dir, runs["file"][0].as_py())
    listed = [i for b in runs["batches"].to_pylist() for i in b]
    assert sorted(listed) == list(range(ipc.open_file(unit_file).num_record_batches))
    for p in range(4):
        got = _read_slices(stage.staging_dir, runs.filter(pc.equal(runs["pid"], p)))
        exp = [w for w, q in zip(winners, pids) if q == p]
        exp.sort(key=lambda w: w["lsn"] % salt_shards)  # stable: salt, then key
        assert got.schema.names == t.schema.names + ["_nsrc"]
        assert got.to_pylist() == exp

    rej = slices.filter(slices["rej"])
    assert rej.num_rows == 1 and rej["pid"].to_pylist() == [0]
    bad = _read_slices(stage.staging_dir, rej)
    assert bad.to_pylist() == [r for ok, r in zip(valid, rows) if not ok] != []
    placeholders = slices.filter(pc.is_null(slices["file"]))
    assert sorted(placeholders["pid"].to_pylist()) == [0, 1, 2, 3]
    assert not glob.glob(os.path.join(stage.staging_dir, "*.tmp"))


def test_premerge_passes_single_run_groups_through(tmp_path):
    """Stage A2 rewrites nothing for a (pid, salt) group of one staged
    run, and pre-merges a group that holds runs of two epochs into one
    file whose rows resolve to the same live rows as the two runs."""
    from nyc_taxi_data_pipeline_ray.engine import (
        _PreMergeSalts,
        _read_slices,
        _StageUnits,
        _unit_name,
    )
    from nyc_taxi_data_pipeline_ray.state import merge as mg

    spec = WalSpec(seed=92, num_conversations=20, num_epochs=2, events_per_epoch=400)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    units = [
        {"epoch": e, "path": glob.glob(os.path.join(wal, f"epoch={e:06d}", "*.parquet"))[0],
         "file_idx": 0, "rg_lo": 0, "rg_hi": 0}
        for e in range(2)
    ]
    staging = str(tmp_path / "staging")
    stage = _StageUnits(staging, None, 4, 2, first_unit=_unit_name(units[0]))
    slices = stage(pa.Table.from_pylist(units))
    group = slices.filter(pc.and_(pc.equal(slices["pid"], 1), pc.equal(slices["salt"], 1)))
    assert group.filter(pc.is_valid(group["file"])).num_rows == 2  # one run per epoch
    pre = _PreMergeSalts(staging)

    one = group.filter(pc.or_(pc.is_null(group["file"]), pc.match_substring(group["file"], "e000000")))
    assert pre(one).equals(one)
    assert not glob.glob(os.path.join(staging, "pre-*"))

    out = pre(group)
    merged = out.filter(pc.is_valid(out["file"]))
    assert merged["file"].to_pylist() == ["pre-p0001-s01.arrow"]
    assert glob.glob(os.path.join(staging, "pre-*")) == [os.path.join(staging, "pre-p0001-s01.arrow")]
    both = _read_slices(staging, group.filter(pc.is_valid(group["file"])))
    fragment = _read_slices(staging, merged)
    assert fragment.num_rows < both.num_rows  # keys written in both epochs collapse

    def live(t):  # what Stage B keeps of the group's rows
        return mg.resolve_lww(mg.with_run_seq(t, 0), drop_tombstones=True)

    assert live(fragment).equals(live(both))


def test_apply_reports_staged_bytes_and_leaves_no_staging(tmp_path):
    """``ApplyReport.staged_bytes`` is what the group staged; the
    staging dir is gone after the apply, and a no-op apply stages
    nothing."""
    spec = WalSpec(seed=93, num_conversations=20, num_epochs=2, events_per_epoch=300)
    gen, wal, eng = _build(str(tmp_path), spec, salt_shards=2)
    rep = eng.apply(wal)
    assert rep.staged_bytes > 0
    assert os.listdir(os.path.join(eng.cfg.path, "_staging")) == []
    assert eng.apply(wal).staged_bytes == 0
    _assert_equal_state(eng, gen)


# ------------------------------------------- byte-bounded lake row groups


BOUNDED_SPEC = WalSpec(seed=31, num_conversations=300, num_epochs=2, events_per_epoch=5000)


def test_compacted_bases_have_byte_bounded_row_groups(tmp_path):
    """On a default-config lake whose partitions hold more than two
    groups' worth of bytes, compaction cuts every base into groups of at
    most ``_RUN_GROUP_BYTES``, with footer statistics on the key columns
    only; ``describe()`` shows the bound; a one-key lookup reads at most
    two groups of a base and equals the oracle."""
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.engine import (
        _RUN_GROUP_BYTES,
        _read_keys_pruned,
        read_run_pruned,
        hash_partition_ids,
    )
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    B = _RUN_GROUP_BYTES
    gen, wal, eng = _build(str(tmp_path), BOUNDED_SPEC)
    eng.apply(wal)
    eng.compact()
    snap = _assert_equal_state(eng, gen)
    d = eng.describe()
    assert d["max_delta_runs"] == 0
    for p in d["per_partition"]:
        base = mf.current_base(eng.cfg.path, p["pid"])[1]
        md = pq.ParquetFile(base).metadata
        groups = [md.row_group(g) for g in range(md.num_row_groups)]
        assert pq.read_table(base).nbytes > 2 * B
        assert md.num_row_groups >= 2
        assert max(g.total_byte_size for g in groups) <= B
        assert (p["row_groups"], p["max_row_group_bytes"]) == (
            md.num_row_groups,
            max(g.total_byte_size for g in groups),
        )
        for g in groups:
            stats = {
                g.column(c).path_in_schema: g.column(c).statistics is not None
                for c in range(g.num_columns)
            }
            assert stats.pop("conv_id") and stats.pop("turn_idx")
            assert not any(stats.values()), stats  # text's 4 KB min/max are gone

    for conv in sorted(set(snap["conv_id"].to_pylist()))[::17]:
        pid = int(hash_partition_ids(pa.array([conv]), eng.cfg.num_partitions)[0])
        base = mf.current_base(eng.cfg.path, pid)[1]
        _, read, total = read_run_pruned(base, [conv])
        assert 1 <= read <= 2 <= total
        got, read, _ = _read_keys_pruned(eng.cfg.path, pid, [conv])
        assert read <= 2
        want = snap.filter(pc.equal(snap["conv_id"], conv))
        cols = sorted(want.schema.names)
        assert got.select(cols).equals(want.select(cols))
        assert eng.get_conversation(conv).select(cols).equals(want.select(cols))


def test_old_layout_base_reads_identically(tmp_path):
    """A base written the old way — one row group, statistics on every
    column — reads exactly like the bounded one, through point lookups
    (with and without a delta on top) and snapshots."""
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    gen, wal, eng = _build(str(tmp_path), BOUNDED_SPEC)
    eng.apply(wal, max_epochs=1)
    eng.compact()
    convs = sorted(set(gen.events_table()["conv_id"].to_pylist()))[::9]

    def reads():
        return eng.snapshot_table(), [eng.get_conversation(c) for c in convs]

    for step in range(2):
        if step:
            eng.apply(wal)  # a delta over the base: the merge path
        new_snap, new_hits = reads()
        for pid in eng.live_pids():
            base = mf.current_base(eng.cfg.path, pid)[1]
            pq.write_table(pq.read_table(base), base)  # one group, all statistics
            assert pq.ParquetFile(base).metadata.num_row_groups == 1
        old_snap, old_hits = reads()
        assert old_snap.equals(new_snap)
        for a, b in zip(old_hits, new_hits):
            assert a.equals(b)
            assert a["turn_idx"].to_pylist() == sorted(a["turn_idx"].to_pylist())
        eng.compact()  # bounded again for the next step
    _assert_equal_state(eng, gen)


def test_one_run_read_equals_merge_path_with_tombstones(tmp_path):
    """A compacted partition keeps its tombstones; reading it (one run)
    only drops them, and gives the very rows ``merge_runs`` gives, equal
    to the oracle, for the whole partition and for a pruned key set."""
    from nyc_taxi_data_pipeline_ray import schemas
    from nyc_taxi_data_pipeline_ray.engine import (
        _partition_runs,
        _read_keys_pruned,
        read_partition_state,
        hash_partition_ids,
    )
    from nyc_taxi_data_pipeline_ray.state import merge as mg

    spec = WalSpec(seed=33, num_conversations=60, num_epochs=3, events_per_epoch=800, p_delete=0.2)
    gen, wal, eng = _build(str(tmp_path), spec)
    eng.apply(wal)
    eng.compact()
    _assert_equal_state(eng, gen)
    snap = eng.snapshot_table()
    n_tomb = 0
    for pid in eng.live_pids():
        (run,) = _partition_runs(eng.cfg.path, pid)
        n_tomb += run.num_rows - mg.live_rows(run).num_rows
        via_merge = mg.merge_runs([run], drop_tombstones=True).drop_columns(
            list(schemas.INTERNAL_COLUMNS)
        )
        assert read_partition_state(eng.cfg.path, pid).equals(via_merge)
        keys = sorted(set(run["conv_id"].to_pylist()))[::3]
        got, _, _ = _read_keys_pruned(eng.cfg.path, pid, keys)
        want = via_merge.filter(pc.is_in(via_merge["conv_id"], value_set=pa.array(keys)))
        assert got.equals(want)
        in_pid = hash_partition_ids(snap["conv_id"], eng.cfg.num_partitions) == pid
        exp = snap.filter(pa.array(in_pid))
        assert got.equals(exp.filter(pc.is_in(exp["conv_id"], value_set=pa.array(keys))))
    assert n_tomb > 0  # the partitions really kept tombstones


def test_bloom_hashes_do_not_depend_on_categorize():
    """The bloom probe hashes without pandas' factorize pass; the bit
    positions are the ones sidecars were written with before."""
    import numpy as np
    import pandas as pd

    from nyc_taxi_data_pipeline_ray.engine import _BLOOM_H1, _BLOOM_H2, _bloom_positions

    keys = np.asarray([f"c{i:08d}" for i in range(0, 5000, 7)] + ["c00000000"], dtype=object)
    m = 1 << 14
    h1 = pd.util.hash_array(keys, hash_key=_BLOOM_H1)
    h2 = pd.util.hash_array(keys, hash_key=_BLOOM_H2) | np.uint64(1)
    i = np.arange(6, dtype=np.uint64)
    old = ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m)).astype(np.int64)
    assert np.array_equal(_bloom_positions(keys, m), old)


# --------------------------------------------- staggered auto-compaction


def test_compaction_due_staggers_partitions():
    """Simulated one-epoch groups that touch every partition: each apply
    compacts at most ``ceil(P / (max_delta_runs + 1))`` partitions once
    past the first cycle, and no partition ever holds more than
    ``2 * max_delta_runs`` delta runs after an apply.  (At
    ``max_delta_runs`` 0 or 1 that cap is the threshold itself, so there
    is nothing to stagger.)"""
    from nyc_taxi_data_pipeline_ray.engine import _compaction_due

    for P, k in ((8, 8), (16, 8), (4, 2), (3, 1), (5, 0)):
        runs = [0] * P
        per_group = []
        for g in range(1, 200):
            fired = 0
            for pid in range(P):
                runs[pid] += 1
                if _compaction_due(runs[pid], pid, g, k):
                    runs[pid], fired = 0, fired + 1
                assert runs[pid] <= 2 * k
            per_group.append(fired)
        if k >= 2:
            assert max(per_group[2 * k:]) <= -(-P // (k + 1)), (P, k, per_group)


def test_follow_loop_without_compact_equals_oracle(tmp_path):
    """One-epoch applies with no explicit compact: auto-compaction keeps
    every partition at or below ``2 * max_delta_runs`` delta runs, never
    compacts every partition in the same apply, and the state equals
    the oracle after every apply."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    spec = WalSpec(seed=35, num_conversations=60, num_epochs=10, events_per_epoch=300, p_delete=0.1)
    gen, wal, eng = _build(str(tmp_path), spec, max_delta_runs=2)
    events = gen.events_table()
    gens = {}
    for e in range(spec.num_epochs):
        assert eng.apply(wal, max_epochs=1).epochs == [e]
        now = {p: (mf.current_base(eng.cfg.path, p) or (0,))[0] for p in eng.live_pids()}
        compacted = [p for p in now if now[p] != gens.get(p, 0)]
        assert len(compacted) < 4, (e, compacted)
        gens = now
        assert eng.describe()["max_delta_runs"] <= 2 * eng.cfg.max_delta_runs
        exp = oracle.replay(events.filter(pc.less_equal(events["epoch"], e)))
        cols = sorted(exp.schema.names)
        assert eng.snapshot_table().select(cols).equals(exp.select(cols))
    assert any(gens.values())  # auto-compaction did run
    assert eng.fsck()["ok"]


# ------------------------------------------------- ledger loads per apply


def test_apply_loads_constant_epoch_markers(tmp_path, monkeypatch):
    """An apply reads the committed epochs and the event-time watermark
    from the commit log, which the process-wide read cache already
    holds (the previous apply seeded it with its own record), so the
    JSON loads one apply makes here do not grow with the lake's
    history."""
    import json

    spec = WalSpec(seed=12, num_conversations=40, num_epochs=16, events_per_epoch=200)
    gen, wal, eng = _build(str(tmp_path), spec, max_delta_runs=100)
    real_load = json.load

    def loads_of_one_apply() -> int:
        calls = []
        monkeypatch.setattr(json, "load", lambda f, **kw: calls.append(1) or real_load(f, **kw))
        assert len(eng.apply(wal, max_epochs=1).epochs) == 1
        monkeypatch.undo()
        return len(calls)

    for _ in range(4):
        eng.apply(wal, max_epochs=1)
    after_5 = loads_of_one_apply()
    for _ in range(9):
        eng.apply(wal, max_epochs=1)
    assert loads_of_one_apply() == after_5


def test_event_watermark_after_lost_markers_equals_full_scan(tmp_path):
    """A group whose log record was lost (a crash before it landed) is
    rerun whole: afterwards the lake's records, event-time watermark and
    ``late_upserts`` equal those of a lake that lost nothing, and the
    watermark equals the full scan of the records' partition counters."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    spec = WalSpec(seed=37, num_conversations=40, num_epochs=8, events_per_epoch=300, ooo_fraction=0.3)
    gen = WalGenerator(spec)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    lakes = [
        CdcEngine(LakeConfig.open_or_create(str(tmp_path / name), num_partitions=4))
        for name in ("intact", "lossy")
    ]
    for eng in lakes:
        eng.apply(wal, max_epochs=2)  # group 1 = {0, 1}
        eng.apply(wal, max_epochs=3)  # group 4 = {2, 3, 4}
    lossy = lakes[1]
    _lose_last_record(lossy)
    assert lossy.apply(wal, max_epochs=3).epochs == [2, 3, 4]
    for eng in lakes:
        assert eng.apply(wal, max_epochs=1).epochs == [5]
        assert eng.apply(wal).epochs == [6, 7]

    def ledger(eng):
        return [
            (r["seq"], r["group_id"], r["epochs"], r["partitions"])
            for r in mf.read_log(eng.cfg.path).records
        ]

    assert ledger(lakes[0]) == ledger(lakes[1])
    for eng in lakes:
        log = mf.read_log(eng.cfg.path)
        full = mf.merge_counters(c for r in log.records for c in r["partitions"].values())
        assert log.watermark_us is not None and log.watermark_us == full["max_ts_us"]
    m = [e.metrics() for e in lakes]
    assert m[0]["late_upserts"] == m[1]["late_upserts"] and m[0]["late_upserts"] > 0
    for eng in lakes:
        _assert_equal_state(eng, gen)


def test_live_pids_lists_five_digit_partitions(tmp_path):
    """``mf.partition_dir`` formats ``p={pid:04d}``, which grows to five
    digits at partition 10 000; ``live_pids`` must list those dirs too
    (compact, snapshot, fsck and every consumer iterate it)."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    for pid in (9999, 10000, 10001):
        os.makedirs(mf.partition_dir(eng.cfg.path, pid))
    assert eng.live_pids() == [9999, 10000, 10001]
