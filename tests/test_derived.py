"""DerivedTable: row-level incrementally-maintained derived table (the
dbt incremental-model analog, ``fct_trips.sql``/``obt_trips.sql``).
Pins (a) equality vs transform(full snapshot) under a random op mix,
(b) the row-level incrementality witness (second refresh transforms
only the changed rows), (c) delete propagation, (d) crash-resume
idempotency, (e) full-rebuild fallback when history is compacted away."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state.derived import DerivedTable, enrich_turns

SPEC = WalSpec(
    seed=23,
    num_conversations=100,
    num_epochs=3,
    events_per_epoch=900,
    p_update=0.3,
    p_delete=0.1,
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
    dt = DerivedTable(eng, os.path.join(tmp, "derived"), enrich_turns)
    return wal, eng, dt


def _expected(eng) -> pa.Table:
    return (
        enrich_turns(eng.snapshot_table())
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        .combine_chunks()
    )


def test_derived_equals_full_transform(tmp_path):
    wal, eng, dt = _build(str(tmp_path))
    eng.apply(wal)
    r = dt.refresh()
    assert r["refreshed"] == 4 and r["rows"] == dt.table().num_rows
    assert dt.table().equals(_expected(eng))


def test_derived_row_level_incrementality_and_deletes(tmp_path):
    """After a tiny targeted second epoch, refresh transforms only the
    touched keys — not the table — and propagates the delete."""
    wal, eng, dt = _build(str(tmp_path))
    eng.apply(wal)
    dt.refresh()
    before = dt.table()

    # hand-written epoch: one update + one delete on known keys
    live = eng.snapshot_table()
    k_upd = (live["conv_id"][0].as_py(), live["turn_idx"][0].as_py())
    k_del = (live["conv_id"][-1].as_py(), live["turn_idx"][-1].as_py())
    max_lsn = pc.max(live["lsn"]).as_py()
    max_ts = pc.max(live["ts"]).as_py()
    ep = pa.table(
        {
            "lsn": pa.array([max_lsn + 1, max_lsn + 2], pa.int64()),
            "op": pa.array(["update", "delete"]),
            "epoch": pa.array([SPEC.num_epochs] * 2, pa.int32()),
            "conv_id": pa.array([k_upd[0], k_del[0]]),
            "turn_idx": pa.array([k_upd[1], k_del[1]], pa.int32()),
            "role": pa.array(["assistant", None]),
            "text": pa.array(["PATCHED TEXT", None]),
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([max_ts, max_ts], pa.timestamp("us")),
        }
    )
    d = os.path.join(str(tmp_path), "wal", f"epoch={SPEC.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ep, os.path.join(d, "part-0000.parquet"))
    eng.apply(wal)

    r = dt.refresh()
    # winner changed for at most the 2 touched keys; the delete's key
    # is gone from current state so only the update row is transformed
    assert r["transformed_rows"] <= 2, r
    assert r["reused"] >= 1 or eng.cfg.num_partitions == r["refreshed"]
    after = dt.table()
    assert after.equals(_expected(eng))
    assert after.num_rows == before.num_rows - 1
    patched = after.filter(
        pc.and_(
            pc.equal(after["conv_id"], k_upd[0]),
            pc.equal(after["turn_idx"], pa.scalar(k_upd[1], pa.int32())),
        )
    )
    assert patched["text_upper"][0].as_py() == "PATCHED TEXT"
    keys_del = after.filter(
        pc.and_(
            pc.equal(after["conv_id"], k_del[0]),
            pc.equal(after["turn_idx"], pa.scalar(k_del[1], pa.int32())),
        )
    )
    assert keys_del.num_rows == 0
    assert dt.refresh()["refreshed"] == 0  # noop on unchanged ledger


def test_derived_crash_resume_idempotent(tmp_path):
    """Data files written but their commit record lost (crash between
    the two writes): re-refresh re-patches to identical state."""
    wal, eng, dt = _build(str(tmp_path))
    eng.apply(wal, max_epochs=1)
    dt.refresh()
    first = mf.checkpoint_path(dt.ledger.path, 1)
    committed = open(first).read()
    eng.apply(wal)
    second = dt.refresh()["refreshed"]
    expected = dt.table()
    # simulate the crash: the log rolls back to the first refresh's
    # checkpoint while the second refresh's data files stay current
    os.remove(mf.checkpoint_path(dt.ledger.path, 2))
    with open(first, "w") as f:
        f.write(committed)
    r = dt.refresh()
    assert r["refreshed"] == second
    assert dt.table().equals(expected)


def test_derived_full_rebuild_below_compaction_watermark(tmp_path):
    """Compaction folds the diff history away -> the stale partition
    falls back to a full rebuild and still converges."""
    wal, eng, dt = _build(str(tmp_path))
    eng.apply(wal, max_epochs=1)
    dt.refresh()
    eng.apply(wal)
    eng.compact()
    r = dt.refresh()
    assert r["refreshed"] == 4
    assert dt.table().equals(_expected(eng))


def _expected_corpus(eng) -> "pa.Table":
    from nyc_taxi_data_pipeline_ray.state.derived import render_conversations

    return (
        render_conversations(eng.snapshot_table())
        .sort_by([("conv_id", "ascending")])
        .combine_chunks()
    )


def test_corpus_table_incremental_refresh(tmp_path):
    """Group-granular incremental corpus refresh: equality vs a full
    render, only touched conversations re-rendered, deletes drop the
    document, noop on an unchanged ledger."""
    from nyc_taxi_data_pipeline_ray.state.derived import CorpusTable

    wal, eng, _ = _build(str(tmp_path))
    ct = CorpusTable(eng, os.path.join(str(tmp_path), "corpus"))
    eng.apply(wal, max_epochs=1)
    ct.refresh()
    eng.apply(wal)
    r = ct.refresh()
    assert r["rows"] == ct.table().num_rows
    assert ct.table().equals(_expected_corpus(eng))

    # tiny targeted epoch: 1 update + 1 whole-conversation delete
    live = eng.snapshot_table()
    k_upd = (live["conv_id"][0].as_py(), live["turn_idx"][0].as_py())
    # delete EVERY turn of the last conversation so its doc disappears
    del_conv = live["conv_id"][-1].as_py()
    del_rows = live.filter(pc.equal(live["conv_id"], del_conv))
    max_lsn = pc.max(live["lsn"]).as_py()
    max_ts = pc.max(live["ts"]).as_py()
    n_del = del_rows.num_rows
    ep = pa.table(
        {
            "lsn": pa.array(
                list(range(max_lsn + 1, max_lsn + 2 + n_del)), pa.int64()
            ),
            "op": pa.array(["update"] + ["delete"] * n_del),
            "epoch": pa.array([SPEC.num_epochs] * (1 + n_del), pa.int32()),
            "conv_id": pa.array([k_upd[0]] + [del_conv] * n_del),
            "turn_idx": pa.array(
                [k_upd[1]] + del_rows["turn_idx"].to_pylist(), pa.int32()
            ),
            "role": pa.array(["assistant"] + [None] * n_del),
            "text": pa.array(["REWRITTEN"] + [None] * n_del),
            "tool": pa.array([None] * (1 + n_del), pa.string()),
            "ts": pa.array([max_ts] * (1 + n_del), pa.timestamp("us")),
        }
    )
    d = os.path.join(str(tmp_path), "wal", f"epoch={SPEC.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ep, os.path.join(d, "part-0000.parquet"))
    eng.apply(wal)

    before_rows = ct.table().num_rows
    r = ct.refresh()
    # only the touched conversations re-rendered (update conv; the
    # deleted conv contributes no current rows)
    assert r["rendered_convs"] <= 2, r
    after = ct.table()
    assert after.equals(_expected_corpus(eng))
    assert after.num_rows == before_rows - 1  # deleted conv's doc gone
    got = after.filter(pc.equal(after["conv_id"], k_upd[0]))
    assert "REWRITTEN" in got["doc"][0].as_py()
    assert after.filter(pc.equal(after["conv_id"], del_conv)).num_rows == 0
    assert ct.refresh()["refreshed"] == 0


def test_derived_and_corpus_property_random_shapes(tmp_path_factory):
    """Property-style: across random op mixes, epoch-at-a-time
    incremental refreshes of BOTH derived tables (row-level enrichment,
    group-level corpus) equal their from-scratch transforms."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from nyc_taxi_data_pipeline_ray.state.derived import (
        CorpusTable,
        render_conversations,
    )

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
        tmp = str(tmp_path_factory.mktemp(f"dtprop{seed % 100000}"))
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
        dt = DerivedTable(eng, os.path.join(tmp, "derived"), enrich_turns)
        ct = CorpusTable(eng, os.path.join(tmp, "corpus"))
        eng.apply(wal, max_epochs=1)
        dt.refresh()
        ct.refresh()
        eng.apply(wal)
        dt.refresh()
        ct.refresh()
        snap = eng.snapshot_table()
        assert dt.table().equals(
            enrich_turns(snap)
            .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
            .combine_chunks()
        )
        assert ct.table().equals(
            render_conversations(snap).sort_by([("conv_id", "ascending")]).combine_chunks()
        )

    inner()


def test_consumers_on_resharded_lake(tmp_path):
    """Reshard, then run every incremental consumer against the NEW
    lake: matview, derived table, corpus table, and secondary index
    must all equal their counterparts computed on the source lake —
    the consumer stack is partition-layout independent."""
    from nyc_taxi_data_pipeline_ray.state.derived import (
        CorpusTable,
        render_conversations,
    )
    from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView
    from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

    wal, eng, _ = _build(str(tmp_path))
    eng.apply(wal)
    eng2 = eng.reshard(os.path.join(str(tmp_path), "lake6"), 6)

    mv = MaterializedView(eng2, os.path.join(str(tmp_path), "view6"))
    mv.refresh()
    dt = DerivedTable(eng2, os.path.join(str(tmp_path), "derived6"), enrich_turns)
    dt.refresh()
    ct = CorpusTable(eng2, os.path.join(str(tmp_path), "corpus6"))
    ct.refresh()
    idx = SecondaryIndex(eng2, os.path.join(str(tmp_path), "toolidx6"), "tool")
    idx.refresh()

    snap = eng.snapshot_table()
    assert dt.table().equals(
        enrich_turns(snap)
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        .combine_chunks()
    )
    assert ct.table().equals(
        render_conversations(snap).sort_by([("conv_id", "ascending")]).combine_chunks()
    )
    tools = sorted({t for t in snap["tool"].to_pylist() if t})
    hits = idx.lookup_stats(tools)
    want = snap.filter(pc.is_in(snap["tool"], value_set=pa.array(tools))).num_rows
    assert hits["hits"] == want
    # a further epoch applied to the resharded lake refreshes
    # incrementally (reused > 0 when the epoch misses some partitions)
    assert mv.refresh()["refreshed"] == 0  # noop right after


def test_consumers_after_backfill_and_purge(tmp_path):
    """Corrections and retention travel through the CDC path, so every
    incremental consumer converges after a backfill (redact texts) and
    a TTL purge — each refresh is incremental (ledger-driven), and the
    final states equal from-scratch transforms of the post-op lake."""
    import pyarrow.compute as _pc

    from nyc_taxi_data_pipeline_ray.state.derived import (
        CorpusTable,
        render_conversations,
    )
    from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

    wal, eng, dt = _build(str(tmp_path))
    ct = CorpusTable(eng, os.path.join(str(tmp_path), "corpus"))
    idx = SecondaryIndex(eng, os.path.join(str(tmp_path), "toolidx"), "tool")
    eng.apply(wal)
    dt.refresh(); ct.refresh(); idx.refresh()

    # backfill: redact every user turn's text
    def redact(t):
        hit = t.filter(_pc.equal(t["role"], "user"))
        return hit.set_column(
            hit.schema.get_field_index("text"),
            "text",
            pa.array(["[REDACTED]"] * hit.num_rows, pa.string()),
        )

    max_ts = _pc.max(eng.snapshot_table()["ts"]).as_py()
    import datetime as _dt

    eng.backfill(wal, redact, ts=max_ts + _dt.timedelta(seconds=1))
    r = dt.refresh()
    assert r["refreshed"] >= 1
    snap = eng.snapshot_table()
    from nyc_taxi_data_pipeline_ray.state.derived import enrich_turns as _et

    assert dt.table().equals(
        _et(snap).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]).combine_chunks()
    )
    user_rows = dt.table().filter(pc.equal(dt.table()["role"], "user"))
    assert set(user_rows["text_upper"].to_pylist()) == {"[REDACTED]"}

    # purge: tombstone everything older than the median ts
    cutoff = sorted(snap["ts"].to_pylist())[snap.num_rows // 2]
    eng.purge(wal, older_than=cutoff)
    dt.refresh(); ct.refresh(); idx.refresh()
    snap2 = eng.snapshot_table()
    assert snap2.num_rows < snap.num_rows
    assert dt.table().num_rows == snap2.num_rows
    assert ct.table().equals(
        render_conversations(snap2).sort_by([("conv_id", "ascending")]).combine_chunks()
    )
    tools = sorted({t for t in snap2["tool"].to_pylist() if t})
    if tools:
        st = idx.lookup_stats(tools)
        want = snap2.filter(pc.is_in(snap2["tool"], value_set=pa.array(tools))).num_rows
        assert st["hits"] == want


def test_takedown_propagates_corpus_to_dedup_index(tmp_path):
    """End-to-end takedown loop: a whole-conversation CDC delete drops
    the corpus document (CorpusTable diff), and tombstoning the removed
    doc ids out of the persisted dedup index (MinHashIndex.delete)
    makes an exact-copy probe stop matching it — while live documents
    keep matching.  This is the GDPR/retention path: lake -> corpus ->
    derived index, every link incremental."""
    import numpy as np
    import ray.data as rd

    from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex
    from nyc_taxi_data_pipeline_ray.state.derived import CorpusTable

    wal, eng, _ = _build(str(tmp_path))
    ct = CorpusTable(eng, os.path.join(str(tmp_path), "corpus"))
    eng.apply(wal)
    ct.refresh()
    before = ct.table()
    conv_ids = sorted(before["conv_id"].to_pylist())
    doc_id_of = {c: i for i, c in enumerate(conv_ids)}

    idx = MinHashIndex(os.path.join(str(tmp_path), "idx"))
    idx.add(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(
                        [doc_id_of[c] for c in before["conv_id"].to_pylist()],
                        pa.int64(),
                    ),
                    "text": before["doc"],
                }
            )
        ),
        segment_id=0,
    )

    # whole-conversation delete epoch for the last conversation
    live = eng.snapshot_table()
    del_conv = live["conv_id"][-1].as_py()
    del_rows = live.filter(pc.equal(live["conv_id"], del_conv))
    max_lsn = pc.max(live["lsn"]).as_py()
    max_ts = pc.max(live["ts"]).as_py()
    n_del = del_rows.num_rows
    ep = pa.table(
        {
            "lsn": pa.array(
                list(range(max_lsn + 1, max_lsn + 1 + n_del)), pa.int64()
            ),
            "op": pa.array(["delete"] * n_del),
            "epoch": pa.array([SPEC.num_epochs] * n_del, pa.int32()),
            "conv_id": pa.array([del_conv] * n_del),
            "turn_idx": pa.array(del_rows["turn_idx"].to_pylist(), pa.int32()),
            "role": pa.array([None] * n_del, pa.string()),
            "text": pa.array([None] * n_del, pa.string()),
            "tool": pa.array([None] * n_del, pa.string()),
            "ts": pa.array([max_ts] * n_del, pa.timestamp("us")),
        }
    )
    d = os.path.join(str(tmp_path), "wal", f"epoch={SPEC.num_epochs:06d}")
    os.makedirs(d)
    pq.write_table(ep, os.path.join(d, "part-0000.parquet"))
    eng.apply(wal)
    ct.refresh()
    after = ct.table()

    removed = set(before["conv_id"].to_pylist()) - set(after["conv_id"].to_pylist())
    assert del_conv in removed
    rep = idx.delete(
        np.array(sorted(doc_id_of[c] for c in removed), np.int64), segment_id=1
    )
    assert rep["skipped"] is False

    # probing the deleted conversation's ORIGINAL document text finds
    # nothing pointing at it; a live document still matches itself
    victim_doc = before.filter(pc.equal(before["conv_id"], del_conv))["doc"][0].as_py()
    live_conv = after["conv_id"][0].as_py()
    live_doc = after.filter(pc.equal(after["conv_id"], live_conv))["doc"][0].as_py()
    pairs = idx.probe(
        rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([10_000_000, 10_000_001], pa.int64()),
                    "text": pa.array([victim_doc, live_doc]),
                }
            )
        ),
        threshold=0.5,
    )
    hit = set(pairs["indexed_doc"])
    assert doc_id_of[del_conv] not in hit
    assert doc_id_of[live_conv] in hit
    # physical removal
    idx.compact()
    import glob

    stored = set()
    for f in glob.glob(os.path.join(idx.path, "base-*", "bucket=*.parquet")):
        stored |= set(pq.read_table(f)["doc_id"].to_pylist())
    assert doc_id_of[del_conv] not in stored
