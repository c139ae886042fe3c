"""The point-lookup cache (``engine._RunCache``): decoded row groups,
footer bounds and bloom bits of write-once lake runs, keyed by the
file's stat identity.  Pins (a) a repeated lookup decodes nothing,
(b) compaction's folded runs leave the cache at the next lookup of
their partition, (c) a lake rebuilt at the same path never serves the
old rows, (d) a consumer's rewritten ``p=NNNN.parquet`` is never
cached, (e) a follow-style loop with auto-compaction equals the
oracle on every lookup."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray import engine as E
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state import oracle
from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex


def _lake(tmp, spec, **cfg):
    gen = WalGenerator(spec)
    wal = os.path.join(tmp, "wal")
    shutil.rmtree(wal, ignore_errors=True)
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4, **cfg)
    )
    return gen, wal, eng


def _want(state: pa.Table, key: str) -> pa.Table:
    return state.filter(pc.equal(state["conv_id"], key)).sort_by("turn_idx")


def _same_rows(got: pa.Table, want: pa.Table) -> bool:
    cols = sorted(want.schema.names)
    return got.num_rows == want.num_rows and got.select(cols).equals(want.select(cols))


def _pid(eng, key: str) -> int:
    return int(E.hash_partition_ids(pa.array([key]), eng.cfg.num_partitions)[0])


def test_repeat_lookup_decodes_nothing(tmp_path, monkeypatch):
    """A second lookup of the same key, with no commit in between,
    misses nothing in the cache and opens no Parquet file."""
    spec = WalSpec(seed=41, num_conversations=60, num_epochs=3, events_per_epoch=600)
    gen, wal, eng = _lake(str(tmp_path), spec)
    eng.apply(wal, max_epochs=2)
    eng.compact()
    eng.apply(wal)  # base + one live delta per partition
    key = eng.snapshot_table()["conv_id"][0].as_py()

    first = eng.get_conversation(key)
    before = E.lookup_cache_stats()
    assert before["entries"] > 0 and before["bytes"] > 0

    opens = []
    real = pq.ParquetFile
    monkeypatch.setattr(pq, "ParquetFile", lambda *a, **kw: opens.append(a) or real(*a, **kw))
    again = eng.get_conversation(key)
    after = E.lookup_cache_stats()

    assert again.equals(first)
    assert after["misses"] == before["misses"], (before, after)
    assert after["hits"] > before["hits"]
    assert opens == []
    assert _same_rows(again, _want(oracle.replay(gen.events_table()), key))


def test_compaction_evicts_folded_runs(tmp_path):
    """After ``compact()`` and one lookup into a partition, the cache
    holds no entry of that partition's folded runs."""
    spec = WalSpec(seed=43, num_conversations=60, num_epochs=3, events_per_epoch=600)
    gen, wal, eng = _lake(str(tmp_path), spec)
    for _ in range(spec.num_epochs):
        eng.apply(wal, max_epochs=1)
    keys = sorted(set(eng.snapshot_table()["conv_id"].to_pylist()))
    for k in keys:
        eng.get_conversation(k)
    key = keys[0]
    pdir = mf.partition_dir(eng.cfg.path, _pid(eng, key))
    folded = {f for f in E._LOOKUP_CACHE.files() if os.path.dirname(f) == pdir}
    assert len(folded) >= spec.num_epochs  # one entry per delta run at least

    assert eng.compact() > 0
    got = eng.get_conversation(key)
    cached = {f for f in E._LOOKUP_CACHE.files() if os.path.dirname(f) == pdir}
    assert cached and not cached & folded, (cached, folded)
    live = E._partition_run_paths(eng.cfg.path, _pid(eng, key))
    assert cached <= set(live) | {E._bloom_path(p) for p in live}
    assert _same_rows(got, _want(oracle.replay(gen.events_table()), key))


def test_rebuilt_lake_at_same_path_serves_new_rows(tmp_path):
    """Delete a lake and rebuild it at the same path from a different
    WAL, in one process: every file name recurs, yet lookups return the
    new rows."""
    tmp = str(tmp_path)
    old_spec = WalSpec(seed=45, num_conversations=50, num_epochs=2, events_per_epoch=500)
    gen, wal, eng = _lake(tmp, old_spec)
    eng.apply(wal, max_epochs=1)
    eng.compact()
    eng.apply(wal)
    keys = sorted(set(eng.snapshot_table()["conv_id"].to_pylist()))
    for k in keys:
        eng.get_conversation(k)
    old_files = E._LOOKUP_CACHE.files()

    shutil.rmtree(eng.cfg.path)
    new_spec = WalSpec(seed=46, num_conversations=50, num_epochs=2, events_per_epoch=500)
    gen, wal, eng = _lake(tmp, new_spec)
    eng.apply(wal, max_epochs=1)
    eng.compact()
    eng.apply(wal)
    exp = oracle.replay(gen.events_table())
    assert {os.path.basename(f) for f in old_files} & {
        os.path.basename(p)
        for pid in eng.live_pids()
        for p in E._partition_run_paths(eng.cfg.path, pid)
    }, "the rebuilt lake reuses the old run names"
    for k in keys:
        assert _same_rows(eng.get_conversation(k), _want(exp, k)), k
    bulk = pa.concat_tables(
        b for b in eng.get_conversations(keys).iter_batches(batch_format="pyarrow") if b.num_rows
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    want = exp.filter(pc.is_in(exp["conv_id"], value_set=pa.array(keys)))
    assert _same_rows(bulk, want)


def test_secondary_index_rewrite_is_never_cached(tmp_path):
    """A consumer file ``p=NNNN.parquet`` gets new bytes under the same
    name on each refresh: a lookup after the rewrite returns the new
    content, and no consumer file ever enters the lookup cache."""
    spec = WalSpec(
        seed=47, num_conversations=80, num_epochs=3, events_per_epoch=800, p_update=0.4
    )
    gen, wal, eng = _lake(str(tmp_path), spec)
    idx = SecondaryIndex(eng, os.path.join(str(tmp_path), "toolidx"), "tool")

    def check():
        snap = eng.snapshot_table()
        tools = sorted({t for t in snap["tool"].to_pylist() if t})
        want = snap.filter(pc.is_in(snap["tool"], value_set=pa.array(tools)))
        assert idx.lookup_stats(tools)["hits"] == want.num_rows
        got = pa.concat_tables(
            b for b in idx.lookup(tools).iter_batches(batch_format="pyarrow") if b.num_rows
        )
        assert got.num_rows == want.num_rows
        return {(r["conv_id"], r["turn_idx"], r["value"]) for r in got.to_pylist()}

    eng.apply(wal, max_epochs=1)
    idx.refresh()
    first = check()
    eng.apply(wal)
    assert idx.refresh()["refreshed"] > 0
    assert check() != first
    assert not {f for f in E._LOOKUP_CACHE.files() if f.startswith(idx.path)}


def test_follow_loop_lookups_equal_oracle(tmp_path):
    """apply -> lookups -> compact, with Stage-B auto-compaction firing
    in between: every lookup (single, bulk and key history winners)
    equals the oracle replay of the epochs applied so far."""
    spec = WalSpec(
        seed=49, num_conversations=40, num_epochs=9, events_per_epoch=300, p_delete=0.1
    )
    gen, wal, eng = _lake(str(tmp_path), spec, max_delta_runs=2)
    events = gen.events_table()
    keys = [f"c{i:08d}" for i in range(0, spec.num_conversations, 3)] + ["c99999999"]
    for e in range(spec.num_epochs):
        assert eng.apply(wal, max_epochs=1).epochs == [e]
        exp = oracle.replay(events.filter(pc.less_equal(events["epoch"], e)))
        for k in keys:
            want = _want(exp, k)
            assert _same_rows(eng.get_conversation(k), want), (e, k)
            live = [
                r["turn_idx"]
                for r in eng.key_history(k).to_pylist()
                if r["is_winner"] and r.get("op") != "delete"
            ]
            assert sorted(live) == want["turn_idx"].to_pylist(), (e, k)
        bulk = [b for b in eng.get_conversations(keys).iter_batches(batch_format="pyarrow")]
        bulk = pa.concat_tables([b for b in bulk if b.num_rows] or bulk[:1])
        want = exp.filter(pc.is_in(exp["conv_id"], value_set=pa.array(keys)))
        assert _same_rows(bulk.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]), want), e
        if e % 3 == 2:
            eng.compact()
    assert max(mf.current_base(eng.cfg.path, p) or (0,) for p in eng.live_pids())[0] > 0
    assert eng.fsck()["ok"]
