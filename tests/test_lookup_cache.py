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


def _write_epoch(wal: str, epoch: int, rows: list[tuple]) -> None:
    """One WAL epoch of ``(conv_id, turn_idx, ts, lsn, op, text)`` rows."""
    d = os.path.join(wal, f"epoch={epoch:06d}")
    os.makedirs(d)
    t = pa.table(
        {
            "lsn": pa.array([r[3] for r in rows], pa.int64()),
            "op": pa.array([r[4] for r in rows], pa.string()),
            "epoch": pa.array([epoch] * len(rows), pa.int32()),
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([None if r[4] == "delete" else "user" for r in rows], pa.string()),
            "text": pa.array([r[5] for r in rows], pa.string()),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, os.path.join(d, "part-0000.parquet"))


def test_lookup_across_group_boundary_and_stale_delta(tmp_path, monkeypatch):
    """A conversation whose base rows cross row-group boundaries, with
    rows in two deltas; the newer delta holds updates with an older
    ``(ts, lsn)`` than the base's or the older delta's row, which must
    lose.  Single and bulk lookups and ``key_history`` equal the oracle
    on a cold and on a warm cache."""
    wal = os.path.join(str(tmp_path), "wal")
    base = [("j", t, 100 + t, t, "insert", f"j{t}") for t in range(5)]
    base += [("k", t, 100 + t, 10 + t, "insert", f"k{t}") for t in range(20)]
    base += [("m", t, 100 + t, 40 + t, "insert", f"m{t}") for t in range(5)]
    _write_epoch(wal, 0, base)
    _write_epoch(
        wal,
        1,
        [
            ("k", 3, 2000, 100, "update", "k3-new"),
            ("k", 9, 2000, 101, "update", "k9-new"),
            ("k", 5, 2000, 102, "delete", None),
            ("k", 20, 2000, 103, "insert", "k20"),
            ("m", 1, 2000, 104, "update", "m1-new"),
        ],
    )
    _write_epoch(
        wal,
        2,
        [
            ("k", 9, 1500, 200, "update", "k9-stale"),  # loses to epoch 1
            ("k", 3, 50, 201, "update", "k3-stale"),  # loses to epoch 1
            ("k", 7, 50, 202, "update", "k7-stale"),  # loses to the base
            ("k", 12, 3000, 203, "update", "k12-new"),
        ],
    )
    eng = CdcEngine(
        LakeConfig.open_or_create(
            os.path.join(str(tmp_path), "lake"), num_partitions=1, base_row_group_rows=8
        )
    )
    eng.apply(wal, max_epochs=1)
    eng.compact()
    eng.apply(wal, max_epochs=1)
    eng.apply(wal)
    base_path, *deltas = E._partition_run_paths(eng.cfg.path, 0)
    assert len(deltas) == 2
    assert pq.ParquetFile(base_path).metadata.num_row_groups >= 4
    _, read, _ = E.read_run_pruned(base_path, ["k"])
    assert read >= 3  # "k" spans three groups of 8 rows

    events = pa.concat_tables(
        [pq.read_table(os.path.join(wal, f"epoch={e:06d}")) for e in range(3)],
        promote_options="default",
    )
    exp = oracle.replay(events)
    want_k = _want(exp, "k")
    assert want_k.filter(pc.equal(want_k["turn_idx"], 9))["text"].to_pylist() == ["k9-new"]
    for cache in ("cold", "warm"):
        if cache == "cold":
            monkeypatch.setattr(E, "_LOOKUP_CACHE", E._RunCache(E._LOOKUP_CACHE_BYTES))
        for key in ("j", "k", "m"):
            assert _same_rows(eng.get_conversation(key), _want(exp, key)), (cache, key)
        bulk = pa.concat_tables(
            list(eng.get_conversations(["k", "m", "zz"]).iter_batches(batch_format="pyarrow"))
        ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        assert _same_rows(bulk, exp.filter(pc.is_in(exp["conv_id"], value_set=pa.array(["k", "m"]))))
        hist = eng.key_history("k")
        assert hist.num_rows == 20 + 4 + 4  # base, delta 1 (k rows), delta 2
        wins = hist.filter(hist["is_winner"])
        assert wins["turn_idx"].to_pylist() == list(range(21))
        live = wins.filter(pc.not_equal(wins["op"], "delete"))
        assert _same_rows(live.select(want_k.schema.names), want_k), cache
        keys = list(zip(hist["turn_idx"].to_pylist(), hist["ts"].to_pylist(), hist["lsn"].to_pylist()))
        assert keys == sorted(keys)


def test_bloom_probed_only_on_cold_reads(tmp_path, monkeypatch):
    """A warm lookup probes no bloom and stats no sidecar path; a cold
    lookup of a never-written key asks the base's bloom and decodes
    none of the base's groups."""
    spec = WalSpec(seed=45, num_conversations=60, num_epochs=4, events_per_epoch=500)
    gen = WalGenerator(spec)
    wal = os.path.join(str(tmp_path), "wal")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(os.path.join(str(tmp_path), "lake"), num_partitions=1))
    eng.apply(wal, max_epochs=2)
    eng.compact()
    eng.apply(wal, max_epochs=1)
    eng.apply(wal)  # base + two deltas
    base_path, *deltas = E._partition_run_paths(eng.cfg.path, 0)
    assert len(deltas) == 2 and os.path.exists(E._bloom_path(base_path))
    exp = oracle.replay(gen.events_table())
    key = exp["conv_id"][0].as_py()
    ghost = key + "-ghost"  # inside the base's key range, never written

    monkeypatch.setattr(E, "_LOOKUP_CACHE", E._RunCache(E._LOOKUP_CACHE_BYTES))
    probes, stats = [], []
    real_probe, real_stat = E._bloom_filter_keys, os.stat
    monkeypatch.setattr(E, "_bloom_filter_keys", lambda p, k: probes.append(p) or real_probe(p, k))
    monkeypatch.setattr(os, "stat", lambda p, *a, **kw: stats.append(str(p)) or real_stat(p, *a, **kw))

    def base_groups() -> int:
        return sum(1 for k in E._LOOKUP_CACHE._lru if k[0][0] == base_path and isinstance(k[1], int))

    # cold ghost: the bloom rules the base out before its footer is read
    assert eng.get_conversation(ghost).num_rows == 0
    assert probes == [base_path] and base_groups() == 0
    assert not [p for p in stats if p.endswith(".bloom.npy") and "delta-" in p]

    # cold real key: one probe, the base's groups decoded
    probes.clear()
    got = eng.get_conversation(key)
    assert _same_rows(got, _want(exp, key))
    assert probes == [base_path] and base_groups() > 0

    # warm: no probe, no sidecar stat, nothing decoded
    probes.clear()
    stats.clear()
    misses = E.lookup_cache_stats()["misses"]
    assert eng.get_conversation(key).equals(got)
    assert probes == [] and not [p for p in stats if p.endswith(".bloom.npy")]
    assert E.lookup_cache_stats()["misses"] == misses

    # a ghost after the base is warm still decodes no base group
    before = base_groups()
    assert eng.get_conversation(ghost).num_rows == 0
    assert base_groups() == before
