"""The lake's one commit log (``state/manifest.py``): a late epoch applied
after a compaction that folded larger group ids, one ledger file per
apply, ledger loads that do not grow with history once a checkpoint is
folded, the per-stage apply report, the typed error on a lake in the
retired per-partition-manifest layout, and an apply that waited for the
lease committing only what is still unapplied.  The persisted indexes
and the consumers commit through the same log."""

import json
import os
import re
import shutil

import pyarrow.compute as pc
import pytest

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig, LakeLayoutError
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state import oracle
from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

SPEC = WalSpec(seed=7, num_conversations=60, num_epochs=5, events_per_epoch=400)


def _assert_oracle(eng, events):
    exp = oracle.replay(events)
    cols = sorted(exp.schema.names)
    assert eng.snapshot_table().select(cols).equals(exp.select(cols))


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


@pytest.mark.parametrize("compaction", ["explicit", "auto"])
def test_late_epoch_after_compaction_equals_oracle(tmp_path, compaction):
    """Epoch 2 is held back while epochs 3 and 4 are applied and folded
    into the bases — by ``compact()``, or by Stage B's auto-compaction
    (``max_delta_runs=1``).  The late group's id is below the bases'
    ``through_group``, yet it commits after them, so its delta is live:
    the snapshot equals the oracle, ``fsck`` lists no live delta as
    reclaimable, and ``vacuum`` leaves the snapshot unchanged."""
    gen = WalGenerator(SPEC)
    full, wal = str(tmp_path / "full"), str(tmp_path / "wal")
    gen.write(full)
    for e in (0, 1, 3, 4):
        shutil.copytree(os.path.join(full, f"epoch={e:06d}"), os.path.join(wal, f"epoch={e:06d}"))
    lake = str(tmp_path / "lake")
    eng = CdcEngine(
        LakeConfig.open_or_create(
            lake, num_partitions=4, max_delta_runs=8 if compaction == "explicit" else 1
        )
    )
    if compaction == "explicit":
        eng.apply(wal)
        eng.compact()
    else:
        for _ in range(4):
            eng.apply(wal, max_epochs=1)
    assert all(mf.live_runs(lake, pid).through_group > 2 for pid in eng.live_pids())

    shutil.copytree(os.path.join(full, "epoch=000002"), os.path.join(wal, "epoch=000002"))
    assert eng.apply(wal).epochs == [2]
    late = {os.path.relpath(mf.delta_path(lake, pid, 2), lake) for pid in eng.live_pids()}
    assert late <= _files(lake)
    _assert_oracle(eng, gen.events_table())
    rep = eng.fsck()
    assert rep["ok"], rep["issues"]
    assert not late & {r["file"] for r in rep["reclaimable"]}
    eng.vacuum()
    assert late <= _files(lake)
    _assert_oracle(eng, gen.events_table())


def test_one_epoch_apply_adds_one_ledger_file(tmp_path):
    """A one-epoch apply on an 8-partition lake writes its data files
    (a delta per partition, rejects on partition 0) and exactly one
    ledger file: its log record."""
    gen = WalGenerator(SPEC)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(lake, num_partitions=8))
    eng.apply(wal, max_epochs=1)
    before = _files(lake)
    assert eng.apply(wal, max_epochs=1).epochs == [1]
    after = _files(lake)
    added = after - before
    data = {f for f in added if re.fullmatch(r"p=\d{4}/(delta|rejects)-000001\.parquet", f)}
    assert len(data) >= 8 and before <= after
    assert added - data == {os.path.relpath(mf.record_path(lake, 2), lake)}
    assert not [f for f in after if re.search(r"manifest-|_epochs|_watermark\.json", f)]


def test_ledger_loads_do_not_grow_after_checkpoint(tmp_path, monkeypatch):
    """Once ``compact()`` has folded a checkpoint, the ledger JSON this
    process loads for ``metrics()``, for a no-op consumer refresh and for
    one ``apply`` — starting from an empty read cache — is the same
    after 3 committed groups as after 12."""
    spec = WalSpec(seed=12, num_conversations=40, num_epochs=16, events_per_epoch=150)
    wal = str(tmp_path / "wal")
    WalGenerator(spec).write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    mv = MaterializedView(eng, str(tmp_path / "view"))
    real_load = json.load

    def loads(fn) -> int:
        calls = []
        monkeypatch.setattr(mf, "_LOGS", {})  # a process that has read nothing
        monkeypatch.setattr(json, "load", lambda f, **kw: calls.append(1) or real_load(f, **kw))
        fn()
        monkeypatch.undo()
        return len(calls)

    def measure() -> tuple[int, int, int]:
        eng.compact()
        mv.refresh()
        noop = loads(mv.refresh)
        assert mv.refresh()["refreshed"] == 0
        return loads(eng.metrics), noop, loads(lambda: eng.apply(wal, max_epochs=1))

    for _ in range(3):
        eng.apply(wal, max_epochs=1)
    first = measure()
    for _ in range(8):
        eng.apply(wal, max_epochs=1)
    assert len(mf.read_log(eng.cfg.path).groups) == 12
    assert measure() == first


def test_apply_report_stage_seconds(tmp_path):
    """``ApplyReport.stage_seconds`` splits the call into ``unit_scan``,
    ``execute`` and ``commit``, which sum to ``seconds`` within 5 %; the
    group's log record stores the same keys."""
    gen = WalGenerator(SPEC)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(lake, num_partitions=4))
    for max_epochs in (1, None):
        rep = eng.apply(wal, max_epochs=max_epochs)
        assert set(rep.stage_seconds) == {"unit_scan", "execute", "commit"}
        assert min(rep.stage_seconds.values()) >= 0
        assert abs(sum(rep.stage_seconds.values()) - rep.seconds) <= 0.05 * rep.seconds
        rec = mf.read_log(lake).records[-1]
        assert rec["epochs"] == rep.epochs
        assert set(rec["stage_seconds"]) == set(rep.stage_seconds)


def test_key_history_of_never_written_key_has_populated_columns(tmp_path):
    """A never-written key's history has the columns of a populated one
    (the lake's ``EVENT_SCHEMA`` plus ``is_winner``), so ``op`` and
    ``epoch`` read as empty columns."""
    gen = WalGenerator(SPEC)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    eng.apply(wal)
    key = gen.events_table()["conv_id"][0].as_py()
    hist = eng.key_history(key)
    none = eng.key_history("c99999999")
    assert hist.num_rows > 0 and pc.any(hist["is_winner"]).as_py()
    assert none.num_rows == 0
    assert [(f.name, f.type) for f in none.schema] == [(f.name, f.type) for f in hist.schema]
    assert none["op"].to_pylist() == none["epoch"].to_pylist() == []


@pytest.mark.parametrize(
    "retired", ["_epochs/epoch-000000.json", "_watermark.json", "p=0000/manifest-000000.json"]
)
def test_old_manifest_layout_raises_lake_layout_error(tmp_path, retired):
    """A lake in the per-partition-manifest layout (any of its ledger
    files, and no commit log) is refused with a typed error, not read as
    an empty lake."""
    lake = str(tmp_path / "lake")
    LakeConfig.open_or_create(lake, num_partitions=4)
    CdcEngine(LakeConfig.load(lake))  # a fresh lake opens
    path = os.path.join(lake, retired)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"group_id": 0, "epochs": [0]}, f)
    with pytest.raises(LakeLayoutError, match="manifest layout"):
        CdcEngine(LakeConfig.load(lake))


def test_apply_rediscovers_under_the_lease(tmp_path, monkeypatch):
    """A writer that waited for the lease applies only what is still
    unapplied once it holds it: the epoch another writer committed
    meanwhile is not committed twice (its counters would count twice)."""
    from nyc_taxi_data_pipeline_ray import engine as E

    gen = WalGenerator(SPEC)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(lake, num_partitions=4))
    other = CdcEngine(LakeConfig.load(lake))
    real_enter = E._LakeLease.__enter__
    raced = []

    def enter(lease):
        if not raced:  # the other writer takes the lease first and commits epoch 0
            raced.append(None)
            raced[0] = other.apply(wal, max_epochs=1)
        return real_enter(lease)

    monkeypatch.setattr(E._LakeLease, "__enter__", enter)
    rep = eng.apply(wal, max_epochs=1)
    assert raced[0].epochs == [0] and rep.epochs == [1]
    assert [g for g in mf.read_log(lake).groups] == [0, 1]
    events = gen.events_table()
    first_two = events.filter(pc.less_equal(events["epoch"], 1))
    assert eng.metrics()["rows_in"] == first_two.num_rows
    _assert_oracle(eng, first_two)


def test_vacuum_reclaims_orphans_of_a_group_rerun_under_another_id(tmp_path):
    """A group cut before its record (epochs 0-1, id 1) and rerun with a
    later epoch (id 2) leaves its delta and rejects files uncommitted:
    ``fsck`` lists both kinds as orphans and ``vacuum`` removes them."""
    spec = WalSpec(seed=33, num_conversations=40, num_epochs=3, events_per_epoch=300, invalid_fraction=0.05)
    gen = WalGenerator(spec)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    for e in (0, 1):
        gen.write_epoch(wal, e)
    eng = CdcEngine(LakeConfig.open_or_create(lake, num_partitions=4))
    eng.apply(wal)
    os.remove(mf.record_path(lake, mf.read_log(lake).seq))
    gen.write_epoch(wal, 2)
    assert eng.apply(wal).epochs == [0, 1, 2]
    kinds = {r["kind"] for r in eng.fsck()["reclaimable"]}
    assert kinds == {"orphan_delta", "orphan_rejects"}
    eng.vacuum()
    assert not {f for f in _files(lake) if re.search(r"-000001\.parquet$", f)}
    assert eng.fsck()["reclaimable"] == []
    _assert_oracle(eng, gen.events_table())


def _json_outside_log(root: str) -> list[str]:
    return sorted(
        f for f in _files(root) if f.endswith(".json") and not f.startswith("_log" + os.sep)
    )


def test_index_and_consumer_commit_through_the_log(tmp_path, monkeypatch):
    """An index's adds, deletes and compaction and a consumer's refreshes
    write no marker files: the only JSON outside ``_log/`` is the
    index's ``meta.json``, and the index's ``_log/`` holds one
    checkpoint (at the fold's ``through_segment``) plus the records
    above it; a consumer's holds the checkpoint of its last refresh.  A
    consumer's no-op refresh from a warm cache loads no JSON."""
    import pyarrow as pa
    import ray.data as rd

    from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

    docs = pa.table(
        {"doc_id": pa.array(range(12), pa.int64()), "text": [f"doc {i} " * 5 for i in range(12)]}
    )
    idx = MinHashIndex(str(tmp_path / "idx"), num_perm=16, bands=4, num_buckets=2)
    idx.add(rd.from_arrow(docs.slice(0, 6)), segment_id=0)
    idx.add(rd.from_arrow(docs.slice(6)), segment_id=1)
    idx.delete([1, 2], segment_id=2)
    assert idx.compact()["through_segment"] == 2
    idx.add(rd.from_arrow(docs.slice(0, 2)), segment_id=3)
    assert _json_outside_log(idx.path) == ["meta.json"]
    assert sorted(os.listdir(os.path.join(idx.path, "_log"))) == [
        os.path.basename(mf.checkpoint_path(idx.path, 2)),
        os.path.basename(mf.record_path(idx.path, 3)),
    ]
    assert idx.segments() == [0, 1, 2, 3] and idx.ledger.base() == (1, 2)

    gen = WalGenerator(SPEC)
    wal = str(tmp_path / "wal")
    gen.write(wal)
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    mv = MaterializedView(eng, str(tmp_path / "view"))
    eng.apply(wal, max_epochs=2)
    mv.refresh()
    eng.apply(wal)
    mv.refresh()
    assert _json_outside_log(mv.path) == []
    assert os.listdir(os.path.join(mv.path, "_log")) == [
        os.path.basename(mf.checkpoint_path(mv.path, 2))  # one checkpoint per refresh
    ]
    real_load, loaded = json.load, []
    monkeypatch.setattr(json, "load", lambda f, **kw: loaded.append(f.name) or real_load(f, **kw))
    assert mv.refresh()["refreshed"] == 0
    assert loaded == []


@pytest.mark.parametrize(
    "kind, retired",
    [("index", "seg-000000.json"), ("index", "base-000001.json"), ("view", "p=0000.json")],
)
def test_retired_marker_layouts_raise_the_layout_error(tmp_path, kind, retired):
    """An index or a consumer directory in the retired marker layout (no
    ``_log/``, per-segment, per-base or per-partition JSON markers) is
    refused with the lake's typed error, not read as empty."""
    from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

    path = str(tmp_path / kind)
    os.makedirs(path)
    with open(os.path.join(path, retired), "w") as f:
        json.dump({"watermark": 0}, f)
    with pytest.raises(LakeLayoutError, match="manifest layout"):
        if kind == "index":
            MinHashIndex(path)
        else:
            eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
            MaterializedView(eng, path)
