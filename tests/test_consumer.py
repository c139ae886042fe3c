"""The consumer ledger (state/consumer.py) behind every incremental
consumer: one protocol test run against each of them.  A refresh cut
before its commit re-runs only the partitions it rebuilt, a corrupt log
makes every partition stale, a refresh with nothing new rebuilds
nothing, and every recovered output equals a from-scratch build of the
same consumer."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state.derived import (
    CorpusTable,
    DerivedTable,
    enrich_turns,
)
from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView
from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

SPEC = WalSpec(
    seed=5,
    num_conversations=60,
    num_epochs=2,
    events_per_epoch=500,
    p_update=0.3,
    p_delete=0.1,
)

CONSUMERS = {
    "matview": MaterializedView,
    "derived": lambda eng, path: DerivedTable(eng, path, enrich_turns),
    "corpus": CorpusTable,
    "secondary_index": lambda eng, path: SecondaryIndex(eng, path, "tool"),
}


def _outputs(c) -> list:
    return [pq.read_table(c.ledger.data_path(p)) for p in c.engine.live_pids()]


def _assert_equals_full_build(kind, c, fresh_path):
    fresh = CONSUMERS[kind](c.engine, fresh_path)
    assert fresh.refresh()["refreshed"] == 4
    for got, exp in zip(_outputs(c), _outputs(fresh), strict=True):
        assert got.equals(exp)


@pytest.mark.parametrize("kind", sorted(CONSUMERS))
def test_consumer_ledger_protocol(tmp_path, kind):
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    WalGenerator(SPEC).write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4)
    )
    c = CONSUMERS[kind](eng, os.path.join(tmp, "out"))
    eng.apply(wal, max_epochs=1)
    assert c.refresh()["refreshed"] == 4
    first = mf.checkpoint_path(c.ledger.path, 1)
    with open(first) as f:
        committed = f.read()
    eng.apply(wal)
    second = c.refresh()["refreshed"]

    # a second refresh with nothing new is a no-op
    rep = c.refresh()
    assert rep["refreshed"] == 0 and rep["reused"] == 4

    # a refresh cut before its commit (its data files written, the log
    # still at the first refresh's checkpoint) re-runs only the
    # partitions it rebuilt
    os.remove(mf.checkpoint_path(c.ledger.path, 2))
    with open(first, "w") as f:
        f.write(committed)
    rep = c.refresh()
    assert rep["refreshed"] == second and rep["reused"] == 4 - second
    _assert_equals_full_build(kind, c, os.path.join(tmp, "fresh1"))

    # a corrupt log makes every partition stale
    with open(mf.checkpoint_path(c.ledger.path, mf.log_head(c.ledger.path)), "w") as f:
        f.write('{"watermark": ')
    rep = c.refresh()
    assert rep["refreshed"] == 4 and rep["reused"] == 0
    assert c.refresh()["refreshed"] == 0
    _assert_equals_full_build(kind, c, os.path.join(tmp, "fresh2"))


def test_noop_refresh_from_a_warm_cache_loads_no_json(tmp_path, monkeypatch):
    """Staleness reads the lake's and the consumer's logs through the
    log cache, so a no-op refresh in a process that has read both
    loads no JSON at all."""
    tmp = str(tmp_path)
    wal = os.path.join(tmp, "wal")
    WalGenerator(SPEC).write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4)
    )
    eng.apply(wal)
    mv = MaterializedView(eng, os.path.join(tmp, "view"))
    first = mv.refresh()
    real_load = json.load
    loaded = []
    monkeypatch.setattr(
        json, "load", lambda f, **kw: loaded.append(f.name) or real_load(f, **kw)
    )
    rep = mv.refresh()
    monkeypatch.undo()
    assert rep == {**first, "refreshed": 0, "reused": 4}
    assert loaded == []


@pytest.mark.parametrize("kind", ["matview", "derived"])
def test_late_group_restales_consumers(tmp_path, kind):
    """A group committed late — epoch 2 after groups 3 and 4 — changes
    partitions a consumer refreshed at a larger group id.  Staleness by
    log position rebuilds them (the derived table diffs from its stored
    position), and the output equals a fresh build."""
    tmp = str(tmp_path)
    full, wal = os.path.join(tmp, "full"), os.path.join(tmp, "wal")
    WalGenerator(
        WalSpec(seed=7, num_conversations=60, num_epochs=5, events_per_epoch=300)
    ).write(full)

    def deliver(epoch: int) -> None:
        name = f"epoch={epoch:06d}"
        shutil.copytree(os.path.join(full, name), os.path.join(wal, name))

    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=4)
    )
    for e in (0, 1, 3, 4):
        deliver(e)
        eng.apply(wal)
    c = CONSUMERS[kind](eng, os.path.join(tmp, "out"))
    assert c.refresh()["refreshed"] == 4
    deliver(2)
    eng.apply(wal)
    assert c.refresh()["refreshed"] > 0
    _assert_equals_full_build(kind, c, os.path.join(tmp, "fresh"))
