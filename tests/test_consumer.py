"""The consumer ledger (state/consumer.py) behind every incremental
consumer: one protocol test run against each of them.  A missing
partition manifest re-runs only that partition, a corrupt one counts as
stale, a refresh with nothing new rebuilds nothing, and every recovered
output equals a from-scratch build of the same consumer."""

import os

import pyarrow.parquet as pq
import pytest

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
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
    eng.apply(wal)
    c.refresh()

    # a second refresh with nothing new is a no-op
    rep = c.refresh()
    assert rep["refreshed"] == 0 and rep["reused"] == 4

    # a missing partition manifest (crash before the commit) re-runs
    # that partition only
    os.remove(c.ledger.manifest_path(2))
    rep = c.refresh()
    assert rep["refreshed"] == 1 and rep["reused"] == 3
    _assert_equals_full_build(kind, c, os.path.join(tmp, "fresh1"))

    # a corrupt manifest counts as stale
    with open(c.ledger.manifest_path(1), "w") as f:
        f.write('{"watermark": ')
    rep = c.refresh()
    assert rep["refreshed"] == 1 and rep["reused"] == 3
    assert c.refresh()["refreshed"] == 0
    _assert_equals_full_build(kind, c, os.path.join(tmp, "fresh2"))


def test_noop_refresh_loads_each_consumer_manifest_once(tmp_path, monkeypatch):
    """The staleness scan's manifest load also supplies a reused
    partition's rows, so a no-op refresh reads each consumer manifest
    once."""
    import json

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
    assert sorted(p for p in loaded if p.startswith(mv.ledger.path)) == [
        mv.ledger.manifest_path(pid) for pid in range(4)
    ]
