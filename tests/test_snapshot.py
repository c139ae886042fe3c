"""``snapshot_table``: each task merges all of its partitions' runs with
one LWW merge, and the driver sorts only when more than one block has
rows.  Both plans must equal the oracle: one block (a one-slot node,
no driver sort) and the test cluster's several blocks (driver sort),
over a lake with a compacted base plus deltas, tombstones, schema
evolution, a partition whose every key is deleted, ``as_of_epoch`` and
``columns``."""

import glob
import hashlib
import io
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig, schemas
from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray.engine import hash_partition_ids
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import merge as mg
from nyc_taxi_data_pipeline_ray.state import oracle

SPEC = WalSpec(
    seed=5,
    num_conversations=90,
    num_epochs=4,
    events_per_epoch=900,
    p_update=0.3,
    p_delete=0.1,
    ooo_fraction=0.1,
    dup_fraction=0.03,
    invalid_fraction=0.02,
    evolve_at_epoch=2,
)
PARTITIONS = 8
EMPTIED = 0  # the partition whose every live key the last epoch deletes


def _delete_epoch(wal: str, state: pa.Table, epoch: int) -> pa.Table:
    """Write WAL epoch ``epoch``: a delete of every live key of partition
    :data:`EMPTIED`, newer than any event before it."""
    victims = state.filter(
        pa.array(hash_partition_ids(state["conv_id"], PARTITIONS) == EMPTIED)
    )
    n = victims.num_rows
    ts = pc.max(state["ts"]).as_py()
    rows = pa.table(
        {
            "lsn": pa.array(np.arange(n, dtype=np.int64) + 50_000_000),
            "op": pa.array(["delete"] * n),
            "epoch": pa.array([epoch] * n, pa.int32()),
            "conv_id": victims["conv_id"],
            "turn_idx": victims["turn_idx"],
            "ts": pa.array([ts] * n, pa.timestamp("us")),
        }
    )
    evolved = pq.read_schema(sorted(glob.glob(os.path.join(wal, "epoch=*", "*.parquet")))[-1])
    t = mg.conform(rows, evolved)
    d = os.path.join(wal, f"epoch={epoch:06d}")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "part-0000.parquet"))
    return t


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    """Epochs 0-1 compacted into a base, epochs 2 (schema evolves) and 3
    as one-epoch deltas, then epoch 4 deleting all of one partition."""
    tmp = str(tmp_path_factory.mktemp("snap"))
    gen = WalGenerator(SPEC)
    wal = os.path.join(tmp, "wal")
    gen.write(wal)
    eng = CdcEngine(
        LakeConfig.open_or_create(os.path.join(tmp, "lake"), num_partitions=PARTITIONS)
    )
    eng.apply(wal, max_epochs=2)
    eng.compact()
    eng.apply(wal, max_epochs=1)
    eng.apply(wal, max_epochs=1)
    events = gen.events_table()
    dels = _delete_epoch(wal, oracle.replay(events), SPEC.num_epochs)
    eng.apply(wal)
    return eng, mg.concat_unified([events, dels])


def _expected(events: pa.Table, as_of: int | None = None) -> pa.Table:
    if as_of is not None:
        events = events.filter(pc.less_equal(events["epoch"], as_of))
    return oracle.replay(events)


def _assert_equal(snap: pa.Table, exp: pa.Table) -> None:
    """Value equality over the oracle's columns; a column the snapshot
    lacks (read before the schema evolved) must be all null there."""
    cols = sorted(exp.schema.names)
    for c in cols:
        if c not in snap.schema.names:
            assert exp[c].null_count == exp.num_rows, c
    cols = [c for c in cols if c in snap.schema.names]
    got = snap.select(cols).cast(pa.schema([exp.schema.field(c) for c in cols]))
    assert got.num_rows == exp.num_rows
    assert got.equals(exp.select(cols))


def _spy_sorts(monkeypatch) -> list:
    """Count the driver's ``sort_by_key`` calls (tasks run in workers,
    which the patch does not reach); the driver's only ``take`` is the
    one inside it."""
    calls = []
    real = mg.sort_by_key

    def spy(t):
        calls.append(t.num_rows)
        return real(t)

    monkeypatch.setattr(mg, "sort_by_key", spy)
    return calls


@pytest.mark.parametrize("slots", [1, 4])
def test_snapshot_table_equals_oracle_on_both_plans(lake, monkeypatch, slots):
    eng, events = lake
    expected = {k: _expected(events, k) for k in (None, 1, 2, 3, 4)}
    if slots == 1:  # a one-slot node: io.fan_out makes one block
        monkeypatch.setattr(nio, "_cluster_cpus", lambda default: 1.0)
    sorts = _spy_sorts(monkeypatch)

    snap = eng.snapshot_table()
    _assert_equal(snap, expected[None])
    assert EMPTIED not in set(hash_partition_ids(snap["conv_id"], PARTITIONS).tolist())
    for k in (1, 2, 3, 4):  # the base alone, then each delta
        _assert_equal(eng.snapshot_table(as_of_epoch=k), expected[k])
    narrow = eng.snapshot_table(columns=["text", "turn_idx", "role"])
    assert narrow.schema.names == ["text", "turn_idx", "role"]
    exp = expected[None].select(["text", "turn_idx", "role"])
    assert narrow.cast(exp.schema).equals(exp)
    assert eng.snapshot_table(columns=["conv_id", "no_such"]).schema.names == ["conv_id"]
    if slots == 1:
        assert sorts == []  # one block: already globally key-sorted
    else:
        assert len(sorts) == 7  # several blocks have rows: the driver sorts


def test_streamed_snapshot_agrees_with_snapshot_table(lake, monkeypatch):
    """``snapshot()`` merges one partition per call; sorted, its rows are
    the one-block ``snapshot_table``'s."""
    eng, _ = lake
    monkeypatch.setattr(nio, "_cluster_cpus", lambda default: 1.0)
    blocks = eng.snapshot().iter_batches(batch_size=None, batch_format="pyarrow")
    streamed = mg.sort_by_key(mg.concat_unified([b for b in blocks if b.num_rows]))
    assert streamed.equals(eng.snapshot_table())


def test_snapshot_columns_on_a_lake_without_live_rows(tmp_path):
    """``columns`` holds when no partition has a live row: a lake whose
    every event was rejected, and one never applied to."""
    wal = str(tmp_path / "wal")
    d = os.path.join(wal, "epoch=000000")
    os.makedirs(d)
    bad = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "op": pa.array(["bogus", "bogus"]),
            "epoch": pa.array([0, 0], pa.int32()),
            "conv_id": pa.array(["c1", "c2"]),
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": pa.array(["user", "user"]),
            "text": pa.array(["a", "b"]),
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([1_735_689_600_000_000] * 2, pa.timestamp("us")),
        },
        schema=schemas.EVENT_SCHEMA,
    )
    pq.write_table(bad, os.path.join(d, "part-0000.parquet"))
    eng = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "lake"), num_partitions=4))
    assert eng.apply(wal).rejects == 2
    fresh = CdcEngine(LakeConfig.open_or_create(str(tmp_path / "fresh"), num_partitions=4))
    for e in (eng, fresh):
        t = e.snapshot_table(columns=["text", "conv_id"])
        assert t.num_rows == 0 and t.schema.names == ["text", "conv_id"]
        assert e.snapshot(columns=["text", "conv_id"]).schema().names == ["text", "conv_id"]
        assert e.snapshot_table().schema.names == schemas.empty_state().schema.names


def _old_bloom_bytes(conv_ids) -> bytes:
    """The sidecar bytes of the previous bloom builder, which took the
    distinct keys with ``np.unique`` over a Python-object array."""
    from nyc_taxi_data_pipeline_ray.engine import _bloom_positions

    arr = np.unique(np.asarray(conv_ids.to_numpy(zero_copy_only=False), dtype=object))
    m = 1 << int(np.ceil(np.log2(max(10 * max(len(arr), 1), 64))))
    bits = np.zeros(m >> 3, np.uint8)
    if len(arr):
        pos = _bloom_positions(arr, m).ravel()
        np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    buf = io.BytesIO()
    np.save(buf, bits, allow_pickle=False)
    return buf.getvalue()


def test_bloom_sidecars_match_the_old_builder(lake):
    """The bloom bits do not depend on key order, so taking the distinct
    keys with ``pc.unique`` leaves every sidecar byte-identical."""
    eng, _ = lake
    sidecars = sorted(glob.glob(os.path.join(eng.cfg.path, "p=*", "base-*.parquet.bloom.npy")))
    assert len(sidecars) == PARTITIONS
    for path in sidecars:
        base = pq.read_table(path[: -len(".bloom.npy")], columns=["conv_id"])
        with open(path, "rb") as f:
            got = hashlib.md5(f.read()).hexdigest()
        assert got == hashlib.md5(_old_bloom_bytes(base["conv_id"])).hexdigest(), path
