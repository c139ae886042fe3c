"""Crash-point matrix over the package's one commit primitive.

Every file the engine and the indexes publish goes through
``io.commit_file``, so wrapping that one module attribute — in the
driver, and through Ray's ``worker_process_setup_hook`` in every worker —
counts the commit points of a clean run and can cut a run at any of
them.  This is how ALICE (Pillai et al., OSDI 2014) enumerates the
persistence points of a recorded run; no failpoint is placed by hand.

For each operation the clean run's calls are counted.  Then, for every
N up to that count, the run is cut at the N-th call, once before its
rename and once after it; from then on every call raises, so no Ray
task retry gets past the cut.  The same call then runs again uncut, and
the end state must match a crash-free run's:

- each lake's ``fsck()`` reports no issues, ``snapshot_table()`` equals
  ``oracle.replay``, ``describe()`` counts the same rows, and a
  ``MaterializedView`` beside it reads the same rows;
- an index's ``fsck()`` is clean and it answers the same probes;
- after ``vacuum()`` the directory holds the same file names.

The operations (:data:`OPS`): a 2-epoch apply into a 4-partition lake
with rejects, a one-epoch apply whose Stage B auto-compacts every
partition, ``compact()``, a 2-epoch apply with ``salt_shards=2`` (Stage
A2's pre-merged staging), a late epoch applied into a lake compacted
past it (its group id is below the bases' fold), ``reshard()``, ``export_snapshot()``, a view
refresh, a ``DerivedTable`` refresh and a ``SecondaryIndex`` refresh (the
same consumer commit as the view's), MinHash index ``add``/``delete``/``compact``/``merge_from`` and
``probe_and_add(persist_hits=True)`` (the admission sidecar), and IVF
index ``add``/``compact``.

The matrix runs in one subprocess with its own one-CPU Ray cluster:
a worker of the test session's cluster would not carry the hook, and one
task slot keeps the call order of a run fixed.  Run it alone with
``python tests/test_crash_points.py <out.json>``.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec
from nyc_taxi_data_pipeline_ray.state import oracle
from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex
from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex
from nyc_taxi_data_pipeline_ray.state.derived import DerivedTable, enrich_turns
from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView
from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = (
    "apply_2_epochs",
    "apply_auto_compact",
    "compact",
    "apply_salted",
    "apply_late_epoch",
    "reshard",
    "export_snapshot",
    "view_refresh",
    "derived_refresh",
    "secondary_index_refresh",
    "minhash_add",
    "minhash_delete",
    "minhash_compact",
    "minhash_merge",
    "minhash_probe_and_add",
    "ivf_add",
    "ivf_compact",
)


def cut_hook(ctl: str):
    """A zero-argument ``worker_process_setup_hook`` (pickled by value,
    its ``ctl`` dir included) that wraps ``io.commit_file`` in the
    process it runs in.  Every call appends its path to ``ctl/calls``;
    the call numbered ``crash_at`` (``ctl/ctl.json``), counted across all
    processes under a file lock, raises before or after its rename, and
    every later call raises at once."""

    def install() -> None:
        import fcntl

        from nyc_taxi_data_pipeline_ray import io as nio

        real = nio.commit_file
        if getattr(real, "cut_hook", False):
            return

        def commit_file(path, write):
            with open(os.path.join(ctl, "ctl.json")) as f:
                at, when = json.load(f)
            with open(os.path.join(ctl, "calls"), "a") as f:
                fcntl.flock(f, fcntl.LOCK_EX)
                f.write(path + "\n")
                f.flush()
                with open(os.path.join(ctl, "calls")) as r:
                    n = sum(1 for _ in r)
            if not at or n < at:
                return real(path, write)
            if n > at:
                raise RuntimeError(f"crash point: call {n}, after the cut")
            if when == "before":

                def cut(tmp):
                    write(tmp)
                    raise RuntimeError(f"crash point: before the rename of {path}")

                return real(path, cut)
            real(path, write)
            raise RuntimeError(f"crash point: after the rename of {path}")

        commit_file.cut_hook = True
        nio.commit_file = commit_file

    return install


# ------------------------------------------------------------- subprocess


def _files(root: str) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs
    )


class _Matrix:
    """The operations, their pre-states and their end-state checks.  A
    pre-state is a directory built uncut once and copied for every run:
    ``lake/`` (+ ``view/``) for the lake operations, ``index/`` (+
    ``other/``, a second index to merge from) for the MinHash ones and
    ``index/`` for the IVF ones."""

    def __init__(self, work: str, ctl: str):
        self.work, self.ctl_dir = work, ctl
        self.ctl()  # pre-states are built uncut
        gen = WalGenerator(
            WalSpec(
                seed=12,
                num_conversations=40,
                num_epochs=3,
                events_per_epoch=240,
                invalid_fraction=0.03,
                ooo_fraction=0.1,
            )
        )
        self.wal = os.path.join(work, "wal")
        gen.write(self.wal)
        # a WAL of two epochs, applied whole: a retry has the same work
        self.wal2 = os.path.join(work, "wal2")
        for e in ("epoch=000000", "epoch=000001"):
            shutil.copytree(os.path.join(self.wal, e), os.path.join(self.wal2, e))
        events = gen.events_table()
        self.expected = {
            e: oracle.replay(events.filter(pc.less_equal(events["epoch"], e)))
            for e in (1, 2)
        }

        pre = os.path.join(work, "pre")
        LakeConfig.open_or_create(os.path.join(pre, "fresh", "lake"), num_partitions=4)
        LakeConfig.open_or_create(
            os.path.join(pre, "salted", "lake"), num_partitions=4, salt_shards=2
        )
        # base + one live delta per partition, and a view one group behind
        folded = os.path.join(pre, "folded")
        cfg = LakeConfig.open_or_create(
            os.path.join(folded, "lake"), num_partitions=4, max_delta_runs=1
        )
        eng = CdcEngine(cfg)
        eng.apply(self.wal, max_epochs=1)
        eng.compact()
        MaterializedView(eng, os.path.join(folded, "view")).refresh()
        # a derived table and a secondary index one group behind, beside
        # a copy of the same lake
        self.consumers = {
            "derived_refresh": lambda eng, root: DerivedTable(
                eng, os.path.join(root, "derived"), enrich_turns
            ),
            "secondary_index_refresh": lambda eng, root: SecondaryIndex(
                eng, os.path.join(root, "sindex"), "tool"
            ),
        }
        consumers = os.path.join(pre, "consumers")
        for make in self.consumers.values():
            make(eng, consumers).refresh()
        eng.apply(self.wal, max_epochs=1)
        shutil.copytree(os.path.join(folded, "lake"), os.path.join(consumers, "lake"))
        # epochs 0 and 2 applied and compacted; epoch 1 arrives late
        late = os.path.join(pre, "late")
        for e in ("epoch=000000", "epoch=000002"):
            shutil.copytree(os.path.join(self.wal, e), os.path.join(late, "wal", e))
        eng = CdcEngine(LakeConfig.open_or_create(os.path.join(late, "lake"), num_partitions=4))
        eng.apply(os.path.join(late, "wal"), max_epochs=1)
        eng.apply(os.path.join(late, "wal"))
        eng.compact()
        shutil.copytree(
            os.path.join(self.wal, "epoch=000001"), os.path.join(late, "wal", "epoch=000001")
        )

        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choice(words, 30)) for _ in range(40)]
        texts += [t + " extra" for t in texts[::4]]  # near-duplicates
        self.docs = [
            pa.table({"doc_id": pa.array(np.arange(lo, hi), pa.int64()), "text": texts[lo:hi]})
            for lo, hi in ((0, 16), (16, 32), (32, 50))
        ]
        index = os.path.join(pre, "index")
        for seg in (0, 1):
            self.index(index).add(rd.from_arrow(self.docs[seg]), segment_id=seg)
        self.index(index, "other").add(rd.from_arrow(self.docs[2]), segment_id=0)

        centres = rng.normal(size=(4, 8))
        cells = rng.integers(0, 4, 60)
        self.vecs = centres[cells] + 0.3 * rng.normal(size=(60, 8))
        self.vec_batches = [
            pa.table(
                {
                    "vec_id": pa.array(np.arange(lo, hi), pa.int64()),
                    "embedding": pa.array(list(self.vecs[lo:hi])),
                }
            )
            for lo, hi in ((0, 20), (20, 40), (40, 60))
        ]
        ivf = os.path.join(pre, "ivf")
        IvfIndex(os.path.join(ivf, "index"), centroids=centres)
        for seg in (0, 1):
            self.ivf(ivf).add(rd.from_arrow(self.vec_batches[seg]), segment_id=seg)

        def lake_op(pre_name, run):
            return os.path.join(pre, pre_name), run, self.lake_state

        def consumer_op(op):
            make = self.consumers[op]
            return consumers, lambda r: make(self.engine(r), r).refresh(), self.consumer_state

        def index_op(run):
            return index, run, self.index_state

        def ivf_op(run):
            return ivf, run, self.ivf_state

        self.ops = {
            "apply_2_epochs": lake_op("fresh", lambda r: self.engine(r).apply(self.wal2)),
            "apply_auto_compact": lake_op(
                "folded", lambda r: self.engine(r).apply(self.wal, max_epochs=1)
            ),
            "compact": lake_op("folded", lambda r: self.engine(r).compact()),
            "apply_salted": lake_op("salted", lambda r: self.engine(r).apply(self.wal2)),
            "apply_late_epoch": lake_op(
                "late", lambda r: self.engine(r).apply(os.path.join(r, "wal"))
            ),
            "reshard": lake_op(
                "folded", lambda r: self.engine(r).reshard(os.path.join(r, "resharded"), 2)
            ),
            "export_snapshot": lake_op(
                "folded", lambda r: self.engine(r).export_snapshot(os.path.join(r, "export"))
            ),
            "view_refresh": lake_op(
                "folded",
                lambda r: MaterializedView(self.engine(r), os.path.join(r, "view")).refresh(),
            ),
            "derived_refresh": consumer_op("derived_refresh"),
            "secondary_index_refresh": consumer_op("secondary_index_refresh"),
            "minhash_add": index_op(
                lambda r: self.index(r).add(rd.from_arrow(self.docs[2]), segment_id=2)
            ),
            "minhash_delete": index_op(lambda r: self.index(r).delete(range(0, 40, 3), 2)),
            "minhash_compact": index_op(lambda r: self.index(r).compact()),
            "minhash_merge": index_op(
                lambda r: self.index(r).merge_from(self.index(r, "other"), segment_id=2)
            ),
            "minhash_probe_and_add": index_op(
                lambda r: self.index(r).probe_and_add(
                    rd.from_arrow(self.docs[2]), 2, threshold=0.3, persist_hits=True
                )
            ),
            "ivf_add": ivf_op(lambda r: self.ivf(r).add(rd.from_arrow(self.vec_batches[2]), 2)),
            "ivf_compact": ivf_op(lambda r: self.ivf(r).compact()),
        }
        assert tuple(self.ops) == OPS

    def engine(self, root: str, lake: str = "lake"):
        return CdcEngine(LakeConfig.load(os.path.join(root, lake)))

    def index(self, root: str, name: str = "index"):
        return MinHashIndex(os.path.join(root, name), num_perm=32, bands=8, num_buckets=4)

    def ivf(self, root: str):
        return IvfIndex(os.path.join(root, "index"))

    def lake_state(self, op: str, root: str) -> dict:
        """The checks that hold after any run, then the observable end
        state (after ``vacuum``, so the file names exclude remnants)."""
        exp = self.expected[2 if op in ("apply_auto_compact", "apply_late_epoch") else 1]
        cols = sorted(exp.schema.names)
        rows = []
        for lake in ["lake"] + (["resharded"] if op == "reshard" else []):
            eng = self.engine(root, lake)
            fsck = eng.fsck()
            assert fsck["ok"] and fsck["issues"] == [], (lake, fsck)
            assert eng.snapshot_table().select(cols).equals(exp.select(cols)), lake
            rows.append(eng.describe()["total_rows"])
            eng.vacuum()
        view = MaterializedView(self.engine(root), os.path.join(root, "view"))
        return {"files": _files(root), "rows": rows, "view": view.table().to_pylist()}

    def consumer_state(self, op: str, root: str) -> dict:
        """A consumer's end state: a further refresh rebuilds nothing,
        and its committed outputs."""
        c = self.consumers[op](self.engine(root), root)
        assert c.refresh()["refreshed"] == 0
        out = [pq.read_table(c.ledger.data_path(p)).to_pylist() for p in c.ledger.committed_pids()]
        return {"files": _files(root), "outputs": out}

    def index_state(self, op: str, root: str) -> dict:
        idx = self.index(root)
        idx.vacuum()
        fsck = idx.fsck()
        assert fsck["ok"] and fsck["issues"] == [], fsck
        hits = idx.probe(rd.from_arrow(pa.concat_tables(self.docs)), threshold=0.3)
        pairs = sorted(map(tuple, hits[["probe_doc", "indexed_doc"]].to_numpy().tolist()))
        sidecar = idx.ledger.load_hits(2)  # written by probe_and_add only
        admitted = None if sidecar is None else sorted(sidecar.to_records(index=False).tolist())
        return {"files": _files(root), "probes": pairs, "admitted": admitted}

    def ivf_state(self, op: str, root: str) -> dict:
        idx = self.ivf(root)
        idx.vacuum()
        fsck = idx.fsck()
        assert fsck["ok"] and fsck["issues"] == [], fsck
        hits, _ = idx.probe(np.arange(len(self.vecs)), self.vecs, k=3, nprobe=2)
        top = sorted(map(tuple, hits[["qid", "vec_id"]].to_numpy().tolist()))
        return {"files": _files(root), "probes": top}

    def ctl(self, crash_at: int = 0, when: str = "before") -> None:
        """Arm the cut at call ``crash_at`` (0: none) and reset the count."""
        with open(os.path.join(self.ctl_dir, "ctl.json"), "w") as f:
            json.dump([crash_at, when], f)
        with open(os.path.join(self.ctl_dir, "calls"), "w"):
            pass

    def calls(self, root: str) -> list[str]:
        with open(os.path.join(self.ctl_dir, "calls")) as f:
            return [os.path.relpath(p, root) for p in f.read().split()]

    def matrix(self, op: str) -> dict:
        pre, run, state = self.ops[op]
        t0 = time.perf_counter()
        root = os.path.join(self.work, "run")
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(pre, root)
        self.ctl()
        run(root)
        clean_calls = self.calls(root)
        clean = state(op, root)
        failures, cut = [], {"before": [], "after": []}
        for n in range(1, len(clean_calls) + 1):
            for when in ("before", "after"):
                shutil.rmtree(root)
                shutil.copytree(pre, root)
                self.ctl(n, when)
                try:
                    run(root)
                    failures.append(f"{when} {n}: the cut did not raise")
                    continue
                except Exception as e:  # the cut, raised here or in a Ray task
                    if "crash point" not in str(e):
                        failures.append(f"{when} {n}: {type(e).__name__}: {e}")
                        continue
                cut[when].append(self.calls(root)[n - 1])
                self.ctl()
                try:
                    run(root)
                    got = state(op, root)
                except Exception as e:
                    failures.append(f"{when} {n} ({cut[when][-1]}): {type(e).__name__}: {e}")
                    continue
                for k in clean:
                    if got[k] != clean[k]:
                        diff = sorted(set(map(str, got[k])) ^ set(map(str, clean[k])))
                        failures.append(f"{when} {n} ({cut[when][-1]}): {k} differ: {diff[:6]}")
        shutil.rmtree(root, ignore_errors=True)
        return {
            "points": len(clean_calls),
            "clean_calls": clean_calls,
            "cut": cut,
            "failures": failures,
            "seconds": round(time.perf_counter() - t0, 1),
        }


def main(out_path: str) -> None:
    import ray
    from ray.data import DataContext

    work = tempfile.mkdtemp(prefix="crash_points_")
    ctl = os.path.join(work, "ctl")
    os.makedirs(ctl)
    install = cut_hook(ctl)
    ray.init(
        address="local",
        num_cpus=1,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"worker_process_setup_hook": install},
    )
    try:
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        install()
        m = _Matrix(work, ctl)
        results = {op: m.matrix(op) for op in OPS}
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)


# ------------------------------------------------------------------ tests


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crash_points") / "matrix.json")
    path = [REPO] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), out],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(out) as f:
        return json.load(f)


@pytest.mark.parametrize("op", OPS)
def test_every_commit_point_recovers(matrix, op):
    """Every commit point of the clean run was cut, before and after its
    rename, and each cut run recovered to the crash-free end state."""
    r = matrix[op]
    assert r["points"] > 0
    assert r["failures"] == []
    for when in ("before", "after"):
        assert sorted(r["cut"][when]) == sorted(r["clean_calls"]), when


if __name__ == "__main__":
    main(sys.argv[1])
