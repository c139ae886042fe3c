"""The three workloads, their correctness checks and their counters.

Each workload is one caller in a closed loop: the next call starts when
the previous one returns.  ``warmup`` (``touch_lake`` or ``touch_index``)
and ``preload`` belong to set-up; ``measure`` runs whole cycles until
``--seconds`` have passed; ``verify``
checks the outputs against ``state/oracle.py`` (lake workloads) or a
numpy brute force (index workload); ``report`` turns latencies and
counters into metrics.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs

NUM_PARTITIONS = 8


def dir_usage(path: str) -> tuple[int, int]:
    """(bytes, files) under ``path``."""
    size = files = 0
    for d, _, names in os.walk(path):
        for n in names:
            size += os.path.getsize(os.path.join(d, n))
            files += 1
    return size, files


def median_ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1e3


def tail(xs: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) of the highest whole percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(xs)
    for p in (99.9, 99, 98, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(np.asarray(xs) * 1e3, p))
    return None


def _equal_on(expected: pa.Table, got: pa.Table) -> bool:
    cols = sorted(expected.schema.names)
    if not set(cols) <= set(got.schema.names):
        return False
    return got.select(cols).equals(expected.select(cols))


def lake_engine(path: str):
    from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig

    # task_cpus=1: a stage task must never ask for more CPUs than Ray has,
    # or apply waits forever on a 1-CPU node
    return CdcEngine(
        LakeConfig.open_or_create(path, num_partitions=NUM_PARTITIONS, task_cpus=1)
    )


def delta_runs_max(rec, lake: str) -> int:
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    with rec.span("manifest.delta_runs", "state.manifest"):
        return max(len(mf.delta_runs(lake, pid)) for pid in range(NUM_PARTITIONS))


def touch_lake(b, prefix: str) -> None:
    """Call every lake layer once on a tiny WAL: two ``apply`` calls
    (rejects, deletes, schema evolution), a lookup, ``compact`` and a
    snapshot.  With prefix ``warmup.`` this is the warm-up of the lake
    workloads, so worker processes start and import these code paths
    before anything is timed."""
    rec = b.rec
    root = os.path.join(b.scratch, f"{prefix}touch")
    wal = os.path.join(b.inputs, "warm_wal")
    lake = os.path.join(root, "lake")
    eng = lake_engine(lake)
    with rec.call(f"{prefix}engine.apply", "engine"):
        eng.apply(wal, max_epochs=1)
    with rec.call(f"{prefix}engine.apply", "engine"):
        eng.apply(wal)
    with rec.call(f"{prefix}engine.get_conversation", "engine"):
        eng.get_conversation("c00000000")
    with rec.call(f"{prefix}engine.compact", "engine"):
        eng.compact()
    with rec.call(f"{prefix}engine.snapshot_table", "engine"):
        eng.snapshot_table()
    delta_runs_max(rec, lake)
    shutil.rmtree(root, ignore_errors=True)


def touch_index(b, prefix: str) -> None:
    """Call every index layer once on tiny inputs: two segments of
    MinHash and IVF ``probe_and_add``, one IVF ``probe`` and both
    compactions.  With prefix ``warmup.`` this is the warm-up of
    ``index_admit``."""
    import ray.data as rd

    from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex
    from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

    rec = b.rec
    root = os.path.join(b.scratch, f"{prefix}touch")
    wal = os.path.join(b.inputs, "warm_wal")
    n = 16
    docs = pq.read_table(os.path.join(wal, "epoch=000000"), columns=["lsn", "text"])
    docs = docs.filter(docs["text"].is_valid()).slice(0, 2 * n)
    docs = docs.rename_columns(["doc_id", "text"])
    rng = np.random.default_rng([b.seed, 0x7A])
    centres = rng.normal(size=(4, 16))
    vecs = centres[rng.integers(0, 4, 2 * n)] + 0.3 * rng.normal(size=(2 * n, 16))
    mh = MinHashIndex(os.path.join(root, "minhash"))
    ivf = IvfIndex(os.path.join(root, "ivf"), centroids=centres)
    for seg in range(2):
        ids = np.arange(seg * n, (seg + 1) * n, dtype=np.int64)
        v = pa.table({"vec_id": ids, "embedding": pa.array(list(vecs[ids]))})
        with rec.call(f"{prefix}dedup.probe_and_add", "state.dedup_index"):
            mh.probe_and_add(rd.from_arrow(docs.slice(seg * n, n)), seg)
        with rec.call(f"{prefix}ann.probe_and_add", "state.ann_index"):
            ivf.probe_and_add(rd.from_arrow(v), seg, k=2, nprobe=2)
    with rec.call(f"{prefix}ann.probe", "state.ann_index"):
        ivf.probe(np.arange(10**9, 10**9 + 4), vecs[:4], k=2, nprobe=2)
    with rec.call(f"{prefix}dedup.compact", "state.dedup_index"):
        mh.compact()
    with rec.call(f"{prefix}ann.compact", "state.ann_index"):
        ivf.compact()
    shutil.rmtree(root, ignore_errors=True)


def touch_layers(b) -> None:
    """Every layer once, under the plain call names.  Traced runs do this
    after the loop, so every layer has spans on every workload."""
    touch_lake(b, "")
    touch_index(b, "")


class _Lake:
    """Shared lake plumbing: inputs, counters, end-state check."""

    def __init__(self, b):
        self.b = b
        self.rec = b.rec
        self.wal = os.path.join(b.inputs, "wal")
        self.expected = pq.read_table(os.path.join(b.inputs, "oracle.parquet"))
        self.events = b.meta["events"]

    def warmup(self) -> None:
        touch_lake(self.b, "warmup.")

    def preload(self) -> None:
        pass

    def apply_counters(self, rep) -> None:
        c = self.rec.counters
        c["engine.apply.calls"] += 1
        c["engine.apply.rows_in"] += rep.rows_in
        c["engine.apply.rejects"] += rep.rejects
        c["engine.apply.upserts"] += rep.upserts
        c["engine.apply.deletes"] += rep.deletes
        rows = [d.get("rows_in", 0) for d in rep.details]
        if rows and sum(rows):
            skew = max(rows) / (sum(rows) / len(rows))
            c["engine.apply.partition_skew"] = max(c["engine.apply.partition_skew"], skew)

    def lake_counters(self, path: str) -> None:
        """Files on disk and the deepest partition's delta-run count."""
        c = self.rec.counters
        c["lake.bytes"], c["lake.files"] = dir_usage(path)
        c["lake.delta_runs_max"] = max(c["lake.delta_runs_max"], delta_runs_max(self.rec, path))

    def check_state(self, snap: pa.Table) -> None:
        self.rec.check(
            "snapshot_table == oracle.replay",
            _equal_on(self.expected, snap),
            f"{snap.num_rows} rows vs {self.expected.num_rows}",
        )

    def check_fsck(self, eng) -> None:
        fsck = eng.fsck()
        self.rec.check("fsck ok", bool(fsck["ok"]), str(fsck["issues"])[:300])


class BulkReplay(_Lake):
    """One ``apply`` of the whole WAL into a fresh lake, then one full
    ``snapshot_table`` read, repeated."""

    def measure(self) -> None:
        rec, b = self.rec, self.b
        lake = os.path.join(b.scratch, "lake")
        first = None
        t0 = time.perf_counter()
        while True:
            shutil.rmtree(lake, ignore_errors=True)
            eng = lake_engine(lake)
            with rec.call("engine.apply", "engine"):
                rep = eng.apply(self.wal)
            with rec.call("engine.snapshot_table", "engine"):
                snap = eng.snapshot_table()
            self.check_state(snap)
            counts = (rep.rows_in, rep.rejects, rep.upserts, rep.deletes)
            first = first or counts
            rec.check("ApplyReport counts repeat", counts == first, f"{counts} vs {first}")
            if rec.counters["engine.apply.calls"] == 0:
                self.lake_counters(lake)
            self.apply_counters(rep)
            if time.perf_counter() - t0 >= b.seconds:
                break
        self.check_fsck(eng)

    def verify(self) -> None:
        pass  # every iteration is checked inside measure

    def report(self) -> tuple[dict, dict]:
        lat = self.rec.lat
        apply_s = statistics.median(lat["engine.apply"])
        e2e = {
            "items_per_s": self.events / apply_s,
            "write_p50_ms": apply_s * 1e3,
            "read_p50_ms": median_ms(lat["engine.snapshot_table"]),
            "stored_bytes_per_item": self.rec.counters["lake.bytes"] / self.events,
        }
        named = {
            "replay_events_per_s": (e2e["items_per_s"], "1/s"),
            "stored_bytes_per_event": (e2e["stored_bytes_per_item"], "B"),
            "replay_apply_calls": (len(lat["engine.apply"]), "count"),
        }
        return e2e, named


class FollowLookup(_Lake):
    """A compacted base, then micro-batches ``apply(max_epochs=1)``, each
    followed by a round of ``get_conversation`` point lookups; ``compact``
    closes every cycle of ``compact_every`` batches."""

    def __init__(self, b):
        super().__init__(b)
        self.s = inputs.SIZES["follow_lookup"][b.size]
        self.lake = os.path.join(b.scratch, "lake")
        self.loop_events = 0
        self.last_round: list[str] = []
        s = self.s
        ranks = np.arange(1, s["conversations"] + 1, dtype=np.float64)
        w = ranks ** -inputs.LAKE_KNOBS["zipf_s"]
        self.weights = w / w.sum()
        self.key_rng = np.random.default_rng([b.seed, 0x100C])

    def preload(self) -> None:
        shutil.rmtree(self.lake, ignore_errors=True)
        self.eng = lake_engine(self.lake)
        with self.rec.call("preload.apply", "engine"):
            self.eng.apply(self.wal, max_epochs=self.s["base_epochs"])
        with self.rec.call("preload.compact", "engine"):
            self.eng.compact()

    def _round(self) -> list[str]:
        """Mostly hot keys (the WAL's zipf weights), some uniform, one id
        that was never written."""
        n, conv = self.s["lookups_per_batch"], self.s["conversations"]
        n_uniform = max(1, n // 6)
        hot = self.key_rng.choice(conv, size=n - n_uniform - 1, p=self.weights)
        uni = self.key_rng.integers(0, conv, n_uniform)
        missing = conv + int(self.key_rng.integers(0, 10**6))
        ids = [*hot.tolist(), *uni.tolist(), missing]
        return [f"c{i:08d}" for i in ids]

    def _runs_read(self, pid: int) -> int:
        from nyc_taxi_data_pipeline_ray.state import manifest as mf

        base = mf.current_base(self.lake, pid)
        through = -1
        if base is not None:
            gens = {m["generation"]: m for m in mf.read_compact_markers(self.lake, pid)}
            through = gens.get(base[0], {}).get("through_group", -1)
        deltas = sum(1 for g, _ in mf.delta_runs(self.lake, pid) if g > through)
        return (base is not None) + deltas

    def _check_lookup(self, key: str, got: pa.Table) -> None:
        turns = got["turn_idx"].to_numpy()
        if int(key[1:]) >= self.s["conversations"]:
            ok = got.num_rows == 0  # never written
        else:
            ok = bool(np.all(np.diff(turns) > 0)) and (
                got.num_rows == 0 or pc.all(pc.equal(got["conv_id"], key)).as_py()
            )
        self.rec.check("lookup unique and sorted on turn_idx", ok, key)

    def measure(self) -> None:
        from nyc_taxi_data_pipeline_ray.engine import hash_partition_ids

        rec, b, s, eng = self.rec, self.b, self.s, self.eng
        c = rec.counters
        batches_left = s["batch_epochs"]
        t0 = time.perf_counter()
        while batches_left >= s["compact_every"]:
            for _ in range(s["compact_every"]):
                with rec.call("engine.apply", "engine"):
                    rep = eng.apply(self.wal, max_epochs=1)
                batches_left -= 1
                rec.check("micro-batch applied one epoch", len(rep.epochs) == 1, str(rep.epochs))
                self.apply_counters(rep)
                self.loop_events += rep.rows_in
                self.last_round = self._round()
                for key in self.last_round:
                    with rec.call("engine.get_conversation", "engine"):
                        got = eng.get_conversation(key)
                    self._check_lookup(key, got)
                    c["engine.get_conversation.calls"] += 1
                    c["engine.get_conversation.rows"] += got.num_rows
                    if rec.traced:
                        with rec.extra("manifest.runs_read", "state.manifest"):
                            pid = int(hash_partition_ids(pa.array([key]), NUM_PARTITIONS)[0])
                            c["engine.get_conversation.runs_read"] += self._runs_read(pid)
                if rec.traced:
                    with rec.extra("lake.counters", "bench"):
                        self.lake_counters(self.lake)
            with rec.call("engine.compact", "engine"):
                c["engine.compact.partitions"] += eng.compact()
            if time.perf_counter() - t0 >= b.seconds:
                break

    def verify(self) -> None:
        """Apply what the loop left of the WAL, fold it, and compare the
        end state and one round of lookups with the oracle."""
        rec, eng = self.rec, self.eng
        with rec.call("verify.apply", "engine"):
            eng.apply(self.wal)
        with rec.call("verify.compact", "engine"):
            eng.compact()
        self.check_state(eng.snapshot_table())
        self.check_fsck(eng)
        exp = self.expected
        for key in self.last_round:
            with rec.call("verify.get_conversation", "engine"):
                got = eng.get_conversation(key)
            want = exp.filter(pc.equal(exp["conv_id"], key)).sort_by("turn_idx")
            rec.check("lookup == oracle rows", _equal_on(want, got), key)
        self.stored_bytes, _ = dir_usage(self.lake)

    def report(self) -> tuple[dict, dict]:
        lat, c = self.rec.lat, self.rec.counters
        write_s = sum(lat["engine.apply"]) + sum(lat["engine.compact"])
        e2e = {
            "items_per_s": self.loop_events / write_s,
            "write_p50_ms": median_ms(lat["engine.apply"]),
            "read_p50_ms": median_ms(lat["engine.get_conversation"]),
            "stored_bytes_per_item": self.stored_bytes / self.events,
        }
        named = {
            "ingest_events_per_s": (e2e["items_per_s"], "1/s"),
            "commit_p50_ms": (e2e["write_p50_ms"], "ms"),
            "lookup_p50_ms": (e2e["read_p50_ms"], "ms"),
            "commit_samples": (len(lat["engine.apply"]), "count"),
            "lookup_samples": (len(lat["engine.get_conversation"]), "count"),
        }
        for label, key in (("commit", "engine.apply"), ("lookup", "engine.get_conversation")):
            t = tail(lat[key])
            if t is not None:
                named[f"{label}_tail_ms"] = (t[1], f"ms@p{t[0]:g}")
        return e2e, named


class IndexAdmit:
    """Whole admission cycles on fresh indexes, repeated until the run's
    time is up.  One cycle admits every epoch into a MinHash/LSH index
    and an IVF index (``probe_and_add``), compacts both once, admits the
    remaining epochs, then runs one top-k ``IvfIndex.probe`` of every
    query set.  Every cycle does the same calls, so the medians do not
    depend on how many cycles a host fits into the run."""

    THRESHOLD = 0.5
    ADMIT_K, ADMIT_NPROBE = 5, 2
    PROBE_K, PROBE_NPROBE = 10, 2
    MIN_CYCLES = 2

    def __init__(self, b):
        self.b = b
        self.rec = b.rec
        self.s = inputs.SIZES["index_admit"][b.size]
        self.docs = pq.read_table(os.path.join(b.inputs, "docs.parquet"))
        with np.load(os.path.join(b.inputs, "vectors.npz")) as z:
            self.centres = z["centres"]
            self.vectors = z["vectors"]
            self.queries = z["queries"]
        self.mh_path = os.path.join(b.scratch, "minhash")
        self.ivf_path = os.path.join(b.scratch, "ivf")
        self.cycles = 0

    def _epoch(self, e: int):
        import ray.data as rd

        d = self.docs.filter(pc.equal(self.docs["epoch"], e)).select(["doc_id", "text"])
        n = self.s["vectors_per_epoch"]
        ids = np.arange(e * n, (e + 1) * n, dtype=np.int64)
        v = pa.table({"vec_id": ids, "embedding": pa.array(list(self.vectors[ids]))})
        return d, rd.from_arrow(d), rd.from_arrow(v)

    def warmup(self) -> None:
        touch_index(self.b, "warmup.")

    def preload(self) -> None:
        pass

    def measure(self) -> None:
        first = None
        t0 = time.perf_counter()
        while True:
            counts = self._cycle()
            first = first or counts
            self.rec.check("index counts repeat", counts == first, f"{counts} vs {first}")
            self.cycles += 1
            if self.cycles >= self.MIN_CYCLES and time.perf_counter() - t0 >= self.b.seconds:
                break
        # counts of one cycle (they repeat in every cycle)
        self.rec.counters.update(first)
        self.rec.counters["dedup.bytes"], _ = dir_usage(self.mh_path)
        self.rec.counters["ann.bytes"], _ = dir_usage(self.ivf_path)

    def _cycle(self) -> dict:
        """Admit every epoch into fresh indexes, then probe every query
        set once; returns the cycle's counts."""
        from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex
        from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

        rec, s, c = self.rec, self.s, self.rec.counters
        shutil.rmtree(self.mh_path, ignore_errors=True)
        shutil.rmtree(self.ivf_path, ignore_errors=True)
        self.mh = MinHashIndex(self.mh_path)
        self.ivf = IvfIndex(self.ivf_path, centroids=self.centres)
        counts = {"dedup.docs": 0, "dedup.candidates": 0, "ann.vectors": 0, "ann.hits": 0}
        for e in range(s["epochs"]):
            d, d_ds, v_ds = self._epoch(e)
            t_epoch = time.perf_counter()
            with rec.call("dedup.probe_and_add", "state.dedup_index"):
                cand, drep = self.mh.probe_and_add(d_ds, e, threshold=self.THRESHOLD)
            with rec.call("ann.probe_and_add", "state.ann_index"):
                hits, arep = self.ivf.probe_and_add(
                    v_ds, e, k=self.ADMIT_K, nprobe=self.ADMIT_NPROBE
                )
            rec.lat["admit.epoch"].append(time.perf_counter() - t_epoch)
            self._check_admission(e, d, cand, hits, drep, arep)
            counts["dedup.docs"] += drep["docs"]
            counts["dedup.candidates"] += len(cand)
            counts["ann.vectors"] += arep["vectors"]
            counts["ann.hits"] += len(hits)
            if e + 1 == s["compact_after"]:
                with rec.call("dedup.compact", "state.dedup_index"):
                    self.mh.compact()
                with rec.call("ann.compact", "state.ann_index"):
                    self.ivf.compact()
        qn = s["queries_per_probe"]
        for q in range(s["probe_sets"]):
            qids = np.arange(10**9 + q * qn, 10**9 + (q + 1) * qn, dtype=np.int64)
            with rec.call("ann.probe", "state.ann_index"):
                df, st = self.ivf.probe(
                    qids,
                    self.queries[q * qn : (q + 1) * qn],
                    k=self.PROBE_K,
                    nprobe=self.PROBE_NPROBE,
                )
            rec.check("probe returns k per query", len(df) == qn * self.PROBE_K, str(len(df)))
            c["ann.probe.calls"] += 1
            c["ann.probe.files_read"] += st["files_read"]
            c["ann.probe.files_total"] += st["files_total"]
        return counts

    def _check_admission(self, e, d, cand, hits, drep, arep) -> None:
        rec = self.rec
        this_docs = set(d["doc_id"].to_pylist())
        earlier = set(
            self.docs.filter(pc.less(self.docs["epoch"], e))["doc_id"].to_pylist()
        )
        rec.check(
            "minhash pairs meet threshold and point back in time",
            bool((cand["est_jaccard"] >= self.THRESHOLD).all())
            and set(cand["probe_doc"]) <= this_docs
            and set(cand["indexed_doc"]) <= earlier,
            f"epoch {e}",
        )
        n = self.s["vectors_per_epoch"]
        rec.check(
            "ivf hits point back in time",
            bool((hits["qid"] // n == e).all()) and bool((hits["vec_id"] < e * n).all()),
            f"epoch {e}",
        )
        rec.check(
            "segments committed",
            not drep.get("skipped") and not arep.get("skipped"),
            f"{drep} {arep}",
        )

    def verify(self) -> None:
        """Full probe (nprobe == ncells) == numpy brute force; fsck clean."""
        rec, s = self.rec, self.s
        qn = s["queries_per_probe"]
        q = self.queries[:qn]
        qids = np.arange(10**9, 10**9 + qn, dtype=np.int64)
        with rec.call("verify.ann.probe", "state.ann_index"):
            got, _ = self.ivf.probe(qids, q, k=self.PROBE_K, nprobe=self.ivf.ncells)
        rec.check("full probe == brute force top-k", self._brute_equal(got, qids, q))
        for name, idx in (("minhash", self.mh), ("ivf", self.ivf)):
            r = idx.fsck()
            rec.check(f"{name} fsck clean", bool(r["ok"]) and not r["issues"], str(r)[:300])

    def _brute_equal(self, got, qids, q) -> bool:
        def unit(m):
            n = np.linalg.norm(m, axis=1, keepdims=True)
            return m / np.where(n == 0, 1.0, n)

        ids = np.arange(len(self.vectors), dtype=np.int64)
        sims = np.round(unit(self.vectors) @ unit(q).T, 4)  # (n, nq)
        want = []
        for j, qid in enumerate(qids):
            order = np.lexsort((ids, -sims[:, j]))[: self.PROBE_K]
            want += [(int(qid), int(ids[i]), float(sims[i, j])) for i in order]
        have = got[["qid", "vec_id", "sim"]].itertuples(index=False)
        return [(int(a), int(b), float(c)) for a, b, c in have] == want

    def report(self) -> tuple[dict, dict]:
        lat, c = self.rec.lat, self.rec.counters
        dedup_s = sum(lat["dedup.probe_and_add"]) + sum(lat["dedup.compact"])
        ann_s = sum(lat["ann.probe_and_add"]) + sum(lat["ann.compact"])
        items = c["dedup.docs"] + c["ann.vectors"]  # per cycle
        e2e = {
            "items_per_s": items * self.cycles / (dedup_s + ann_s),
            "write_p50_ms": median_ms(lat["admit.epoch"]),
            "read_p50_ms": median_ms(lat["ann.probe"]),
            "stored_bytes_per_item": (c["dedup.bytes"] + c["ann.bytes"]) / items,
        }
        named = {
            "admit_docs_per_s": (c["dedup.docs"] * self.cycles / dedup_s, "1/s"),
            "admit_vectors_per_s": (c["ann.vectors"] * self.cycles / ann_s, "1/s"),
            "ann_probe_p50_ms": (e2e["read_p50_ms"], "ms"),
            "admit_cycles": (self.cycles, "count"),
            "ann_probe_samples": (len(lat["ann.probe"]), "count"),
        }
        t = tail(lat["ann.probe"])
        if t is not None:
            named["ann_probe_tail_ms"] = (t[1], f"ms@p{t[0]:g}")
        return e2e, named


WORKLOADS = {
    "bulk_replay": BulkReplay,
    "follow_lookup": FollowLookup,
    "index_admit": IndexAdmit,
}


def kernels(b) -> None:
    """Each hot kernel alone, and the oracle as the single-process
    baseline, on one ``bulk_replay`` epoch table (traced runs only):
    rows/s of the median of several timed repetitions."""
    from nyc_taxi_data_pipeline_ray.engine import hash_partition_ids
    from nyc_taxi_data_pipeline_ray.pipelines.text import MinHasher
    from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator
    from nyc_taxi_data_pipeline_ray.stages import validate
    from nyc_taxi_data_pipeline_ray.state import merge, oracle

    rec, c = b.rec, b.rec.counters
    spec = inputs.wal_spec("bulk_replay", b.size, b.seed)
    spec.num_epochs = 1
    table = WalGenerator(spec).events_table()
    good, _ = validate.split_valid(table)
    texts = [t for t in good["text"].to_pylist() if t is not None][:256]
    hasher = MinHasher(num_perm=64)

    def timed(name: str, layer: str, fn, reps: int = 5) -> float:
        xs = []
        for _ in range(reps):
            with rec.call(f"kernel.{name}", layer):
                t0 = time.perf_counter()
                fn()
                xs.append(time.perf_counter() - t0)
        return statistics.median(xs)

    n = table.num_rows
    c["validate.split_valid.rows_per_s"] = n / timed(
        "validate.split_valid", "stages.validate", lambda: validate.split_valid(table)
    )
    c["engine.hash_partition_ids.rows_per_s"] = good.num_rows / timed(
        "engine.hash_partition_ids",
        "engine",
        lambda: hash_partition_ids(good["conv_id"], NUM_PARTITIONS),
    )
    c["merge.resolve_lww.rows_per_s"] = good.num_rows / timed(
        "merge.resolve_lww",
        "state.merge",
        lambda: merge.resolve_lww(merge.with_run_seq(good, 0), drop_tombstones=False),
    )
    c["text.MinHasher.signature.docs_per_s"] = len(texts) / timed(
        "text.MinHasher.signature",
        "pipelines.text",
        lambda: [hasher.signature(t) for t in texts],
        reps=3,
    )
    # the single-process reference, as a baseline (not part of the system)
    c["oracle.replay.events_per_s"] = n / timed(
        "oracle.replay", "bench", lambda: oracle.replay(table), reps=1
    )
