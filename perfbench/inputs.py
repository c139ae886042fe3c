"""Seeded workload inputs, built once per (workload, size, seed) and cached.

Everything here derives from ``--seed`` through
``sources.generator.WalGenerator`` or ``numpy.random.default_rng``, so the
same seed gives byte-identical inputs.  Building runs in a child process
(``python3 inputs.py <root> <work> <workload> <size> <seed>``), because
the oracle replay is a pure-Python dict loop that would otherwise inflate
the benchmark process's peak RSS; it is excluded from ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import numpy as np

#: input sizes per workload; ``full`` is what the benchmark measures,
#: ``tiny`` is for the smoke test
SIZES = {
    "bulk_replay": {
        "full": {"conversations": 10_000, "epochs": 8, "events_per_epoch": 12_500},
        "tiny": {"conversations": 300, "epochs": 2, "events_per_epoch": 1_000},
    },
    "follow_lookup": {
        "full": {
            "conversations": 5_000,
            "base_epochs": 12,
            "batch_epochs": 32,
            "events_per_epoch": 2_500,
            "lookups_per_batch": 25,
            "compact_every": 4,
        },
        "tiny": {
            "conversations": 200,
            "base_epochs": 2,
            "batch_epochs": 12,
            "events_per_epoch": 300,
            "lookups_per_batch": 5,
            "compact_every": 2,
        },
    },
    "index_admit": {
        "full": {
            "epochs": 3,
            "docs_per_epoch": 256,
            "vectors_per_epoch": 256,
            "ncells": 8,
            "dim": 64,
            "compact_after": 2,
            "probe_sets": 4,
            "queries_per_probe": 16,
        },
        "tiny": {
            "epochs": 2,
            "docs_per_epoch": 48,
            "vectors_per_epoch": 48,
            "ncells": 4,
            "dim": 16,
            "compact_after": 1,
            "probe_sets": 2,
            "queries_per_probe": 4,
        },
    },
}

#: fixed knobs shared by the lake workloads (FIXTURES.md F2 vocabulary)
LAKE_KNOBS = {
    "zipf_s": 1.1,
    "ooo_fraction": 0.05,
    "dup_fraction": 0.02,
    "invalid_fraction": 0.01,
}

#: kept cache entries per workload; older ones are deleted
CACHE_KEEP = 3


def wal_spec(workload: str, size: str, seed: int):
    from nyc_taxi_data_pipeline_ray.sources.generator import WalSpec

    s = SIZES[workload][size]
    if workload == "bulk_replay":
        return WalSpec(
            seed=seed,
            num_conversations=s["conversations"],
            num_epochs=s["epochs"],
            events_per_epoch=s["events_per_epoch"],
            evolve_at_epoch=s["epochs"] // 2,
            **LAKE_KNOBS,
        )
    if workload == "follow_lookup":
        return WalSpec(
            seed=seed,
            num_conversations=s["conversations"],
            num_epochs=s["base_epochs"] + s["batch_epochs"],
            events_per_epoch=s["events_per_epoch"],
            **LAKE_KNOBS,
        )
    raise ValueError(workload)


def warmup_spec(seed: int):
    """Tiny WAL that touches every lake code path once (evolution,
    rejects, deletes); its texts also feed the tiny MinHash index."""
    from nyc_taxi_data_pipeline_ray.sources.generator import WalSpec

    return WalSpec(
        seed=seed,
        num_conversations=40,
        num_epochs=2,
        events_per_epoch=200,
        evolve_at_epoch=1,
        **LAKE_KNOBS,
    )


def cache_dir(work: str, workload: str, size: str, seed: int) -> str:
    """One dir per input: a change of sizes or knobs gets a new one."""
    spec = json.dumps([SIZES[workload][size], LAKE_KNOBS], sort_keys=True)
    digest = hashlib.sha1(spec.encode()).hexdigest()[:8]
    return os.path.join(work, "cache", f"{workload}-{size}-s{seed}-{digest}")


def build(root: str, work: str, workload: str, size: str, seed: int) -> None:
    """Build the inputs unless already cached."""
    sys.path.insert(0, root)
    out = cache_dir(work, workload, size, seed)
    if os.path.exists(os.path.join(out, "meta.json")):
        os.utime(out)
        return
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator

    WalGenerator(warmup_spec(seed)).write(os.path.join(tmp, "warm_wal"))
    if workload == "index_admit":
        meta = _build_index(tmp, SIZES[workload][size], seed)
    else:
        meta = _build_lake(tmp, workload, size, seed)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    _prune(os.path.dirname(out), workload)


def _prune(parent: str, workload: str) -> None:
    entries = sorted(
        (os.path.getmtime(os.path.join(parent, n)), n)
        for n in os.listdir(parent)
        if n.startswith(workload + "-") and not n.endswith(".tmp")
    )
    for _, name in entries[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(parent, name), ignore_errors=True)


def _build_lake(out: str, workload: str, size: str, seed: int) -> dict:
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator
    from nyc_taxi_data_pipeline_ray.state import oracle

    gen = WalGenerator(wal_spec(workload, size, seed))
    gen.write(os.path.join(out, "wal"))
    events = gen.events_table()
    pq.write_table(oracle.replay(events), os.path.join(out, "oracle.parquet"))
    return {"events": events.num_rows}


def _build_index(out: str, s: dict, seed: int) -> dict:
    """MinHash docs: upserted turn texts of a generated WAL epoch
    (doc_id = lsn).  IVF vectors: seeded clustered vectors around
    ``ncells`` centres, which also serve as the index's centroids."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec

    n_docs, n_vec, epochs = s["docs_per_epoch"], s["vectors_per_epoch"], s["epochs"]
    gen = WalGenerator(
        WalSpec(
            seed=seed,
            num_conversations=2_000,
            num_epochs=epochs,
            events_per_epoch=2 * n_docs,
            dup_fraction=0.0,
        )
    )
    ev = gen.events_table()
    ev = ev.filter(pc.and_(pc.not_equal(ev["op"], "delete"), ev["text"].is_valid()))
    docs = []
    for e in range(epochs):
        t = ev.filter(pc.equal(ev["epoch"], e)).sort_by("lsn").slice(0, n_docs)
        docs.append(
            pa.table(
                {
                    "epoch": pa.array(np.full(t.num_rows, e, np.int32)),
                    "doc_id": t["lsn"],
                    "text": t["text"],
                }
            )
        )
    pq.write_table(pa.concat_tables(docs), os.path.join(out, "docs.parquet"))

    rng = np.random.default_rng([seed, 0xA11])
    centres = rng.normal(size=(s["ncells"], s["dim"]))
    labels = rng.integers(0, s["ncells"], epochs * n_vec)
    vecs = centres[labels] + 0.35 * rng.normal(size=(epochs * n_vec, s["dim"]))
    nq = s["probe_sets"] * s["queries_per_probe"]
    q_labels = rng.integers(0, s["ncells"], nq)
    queries = centres[q_labels] + 0.35 * rng.normal(size=(nq, s["dim"]))
    np.savez(
        os.path.join(out, "vectors.npz"),
        centres=centres,
        vectors=vecs,
        queries=queries,
    )
    return {"docs": sum(t.num_rows for t in docs), "vectors": int(len(vecs))}


if __name__ == "__main__":
    # python3 inputs.py <checkout root> <work dir> <workload> <size> <seed>
    root_, work_, workload_, size_, seed_ = sys.argv[1:6]
    build(root_, work_, workload_, size_, int(seed_))
