"""Similarity search over the ``embeddings`` table (list<float> column).

- :func:`q_ann_bruteforce` — exact cosine top-k: the query matrix is
  broadcast once via ``ray.put``; each batch does one float64 matmul
  against it and emits a *partial* top-k, so the final merge handles
  (num_queries x k x num_blocks) rows, not N.  SQL oracle via DuckDB
  ``list_cosine_similarity``.
- :func:`q_embedding_near_dup` — all-pairs cosine >= threshold by
  blocked matmul against the broadcast full matrix (N x 64 floats is
  small; work N^2 is sharded across batches).  SQL oracle (self cross
  join).  At N where N x d no longer broadcasts, swap the broadcast for
  the LSH bucketing below.
- :func:`q_ann_lsh` — random-hyperplane LSH: sign-bit signatures ->
  bucket groupby -> exact cosine only within buckets (the scale path;
  recall vs brute force asserted in tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.compute as pc

import ray
import ray.data as rd

from nyc_taxi_data_pipeline_ray.io import fresh_tmp_root, read_parquet_clean

# one canonical row normalization for index build AND probe (a skew
# between the two would silently degrade IVF cell assignment)
from nyc_taxi_data_pipeline_ray.state.ann_index import kmeans_lite, normalize_rows


def vectors_where_id_below(sf_dir: str, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Read ONLY the vectors with ``vec_id < upper`` — a pushed-down
    parquet row filter, so query/training-sample selection never
    materializes the full embeddings table on the driver (at 10^9
    vectors the table is TBs; the selected rows are KBs)."""
    blocks = [
        b
        for b in ray.get(
            read_parquet_clean(
                f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"],
                filter=pads.field("vec_id") < upper,
            ).to_arrow_refs()
        )
        if b.num_rows  # fully-pruned blocks come back schemaless
    ]
    t = pa.concat_tables(blocks)
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    order = np.argsort(ids)
    return ids[order], mat[order]


def q_ann_bruteforce(sf_dir: str, *, k: int = 5, num_queries: int = 5) -> pd.DataFrame:
    """Exact top-k cosine neighbours of the first ``num_queries`` vectors."""
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    qmat = normalize_rows(qmat)
    qref = ray.put((qids, qmat))

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def partial_topk(t: pa.Table) -> pa.Table:
        # plain task (not an actor): the broadcast ref resolves from the
        # local object store via shared memory, no pool spin-up cost
        qids_l, qmat_l = ray.get(qref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        m = normalize_rows(
            np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        sims = qmat_l @ m.T  # (Q x B)
        rows = {"qid": [], "vec_id": [], "sim": []}
        for qi, qid in enumerate(qids_l):
            s = sims[qi]
            cand = np.nonzero(ids != qid)[0]
            if len(cand) == 0:
                continue
            order = cand[np.lexsort((ids[cand], -np.round(s[cand], 4)))][:k]
            rows["qid"].extend([qid] * len(order))
            rows["vec_id"].extend(ids[order])
            rows["sim"].extend(np.round(s[order], 4))
        return pa.table(
            {
                "qid": pa.array(rows["qid"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "sim": pa.array(rows["sim"], pa.float64()),
            }
        )

    partial = ds.map_batches(partial_topk, batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True], ignore_index=True)
        return g.head(k)

    df = partial.groupby("qid").map_groups(final_topk, batch_format="pandas").to_pandas()
    return df.sort_values(["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True)


@ray.remote
def _block_pair_sims(ta: pa.Table, tb: pa.Table, threshold: float, same: bool) -> pa.Table:
    """Exact cosine pairs >= threshold between two embedding blocks.
    Each task pulls exactly TWO blocks from the object store (zero-copy
    shared memory on the same node) — never the whole matrix."""
    ia = ta["vec_id"].to_numpy(zero_copy_only=False)
    ib = tb["vec_id"].to_numpy(zero_copy_only=False)
    ma = normalize_rows(np.stack(ta["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64))
    mb = normalize_rows(np.stack(tb["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64))
    sims = ma @ mb.T
    ri, rj = np.nonzero(sims >= threshold)
    if same:
        # one block against itself: each unordered pair shows up twice
        keep = ia[ri] < ib[rj]
        ri, rj = ri[keep], rj[keep]
    a, b = ia[ri], ib[rj]
    # distinct blocks are disjoint row sets: every cross pair appears
    # exactly once, so a < b is a rename (min/max), not a filter
    return pa.table(
        {
            "vec_a": pa.array(np.minimum(a, b), pa.int64()),
            "vec_b": pa.array(np.maximum(a, b), pa.int64()),
            "sim": pa.array(np.round(sims[ri, rj], 4), pa.float64()),
        }
    )


def q_embedding_near_dup(sf_dir: str, *, threshold: float = 0.45) -> pd.DataFrame:
    """All pairs with cosine >= threshold (embedding-cosine near-dup).

    Exact all-pairs expressed as a BLOCK-PAIR sweep: the table's Arrow
    blocks stay in the object store; one Ray task per unordered block
    pair (i <= j) does a bounded matmul and emits its qualifying pairs.
    The O(n^2) compute is inherent to the exact problem and is sharded
    across B(B+1)/2 tasks of bounded memory; no task and no driver ever
    holds the full matrix.  (At 10^9 vectors use the LSH/IVF variants
    below — exact all-pairs is the small/medium-corpus tool.)
    """
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    refs = ds.to_arrow_refs()
    futs = [
        _block_pair_sims.remote(refs[i], refs[j], threshold, i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    parts = [t for t in ray.get(futs) if t.num_rows]
    if not parts:
        return pd.DataFrame(
            {
                "vec_a": pd.Series(dtype="int64"),
                "vec_b": pd.Series(dtype="int64"),
                "sim": pd.Series(dtype="float64"),
            }
        )
    df = pa.concat_tables(parts).to_pandas()
    return df.sort_values(["vec_a", "vec_b"], ignore_index=True)


def q_ann_lsh(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    n_planes: int = 6,
    n_tables: int = 12,
    seed: int = 11,
) -> pd.DataFrame:
    """Multi-table random-hyperplane LSH approximate top-k: L independent
    sign-signature tables; a vector is a candidate if it collides with
    the query in ANY table (standard LSH OR-amplification — for cosine
    ~0.4 neighbours, one 6-plane table collides with p~0.08; 12 tables
    lift recall to ~1-(1-p)^12 ~ 0.63).  Exact cosine reranks the
    candidate union.  Tests measure recall vs :func:`q_ann_bruteforce`."""
    rng = np.random.default_rng(seed)
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    qmat = normalize_rows(qmat)
    dim = qmat.shape[1]
    planes = rng.standard_normal((n_tables, dim, n_planes))
    pow2 = 1 << np.arange(n_planes)
    qsig = np.stack([(qmat @ planes[t] > 0) @ pow2 for t in range(n_tables)], axis=1)  # (Q, L)
    qref = ray.put((qids, qmat, qsig, planes))

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def bucket_scan(t: pa.Table) -> pa.Table:
        qids_l, qmat_l, qsig_l, planes_l = ray.get(qref)
        pow2_l = 1 << np.arange(planes_l.shape[2])
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        m = normalize_rows(
            np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        L = planes_l.shape[0]
        sig = np.stack([(m @ planes_l[ti] > 0) @ pow2_l for ti in range(L)], axis=1)  # (B, L)
        rows = {"qid": [], "vec_id": [], "sim": []}
        for qi, qid in enumerate(qids_l):
            collide = (sig == qsig_l[qi][None, :]).any(axis=1) & (ids != qid)
            cand = np.nonzero(collide)[0]
            if len(cand) == 0:
                continue
            s = m[cand] @ qmat_l[qi]
            order = np.lexsort((ids[cand], -np.round(s, 4)))[:k]
            rows["qid"].extend([qid] * len(order))
            rows["vec_id"].extend(ids[cand][order])
            rows["sim"].extend(np.round(s[order], 4))
        return pa.table(
            {
                "qid": pa.array(rows["qid"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "sim": pa.array(rows["sim"], pa.float64()),
            }
        )

    partial = ds.map_batches(bucket_scan, batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["sim", "vec_id"], ascending=[False, True], ignore_index=True).head(k)

    df = partial.groupby("qid").map_groups(final_topk, batch_format="pandas").to_pandas()
    return df.sort_values(["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True)


# --------------------------------------------------------------------------
# IVF (inverted-file) ANN — the other standard scale path next to LSH:
# k-means-lite centroids trained on a driver-side sample, broadcast once;
# each batch assigns its vectors to a cell; queries probe only the
# ``nprobe`` nearest cells.  At 100 TB the sample fits the driver (a few
# thousand vectors), centroid assignment is one matmul per batch, and
# the probed fraction bounds compute at nprobe/ncells of brute force.
def q_ann_ivf(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    nprobe: int = 4,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Approximate top-k via IVF cells (rows-only query; recall vs
    brute force is asserted in tests, mirroring q_ann_lsh)."""
    # train centroids on a deterministic PRUNED-READ sample (vec_id <
    # sample_rows pushed down to the parquet scan) — the driver holds a
    # few thousand vectors, never the full table
    _, sample_mat = vectors_where_id_below(sf_dir, sample_rows)
    sample = normalize_rows(sample_mat)
    cent = kmeans_lite(sample, min(ncells, len(sample)))

    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    qmat = normalize_rows(qmat)
    # cells each query probes: nprobe nearest centroids
    qcells = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    qref = ray.put((qids, qmat, qcells, cent))

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def probe(t: pa.Table) -> pa.Table:
        qids_l, qmat_l, qcells_l, cent_l = ray.get(qref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        m = normalize_rows(
            np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        cells = np.argmax(m @ cent_l.T, axis=1)  # (B,) cell assignment
        rows = {"qid": [], "vec_id": [], "sim": []}
        for qi, qid in enumerate(qids_l):
            probe_mask = np.isin(cells, qcells_l[qi]) & (ids != qid)
            cand = np.nonzero(probe_mask)[0]
            if len(cand) == 0:
                continue
            s = m[cand] @ qmat_l[qi]
            order = np.lexsort((ids[cand], -np.round(s, 4)))[:k]
            rows["qid"].extend([qid] * len(order))
            rows["vec_id"].extend(ids[cand][order])
            rows["sim"].extend(np.round(s[order], 4))
        return pa.table(
            {
                "qid": pa.array(rows["qid"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "sim": pa.array(rows["sim"], pa.float64()),
            }
        )

    partial = ds.map_batches(probe, batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["sim", "vec_id"], ascending=[False, True], ignore_index=True).head(k)

    df = partial.groupby("qid").map_groups(final_topk, batch_format="pandas").to_pandas()
    return df.sort_values(["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True)


# --------------------------------------------------------------------------
def q_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding centroid (vector mean-pool) — the class-
    prototype / cluster-center aggregate behind nearest-centroid
    classification and IVF coarse quantizers.  A vector SUM is
    elementwise-additive, so each block reduces to one (label, dim-sum
    vector, count) partial — emitted LONG (label, dim, s) so the
    exchange is labels x dims rows per block regardless of N — and the
    driver folds partials and divides once.
    """
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False)
        mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        ul, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ul), mat.shape[1]))
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv)
        L, D = sums.shape
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, D).astype(np.int64)),
                "dim": pa.array(np.tile(np.arange(1, D + 1), L)),
                "s": pa.array(sums.reshape(-1)),
                "n": pa.array(np.repeat(cnt, D).astype(np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby(["label", "dim"], as_index=False).agg(
        s=("s", "sum"), n=("n", "sum")
    )
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    out = pd.DataFrame(
        {
            "label": agg["label"].astype("int64"),
            "dim": agg["dim"].astype("int64"),
            "centroid": round_half_away((agg["s"] / agg["n"]).to_numpy(), 6),
        }
    )
    return out.sort_values(["label", "dim"], ignore_index=True)


# --------------------------------------------------------------------------
def q_kmeans_assign(sf_dir: str, *, k: int = 8, iters: int = 2) -> rd.Dataset:
    """Distributed k-means (Lloyd's) cluster assignment — the iterative
    template every EM-style algorithm on this engine follows: per
    iteration, ONE streaming pass assigns each vector to its nearest
    centroid and reduces to long (cid, dim, s, n) partials (the same
    additive shape as :func:`q_label_centroids` — k x d rows per block);
    the driver folds partials into new centroids (k x d doubles,
    re-broadcast through the closure), and the Dataset is re-scanned,
    never materialized.  Init is deterministic (vec_id < k, pruned
    read); ``iters`` fixed rounds, then a final assignment pass streams
    (vec_id, cluster) out.

    Fully oracle-checked: the SQL mirror unrolls the same ``iters``
    Lloyd rounds with ``list_distance`` + per-dim ``avg``; ties broken
    by centroid id in both engines.
    """
    _, cent = vectors_where_id_below(sf_dir, k)  # k x d, ordered by vec_id
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def assign(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
        # squared Euclidean argmin; ties -> lowest cid (argmin first-hit)
        d2 = ((mat[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return d2.argmin(axis=1)

    for _ in range(iters):
        c = cent.copy()

        def partial(t: pa.Table, c=c) -> pa.Table:
            mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
            cid = assign(mat, c)
            sums = np.zeros((k, mat.shape[1]))
            np.add.at(sums, cid, mat)
            cnt = np.bincount(cid, minlength=k)
            D = mat.shape[1]
            return pa.table(
                {
                    "cid": pa.array(np.repeat(np.arange(k), D).astype(np.int64)),
                    "dim": pa.array(np.tile(np.arange(D), k)),
                    "s": pa.array(sums.reshape(-1)),
                    "n": pa.array(np.repeat(cnt, D).astype(np.int64)),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        agg = parts.groupby(["cid", "dim"], as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")
        )
        agg = agg.sort_values(["cid", "dim"], ignore_index=True)
        ncent = cent.copy()  # empty clusters keep their old centroid
        sums = agg["s"].to_numpy().reshape(k, -1)
        cnts = agg["n"].to_numpy().reshape(k, -1)
        nonempty = cnts[:, 0] > 0
        ncent[nonempty] = sums[nonempty] / cnts[nonempty]
        cent = ncent

    cfin = cent

    def final(t: pa.Table) -> pa.Table:
        mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "cluster": pa.array(assign(mat, cfin).astype(np.int64)),
            }
        )

    return ds.map_batches(final, batch_format="pyarrow")


# --------------------------------------------------------------------------
def q_embedding_norms(sf_dir: str) -> pd.DataFrame:
    """Per-label L2-norm statistics of the embedding column — the
    vector-health check (unnormalized rows, collapsed clusters, scale
    drift) run before any similarity search.  Each block computes its
    vectors' norms in one reshape + matmul-free kernel and reduces to a
    (label -> n, sum, min, max) partial — count/sum/min/max are
    monoids, so the exchange is labels x blocks rows and the driver
    folds once.  The oracle evaluates the SAME per-element
    cast-to-double square/sum/sqrt chain via DuckDB list lambdas.
    """
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        nrm = np.sqrt((mat * mat).sum(axis=1))
        df = pd.DataFrame({"label": lab, "nrm": nrm})
        g = df.groupby("label", sort=False)["nrm"].agg(["size", "sum", "min", "max"])
        g = g.reset_index()
        return pa.table(
            {
                "label": pa.array(g["label"].to_numpy(np.int64)),
                "n": pa.array(g["size"].to_numpy(np.int64)),
                "s": pa.array(g["sum"].to_numpy(np.float64)),
                "mn": pa.array(g["min"].to_numpy(np.float64)),
                "mx": pa.array(g["max"].to_numpy(np.float64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("label", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"), mn=("mn", "min"), mx=("mx", "max")
    )
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    return pd.DataFrame(
        {
            "label": g["label"].astype("int64"),
            "n": g["n"].astype("int64"),
            "mean_norm": round_half_away(g["s"].to_numpy() / g["n"].to_numpy(float), 6),
            "min_norm": round_half_away(g["mn"].to_numpy(), 6),
            "max_norm": round_half_away(g["mx"].to_numpy(), 6),
        }
    ).sort_values("label", ignore_index=True)


# --------------------------------------------------------------------------
@ray.remote
def _block_knn_partials(ta: pa.Table, tb: pa.Table, k: int, same: bool) -> pa.Table:
    """Per-row top-k candidates between two embedding blocks, BOTH
    directions when the blocks differ — bounded matmul per task, like
    :func:`_block_pair_sims`.  Ordering key is (sim desc, neighbor asc)
    over 4-dp-rounded sims, encoded exactly in int64 so the per-block
    partials provably contain the global top-k under the same order."""
    ia = ta["vec_id"].to_numpy(zero_copy_only=False)
    ib = tb["vec_id"].to_numpy(zero_copy_only=False)
    ma = normalize_rows(np.stack(ta["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64))
    mb = normalize_rows(np.stack(tb["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64))
    sims = np.round(ma @ mb.T, 4)

    def side(sims_ab: np.ndarray, ids_a: np.ndarray, ids_b: np.ndarray, mask_diag: bool):
        s = sims_ab.copy()
        if mask_diag:
            eq = ids_a[:, None] == ids_b[None, :]
            s[eq] = -2.0  # a vector is not its own neighbor
        # exact composite key: 4-dp sim scaled to int, minus neighbor id
        key = (s * 10_000).astype(np.int64) * 10_000_000 - ids_b[None, :]
        kk = min(k, key.shape[1])
        top = np.argpartition(-key, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(np.arange(key.shape[0]), kk)
        cols = top.ravel()
        keep = s[rows, cols] > -2.0
        return pa.table(
            {
                "vec_id": pa.array(ids_a[rows[keep]], pa.int64()),
                "neighbor": pa.array(ids_b[cols[keep]], pa.int64()),
                "sim": pa.array(s[rows[keep], cols[keep]], pa.float64()),
            }
        )

    parts = [side(sims, ia, ib, same)]
    if not same:
        parts.append(side(sims.T.copy(), ib, ia, False))
    return pa.concat_tables(parts)


def q_knn_graph(sf_dir: str, *, k: int = 5) -> pd.DataFrame:
    """Exact k-nearest-neighbor graph over the embeddings table: every
    vector's top-k cosine neighbors with rank — the similarity-search
    building block a dedup/retrieval pipeline materializes once and
    reuses (cluster seeding, near-dup chaining, diversity sampling).

    Same scale shape as :func:`q_embedding_near_dup`: one bounded
    matmul task per unordered block pair (each emits per-row partial
    top-k for BOTH sides), then a groupby merge of k-sized partials —
    no task holds more than two blocks, the merge input is
    O(vectors x blocks x k), and the driver never sees raw sims.
    Ordering (sim desc, neighbor asc on 4-dp sims) matches the SQL
    oracle's window exactly, so ranks hash-match."""
    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    refs = ds.to_arrow_refs()
    futs = [
        _block_knn_partials.remote(refs[i], refs[j], k, i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    parts = [t for t in ray.get(futs) if t.num_rows]
    if not parts:
        return pd.DataFrame(
            {
                "vec_id": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64"),
                "neighbor": pd.Series(dtype="int64"),
                "sim": pd.Series(dtype="float64"),
            }
        )

    # bounded-bucket merge: per-vector groups are tiny (blocks x k), so
    # shuffle on vec_id % NB and run ONE vectorized head-k pass per
    # bucket instead of a per-vector map_groups call
    NB = 64
    cand = pa.concat_tables(parts)
    cand = cand.append_column(
        "bucket",
        pa.array(
            (cand["vec_id"].to_numpy(zero_copy_only=False) % NB).astype(np.int32)
        ),
    )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["vec_id", "sim", "neighbor"], ascending=[True, False, True]
        )
        g = g.groupby("vec_id", sort=False).head(k).reset_index(drop=True)
        g["rank"] = g.groupby("vec_id", sort=False).cumcount().to_numpy() + 1
        return g[["vec_id", "rank", "neighbor", "sim"]]

    out = (
        rd.from_arrow(cand)
        .groupby("bucket")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["vec_id", "rank"], ignore_index=True)


# --------------------------------------------------------------------------
def q_semantic_dedup(
    sf_dir: str, *, k: int = 8, threshold: float = 0.40
) -> rd.Dataset:
    """SemDeDup-style semantic deduplication: bucket vectors by nearest
    centroid (one streaming assignment pass against k broadcast
    centroids — deterministic init, vec_id < k via pruned read), then
    inside each cluster mark every vector that has a LOWER-id neighbor
    with cosine >= threshold as a duplicate of the smallest such id.
    The cross-vector work happens only within clusters — one bounded
    groupby exchange — so the pairwise matmul is (cluster size)^2, not
    N^2; at scale k grows with N to hold cluster sizes at the matmul
    budget (the SemDeDup recipe).  Output per vector: cluster id,
    dup_of (-1 if kept), is_kept.  Fully SQL-oracled (single-pass
    assignment keeps the oracle's centroid math unrolled-free).
    """
    _, cent = vectors_where_id_below(sf_dir, k)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def assign(t: pa.Table) -> pa.Table:
        mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        d2 = ((mat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        return t.append_column("cluster", pa.array(d2.argmin(axis=1).astype(np.int64)))

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("vec_id", ignore_index=True)
        ids = df["vec_id"].to_numpy(np.int64)
        M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        G = M @ M.T
        hit = np.tril(G >= threshold, k=-1)  # j strictly before i in id order
        any_dup = hit.any(axis=1)
        first = hit.argmax(axis=1)  # ids sorted asc -> first True = min id
        dup_of = np.where(any_dup, ids[first], np.int64(-1))
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cluster": df["cluster"].astype("int64"),
                "dup_of": dup_of.astype(np.int64),
                "is_kept": ~any_dup,
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup, batch_format="pandas")
    )


def _kmeans_l2(sample: np.ndarray, k: int, iters: int = 8, seed: int = 7) -> np.ndarray:
    """Plain-Euclidean Lloyd for PQ sub-codebooks: subvectors are NOT
    unit-norm, so centroids must stay un-normalized means (the cosine
    variant ``kmeans_lite`` would miscalibrate ADC scores)."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=k, replace=False)].copy()
    for _ in range(iters):
        d = 2 * (sample @ cent.T) - (cent * cent).sum(1)[None, :]
        assign = np.argmax(d, axis=1)
        for c in range(k):
            mem = sample[assign == c]
            if len(mem):
                cent[c] = mem.mean(axis=0)
    return cent


def q_ann_pq(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    m_sub: int = 4,
    k_codes: int = 32,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Approximate top-k via PRODUCT QUANTIZATION (Jegou et al. 2011):
    the vector-compression path every billion-vector ANN system ships —
    vectors become ``m_sub`` uint8 codes (32x smaller than float32 at
    d=128/m=4: constant-memory per worker, the whole compressed corpus
    fits where raw vectors never would), and query-time distance is
    ASYMMETRIC: each query precomputes an (m_sub, k_codes) inner-product
    table against the sub-codebooks, so a candidate's score is
    ``m_sub`` table lookups + adds instead of a d-dim dot product.

    Distributed shape mirrors ``q_ann_ivf``: codebooks are trained on a
    deterministic pruned-read sample (k-means-lite per subspace) and
    broadcast via ``ray.put``; each block encodes its own vectors and
    scores all queries vectorized (one fancy-index + sum per query),
    emitting k-sized partial top-k rows; the driver folds tiny
    partials.  Rows-only query (quantization error is inherent); recall
    vs brute force and an exactness witness (codebook = all distinct
    subvectors => ADC scores equal exact dot products) are pinned in
    pytest."""
    _, sample_mat = vectors_where_id_below(sf_dir, sample_rows)
    sample = normalize_rows(sample_mat)
    d = sample.shape[1]
    if d % m_sub != 0:
        raise ValueError("subspace count must divide dimension")
    dsub = d // m_sub
    books = np.stack(
        [
            _kmeans_l2(
                np.ascontiguousarray(sample[:, j * dsub : (j + 1) * dsub]),
                min(k_codes, len(sample)),
                seed=7 + j,
            )
            for j in range(m_sub)
        ]
    )  # (m_sub, k_codes, dsub); un-normalized: sub-centroids live in subspace

    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    qmat = normalize_rows(qmat)
    # per-query ADC tables: inner products against every sub-centroid
    qtables = np.stack(
        [
            np.stack(
                [
                    books[j] @ qmat[qi, j * dsub : (j + 1) * dsub]
                    for j in range(m_sub)
                ]
            )
            for qi in range(len(qids))
        ]
    )  # (Q, m_sub, k_codes)
    qref = ray.put((qids, qtables, books))

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def encode_score(t: pa.Table) -> pa.Table:
        qids_l, qtables_l, books_l = ray.get(qref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        m = normalize_rows(
            np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        )
        n, msub = len(ids), books_l.shape[0]
        dsub_l = m.shape[1] // msub
        codes = np.empty((n, msub), np.int64)
        for j in range(msub):
            sub = m[:, j * dsub_l : (j + 1) * dsub_l]
            # nearest sub-centroid by L2 == argmax (2<x,c> - |c|^2)
            c = books_l[j]
            codes[:, j] = np.argmax(2 * (sub @ c.T) - (c * c).sum(1)[None, :], axis=1)
        rows = {"qid": [], "vec_id": [], "sim": []}
        for qi, qid in enumerate(qids_l):
            # ADC score: sum of per-subspace table lookups
            s = qtables_l[qi][np.arange(msub)[None, :], codes].sum(axis=1)
            keep = ids != qid
            cand = np.nonzero(keep)[0]
            order = np.lexsort((ids[cand], -np.round(s[cand], 4)))[:k]
            rows["qid"].extend([qid] * len(order))
            rows["vec_id"].extend(ids[cand][order])
            rows["sim"].extend(np.round(s[cand][order], 4))
        return pa.table(
            {
                "qid": pa.array(rows["qid"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "sim": pa.array(rows["sim"], pa.float64()),
            }
        )

    partial = ds.map_batches(encode_score, batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["sim", "vec_id"], ascending=[False, True], ignore_index=True
        ).head(k)

    df = partial.groupby("qid").map_groups(final_topk, batch_format="pandas").to_pandas()
    return df.sort_values(
        ["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True
    )


# --------------------------------------------------------------------------
def _build_ivf_index(
    sf_dir: str, root: str, *, ncells: int, sample_rows: int, **idx_kwargs
):
    """Fresh persisted IVF index over the embeddings table, built
    INCREMENTALLY in two segments (even / odd vec_id halves) to exercise
    the O(new vectors) add path the index exists for.  Extra kwargs
    (``pq_books`` / ``pq_refine`` / ``attr_col``) select the IVF-PQ
    storage tier and the filterable-metadata column."""
    import shutil

    from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex

    shutil.rmtree(root, ignore_errors=True)
    _, sample_mat = vectors_where_id_below(sf_dir, sample_rows)
    cent = kmeans_lite(normalize_rows(sample_mat), ncells)
    idx = IvfIndex(root, centroids=cent, **idx_kwargs)
    attr = idx_kwargs.get("attr_col")
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"] + ([attr] if attr else []),
    )

    def half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(t["vec_id"], pa.scalar(1, pa.int64())),
                pa.scalar(parity, pa.int64()),
            )
            return t.filter(keep)

        return f

    idx.add(ds.map_batches(half(0), batch_format="pyarrow"), segment_id=0)
    idx.add(ds.map_batches(half(1), batch_format="pyarrow"), segment_id=1)
    return idx


def q_ann_index_probe(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    nprobe: int = 4,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """PERSISTED-INDEX approximate top-k (rows-only production config):
    unlike ``q_ann_ivf`` — which rescans the full corpus per query
    batch — the probe reads ONLY the ``nprobe`` nearest cells' parquet
    files from the :class:`state.ann_index.IvfIndex` built incrementally
    beforehand (two ``add`` segments).  The partition pruning is
    asserted in-query: strictly fewer cell files read than exist.
    Recall vs brute force is pinned in tests; the exhaustive-probe
    exactness witness is ``q_ann_index_exhaustive``."""
    idx = _build_ivf_index(
        sf_dir, fresh_tmp_root("/tmp/nyc_ray_q_ann_index"), ncells=ncells, sample_rows=sample_rows
    )
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(qids, normalize_rows(qmat), k=k, nprobe=nprobe)
    # pruning is real: each query touches at most its nprobe cells.  (The
    # files_read < files_total form would be data-dependent — k-means can
    # leave cells empty, letting the probed UNION cover every non-empty
    # cell even though per-query pruning held.)
    if not (nprobe < stats["cells_total"]):
        raise RuntimeError(f"pruning witness degenerate: {stats}")
    if not (stats["cells_probed"] <= num_queries * nprobe):
        raise RuntimeError(f"probe pruning violated: {stats}")
    return df


def q_ann_index_exhaustive(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Exactness witness for the persisted IVF index: probing ALL cells
    visits every indexed vector exactly once, so the result equals
    brute-force top-k bit for bit (same 4-dp rounding and tie order) —
    the full ``ann_bruteforce`` SQL oracle certifies the index's read
    path end to end (segment layout, cell routing, merge)."""
    idx = _build_ivf_index(
        sf_dir, fresh_tmp_root("/tmp/nyc_ray_q_ann_index_ex"), ncells=ncells, sample_rows=sample_rows
    )
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(qids, normalize_rows(qmat), k=k, nprobe=ncells)
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    return df


def _saturated_pq_books(m_norm: np.ndarray, m_sub: int) -> np.ndarray:
    """PQ codebooks holding EVERY distinct subvector of ``m_norm`` —
    encoding becomes lossless (each subvector quantizes to itself), so
    ADC scores equal exact dot products: the witness configuration that
    lets a SQL oracle certify the whole IVF-PQ read path.  Subspaces
    with fewer distinct subvectors are padded with copies of their first
    entry; ``argmax`` breaks the resulting exact ties toward the
    earliest index, so a pad code is never emitted."""
    dsub = m_norm.shape[1] // m_sub
    subs = [
        np.unique(m_norm[:, j * dsub : (j + 1) * dsub], axis=0) for j in range(m_sub)
    ]
    kc = max(len(s) for s in subs)
    return np.stack(
        [
            np.vstack([s, np.repeat(s[:1], kc - len(s), axis=0)])
            if len(s) < kc
            else s
            for s in subs
        ]
    )


def q_ann_index_pq_exhaustive(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    m_sub: int = 4,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Exactness witness for the IVF-PQ STORAGE tier: cell files hold
    small-int PQ codes instead of raw vectors (at d=64/m=4 the index is
    ~32-128x smaller than the corpus — the reason billion-vector IVF
    indexes ship PQ), and probing scores candidates via per-query ADC
    lookup tables.  With SATURATED codebooks (every distinct subvector
    is a sub-centroid — built here from a driver read of the corpus,
    which is witness-scale only; production trains k_codes=256 books on
    a sample) the encoding is lossless and ADC == exact dot product, so
    an all-cells probe reproduces brute-force top-k — certified by the
    same ``ann_bruteforce`` SQL oracle as ``ann_index_exhaustive``.
    Production recall at k_codes=256-sized books and the exact-refine
    tier (``pq_refine``) are pinned in pytest."""
    ids_all, mat_all = vectors_where_id_below(sf_dir, np.iinfo(np.int64).max)
    books = _saturated_pq_books(normalize_rows(mat_all), m_sub)
    idx = _build_ivf_index(
        sf_dir,
        fresh_tmp_root("/tmp/nyc_ray_q_ann_index_pq_ex"),
        ncells=ncells,
        sample_rows=sample_rows,
        pq_books=books,
    )
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(qids, normalize_rows(qmat), k=k, nprobe=ncells)
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    return df


def q_ann_index_asof(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """TIME-TRAVEL probe of the persisted IVF index: the index is built
    in two segments (even vec_ids = segment 0, odd = segment 1), and the
    probe runs ``as_of_segment=0`` — segment 1's vectors are invisible,
    exactly the lake's ``cdc_as_of`` semantics at the index level (a
    reproducible historical read without replaying adds).  Probing all
    cells makes it exact: the SQL oracle is brute-force top-k cosine
    restricted to EVEN vec_ids.  The full-watermark consistency check
    (``as_of`` = newest segment == unrestricted probe) and the
    folded-history error path are pinned in pytest."""
    idx = _build_ivf_index(
        sf_dir,
        fresh_tmp_root("/tmp/nyc_ray_q_ann_index_asof"),
        ncells=ncells,
        sample_rows=sample_rows,
    )
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(
        qids, normalize_rows(qmat), k=k, nprobe=ncells, as_of_segment=0
    )
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    return df


def q_ann_index_filtered(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    label: int = 3,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """FILTERED vector search on the persisted IVF index: the index is
    built with ``attr_col='label'`` (the metadata column rides in every
    cell file), and the probe restricts candidates to ``label == 3``
    BEFORE scoring, so top-k is over the matching slice — the
    training-data-curation shape ("nearest neighbours within one
    language/domain") that a post-filter of an unfiltered top-k would
    under-fill.  Probing all cells makes it exact: the SQL oracle is
    brute-force top-k cosine over ``where label = 3``.  Pruned filtered
    probes (``nprobe < ncells``) are pinned in pytest."""
    idx = _build_ivf_index(
        sf_dir,
        fresh_tmp_root("/tmp/nyc_ray_q_ann_index_flt"),
        ncells=ncells,
        sample_rows=sample_rows,
        attr_col="label",
    )
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(
        qids, normalize_rows(qmat), k=k, nprobe=ncells, where=("label", label)
    )
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    return df


def q_ann_index_delete(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Exactness witness for CDC deletes propagated into the persisted
    IVF index: vectors with ``vec_id % 7 == 0`` are tombstoned
    (segment 2) after the two-segment build, then the ``% 14 == 0``
    subset is RE-ADDED (segment 3) — delete-then-re-add resurrects,
    because tombstones only kill rows from earlier segments.  An
    all-cells probe then equals brute-force top-k over exactly the live
    set (corpus minus the still-deleted ids), certified by a filtered
    ``ann_bruteforce`` SQL oracle.  The witness also compacts the index
    (physical removal: tombstones fold into the base and are dropped)
    and requires the probe result to be IDENTICAL afterwards.

    No reference analog (the reference has no vector surface); the
    tombstone-segment shape is the standard LSM delete, motivated here
    by retention/takedown propagation into derived indexes."""
    idx = _build_ivf_index(
        sf_dir,
        fresh_tmp_root("/tmp/nyc_ray_q_ann_index_del"),
        ncells=ncells,
        sample_rows=sample_rows,
    )
    ids_all, _ = vectors_where_id_below(sf_dir, np.iinfo(np.int64).max)
    idx.delete(ids_all[ids_all % 7 == 0], segment_id=2)
    replay = idx.delete(ids_all[ids_all % 7 == 0], segment_id=2)
    if replay != {"segment": 2, "skipped": True}:
        raise RuntimeError(f"tombstone replay not idempotent: {replay}")
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    def keep_readd(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 14 == 0))

    readd = ds.map_batches(keep_readd, batch_format="pyarrow")
    idx.add(readd, segment_id=3)
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = idx.probe(qids, normalize_rows(qmat), k=k, nprobe=ncells)
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    idx.compact()
    df2, _ = idx.probe(qids, normalize_rows(qmat), k=k, nprobe=ncells)
    if not df.reset_index(drop=True).equals(df2.reset_index(drop=True)):
        raise RuntimeError("probe result changed across compact()")
    return df


def q_ann_index_merge(
    sf_dir: str,
    *,
    k: int = 5,
    num_queries: int = 5,
    ncells: int = 16,
    sample_rows: int = 2000,
) -> pd.DataFrame:
    """Exactness witness for INDEX FEDERATION (`IvfIndex.merge_from`):
    even vec_ids are indexed in A and odd vec_ids in a SEPARATE index B
    trained on a different quantizer (k-means seed 13 vs 7, so the two
    cell layouts genuinely differ); odd ids divisible by 5 are then
    tombstoned in B.  ``A.merge_from(B)`` imports only B's LIVE view and
    re-assigns it against A's centroids as one committed segment — the
    per-shard parallel build / replica-merge shape that avoids
    re-reading a shard's corpus.  An all-cells probe of the merged A
    equals brute-force top-k over ``even ids UNION live odd ids`` (the
    filtered ``ann_bruteforce`` SQL oracle), and the merge replay must
    be a no-op (exactly-once on segment_id)."""
    from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex

    root = fresh_tmp_root("/tmp/nyc_ray_q_ann_index_merge")
    _, sample_mat = vectors_where_id_below(sf_dir, sample_rows)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def parity(p: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(t["vec_id"], pa.scalar(1, pa.int64())),
                pa.scalar(p, pa.int64()),
            )
            return t.filter(keep)

        return f

    a = IvfIndex(
        f"{root}/a", centroids=kmeans_lite(normalize_rows(sample_mat), ncells)
    )
    b = IvfIndex(
        f"{root}/b",
        centroids=kmeans_lite(normalize_rows(sample_mat), ncells, seed=13),
    )
    a.add(ds.map_batches(parity(0), batch_format="pyarrow"), segment_id=0)
    b.add(ds.map_batches(parity(1), batch_format="pyarrow"), segment_id=0)
    # tombstone part of the SOURCE: only its live view may merge
    ids_all, _ = vectors_where_id_below(sf_dir, np.iinfo(np.int64).max)
    b.delete(ids_all[(ids_all % 2 == 1) & (ids_all % 5 == 0)], segment_id=1)
    rep = a.merge_from(b, segment_id=1)
    replay = a.merge_from(b, segment_id=1)
    if replay != {"segment": 1, "skipped": True}:
        raise RuntimeError(f"merge replay not idempotent: {rep} then {replay}")
    qids, qmat = vectors_where_id_below(sf_dir, num_queries)
    df, stats = a.probe(qids, normalize_rows(qmat), k=k, nprobe=ncells)
    if stats["cells_probed"] != stats["cells_total"]:
        raise RuntimeError(f"exhaustive witness probed a subset: {stats}")
    return df


def q_ann_index_release(
    sf_dir: str,
    *,
    n_epochs: int = 4,
    threshold: float = 0.45,
    k: int = 64,
    ncells: int = 16,
    sample_rows: int = 2000,
    probe_chunk: int = 4096,
    compact_every: int | None = None,
    pq_saturated: bool = False,
) -> pd.DataFrame:
    """CONTINUOUS-INGEST semantic near-dedup release — the embedding
    analog of ``text.q_dedup_index_release``: the
    :mod:`pipelines.admission` loop with one IVF lane.  Each vec_id-range
    epoch is probed against the persisted index's strictly-earlier
    segments, then added as its own segment; ``dup_of`` is the smallest
    earlier-epoch vector with cosine >= ``threshold`` (-1: keep).

    This is the WITNESS configuration: ``nprobe == ncells`` makes the
    hit set the exact cross-epoch cosine filter, so the driver
    hash-check certifies the whole segment lifecycle behind it.
    Production runs set ``nprobe < ncells``; that path's pruning is
    asserted in ``q_ann_index_probe`` and its recall pinned in tests.
    ``compact_every=c`` compacts after every c epochs (same oracle:
    folding must not change any hit).  ``pq_saturated`` stores the
    vectors as IVF-PQ codes under saturated codebooks, which are
    lossless, so the release must not change either."""
    from nyc_taxi_data_pipeline_ray.pipelines.admission import Admission, IvfLane

    pq_books = None
    if pq_saturated:
        # driver corpus read is witness-scale only, cf.
        # q_ann_index_pq_exhaustive
        _, mat_all = vectors_where_id_below(sf_dir, np.iinfo(np.int64).max)
        pq_books = _saturated_pq_books(normalize_rows(mat_all), 4)
    # per-variant root: the plain, `_compacted` and `_pq` registry
    # entries (and any concurrent sweep) must not rmtree each other's
    # live index
    lane = IvfLane(
        sf_dir,
        f"/tmp/nyc_ray_q_ann_index_release_c{compact_every or 0}"
        f"{'_pq' if pq_saturated else ''}",
        threshold=threshold,
        k=k,
        ncells=ncells,
        sample_rows=sample_rows,
        probe_chunk=probe_chunk,
        pq_books=pq_books,
    )
    return Admission(lane, n_epochs=n_epochs).release(compact_every)


def q_admission_replay(
    sf_dir: str,
    *,
    n_epochs: int = 4,
    threshold: float = 0.45,
    k: int = 64,
    ncells: int = 16,
    sample_rows: int = 2000,
    probe_chunk: int = 4096,
) -> pd.DataFrame:
    """CRASH-RESUME witness for the persisted admission sidecar
    (``_admissions/epoch-N.parquet``, written BEFORE the segment
    marker).  The ``ann_index_release`` loop runs under the ADVERSARIAL
    schedule ``compact_every=1``, plus one last compact, so every
    epoch's strictly-earlier probe view is folded away.  Then the same
    loop runs again, as a resume would: every epoch must answer from its
    sidecar (``report["replayed_hits"]``), since a re-probe is
    impossible, and the replayed dup map must equal the live one.  The
    release is decided from the replayed hits alone, so the driver's
    hash-check (the ``ann_index_release`` oracle) certifies the sidecar
    content."""
    from nyc_taxi_data_pipeline_ray.pipelines.admission import Admission, IvfLane

    loop = Admission(
        IvfLane(
            sf_dir,
            "/tmp/nyc_ray_q_admission_replay",
            threshold=threshold,
            k=k,
            ncells=ncells,
            sample_rows=sample_rows,
            probe_chunk=probe_chunk,
        ),
        n_epochs=n_epochs,
    )
    live, reports = loop.run(compact_every=1)
    if any(rep.get("skipped") for (rep,) in reports):
        raise RuntimeError(f"live ingest unexpectedly skipped: {reports}")
    idx = loop.lanes[0].index
    idx.compact()
    base = idx.ledger.base()
    if base is None or base[1] != n_epochs - 1:
        raise RuntimeError(f"fold watermark wrong: {base}")

    replay, reports = loop.run()
    for e, (rep,) in enumerate(reports):
        if not rep.get("replayed_hits"):
            raise RuntimeError(f"epoch {e} replay did not come from the sidecar: {rep}")
    if replay != live:
        raise RuntimeError("replayed admission decisions diverged from live run")
    return loop.decide(replay)
