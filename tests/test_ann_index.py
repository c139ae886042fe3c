"""Persisted IVF embedding index (state/ann_index.py): incremental add,
idempotent replay, partition-pruned probe, compaction invariance."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nyc_taxi_data_pipeline_ray.state.ann_index import IvfIndex, kmeans_lite, normalize_rows

SF = "/root/testdata/sf0.001"


def _vectors(n=200, d=16, seed=5):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, d))
    return np.arange(n, dtype=np.int64), mat


def _ds(ids, mat):
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([r.astype(np.float32) for r in mat]),
        }
    )
    return rd.from_arrow(t).repartition(4)


def _brute(ids, mat, qids, qmat, k=5):
    m = normalize_rows(mat.astype(np.float64))
    q = normalize_rows(qmat.astype(np.float64))
    rows = []
    for qi, qid in enumerate(qids):
        cand = np.nonzero(ids != qid)[0]
        s = m[cand] @ q[qi]
        order = cand[np.lexsort((ids[cand], -np.round(s, 4)))][:k]
        for j in order:
            rows.append((qid, ids[j], round(float(m[j] @ q[qi]), 4)))
    return pd.DataFrame(rows, columns=["qid", "vec_id", "sim"]).sort_values(
        ["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True
    )


def _check_ranked(d):
    """The per-query ranking contract: within each qid, sims
    non-increasing and ties broken by vec_id ascending (re-sorting by
    (qid, vec_id) for the tolerant compare below must not silently
    drop this check — a probe returning correct rows in the wrong rank
    order is still a bug)."""
    for _, grp in d.reset_index(drop=True).groupby("qid", sort=False):
        s = grp["sim"].to_numpy(float)
        v = grp["vec_id"].to_numpy()
        assert (np.diff(s) <= 1e-12).all(), f"sims not ranked: {grp}"
        ties = np.diff(s) == 0
        assert (np.diff(v)[ties] > 0).all(), f"tie order wrong: {grp}"


def _assert_topk(a, b):
    """ids exact, sims within one 4-dp rounding step: two score paths
    (per-cell-file dgemm vs matvec, or pre- vs post-compact file
    grouping) can produce doubles an ulp apart; when the true value
    sits on a .00005 boundary the sides round 1e-4 apart.  Identical
    ids with a one-step sim wobble is correct behavior.  Both frames
    must still honor the per-query ranking contract."""
    _check_ranked(a)
    _check_ranked(b)
    a = a.reset_index(drop=True).sort_values(["qid", "vec_id"], ignore_index=True)
    b = b.reset_index(drop=True).sort_values(["qid", "vec_id"], ignore_index=True)
    pd.testing.assert_frame_equal(
        a[["qid", "vec_id"]], b[["qid", "vec_id"]], check_dtype=False
    )
    pd.testing.assert_series_equal(
        a["sim"].astype(float), b["sim"].astype(float), rtol=0, atol=1.01e-4
    )


def _build(tmp_path, ids, mat, ncells=8, segments=2):
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), ncells)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf"), centroids=cent)
    for s in range(segments):
        m = ids % segments == s
        idx.add(_ds(ids[m], mat[m]), segment_id=s)
    return idx


def test_exhaustive_probe_equals_brute_force(tmp_path):
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    qids, qmat = ids[:4], mat[:4]
    got, stats = idx.probe(qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=idx.ncells)
    assert stats["cells_probed"] == stats["cells_total"]
    _assert_topk(got, _brute(ids, mat, qids, qmat))


def test_incremental_add_equals_one_shot(tmp_path):
    """Two-segment build == single-segment build: segmentation is
    invisible to the read path."""
    ids, mat = _vectors(seed=9)
    idx2 = _build(tmp_path, ids, mat, segments=2)
    cent = idx2.centroids
    idx1 = IvfIndex(os.path.join(str(tmp_path), "oneshot"), centroids=cent)
    idx1.add(_ds(ids, mat), segment_id=0)
    q = normalize_rows(mat[:3].astype(np.float64))
    a, _ = idx2.probe(ids[:3], q, k=5, nprobe=idx2.ncells)
    b, _ = idx1.probe(ids[:3], q, k=5, nprobe=idx1.ncells)
    _assert_topk(a, b)


def test_add_is_idempotent_and_incremental(tmp_path):
    """Replaying a committed segment is a no-op; a new segment's files
    contain ONLY the new vectors (the O(new docs) property)."""
    ids, mat = _vectors(seed=11)
    idx = _build(tmp_path, ids, mat, segments=2)
    assert idx.add(_ds(ids[:10], mat[:10]), segment_id=1)["skipped"]

    import pyarrow.parquet as pq

    new_ids = np.arange(1000, 1050, dtype=np.int64)
    rep = idx.add(_ds(new_ids, mat[:50]), segment_id=2)
    assert rep == {"segment": 2, "skipped": False, "vectors": 50}
    seg = os.path.join(idx.path, "seg-000002")
    stored = pa.concat_tables(
        [pq.read_table(os.path.join(seg, f)) for f in os.listdir(seg)]
    )
    assert set(stored["vec_id"].to_pylist()) == set(new_ids.tolist())


def test_crashed_add_leaves_no_phantom_rows(tmp_path):
    """A crashed add (cell files written, no manifest) must not leak its
    rows into a retry that routes to a different cell set: the retry
    wipes the uncommitted seg dir before writing."""
    import pyarrow.parquet as pq

    ids, mat = _vectors(seed=23)
    idx = _build(tmp_path, ids, mat, segments=1)
    seg = os.path.join(idx.path, "seg-000001")
    # simulate the crash: a stray committed-looking cell file from a
    # batch that was later rewritten upstream, with NO manifest
    os.makedirs(seg, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "cell": pa.array([0], pa.int32()),
                "vec_id": pa.array([999_999], pa.int64()),
                "embedding": pa.array([np.zeros(mat.shape[1], np.float32)]),
            }
        ),
        os.path.join(seg, "cell=0000.parquet"),
    )
    new_ids = np.arange(1000, 1020, dtype=np.int64)
    idx.add(_ds(new_ids, mat[:20]), segment_id=1)
    stored = pa.concat_tables(
        [pq.read_table(os.path.join(seg, f)) for f in os.listdir(seg)]
    )
    assert 999_999 not in set(stored["vec_id"].to_pylist())
    assert set(stored["vec_id"].to_pylist()) == set(new_ids.tolist())


def test_open_missing_index_has_no_side_effects(tmp_path):
    """Read-only open of a never-created path raises FileNotFoundError
    and does NOT leave an empty directory behind."""
    import pytest

    p = os.path.join(str(tmp_path), "typo-path")
    with pytest.raises(FileNotFoundError):
        IvfIndex(p)
    assert not os.path.exists(p)


def test_probe_is_partition_pruned(tmp_path):
    """nprobe < ncells reads strictly fewer cell files than exist, and
    never more than nprobe cells' worth per query set."""
    ids, mat = _vectors(n=400, seed=13)
    idx = _build(tmp_path, ids, mat)
    q = normalize_rows(mat[:2].astype(np.float64))
    got, stats = idx.probe(ids[:2], q, k=5, nprobe=2)
    assert stats["files_read"] < stats["files_total"]
    assert stats["cells_probed"] <= 2 * 2
    assert len(got) > 0
    # recall vs brute force is high even at nprobe=2 (pinned loosely)
    exact = _brute(ids, mat, ids[:2], mat[:2])
    inter = set(map(tuple, got[["qid", "vec_id"]].to_numpy())) & set(
        map(tuple, exact[["qid", "vec_id"]].to_numpy())
    )
    assert len(inter) >= len(exact) // 2


def test_compact_preserves_probe_results(tmp_path):
    ids, mat = _vectors(seed=17)
    idx = _build(tmp_path, ids, mat, segments=2)
    q = normalize_rows(mat[:3].astype(np.float64))
    before, _ = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    rep = idx.compact()
    assert not rep["skipped"] and rep["generation"] == 1
    after, stats = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    _assert_topk(before, after)
    # folded segment dirs are gone; further adds + probes still work
    assert not os.path.isdir(os.path.join(idx.path, "seg-000000"))
    idx.add(_ds(np.array([900], np.int64), mat[:1]), segment_id=2)
    again, _ = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    assert len(again) == len(after)


def test_vacuum_reclaims_crashed_compact_orphans(tmp_path):
    """A compact() crash between the base checkpoint and the rmtree
    sweep must not orphan the folded run dirs forever: the next
    compact's leading vacuum reclaims them (and a partial uncommitted
    base dir), and reads are unaffected."""
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat, segments=2)
    qids, qmat = ids[:3], mat[:3]
    before, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)

    # simulate the crash: run a real compact but make its cleanup
    # rmtree a no-op (exactly compact()'s state at the crash point —
    # new base + checkpoint written, folded runs never removed)
    import shutil as _sh

    folded = idx.ledger.run_dirs()
    real_rmtree = _sh.rmtree
    try:
        _sh.rmtree = lambda p, **k: None
        idx.compact()
    finally:
        _sh.rmtree = real_rmtree
    # orphans still on disk
    assert all(os.path.isdir(d) for d in folded)
    # a retry compact (or vacuum) reclaims them
    res = idx.vacuum()
    assert res["removed"] >= len(folded)
    assert not any(os.path.isdir(d) for d in folded)
    after, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    _assert_topk(before, after)


def test_probe_retries_on_compactor_race(tmp_path):
    """Reader-vs-compactor: a probe holding a stale run listing (dir
    removed by a concurrent compact) re-lists once and succeeds — same
    idiom as the engine's pruned key readers."""
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat, segments=2)
    qids, qmat = ids[:3], mat[:3]
    expect, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)

    real = idx.ledger.run_dirs
    state = {"first": True}

    def stale_then_real(*args):
        if state["first"]:
            state["first"] = False
            return [os.path.join(str(tmp_path), "ivf", "seg-000099")]  # vanished dir
        return real(*args)

    idx.ledger.run_dirs = stale_then_real
    got, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    assert not state["first"]  # retry actually happened
    _assert_topk(expect, got)


def test_probe_and_add_fuses_probe_then_add(tmp_path):
    """probe_and_add == probe(before earlier segments) + add(after):
    same hits, replay returns them again, and the add stays idempotent
    (mirrors MinHashIndex.probe_and_add)."""
    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf_pa"), centroids=cent)
    half = len(ids) // 2
    base_ids, base_mat = ids[:half], mat[:half]
    arr_ids, arr_mat = ids[half:], mat[half:]

    first_hits, first_rep = idx.probe_and_add(
        _ds(base_ids, base_mat), segment_id=0, k=3, nprobe=8
    )
    assert first_hits.empty and not first_rep["skipped"]  # nothing earlier

    hits, rep = idx.probe_and_add(
        _ds(arr_ids, arr_mat), segment_id=1, k=3, nprobe=8
    )
    assert not rep["skipped"]
    # exhaustive nprobe over only the earlier segment == brute force
    # restricted to the base half
    exp = _brute(base_ids, base_mat, arr_ids, arr_mat, k=3)
    got = hits.sort_values(
        ["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True
    )
    _assert_topk(got, exp)
    assert set(hits["vec_id"]) <= set(base_ids.tolist())  # never self-batch

    # replay: same hits, add skipped
    hits2, rep2 = idx.probe_and_add(
        _ds(arr_ids, arr_mat), segment_id=1, k=3, nprobe=8
    )
    assert rep2["skipped"]
    _assert_topk(hits2, exp)


def test_probe_and_add_after_fold(tmp_path):
    """Replay of a COMMITTED epoch folded by compact() skips gracefully
    (crash-resume must not wedge); an UNcommitted segment at or below
    the fold watermark raises — readers would never see its dir."""
    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf_fold"), centroids=cent)
    half = len(ids) // 2
    idx.add(_ds(ids[:half], mat[:half]), segment_id=0)
    idx.add(_ds(ids[half:], mat[half:]), segment_id=2)
    assert idx.compact()["skipped"] is False  # through_segment = 2
    hits, rep = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=2, k=3, nprobe=8
    )
    assert hits.empty and rep == {"segment": 2, "skipped": True, "folded": True}
    import pytest as _pytest

    with _pytest.raises(ValueError, match="never committed"):
        idx.probe_and_add(_ds(ids[:4], mat[:4]), segment_id=1, k=3, nprobe=8)


# ------------------------------------------------------------------ PQ tier
def _pq_build(tmp_path, ids, mat, *, name, books, refine=False, ncells=8):
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), ncells)
    idx = IvfIndex(
        os.path.join(str(tmp_path), name),
        centroids=cent,
        pq_books=books,
        pq_refine=refine,
    )
    for s in range(2):
        m = ids % 2 == s
        idx.add(_ds(ids[m], mat[m]), segment_id=s)
    return idx


def test_pq_saturated_equals_brute_force(tmp_path):
    """Saturated codebooks (every distinct subvector) make PQ encoding
    lossless, so the all-cells IVF-PQ probe reproduces brute force."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(seed=31)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    idx = _pq_build(tmp_path, ids, mat, name="pq", books=books)
    qids, qmat = ids[:4], mat[:4]
    got, stats = idx.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=idx.ncells
    )
    assert stats["cells_probed"] == stats["cells_total"]
    _assert_topk(got, _brute(ids, mat, qids, qmat))


def test_pq_refine_path_equals_brute_force(tmp_path):
    """The exact-refine tier re-scores the ADC shortlist from the raw
    embedding column; with saturated books the shortlist provably
    contains the true top-k, so refine output == brute force too."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(seed=37)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    idx = _pq_build(tmp_path, ids, mat, name="pqr", books=books, refine=True)
    qids, qmat = ids[:4], mat[:4]
    got, _ = idx.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=idx.ncells
    )
    _assert_topk(got, _brute(ids, mat, qids, qmat))


def test_pq_index_is_much_smaller_than_raw(tmp_path):
    """The point of the tier: stored cell bytes shrink by >= 8x vs raw
    float vectors (uint8 codes at d=16/m=4; ~32x at production d)."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _kmeans_l2

    ids, mat = _vectors(n=2000, d=64, seed=41)
    m_norm = normalize_rows(mat.astype(np.float64))
    books = np.stack(
        [
            _kmeans_l2(np.ascontiguousarray(m_norm[:500, j * 16 : (j + 1) * 16]), 32, seed=7 + j)
            for j in range(4)
        ]
    )
    raw = _build(tmp_path, ids, mat, ncells=8, segments=2)
    pq_idx = _pq_build(tmp_path, ids, mat, name="pqsmall", books=books)
    assert pq_idx._code_dtype() == np.uint8

    def _cell_bytes(idx):
        total = 0
        for d_, _, fs in os.walk(idx.path):
            total += sum(
                os.path.getsize(os.path.join(d_, f))
                for f in fs
                if f.endswith(".parquet")
            )
        return total

    ratio = _cell_bytes(raw) / _cell_bytes(pq_idx)
    assert ratio >= 8, ratio


def test_pq_production_recall_floor(tmp_path):
    """Non-saturated (k_codes=32) books: recall@5 vs brute force stays
    above a floor on this corpus — the production operating point."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _kmeans_l2

    ids, mat = _vectors(n=400, d=16, seed=43)
    m_norm = normalize_rows(mat.astype(np.float64))
    books = np.stack(
        [
            _kmeans_l2(np.ascontiguousarray(m_norm[:, j * 4 : (j + 1) * 4]), 32, seed=7 + j)
            for j in range(4)
        ]
    )
    idx = _pq_build(tmp_path, ids, mat, name="pqprod", books=books, refine=True)
    qids, qmat = ids[:8], mat[:8]
    got, _ = idx.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=idx.ncells
    )
    truth = _brute(ids, mat, qids, qmat)
    hit = len(
        got.merge(truth, on=["qid", "vec_id"], how="inner", suffixes=("", "_t"))
    )
    assert hit / len(truth) >= 0.5, hit / len(truth)


def test_pq_compact_preserves_probe_results(tmp_path):
    """LSM fold of PQ cell files (codes + refine column together) must
    not change any probe result."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(seed=47)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    idx = _pq_build(tmp_path, ids, mat, name="pqc", books=books, refine=True)
    q = normalize_rows(mat[:3].astype(np.float64))
    before, _ = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    rep = idx.compact()
    assert not rep["skipped"]
    after, _ = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    _assert_topk(before, after)


def test_pq_reopen_reads_books_from_meta(tmp_path):
    """The codebooks are frozen into meta.json like the centroids: a
    fresh opener probes identically with no constructor args."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(seed=53)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    idx = _pq_build(tmp_path, ids, mat, name="pqo", books=books, refine=True)
    q = normalize_rows(mat[:3].astype(np.float64))
    a, _ = idx.probe(ids[:3], q, k=5, nprobe=idx.ncells)
    reopened = IvfIndex(idx.path)
    assert reopened.pq_refine and reopened.pq_books.shape == books.shape
    b, _ = reopened.probe(ids[:3], q, k=5, nprobe=reopened.ncells)
    _assert_topk(a, b)


def test_persisted_hits_survive_compaction(tmp_path):
    """probe_and_add(persist_hits=True) writes _admissions/epoch-N
    before the segment's record; a replay AFTER compact() folded the epoch's
    strictly-earlier view recovers the original hits verbatim instead
    of the lossy empty skip."""
    ids, mat = _vectors(seed=61)
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf_hits"), centroids=cent)
    half = len(ids) // 2
    live0, rep0 = idx.probe_and_add(
        _ds(ids[:half], mat[:half]), segment_id=0, k=3, nprobe=8, persist_hits=True
    )
    live1, rep1 = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=3, nprobe=8, persist_hits=True
    )
    assert not rep0["skipped"] and not rep1["skipped"] and len(live1)
    assert idx.compact()["skipped"] is False  # folds past both epochs
    # replay both epochs: sidecars answer, no warning, exact content
    got0, r0 = idx.probe_and_add(_ds(ids[:half], mat[:half]), segment_id=0)
    got1, r1 = idx.probe_and_add(_ds(ids[half:], mat[half:]), segment_id=1)
    assert r0["replayed_hits"] and r0["folded"] and r0["skipped"]
    assert r1["replayed_hits"] and r1["folded"] and r1["skipped"]
    pd.testing.assert_frame_equal(got0.reset_index(drop=True), live0.reset_index(drop=True))
    pd.testing.assert_frame_equal(got1.reset_index(drop=True), live1.reset_index(drop=True))
    # committed-but-unfolded replay with the SAME params prefers the
    # sidecar (no re-probe); different params would re-probe fresh
    idx2 = IvfIndex(os.path.join(str(tmp_path), "ivf_hits2"), centroids=cent)
    a, _ = idx2.probe_and_add(
        _ds(ids[:half], mat[:half]), segment_id=0, k=3, nprobe=8, persist_hits=True
    )
    b, r = idx2.probe_and_add(_ds(ids[:half], mat[:half]), segment_id=0, k=3, nprobe=8)
    assert r == {"segment": 0, "skipped": True, "replayed_hits": True}
    _assert_topk(a, b)


def test_persist_hits_backfills_committed_epoch(tmp_path):
    """Replaying a committed-but-sidecar-less epoch with
    persist_hits=True must write the sidecar from the deterministic
    re-probe (report['hits_persisted']) — not silently drop the
    request — so the decision survives a later fold."""
    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "bf"), centroids=cent)
    half = len(ids) // 2
    idx.probe_and_add(_ds(ids[:half], mat[:half]), segment_id=0, k=3, nprobe=8)
    live, rep = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=3, nprobe=8
    )  # committed WITHOUT a sidecar
    assert not rep["skipped"] and idx.ledger.load_hits(1) is None

    got, rep2 = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=3, nprobe=8, persist_hits=True
    )
    assert rep2["skipped"] and rep2["hits_persisted"]
    assert got.equals(live) and idx.ledger.load_hits(1) is not None
    # the backfilled decision now survives compaction
    assert idx.compact()["skipped"] is False
    replay, rep3 = idx.probe_and_add(_ds(ids[half:], mat[half:]), segment_id=1, k=3)
    assert rep3["replayed_hits"] and rep3["folded"]
    pd.testing.assert_frame_equal(replay, live)


def test_unfolded_replay_honors_new_params(tmp_path):
    """While the strictly-earlier view is intact, replaying a committed
    epoch with DIFFERENT probe params must re-probe fresh (honoring the
    caller's k) instead of returning the sidecar's k-3 decision; the
    sidecar itself stays untouched."""
    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "params"), centroids=cent)
    half = len(ids) // 2
    idx.probe_and_add(_ds(ids[:half], mat[:half]), segment_id=0, k=3, nprobe=8)
    small, _ = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=3, nprobe=8, persist_hits=True
    )
    assert idx.ledger.hits_params(1) == {"k": "3", "nprobe": "8"}

    # same params -> sidecar fast path
    same, rep_same = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=3, nprobe=8
    )
    assert rep_same["replayed_hits"] and same.equals(small)

    # different k -> fresh re-probe with the caller's k
    big, rep_big = idx.probe_and_add(
        _ds(ids[half:], mat[half:]), segment_id=1, k=7, nprobe=8
    )
    assert rep_big == {"segment": 1, "skipped": True}
    assert big.groupby("qid").size().max() == 7
    # original decision untouched
    assert idx.ledger.hits_params(1) == {"k": "3", "nprobe": "8"}
    pd.testing.assert_frame_equal(idx.ledger.load_hits(1), small)


def test_code_dtype_overflow_guard(tmp_path):
    """A codebook with > 65536 codes per subspace must raise instead of
    silently wrapping argmax indices on assignment into a uint16 codes
    array (which would corrupt every stored code)."""
    import pytest

    ids, mat = _vectors(n=20)
    cent = kmeans_lite(normalize_rows(mat[:10].astype(np.float64)), 4)
    books = np.zeros((2, 65537, 8), dtype=np.float64)
    idx = IvfIndex(os.path.join(str(tmp_path), "of"), centroids=cent, pq_books=books)
    with pytest.raises(ValueError, match="overflow uint16"):
        idx._code_dtype()


def test_fresh_tmp_root_reclaims_stale_siblings(tmp_path):
    """fresh_tmp_root must remove sibling roots owned by EXITED pids
    (the leak across best-of-N bench processes) while leaving roots
    owned by LIVE pids (a concurrent sweep) untouched."""
    from nyc_taxi_data_pipeline_ray.io import fresh_tmp_root

    prefix = os.path.join(str(tmp_path), "idxroot")
    # a stale sibling: pid 2 ** 22 + 7 is far above pid_max defaults and
    # cannot be a live process in this container
    dead = f"{prefix}_{2**22 + 7}"
    os.makedirs(dead)
    # a live sibling: our own parent pid is certainly alive
    live = f"{prefix}_{os.getppid()}"
    os.makedirs(live)
    # non-pid suffix: never touched
    other = f"{prefix}_notapid"
    os.makedirs(other)

    root = fresh_tmp_root(prefix)
    assert root == f"{prefix}_{os.getpid()}"
    assert not os.path.exists(dead)
    assert os.path.exists(live)
    assert os.path.exists(other)
    # the returned root is fresh (removed if it pre-existed) but not created
    assert not os.path.exists(root)


# ---------------------------------------------------------------- deletes
def test_delete_excludes_and_readd_resurrects(tmp_path):
    """Tombstoned ids vanish from probes; a LATER re-add resurrects
    (segment order is the CDC order).  Exhaustive probe must equal
    brute force over exactly the live set."""
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)  # segments 0, 1
    idx.delete(ids[ids % 7 == 0], segment_id=2)
    m14 = ids % 14 == 0
    idx.add(_ds(ids[m14], mat[m14]), segment_id=3)
    qids, qmat = ids[:4], mat[:4]
    df, stats = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    assert stats["cells_probed"] == stats["cells_total"]
    live = (ids % 7 != 0) | (ids % 14 == 0)
    exp = _brute(ids[live], mat[live], qids, qmat, k=5)
    _assert_topk(df, exp)


def test_delete_is_idempotent(tmp_path):
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    rep = idx.delete(ids[:10], segment_id=2)
    assert rep == {"segment": 2, "skipped": False, "tombstones": 10}
    assert idx.delete(ids[:10], segment_id=2) == {"segment": 2, "skipped": True}


def test_readd_then_delete_stays_dead(tmp_path):
    """delete -> re-add -> delete again: the newest tombstone wins."""
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    victim = ids[:5]
    idx.delete(victim, segment_id=2)
    idx.add(_ds(victim, mat[:5]), segment_id=3)  # resurrect
    idx.delete(victim, segment_id=4)  # kill again
    qids, qmat = ids[10:13], mat[10:13]
    df, _ = idx.probe(qids, qmat, k=len(ids), nprobe=idx.ncells)
    assert not set(victim.tolist()) & set(df["vec_id"].tolist())


def test_compact_applies_tombstones_physically(tmp_path):
    """compact() folds tombstones into the base: deleted rows are gone
    from the cell files, tombstone files are dropped, and the probe
    result is unchanged."""
    import glob

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    idx.delete(ids[ids % 7 == 0], segment_id=2)
    m14 = ids % 14 == 0
    idx.add(_ds(ids[m14], mat[m14]), segment_id=3)
    qids, qmat = ids[:4], mat[:4]
    before, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    rep = idx.compact()
    assert rep["skipped"] is False
    after, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    _assert_topk(before, after)
    import pyarrow.parquet as pq

    stored = set()
    for f in glob.glob(os.path.join(idx.path, "base-*", "cell=*.parquet")):
        stored |= set(pq.read_table(f)["vec_id"].to_pylist())
    live = {int(i) for i in ids if i % 7 != 0 or i % 14 == 0}
    assert stored == live
    assert not glob.glob(os.path.join(idx.path, "*", "tombstones.parquet"))


def test_delete_below_fold_watermark_raises(tmp_path):
    import pytest

    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf"), centroids=cent)
    idx.add(_ds(ids[ids % 2 == 0], mat[ids % 2 == 0]), segment_id=0)
    idx.add(_ds(ids[ids % 2 == 1], mat[ids % 2 == 1]), segment_id=2)
    idx.compact()  # through_segment = 2
    with pytest.raises(ValueError, match="fold watermark"):
        idx.delete(ids[:3], segment_id=1)


def test_crashed_first_compact_cannot_resurrect_tombstoned_vectors(tmp_path):
    """IVF mirror of the dedup-index test: an uncommitted partial
    base-000001/ from a crashed FIRST compact must be reclaimed by the
    retry's leading vacuum, not folded onto — stale cell files would
    otherwise resurrect vectors tombstoned in between."""
    import glob

    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray import io as nio

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    orig = nio.commit_json

    def crash_on_marker(path, obj):
        if "checkpoint-" in os.path.basename(path):
            raise RuntimeError("simulated crash before the base's checkpoint")
        return orig(path, obj)

    nio.commit_json = crash_on_marker
    try:
        import pytest

        with pytest.raises(RuntimeError, match="simulated crash"):
            idx.compact()
    finally:
        nio.commit_json = orig
    partial = os.path.join(idx.path, "base-000001")
    assert os.path.isdir(partial) and idx.ledger.base() is None

    # tombstone EVERYTHING indexed: the leak only manifests for cells
    # whose surviving parts are all empty (the retry's fold skips them,
    # leaving the crashed attempt's stale file) — delete-all makes
    # every cell that cell
    idx.delete(ids, segment_id=2)
    rep = idx.compact()
    assert rep["skipped"] is False
    qids, qmat = ids[10:13], mat[10:13]
    df, _ = idx.probe(qids, qmat, k=len(ids), nprobe=idx.ncells)
    assert df.empty, "crashed-compact leftovers resurrected tombstoned vectors"
    stored = set()
    for f in glob.glob(os.path.join(idx.path, "base-*", "cell=*.parquet")):
        stored |= set(pq.read_table(f)["vec_id"].to_pylist())
    assert not stored, f"stale cell files survived: {sorted(stored)[:5]}..."


def test_segment_kind_collisions_raise(tmp_path):
    """A segment id is one ledger entry: replaying delete() against an
    id committed as an ADD (or vice versa) must raise, not report the
    same ``skipped: True`` as a benign replay — a CDC epoch mapping
    both upserts and takedowns to one id would otherwise drop the
    takedown forever."""
    import pytest

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)  # segments 0, 1 are adds
    with pytest.raises(ValueError, match="committed as an ADD"):
        idx.delete(ids[:3], segment_id=1)
    idx.delete(ids[:3], segment_id=2)
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.add(_ds(ids[:3], mat[:3]), segment_id=2)
    # a delete replay with a DIFFERENT id set is not a replay either
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete(ids[:4], segment_id=2)
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete(ids[3:6], segment_id=2)  # same count, different ids
    # the genuine replay still skips
    assert idx.delete(ids[:3], segment_id=2) == {"segment": 2, "skipped": True}


def test_delete_replay_checks_survive_compaction(tmp_path):
    """After compact() the tombstone parquet is gone; the replay check
    degrades to the manifest's kind + count but still catches a
    different-sized delete and an add collision."""
    import pytest

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    idx.delete(ids[:3], segment_id=2)
    idx.compact()
    assert idx.delete(ids[:3], segment_id=2) == {"segment": 2, "skipped": True}
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete(ids[:5], segment_id=2)
    with pytest.raises(ValueError, match="committed as an ADD"):
        idx.delete(ids[:3], segment_id=1)


def test_add_below_fold_watermark_raises(tmp_path):
    """plain add() now has probe_and_add's guard: an UNcommitted
    segment at or below the fold watermark would be invisible to every
    reader (the read view lists only ``s > through``) — silently lost
    data, so it raises instead."""
    import pytest

    ids, mat = _vectors()
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(os.path.join(str(tmp_path), "ivf"), centroids=cent)
    idx.add(_ds(ids[ids % 2 == 0], mat[ids % 2 == 0]), segment_id=0)
    idx.add(_ds(ids[ids % 2 == 1], mat[ids % 2 == 1]), segment_id=2)
    idx.compact()  # through_segment = 2
    with pytest.raises(ValueError, match="fold watermark"):
        idx.add(_ds(ids[:3], mat[:3]), segment_id=1)
    # committed ids still replay-skip (the idempotency contract)
    assert idx.add(_ds(ids[:3], mat[:3]), segment_id=2) == {
        "segment": 2,
        "skipped": True,
    }


def test_probe_after_deleting_everything_returns_empty(tmp_path):
    """Probing an index whose probed rows are ALL tombstoned must
    return the empty top-k, not crash: every probe_file task returns
    an empty table, the all-empty blocks lose their schema, and the
    final groupby("qid") used to raise KeyError."""
    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    idx.delete(ids, segment_id=2)
    df, _ = idx.probe(ids[:4], mat[:4], k=5, nprobe=idx.ncells)
    assert df.empty and list(df.columns) == ["qid", "vec_id", "sim"]
    idx.compact()  # physical removal: the no-files path must agree
    df2, _ = idx.probe(ids[:4], mat[:4], k=5, nprobe=idx.ncells)
    assert df2.empty


def test_probe_and_add_refuses_tombstone_segment_collision(tmp_path):
    """probe_and_add's committed-replay skip paths run the same kind
    check as add(): a segment_id committed as a DELETE is never a
    benign replay — the skip would silently drop the batch's vectors,
    and a persist_hits backfill would cement an admission sidecar for
    the delete.  Must raise both before AND after a compact folds the
    segment (manifests are the ledger either way)."""
    import pytest

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)  # segments 0, 1 are adds
    idx.delete(ids[:3], segment_id=2)
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.probe_and_add(_ds(ids[:3], mat[:3]), segment_id=2, persist_hits=True)
    assert idx.load_hits(2) is None, "sidecar cemented for a delete segment"
    idx.compact()
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.probe_and_add(_ds(ids[:3], mat[:3]), segment_id=2)


def test_vanished_tombstone_file_raises_not_resurrects(tmp_path):
    """A missing tombstones.parquet for a DELETE segment (the window
    inside compact()'s rmtree, or a corrupted ledger) must surface as
    FileNotFoundError — os.path.exists returning False is otherwise
    indistinguishable from 'segment has no deletes', and tombstoned
    rows would silently resurface as live probe hits."""
    import pytest

    ids, mat = _vectors()
    idx = _build(tmp_path, ids, mat)
    idx.delete(ids[:5], segment_id=2)
    os.remove(os.path.join(idx.path, "seg-000002", "tombstones.parquet"))
    with pytest.raises(FileNotFoundError, match="tombstone file vanished"):
        idx.probe(ids[10:12], mat[10:12], k=5, nprobe=idx.ncells)


# --------------------------------------------------------- filtered search
def _ds_attr(ids, mat, labels):
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([r.astype(np.float32) for r in mat]),
            "label": pa.array(labels, pa.int32()),
        }
    )
    return rd.from_arrow(t).repartition(4)


def _build_attr(tmp_path, ids, mat, labels, *, name="ivf_attr", ncells=8, **kw):
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), ncells)
    idx = IvfIndex(
        os.path.join(str(tmp_path), name), centroids=cent, attr_col="label", **kw
    )
    for s in range(2):
        m = ids % 2 == s
        idx.add(_ds_attr(ids[m], mat[m], labels[m]), segment_id=s)
    return idx


def test_filtered_exhaustive_equals_brute_force_over_slice(tmp_path):
    """where=(attr, value) restricts candidates BEFORE scoring, so the
    all-cells filtered probe equals brute force over exactly the
    matching slice (a post-filter of unfiltered top-k would under-fill
    whenever fewer than k of the global top-k match)."""
    ids, mat = _vectors(seed=41)
    labels = (ids % 4).astype(np.int32)
    idx = _build_attr(tmp_path, ids, mat, labels)
    qids, qmat = ids[:4], mat[:4]
    got, stats = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, where=("label", 2))
    assert stats["cells_probed"] == stats["cells_total"]
    keep = labels == 2
    _assert_topk(got, _brute(ids[keep], mat[keep], qids, qmat))


def test_filtered_probe_composes_with_tombstones(tmp_path):
    """Delete exclusion and the attr predicate apply jointly: the live
    AND matching slice is the candidate set."""
    ids, mat = _vectors(seed=43)
    labels = (ids % 4).astype(np.int32)
    idx = _build_attr(tmp_path, ids, mat, labels)
    idx.delete(ids[ids % 5 == 0], segment_id=2)
    qids, qmat = ids[:4], mat[:4]
    got, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, where=("label", 1))
    keep = (labels == 1) & (ids % 5 != 0)
    _assert_topk(got, _brute(ids[keep], mat[keep], qids, qmat))


def test_filtered_pq_refine_equals_brute_force_over_slice(tmp_path):
    """The attr column rides in PQ-tier cell files too; with saturated
    books + exact refine the filtered probe is exact over the slice —
    the keep mask must stay row-aligned across the codes column, the
    ADC shortlist, and the separately-read refine column."""
    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(seed=47)
    labels = (ids % 3).astype(np.int32)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    idx = _build_attr(
        tmp_path, ids, mat, labels, name="pq_attr", pq_books=books, pq_refine=True
    )
    qids, qmat = ids[:4], mat[:4]
    got, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, where=("label", 0))
    keep = labels == 0
    _assert_topk(got, _brute(ids[keep], mat[keep], qids, qmat))


def test_filtered_probe_survives_compact_and_reopen(tmp_path):
    """compact() folds cell files by whole-table concat, so the attr
    column must survive; reopen restores attr_col from meta.json."""
    ids, mat = _vectors(seed=53)
    labels = (ids % 4).astype(np.int32)
    idx = _build_attr(tmp_path, ids, mat, labels)
    qids, qmat = ids[:4], mat[:4]
    before, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, where=("label", 3))
    rep = idx.compact()
    assert not rep["skipped"]
    reopened = IvfIndex(idx.path)
    assert reopened.attr_col == "label"
    after, _ = reopened.probe(qids, qmat, k=5, nprobe=idx.ncells, where=("label", 3))
    _assert_topk(before, after)


def test_filtered_pruned_probe_returns_only_matching_rows(tmp_path):
    """A pruned (nprobe < ncells) filtered probe is approximate in
    recall but every returned candidate must satisfy the predicate."""
    ids, mat = _vectors(seed=59)
    labels = (ids % 4).astype(np.int32)
    idx = _build_attr(tmp_path, ids, mat, labels)
    qids, qmat = ids[:6], mat[:6]
    got, stats = idx.probe(qids, qmat, k=5, nprobe=2, where=("label", 2))
    assert stats["cells_probed"] < stats["cells_total"]
    lab_of = dict(zip(ids.tolist(), labels.tolist()))
    assert len(got) and all(lab_of[v] == 2 for v in got["vec_id"])


def test_where_on_undeclared_attr_raises(tmp_path):
    ids, mat = _vectors(seed=61)
    labels = (ids % 4).astype(np.int32)
    idx = _build_attr(tmp_path, ids, mat, labels)
    import pytest

    with pytest.raises(ValueError, match="attr_col"):
        idx.probe(ids[:2], mat[:2], k=5, nprobe=2, where=("lang", "en"))
    plain = _build(tmp_path, ids, mat)  # no attr_col declared
    with pytest.raises(ValueError, match="attr_col"):
        plain.probe(ids[:2], mat[:2], k=5, nprobe=2, where=("label", 1))


def test_add_without_declared_attr_column_raises(tmp_path):
    """An add batch missing the declared attr column fails loudly
    instead of committing cell files the filter could not read."""
    import pytest

    ids, mat = _vectors(seed=67)
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    idx = IvfIndex(
        os.path.join(str(tmp_path), "ivf_noattr"), centroids=cent, attr_col="label"
    )
    with pytest.raises(Exception, match="attr_col"):
        idx.add(_ds(ids, mat), segment_id=0)


# ------------------------------------------------------------ as-of probes
def test_asof_probe_hides_later_segments(tmp_path):
    """as_of_segment=N probes the index as it stood after segment N:
    later adds are invisible; at the newest segment it equals the
    unrestricted probe."""
    ids, mat = _vectors(seed=71)
    idx = _build(tmp_path, ids, mat)  # seg 0 = even ids, seg 1 = odd ids
    qids, qmat = ids[:4], mat[:4]
    asof0, stats = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=0)
    assert stats["cells_probed"] == stats["cells_total"]
    even = ids % 2 == 0
    _assert_topk(asof0, _brute(ids[even], mat[even], qids, qmat))
    asof1, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=1)
    full, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    _assert_topk(asof1, full)


def test_asof_probe_hides_later_tombstones(tmp_path):
    """A tombstone committed AFTER the watermark is invisible too: the
    historical read sees the vectors as alive (exactly the lake's as_of
    semantics for deletes)."""
    ids, mat = _vectors(seed=73)
    idx = _build(tmp_path, ids, mat)  # segments 0, 1
    idx.delete(ids[ids % 7 == 0], segment_id=2)
    qids, qmat = ids[:4], mat[:4]
    asof1, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=1)
    _assert_topk(asof1, _brute(ids, mat, qids, qmat))  # deletes not yet visible
    now, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells)
    live = ids % 7 != 0
    _assert_topk(now, _brute(ids[live], mat[live], qids, qmat))


def test_asof_raises_once_history_folded(tmp_path):
    """compact() merges segments irreversibly; an as_of below the fold
    watermark raises instead of silently answering from the wrong
    state.  At exactly the watermark the base IS the as_of view."""
    import pytest

    ids, mat = _vectors(seed=79)
    idx = _build(tmp_path, ids, mat)
    qids, qmat = ids[:3], mat[:3]
    before, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=1)
    rep = idx.compact()
    assert not rep["skipped"]
    with pytest.raises(ValueError, match="history folded"):
        idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=0)
    at_wm, _ = idx.probe(qids, qmat, k=5, nprobe=idx.ncells, as_of_segment=1)
    _assert_topk(at_wm, before)


def test_attr_col_reserved_name_raises(tmp_path):
    """attr_col='cell' would let assign() overwrite the computed cell
    ids with user data — vectors would land in files probes never read."""
    import pytest

    ids, mat = _vectors(seed=83)
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    for bad in ("cell", "vec_id", "embedding", "codes"):
        with pytest.raises(ValueError, match="collides"):
            IvfIndex(
                os.path.join(str(tmp_path), f"bad_{bad}"),
                centroids=cent,
                attr_col=bad,
            )


def test_describe_reports_ledger_and_config(tmp_path):
    """describe(): segment counts by kind, fold watermark, on-disk
    footprint, and the frozen index configuration."""
    ids, mat = _vectors(seed=89)
    idx = _build(tmp_path, ids, mat)  # 2 add segments
    idx.delete(ids[:5], segment_id=2)
    d = idx.describe()
    assert d["segments_committed"] == 3
    assert d["add_segments"] == 2 and d["delete_segments"] == 1
    assert d["rows_committed"] == len(ids) and d["tombstones_committed"] == 5
    assert d["base"] is None and d["live_runs"] == 3
    assert d["data_files"] > 0 and d["data_bytes"] > 0
    assert d["ncells"] == 8 and d["dim"] == mat.shape[1]
    assert d["pq"] is False and d["attr_col"] is None
    idx.compact()
    d2 = idx.describe()
    # ledger history survives the fold; layout collapses to one base
    assert d2["segments_committed"] == 3 and d2["rows_committed"] == len(ids)
    assert d2["base"] == {"generation": 1, "through_segment": 2}
    assert d2["live_runs"] == 1


def test_fsck_healthy_and_corruptions(tmp_path):
    """fsck: a healthy index is ok; crash leftovers (orphan dir, tmp
    file, stale base) are warnings; a committed segment whose run dir
    vanished, or a truncated live parquet, is fatal."""
    import shutil as _sh

    ids, mat = _vectors(seed=97)
    idx = _build(tmp_path, ids, mat)  # segments 0, 1
    rep = idx.fsck()
    assert rep["ok"] and rep["issues"] == [] and rep["segments_checked"] == 2
    assert rep["files_checked"] > 0

    # crash leftovers: orphan (uncommitted) run dir + a stray tmp file
    os.makedirs(os.path.join(idx.path, "seg-000099"))
    open(os.path.join(idx.path, "marker.json.tmp"), "w").close()
    rep = idx.fsck()
    assert rep["ok"]  # warnings only — readers never see either
    kinds = {i["kind"] for i in rep["issues"]}
    assert kinds == {"uncommitted_run_dir", "tmp_file"}
    os.rmdir(os.path.join(idx.path, "seg-000099"))
    assert idx.vacuum() == {"removed": 1}  # the tmp file fsck reported
    assert idx.fsck()["issues"] == []

    # truncate a live cell file: fatal unreadable_file
    d = os.path.join(idx.path, "seg-000000")
    f = next(x for x in sorted(os.listdir(d)) if x.endswith(".parquet"))
    victim = os.path.join(d, f)
    orig = open(victim, "rb").read()
    with open(victim, "wb") as fh:
        fh.write(orig[: len(orig) // 2])
    rep = idx.fsck()
    assert not rep["ok"]
    assert any(i["kind"] == "unreadable_file" for i in rep["issues"])
    with open(victim, "wb") as fh:
        fh.write(orig)
    assert idx.fsck()["ok"]

    # remove a committed segment's run dir entirely: fatal missing_run_dir
    _sh.rmtree(os.path.join(idx.path, "seg-000001"))
    rep = idx.fsck()
    assert not rep["ok"]
    assert any(
        i["kind"] == "missing_run_dir" and i["segment"] == 1 for i in rep["issues"]
    )


def test_fsck_after_compact_and_delete(tmp_path):
    """Folded segments legitimately have no run dir (not fatal); a
    missing tombstone file for a live delete segment is fatal."""
    ids, mat = _vectors(seed=101)
    idx = _build(tmp_path, ids, mat)
    idx.compact()
    assert idx.fsck()["ok"]  # folded seg dirs gone, but below watermark
    idx.delete(ids[:3], segment_id=2)
    assert idx.fsck()["ok"]
    os.remove(os.path.join(idx.path, "seg-000002", "tombstones.parquet"))
    rep = idx.fsck()
    assert not rep["ok"]
    assert any(i["kind"] == "missing_tombstone_file" for i in rep["issues"])


# --------------------------------------------------------------- merge_from
def test_merge_from_equals_rebuild(tmp_path):
    """A <- even ids, B <- odd ids with a DIFFERENT quantizer; after
    A.merge_from(B) the exhaustive probe equals brute force over the
    whole set (re-assignment against A's centroids is lossless), and a
    replay of the merge segment is a no-op."""
    ids, mat = _vectors()
    even, odd = ids % 2 == 0, ids % 2 == 1
    cent_a = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    cent_b = kmeans_lite(normalize_rows(mat[100:].astype(np.float64)), 6, seed=13)
    a = IvfIndex(os.path.join(str(tmp_path), "a"), centroids=cent_a)
    b = IvfIndex(os.path.join(str(tmp_path), "b"), centroids=cent_b)
    a.add(_ds(ids[even], mat[even]), segment_id=0)
    b.add(_ds(ids[odd], mat[odd]), segment_id=0)
    rep = a.merge_from(b, segment_id=1)
    assert rep["skipped"] is False and rep["vectors"] == int(odd.sum())
    assert a.merge_from(b, segment_id=1) == {"segment": 1, "skipped": True}
    qids, qmat = ids[:4], mat[:4]
    got, stats = a.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=a.ncells
    )
    assert stats["cells_probed"] == stats["cells_total"]
    _assert_topk(got, _brute(ids, mat, qids, qmat))


def test_merge_from_applies_source_tombstones(tmp_path):
    """Only the source's LIVE view merges: ids tombstoned in B before
    the merge never appear in the merged index, while B's own view is
    untouched by the merge."""
    ids, mat = _vectors()
    even, odd = ids % 2 == 0, ids % 2 == 1
    cent = kmeans_lite(normalize_rows(mat[:100].astype(np.float64)), 8)
    a = IvfIndex(os.path.join(str(tmp_path), "a"), centroids=cent)
    b = IvfIndex(os.path.join(str(tmp_path), "b"), centroids=cent)
    a.add(_ds(ids[even], mat[even]), segment_id=0)
    b.add(_ds(ids[odd], mat[odd]), segment_id=0)
    dead = ids[odd & (ids % 5 == 0)]
    assert len(dead) > 0
    b.delete(dead, segment_id=1)
    a.merge_from(b, segment_id=1)
    live = even | (odd & (ids % 5 != 0))
    qids, qmat = ids[:4], mat[:4]
    got, _ = a.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=a.ncells
    )
    _assert_topk(got, _brute(ids[live], mat[live], qids, qmat))


def test_merge_from_pq_codes_only_source_raises(tmp_path):
    """A PQ source WITHOUT the refine column cannot merge (exact
    vectors are unrecoverable); with refine=True the merge works and
    stays exact."""
    import pytest

    from nyc_taxi_data_pipeline_ray.pipelines.ann import _saturated_pq_books

    ids, mat = _vectors(n=80, d=16)
    even, odd = ids % 2 == 0, ids % 2 == 1
    cent = kmeans_lite(normalize_rows(mat.astype(np.float64)), 4)
    books = _saturated_pq_books(normalize_rows(mat.astype(np.float64)), 4)
    a = IvfIndex(os.path.join(str(tmp_path), "a"), centroids=cent)
    a.add(_ds(ids[even], mat[even]), segment_id=0)
    codes_only = IvfIndex(
        os.path.join(str(tmp_path), "codes"), centroids=cent, pq_books=books
    )
    codes_only.add(_ds(ids[odd], mat[odd]), segment_id=0)
    with pytest.raises(ValueError, match="refine"):
        a.merge_from(codes_only, segment_id=1)
    refined = IvfIndex(
        os.path.join(str(tmp_path), "ref"),
        centroids=cent,
        pq_books=books,
        pq_refine=True,
    )
    refined.add(_ds(ids[odd], mat[odd]), segment_id=0)
    a.merge_from(refined, segment_id=1)
    qids, qmat = ids[:3], mat[:3]
    got, _ = a.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=a.ncells
    )
    _assert_topk(got, _brute(ids, mat, qids, qmat))


def test_merge_from_attr_col_mismatch_raises(tmp_path):
    import pytest

    ids, mat = _vectors(n=40, d=8)
    cent = kmeans_lite(normalize_rows(mat.astype(np.float64)), 2)
    a = IvfIndex(
        os.path.join(str(tmp_path), "a"), centroids=cent, attr_col="label"
    )
    b = IvfIndex(os.path.join(str(tmp_path), "b"), centroids=cent)
    b.add(_ds(ids, mat), segment_id=0)
    with pytest.raises(ValueError, match="attr_col"):
        a.merge_from(b, segment_id=0)


def test_merge_from_dimension_mismatch_raises(tmp_path):
    """A source of another vector dimension is refused up front with a
    typed error, before any segment is read or committed."""
    import pytest

    ids, mat = _vectors(n=40, d=8)
    cent = kmeans_lite(normalize_rows(mat.astype(np.float64)), 2)
    ids16, mat16 = _vectors(n=40, d=16)
    cent16 = kmeans_lite(normalize_rows(mat16.astype(np.float64)), 2)
    a = IvfIndex(os.path.join(str(tmp_path), "a"), centroids=cent)
    b = IvfIndex(os.path.join(str(tmp_path), "b"), centroids=cent16)
    b.add(_ds(ids16, mat16), segment_id=0)
    with pytest.raises(ValueError, match="dimension"):
        a.merge_from(b, segment_id=0)
    assert a.segments() == []


def test_merge_from_empty_source_commits_empty_segment(tmp_path):
    """Merging an empty index is a no-op that still consumes the
    segment id exactly once (the loop-shaped caller's epoch may be
    empty); the target keeps probing correctly."""
    ids, mat = _vectors(n=60, d=8)
    cent = kmeans_lite(normalize_rows(mat.astype(np.float64)), 4)
    a = IvfIndex(os.path.join(str(tmp_path), "a"), centroids=cent)
    b = IvfIndex(os.path.join(str(tmp_path), "b"), centroids=cent)
    a.add(_ds(ids, mat), segment_id=0)
    rep = a.merge_from(b, segment_id=1)
    assert rep == {"segment": 1, "skipped": False, "vectors": 0}
    assert a.merge_from(b, segment_id=1) == {"segment": 1, "skipped": True}
    # a source whose live view is entirely tombstoned (cell files on
    # disk, every row deleted, no compact) imports nothing either
    c = IvfIndex(os.path.join(str(tmp_path), "c"), centroids=cent)
    c.add(_ds(ids[:10], mat[:10]), segment_id=0)
    c.delete(ids[:10], segment_id=1)
    rep = a.merge_from(c, segment_id=2)
    assert rep == {"segment": 2, "skipped": False, "vectors": 0}
    assert a.fsck()["ok"]
    qids, qmat = ids[:3], mat[:3]
    got, _ = a.probe(
        qids, normalize_rows(qmat.astype(np.float64)), k=5, nprobe=a.ncells
    )
    _assert_topk(got, _brute(ids, mat, qids, qmat))
