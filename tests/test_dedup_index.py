"""MinHashIndex: incremental LSH dedup of arriving batches against the
already-indexed corpus — planted-dup recall, agreement with direct
signature comparison, exactly-once segment commits, multi-segment
accumulation."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from nyc_taxi_data_pipeline_ray.pipelines.text import cached_minhasher
from nyc_taxi_data_pipeline_ray.state import manifest as mf
from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

SF_DIR = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def corpus():
    texts = pq.read_table(f"{SF_DIR}/documents.parquet")["text"].to_pylist()[:60]
    base = pa.table({"doc_id": pa.array(range(40), pa.int64()), "text": texts[:40]})
    # arrivals: exact dups of 0-4, near-dups of 5-9, novels 50-59
    arr_ids, arr_texts = [], []
    for i in range(5):
        arr_ids.append(1000 + i)
        arr_texts.append(texts[i])
    for i in range(5):
        arr_ids.append(2000 + i)
        arr_texts.append(texts[5 + i] + " extra tail token")
    for i in range(10):
        arr_ids.append(3000 + i)
        arr_texts.append(texts[40 + i])
    arrivals = pa.table({"doc_id": pa.array(arr_ids, pa.int64()), "text": arr_texts})
    return base, arrivals


def test_index_probe_planted(tmp_path, corpus):
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    rep = idx.add(rd.from_arrow(base), segment_id=0)
    assert rep == {"segment": 0, "skipped": False, "docs": 40}

    pairs = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    found = {(int(a), int(b)) for a, b in zip(pairs["probe_doc"], pairs["indexed_doc"])}
    for i in range(5):  # exact dups must hit their source at est 1.0
        assert (1000 + i, i) in found
        est = pairs[(pairs["probe_doc"] == 1000 + i) & (pairs["indexed_doc"] == i)][
            "est_jaccard"
        ].iloc[0]
        assert est == 1.0
    for i in range(5):  # near dups must hit their source
        assert (2000 + i, 5 + i) in found
    # novels (fresh corpus texts) must not match anything at 0.5
    assert not any(p >= 3000 for p, _ in found)

    # every reported estimate equals the direct signature comparison
    mh = cached_minhasher(64)
    sig = {
        int(d): mh.signature(t)
        for d, t in zip(
            list(base["doc_id"].to_pylist()) + list(arrivals["doc_id"].to_pylist()),
            list(base["text"].to_pylist()) + list(arrivals["text"].to_pylist()),
        )
    }
    for _, r in pairs.iterrows():
        direct = float((sig[int(r["probe_doc"])] == sig[int(r["indexed_doc"])]).mean())
        assert abs(direct - r["est_jaccard"]) <= 5e-5  # probe rounds to 4 dp


def test_exactly_once_and_accumulation(tmp_path, corpus):
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    assert idx.add(rd.from_arrow(base), segment_id=0) == {"segment": 0, "skipped": True}
    assert idx.segments() == [0]

    # accept the arrivals as segment 1, then probe a near-dup of an
    # ARRIVAL doc: it must match against the newly indexed segment
    idx.add(rd.from_arrow(arrivals), segment_id=1)
    assert idx.segments() == [0, 1]
    probe = pa.table(
        {
            "doc_id": pa.array([9000], pa.int64()),
            "text": [arrivals["text"][5].as_py() + " another tail"],
        }
    )
    pairs = idx.probe(rd.from_arrow(probe), threshold=0.5)
    hits = set(pairs["indexed_doc"].astype(int))
    assert 2000 in hits  # the arrival near-dup, indexed in segment 1
    assert (pairs["probe_doc"] == 9000).all()


def test_crash_resume_uncommitted_segment(tmp_path, corpus):
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.add(rd.from_arrow(arrivals), segment_id=1)
    # crash simulation: the commit record vanishes -> segment invisible
    os.remove(mf.record_path(str(tmp_path / "idx"), 1))
    assert idx.segments() == [0]
    probe = pa.table(
        {"doc_id": pa.array([9000], pa.int64()), "text": [arrivals["text"][0].as_py()]}
    )
    pairs = idx.probe(rd.from_arrow(probe), threshold=0.5)
    # matches only segment-0 docs (the arrival dup 1000 is invisible)
    assert set(pairs["indexed_doc"].astype(int)) <= set(range(40))
    # re-add rewrites and recommits deterministically
    rep = idx.add(rd.from_arrow(arrivals), segment_id=1)
    assert rep["skipped"] is False
    assert idx.segments() == [0, 1]


def test_probe_and_add_fuses_probe_then_add(tmp_path, corpus):
    """probe_and_add == probe(before) + add(after): same candidates,
    same committed state, one band computation; replay returns the same
    candidates with a skipped commit."""
    base, arrivals = corpus
    ref = MinHashIndex(str(tmp_path / "ref"))
    ref.add(rd.from_arrow(base), segment_id=0)
    want = ref.probe(rd.from_arrow(arrivals), threshold=0.5)

    idx = MinHashIndex(str(tmp_path / "fused"))
    first_cand, first_rep = idx.probe_and_add(rd.from_arrow(base), segment_id=0)
    assert first_cand.empty and first_rep["skipped"] is False  # nothing earlier
    cand, rep = idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1)
    assert rep["skipped"] is False and idx.segments() == [0, 1]
    assert cand.equals(want)
    # replay: deterministic candidates (strictly-earlier probe view),
    # exactly-once commit
    cand2, rep2 = idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1)
    assert rep2 == {"segment": 1, "skipped": True}
    assert cand2.equals(want)


def test_probe_and_add_after_fold(tmp_path, corpus):
    """Replay of a COMMITTED epoch whose strictly-earlier view a
    compact() has folded away skips gracefully (a crash-resume ingest
    loop must not wedge); an UNcommitted segment at or below the fold
    watermark still raises — its dir would be invisible to readers."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.add(rd.from_arrow(arrivals), segment_id=2)
    assert idx.compact()["compacted"] is True  # through_segment = 2
    cand, rep = idx.probe_and_add(rd.from_arrow(arrivals), segment_id=2)
    assert cand.empty and rep == {"segment": 2, "skipped": True, "folded": True}
    with pytest.raises(ValueError, match="never committed"):
        idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1)


def test_crashed_add_leaves_no_phantom_rows(tmp_path, corpus):
    """A crashed add (bucket files written, no manifest) must not leak
    its rows into a retry indexing a different batch: the retry wipes
    the uncommitted seg dir before writing."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    # crashed attempt: full segment written, commit record removed
    idx.add(rd.from_arrow(arrivals), segment_id=1)
    os.remove(mf.record_path(str(tmp_path / "idx"), 1))
    # retry commits a DIFFERENT (smaller) batch under the same id
    retry = arrivals.slice(0, 1)
    idx.add(rd.from_arrow(retry), segment_id=1)
    seg = os.path.join(str(tmp_path / "idx"), "seg-000001")
    stored = pa.concat_tables(
        [pq.read_table(os.path.join(seg, f)) for f in os.listdir(seg)]
    )
    assert set(stored["doc_id"].to_pylist()) == {retry["doc_id"][0].as_py()}


def test_compaction_preserves_results(tmp_path, corpus):
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.add(rd.from_arrow(arrivals), segment_id=1)
    before = idx.probe(rd.from_arrow(arrivals), threshold=0.5)

    rep = idx.compact()
    assert rep["compacted"] and rep["through_segment"] == 1
    # folded segment parquet is gone, ledger (manifests) stays
    assert not os.path.isdir(os.path.join(str(tmp_path / "idx"), "seg-000000"))
    assert idx.segments() == [0, 1]
    # add() stays idempotent for folded ids
    assert idx.add(rd.from_arrow(base), segment_id=0)["skipped"] is True

    after = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert before.equals(after)

    # post-compact segments layer on top of the base
    extra = pa.table(
        {"doc_id": pa.array([5000], pa.int64()), "text": [base["text"][0].as_py()]}
    )
    idx.add(rd.from_arrow(extra), segment_id=2)
    probe = pa.table(
        {"doc_id": pa.array([9000], pa.int64()), "text": [base["text"][0].as_py()]}
    )
    hits = set(
        idx.probe(rd.from_arrow(probe), threshold=0.9)["indexed_doc"].astype(int)
    )
    assert {0, 5000} <= hits  # base (via compacted run) AND the new segment
    # second compact folds the new segment too
    rep2 = idx.compact()
    assert rep2["compacted"] and rep2["generation"] == 2 and rep2["through_segment"] == 2
    hits2 = set(
        idx.probe(rd.from_arrow(probe), threshold=0.9)["indexed_doc"].astype(int)
    )
    assert hits2 == hits


def test_probe_equals_batch_pipeline(tmp_path, corpus):
    """Equivalence witness: the incremental probe must reproduce the
    BATCH minhash join's pairs exactly, restricted to (indexed, probe)
    cross pairs — same signatures, same band hashes, same estimates."""
    import pandas as pd

    from nyc_taxi_data_pipeline_ray.pipelines import text as T

    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    got = idx.probe(rd.from_arrow(arrivals), threshold=0.5)

    union_dir = tmp_path / "union"
    union_dir.mkdir()
    union = pa.concat_tables([base, arrivals])
    pq.write_table(
        pa.table(
            {
                "doc_id": union["doc_id"],
                "text": union["text"],
                "lang": pa.array(["en"] * union.num_rows),
                "source": pa.array(["s"] * union.num_rows),
                "n_chars": pa.array(
                    [len(t) for t in union["text"].to_pylist()], pa.int64()
                ),
            }
        ),
        str(union_dir / "documents.parquet"),
    )
    batch = T.q_minhash_near_dups(str(union_dir), threshold=0.5)
    base_ids = set(base["doc_id"].to_pylist())
    arr_ids = set(arrivals["doc_id"].to_pylist())
    cross = batch[
        (batch["doc_a"].isin(base_ids) & batch["doc_b"].isin(arr_ids))
        | (batch["doc_a"].isin(arr_ids) & batch["doc_b"].isin(base_ids))
    ].copy()
    cross["probe_doc"] = cross[["doc_a", "doc_b"]].max(axis=1)
    cross["indexed_doc"] = cross[["doc_a", "doc_b"]].min(axis=1)
    exp = (
        cross[["probe_doc", "indexed_doc", "est_jaccard"]]
        .sort_values(["probe_doc", "indexed_doc"], ignore_index=True)
        .astype({"probe_doc": "int64", "indexed_doc": "int64"})
    )
    # the index probe displays 4-dp-rounded estimates; the batch path
    # emits the exact dyadic k/64 (SQL-mirror contract) — snap the probe
    # side back to the dyadic grid before comparing (1/64 spacing >> 1e-4)
    got = got.copy()
    got["est_jaccard"] = (got["est_jaccard"] * 64).round() / 64
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_params_persisted(tmp_path, corpus):
    base, _ = corpus
    idx = MinHashIndex(str(tmp_path / "idx"), num_perm=32, bands=8, num_buckets=16)
    idx.add(rd.from_arrow(base), segment_id=0)
    reopened = MinHashIndex(str(tmp_path / "idx"))  # defaults ignored
    assert (reopened.num_perm, reopened.bands, reopened.num_buckets) == (32, 8, 16)


def test_persisted_hits_survive_compaction(tmp_path, corpus):
    """probe_and_add(persist_hits=True) writes _admissions/epoch-N
    before the segment's record; a replay AFTER compact() folded the epoch's
    strictly-earlier view recovers the original candidates verbatim
    instead of the lossy empty skip."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "hits"))
    c0, r0 = idx.probe_and_add(rd.from_arrow(base), segment_id=0, persist_hits=True)
    c1, r1 = idx.probe_and_add(
        rd.from_arrow(arrivals), segment_id=1, persist_hits=True
    )
    assert not r0["skipped"] and not r1["skipped"] and len(c1)
    assert idx.compact()["compacted"] is True  # folds past both epochs
    g0, rep0 = idx.probe_and_add(rd.from_arrow(base), segment_id=0)
    g1, rep1 = idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1)
    assert rep0["replayed_hits"] and rep0["folded"] and rep0["skipped"]
    assert rep1["replayed_hits"] and rep1["folded"] and rep1["skipped"]
    assert g0.equals(c0) and g1.equals(c1)


def test_probe_retries_on_compactor_race(tmp_path, corpus):
    """Reader-vs-compactor parity with IvfIndex: a probe holding a
    stale run listing (dir folded away by a concurrent compact())
    raises out of the bucket task instead of silently dropping the
    folded rows' candidates, and the one-retry re-list reproduces the
    full result."""
    import pandas as pd

    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "race"))
    idx.add(rd.from_arrow(base), segment_id=0)
    expect = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert len(expect)  # planted dups: the race must not shrink this

    real = idx.ledger.run_dirs
    state = {"first": True}

    def stale_then_real(*args):
        if state["first"]:
            state["first"] = False
            # seg-000099 never existed -> vanished dir
            return [os.path.join(idx.path, "seg-000099")]
        return real(*args)

    idx.ledger.run_dirs = stale_then_real
    got = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert not state["first"]  # retry actually happened
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), expect.reset_index(drop=True)
    )


# ---------------------------------------------------------------- deletes
def test_delete_excludes_readd_resurrects_and_compact_folds(tmp_path, corpus):
    """Tombstoned docs stop appearing as indexed_doc; a later re-add
    resurrects; compact() removes them physically (tombstones dropped)
    without changing the probe result."""
    import glob

    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    # kill the exact-dup targets 0-4, resurrect 0 and 1
    idx.delete([0, 1, 2, 3, 4], segment_id=1)
    idx.add(rd.from_arrow(base.slice(0, 2)), segment_id=2)
    pairs = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    hit = set(pairs["indexed_doc"])
    assert not hit & {2, 3, 4}, "deleted docs leaked into probe hits"
    assert {0, 1} <= hit, "re-added docs must match their exact dups"
    rep = idx.compact()
    assert rep["compacted"] is True
    after = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert pairs.reset_index(drop=True).equals(after.reset_index(drop=True))
    stored = set()
    for f in glob.glob(os.path.join(idx.path, "base-*", "bucket=*.parquet")):
        stored |= set(pq.read_table(f)["doc_id"].to_pylist())
    assert not stored & {2, 3, 4}, "tombstoned docs survived the fold"
    assert {0, 1} <= stored
    assert not glob.glob(os.path.join(idx.path, "*", "tombstones.parquet"))


def test_delete_is_idempotent_and_guards_watermark(tmp_path, corpus):
    base, _ = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    rep = idx.delete([1, 2, 2], segment_id=2)  # dups collapse
    assert rep == {"segment": 2, "skipped": False, "tombstones": 2}
    assert idx.delete([1, 2], segment_id=2) == {"segment": 2, "skipped": True}
    idx.compact()  # through_segment = 2
    with pytest.raises(ValueError, match="fold watermark"):
        idx.delete([3], segment_id=1)


def test_vacuum_reclaims_crashed_compact_orphans(tmp_path, corpus):
    """Mirror of IvfIndex.vacuum: a compact() crash between the
    base checkpoint and the rmtree sweep must not orphan the folded
    run dirs forever — the next compact's leading vacuum reclaims
    them, and probes are unaffected."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base.slice(0, 20)), segment_id=0)
    idx.add(rd.from_arrow(base.slice(20, 20)), segment_id=1)
    before = idx.probe(rd.from_arrow(arrivals), threshold=0.5)

    import shutil as _sh

    folded = idx.ledger.run_dirs()
    real_rmtree = _sh.rmtree
    try:
        _sh.rmtree = lambda p, **k: None
        idx.compact()
    finally:
        _sh.rmtree = real_rmtree
    assert all(os.path.isdir(d) for d in folded)
    res = idx.vacuum()
    assert res["removed"] >= len(folded)
    assert not any(os.path.isdir(d) for d in folded)
    after = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert before.reset_index(drop=True).equals(after.reset_index(drop=True))


def test_crashed_first_compact_cannot_resurrect_tombstoned_docs(tmp_path, corpus):
    """A FIRST compact() that crashes after writing bucket files but
    before its base checkpoint leaves an uncommitted partial base-000001/.
    The retried compact must not fold onto those stale files: if a
    tombstone arrives in between and empties a bucket, a stale file
    from the crashed attempt would resurrect the deleted doc forever.
    vacuum()'s base-None sweep reclaims the partial first."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)

    # crash the first compact right before its checkpoint write
    real = type(idx).__mro__[0]  # noqa: F841 (clarity)
    from nyc_taxi_data_pipeline_ray import io as nio

    orig = nio.commit_json

    def crash_on_marker(path, obj):
        if "checkpoint-" in os.path.basename(path):
            raise RuntimeError("simulated crash before the base's checkpoint")
        return orig(path, obj)

    nio.commit_json = crash_on_marker
    try:
        with pytest.raises(RuntimeError, match="simulated crash"):
            idx.compact()
    finally:
        nio.commit_json = orig
    partial = os.path.join(idx.path, "base-000001")
    assert os.path.isdir(partial) and idx.ledger.base() is None

    # tombstone EVERYTHING indexed, then retry the compact: the leak
    # only manifests for buckets whose surviving parts are all empty
    # (the retry's fold skips them, leaving the crashed attempt's stale
    # file) — delete-all makes every bucket that bucket.  With the old
    # early-return vacuum this resurrected all 40 docs.
    idx.delete(list(range(40)), segment_id=1)
    rep = idx.compact()
    assert rep["compacted"] is True
    pairs = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert pairs.empty, "crashed-compact leftovers resurrected tombstoned docs"
    import glob

    stored = set()
    for f in glob.glob(os.path.join(idx.path, "base-*", "bucket=*.parquet")):
        stored |= set(pq.read_table(f)["doc_id"].to_pylist())
    assert not stored, f"stale bucket files survived: {sorted(stored)[:5]}..."


def test_segment_kind_collisions_raise(tmp_path, corpus):
    """MinHash mirror of the IVF test: delete() replayed against an id
    committed as an ADD raises (and vice versa), a delete replay with
    different ids raises, the genuine replay skips — and plain add()
    now guards the fold watermark like probe_and_add."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    with pytest.raises(ValueError, match="committed as an ADD"):
        idx.delete([1, 2], segment_id=0)
    idx.delete([1, 2], segment_id=2)
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.add(rd.from_arrow(arrivals), segment_id=2)
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete([1, 2, 3], segment_id=2)
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete([3, 4], segment_id=2)
    assert idx.delete([1, 2], segment_id=2) == {"segment": 2, "skipped": True}
    idx.compact()  # through_segment = 2
    with pytest.raises(ValueError, match="fold watermark"):
        idx.add(rd.from_arrow(arrivals), segment_id=1)
    # post-compact the exact ids are gone; kind + count still guard
    with pytest.raises(ValueError, match="not a replay"):
        idx.delete([1, 2, 3], segment_id=2)
    assert idx.delete([1, 2], segment_id=2) == {"segment": 2, "skipped": True}


def test_probe_and_add_refuses_tombstone_segment_collision(tmp_path, corpus):
    """MinHash mirror of the IVF test: probe_and_add replayed against a
    segment_id committed as a DELETE raises instead of silently
    skipping the commit (and never cements an admission sidecar for the
    delete) — before and after the fold."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.delete([1, 2], segment_id=1)
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1, persist_hits=True)
    assert idx.ledger.load_hits(1) is None, "sidecar cemented for a delete segment"
    idx.compact()
    with pytest.raises(ValueError, match="committed as a DELETE"):
        idx.probe_and_add(rd.from_arrow(arrivals), segment_id=1)


def test_vanished_tombstone_file_raises_not_resurrects(tmp_path, corpus):
    """A missing tombstones.parquet for a DELETE segment whose dir is
    still listed (compact()'s rmtree window) raises FileNotFoundError
    instead of silently dropping the exclusion set."""
    base, arrivals = corpus
    idx = MinHashIndex(str(tmp_path / "idx"))
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.delete([0, 1, 2, 3, 4], segment_id=1)
    os.remove(os.path.join(idx.path, "seg-000001", "tombstones.parquet"))
    with pytest.raises(FileNotFoundError, match="tombstone file vanished"):
        idx.probe(rd.from_arrow(arrivals), threshold=0.5)


# ------------------------------------------------------------- scoped dedup
def _with_scope(t: pa.Table, scopes: list[str]) -> pa.Table:
    return t.append_column("lang", pa.array(scopes, pa.string()))


def test_scoped_probe_requires_scope_agreement(tmp_path, corpus):
    """An index created with scope_col only reports pairs that AGREE on
    the scope column: exact dups across scopes are suppressed, within-
    scope hits are identical to the unscoped probe's."""
    base, arrivals = corpus
    # base docs alternate scopes; arrivals carry scopes chosen so the
    # first 3 exact dups agree with their source and the last 2 disagree
    base_sc = ["en" if i % 2 == 0 else "fr" for i in range(base.num_rows)]
    arr_sc = []
    for row, pid in enumerate(arrivals["doc_id"].to_pylist()):
        if 1000 <= pid < 1003:
            arr_sc.append(base_sc[pid - 1000])  # agree
        elif 1003 <= pid < 1005:
            arr_sc.append("de")  # disagree with every base doc
        else:
            arr_sc.append(base_sc[0])
    idx = MinHashIndex(str(tmp_path / "scoped"), scope_col="lang")
    idx.add(rd.from_arrow(_with_scope(base, base_sc)), segment_id=0)
    pairs = idx.probe(rd.from_arrow(_with_scope(arrivals, arr_sc)), threshold=0.5)
    found = {(int(a), int(b)) for a, b in zip(pairs["probe_doc"], pairs["indexed_doc"])}
    for i in range(3):
        assert (1000 + i, i) in found  # same scope: still a dup
    for i in range(3, 5):
        assert (1000 + i, i) not in found  # cross-scope: suppressed
    # and nothing cross-scope leaked anywhere
    sc_of = dict(zip(range(base.num_rows), base_sc))
    sc_of.update(zip(arrivals["doc_id"].to_pylist(), arr_sc))
    assert all(sc_of[a] == sc_of[b] for a, b in found)


def test_scoped_survives_compact_reopen_and_probe_and_add(tmp_path, corpus):
    """scope_col persists in meta.json; compaction folds bucket files by
    whole-table concat so the scope column survives; probe_and_add's
    fused path enforces the same agreement."""
    base, arrivals = corpus
    base_sc = ["en" if i % 3 == 0 else "fr" for i in range(base.num_rows)]
    arr_sc = ["en"] * arrivals.num_rows
    idx = MinHashIndex(str(tmp_path / "scoped2"), scope_col="lang")
    idx.add(rd.from_arrow(_with_scope(base, base_sc)), segment_id=0)
    before = idx.probe(rd.from_arrow(_with_scope(arrivals, arr_sc)), threshold=0.5)
    idx.add(
        rd.from_arrow(_with_scope(arrivals, arr_sc)).filter(lambda r: False),
        segment_id=1,
    )
    idx.compact()
    reopened = MinHashIndex(str(tmp_path / "scoped2"))
    assert reopened.scope_col == "lang"
    after = reopened.probe(rd.from_arrow(_with_scope(arrivals, arr_sc)), threshold=0.5)
    assert before.reset_index(drop=True).equals(after.reset_index(drop=True))
    cand, rep = reopened.probe_and_add(
        rd.from_arrow(_with_scope(arrivals, arr_sc)), segment_id=5, threshold=0.5
    )
    assert not rep["skipped"]
    assert cand.reset_index(drop=True).equals(before.reset_index(drop=True))
    # only en-scoped base docs can ever be hit (arrivals are all en)
    en_ids = {i for i, s in enumerate(base_sc) if s == "en"}
    assert set(cand["indexed_doc"]).issubset(en_ids)


def test_scoped_add_missing_scope_column_raises(tmp_path, corpus):
    base, _ = corpus
    idx = MinHashIndex(str(tmp_path / "scoped3"), scope_col="lang")
    with pytest.raises(Exception, match="scope_col"):
        idx.add(rd.from_arrow(base), segment_id=0)  # no lang column


def test_scope_col_reserved_name_raises(tmp_path):
    with pytest.raises(ValueError, match="collides"):
        MinHashIndex(str(tmp_path / "bad"), scope_col="band_hash")


# ------------------------------------------------------------- as-of probes
def test_asof_probe_hides_later_segments_and_raises_after_fold(tmp_path, corpus):
    """as_of_segment=0 sees only segment 0's documents (equal to probing
    an index holding only that segment); at the newest segment it equals
    the unrestricted probe; below a fold watermark it raises."""
    base, arrivals = corpus
    half = base.num_rows // 2
    idx = MinHashIndex(str(tmp_path / "asof"))
    idx.add(rd.from_arrow(base.slice(0, half)), segment_id=0)
    idx.add(rd.from_arrow(base.slice(half)), segment_id=1)
    only0 = MinHashIndex(str(tmp_path / "only0"))
    only0.add(rd.from_arrow(base.slice(0, half)), segment_id=0)
    a0 = idx.probe(rd.from_arrow(arrivals), threshold=0.5, as_of_segment=0)
    exp0 = only0.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert a0.reset_index(drop=True).equals(exp0.reset_index(drop=True))
    a1 = idx.probe(rd.from_arrow(arrivals), threshold=0.5, as_of_segment=1)
    full = idx.probe(rd.from_arrow(arrivals), threshold=0.5)
    assert a1.reset_index(drop=True).equals(full.reset_index(drop=True))
    assert idx.compact()["compacted"]
    with pytest.raises(ValueError, match="history folded"):
        idx.probe(rd.from_arrow(arrivals), threshold=0.5, as_of_segment=0)
    at_wm = idx.probe(rd.from_arrow(arrivals), threshold=0.5, as_of_segment=1)
    assert at_wm.reset_index(drop=True).equals(full.reset_index(drop=True))


def test_describe_reports_ledger_and_config(tmp_path, corpus):
    base, _ = corpus
    idx = MinHashIndex(str(tmp_path / "desc"), scope_col=None)
    idx.add(rd.from_arrow(base), segment_id=0)
    idx.delete(np.array([0, 1], np.int64), segment_id=1)
    d = idx.describe()
    assert d["segments_committed"] == 2
    assert d["add_segments"] == 1 and d["delete_segments"] == 1
    assert d["rows_committed"] == base.num_rows and d["tombstones_committed"] == 2
    assert d["base"] is None and d["live_runs"] == 2
    assert d["num_perm"] == 64 and d["bands"] == 16 and d["scope_col"] is None


# --------------------------------------------------------------- merge_from
def _probe_pairs(idx, arrivals, threshold=0.5):
    pairs = idx.probe(rd.from_arrow(arrivals), threshold=threshold)
    return {
        (int(a), int(b), float(e))
        for a, b, e in zip(
            pairs["probe_doc"], pairs["indexed_doc"], pairs["est_jaccard"]
        )
    }


def test_merge_from_equals_single_index(tmp_path, corpus):
    """A <- first 20 base docs, B <- last 20 in a separate index; after
    A.merge_from(B) probes equal an index built over all 40, and the
    merge replay is a no-op."""
    base, arrivals = corpus
    first = base.filter(pa.compute.less(base["doc_id"], 20))
    second = base.filter(pa.compute.greater_equal(base["doc_id"], 20))
    a = MinHashIndex(str(tmp_path / "a"))
    b = MinHashIndex(str(tmp_path / "b"))
    a.add(rd.from_arrow(first), segment_id=0)
    b.add(rd.from_arrow(second), segment_id=0)
    rep = a.merge_from(b, segment_id=1)
    assert rep["skipped"] is False and rep["docs"] == 20
    assert a.merge_from(b, segment_id=1) == {"segment": 1, "skipped": True}
    whole = MinHashIndex(str(tmp_path / "whole"))
    whole.add(rd.from_arrow(base), segment_id=0)
    assert _probe_pairs(a, arrivals) == _probe_pairs(whole, arrivals)


def test_merge_from_applies_source_tombstones(tmp_path, corpus):
    """Docs tombstoned in the source before the merge never reach the
    target: probes equal a single index over the live union."""
    base, arrivals = corpus
    first = base.filter(pa.compute.less(base["doc_id"], 20))
    second = base.filter(pa.compute.greater_equal(base["doc_id"], 20))
    a = MinHashIndex(str(tmp_path / "a"))
    b = MinHashIndex(str(tmp_path / "b"))
    a.add(rd.from_arrow(first), segment_id=0)
    b.add(rd.from_arrow(second), segment_id=0)
    dead = np.arange(20, 30, dtype=np.int64)
    b.delete(dead, segment_id=1)
    a.merge_from(b, segment_id=1)
    live = base.filter(
        pa.compute.or_(
            pa.compute.less(base["doc_id"], 20),
            pa.compute.greater_equal(base["doc_id"], 30),
        )
    )
    whole = MinHashIndex(str(tmp_path / "whole"))
    whole.add(rd.from_arrow(live), segment_id=0)
    assert _probe_pairs(a, arrivals) == _probe_pairs(whole, arrivals)


def test_merge_from_config_mismatch_raises(tmp_path, corpus):
    """Band rows are config-specific: differing (num_perm, bands,
    num_buckets, scope_col) must refuse to merge."""
    base, _ = corpus
    a = MinHashIndex(str(tmp_path / "a"))
    b = MinHashIndex(str(tmp_path / "b"), num_buckets=32)
    b.add(rd.from_arrow(base), segment_id=0)
    with pytest.raises(ValueError, match="config"):
        a.merge_from(b, segment_id=0)
    scoped = MinHashIndex(str(tmp_path / "scoped"), scope_col="lang")
    with pytest.raises(ValueError, match="config"):
        a.merge_from(scoped, segment_id=0)


def test_merge_from_empty_source_commits_empty_segment(tmp_path, corpus):
    base, arrivals = corpus
    a = MinHashIndex(str(tmp_path / "a"))
    b = MinHashIndex(str(tmp_path / "b"))
    a.add(rd.from_arrow(base), segment_id=0)
    rep = a.merge_from(b, segment_id=1)
    assert rep == {"segment": 1, "skipped": False, "docs": 0}
    assert a.merge_from(b, segment_id=1) == {"segment": 1, "skipped": True}
    # a source whose live view is entirely tombstoned (bucket files on
    # disk, every doc deleted, no compact) imports nothing either
    c = MinHashIndex(str(tmp_path / "c"))
    c.add(rd.from_arrow(base), segment_id=0)
    c.delete(base["doc_id"].to_numpy(), segment_id=1)
    rep = a.merge_from(c, segment_id=2)
    assert rep == {"segment": 2, "skipped": False, "docs": 0}
    assert a.fsck()["ok"]
    whole = MinHashIndex(str(tmp_path / "whole"))
    whole.add(rd.from_arrow(base), segment_id=0)
    assert _probe_pairs(a, arrivals) == _probe_pairs(whole, arrivals)
