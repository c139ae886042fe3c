"""CLI surface: every command runs in-process against a tmp lake."""

import json

from nyc_taxi_data_pipeline_ray.__main__ import main


def test_cli_roundtrip(tmp_path, capsys):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    assert main(["generate", "--wal", wal, "--epochs", "2",
                 "--events-per-epoch", "400", "--conversations", "40"]) == 0
    assert main(["apply", "--wal", wal, "--lake", lake, "--partitions", "4"]) == 0
    assert main(["lag", "--wal", wal, "--lake", lake]) == 0
    assert main(["metrics", "--lake", lake]) == 0
    assert main(["check", "--lake", lake]) == 0
    assert main(["compact", "--lake", lake]) == 0
    out = str(tmp_path / "snap")
    assert main(["snapshot", "--lake", lake, "--out", out]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert any("rows_in" in d for d in lines)
    lag = next(d for d in lines if "epochs_behind" in d)
    assert lag["epochs_behind"] == 0
    check = next(d for d in lines if "passed" in d)
    assert check["passed"]


def test_cli_feeds_and_view(tmp_path, capsys):
    import glob

    import pyarrow.parquet as pq

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    assert main(["generate", "--wal", wal, "--epochs", "2",
                 "--events-per-epoch", "400", "--conversations", "40"]) == 0
    assert main(["apply", "--wal", wal, "--lake", lake, "--partitions", "4",
                 "--max-epochs", "1"]) == 0
    assert main(["apply", "--wal", wal, "--lake", lake, "--partitions", "4"]) == 0

    dout = str(tmp_path / "diff")
    assert main(["diff", "--lake", lake, "--out", dout, "--from-epoch", "0"]) == 0
    n_diff = sum(pq.read_table(f).num_rows for f in glob.glob(dout + "/*.parquet"))
    assert n_diff > 0

    rout = str(tmp_path / "rejects")
    assert main(["rejects", "--lake", lake, "--out", rout]) == 0  # clean WAL -> empty ok

    view = str(tmp_path / "view")
    assert main(["view-refresh", "--lake", lake, "--view", view]) == 0
    assert main(["view-refresh", "--lake", lake, "--view", view]) == 0

    tgt = str(tmp_path / "lake9")
    assert main(["reshard", "--lake", lake, "--target", tgt, "--partitions", "9"]) == 0

    rep_lake = str(tmp_path / "replica")
    rep_wal = str(tmp_path / "replica_wal")
    assert main(["replicate", "--lake", lake, "--out-wal", rep_wal]) == 0
    assert main(["apply", "--wal", rep_wal, "--lake", rep_lake, "--partitions", "4"]) == 0
    assert main(["antientropy", "--lake", lake, "--other", rep_lake]) == 0
    assert main(["wal-gc", "--lake", rep_lake, "--wal", rep_wal]) == 0
    assert main(["lag", "--wal", rep_wal, "--lake", rep_lake]) == 0

    dtab = str(tmp_path / "derived")
    assert main(["derived-refresh", "--lake", lake, "--table", dtab]) == 0
    assert main(["derived-refresh", "--lake", lake, "--table", dtab]) == 0

    sidx = str(tmp_path / "toolidx")
    assert main(["sidx-refresh", "--lake", lake, "--index", sidx]) == 0
    assert main(["sidx-refresh", "--lake", lake, "--index", sidx]) == 0  # noop
    iout = str(tmp_path / "idxhits")
    tool = next(
        t
        for f in glob.glob(str(tmp_path / "lake" / "p=*" / "*.parquet"))
        for t in pq.read_table(f)["tool"].to_pylist()
        if t
    )
    assert main(["sidx-lookup", "--lake", lake, "--index", sidx,
                 "--value", tool, "--out", iout]) == 0
    n_hits = sum(pq.read_table(f).num_rows for f in glob.glob(iout + "/*.parquet"))
    assert n_hits > 0

    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    refreshes = [d for d in lines if "refreshed" in d]
    assert refreshes[-1]["refreshed"] == 0 and refreshes[-1]["reused"] == 4
    derived = [d for d in lines if "transformed_rows" in d]
    assert derived[0]["transformed_rows"] > 0 and derived[-1]["transformed_rows"] == 0

    conv = pq.read_table(glob.glob(str(tmp_path / "lake" / "p=*" / "*.parquet"))[0])[
        "conv_id"
    ][0].as_py()
    assert main(["get", "--lake", lake, "--conv-id", conv]) == 0
    got = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert got[0]["turns"] >= 1 and got[1]["conv_id"] == conv

    assert main(["history", "--lake", lake, "--conv-id", conv]) == 0
    hist = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert hist[0]["events"] >= got[0]["turns"]
    assert any(r.get("is_winner") for r in hist[1:])


def test_cli_follow_with_view(tmp_path, capsys):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    view = str(tmp_path / "view")
    assert main(["generate", "--wal", wal, "--epochs", "2",
                 "--events-per-epoch", "300", "--conversations", "30"]) == 0
    # streaming-IVM loop: tail the WAL, refresh the view per apply
    derived = str(tmp_path / "derived")
    assert main(["follow", "--wal", wal, "--lake", lake, "--partitions", "4",
                 "--poll-interval", "0.1", "--max-idle-polls", "1",
                 "--view", view, "--derived", derived]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    applies = [d for d in lines if "applied" in d]
    assert applies and all("view" in d for d in applies)
    assert applies[-1]["view"]["rows"] > 0
    assert all("derived" in d for d in applies)
    assert applies[-1]["derived"]["rows"] > 0
    assert lines[-1]["lag"]["epochs_behind"] == 0
    # the view on disk is current: one more refresh is a pure no-op
    import ray.data  # noqa: F401  (session already up via conftest)

    from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig
    from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

    eng = CdcEngine(LakeConfig.load(lake))
    rep = MaterializedView(eng, view).refresh()
    assert rep["refreshed"] == 0 and rep["reused"] == 4


def test_cli_dedup_index_lifecycle(tmp_path, capsys):
    """index-add / index-ingest / index-probe / index-compact: the fused
    ingest verb returns the same candidates a separate probe would."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    texts = pq.read_table("/root/testdata/sf0.01/documents.parquet")[
        "text"
    ].to_pylist()[:30]
    d0 = str(tmp_path / "d0.parquet")
    d1 = str(tmp_path / "d1.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(20), pa.int64()), "text": texts[:20]}), d0
    )
    # arrivals: one exact dup of doc 0 plus novel texts
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([100, 101, 102], pa.int64()),
                "text": [texts[0], texts[25], texts[26]],
            }
        ),
        d1,
    )
    idx = str(tmp_path / "lsh")
    out = str(tmp_path / "pairs.parquet")

    assert main(["index-add", "--index", idx, "--docs", d0, "--segment", "0"]) == 0
    assert main(["index-ingest", "--index", idx, "--docs", d1, "--segment", "1",
                 "--out", out]) == 0
    ing = pq.read_table(out)
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["skipped"] is False and rep["pairs"] == ing.num_rows
    assert (100, 0) in set(
        zip(ing["probe_doc"].to_pylist(), ing["indexed_doc"].to_pylist())
    )
    # a standalone probe of the same batch now ALSO matches itself
    # (segment 1 is committed); restricted to earlier docs it agrees
    out2 = str(tmp_path / "pairs2.parquet")
    assert main(["index-probe", "--index", idx, "--docs", d1, "--out", out2]) == 0
    t2 = pq.read_table(out2)
    earlier = t2.filter(pa.compute.less(t2["indexed_doc"], pa.scalar(100)))
    assert sorted(
        zip(earlier["probe_doc"].to_pylist(), earlier["indexed_doc"].to_pylist())
    ) == sorted(zip(ing["probe_doc"].to_pylist(), ing["indexed_doc"].to_pylist()))
    assert main(["index-compact", "--index", idx]) == 0


def test_cli_scoped_dedup_index(tmp_path):
    """index-add --scope-col + index-probe: cross-scope exact dups are
    suppressed, same-scope dups still hit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    texts = pq.read_table("/root/testdata/sf0.01/documents.parquet")[
        "text"
    ].to_pylist()[:20]
    d0 = str(tmp_path / "d0.parquet")
    d1 = str(tmp_path / "d1.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(10), pa.int64()),
                "text": texts[:10],
                "lang": pa.array(["en"] * 5 + ["fr"] * 5),
            }
        ),
        d0,
    )
    # arrivals: exact dup of doc 0 in the SAME scope, exact dup of doc 1
    # in a DIFFERENT scope
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([100, 101], pa.int64()),
                "text": [texts[0], texts[1]],
                "lang": pa.array(["en", "de"]),
            }
        ),
        d1,
    )
    idx = str(tmp_path / "lsh")
    out = str(tmp_path / "pairs.parquet")
    assert main(["index-add", "--index", idx, "--docs", d0, "--segment", "0",
                 "--scope-col", "lang"]) == 0
    assert main(["index-probe", "--index", idx, "--docs", d1, "--out", out]) == 0
    got = set(
        zip(
            pq.read_table(out)["probe_doc"].to_pylist(),
            pq.read_table(out)["indexed_doc"].to_pylist(),
        )
    )
    assert (100, 0) in got and (101, 1) not in got


def test_cli_ann_index_lifecycle(tmp_path):
    """ann-add / ann-probe / ann-compact against the persisted IVF index:
    the CLI loop a training-data ingest job would script."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(23)
    mat = rng.normal(size=(120, 8)).astype(np.float32)
    ids = np.arange(120, dtype=np.int64)

    def write(path, lo, hi):
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(ids[lo:hi]),
                    "embedding": pa.array([r for r in mat[lo:hi]]),
                }
            ),
            path,
        )

    v0 = str(tmp_path / "v0.parquet")
    v1 = str(tmp_path / "v1.parquet")
    q = str(tmp_path / "q.parquet")
    write(v0, 0, 60)
    write(v1, 60, 120)
    write(q, 0, 3)
    idx = str(tmp_path / "ivf")
    out = str(tmp_path / "topk.parquet")

    assert main(["ann-add", "--index", idx, "--vectors", v0, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-add", "--index", idx, "--vectors", v1, "--segment", "1"]) == 0
    assert main(["ann-probe", "--index", idx, "--queries", q, "--out", out,
                 "--k", "3", "--nprobe", "4"]) == 0
    t = pq.read_table(out)
    assert t.num_rows == 9  # 3 queries x k=3 (exhaustive nprobe == ncells)
    assert main(["ann-compact", "--index", idx]) == 0
    assert main(["ann-probe", "--index", idx, "--queries", q, "--out", out,
                 "--k", "3", "--nprobe", "4"]) == 0
    assert pq.read_table(out).equals(t)  # compaction preserves results


def test_cli_ann_filtered_probe(tmp_path):
    """ann-add --attr-col + ann-probe --where: the filtered-vector-search
    loop; every returned candidate must satisfy the predicate."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(29)
    mat = rng.normal(size=(90, 8)).astype(np.float32)
    ids = np.arange(90, dtype=np.int64)
    v = str(tmp_path / "v.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array([r for r in mat]),
                "label": pa.array((ids % 3).astype(np.int32)),
            }
        ),
        v,
    )
    q = str(tmp_path / "q.parquet")
    pq.write_table(
        pa.table(
            {"vec_id": pa.array(ids[:3]), "embedding": pa.array([r for r in mat[:3]])}
        ),
        q,
    )
    idx = str(tmp_path / "ivf")
    out = str(tmp_path / "topk.parquet")
    assert main(["ann-add", "--index", idx, "--vectors", v, "--segment", "0",
                 "--ncells", "4", "--attr-col", "label"]) == 0
    assert main(["ann-probe", "--index", idx, "--queries", q, "--out", out,
                 "--k", "3", "--nprobe", "4", "--where", "label=1"]) == 0
    t = pq.read_table(out).to_pandas()
    assert len(t) == 9 and (t["vec_id"] % 3 == 1).all()


def test_cli_describe_verbs(tmp_path, capsys):
    """index-describe / ann-describe: JSON ledger/config snapshots."""
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    texts = pq.read_table("/root/testdata/sf0.01/documents.parquet")[
        "text"
    ].to_pylist()[:10]
    d0 = str(tmp_path / "d0.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(10), pa.int64()), "text": texts}), d0
    )
    lsh = str(tmp_path / "lsh")
    assert main(["index-add", "--index", lsh, "--docs", d0, "--segment", "0"]) == 0
    assert main(["index-describe", "--index", lsh]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["add_segments"] == 1 and rep["rows_committed"] == 10
    assert rep["bands"] == 16

    rng = np.random.default_rng(37)
    mat = rng.normal(size=(40, 8)).astype(np.float32)
    v = str(tmp_path / "v.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(40, dtype=np.int64)),
                "embedding": pa.array([r for r in mat]),
            }
        ),
        v,
    )
    ivf = str(tmp_path / "ivf")
    assert main(["ann-add", "--index", ivf, "--vectors", v, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-describe", "--index", ivf]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["add_segments"] == 1 and rep["rows_committed"] == 40
    assert rep["ncells"] == 4 and rep["pq"] is False


def test_cli_ann_ingest(tmp_path):
    """ann-ingest (fused probe+add): hits come from strictly-earlier
    segments only, and the epoch is committed in the same verb."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(29)
    mat = rng.normal(size=(80, 8)).astype(np.float32)
    ids = np.arange(80, dtype=np.int64)

    def write(path, lo, hi):
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(ids[lo:hi]),
                    "embedding": pa.array([r for r in mat[lo:hi]]),
                }
            ),
            path,
        )

    e0 = str(tmp_path / "e0.parquet")
    e1 = str(tmp_path / "e1.parquet")
    write(e0, 0, 40)
    write(e1, 40, 80)
    idx = str(tmp_path / "ivf")
    h0 = str(tmp_path / "h0.parquet")
    h1 = str(tmp_path / "h1.parquet")

    assert main(["ann-ingest", "--index", idx, "--vectors", e0, "--segment", "0",
                 "--out", h0, "--k", "3", "--nprobe", "4", "--ncells", "4"]) == 0
    assert pq.read_table(h0).num_rows == 0  # nothing earlier to hit
    assert main(["ann-ingest", "--index", idx, "--vectors", e1, "--segment", "1",
                 "--out", h1, "--k", "3", "--nprobe", "4"]) == 0
    t = pq.read_table(h1)
    assert t.num_rows == 40 * 3  # every query hit k=3 earlier vectors
    assert set(t["vec_id"].to_pylist()) <= set(range(40))  # earlier only


def test_cli_ann_replay_after_compact(tmp_path):
    """ann-ingest --persist-hits + ann-compact + ann-replay: the
    admission decision is recovered verbatim from the _admissions
    sidecar even though compaction folded the probe view away."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(31)
    mat = rng.normal(size=(60, 8)).astype(np.float32)
    ids = np.arange(60, dtype=np.int64)

    def write(path, lo, hi):
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(ids[lo:hi]),
                    "embedding": pa.array([r for r in mat[lo:hi]]),
                }
            ),
            path,
        )

    e0, e1 = str(tmp_path / "e0.parquet"), str(tmp_path / "e1.parquet")
    write(e0, 0, 30)
    write(e1, 30, 60)
    idx = str(tmp_path / "ivf")
    h0, h1 = str(tmp_path / "h0.parquet"), str(tmp_path / "h1.parquet")
    r1 = str(tmp_path / "r1.parquet")

    assert main(["ann-ingest", "--index", idx, "--vectors", e0, "--segment", "0",
                 "--out", h0, "--k", "3", "--nprobe", "4", "--ncells", "4",
                 "--persist-hits"]) == 0
    assert main(["ann-ingest", "--index", idx, "--vectors", e1, "--segment", "1",
                 "--out", h1, "--k", "3", "--nprobe", "4", "--persist-hits"]) == 0
    assert main(["ann-compact", "--index", idx]) == 0
    assert main(["ann-replay", "--index", idx, "--segment", "1", "--out", r1]) == 0
    assert pq.read_table(r1).equals(pq.read_table(h1))
    # a segment ingested without --persist-hits has nothing to replay
    assert main(["ann-replay", "--index", idx, "--segment", "7",
                 "--out", str(tmp_path / "nope.parquet")]) == 1


def test_cli_delete_verbs(tmp_path):
    """index-delete / ann-delete: tombstoned ids vanish from probes and
    from the compacted base."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    # --- dedup index: delete the exact-dup target, the hit disappears
    texts = pq.read_table("/root/testdata/sf0.01/documents.parquet")[
        "text"
    ].to_pylist()[:25]
    d0 = str(tmp_path / "d0.parquet")
    d1 = str(tmp_path / "d1.parquet")
    del_ids = str(tmp_path / "dead.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(20), pa.int64()), "text": texts[:20]}), d0
    )
    pq.write_table(
        pa.table({"doc_id": pa.array([100], pa.int64()), "text": [texts[0]]}), d1
    )
    pq.write_table(pa.table({"doc_id": pa.array([0], pa.int64())}), del_ids)
    idx = str(tmp_path / "lsh")
    out = str(tmp_path / "pairs.parquet")
    assert main(["index-add", "--index", idx, "--docs", d0, "--segment", "0"]) == 0
    assert main(["index-probe", "--index", idx, "--docs", d1, "--out", out]) == 0
    assert (100, 0) in set(
        zip(*(pq.read_table(out)[c].to_pylist() for c in ("probe_doc", "indexed_doc")))
    )
    assert main(["index-delete", "--index", idx, "--ids", del_ids,
                 "--segment", "1"]) == 0
    assert main(["index-probe", "--index", idx, "--docs", d1, "--out", out]) == 0
    assert 0 not in set(pq.read_table(out)["indexed_doc"].to_pylist())
    assert main(["index-compact", "--index", idx]) == 0
    assert main(["index-probe", "--index", idx, "--docs", d1, "--out", out]) == 0
    assert 0 not in set(pq.read_table(out)["indexed_doc"].to_pylist())

    # --- IVF index: deleted vec_ids never surface in top-k
    rng = np.random.default_rng(29)
    mat = rng.normal(size=(60, 8)).astype(np.float32)
    ids = np.arange(60, dtype=np.int64)
    v0 = str(tmp_path / "v0.parquet")
    q = str(tmp_path / "q.parquet")
    vdead = str(tmp_path / "vdead.parquet")
    pq.write_table(
        pa.table({"vec_id": pa.array(ids), "embedding": pa.array(list(mat))}), v0
    )
    pq.write_table(
        pa.table({"vec_id": pa.array(ids[:3]), "embedding": pa.array(list(mat[:3]))}),
        q,
    )
    pq.write_table(pa.table({"vec_id": pa.array(ids[ids % 4 == 0])}), vdead)
    aidx = str(tmp_path / "ivf")
    aout = str(tmp_path / "topk.parquet")
    assert main(["ann-add", "--index", aidx, "--vectors", v0, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-delete", "--index", aidx, "--ids", vdead, "--segment", "1"]) == 0
    assert main(["ann-probe", "--index", aidx, "--queries", q, "--out", aout,
                 "--k", "60", "--nprobe", "4"]) == 0
    hit = set(pq.read_table(aout)["vec_id"].to_pylist())
    assert not {int(i) for i in ids[ids % 4 == 0]} & hit
    assert main(["ann-compact", "--index", aidx]) == 0
    assert main(["ann-probe", "--index", aidx, "--queries", q, "--out", aout,
                 "--k", "60", "--nprobe", "4"]) == 0
    assert set(pq.read_table(aout)["vec_id"].to_pylist()) == hit


def test_cli_where_quoted_string_value(tmp_path):
    """A string-typed attr whose values look numeric is matchable by
    quoting the VALUE (unquoted it is coerced to int and would silently
    match nothing); cold-start ann-ingest can declare --attr-col."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(31)
    mat = rng.normal(size=(60, 8)).astype(np.float32)
    ids = np.arange(60, dtype=np.int64)
    v = str(tmp_path / "v.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array([r for r in mat]),
                "zone": pa.array([str(40 + int(i) % 3) for i in ids]),
            }
        ),
        v,
    )
    q = str(tmp_path / "q.parquet")
    pq.write_table(
        pa.table(
            {"vec_id": pa.array(ids[:2]), "embedding": pa.array([r for r in mat[:2]])}
        ),
        q,
    )
    idx = str(tmp_path / "ivf")
    out = str(tmp_path / "hits.parquet")
    # cold-start creation through the fused ingest verb
    assert main(["ann-ingest", "--index", idx, "--vectors", v, "--segment", "0",
                 "--out", out, "--ncells", "4", "--attr-col", "zone"]) == 0
    out2 = str(tmp_path / "topk.parquet")
    assert main(["ann-probe", "--index", idx, "--queries", q, "--out", out2,
                 "--k", "3", "--nprobe", "4", "--where", "zone='41'"]) == 0
    t = pq.read_table(out2).to_pandas()
    assert len(t) == 6 and (t["vec_id"] % 3 == 1).all()
    # unquoted numeric-looking value coerces to int and matches nothing
    assert main(["ann-probe", "--index", idx, "--queries", q, "--out", out2,
                 "--k", "3", "--nprobe", "4", "--where", "zone=41"]) == 0
    assert pq.read_table(out2).num_rows == 0


def test_cli_fsck_verbs(tmp_path, capsys):
    """index-fsck / ann-fsck: exit 0 when consistent, 1 on fatal issues."""
    import json as _json
    import shutil as _sh

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    rng = np.random.default_rng(41)
    mat = rng.normal(size=(30, 8)).astype(np.float32)
    v = str(tmp_path / "v.parquet")
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(30, dtype=np.int64)),
                "embedding": pa.array([r for r in mat]),
            }
        ),
        v,
    )
    ivf = str(tmp_path / "ivf")
    assert main(["ann-add", "--index", ivf, "--vectors", v, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-fsck", "--index", ivf]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["ok"] and rep["issues"] == []
    _sh.rmtree(str(tmp_path / "ivf" / "seg-000000"))
    assert main(["ann-fsck", "--index", ivf]) == 1

    texts = ["the quick brown fox jumps over the lazy dog %d" % i for i in range(8)]
    d0 = str(tmp_path / "d0.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(8), pa.int64()), "text": texts}), d0
    )
    lsh = str(tmp_path / "lsh")
    assert main(["index-add", "--index", lsh, "--docs", d0, "--segment", "0"]) == 0
    assert main(["index-fsck", "--index", lsh]) == 0


def test_cli_index_verbs_refuse_missing_index(tmp_path, capsys):
    """Only index-add/-ingest and ann-add/-ingest may create an index:
    every other index-*/ann-* verb on a mistyped path prints a JSON
    error, exits 1 and leaves no directory behind."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["a b"]}), docs)
    out = str(tmp_path / "out.parquet")
    typo = str(tmp_path / "typo")
    verbs = [
        ["index-probe", "--docs", docs, "--out", out],
        ["index-describe"],
        ["index-fsck"],
        ["index-delete", "--ids", docs, "--segment", "1"],
        ["index-compact"],
        ["ann-probe", "--queries", docs, "--out", out],
        ["ann-describe"],
        ["ann-fsck"],
        ["ann-delete", "--ids", docs, "--segment", "1"],
        ["ann-compact"],
        ["ann-replay", "--segment", "0", "--out", out],
    ]
    for verb, *rest in verbs:
        assert main([verb, "--index", typo, *rest]) == 1, verb
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        if verb.startswith("index-"):
            assert rep == {"error": f"no dedup index at {typo!r}"}, verb
        else:
            assert "no IvfIndex at" in rep["error"], verb
        assert not (tmp_path / "typo").exists(), verb


def test_cli_index_merge_federation(tmp_path, capsys):
    """index-merge / ann-merge: a second shard index merges into the
    target as one committed segment; a missing source path errors
    instead of silently creating an empty index."""
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray.__main__ import main

    texts = pq.read_table("/root/testdata/sf0.01/documents.parquet")[
        "text"
    ].to_pylist()[:40]
    d0 = str(tmp_path / "d0.parquet")
    d1 = str(tmp_path / "d1.parquet")
    probe = str(tmp_path / "probe.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(20), pa.int64()), "text": texts[:20]}), d0
    )
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(range(20, 40), pa.int64()), "text": texts[20:40]}
        ),
        d1,
    )
    # probe doc duplicates one doc from EACH shard
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([100, 101], pa.int64()), "text": [texts[0], texts[25]]}
        ),
        probe,
    )
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["index-add", "--index", a, "--docs", d0, "--segment", "0"]) == 0
    assert main(["index-add", "--index", b, "--docs", d1, "--segment", "0"]) == 0
    assert main(["index-merge", "--index", a, "--from", str(tmp_path / "nope"),
                 "--segment", "1"]) == 1
    # a mistyped TARGET errors the same way and creates nothing
    typo = str(tmp_path / "typo")
    assert main(["index-merge", "--index", typo, "--from", b, "--segment", "1"]) == 1
    assert _json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == {
        "error": f"no dedup index at {typo!r}"
    }
    assert not (tmp_path / "typo").exists()
    assert main(["index-merge", "--index", a, "--from", b, "--segment", "1"]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep == {"segment": 1, "skipped": False, "docs": 20}
    out = str(tmp_path / "pairs.parquet")
    assert main(["index-probe", "--index", a, "--docs", probe, "--out", out]) == 0
    t = pq.read_table(out)
    found = set(zip(t["probe_doc"].to_pylist(), t["indexed_doc"].to_pylist()))
    assert (100, 0) in found and (101, 25) in found

    # --- IVF side: two shards of synthetic vectors, merged then probed
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(60, 8)).astype(np.float32)
    v0 = str(tmp_path / "v0.parquet")
    v1 = str(tmp_path / "v1.parquet")
    q = str(tmp_path / "q.parquet")
    pq.write_table(
        pa.table(
            {"vec_id": pa.array(range(30), pa.int64()), "embedding": list(mat[:30])}
        ),
        v0,
    )
    pq.write_table(
        pa.table(
            {"vec_id": pa.array(range(30, 60), pa.int64()), "embedding": list(mat[30:])}
        ),
        v1,
    )
    pq.write_table(
        pa.table({"vec_id": pa.array([1000], pa.int64()), "embedding": [mat[45]]}), q
    )
    ia, ib = str(tmp_path / "ivf_a"), str(tmp_path / "ivf_b")
    assert main(["ann-add", "--index", ia, "--vectors", v0, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-add", "--index", ib, "--vectors", v1, "--segment", "0",
                 "--ncells", "4"]) == 0
    assert main(["ann-merge", "--index", ia, "--from", str(tmp_path / "nope"),
                 "--segment", "1"]) == 1
    ivf_typo = str(tmp_path / "ivf_typo")
    assert main(["ann-merge", "--index", ivf_typo, "--from", ib,
                 "--segment", "1"]) == 1
    assert "error" in _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not (tmp_path / "ivf_typo").exists()
    assert main(["ann-merge", "--index", ia, "--from", ib, "--segment", "1"]) == 0
    rep = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep == {"segment": 1, "skipped": False, "vectors": 30}
    topk = str(tmp_path / "topk.parquet")
    assert main(["ann-probe", "--index", ia, "--queries", q, "--out", topk,
                 "--k", "1", "--nprobe", "4"]) == 0
    got = pq.read_table(topk)
    # the query IS shard B's vector 45: after the merge it must be the
    # exact top-1 at sim 1.0
    assert got["vec_id"].to_pylist() == [45]
    assert got["sim"].to_pylist() == [1.0]
