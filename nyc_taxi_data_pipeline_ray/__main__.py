"""CLI entry points — the Airflow-DAG / ops-script surface of the engine.

The reference drives its loop with Airflow DAGs + helper scripts
(`airflow/dags/nyc_taxi_sync_dag.py`, `scripts/*.py`); here the same
operations are one command each:

    python -m nyc_taxi_data_pipeline_ray generate --wal /tmp/wal --epochs 4
    python -m nyc_taxi_data_pipeline_ray apply    --wal /tmp/wal --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray follow   --wal /tmp/wal --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray lag      --wal /tmp/wal --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray compact  --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray snapshot --lake /tmp/lake --out /tmp/snap
    python -m nyc_taxi_data_pipeline_ray metrics  --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray check    --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray fsck     --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray vacuum   --lake /tmp/lake
    python -m nyc_taxi_data_pipeline_ray changes  --lake /tmp/lake --out /tmp/feed
    python -m nyc_taxi_data_pipeline_ray diff     --lake /tmp/lake --out /tmp/d --from-epoch 0
    python -m nyc_taxi_data_pipeline_ray rejects  --lake /tmp/lake --out /tmp/dlq
    python -m nyc_taxi_data_pipeline_ray view-refresh --lake /tmp/lake --view /tmp/view
    python -m nyc_taxi_data_pipeline_ray get      --lake /tmp/lake --conv-id c-42
    python -m nyc_taxi_data_pipeline_ray index-add --index /tmp/idx --docs docs.parquet --segment 0
    python -m nyc_taxi_data_pipeline_ray index-probe --index /tmp/idx --docs new.parquet --out pairs.parquet
    python -m nyc_taxi_data_pipeline_ray index-compact --index /tmp/idx
    python -m nyc_taxi_data_pipeline_ray ann-add --index /tmp/ivf --vectors emb.parquet --segment 0
    python -m nyc_taxi_data_pipeline_ray ann-probe --index /tmp/ivf --queries q.parquet --out topk.parquet

Each command owns its Ray session (guarded init, shutdown on exit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session():
    """Returns (ray, owns_session): only shut down what we started
    (an embedding caller — tests, a notebook — keeps its session)."""
    import ray

    owns = not ray.is_initialized()
    if owns:
        # honor an ambient cluster (`ray job submit` sets RAY_ADDRESS
        # in the job's env); fall back to a throwaway local session
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray, owns


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="nyc_taxi_data_pipeline_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a deterministic synthetic WAL")
    g.add_argument("--wal", required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--conversations", type=int, default=1000)
    g.add_argument("--epochs", type=int, default=4)
    g.add_argument("--events-per-epoch", type=int, default=5000)
    g.add_argument("--zipf", type=float, default=0.0)
    g.add_argument("--evolve-at", type=int, default=None)

    for name, help_ in [
        ("apply", "apply unapplied WAL epochs into the lake"),
        ("follow", "tail the WAL until it goes quiet"),
        ("lag", "report unapplied-epoch lag"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--wal", required=True)
        sp.add_argument("--lake", required=True)
        sp.add_argument("--partitions", type=int, default=16)
        if name == "apply":
            sp.add_argument("--max-epochs", type=int, default=None)
        if name == "follow":
            sp.add_argument("--poll-interval", type=float, default=1.0)
            sp.add_argument("--max-idle-polls", type=int, default=3)
            sp.add_argument(
                "--view",
                default=None,
                help="materialized-view dir to refresh after each apply "
                "(stale partitions only: the streaming-IVM loop)",
            )
            sp.add_argument(
                "--derived",
                default=None,
                help="derived-table dir to refresh after each apply "
                "(changed rows only: the streaming incremental-model loop)",
            )

    for name, help_ in [
        ("compact", "fold delta runs into new base generations"),
        ("metrics", "print monoid-merged lineage counters"),
        ("describe", "print physical lake statistics (footers only)"),
        ("fsck", "audit ledger/file integrity (footers only); exit 1 on real issues"),
        ("vacuum", "delete reclaimable crash remnants (orphans, tmp files)"),
        ("check", "run the transcript data-quality check suite"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--lake", required=True)

    sp = sub.add_parser("snapshot", help="materialize the lake state as Parquet")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument(
        "--as-of-epoch",
        type=int,
        default=None,
        help="time-travel: state as of this epoch's commit group",
    )

    sp = sub.add_parser(
        "changes", help="export the change feed (delta stream) as Parquet"
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--after-epoch", type=int, default=-1)
    sp.add_argument("--through-epoch", type=int, default=None)

    sp = sub.add_parser(
        "diff", help="export before/after images between two snapshots as Parquet"
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--from-epoch", type=int, required=True)
    sp.add_argument("--to-epoch", type=int, default=None)

    sp = sub.add_parser(
        "rejects", help="export the dead-letter feed (with reasons) as Parquet"
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--after-epoch", type=int, default=-1)
    sp.add_argument("--through-epoch", type=int, default=None)

    sp = sub.add_parser(
        "view-refresh",
        help="refresh the incremental per-conversation materialized view",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--view", required=True)

    sp = sub.add_parser(
        "derived-refresh",
        help="refresh the row-level incremental derived table (stock enrichment)",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--table", required=True, help="derived-table directory")

    sp = sub.add_parser(
        "sidx-refresh",
        help="refresh the incremental secondary index over a lake column",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--index", required=True, help="index directory")
    sp.add_argument("--column", default="tool")

    sp = sub.add_parser(
        "sidx-lookup",
        help="row-group-pruned value lookup against a secondary index",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--index", required=True)
    sp.add_argument("--column", default="tool")
    sp.add_argument("--value", required=True, action="append")
    sp.add_argument("--out", required=True)
    sp.add_argument(
        "--stats",
        action="store_true",
        help="also report row-group pruning stats (a second, serial read)",
    )

    sp = sub.add_parser(
        "antientropy",
        help="Merkle-style replica comparison: per-partition digests, "
        "key diff only for mismatched partitions",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--other", required=True, help="replica lake directory")
    sp.add_argument("--out", default=None, help="write the key diff as Parquet")

    sp = sub.add_parser(
        "wal-gc",
        help="delete WAL epoch dirs the lake has fully committed",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--wal", required=True)

    sp = sub.add_parser(
        "reshard",
        help="rewrite the lake at a new partition count (scale-out/in)",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--target", required=True, help="new lake directory")
    sp.add_argument("--partitions", type=int, required=True)

    sp = sub.add_parser(
        "purge",
        help="retention: tombstone keys older than a cutoff through the CDC path",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--wal", required=True, help="WAL dir the tombstone epoch is written to")
    sp.add_argument("--older-than", required=True, help="ISO timestamp cutoff")

    sp = sub.add_parser(
        "checksum",
        help="order-independent 64-bit content checksum of the lake state",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--as-of-epoch", type=int, default=None)

    sp = sub.add_parser(
        "replicate",
        help="export a change-feed window as a WAL epoch for another lake",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out-wal", required=True)
    sp.add_argument("--after-epoch", type=int, default=-1)
    sp.add_argument("--through-epoch", type=int, default=None)
    sp.add_argument(
        "--target-lake",
        default=None,
        help="consuming lake: number the exported epoch past ITS committed "
        "ledger (required for correctness after wal-gc of the feed dir)",
    )

    sp = sub.add_parser("get", help="point lookup: print one conversation's turns")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--conv-id", required=True)

    sp = sub.add_parser(
        "history",
        help="forensic key lineage: every live event for a conversation "
        "with winner flags",
    )
    sp.add_argument("--lake", required=True)
    sp.add_argument("--conv-id", required=True)

    sp = sub.add_parser(
        "index-add", help="index a document batch into the LSH dedup index"
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--docs", required=True, help="parquet with (doc_id, text)")
    sp.add_argument("--segment", type=int, required=True)
    sp.add_argument(
        "--scope-col", default=None,
        help="scoped dedup: candidate pairs must AGREE on this column "
        "(e.g. lang; used only when creating a new index, frozen into "
        "meta.json)",
    )

    sp = sub.add_parser(
        "index-probe", help="near-dup candidates of a batch vs the dedup index"
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--docs", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument(
        "--as-of", type=int, default=None, metavar="SEGMENT",
        help="time-travel probe: the index as it stood after this segment "
        "committed (later adds/tombstones invisible; errors once "
        "compaction folded past it)",
    )

    sp = sub.add_parser(
        "index-ingest",
        help="fused probe+add: near-dups vs earlier segments, then commit",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--docs", required=True, help="parquet with (doc_id, text)")
    sp.add_argument("--segment", type=int, required=True)
    sp.add_argument("--out", required=True, help="parquet for the candidate pairs")
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument(
        "--scope-col", default=None,
        help="scoped dedup: candidate pairs must AGREE on this column (used "
        "only when creating a new index — a cold-start ingest loop must "
        "declare it on its FIRST verb or the index is frozen without one)",
    )

    sp = sub.add_parser(
        "index-delete",
        help="tombstone doc_ids out of the dedup index (CDC delete / "
        "takedown; physical removal at index-compact)",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--ids", required=True, help="parquet with a doc_id column")
    sp.add_argument("--segment", type=int, required=True)

    sp = sub.add_parser(
        "index-compact", help="fold dedup-index segments into a new base"
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "index-describe",
        help="ledger/config snapshot of the dedup index (segments by "
        "kind, fold watermark, on-disk footprint)",
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "index-fsck",
        help="consistency check of the dedup-index ledger (missing run "
        "dirs are fatal; crash leftovers are vacuumable warnings)",
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "index-merge",
        help="import another dedup index's LIVE band rows as one committed "
        "segment (per-shard parallel build / replica federation; configs "
        "must match)",
    )
    sp.add_argument("--index", required=True, help="target index")
    sp.add_argument("--from", dest="from_", required=True, help="source index")
    sp.add_argument("--segment", type=int, required=True)

    sp = sub.add_parser(
        "ann-add", help="index an embedding batch into the persisted IVF index"
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--vectors", required=True, help="parquet with (vec_id, embedding)")
    sp.add_argument("--segment", type=int, required=True)
    sp.add_argument(
        "--ncells", type=int, default=16,
        help="coarse-quantizer cells (used only when creating a new index; "
        "centroids are trained on the batch and frozen into meta.json)",
    )
    sp.add_argument(
        "--attr-col", default=None,
        help="filterable metadata column to store in every cell file (used "
        "only when creating a new index; frozen into meta.json; enables "
        "ann-probe --where)",
    )

    sp = sub.add_parser(
        "ann-probe", help="top-k cosine neighbours from the persisted IVF index"
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--queries", required=True, help="parquet with (vec_id, embedding)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--nprobe", type=int, default=4)
    sp.add_argument(
        "--where",
        default=None,
        metavar="COL=VALUE",
        help="restrict candidates to rows whose stored attr column equals "
        "VALUE (filtered vector search; COL must be the index's attr_col; "
        "VALUE is parsed as int when it looks like one — quote it, e.g. "
        "zone='42', to force a string match against a string column)",
    )
    sp.add_argument(
        "--as-of", type=int, default=None, metavar="SEGMENT",
        help="time-travel probe: the index as it stood after this segment "
        "committed (later adds/tombstones invisible; errors once "
        "compaction folded past it)",
    )

    sp = sub.add_parser(
        "ann-ingest",
        help="fused probe+add: top-k hits vs earlier segments, then commit",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--vectors", required=True, help="parquet with (vec_id, embedding)")
    sp.add_argument("--segment", type=int, required=True)
    sp.add_argument("--out", required=True, help="parquet for the top-k hits")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--nprobe", type=int, default=4)
    sp.add_argument(
        "--ncells", type=int, default=16,
        help="coarse-quantizer cells (used only when creating a new index)",
    )
    sp.add_argument(
        "--attr-col", default=None,
        help="filterable metadata column (used only when creating a new "
        "index — a cold-start ingest loop must declare it on its FIRST "
        "verb or the index is frozen without one)",
    )
    sp.add_argument(
        "--persist-hits", action="store_true",
        help="write the epoch's hits to an _admissions/ sidecar before the "
        "commit, so the admission decision survives later compaction",
    )

    sp = sub.add_parser(
        "ann-delete",
        help="tombstone vec_ids out of the IVF index (CDC delete / "
        "takedown; physical removal at ann-compact)",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--ids", required=True, help="parquet with a vec_id column")
    sp.add_argument("--segment", type=int, required=True)

    sp = sub.add_parser(
        "ann-describe",
        help="ledger/config snapshot of the IVF index (segments by kind, "
        "fold watermark, on-disk footprint, storage tier)",
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "ann-fsck",
        help="consistency check of the IVF-index ledger (missing run "
        "dirs are fatal; crash leftovers are vacuumable warnings)",
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "ann-compact", help="fold IVF-index segments into a new base"
    )
    sp.add_argument("--index", required=True)

    sp = sub.add_parser(
        "ann-merge",
        help="import another IVF index's LIVE vectors as one committed "
        "segment, re-assigned against the target's quantizer (per-shard "
        "parallel build / replica federation; both indexes must exist)",
    )
    sp.add_argument("--index", required=True, help="target index")
    sp.add_argument("--from", dest="from_", required=True, help="source index")
    sp.add_argument("--segment", type=int, required=True)

    sp = sub.add_parser(
        "ann-replay",
        help="recover a committed epoch's persisted admission hits "
        "(_admissions/epoch-N.parquet) — works even after compaction "
        "folded the epoch's probe view away",
    )
    sp.add_argument("--index", required=True)
    sp.add_argument("--segment", type=int, required=True)
    sp.add_argument("--out", required=True, help="parquet for the recovered hits")

    args = p.parse_args(argv)

    if args.cmd == "generate":
        from nyc_taxi_data_pipeline_ray.sources.generator import WalGenerator, WalSpec

        spec = WalSpec(
            seed=args.seed,
            num_conversations=args.conversations,
            num_epochs=args.epochs,
            events_per_epoch=args.events_per_epoch,
            zipf_s=args.zipf,
            evolve_at_epoch=args.evolve_at,
        )
        dirs = WalGenerator(spec).write(args.wal)
        print(json.dumps({"wal": args.wal, "epochs": len(dirs)}))
        return 0

    ray, owns_session = _ray_session()
    try:
        if args.cmd.startswith("index-"):
            import pyarrow as pa
            import pyarrow.parquet as pq
            import ray.data as rd

            from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex

            if args.cmd not in ("index-add", "index-ingest"):
                # opening a MinHashIndex CREATES it when missing — only
                # add/ingest may do that; a mistyped path anywhere else
                # would become a new index (or, as a merge source,
                # silently merge nothing)
                merge = args.cmd == "index-merge"
                for path in [args.index] + ([args.from_] if merge else []):
                    if not os.path.exists(os.path.join(path, "meta.json")):
                        print(json.dumps({"error": f"no dedup index at {path!r}"}))
                        return 1
            idx = MinHashIndex(
                args.index, scope_col=getattr(args, "scope_col", None)
            )
            # a scoped index stores its scope column in every bucket file —
            # the read must not prune it away
            doc_cols = ["doc_id", "text"] + (
                [idx.scope_col] if idx.scope_col else []
            )
            if args.cmd == "index-add":
                docs = rd.read_parquet(args.docs, columns=doc_cols)
                print(json.dumps(idx.add(docs, segment_id=args.segment)))
            elif args.cmd == "index-probe":
                docs = rd.read_parquet(args.docs, columns=doc_cols)
                pairs = idx.probe(
                    docs, threshold=args.threshold, as_of_segment=args.as_of
                )
                pq.write_table(pa.Table.from_pandas(pairs, preserve_index=False), args.out)
                print(json.dumps({"out": args.out, "pairs": len(pairs)}))
            elif args.cmd == "index-ingest":
                docs = rd.read_parquet(args.docs, columns=doc_cols)
                pairs, rep = idx.probe_and_add(
                    docs, segment_id=args.segment, threshold=args.threshold
                )
                pq.write_table(pa.Table.from_pandas(pairs, preserve_index=False), args.out)
                print(json.dumps({**rep, "out": args.out, "pairs": len(pairs)}))
            elif args.cmd == "index-delete":
                ids = pq.read_table(args.ids, columns=["doc_id"])["doc_id"]
                print(
                    json.dumps(
                        idx.delete(
                            ids.to_numpy(zero_copy_only=False), segment_id=args.segment
                        )
                    )
                )
            elif args.cmd == "index-describe":
                print(json.dumps(idx.describe()))
            elif args.cmd == "index-fsck":
                rep = idx.fsck()
                print(json.dumps(rep))
                return 0 if rep["ok"] else 1
            elif args.cmd == "index-merge":
                src = MinHashIndex(args.from_)
                print(json.dumps(idx.merge_from(src, segment_id=args.segment)))
            else:
                print(json.dumps(idx.compact()))
            return 0

        if args.cmd.startswith("ann-"):
            import numpy as np
            import pyarrow as pa
            import pyarrow.parquet as pq
            import ray.data as rd

            from nyc_taxi_data_pipeline_ray.state.ann_index import (
                IvfIndex,
                kmeans_lite,
                normalize_rows,
            )

            if args.cmd in ("ann-add", "ann-ingest") and not os.path.exists(
                os.path.join(args.index, "meta.json")
            ):
                sample = pq.read_table(
                    args.vectors, columns=["embedding"]
                )["embedding"].to_numpy(zero_copy_only=False)[:2000]
                if not len(sample):
                    print(
                        json.dumps(
                            {
                                "error": f"{args.vectors} has no rows: cannot "
                                "train the coarse quantizer for a new index"
                            }
                        )
                    )
                    return 1
                cent = kmeans_lite(
                    normalize_rows(np.stack(sample).astype(np.float64)), args.ncells
                )
                idx = IvfIndex(
                    args.index,
                    centroids=cent,
                    attr_col=getattr(args, "attr_col", None),
                )
            else:
                try:
                    idx = IvfIndex(args.index)
                    if args.cmd == "ann-merge":
                        src = IvfIndex(args.from_)
                except FileNotFoundError as e:
                    print(json.dumps({"error": str(e)}))
                    return 1
            # an attr-declared index stores its metadata column in every
            # cell file — the read must not prune it away
            vec_cols = ["vec_id", "embedding"] + (
                [idx.attr_col] if idx.attr_col else []
            )
            if args.cmd == "ann-add":
                vecs = rd.read_parquet(args.vectors, columns=vec_cols)
                print(json.dumps(idx.add(vecs, segment_id=args.segment)))
            elif args.cmd == "ann-ingest":
                vecs = rd.read_parquet(args.vectors, columns=vec_cols)
                df, rep = idx.probe_and_add(
                    vecs,
                    segment_id=args.segment,
                    k=args.k,
                    nprobe=args.nprobe,
                    persist_hits=args.persist_hits,
                )
                pq.write_table(pa.Table.from_pandas(df, preserve_index=False), args.out)
                print(json.dumps({**rep, "out": args.out, "hits": len(df)}))
            elif args.cmd == "ann-replay":
                df = idx.load_hits(args.segment)
                if df is None:
                    print(
                        json.dumps(
                            {
                                "error": f"no persisted hits for segment {args.segment}"
                                " (ingest it with --persist-hits)",
                            }
                        )
                    )
                    return 1
                pq.write_table(pa.Table.from_pandas(df, preserve_index=False), args.out)
                print(json.dumps({"segment": args.segment, "out": args.out, "hits": len(df)}))
            elif args.cmd == "ann-probe":
                qt = pq.read_table(args.queries, columns=["vec_id", "embedding"])
                qids = qt["vec_id"].to_numpy(zero_copy_only=False)
                qmat = normalize_rows(
                    np.stack(qt["embedding"].to_numpy(zero_copy_only=False)).astype(
                        np.float64
                    )
                )
                where = None
                if args.where:
                    col, _, raw = args.where.partition("=")
                    val: object = raw
                    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
                        # quoted VALUE: a string-typed attr whose values
                        # look numeric (zone='42') would otherwise be
                        # coerced to int and silently match nothing
                        val = raw[1:-1]
                    else:
                        try:
                            val = int(raw)
                        except ValueError:
                            pass
                    where = (col, val)
                df, stats = idx.probe(
                    qids,
                    qmat,
                    k=args.k,
                    nprobe=args.nprobe,
                    where=where,
                    as_of_segment=args.as_of,
                )
                pq.write_table(pa.Table.from_pandas(df, preserve_index=False), args.out)
                print(json.dumps({"out": args.out, "rows": len(df), **stats}))
            elif args.cmd == "ann-delete":
                ids = pq.read_table(args.ids, columns=["vec_id"])["vec_id"]
                print(
                    json.dumps(
                        idx.delete(
                            ids.to_numpy(zero_copy_only=False), segment_id=args.segment
                        )
                    )
                )
            elif args.cmd == "ann-describe":
                print(json.dumps(idx.describe()))
            elif args.cmd == "ann-fsck":
                rep = idx.fsck()
                print(json.dumps(rep))
                return 0 if rep["ok"] else 1
            elif args.cmd == "ann-merge":
                print(json.dumps(idx.merge_from(src, segment_id=args.segment)))
            else:
                print(json.dumps(idx.compact()))
            return 0

        from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig

        if args.cmd in ("apply", "follow", "lag"):
            eng = CdcEngine(
                LakeConfig.open_or_create(args.lake, num_partitions=args.partitions)
            )
        else:
            eng = CdcEngine(LakeConfig.load(args.lake))

        if args.cmd == "apply":
            rep = eng.apply(args.wal, max_epochs=args.max_epochs)
            print(
                json.dumps(
                    {
                        "epochs": rep.epochs,
                        "rows_in": rep.rows_in,
                        "upserts": rep.upserts,
                        "deletes": rep.deletes,
                        "rejects": rep.rejects,
                        "seconds": round(rep.seconds, 3),
                    }
                )
            )
        elif args.cmd == "follow":
            mv = None
            if args.view:
                from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

                mv = MaterializedView(eng, args.view)
            dt = None
            if args.derived:
                from nyc_taxi_data_pipeline_ray.state.derived import (
                    DerivedTable,
                    enrich_turns,
                )

                dt = DerivedTable(eng, args.derived, enrich_turns)

            def on_apply(r):
                line = {"applied": r.epochs, "rows_in": r.rows_in}
                if mv is not None:
                    line["view"] = mv.refresh()
                if dt is not None:
                    line["derived"] = dt.refresh()
                print(json.dumps(line), flush=True)

            reports = eng.follow(
                args.wal,
                poll_interval_s=args.poll_interval,
                max_idle_polls=args.max_idle_polls,
                on_apply=on_apply,
            )
            print(json.dumps({"applies": len(reports), "lag": eng.lag(args.wal)}))
        elif args.cmd == "lag":
            print(json.dumps(eng.lag(args.wal)))
        elif args.cmd == "compact":
            print(json.dumps({"compacted_partitions": eng.compact()}))
        elif args.cmd == "metrics":
            print(json.dumps(eng.metrics()))
        elif args.cmd == "describe":
            print(json.dumps(eng.describe()))
        elif args.cmd == "fsck":
            rep = eng.fsck()
            print(json.dumps(rep))
            return 0 if rep["ok"] else 1
        elif args.cmd == "vacuum":
            print(json.dumps(eng.vacuum()))
        elif args.cmd == "check":
            from nyc_taxi_data_pipeline_ray.stages import checks as ck

            rep = ck.run_checks(eng.snapshot(), ck.transcript_checks())
            print(json.dumps(rep))
            return 0 if rep["passed"] else 1
        elif args.cmd == "snapshot":
            rep = eng.export_snapshot(args.out, as_of_epoch=args.as_of_epoch)
            print(json.dumps({"out": args.out, **rep}))
        elif args.cmd == "changes":
            eng.changes(
                after_epoch=args.after_epoch, through_epoch=args.through_epoch
            ).write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "diff":
            eng.diff(
                from_epoch=args.from_epoch, to_epoch=args.to_epoch
            ).write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "rejects":
            eng.rejects(
                after_epoch=args.after_epoch, through_epoch=args.through_epoch
            ).write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "view-refresh":
            from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

            print(json.dumps(MaterializedView(eng, args.view).refresh()))
        elif args.cmd == "derived-refresh":
            from nyc_taxi_data_pipeline_ray.state.derived import (
                DerivedTable,
                enrich_turns,
            )

            print(json.dumps(DerivedTable(eng, args.table, enrich_turns).refresh()))
        elif args.cmd == "replicate":
            tgt = (
                CdcEngine(LakeConfig.load(args.target_lake))
                if args.target_lake
                else None
            )
            ep = eng.export_changes_as_wal(
                args.out_wal,
                after_epoch=args.after_epoch,
                through_epoch=args.through_epoch,
                target=tgt,
            )
            print(json.dumps({"out_wal": args.out_wal, "epoch": ep}))
        elif args.cmd in ("sidx-refresh", "sidx-lookup"):
            from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

            sidx = SecondaryIndex(eng, args.index, args.column)
            if args.cmd == "sidx-refresh":
                print(json.dumps(sidx.refresh()))
            else:
                # materialize once (lookup results are hit-sized): the
                # write and the hit count share one distributed read
                # instead of lookup() + a full serial lookup_stats() re-scan
                hits = sidx.lookup(args.value).materialize()
                hits.write_parquet(args.out)
                rep = {"out": args.out, "hits": hits.count()}
                if args.stats:
                    rep |= sidx.lookup_stats(args.value)
                print(json.dumps(rep))
        elif args.cmd == "antientropy":
            other = CdcEngine(LakeConfig.load(args.other))
            d = eng.antientropy_diff(other)
            if args.out:
                import pyarrow.parquet as _pq

                os.makedirs(args.out, exist_ok=True)
                _pq.write_table(d, os.path.join(args.out, "diff.parquet"))
            print(
                json.dumps(
                    {
                        "diverged_keys": d.num_rows,
                        "in_sync": d.num_rows == 0,
                        **({"out": args.out} if args.out else {}),
                    }
                )
            )
        elif args.cmd == "wal-gc":
            print(json.dumps(eng.wal_gc(args.wal)))
        elif args.cmd == "reshard":
            eng2 = eng.reshard(args.target, args.partitions)
            print(
                json.dumps(
                    {
                        "target": args.target,
                        "partitions": args.partitions,
                        "checksum_match": eng2.checksum() == eng.checksum(),
                    }
                )
            )
        elif args.cmd == "checksum":
            print(json.dumps(eng.checksum(as_of_epoch=args.as_of_epoch)))
        elif args.cmd == "purge":
            epoch, rep = eng.purge(args.wal, older_than=args.older_than)
            print(
                json.dumps(
                    {
                        "tombstone_epoch": epoch,
                        "deletes": rep.deletes,
                        "rows_in": rep.rows_in,
                    }
                )
            )
        elif args.cmd == "get":
            t = eng.get_conversation(args.conv_id)
            print(json.dumps({"conv_id": args.conv_id, "turns": t.num_rows}))
            for row in t.to_pylist():
                print(json.dumps(row, default=str))
        elif args.cmd == "history":
            t = eng.key_history(args.conv_id)
            print(json.dumps({"conv_id": args.conv_id, "events": t.num_rows}))
            for row in t.to_pylist():
                print(json.dumps(row, default=str))
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
