"""Persisted, incrementally-updatable MinHash/LSH dedup index.

The CDC-native completion of the batch near-dup pipeline
(pipelines/text.py q_minhash_near_dups): a training-data ingest loop
receives documents EPOCH BY EPOCH and must dedup each arrival against
everything already accepted — re-running the batch join over the full
corpus per epoch is O(corpus) each time.  This index makes the step
O(new docs): signatures of accepted docs are persisted once, as banded
LSH rows hash-partitioned into bucket files, and a probe reads only
the bucket files its own band hashes touch.

Payload under ``path/`` (the segments, bases, tombstones, commit log and
admission sidecars around it are :mod:`state.segment_ledger`'s):

- ``meta.json``                     write-once hash params, so every
                                    opener agrees on num_perm/bands
- ``*/bucket=BB.parquet``           band rows (band, band_hash, doc_id,
                                    sig[, scope]) whose band hash falls
                                    in bucket BB

Scale notes: update is a single bounded shuffle of the NEW docs' band
rows (num_buckets files); probe is partition-pruned to the probe set's
buckets and each bucket task's work is its fine-group pair expansion —
the same bounded-bucket containment as the batch pipeline.  Segments
accumulate per epoch; :meth:`MinHashIndex.compact` folds them (concat
per bucket across segments) when file counts grow, and the read path
merges live segments either way.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray.pipelines.text import (
    cached_minhasher,
    group_sizes_by_boundary,
    ragged_pair_indices,
)
from nyc_taxi_data_pipeline_ray.state.segment_ledger import SegmentLedger, read_live_part

PAIR_SCHEMA = pa.schema(
    [
        ("probe_doc", pa.int64()),
        ("indexed_doc", pa.int64()),
        ("est_jaccard", pa.float64()),
    ]
)


def _band_rows(
    t: pa.Table, *, num_perm: int, bands: int, num_buckets: int,
    scope_col: str | None = None,
) -> pa.Table:
    """(doc_id, text) batch -> banded LSH rows with shuffle bucket.
    Same band hash as the batch pipeline (polynomial combine seeded by
    band id), so index hits reproduce the batch join's candidates.
    With ``scope_col`` the column rides along (tiled per band) so probes
    can require pair-wise scope equality (per-language/domain dedup)."""
    mh = cached_minhasher(num_perm)
    rows_per_band = num_perm // bands
    sig = np.stack([mh.signature(s) for s in t["text"].to_pylist()])
    n = sig.shape[0]
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    band_ids, doc_idx, band_hash = [], [], []
    for b in range(bands):
        chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
        bh = np.full(n, b + 1, dtype=np.uint64)
        for c in range(chunk.shape[1]):
            bh = bh * np.uint64(1000003) + chunk[:, c].astype(np.uint64)
        band_ids.append(np.full(n, b, np.int32))
        doc_idx.append(doc)
        band_hash.append(bh.astype(np.int64))
    bh_all = np.concatenate(band_hash)
    cols = {
        "bucket": pa.array((bh_all.view(np.uint64) % num_buckets).astype(np.int32)),
        "band": pa.array(np.concatenate(band_ids)),
        "band_hash": pa.array(bh_all),
        "doc_id": pa.array(np.concatenate(doc_idx)),
        "sig": pa.array(list(np.tile(sig, (bands, 1)).astype(np.int64))),
    }
    if scope_col is not None:
        if scope_col not in t.column_names:
            raise KeyError(
                f"index declares scope_col={scope_col!r} but the batch "
                f"has columns {t.column_names}"
            )
        # same band-major layout as doc_id (band 0's docs, band 1's, ...)
        cols[scope_col] = pa.array(
            np.tile(t[scope_col].to_numpy(zero_copy_only=False), bands)
        )
    return pa.table(cols)


class MinHashIndex:
    # the band-row layout owns these names; a scope column may not shadow them
    _RESERVED = ("bucket", "band", "band_hash", "doc_id", "sig", "text")

    def __init__(
        self,
        path: str,
        *,
        num_perm: int = 64,
        bands: int = 16,
        num_buckets: int = 64,
        scope_col: str | None = None,
    ):
        self.path = path
        os.makedirs(path, exist_ok=True)
        # the segment protocol; this class keeps only the band-row payload
        self.ledger = SegmentLedger(
            path, key="bucket", key_digits=2, id_col="doc_id", hits_schema=PAIR_SCHEMA
        )
        meta_path = os.path.join(path, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            self.num_perm = int(meta["num_perm"])
            self.bands = int(meta["bands"])
            self.num_buckets = int(meta["num_buckets"])
            self.scope_col = meta.get("scope")
        else:
            if scope_col in self._RESERVED:
                raise ValueError(
                    f"scope_col {scope_col!r} collides with a band-row column"
                )
            self.num_perm, self.bands, self.num_buckets = num_perm, bands, num_buckets
            self.scope_col = scope_col
            nio.commit_json(
                meta_path,
                {
                    "num_perm": num_perm,
                    "bands": bands,
                    "num_buckets": num_buckets,
                    # scoped dedup: candidate pairs must AGREE on this
                    # column (per-language/domain dedup) — declared once,
                    # stored in every bucket file, enforced in every probe
                    "scope": scope_col,
                },
            )

    # ---------------------------------------------------------------- ledger
    def segments(self) -> list[int]:
        """Every committed segment id, INCLUDING ones folded into a
        base — the log keeps them (idempotent add needs them)."""
        return self.ledger.segments()

    def describe(self) -> dict:
        """Operational snapshot (see :meth:`SegmentLedger.describe`)
        plus this index's frozen configuration."""
        return {
            **self.ledger.describe(),
            "num_perm": self.num_perm,
            "bands": self.bands,
            "num_buckets": self.num_buckets,
            "scope_col": self.scope_col,
        }

    def fsck(self) -> dict:
        """Ledger consistency check — see :meth:`SegmentLedger.fsck`."""
        return self.ledger.fsck()

    # ---------------------------------------------------------------- delete
    def delete(self, doc_ids, segment_id: int) -> dict:
        """Commit a tombstone segment: ``doc_ids`` stop appearing as
        ``indexed_doc`` in probes against rows indexed at EARLIER
        segments (CDC delete / retention / takedown propagated into the
        dedup index).  A later ``add`` of the same doc resurrects it —
        segment order is the CDC order.  Idempotent on segment_id, same
        ledger as :meth:`add`; physical removal happens at
        :meth:`compact`.  ``doc_ids`` is an id array, not a Dataset —
        deletion lists are metadata-scale.

        A replay is only skipped when ``segment_id`` was committed as
        the SAME tombstone set; a collision with a prior ADD (or a
        delete of different ids) raises instead of silently reporting
        ``skipped`` (see :meth:`SegmentLedger.delete`)."""
        return self.ledger.delete(doc_ids, segment_id)

    # --------------------------------------------------------------- compact
    def vacuum(self) -> dict:
        """Remove run DIRECTORIES already folded into the newest base,
        plus a crashed compact's partial output — see
        :meth:`SegmentLedger.vacuum`."""
        return self.ledger.vacuum()

    def compact(self) -> dict:
        """Fold the base + all live segments into one new base
        generation, bucket by bucket in parallel Ray tasks (the LSM
        step: probe read amplification goes back to one file per
        bucket).  The checkpoint keeps the folded segment ids, so
        ``add()`` stays idempotent for them; only their parquet is
        removed.  Idempotent: generation = prior + 1, committed by its
        checkpoint, and a crash before the checkpoint leaves the old
        runs authoritative.  Starts with a :meth:`vacuum` so a previously
        crashed compact's orphans are reclaimed first."""
        r = self.ledger.compact(fold_lone_segment=True)
        if not r["folded"]:
            reason = "single base, no live segments" if r["runs"] else "empty index"
            return {"compacted": False, "reason": reason}
        return {
            "compacted": True,
            "generation": r["generation"],
            "through_segment": r["through_segment"],
        }

    # ------------------------------------------------------------------- add
    def _band_rows_of(self, docs: rd.Dataset) -> rd.Dataset:
        num_perm, bands, nb = self.num_perm, self.bands, self.num_buckets
        scope = self.scope_col
        return docs.map_batches(
            lambda t: _band_rows(
                t, num_perm=num_perm, bands=bands, num_buckets=nb, scope_col=scope
            ),
            batch_format="pyarrow",
        )

    def add(self, docs: rd.Dataset, segment_id: int) -> dict:
        """Index a new document batch as one committed segment.
        Idempotent on segment_id (replay-safe for epoch-driven callers).
        A replayed id committed as a TOMBSTONE segment raises (a skip
        would silently drop the documents), as does an uncommitted id
        at or below the fold watermark (its dir would be invisible to
        every reader — live runs are ``s > through``)."""
        if self.ledger.committed(segment_id):
            return {"segment": segment_id, "skipped": True}
        return self._commit(self._band_rows_of(docs), segment_id)

    def _commit(self, rows: rd.Dataset | None, segment_id: int) -> dict:
        bands = self.bands
        n = self.ledger.commit_rows(
            rows, segment_id, lambda n: {"band_rows": n, "docs": n // bands}
        )
        return {"segment": segment_id, "skipped": False, "docs": n // bands}

    # ----------------------------------------------------------------- merge
    def merge_from(self, other: "MinHashIndex", segment_id: int) -> dict:
        """Import OTHER's current LIVE band rows as one committed
        segment of THIS index — index federation: after ``cdc_replicate``
        (or a per-shard parallel build) merge the source's index instead
        of re-hashing its corpus.  Band rows are config-specific, so the
        two indexes must agree on (num_perm, bands, num_buckets,
        scope_col); rows are imported VERBATIM — no signature recompute,
        and bucket routing is identical by construction.  The source's
        tombstones are applied at read time; the imported docs enter
        THIS index's CDC order at ``segment_id`` (their original add
        order in OTHER does not survive).  Idempotent on ``segment_id``
        like :meth:`add`.  Single-writer on BOTH indexes is assumed: a
        concurrent ``compact()`` of OTHER mid-merge can surface as
        FileNotFoundError — re-run the merge against the settled view."""
        ours = (self.num_perm, self.bands, self.num_buckets, self.scope_col)
        theirs = (other.num_perm, other.bands, other.num_buckets, other.scope_col)
        if ours != theirs:
            raise ValueError(
                f"index configs differ: this (num_perm, bands, num_buckets, "
                f"scope_col) = {ours}, source = {theirs}; band rows are "
                "only portable between identical configurations"
            )
        if self.ledger.committed(segment_id):
            return {"segment": segment_id, "skipped": True}
        # stored bucket files drop the 'bucket' column (it lives in the
        # filename); with_key restores it so the commit can re-group
        return self._commit(other.ledger.read_live(with_key=True), segment_id)

    # ----------------------------------------------------------------- probe
    def probe(
        self,
        docs: rd.Dataset,
        *,
        threshold: float = 0.5,
        as_of_segment: int | None = None,
    ) -> pd.DataFrame:
        """Near-dup candidates of the probe docs against EVERY committed
        segment: (probe_doc, indexed_doc, est_jaccard >= threshold).
        Reads only the bucket files the probe's band hashes touch.
        ``as_of_segment=N`` probes the index as it stood after segment
        ``N`` committed (later adds/tombstones invisible; raises once a
        compact has folded past ``N``) — index-level time travel.

        Each bucket task enumerates fine-group pairs with the batch
        pipeline's ragged expansion and keeps cross-side ones; a
        searchsorted probe->stored merge would avoid the stored-stored
        expansion for pathologically hot clusters — not needed at the
        fine-group sizes LSH produces.

        Reader-vs-compactor: a concurrent ``compact()`` removes folded
        run dirs only AFTER the new base's checkpoint lands, so a probe that
        raced it (a pre-listed dir vanished mid-read) re-lists once and
        reads a consistent newer view — the same one-retry idiom as
        :meth:`IvfIndex.probe`."""

        def read(run_dirs: list[str]) -> pd.DataFrame:
            if not run_dirs:
                return self.ledger.empty_hits()
            return self._probe_band_rows(self._band_rows_of(docs), threshold, run_dirs)

        return self.ledger.read_view(read, as_of_segment)

    def probe_and_add(
        self,
        docs: rd.Dataset,
        segment_id: int,
        *,
        threshold: float = 0.5,
        persist_hits: bool = False,
    ) -> tuple[pd.DataFrame, dict]:
        """The ingest-loop primitive, fused: probe ``docs`` against the
        STRICTLY-EARLIER committed segments (id < segment_id), then
        commit them as ``segment_id`` — the band rows are computed ONCE
        (materialized; they are epoch-sized — num_perm ints per doc —
        never corpus-sized) instead of once for the probe and again for
        the add.  Probing only earlier segments makes a replay return
        exactly the candidates the first attempt returned (the batch
        never matches itself), so callers can treat
        (candidates, report) as a deterministic function of the WAL
        epoch.

        Compaction interplay: once a ``compact()`` folds past
        ``segment_id``, the strictly-earlier view is gone.  With
        ``persist_hits=True`` the epoch's candidates are written to an
        ``_admissions/epoch-N.parquet`` sidecar BEFORE the segment's
        record, so any replay — folded or not — returns the original
        candidates verbatim (``report["replayed_hits"]`` marks them).
        The sidecar records its probe threshold: a FOLDED replay
        returns the recorded decision regardless of the per-call
        ``threshold`` (the original view is gone), while an UNfolded
        replay with a different threshold re-probes fresh to honor the
        caller's.  Replaying a committed epoch with ``persist_hits=
        True`` backfills a missing sidecar from the deterministic
        re-probe (``report["hits_persisted"]``).
        Without the sidecar, a replay of an epoch that was ALREADY
        COMMITTED before the fold returns ``(empty, {"skipped": True,
        "folded": True})`` — the commit is safe to skip, but the
        original candidates are not reproducible.  An UNcommitted
        ``segment_id`` at or below the fold watermark raises: its
        segment dir would be invisible to every reader (live runs are
        ``s > through``), silently losing the documents."""
        return self.ledger.probe_and_add(
            segment_id,
            params={"threshold": threshold},
            persist_hits=persist_hits,
            prepare=lambda: self._band_rows_of(docs).materialize(),
            probe=lambda rows, run_dirs: self._probe_band_rows(rows, threshold, run_dirs),
            commit=lambda rows: self._commit(rows, segment_id),
        )

    def _probe_band_rows(
        self, probe_rows: rd.Dataset, threshold: float, run_dirs: list[str]
    ) -> pd.DataFrame:
        segs, tombs = self.ledger.view(run_dirs)
        scope_name = self.scope_col

        def match_bucket(g: pa.Table) -> pa.Table:
            b = int(g["bucket"][0].as_py())
            # tombstone exclusion: a LATER delete segment kills a run's
            # rows (delete-then-re-add resurrects; see delete); a run
            # dir folded away mid-probe raises for the caller's retry
            name = f"bucket={b:02d}.parquet"
            stored = [
                part
                for d, seg in zip(run_dirs, segs)
                for part in [read_live_part(os.path.join(d, name), seg, tombs, "doc_id")]
                if part is not None
            ]
            if not stored:
                return PAIR_SCHEMA.empty_table()
            st = pa.concat_tables(stored)
            band = np.concatenate(
                [st["band"].to_numpy(zero_copy_only=False), g["band"].to_numpy(zero_copy_only=False)]
            )
            bh = np.concatenate(
                [
                    st["band_hash"].to_numpy(zero_copy_only=False),
                    g["band_hash"].to_numpy(zero_copy_only=False),
                ]
            )
            ids = np.concatenate(
                [st["doc_id"].to_numpy(zero_copy_only=False), g["doc_id"].to_numpy(zero_copy_only=False)]
            )
            sig = np.concatenate(
                [
                    np.stack(st["sig"].to_numpy(zero_copy_only=False)),
                    np.stack(g["sig"].to_numpy(zero_copy_only=False)),
                ]
            )
            side = np.concatenate(
                [np.zeros(st.num_rows, np.int8), np.ones(g.num_rows, np.int8)]
            )
            sc = (
                np.concatenate(
                    [
                        st[scope_name].to_numpy(zero_copy_only=False),
                        g[scope_name].to_numpy(zero_copy_only=False),
                    ]
                )
                if scope_name is not None
                else None
            )
            order = np.lexsort((ids, side, bh, band))
            band, bh, ids, sig, side = (
                band[order], bh[order], ids[order], sig[order], side[order],
            )
            if sc is not None:
                sc = sc[order]
            sizes = group_sizes_by_boundary(band, bh)
            ia, ib = ragged_pair_indices(sizes)
            if not len(ia):
                return PAIR_SCHEMA.empty_table()
            cross = side[ia] != side[ib]
            if sc is not None:
                # scoped dedup: a candidate pair must AGREE on the scope
                # column (e.g. same language) — enforced before scoring
                cross &= sc[ia] == sc[ib]
            ia, ib = ia[cross], ib[cross]
            if not len(ia):
                return PAIR_SCHEMA.empty_table()
            est = (sig[ia] == sig[ib]).mean(axis=1)
            keep = est >= threshold
            ia, ib, est = ia[keep], ib[keep], est[keep]
            # orient: probe doc first (side==1)
            pd_ = np.where(side[ia] == 1, ids[ia], ids[ib])
            ix = np.where(side[ia] == 1, ids[ib], ids[ia])
            return pa.table(
                {
                    "probe_doc": pa.array(pd_, pa.int64()),
                    "indexed_doc": pa.array(ix, pa.int64()),
                    "est_jaccard": pa.array(np.round(est, 4), pa.float64()),
                }
            )

        df = (
            probe_rows.groupby("bucket")
            .map_groups(match_bucket, batch_format="pyarrow")
            .to_pandas()
        )
        if df.empty:
            return self.ledger.empty_hits()
        df = (
            df.drop_duplicates(["probe_doc", "indexed_doc"], ignore_index=True)
            .sort_values(["probe_doc", "indexed_doc"], ignore_index=True)
        )
        return df
