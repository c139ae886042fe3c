"""Persisted, incrementally-updatable IVF index over embeddings.

The similarity-search analog of :mod:`state.dedup_index` (both compose
one :class:`~state.segment_ledger.SegmentLedger`): a training-data loop
receives embeddings EPOCH BY EPOCH and must serve "nearest accepted
neighbours" probes against everything already indexed.  The batch pipelines
(``pipelines/ann.py q_ann_ivf/q_ann_lsh``) rescan the FULL corpus per
query batch — fine for one-off jobs, O(corpus) per probe forever.  This
index persists the IVF cell assignment once, so:

- ``add()``      is O(new vectors): assign to cells via the broadcast
                 coarse quantizer, one bounded groupby exchange, one
                 parquet file per touched cell;
- ``probe()``    is O(probed cells): reads ONLY the ``nprobe`` nearest
                 cells' files per query batch (partition pruning by
                 filename), never the other ``ncells - nprobe`` cells;
- ``compact()``  folds segments per cell when file counts grow (LSM).

Payload under ``path/`` (the segments, bases, tombstones, commit log and
admission sidecars around it are :mod:`state.segment_ledger`'s):

- ``meta.json``                 write-once params INCLUDING the trained
                                centroids, so every opener quantizes
                                identically (an IVF index is only valid
                                under one fixed coarse quantizer)
- ``*/cell=CCCC.parquet``       the vectors assigned to cell CCCC:
                                ``vec_id``, then ``embedding`` (raw tier)
                                or ``codes`` (+ ``embedding`` with PQ
                                refine), plus the ``attr_col`` column;
                                a base's cell files are sorted by vec_id

Exactness: probing ALL cells (``nprobe == ncells``) visits every stored
vector exactly once, so it reproduces brute-force top-k bit for bit
(same rounding and tie order as ``q_ann_bruteforce``) — the driver-
checkable witness configuration.  Production probes trade recall for
the O(probed cells) read, measured in tests against brute force.

Reference analog: none (the reference has no vector surface); the shape
follows the public IVF literature (Jegou et al., "Product Quantization
for Nearest Neighbor Search", the inverted-file half) re-expressed as
Ray Data stages over partitioned parquet.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray.state.segment_ledger import SegmentLedger, dead_mask

TOPK_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("vec_id", pa.int64()),
        ("sim", pa.float64()),
    ]
)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm (zero rows stay zero) — the one
    canonicalization behind cell assignment, PQ encoding and probes."""
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n == 0, 1.0, n)


def kmeans_lite(sample: np.ndarray, ncells: int, iters: int = 8, seed: int = 7) -> np.ndarray:
    """Spherical k-means centroids (cosine, on unit-normalized rows) for
    the IVF coarse quantizer, trained on a driver-side sample: a few
    thousand vectors fit the driver at any corpus size."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=ncells, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)  # cosine on normalized rows
        for c in range(ncells):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-30)
    return cent


def _sort_by_vec_id(t: pa.Table) -> pa.Table:
    return t.sort_by([("vec_id", "ascending")])


def _pq_encode_with(m: np.ndarray, books: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Nearest sub-centroid per subspace (L2, via the standard
    argmax(2<x,c> - |c|^2) identity).  Module-level so map_batches
    closures can capture (books, dtype) alone — capturing a bound
    method would serialize the whole index (centroids + codebooks)
    into every task on top of the locals."""
    msub, _kc, dsub = books.shape
    codes = np.empty((len(m), msub), dtype)
    for j in range(msub):
        sub = m[:, j * dsub : (j + 1) * dsub]
        c = books[j]
        codes[:, j] = np.argmax(2 * (sub @ c.T) - (c * c).sum(1)[None, :], axis=1)
    return codes


class IvfIndex:
    """Bucket-partitioned persisted IVF index with an ``add / probe /
    compact`` lifecycle.  ``centroids`` are required at creation (train
    them on any sample, e.g. :func:`kmeans_lite`) and are
    frozen into ``meta.json``; reopening ignores the argument."""

    # the cell-file layout owns these names; attr_col may not shadow them
    _RESERVED = ("cell", "vec_id", "embedding", "codes")

    def __init__(
        self,
        path: str,
        *,
        centroids: np.ndarray | None = None,
        pq_books: np.ndarray | None = None,
        pq_refine: bool = False,
        attr_col: str | None = None,
    ):
        self.path = path
        # the segment protocol; this class keeps only the vector payload
        self.ledger = SegmentLedger(
            path, key="cell", key_digits=4, id_col="vec_id", hits_schema=TOPK_SCHEMA
        )
        meta_path = os.path.join(path, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            self.centroids = normalize_rows(np.asarray(meta["centroids"], np.float64))
            pq_meta = meta.get("pq")  # local name must not shadow pyarrow.parquet
            self.pq_books = (
                np.asarray(pq_meta["books"], np.float64) if pq_meta is not None else None
            )
            self.pq_refine = bool(pq_meta["refine"]) if pq_meta is not None else False
            self.attr_col = meta.get("attr")
        else:
            if centroids is None:
                # read-only open of a path that was never created: fail
                # WITHOUT the makedirs side effect (a mistyped ann-probe
                # path must not leave an empty dir behind)
                raise FileNotFoundError(
                    f"no IvfIndex at {path!r} (meta.json missing); "
                    "pass trained centroids to create one"
                )
            self.centroids = normalize_rows(np.asarray(centroids, np.float64))
            self.pq_books = (
                np.asarray(pq_books, np.float64) if pq_books is not None else None
            )
            self.pq_refine = bool(pq_refine) and self.pq_books is not None
            if attr_col in self._RESERVED:
                # attr_col='cell' would let assign() overwrite the computed
                # cell ids with user data (vectors land in files probes
                # never read); 'codes'/'embedding' shadow the storage tiers
                raise ValueError(
                    f"attr_col {attr_col!r} collides with a cell-file column"
                )
            self.attr_col = attr_col
            if self.pq_books is not None:
                msub, _kc, dsub = self.pq_books.shape
                if msub * dsub != self.centroids.shape[1]:
                    raise ValueError(
                        f"pq_books subspaces ({msub} x {dsub}) do not tile "
                        f"dim {self.centroids.shape[1]}"
                    )
            os.makedirs(path, exist_ok=True)
            nio.commit_json(
                meta_path,
                {
                    "ncells": int(self.centroids.shape[0]),
                    "dim": int(self.centroids.shape[1]),
                    "centroids": self.centroids.tolist(),
                    # PQ storage tier (IVF-PQ, Jegou et al. 2011): cell
                    # files hold uint8/uint16 codes instead of raw
                    # vectors; the codebooks are frozen like centroids
                    "pq": (
                        None
                        if self.pq_books is None
                        else {
                            "books": self.pq_books.tolist(),
                            "refine": self.pq_refine,
                        }
                    ),
                    # optional filterable metadata column: stored verbatim
                    # in every cell file so probes can predicate-push
                    # (filtered vector search, e.g. per-language top-k)
                    "attr": self.attr_col,
                },
            )

    def _code_dtype(self) -> np.dtype:
        kc = int(self.pq_books.shape[1])
        if kc > 65536:
            # assignment into a uint16 codes array would silently wrap
            # argmax indices >= 2^16 and corrupt every stored code
            raise ValueError(
                f"pq_books has {kc} codes per subspace (> 65536): codes "
                "would overflow uint16 — use more subspaces or smaller "
                "codebooks"
            )
        return np.dtype(np.uint8) if kc <= 256 else np.dtype(np.uint16)

    def _pq_encode(self, m: np.ndarray) -> np.ndarray:
        """See :func:`_pq_encode_with`.  ``m`` must already be row-
        normalized — the same canonicalization as cell assignment."""
        return _pq_encode_with(m, self.pq_books, self._code_dtype())

    def _adc_tables(self, qmat: np.ndarray) -> np.ndarray:
        """Per-query asymmetric-distance tables: (nq, m_sub, k_codes)
        inner products against every sub-centroid, so scoring a stored
        code is m_sub table lookups + adds instead of a d-dim dot."""
        msub, _kc, dsub = self.pq_books.shape
        return np.einsum(
            "jkd,njd->njk", self.pq_books, qmat.reshape(len(qmat), msub, dsub)
        )

    @property
    def ncells(self) -> int:
        return int(self.centroids.shape[0])

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
            "ncells": self.ncells,
            "dim": int(self.centroids.shape[1]),
            "pq": self.pq_books is not None,
            "pq_refine": self.pq_refine,
            "attr_col": self.attr_col,
        }

    def fsck(self) -> dict:
        """Ledger consistency check — see :meth:`SegmentLedger.fsck`."""
        return self.ledger.fsck()

    # ---------------------------------------------------------------- delete
    def delete(self, vec_ids, segment_id: int) -> dict:
        """Commit a tombstone segment: ``vec_ids`` disappear from every
        probe against rows indexed at EARLIER segments (CDC delete /
        retention propagated into the index).  A later ``add`` of the
        same id resurrects it — segment order is the CDC order.
        Idempotent on segment_id, same ledger as :meth:`add`; physical
        removal happens at :meth:`compact`, which folds tombstones into
        the base and drops them (safe: every future add's segment is
        newer than any folded tombstone).  ``vec_ids`` is an id array,
        not a Dataset — deletion lists are metadata-scale (retention
        predicates, takedown lists), never corpus-scale.

        A replay is only skipped when ``segment_id`` was committed as
        the SAME tombstone set; a collision with a prior ADD (or a
        delete of different ids) raises instead of silently reporting
        ``skipped`` — otherwise a CDC epoch that mapped both upserts
        and deletes to one segment id would drop the takedown forever."""
        return self.ledger.delete(vec_ids, segment_id)

    # ------------------------------------------------------------------- add
    def add(self, vectors: rd.Dataset, segment_id: int) -> dict:
        """Index a new (vec_id, embedding) batch as one committed
        segment.  Idempotent on segment_id (replay-safe for WAL-epoch-
        driven callers).  One bounded exchange: cell assignment happens
        map-side against the broadcast quantizer; each cell's rows land
        in one parquet file.  A replayed id committed as a TOMBSTONE
        segment raises (a skip would silently drop the vectors; a
        fresh id keeps CDC segment order intact), as does an
        uncommitted id at or below the fold watermark (its dir would be
        invisible to every reader — the read view lists only
        ``s > through``)."""
        if self.ledger.committed(segment_id):
            return {"segment": segment_id, "skipped": True}
        return self._commit(vectors, segment_id)

    def _commit(self, vectors: rd.Dataset | None, segment_id: int) -> dict:
        """Assign ``vectors`` to cells map-side against the broadcast
        quantizer and commit them; ``None`` commits an empty segment."""
        cent = self.centroids
        books = self.pq_books
        refine = self.pq_refine
        attr = self.attr_col
        code_dtype = self._code_dtype() if books is not None else None

        def assign(t: pa.Table) -> pa.Table:
            m = normalize_rows(
                np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
                    np.float64
                )
            )
            cells = np.argmax(m @ cent.T, axis=1).astype(np.int32)
            cols = {"cell": pa.array(cells), "vec_id": t["vec_id"]}
            if attr is not None:
                # filterable metadata rides in the same cell file; parquet
                # is columnar so unfiltered probes never read it
                if attr not in t.column_names:
                    raise KeyError(
                        f"index declares attr_col={attr!r} but the add "
                        f"batch has columns {t.column_names}"
                    )
                cols[attr] = t[attr]
            if books is None:
                cols["embedding"] = t["embedding"]
            else:
                # PQ tier: encode MAP-SIDE so the cell exchange ships
                # m_sub small ints per vector, not the raw d-dim floats
                # (the shuffle payload shrinks by the same ~32-128x as
                # the stored files)
                codes = _pq_encode_with(m, books, code_dtype)
                cols["codes"] = pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.ravel()), codes.shape[1]
                )
                if refine:
                    # exact-rerank tier rides in the SAME file as a
                    # separate column: parquet is columnar, so the ADC
                    # pass reads only [vec_id, codes] and the refine
                    # pass only [embedding] — sidecar I/O shape without
                    # a row-alignment hazard between two files
                    cols["embedding"] = t["embedding"]
            return pa.table(cols)

        rows = None if vectors is None else vectors.map_batches(assign, batch_format="pyarrow")
        n = self.ledger.commit_rows(rows, segment_id, lambda n: {"vectors": n})
        return {"segment": segment_id, "skipped": False, "vectors": n}

    # ----------------------------------------------------------------- merge
    def merge_from(self, other: "IvfIndex", segment_id: int) -> dict:
        """Import OTHER's current LIVE vectors as one committed segment
        of THIS index — index federation: after ``cdc_replicate`` (or a
        per-shard parallel build) merge the source's index instead of
        re-reading its corpus.  The source's tombstones are applied at
        read time, and the imported rows enter THIS index's CDC order at
        ``segment_id`` (their original add order in OTHER does not
        survive — a later local ``delete`` kills them like any other row
        of this segment).  Vectors are re-assigned against THIS index's
        centroids through the normal :meth:`add` exchange, so the two
        quantizers (and PQ tiers) may differ.

        Requires the source to store exact vectors — raw tier, or PQ
        with the refine column (codes alone cannot be re-quantized) —
        and, when THIS index declares ``attr_col``, the source must
        store that same column.  Idempotent on ``segment_id`` like
        :meth:`add`.  Single-writer on BOTH indexes is assumed: a
        concurrent ``compact()`` of OTHER mid-merge can surface as
        FileNotFoundError — re-run the merge against the settled view.
        """
        if other.centroids.shape[1] != self.centroids.shape[1]:
            raise ValueError(
                f"source index has dimension {other.centroids.shape[1]} but "
                f"this index has dimension {self.centroids.shape[1]}"
            )
        if other.pq_books is not None and not other.pq_refine:
            raise ValueError(
                "source index stores PQ codes without a refine column: "
                "exact vectors are unrecoverable and cannot be re-quantized"
            )
        if self.attr_col is not None and other.attr_col != self.attr_col:
            raise ValueError(
                f"this index declares attr_col={self.attr_col!r} but the "
                f"source stores attr_col={other.attr_col!r}"
            )
        if self.ledger.committed(segment_id):
            return {"segment": segment_id, "skipped": True}
        cols = ["vec_id", "embedding"] + ([self.attr_col] if self.attr_col else [])
        return self._commit(other.ledger.read_live(columns=cols), segment_id)

    # ------------------------------------------------------- admission hits
    def load_hits(self, segment_id: int) -> pd.DataFrame | None:
        """Public read of a persisted admission-hits sidecar (written by
        ``probe_and_add(persist_hits=True)``): the epoch's original
        probe decision, or None if no sidecar exists.  This is the
        replay contract external callers (the ``ann-replay`` CLI verb)
        depend on."""
        return self.ledger.load_hits(segment_id)

    # ----------------------------------------------------------------- probe
    def probe(
        self,
        qids: np.ndarray,
        qmat: np.ndarray,
        *,
        k: int = 5,
        nprobe: int = 4,
        where: tuple[str, object] | None = None,
        as_of_segment: int | None = None,
    ) -> tuple[pd.DataFrame, dict]:
        """Top-k cosine neighbours of each query among the INDEXED
        vectors, reading only each query's ``nprobe`` nearest cells.
        Returns ``(topk_df, stats)`` where stats reports the pruning
        (``files_read`` / ``files_total``).  With ``nprobe == ncells``
        the result equals brute force over the indexed corpus exactly
        (same 4-dp rounding and (sim desc, vec_id asc) tie order as
        ``q_ann_bruteforce``).

        ``where=(col, value)`` restricts candidates to rows whose stored
        metadata attribute equals ``value`` (filtered vector search —
        e.g. top-k within one language/domain slice).  ``col`` must be
        the index's declared ``attr_col``; the equality test runs inside
        each cell-file task against the column stored at ``add`` time,
        BEFORE scoring, so top-k is over the matching slice (post-filter
        of an unfiltered top-k would under-fill instead).

        ``as_of_segment=N`` probes the index AS IT STOOD after segment
        ``N`` committed — later adds and later tombstones are invisible
        (index-level time travel, the analog of the lake's ``as_of``
        read).  Raises once compaction has folded past ``N``.

        Reader-vs-compactor: a concurrent ``compact()`` removes folded
        run dirs only AFTER the new base's checkpoint lands, so a probe that
        raced it re-lists once and reads a consistent newer view (the
        same one-retry idiom as the engine's pruned key readers)."""
        return self.ledger.read_view(
            lambda run_dirs: self._probe_once(
                qids, qmat, k=k, nprobe=nprobe, where=where, run_dirs=run_dirs
            ),
            as_of_segment,
        )

    def probe_and_add(
        self,
        vectors: rd.Dataset,
        segment_id: int,
        *,
        k: int = 5,
        nprobe: int = 4,
        probe_chunk: int = 4096,
        persist_hits: bool = False,
    ) -> tuple[pd.DataFrame, dict]:
        """The ingest-loop primitive, mirroring
        :meth:`state.dedup_index.MinHashIndex.probe_and_add`: probe the
        batch against the STRICTLY-EARLIER committed segments
        (id < segment_id), then commit it as ``segment_id``.  Probing
        only earlier segments makes a replay return exactly the hits
        the first attempt returned (the batch never matches itself), so
        callers can treat (hits, report) as a deterministic function of
        the WAL epoch — the add stays idempotent on segment_id either
        way.  Queries stream through the caller in bounded
        ``probe_chunk`` slices, so driver memory is O(chunk), never
        O(epoch).

        Compaction interplay: once a ``compact()`` folds past
        ``segment_id``, the strictly-earlier view is gone.  With
        ``persist_hits=True`` the epoch's hits are written to an
        ``_admissions/epoch-N.parquet`` sidecar BEFORE the segment's
        record, so any replay — folded or not — returns the original
        hits verbatim (``report["replayed_hits"]`` marks them).  The
        sidecar records its probe parameters: a FOLDED replay returns
        the recorded decision regardless of the per-call ``k``/
        ``nprobe`` (the original view is gone), while an UNfolded
        replay with different parameters re-probes fresh to honor the
        caller's.  Replaying a committed epoch with ``persist_hits=
        True`` backfills a missing sidecar from the deterministic
        re-probe (``report["hits_persisted"]``).  Without
        the sidecar, a replay of an epoch that was ALREADY COMMITTED
        before the fold returns ``(empty, {"skipped": True, "folded":
        True})`` — the commit is safe to skip, but the original hits are
        not reproducible.  An UNcommitted ``segment_id`` at or below the
        fold watermark raises: its segment dir would be invisible to
        every reader (the read view lists only ``s > through``),
        silently losing the vectors."""

        def probe(vectors: rd.Dataset, run_dirs: list[str]) -> pd.DataFrame:
            # queries stream in bounded chunks: driver memory is O(chunk)
            hits = []
            for chunk in vectors.iter_batches(
                batch_size=probe_chunk, batch_format="pyarrow"
            ):
                qids = chunk["vec_id"].to_numpy(zero_copy_only=False)
                qmat = np.stack(
                    chunk["embedding"].to_numpy(zero_copy_only=False)
                ).astype(np.float64)
                df, _stats = self._probe_once(
                    qids, qmat, k=k, nprobe=nprobe, run_dirs=run_dirs
                )
                if len(df):
                    hits.append(df)
            return pd.concat(hits, ignore_index=True) if hits else self.ledger.empty_hits()

        # materialize once: the probe's iter_batches and the add would
        # otherwise each re-execute the input read (double I/O, and a
        # source mutated between the passes would commit vectors the
        # probe never saw).  Epoch-sized, never corpus-sized.
        return self.ledger.probe_and_add(
            segment_id,
            params={"k": k, "nprobe": nprobe},
            persist_hits=persist_hits,
            prepare=vectors.materialize,
            probe=probe,
            commit=lambda batch: self._commit(batch, segment_id),
        )

    def _probe_once(
        self,
        qids: np.ndarray,
        qmat: np.ndarray,
        *,
        k: int,
        nprobe: int,
        run_dirs: list[str],
        where: tuple[str, object] | None = None,
    ) -> tuple[pd.DataFrame, dict]:
        import ray

        if where is not None and where[0] != self.attr_col:
            # only the column stored in the cell files at add() time is
            # filterable; anything else would silently match nothing
            raise ValueError(
                f"where={where[0]!r} is not this index's attr_col "
                f"({self.attr_col!r})"
            )
        qmat = normalize_rows(np.asarray(qmat, np.float64))
        # top-nprobe cells per query; downstream only tests membership
        # ((qcells == c).any(axis=1)), so unordered argpartition suffices
        np_ = min(nprobe, self.ncells)
        qcells = np.argpartition(
            -(qmat @ self.centroids.T), np_ - 1, axis=1
        )[:, :np_]
        segs, tombs = self.ledger.view(run_dirs)
        needed = sorted(set(qcells.ravel().tolist()))
        files = [
            {"cell": c, "path": p, "seg": seg}
            for c in needed
            for d, seg in zip(run_dirs, segs)
            for p in [os.path.join(d, self.ledger.file_name(c))]
            if os.path.exists(p)
        ]
        files_total = sum(len(self.ledger.file_keys(d)) for d in run_dirs)
        stats = {
            "cells_probed": len(needed),
            "cells_total": self.ncells,
            "files_read": len(files),
            "files_total": files_total,
        }
        if not files:
            return self.ledger.empty_hits(), stats

        qtables = self._adc_tables(qmat) if self.pq_books is not None else None
        qref = ray.put((qids, qmat, qcells, qtables, tombs, where))
        k_ = k
        refine = self.pq_refine
        refine_factor = 4

        def probe_file(t: pa.Table) -> pa.Table:
            qids_l, qmat_l, qcells_l, qtables_l, tombs_l, where_l = ray.get(qref)
            out = []
            for row in t.to_pylist():  # one row per (cell, path, seg) descriptor
                c, path, seg = int(row["cell"]), row["path"], int(row["seg"])
                # which queries probe THIS cell — one vectorized membership
                # test, then a single matmul for all of them together
                qrows = np.nonzero((qcells_l == c).any(axis=1))[0]
                if len(qrows) == 0:
                    continue
                # both tiers prune to the columns this probe needs: the
                # attr column is read only when a filter asks for it, so
                # unfiltered probes never pay for it
                wcols = [where_l[0]] if where_l is not None else []
                if qtables_l is None:
                    stored = pq.read_table(path, columns=["vec_id", "embedding"] + wcols)
                else:
                    # PQ tier: the ADC pass touches only the code column
                    stored = pq.read_table(path, columns=["vec_id", "codes"] + wcols)
                if stored.num_rows == 0:
                    continue
                ids = stored["vec_id"].to_numpy(zero_copy_only=False)
                # exclusion happens BEFORE scoring so filtered top-k is
                # over the matching slice: a LATER delete segment kills
                # this file's rows, and a where=(col, value) predicate
                # keeps only matching metadata (keep_idx also filters the
                # refine column, which must stay row-aligned with the ADC
                # shortlist)
                keep_mask = None
                if tombs_l:
                    keep_mask = ~dead_mask(ids, seg, tombs_l)
                if where_l is not None:
                    av = stored[where_l[0]].to_numpy(zero_copy_only=False)
                    wmask = av == where_l[1]
                    keep_mask = wmask if keep_mask is None else keep_mask & wmask
                keep_idx = None
                if keep_mask is not None:
                    keep_idx = np.nonzero(keep_mask)[0]
                    if len(keep_idx) == 0:
                        continue
                    if len(keep_idx) == len(ids):
                        keep_idx = None
                    else:
                        ids = ids[keep_idx]
                sel_qids = np.asarray(qids_l)[qrows]
                n, nq_sel = len(ids), len(qrows)
                if qtables_l is None:
                    m = normalize_rows(
                        np.stack(
                            stored["embedding"].to_numpy(zero_copy_only=False)
                        ).astype(np.float64)
                    )
                    if keep_idx is not None:
                        m = m[keep_idx]
                    s = np.round(m @ qmat_l[qrows].T, 4)  # (n_stored, n_sel)
                else:
                    codes = np.stack(
                        stored["codes"].to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                    if keep_idx is not None:
                        codes = codes[keep_idx]
                    qt = qtables_l[qrows]  # (n_sel, m_sub, k_codes)
                    acc = np.zeros((n, nq_sel))
                    for j in range(qt.shape[1]):
                        acc += qt[:, j, :][:, codes[:, j]].T
                    s = np.round(acc, 4)
                # self-match exclusion: sink below any cosine (>= -1)
                s[ids[:, None] == sel_qids[None, :]] = -np.inf
                # one lexsort for every (query, candidate) pair: primary
                # key query column, then -sim, then vec_id — identical
                # per-query order to the scalar kernel this replaces
                cols = np.repeat(np.arange(nq_sel), n)
                flat_ids = np.tile(ids, nq_sel)
                flat_s = s.ravel(order="F")  # flat index = col * n + row
                if qtables_l is not None and refine:
                    # two-stage: ADC shortlists r per query, then exact
                    # cosine over ONLY those (row, query) pairs from the
                    # refine column (read separately — columnar prune)
                    r = min(max(k_ * refine_factor, k_), n)
                    top_r = np.lexsort((flat_ids, -flat_s, cols)).reshape(
                        nq_sel, n
                    )[:, :r]
                    rows_flat = top_r.ravel() % n
                    cols_flat = np.repeat(np.arange(nq_sel), top_r.shape[1])
                    m_ref = normalize_rows(
                        np.stack(
                            pq.read_table(path, columns=["embedding"])[
                                "embedding"
                            ].to_numpy(zero_copy_only=False)
                        ).astype(np.float64)
                    )
                    if keep_idx is not None:
                        m_ref = m_ref[keep_idx]
                    s_exact = np.round(
                        np.einsum(
                            "ij,ij->i",
                            m_ref[rows_flat],
                            qmat_l[qrows][cols_flat],
                        ),
                        4,
                    )
                    s_exact[~np.isfinite(flat_s[top_r.ravel()])] = -np.inf
                    flat_ids = ids[rows_flat]
                    flat_s = s_exact
                    cols = cols_flat
                    n_eff = top_r.shape[1]
                else:
                    n_eff = n
                top = np.lexsort((flat_ids, -flat_s, cols)).reshape(
                    nq_sel, n_eff
                )[:, : min(k_, n_eff)]
                qid_of = np.repeat(sel_qids, top.shape[1])
                sel = top.ravel()
                keep = np.isfinite(flat_s[sel])
                if not keep.any():
                    continue
                out.append(
                    pa.table(
                        {
                            "qid": pa.array(qid_of[keep], pa.int64()),
                            "vec_id": pa.array(flat_ids[sel][keep], pa.int64()),
                            "sim": pa.array(flat_s[sel][keep], pa.float64()),
                        }
                    )
                )
            return pa.concat_tables(out) if out else TOPK_SCHEMA.empty_table()

        partial = (
            nio.fan_out(files)
            .map_batches(probe_file, batch_format="pyarrow", batch_size=None)
            # materialize before the groupby: it is top-k-per-file-sized
            # (<= files x nq x k rows), and when EVERY file task returns
            # empty (all probed rows tombstoned, or every candidate is a
            # self-match) the all-empty blocks lose their schema and
            # groupby("qid") would raise KeyError instead of returning
            # the empty result
            .materialize()
        )
        if partial.count() == 0:
            return self.ledger.empty_hits(), stats

        def final_topk(g: pd.DataFrame) -> pd.DataFrame:
            return g.sort_values(
                ["sim", "vec_id"], ascending=[False, True], ignore_index=True
            ).head(k_)

        df = (
            partial.groupby("qid")
            .map_groups(final_topk, batch_format="pandas")
            .to_pandas()
        )
        df = df.sort_values(
            ["qid", "sim", "vec_id"], ascending=[True, False, True], ignore_index=True
        )
        return df, stats

    # --------------------------------------------------------------- compact
    def vacuum(self) -> dict:
        """Remove run DIRECTORIES already folded into the newest base,
        plus a crashed compact's partial output — see
        :meth:`SegmentLedger.vacuum`."""
        return self.ledger.vacuum()

    def compact(self) -> dict:
        """Fold base + live segments into one new base generation (cell
        by cell, in parallel Ray tasks), then drop the folded runs.  Probes
        running concurrently keep working: the old runs are removed only
        after the new base's checkpoint lands (readers re-list on miss).
        Starts with a :meth:`vacuum` so a previously crashed compact's
        orphans are reclaimed before deciding whether to skip."""
        r = self.ledger.compact(fold_lone_segment=False, fold=_sort_by_vec_id)
        if not r["folded"]:
            return {"skipped": True, "runs": r["runs"]}
        return {"skipped": False, "generation": r["generation"], "cells": r["keys"]}
