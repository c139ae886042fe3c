"""Persisted, incrementally-updatable IVF index over embeddings.

The similarity-search analog of :mod:`state.dedup_index` (the same
segment/marker/compact ledger idiom): a training-data loop receives
embeddings EPOCH BY EPOCH and must serve "nearest accepted neighbours"
probes against everything already indexed.  The batch pipelines
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

Storage layout under ``path/`` (cf. ``dedup_index.py:12-19``):

- ``meta.json``                 write-once params INCLUDING the trained
                                centroids, so every opener quantizes
                                identically (an IVF index is only valid
                                under one fixed coarse quantizer)
- ``seg-NNNNNN/cell=CC.parquet``  vectors of segment N in cell CC
- ``seg-NNNNNN.json``           segment commit marker (tmp+rename after
                                the cell files; a crashed add leaves
                                orphan parquet the retry overwrites)
- ``base-GGGGGG/cell=CC.parquet`` + ``base-GGGGGG.json``  compacted runs

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
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from nyc_taxi_data_pipeline_ray.state import manifest as mf

TOPK_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("vec_id", pa.int64()),
        ("sim", pa.float64()),
    ]
)


def _empty_topk() -> pa.Table:
    return pa.table({f.name: pa.array([], f.type) for f in TOPK_SCHEMA})


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n == 0, 1.0, n)


def _ledger_vacuum(path: str, base: tuple[int, int] | None) -> dict:
    """Shared crash-recovery sweep for the segment/marker/base ledger
    idiom (IvfIndex and MinHashIndex): remove run DIRECTORIES already
    folded into the newest base, stale non-newest base dirs, and — when
    NO base marker exists — any partial ``base-*/`` dir a crashed FIRST
    compact left behind.  That last case matters: without it a retried
    compact would reuse the partial dir (makedirs exist_ok) and commit
    its stale bucket/cell files under the new marker — files that may
    hold rows a tombstone has since deleted, resurrecting them forever.
    Single writer assumed, as everywhere in this ledger idiom."""
    removed = 0
    if base is None:
        # no committed base: every base-*/ dir is markerless partial
        # output of a crashed compact — reclaim before the retry folds
        for name in os.listdir(path):
            full = os.path.join(path, name)
            if name.startswith("base-") and os.path.isdir(full):
                shutil.rmtree(full, ignore_errors=True)
                removed += 1
        return {"removed": removed}
    gen, through = base
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if not os.path.isdir(full):
            continue
        dead = (name.startswith("base-") and name != f"base-{gen:06d}") or (
            name.startswith("seg-") and int(name[4:]) <= through
        )
        if dead:
            shutil.rmtree(full, ignore_errors=True)
            removed += 1
    return {"removed": removed}


def _eff_seg(run_dir: str) -> int:
    """Effective segment of a run dir for tombstone ordering: a live
    segment is its own id; a base is its fold watermark (every row in
    it was added at a segment <= through, and every live tombstone has
    a segment > through, so `through` orders base rows against live
    tombstones exactly).  Shared by IvfIndex and MinHashIndex — the
    ledger layout (``seg-NNNNNN/`` dirs, ``base-GGGGGG.json`` markers)
    is identical."""
    name = os.path.basename(run_dir)
    if name.startswith("seg-"):
        return int(name[4:])
    with open(run_dir + ".json") as f:
        return int(json.load(f)["through_segment"])


def _tombstones_for(
    run_dirs: list[str], id_col: str, eff: dict[str, int] | None = None
) -> list[tuple[int, np.ndarray]]:
    """(effective segment, sorted ids) per ``tombstones.parquet`` among
    the run dirs.  Tombstones live only in seg dirs — compact() applies
    and drops them, so a base never carries one.  ``id_col`` is the
    index's id column (``vec_id`` / ``doc_id``); ``eff`` is an optional
    precomputed run_dir -> effective-segment map so hot paths don't
    re-read base markers."""
    out = []
    for d in run_dirs:
        p = os.path.join(d, "tombstones.parquet")
        if os.path.exists(p):
            ids = pq.read_table(p)[id_col].to_numpy(zero_copy_only=False)
            seg = eff[d] if eff is not None else _eff_seg(d)
            out.append((seg, np.sort(ids.astype(np.int64))))
        elif os.path.basename(d).startswith("seg-"):
            # Distinguish "add segment — never had tombstones" (normal)
            # from "a concurrent compact() rmtree'd this DELETE segment
            # mid-probe" (its exclusion set would silently vanish and
            # deleted rows would resurface as live hits).  The ledger
            # manifest (run_dir + ".json", never removed) records the
            # kind; a delete segment whose file is gone must surface as
            # FileNotFoundError so the caller's one-retry re-lists.
            with open(d + ".json") as f:
                man = json.load(f)
            if "tombstones" in man:
                raise FileNotFoundError(
                    f"tombstone file vanished mid-probe (compact race): {p}"
                )
    return out


def _check_tombstone_replay(
    path: str, manifest_path: str, segment_id: int, ids: np.ndarray, id_col: str
) -> None:
    """Validate that replaying ``delete(ids, segment_id)`` against an
    already-committed segment really is a replay of the SAME tombstone
    set — not a collision with a prior add or a different delete.
    Raises ValueError on mismatch.  After a compact the seg dir (and
    its exact id list) is gone, so the check degrades to the manifest's
    recorded kind + count; before it, ids are compared exactly."""
    with open(manifest_path) as f:
        man = json.load(f)
    if "tombstones" not in man:
        raise ValueError(
            f"segment {segment_id} was already committed as an ADD "
            f"({man}); refusing to treat delete({id_col}s, {segment_id}) "
            "as a replay — use a fresh segment id for the tombstones"
        )
    if int(man["tombstones"]) != len(ids):
        raise ValueError(
            f"segment {segment_id} was committed with "
            f"{man['tombstones']} tombstones, but this delete carries "
            f"{len(ids)} — not a replay; use a fresh segment id"
        )
    p = os.path.join(path, f"seg-{segment_id:06d}", "tombstones.parquet")
    if os.path.exists(p):
        committed = pq.read_table(p)[id_col].to_numpy(zero_copy_only=False)
        if not np.array_equal(np.sort(committed.astype(np.int64)), ids):
            raise ValueError(
                f"segment {segment_id}'s committed tombstone ids differ "
                "from this delete's — not a replay; use a fresh segment id"
            )


def _check_add_replay(manifest_path: str, segment_id: int) -> None:
    """Validate that replaying ``add(..., segment_id)`` against an
    already-committed segment collides with a prior ADD (a benign
    replay under the idempotency contract) and not with a TOMBSTONE
    segment — skipping the latter would silently drop the new vectors
    while reporting success."""
    with open(manifest_path) as f:
        man = json.load(f)
    if "tombstones" in man:
        raise ValueError(
            f"segment {segment_id} was already committed as a DELETE "
            f"({man}); refusing to skip this add as a replay — use a "
            "fresh segment id so CDC order stays explicit"
        )


def _ledger_run_dirs_as_of(
    path: str,
    base: tuple[int, int] | None,
    segments: list[int],
    as_of_segment: int,
) -> list[str]:
    """Run dirs for a TIME-TRAVEL probe over the shared segment/base
    ledger layout: the index exactly as it stood after ``as_of_segment``
    committed (adds AND tombstones with a later segment id are
    invisible) — the index-level analog of the lake's ``as_of`` epoch
    read.  Raises once a ``compact()`` has folded PAST the requested
    watermark: the folded base merged later segments irreversibly, so
    that history is gone (callers that need post-fold replay persist
    sidecars via ``probe_and_add(persist_hits=True)`` instead).  Shared
    by IvfIndex and MinHashIndex (same ledger layout)."""
    through = base[1] if base else -1
    if through > as_of_segment:
        raise ValueError(
            f"history folded: base generation {base[0]} merged through "
            f"segment {through} > as_of_segment {as_of_segment}"
        )
    return ([os.path.join(path, f"base-{base[0]:06d}")] if base else []) + [
        os.path.join(path, f"seg-{s:06d}")
        for s in segments
        if through < s <= as_of_segment
    ]


def _ledger_describe(path: str, live_run_dirs: list[str]) -> dict:
    """Operational snapshot of the shared segment/base ledger (the
    index-level analog of the lake's ``describe`` verb): committed
    segment counts by kind, the newest base generation/fold watermark,
    live run-dir layout, on-disk data footprint, and persisted
    admission sidecars.  ``rows_committed`` sums the ADD manifests'
    logical counts (the ledger history — not the live count, which
    tombstones and folds reduce)."""
    adds = deletes = rows = tombs = 0
    for name in sorted(os.listdir(path)):
        if name.startswith("seg-") and name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                man = json.load(f)
            if "tombstones" in man:
                deletes += 1
                tombs += int(man["tombstones"])
            else:
                adds += 1
                rows += int(man.get("vectors", man.get("docs", 0)))
    base = None
    for name in os.listdir(path):
        if name.startswith("base-") and name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                m = json.load(f)
            if base is None or m["generation"] > base["generation"]:
                base = {
                    "generation": int(m["generation"]),
                    "through_segment": int(m["through_segment"]),
                }
    files = bytes_ = 0
    for d in live_run_dirs:
        if not os.path.isdir(d):
            continue
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                files += 1
                bytes_ += os.path.getsize(os.path.join(d, f))
    adm_dir = os.path.join(path, "_admissions")
    sidecars = (
        sum(1 for f in os.listdir(adm_dir) if f.endswith(".parquet"))
        if os.path.isdir(adm_dir)
        else 0
    )
    return {
        "segments_committed": adds + deletes,
        "add_segments": adds,
        "delete_segments": deletes,
        "rows_committed": rows,
        "tombstones_committed": tombs,
        "base": base,
        "live_runs": len(live_run_dirs),
        "data_files": files,
        "data_bytes": bytes_,
        "admission_sidecars": sidecars,
    }


def _ledger_fsck(path: str) -> dict:
    """Consistency check of the shared segment/base ledger (the
    index-level analog of the lake's ``fsck`` verb).  FATAL issues mean
    probes would return wrong/failing answers: a committed segment above
    the fold watermark whose run dir (or tombstone file) is gone, the
    newest base marker without its dir, or an unreadable parquet footer
    in a live run.  WARNINGS are crash leftovers the ledger makes
    invisible to readers — uncommitted run dirs, stale base generations,
    ``*.tmp`` files — all reclaimable via ``vacuum()``."""
    issues: list[dict] = []

    def issue(severity: str, kind: str, **kw) -> None:
        issues.append({"severity": severity, "kind": kind, **kw})

    manifests: dict[int, dict] = {}
    bases: list[tuple[int, int]] = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if name.startswith("seg-") and name.endswith(".json"):
            with open(full) as f:
                manifests[int(name[4:-5])] = json.load(f)
        elif name.startswith("base-") and name.endswith(".json"):
            with open(full) as f:
                m = json.load(f)
            bases.append((int(m["generation"]), int(m["through_segment"])))
        elif name.endswith(".tmp"):
            issue("warning", "tmp_file", file=name)
    newest = max(bases) if bases else None
    through = newest[1] if newest else -1

    for s, man in manifests.items():
        if s <= through:
            continue  # folded into the base; its dir is legitimately gone
        d = os.path.join(path, f"seg-{s:06d}")
        if not os.path.isdir(d):
            issue("fatal", "missing_run_dir", segment=s)
        elif "tombstones" in man and not os.path.exists(
            os.path.join(d, "tombstones.parquet")
        ):
            issue("fatal", "missing_tombstone_file", segment=s)
    live_dirs = []
    if newest is not None:
        bdir = os.path.join(path, f"base-{newest[0]:06d}")
        if not os.path.isdir(bdir):
            issue("fatal", "missing_base_dir", generation=newest[0])
        else:
            live_dirs.append(bdir)
    live_dirs += [
        os.path.join(path, f"seg-{s:06d}")
        for s in manifests
        if s > through and os.path.isdir(os.path.join(path, f"seg-{s:06d}"))
    ]

    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isdir(full):
            continue
        if name.startswith("seg-") and int(name[4:]) not in manifests:
            issue("warning", "uncommitted_run_dir", dir=name)
        elif name.startswith("base-"):
            gen = int(name[5:])
            if newest is None or gen != newest[0]:
                # crashed/folded compact leftovers — vacuum reclaims
                issue("warning", "stale_base_dir", dir=name)

    files_checked = 0
    for d in live_dirs:
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                files_checked += 1
                try:
                    pq.read_schema(os.path.join(d, f))
                except Exception as e:
                    issue(
                        "fatal", "unreadable_file",
                        file=os.path.join(os.path.basename(d), f),
                        error=str(e)[:200],
                    )
            elif f.endswith(".tmp"):
                issue("warning", "tmp_file", file=os.path.join(os.path.basename(d), f))
    adm = os.path.join(path, "_admissions")
    if os.path.isdir(adm):
        for f in sorted(os.listdir(adm)):
            if f.endswith(".parquet"):
                files_checked += 1
                try:
                    pq.read_schema(os.path.join(adm, f))
                except Exception as e:
                    issue(
                        "fatal", "unreadable_file",
                        file=os.path.join("_admissions", f),
                        error=str(e)[:200],
                    )
    return {
        "ok": not any(i["severity"] == "fatal" for i in issues),
        "issues": issues,
        "segments_checked": len(manifests),
        "files_checked": files_checked,
    }


def _dead_mask(
    ids: np.ndarray, row_seg: int, tombs: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """Which of ``ids`` (stored rows from effective segment ``row_seg``)
    are killed by a tombstone from a LATER segment.  Segment order is
    the CDC order: delete-then-re-add resurrects (the re-added row's
    segment is newer than the tombstone's), re-add-then-delete stays
    dead.  ``tombs`` entries are (tombstone_segment, sorted ids)."""
    dead = np.zeros(len(ids), bool)
    for t_seg, t_ids in tombs:
        if t_seg <= row_seg or not len(t_ids):
            continue
        idx = np.searchsorted(t_ids, ids)
        idx[idx == len(t_ids)] = len(t_ids) - 1
        dead |= t_ids[idx] == ids
    return dead


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
    them on any sample, e.g. ``pipelines.ann._kmeans_lite``) and are
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
        meta_path = os.path.join(path, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            self.centroids = _normalize_rows(np.asarray(meta["centroids"], np.float64))
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
            self.centroids = _normalize_rows(np.asarray(centroids, np.float64))
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
            mf.atomic_write_json(
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
    def _manifest_path(self, segment_id: int) -> str:
        return os.path.join(self.path, f"seg-{segment_id:06d}.json")

    def segments(self) -> list[int]:
        """Every committed segment id, INCLUDING ones folded into a
        base — manifests are the ledger (idempotent add needs them)."""
        return sorted(
            int(name[4:-5])
            for name in os.listdir(self.path)
            if name.startswith("seg-") and name.endswith(".json")
        )

    def _base(self) -> tuple[int, int] | None:
        best = None
        for name in os.listdir(self.path):
            if name.startswith("base-") and name.endswith(".json"):
                with open(os.path.join(self.path, name)) as f:
                    m = json.load(f)
                if best is None or m["generation"] > best[0]:
                    best = (int(m["generation"]), int(m["through_segment"]))
        return best

    def _read_runs(self) -> list[str]:
        """Run directories a probe reads: newest base + live segments."""
        base = self._base()
        if base is None:
            return [os.path.join(self.path, f"seg-{s:06d}") for s in self.segments()]
        gen, through = base
        return [os.path.join(self.path, f"base-{gen:06d}")] + [
            os.path.join(self.path, f"seg-{s:06d}")
            for s in self.segments()
            if s > through
        ]

    def _eff_seg(self, run_dir: str) -> int:
        """See module-level :func:`_eff_seg` (shared with MinHashIndex)."""
        return _eff_seg(run_dir)

    def _run_dirs_as_of(self, as_of_segment: int) -> list[str]:
        """See module-level :func:`_ledger_run_dirs_as_of`."""
        return _ledger_run_dirs_as_of(
            self.path, self._base(), self.segments(), as_of_segment
        )

    def describe(self) -> dict:
        """Operational snapshot (see :func:`_ledger_describe`) plus this
        index's frozen configuration."""
        return {
            **_ledger_describe(self.path, self._read_runs()),
            "ncells": self.ncells,
            "dim": int(self.centroids.shape[1]),
            "pq": self.pq_books is not None,
            "pq_refine": self.pq_refine,
            "attr_col": self.attr_col,
        }

    def fsck(self) -> dict:
        """Ledger consistency check — see :func:`_ledger_fsck`."""
        return _ledger_fsck(self.path)

    def _tombstones_for(
        self, run_dirs: list[str], eff: dict[str, int] | None = None
    ) -> list[tuple[int, np.ndarray]]:
        """See module-level :func:`_tombstones_for`."""
        return _tombstones_for(run_dirs, "vec_id", eff)

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
        ids = np.unique(np.asarray(vec_ids, np.int64))
        if segment_id in self.segments():
            _check_tombstone_replay(
                self.path, self._manifest_path(segment_id), segment_id, ids, "vec_id"
            )
            return {"segment": segment_id, "skipped": True}
        base = self._base()
        if base is not None and base[1] >= segment_id:
            raise ValueError(
                f"segment {segment_id} is at or below base generation "
                f"{base[0]}'s fold watermark ({base[1]}); its tombstones "
                "would be invisible to readers"
            )
        seg_dir = os.path.join(self.path, f"seg-{segment_id:06d}")
        shutil.rmtree(seg_dir, ignore_errors=True)
        os.makedirs(seg_dir, exist_ok=True)
        p = os.path.join(seg_dir, "tombstones.parquet")
        pq.write_table(pa.table({"vec_id": pa.array(ids, pa.int64())}), p + ".tmp")
        os.replace(p + ".tmp", p)
        mf.atomic_write_json(
            self._manifest_path(segment_id),
            {"segment": segment_id, "tombstones": int(len(ids))},
        )
        return {"segment": segment_id, "skipped": False, "tombstones": int(len(ids))}

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
        invisible to every reader — ``_read_runs`` lists only
        ``s > through``)."""
        if segment_id in self.segments():
            _check_add_replay(self._manifest_path(segment_id), segment_id)
            return {"segment": segment_id, "skipped": True}
        base = self._base()
        if base is not None and base[1] >= segment_id:
            raise ValueError(
                f"segment {segment_id} was never committed and is at or "
                f"below base generation {base[0]}'s fold watermark "
                f"({base[1]}); adding it now would be invisible to readers"
            )
        seg_dir = os.path.join(self.path, f"seg-{segment_id:06d}")
        # wipe, don't reuse: a crashed add may have left cell files for a
        # DIFFERENT batch; a retry that routes to a different cell set
        # would otherwise commit those phantom rows under its marker
        # (same hazard as engine.apply's staging wipe).  The dir is
        # invisible to readers until the manifest lands, so this is safe.
        shutil.rmtree(seg_dir, ignore_errors=True)
        os.makedirs(seg_dir, exist_ok=True)
        cent = self.centroids
        books = self.pq_books
        refine = self.pq_refine
        attr = self.attr_col
        code_dtype = self._code_dtype() if books is not None else None

        def assign(t: pa.Table) -> pa.Table:
            m = _normalize_rows(
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

        def write_cell(g: pa.Table) -> pa.Table:
            c = int(g["cell"][0].as_py())
            path = os.path.join(seg_dir, f"cell={c:04d}.parquet")
            tmp = path + ".tmp"
            pq.write_table(g.drop_columns(["cell"]), tmp)
            os.replace(tmp, path)
            return pa.table({"cell": pa.array([c], pa.int32()), "rows": [g.num_rows]})

        stats = (
            vectors.map_batches(assign, batch_format="pyarrow")
            .groupby("cell")
            .map_groups(write_cell, batch_format="pyarrow")
            .to_pandas()  # <= ncells rows
        )
        n = int(stats["rows"].sum()) if len(stats) else 0
        mf.atomic_write_json(
            self._manifest_path(segment_id), {"segment": segment_id, "vectors": n}
        )
        return {"segment": segment_id, "skipped": False, "vectors": n}

    # ----------------------------------------------------------------- merge
    def _live_files(self) -> tuple[list[tuple[str, int]], list[tuple[int, np.ndarray]]]:
        """(cell-file path, effective segment) descriptors of the
        current live view, plus the tombstones that apply to it — the
        read set :meth:`merge_from` imports from a source index."""
        run_dirs = self._read_runs()
        eff = {d: _eff_seg(d) for d in run_dirs}
        tombs = self._tombstones_for(run_dirs, eff)
        files = [
            (os.path.join(d, f), eff[d])
            for d in run_dirs
            for f in sorted(os.listdir(d))
            if f.startswith("cell=") and f.endswith(".parquet")
        ]
        return files, tombs

    def _commit_empty(self, segment_id: int, manifest: dict) -> dict:
        """Commit an empty segment (a merge of an empty source is a
        no-op that must still consume ``segment_id`` exactly once)."""
        base = self._base()
        if base is not None and base[1] >= segment_id:
            raise ValueError(
                f"segment {segment_id} was never committed and is at or "
                f"below base generation {base[0]}'s fold watermark "
                f"({base[1]}); adding it now would be invisible to readers"
            )
        seg_dir = os.path.join(self.path, f"seg-{segment_id:06d}")
        shutil.rmtree(seg_dir, ignore_errors=True)
        os.makedirs(seg_dir, exist_ok=True)
        mf.atomic_write_json(self._manifest_path(segment_id), manifest)
        return {"segment": segment_id, "skipped": False, **manifest}

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
        if segment_id in self.segments():
            _check_add_replay(self._manifest_path(segment_id), segment_id)
            return {"segment": segment_id, "skipped": True}
        files, tombs = other._live_files()
        if not files:
            return self._commit_empty(segment_id, {"segment": segment_id, "vectors": 0})
        cols = ["vec_id", "embedding"] + ([self.attr_col] if self.attr_col else [])
        full = pq.read_schema(files[0][0])
        empty = pa.schema([full.field(c) for c in cols]).empty_table()

        def read_live(t: pa.Table) -> pa.Table:
            parts = []
            for row in t.to_pylist():  # one row per (path, seg) descriptor
                part = pq.read_table(row["path"], columns=cols)
                if tombs:
                    dead = _dead_mask(
                        part["vec_id"].to_numpy(zero_copy_only=False),
                        int(row["seg"]),
                        tombs,
                    )
                    if dead.any():
                        part = part.filter(pa.array(~dead))
                if part.num_rows:
                    parts.append(part)
            return pa.concat_tables(parts) if parts else empty

        work = pa.table(
            {
                "path": pa.array([p for p, _ in files]),
                "seg": pa.array([s for _, s in files], pa.int64()),
            }
        )
        ds = (
            rd.from_arrow(work)
            .repartition(min(len(files), 16))
            .map_batches(read_live, batch_format="pyarrow", batch_size=None)
        )
        return self.add(ds, segment_id)

    # ------------------------------------------------------- admission hits
    def _hits_path(self, segment_id: int) -> str:
        return os.path.join(self.path, "_admissions", f"epoch-{segment_id:06d}.parquet")

    def load_hits(self, segment_id: int) -> pd.DataFrame | None:
        """Public read of a persisted admission-hits sidecar (written by
        ``probe_and_add(persist_hits=True)``): the epoch's original
        probe decision, or None if no sidecar exists.  This is the
        replay contract external callers (the ``ann-replay`` CLI verb)
        depend on."""
        return self._load_hits(segment_id)

    def _load_hits(self, segment_id: int) -> pd.DataFrame | None:
        p = self._hits_path(segment_id)
        return pq.read_table(p).to_pandas() if os.path.exists(p) else None

    def _hits_params(self, segment_id: int) -> dict[str, str]:
        """Probe parameters recorded in the sidecar's schema metadata
        (empty for sidecars written before params were recorded)."""
        md = pq.read_schema(self._hits_path(segment_id)).metadata or {}
        return {
            k.decode(): v.decode()
            for k, v in md.items()
            if k in (b"k", b"nprobe", b"threshold")
        }

    def _persist_hits(
        self, segment_id: int, df: pd.DataFrame, params: dict | None = None
    ) -> None:
        """Write the epoch's probe hits as a sidecar UNDER the index,
        tmp+rename, BEFORE the segment marker lands — completing the
        ``probe_and_add`` contract: once persisted, the original
        admission decision survives any later ``compact()`` (the
        ``_admissions/`` dir is invisible to vacuum/compact, which only
        touch ``base-*`` / ``seg-*``)."""
        os.makedirs(os.path.join(self.path, "_admissions"), exist_ok=True)
        t = (
            pa.Table.from_pandas(
                df[[f.name for f in TOPK_SCHEMA]], preserve_index=False
            ).cast(TOPK_SCHEMA)
            if len(df)
            else _empty_topk()
        )
        if params:
            t = t.replace_schema_metadata(
                {
                    **(t.schema.metadata or {}),
                    **{str(k).encode(): str(v).encode() for k, v in params.items()},
                }
            )
        p = self._hits_path(segment_id)
        pq.write_table(t, p + ".tmp")
        os.replace(p + ".tmp", p)

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
        run dirs only AFTER the new base marker lands, so a probe that
        raced it re-lists once and reads a consistent newer view (the
        same one-retry idiom as the engine's pruned key readers)."""

        def dirs() -> list[str] | None:
            return (
                None
                if as_of_segment is None
                else self._run_dirs_as_of(as_of_segment)
            )

        try:
            return self._probe_once(
                qids, qmat, k=k, nprobe=nprobe, where=where, run_dirs=dirs()
            )
        except Exception as e:
            if not mf.is_file_not_found(e):
                raise
            return self._probe_once(
                qids, qmat, k=k, nprobe=nprobe, where=where, run_dirs=dirs()
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
        ``_admissions/epoch-N.parquet`` sidecar BEFORE the segment
        marker, so any replay — folded or not — returns the original
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
        every reader (``_read_runs`` lists only ``s > through``),
        silently losing the vectors."""
        if segment_id in self.segments():
            # a collision with a TOMBSTONE segment is never a benign
            # replay: every committed-replay skip path below would
            # silently drop the batch's vectors (and a persist_hits
            # backfill would cement a sidecar for the delete) — the
            # same guard add() applies on its direct path
            _check_add_replay(self._manifest_path(segment_id), segment_id)
        base = self._base()
        if base is not None and base[1] >= segment_id:
            if segment_id in self.segments():
                replay = self._load_hits(segment_id)
                if replay is not None:
                    return replay, {
                        "segment": segment_id,
                        "skipped": True,
                        "folded": True,
                        "replayed_hits": True,
                    }
                import warnings

                warnings.warn(
                    f"replaying segment {segment_id} after compact() folded "
                    f"past it: original hits are NOT reproducible; returning "
                    "empty (persist per-epoch hits before compacting past "
                    "them)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return _empty_topk().to_pandas(), {
                    "segment": segment_id,
                    "skipped": True,
                    "folded": True,
                }
            raise ValueError(
                f"segment {segment_id} was never committed and is at or below "
                f"base generation {base[0]}'s fold watermark ({base[1]}); "
                "adding it now would be invisible to readers"
            )
        if segment_id in self.segments():
            replay = self._load_hits(segment_id)
            if replay is not None and self._hits_params(segment_id) == {
                "k": str(k),
                "nprobe": str(nprobe),
            }:
                # committed epoch with a sidecar from the SAME probe
                # parameters: skip the (deterministic but not free)
                # re-probe entirely.  A parameter mismatch falls through
                # to a fresh re-probe — the earlier view is still intact
                # here, so the caller's k/nprobe are honored; the
                # original sidecar decision stays untouched.
                return replay, {
                    "segment": segment_id,
                    "skipped": True,
                    "replayed_hits": True,
                }

        def _earlier_run_dirs() -> list[str]:
            # strictly-earlier committed view; re-listable so a probe
            # that raced a concurrent compact() can retry against the
            # folded (but semantically identical, still < segment_id
            # thanks to the watermark guard above) newer layout
            gen_through = self._base()
            return (
                [os.path.join(self.path, f"base-{gen_through[0]:06d}")]
                if gen_through
                else []
            ) + [
                os.path.join(self.path, f"seg-{s:06d}")
                for s in self.segments()
                if s > (gen_through[1] if gen_through else -1) and s < segment_id
            ]

        run_dirs = _earlier_run_dirs()
        # materialize once: the probe's iter_batches and the add would
        # otherwise each re-execute the input read (double I/O, and a
        # source mutated between the passes would commit vectors the
        # probe never saw) — the same reason MinHashIndex.probe_and_add
        # materializes its band rows.  Epoch-sized, never corpus-sized.
        vectors = vectors.materialize()
        hits: list[pd.DataFrame] = []
        if run_dirs:
            for chunk in vectors.iter_batches(
                batch_size=probe_chunk, batch_format="pyarrow"
            ):
                qids = chunk["vec_id"].to_numpy(zero_copy_only=False)
                qmat = np.stack(
                    chunk["embedding"].to_numpy(zero_copy_only=False)
                ).astype(np.float64)
                try:
                    df, _stats = self._probe_once(
                        qids, qmat, k=k, nprobe=nprobe, run_dirs=run_dirs
                    )
                except Exception as e:  # probe()'s one-retry idiom: a
                    # concurrent compact() folded our pre-listed dirs
                    if not mf.is_file_not_found(e):
                        raise
                    run_dirs = _earlier_run_dirs()
                    df, _stats = self._probe_once(
                        qids, qmat, k=k, nprobe=nprobe, run_dirs=run_dirs
                    )
                if len(df):
                    hits.append(df)
        out = (
            pd.concat(hits, ignore_index=True) if hits else _empty_topk().to_pandas()
        )
        params = {"k": k, "nprobe": nprobe}
        if segment_id in self.segments():
            rep = {"segment": segment_id, "skipped": True}
            if persist_hits and self._load_hits(segment_id) is None:
                # backfill durability for an epoch committed WITHOUT a
                # sidecar (e.g. an earlier ingest ran persist_hits=False):
                # the hits above were just recomputed from the intact
                # strictly-earlier view, so persisting them now is what
                # the caller asked for — without it the request would be
                # silently dropped and the decision lost at the next fold
                self._persist_hits(segment_id, out, params)
                rep["hits_persisted"] = True
            return out, rep
        if persist_hits:
            # sidecar BEFORE the marker: a commit implies its admission
            # decision is durable, so compaction can never orphan it
            self._persist_hits(segment_id, out, params)
        return out, self.add(vectors, segment_id)

    def _probe_once(
        self,
        qids: np.ndarray,
        qmat: np.ndarray,
        *,
        k: int,
        nprobe: int,
        run_dirs: list[str] | None = None,
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
        qmat = _normalize_rows(np.asarray(qmat, np.float64))
        # top-nprobe cells per query; downstream only tests membership
        # ((qcells == c).any(axis=1)), so unordered argpartition suffices
        np_ = min(nprobe, self.ncells)
        qcells = np.argpartition(
            -(qmat @ self.centroids.T), np_ - 1, axis=1
        )[:, :np_]
        if run_dirs is None:
            run_dirs = self._read_runs()
        # hoist effective segments once per probe: _eff_seg on a base
        # dir opens+parses its marker JSON, and this loop would
        # otherwise re-run it per (cell, run_dir) file pair on the
        # ingest hot path (probe_and_add calls _probe_once per chunk)
        eff = {d: _eff_seg(d) for d in run_dirs}
        needed = sorted(set(qcells.ravel().tolist()))
        files = [
            (c, p, eff[d])
            for c in needed
            for d in run_dirs
            for p in [os.path.join(d, f"cell={c:04d}.parquet")]
            if os.path.exists(p)
        ]
        tombs = self._tombstones_for(run_dirs, eff)
        files_total = sum(
            1
            for d in run_dirs
            for f in os.listdir(d)
            if f.startswith("cell=") and f.endswith(".parquet")
        )
        stats = {
            "cells_probed": len(needed),
            "cells_total": self.ncells,
            "files_read": len(files),
            "files_total": files_total,
        }
        if not files:
            return _empty_topk().to_pandas(), stats

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
                    keep_mask = ~_dead_mask(ids, seg, tombs_l)
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
                    m = _normalize_rows(
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
                    m_ref = _normalize_rows(
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
            return pa.concat_tables(out) if out else _empty_topk()

        desc = pa.table(
            {
                "cell": pa.array([c for c, _, _ in files], pa.int32()),
                "path": pa.array([p for _, p, _ in files], pa.string()),
                "seg": pa.array([s for _, _, s in files], pa.int64()),
            }
        )
        partial = (
            rd.from_arrow(desc)
            .repartition(len(files))
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
            return _empty_topk().to_pandas(), stats

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
        :func:`_ledger_vacuum` (shared with MinHashIndex)."""
        return _ledger_vacuum(self.path, self._base())

    def compact(self) -> dict:
        """Fold base + live segments into one new base generation (per
        cell, one Ray task each), then drop the folded runs.  Probes
        running concurrently keep working: the old runs are removed only
        after the new base's marker lands (readers re-list on miss).
        Starts with a :meth:`vacuum` so a previously crashed compact's
        orphans are reclaimed before deciding whether to skip."""
        self.vacuum()
        runs = self._read_runs()
        if len(runs) <= 1:
            return {"skipped": True, "runs": len(runs)}
        base = self._base()
        gen = (base[0] + 1) if base else 1
        through = max(self.segments())
        out_dir = os.path.join(self.path, f"base-{gen:06d}")
        os.makedirs(out_dir, exist_ok=True)
        cells = sorted(
            {
                int(f[5:-8])
                for d in runs
                for f in os.listdir(d)
                if f.startswith("cell=") and f.endswith(".parquet")
            }
        )
        if cells:
            # tombstones are APPLIED here (physical removal) and dropped:
            # every future add's segment is newer than any folded
            # tombstone, so a folded tombstone can never kill later rows
            eff = {d: _eff_seg(d) for d in runs}
            run_segs = [eff[d] for d in runs]
            tombs = self._tombstones_for(runs, eff)

            def fold_cell(t: pa.Table) -> pa.Table:
                out_c, out_n = [], []
                for c in t["cell"].to_pylist():
                    c = int(c)
                    parts = []
                    for d, seg in zip(runs, run_segs):
                        p = os.path.join(d, f"cell={c:04d}.parquet")
                        if not os.path.exists(p):
                            continue
                        part = pq.read_table(p)
                        if tombs:
                            ids = part["vec_id"].to_numpy(zero_copy_only=False)
                            dead = _dead_mask(ids, seg, tombs)
                            if dead.any():
                                part = part.filter(pa.array(~dead))
                        if part.num_rows:
                            parts.append(part)
                    if not parts:
                        out_c.append(c)
                        out_n.append(0)
                        continue
                    merged = pa.concat_tables(parts, promote_options="default")
                    merged = merged.sort_by([("vec_id", "ascending")])
                    path = os.path.join(out_dir, f"cell={c:04d}.parquet")
                    tmp = path + ".tmp"
                    pq.write_table(merged, tmp)
                    os.replace(tmp, path)
                    out_c.append(c)
                    out_n.append(merged.num_rows)
                return pa.table(
                    {"cell": pa.array(out_c, pa.int32()), "rows": pa.array(out_n, pa.int64())}
                )

            (
                rd.from_arrow(pa.table({"cell": pa.array(cells, pa.int32())}))
                .repartition(len(cells))
                .map_batches(fold_cell, batch_format="pyarrow", batch_size=None)
                .count()
            )
        mf.atomic_write_json(
            os.path.join(self.path, f"base-{gen:06d}.json"),
            {"generation": gen, "through_segment": through, "cells": len(cells)},
        )
        # reclaim the folded runs (markers stay: they are the add ledger)
        for d in runs:
            shutil.rmtree(d, ignore_errors=True)
        return {"skipped": False, "generation": gen, "cells": len(cells)}
