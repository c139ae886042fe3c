"""Segment ledger: the commit protocol behind both persisted indexes.

:class:`~state.dedup_index.MinHashIndex` (band rows in ``bucket=BB``
files) and :class:`~state.ann_index.IvfIndex` (vectors in ``cell=CCCC``
files) each compose one :class:`SegmentLedger`.  The split follows
Delta Lake's (VLDB 2020): one log protocol, and each table format
decides only what its data files hold.  The ledger owns the layout, the
commit order, the replay and fold-watermark guards, compaction, the
admission-hit sidecars and the read view; an index owns its config, the
kernel that maps rows to file keys, and its probe kernel.

Storage layout under ``path/``:

- ``meta.json``                      the index's write-once params
                                     (written by the index, not here)
- ``seg-NNNNNN/<key>=KK.parquet``    rows of segment N with file key KK
- ``seg-NNNNNN/tombstones.parquet``  the ids a DELETE segment kills
- ``base-GGGGGG/<key>=KK.parquet``   generation G of the compacted runs
- the commit log of :mod:`state.manifest` (:class:`Segments` is its
  fold): segment N is invisible until its record, log position N, lands
  (after its files).  An ADD record carries the index's row counts, a
  DELETE record ``tombstones``.  Base generation G is committed by a
  checkpoint at its ``through_segment``, which keeps every committed
  segment id with its kind and counts
- ``_admissions/epoch-NNNNNN.parquet``  one epoch's persisted probe hits

Protocol:

- A segment id is one ledger entry.  Replaying an ADD of a committed ADD
  id is a no-op; a replay that collides with the other kind raises.
  Checkpoints keep every id, so replays stay idempotent after a fold.
- The read view is the newest base plus every committed segment above
  its fold watermark (``through_segment``).  An uncommitted id at or
  below the watermark is refused: its dir would be invisible.
- Segment order is the CDC order: a tombstone kills rows of EARLIER
  segments only, so delete-then-re-add resurrects.  ``compact`` applies
  tombstones and drops them; every later segment is newer than they are.
- Single writer per index.  Readers race a compactor safely: folded runs
  are removed only after the new checkpoint lands, and a reader that
  lost a listed run re-lists once (:meth:`SegmentLedger.read_view`).
"""

from __future__ import annotations

import math
import os
import shutil
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray.state import manifest as mf

Tombstones = list[tuple[int, np.ndarray]]


def dead_mask(ids: np.ndarray, row_seg: int, tombs: Tombstones) -> np.ndarray:
    """Which of ``ids`` (stored rows from effective segment ``row_seg``)
    are killed by a tombstone from a LATER segment.  ``tombs`` entries
    are (tombstone_segment, sorted ids)."""
    dead = np.zeros(len(ids), bool)
    for t_seg, t_ids in tombs:
        if t_seg <= row_seg or not len(t_ids):
            continue
        idx = np.searchsorted(t_ids, ids)
        idx[idx == len(t_ids)] = len(t_ids) - 1
        dead |= t_ids[idx] == ids
    return dead


def read_live_part(
    path: str, seg: int, tombs: Tombstones, id_col: str, columns=None
) -> pa.Table | None:
    """The rows of one run file that no later tombstone kills, or None
    when nothing survives or the run has no such file (no row mapped to
    that key).  A missing run DIR raises FileNotFoundError: a concurrent
    ``compact()`` folded it mid-read, and the caller's one retry
    re-lists instead of silently dropping the folded rows."""
    if not os.path.exists(path):
        if not os.path.isdir(os.path.dirname(path)):
            raise FileNotFoundError(f"run dir vanished mid-read: {path}")
        return None
    part = pq.read_table(path, columns=columns)
    if tombs:
        dead = dead_mask(part[id_col].to_numpy(zero_copy_only=False), seg, tombs)
        if dead.any():
            part = part.filter(pa.array(~dead))
    return part if part.num_rows else None


@dataclass
class Segments:
    """An index's committed state: the fold of its newest checkpoint (the
    current base) and the segment records after it.  Shared through the
    log's read cache, so callers treat it as read-only."""

    seq: int = -1  #: the largest committed segment id (-1: none)
    generation: int = 0  #: the current base generation (0: none)
    through: int = -1  #: its fold watermark: the checkpoint's position
    #: segment id -> its record's payload (ADD row counts or DELETE
    #: ``tombstones``), folded ones included
    segments: dict[int, dict] = field(default_factory=dict)

    @property
    def base(self) -> tuple[int, int] | None:
        """(generation, through_segment) of the current base, or None."""
        return (self.generation, self.through) if self.generation else None

    def fold(self, rec: dict) -> None:
        self.seq = max(self.seq, rec["seq"])
        self.segments[rec["seq"]] = {k: v for k, v in rec.items() if k != "seq"}

    def copy(self) -> "Segments":
        return replace(self, segments=dict(self.segments))

    def checkpoint(self) -> dict:
        return {
            "seq": self.seq,
            "generation": self.generation,
            "segments": sorted(self.segments.items()),
        }

    @classmethod
    def from_checkpoint(cls, d: dict) -> "Segments":
        return cls(d["seq"], d["generation"], d["seq"], dict(d["segments"]))


class SegmentLedger:
    """The segment/base/tombstone ledger of one index directory.

    ``key`` names the file-key column (``bucket`` / ``cell``; stored in
    the file NAME, dropped from the file), ``key_digits`` its zero
    padding, ``id_col`` the row id that tombstones name, and
    ``hits_schema`` the admission sidecars' schema."""

    def __init__(
        self, path: str, *, key: str, key_digits: int, id_col: str, hits_schema: pa.Schema
    ):
        self.path, self.key, self.key_digits = path, key, key_digits
        self.id_col, self.hits_schema = id_col, hits_schema
        mf.check_layout(path, "seg-*.json", "base-*.json")

    # ---------------------------------------------------------------- layout
    def _seg_dir(self, segment_id: int) -> str:
        return os.path.join(self.path, f"seg-{segment_id:06d}")

    def _base_dir(self, generation: int) -> str:
        return os.path.join(self.path, f"base-{generation:06d}")

    def file_name(self, key: int) -> str:
        return f"{self.key}={key:0{self.key_digits}d}.parquet"

    def file_keys(self, run_dir: str) -> list[int]:
        """Keys of the data files in one run dir, ascending."""
        pre = self.key + "="
        return sorted(
            int(f[len(pre) : -8])
            for f in os.listdir(run_dir)
            if f.startswith(pre) and f.endswith(".parquet")
        )

    def state(self) -> Segments:
        """The committed state, from one cached read of the log."""
        return mf.read_log(self.path, Segments)

    def segments(self) -> list[int]:
        """Every committed segment id, INCLUDING ones folded into a
        base — the checkpoint keeps them (idempotent add needs them)."""
        return sorted(self.state().segments)

    def base(self) -> tuple[int, int] | None:
        """Newest committed base: (generation, through_segment) or None."""
        return self.state().base

    def run_dirs(self, as_of_segment: int | None = None) -> list[str]:
        """The run dirs a reader reads: the newest base, then every
        committed segment above its fold watermark.  With
        ``as_of_segment=N`` only segments up to N — the index as it
        stood after N committed (later adds AND tombstones invisible),
        the index-level analog of the lake's ``as_of`` read.  That
        raises once a ``compact()`` folded PAST N: the base merged later
        segments irreversibly (post-fold replay reads the admission
        sidecars instead)."""
        st = self.state()
        if as_of_segment is not None and st.through > as_of_segment:
            raise ValueError(
                f"history folded: base generation {st.generation} merged through "
                f"segment {st.through} > as_of_segment {as_of_segment}"
            )
        top = math.inf if as_of_segment is None else as_of_segment
        return ([self._base_dir(st.generation)] if st.base else []) + [
            self._seg_dir(s) for s in sorted(st.segments) if st.through < s <= top
        ]

    def view(self, run_dirs: list[str]) -> tuple[list[int], Tombstones]:
        """(effective segment per run dir, tombstones among them as
        (segment, sorted ids)).  A segment is its own id; the base is its
        fold watermark (every row in it was added at a segment <=
        through, and every live tombstone has a segment > through).
        Tombstones live only in seg dirs — compact applies and drops
        them.  A listed base that is no longer current, or a DELETE
        segment whose file is gone (a concurrent compact), raises
        FileNotFoundError so the caller's one retry re-lists; otherwise
        deleted rows would silently resurface."""
        st = self.state()
        segs, tombs = [], []
        for d in run_dirs:
            name = os.path.basename(d)
            if name.startswith("base-"):
                if d != self._base_dir(st.generation):
                    raise FileNotFoundError(f"base superseded mid-probe (compact race): {d}")
                segs.append(st.through)
                continue
            seg = int(name[4:])
            segs.append(seg)
            p = os.path.join(d, "tombstones.parquet")
            if os.path.exists(p):
                ids = pq.read_table(p)[self.id_col].to_numpy(zero_copy_only=False)
                tombs.append((seg, np.sort(ids.astype(np.int64))))
            elif "tombstones" in st.segments.get(seg, {}):
                raise FileNotFoundError(
                    f"tombstone file vanished mid-probe (compact race): {p}"
                )
        return segs, tombs

    def read_view(self, read: Callable[[list[str]], object], as_of_segment=None):
        """``read(run_dirs(as_of_segment))``, re-listed and retried once
        when a concurrent ``compact()`` removed a listed run mid-read."""
        try:
            return read(self.run_dirs(as_of_segment))
        except Exception as e:
            if not mf.is_file_not_found(e):
                raise
            return read(self.run_dirs(as_of_segment))

    # ---------------------------------------------------------------- guards
    def committed(self, segment_id: int) -> bool:
        """Whether ``segment_id`` is already committed as an ADD — a
        replay the caller skips.  Raises when it was committed as a
        DELETE: skipping would silently drop the batch's rows while
        reporting success."""
        man = self.state().segments.get(segment_id)
        if man is None:
            return False
        if "tombstones" in man:
            raise ValueError(
                f"segment {segment_id} was already committed as a DELETE "
                f"({man}); refusing to skip this add as a replay — use a "
                "fresh segment id so CDC order stays explicit"
            )
        return True

    def _check_watermark(self, segment_id: int) -> None:
        base = self.base()
        if base is not None and base[1] >= segment_id:
            raise ValueError(
                f"segment {segment_id} was never committed and is at or "
                f"below base generation {base[0]}'s fold watermark "
                f"({base[1]}); committing it now would be invisible to readers"
            )

    def _fresh_seg_dir(self, segment_id: int) -> str:
        # wipe, don't reuse: a crashed attempt may have left files for a
        # DIFFERENT batch, and a retry that maps to other keys would
        # commit those phantom rows under its record.  The dir is
        # invisible until the record lands, so the wipe is safe.
        d = self._seg_dir(segment_id)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        return d

    # ---------------------------------------------------------------- writes
    def commit_rows(
        self, rows: rd.Dataset | None, segment_id: int, payload: Callable[[int], dict]
    ) -> int:
        """Commit ``rows`` (carrying the ``key`` column) as segment
        ``segment_id``: one exchange on the key, one file per key, then
        its log record ``payload(n_rows)``.  ``rows=None`` commits an
        empty segment (a merge of an empty source still consumes its id
        exactly once).  Returns the row count."""
        self._check_watermark(segment_id)
        seg_dir = self._fresh_seg_dir(segment_id)
        n = 0
        if rows is not None:
            key, digits = self.key, self.key_digits

            def write_file(g: pa.Table) -> pa.Table:
                k = int(g[key][0].as_py())
                name = f"{key}={k:0{digits}d}.parquet"
                nio.commit_file(
                    os.path.join(seg_dir, name),
                    lambda tmp: pq.write_table(g.drop_columns([key]), tmp),
                )
                return pa.table({key: pa.array([k], pa.int32()), "rows": [g.num_rows]})

            stats = (
                rows.groupby(key)
                .map_groups(write_file, batch_format="pyarrow")
                .to_pandas()  # one row per key
            )
            n = int(stats["rows"].sum()) if len(stats) else 0
        mf.append_record(self.path, self.state(), {"seq": segment_id, **payload(n)})
        return n

    def delete(self, ids, segment_id: int) -> dict:
        """Commit a tombstone segment for ``ids``.  A replay is only
        skipped when ``segment_id`` was committed as the SAME tombstone
        set; a collision with a prior ADD (or a delete of different ids)
        raises instead of silently reporting ``skipped`` — otherwise a
        CDC epoch that mapped both upserts and deletes to one segment id
        would drop the takedown forever."""
        ids = np.unique(np.asarray(ids, np.int64))
        if segment_id in self.state().segments:
            self._check_tombstone_replay(segment_id, ids)
            return {"segment": segment_id, "skipped": True}
        self._check_watermark(segment_id)
        seg_dir = self._fresh_seg_dir(segment_id)
        t = pa.table({self.id_col: pa.array(ids, pa.int64())})
        nio.commit_file(
            os.path.join(seg_dir, "tombstones.parquet"), lambda tmp: pq.write_table(t, tmp)
        )
        mf.append_record(self.path, self.state(), {"seq": segment_id, "tombstones": len(ids)})
        return {"segment": segment_id, "skipped": False, "tombstones": int(len(ids))}

    def _check_tombstone_replay(self, segment_id: int, ids: np.ndarray) -> None:
        """After a compact the seg dir (and its exact id list) is gone,
        so the check degrades to the record's kind + count; before it,
        ids are compared exactly."""
        man = self.state().segments[segment_id]
        if "tombstones" not in man:
            raise ValueError(
                f"segment {segment_id} was already committed as an ADD "
                f"({man}); refusing to treat delete({self.id_col}s, {segment_id}) "
                "as a replay — use a fresh segment id for the tombstones"
            )
        if int(man["tombstones"]) != len(ids):
            raise ValueError(
                f"segment {segment_id} was committed with "
                f"{man['tombstones']} tombstones, but this delete carries "
                f"{len(ids)} — not a replay; use a fresh segment id"
            )
        p = os.path.join(self._seg_dir(segment_id), "tombstones.parquet")
        if os.path.exists(p):
            committed = pq.read_table(p)[self.id_col].to_numpy(zero_copy_only=False)
            if not np.array_equal(np.sort(committed.astype(np.int64)), ids):
                raise ValueError(
                    f"segment {segment_id}'s committed tombstone ids differ "
                    "from this delete's — not a replay; use a fresh segment id"
                )

    # --------------------------------------------------------------- compact
    def vacuum(self) -> dict:
        """Remove run DIRECTORIES already folded into the newest base,
        stale non-newest base dirs, the tmp files of interrupted commits
        at the top level, the log's remnants (:func:`mf.ledger_remnants`)
        and — when NO base is committed — any partial ``base-*/`` dir a
        crashed FIRST compact left.  That last case matters: a retried
        compact would otherwise reuse the partial dir and commit its
        stale files under the new checkpoint — files that may hold rows
        a tombstone has since deleted, resurrecting them forever."""
        st = self.state()
        removed = mf.vacuum_log(self.path)
        for name in os.listdir(self.path):
            full = os.path.join(self.path, name)
            if nio.is_tmp(name) and os.path.isfile(full):
                os.remove(full)
                removed += 1
            if not os.path.isdir(full):
                continue
            dead = (name.startswith("base-") and full != self._base_dir(st.generation)) or (
                name.startswith("seg-") and int(name[4:]) <= st.through
            )
            if dead:
                shutil.rmtree(full, ignore_errors=True)
                removed += 1
        return {"removed": removed}

    def compact(
        self,
        *,
        fold_lone_segment: bool,
        fold: Callable[[pa.Table], pa.Table] | None = None,
    ) -> dict:
        """Fold the base + every live segment into one new base
        generation, one file key at a time in parallel tasks (the LSM
        step: a probe reads one file per key again).  Tombstones are
        applied (physical removal) and dropped.  ``fold`` post-processes
        each key's merged rows.

        Starts with a :meth:`vacuum`.  Nothing is folded without a live
        segment, nor — unless ``fold_lone_segment`` — when the view is a
        single run.  Returns ``{"folded": False, "runs": n}`` then, else
        ``{"folded": True, "generation", "through_segment", "keys"}``.
        Idempotent: the generation is committed by its checkpoint, a
        crash before it leaves the old runs authoritative, and the
        folded runs and records are removed only after it lands."""
        self.vacuum()
        st = self.state()
        runs = self.run_dirs()
        if len(runs) == (st.base is not None) or (not fold_lone_segment and len(runs) <= 1):
            return {"folded": False, "runs": len(runs)}
        gen = st.generation + 1
        new_dir = self._base_dir(gen)
        os.makedirs(new_dir, exist_ok=True)
        keys = sorted({k for d in runs for k in self.file_keys(d)})
        if keys:
            segs, tombs = self.view(runs)
            names = {k: self.file_name(k) for k in keys}
            id_col = self.id_col

            def fold_keys(batch: pa.Table) -> pa.Table:
                for k in batch["key"].to_pylist():
                    parts = [
                        p
                        for d, seg in zip(runs, segs)
                        for p in [read_live_part(os.path.join(d, names[k]), seg, tombs, id_col)]
                        if p is not None
                    ]
                    if parts:
                        t = pa.concat_tables(parts, promote_options="default")
                        nio.commit_file(
                            os.path.join(new_dir, names[k]),
                            lambda tmp: pq.write_table(fold(t) if fold else t, tmp),
                        )
                return batch

            nio.fan_out([{"key": k} for k in keys]).map_batches(
                fold_keys, batch_format="pyarrow", batch_size=None
            ).count()
        mf.write_checkpoint(self.path, replace(st, generation=gen, through=st.seq))
        for d in runs:
            shutil.rmtree(d, ignore_errors=True)
        return {"folded": True, "generation": gen, "through_segment": st.seq, "keys": len(keys)}

    # ----------------------------------------------------------------- reads
    def read_live(self, columns: list[str] | None = None, with_key: bool = False):
        """The current live rows (tombstones applied) as a Dataset, or
        None when no run holds a data file — the read half of
        ``merge_from``.  ``columns`` prunes the read; ``with_key``
        restores the file-key column from the file name."""
        runs = self.run_dirs()
        segs, tombs = self.view(runs)
        files = [
            {"path": os.path.join(d, self.file_name(k)), "seg": seg, "key": k}
            for d, seg in zip(runs, segs)
            for k in self.file_keys(d)
        ]
        if not files:
            return None
        stored = pq.read_schema(files[0]["path"])
        fields = [stored.field(c) for c in columns] if columns else list(stored)
        if with_key:
            fields.append(pa.field(self.key, pa.int32()))
        empty = pa.schema(fields).empty_table()
        key, id_col = self.key, self.id_col

        def read(batch: pa.Table) -> pa.Table:
            parts = []
            for row in batch.to_pylist():
                part = read_live_part(row["path"], row["seg"], tombs, id_col, columns)
                if part is None:
                    continue
                if with_key:
                    part = part.append_column(
                        key, pa.array(np.full(part.num_rows, row["key"], np.int32))
                    )
                parts.append(part)
            return pa.concat_tables(parts) if parts else empty

        return nio.fan_out(files).map_batches(read, batch_format="pyarrow", batch_size=None)

    # ---------------------------------------------------------------- report
    def describe(self) -> dict:
        """Operational snapshot: committed segment counts by kind, the
        newest base generation/fold watermark, the live run layout, the
        on-disk data footprint and the persisted admission sidecars.
        ``rows_committed`` sums the ADD records' logical counts (the
        ledger history — not the live count, which tombstones and folds
        reduce)."""
        st = self.state()
        dels = [m for m in st.segments.values() if "tombstones" in m]
        adds = [m for m in st.segments.values() if "tombstones" not in m]
        runs = self.run_dirs()
        files = [
            os.path.join(d, f)
            for d in runs
            if os.path.isdir(d)
            for f in os.listdir(d)
            if f.endswith(".parquet")
        ]
        adm = os.path.join(self.path, "_admissions")
        return {
            "segments_committed": len(adds) + len(dels),
            "add_segments": len(adds),
            "delete_segments": len(dels),
            "rows_committed": sum(int(m.get("vectors", m.get("docs", 0))) for m in adds),
            "tombstones_committed": sum(int(m["tombstones"]) for m in dels),
            "base": st.base and {"generation": st.generation, "through_segment": st.through},
            "live_runs": len(runs),
            "data_files": len(files),
            "data_bytes": sum(os.path.getsize(f) for f in files),
            "admission_sidecars": (
                sum(1 for f in os.listdir(adm) if f.endswith(".parquet"))
                if os.path.isdir(adm)
                else 0
            ),
        }

    def fsck(self) -> dict:
        """Consistency check (the index-level analog of the lake's
        ``fsck``).  FATAL issues mean probes would return wrong or
        failing answers: a committed segment above the fold watermark
        whose run dir (or tombstone file) is gone, the newest base
        without its dir, or an unreadable parquet footer in a live run
        or sidecar.  WARNINGS are crash leftovers the ledger makes
        invisible to readers — uncommitted run dirs, stale base
        generations, ``*.tmp`` files, log records a checkpoint covers —
        all reclaimable via ``vacuum()``."""
        issues: list[dict] = []

        def issue(severity: str, kind: str, **kw) -> None:
            issues.append({"severity": severity, "kind": kind, **kw})

        names = sorted(os.listdir(self.path))
        tmps = [{"kind": "tmp_file", "file": name} for name in names if nio.is_tmp(name)]
        for r in tmps + mf.ledger_remnants(self.path):
            issue("warning", r["kind"], file=r["file"])
        st = self.state()
        live_dirs = []
        if st.base is not None:
            bdir = self._base_dir(st.generation)
            if not os.path.isdir(bdir):
                issue("fatal", "missing_base_dir", generation=st.generation)
            else:
                live_dirs.append(bdir)
        for s, man in sorted(st.segments.items()):
            if s <= st.through:
                continue  # folded into the base; its dir is legitimately gone
            d = self._seg_dir(s)
            if not os.path.isdir(d):
                issue("fatal", "missing_run_dir", segment=s)
                continue
            live_dirs.append(d)
            if "tombstones" in man and not os.path.exists(
                os.path.join(d, "tombstones.parquet")
            ):
                issue("fatal", "missing_tombstone_file", segment=s)
        for name in names:
            full = os.path.join(self.path, name)
            if not os.path.isdir(full):
                continue
            if name.startswith("seg-") and int(name[4:]) not in st.segments:
                issue("warning", "uncommitted_run_dir", dir=name)
            elif name.startswith("base-") and full != self._base_dir(st.generation):
                # crashed/folded compact leftovers — vacuum reclaims
                issue("warning", "stale_base_dir", dir=name)

        files_checked = 0
        adm = os.path.join(self.path, "_admissions")
        for d in live_dirs + ([adm] if os.path.isdir(adm) else []):
            for f in sorted(os.listdir(d)):
                rel = os.path.join(os.path.basename(d), f)
                if f.endswith(".parquet"):
                    files_checked += 1
                    try:
                        pq.read_schema(os.path.join(d, f))
                    except Exception as e:
                        issue("fatal", "unreadable_file", file=rel, error=str(e)[:200])
                elif nio.is_tmp(f) and d != adm:
                    issue("warning", "tmp_file", file=rel)
        return {
            "ok": not any(i["severity"] == "fatal" for i in issues),
            "issues": issues,
            "segments_checked": len(st.segments),
            "files_checked": files_checked,
        }

    # -------------------------------------------------------- admission hits
    def _hits_path(self, segment_id: int) -> str:
        return os.path.join(self.path, "_admissions", f"epoch-{segment_id:06d}.parquet")

    def empty_hits(self) -> pd.DataFrame:
        return self.hits_schema.empty_table().to_pandas()

    def load_hits(self, segment_id: int) -> pd.DataFrame | None:
        """The epoch's persisted probe decision, or None without a
        sidecar."""
        p = self._hits_path(segment_id)
        return pq.read_table(p).to_pandas() if os.path.exists(p) else None

    def persist_hits(self, segment_id: int, df: pd.DataFrame, params: dict) -> None:
        """Commit the epoch's probe hits as a sidecar, with the probe
        parameters in its schema metadata.  ``_admissions/`` is
        invisible to vacuum/compact, which only touch ``base-*`` /
        ``seg-*`` and tmp files at the top level, so a persisted
        decision survives every later fold."""
        t = (
            pa.Table.from_pandas(
                df[self.hits_schema.names], preserve_index=False
            ).cast(self.hits_schema)
            if len(df)
            else self.hits_schema.empty_table()
        )
        t = t.replace_schema_metadata(
            {
                **(t.schema.metadata or {}),
                **{str(k).encode(): str(v).encode() for k, v in params.items()},
            }
        )
        nio.commit_file(self._hits_path(segment_id), lambda tmp: pq.write_table(t, tmp))

    def hits_params(self, segment_id: int) -> dict[str, str]:
        """Probe parameters recorded in the sidecar's schema metadata
        (empty for sidecars written before params were recorded)."""
        md = pq.read_schema(self._hits_path(segment_id)).metadata or {}
        return {
            k.decode(): v.decode()
            for k, v in md.items()
            if k in (b"k", b"nprobe", b"threshold")
        }

    def probe_and_add(
        self,
        segment_id: int,
        *,
        params: dict,
        persist_hits: bool,
        prepare: Callable[[], object],
        probe: Callable[[object, list[str]], pd.DataFrame],
        commit: Callable[[object], dict],
    ) -> tuple[pd.DataFrame, dict]:
        """The protocol half of an index's ``probe_and_add``: probe a
        batch against the STRICTLY-EARLIER committed segments, then
        commit it as ``segment_id``.  ``prepare()`` materializes the
        batch once, ``probe(batch, run_dirs)`` runs the index's probe
        kernel over a non-empty view, and ``commit(batch)`` returns the
        add report.

        - Folded (``segment_id`` at or below the watermark): a committed
          epoch replays its sidecar, else warns and returns empty hits
          with ``folded``; an uncommitted one raises.
        - Committed, with a sidecar recorded under the same ``params``:
          the sidecar is returned without a re-probe.  Other parameters
          re-probe the intact earlier view.
        - Otherwise probe; a committed epoch skips the add (backfilling
          a missing sidecar when ``persist_hits``), an uncommitted one
          writes its sidecar BEFORE the record, so a commit implies its
          admission decision is durable."""
        committed = self.committed(segment_id)
        base = self.base()
        if base is not None and base[1] >= segment_id:
            if not committed:
                self._check_watermark(segment_id)  # raises: invisible if added
            replay = self.load_hits(segment_id)
            rep = {"segment": segment_id, "skipped": True, "folded": True}
            if replay is not None:
                return replay, {**rep, "replayed_hits": True}
            warnings.warn(
                f"replaying segment {segment_id} after compact() folded "
                f"past it: original hits are NOT reproducible; returning "
                "empty (persist per-epoch hits before compacting past them)",
                RuntimeWarning,
                stacklevel=3,
            )
            return self.empty_hits(), rep
        if committed:
            replay = self.load_hits(segment_id)
            if replay is not None and self.hits_params(segment_id) == {
                k: str(v) for k, v in params.items()
            }:
                return replay, {
                    "segment": segment_id,
                    "skipped": True,
                    "replayed_hits": True,
                }
        batch = prepare()
        hits = self.read_view(
            lambda dirs: probe(batch, dirs) if dirs else self.empty_hits(),
            segment_id - 1,
        )
        if committed:
            rep = {"segment": segment_id, "skipped": True}
            if persist_hits and self.load_hits(segment_id) is None:
                # backfill an epoch committed WITHOUT a sidecar: the hits
                # were just recomputed from the intact earlier view
                self.persist_hits(segment_id, hits, params)
                rep["hits_persisted"] = True
            return hits, rep
        if persist_hits:
            self.persist_hits(segment_id, hits, params)
        return hits, commit(batch)
