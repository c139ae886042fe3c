"""Epoch admission: the one ingest loop behind the release/admission
witnesses (``text.q_dedup_index_release``, ``text.q_corpus_admission``,
``ann.q_ann_index_release``, ``ann.q_admission_replay``).

A corpus arrives in epochs.  Each epoch is probed against the state
built from strictly earlier epochs, committed as its own index segment,
and released.  :class:`Admission` drives that loop over one or more
*lanes*, one persisted index each (:class:`MinHashLane` over
``documents``, :class:`IvfLane` over ``embeddings``), and emits the
release table in one broadcast ``map_batches`` pass:
``<id>, epoch, keep, <one dup_of column per lane>`` (-1: no earlier
near-dup; keep iff every lane's is -1).  Each dup map is OUTPUT-class
(near-dup pairs only); the corpus never lands on the driver.

- Epochs are dense id ranges: a lane's width is ``ceil(count /
  n_epochs)`` and epoch e is one pushed-down ``id >= e*per & id <
  (e+1)*per`` read.  An id outside ``[0, n_epochs*per)`` is read by no
  epoch, so the decide pass raises on it (:func:`check_epoch_coverage`).
- Per epoch, every lane runs one fused ``probe_and_add(segment_id=e,
  persist_hits=True)``.  The lanes touch disjoint indexes and tables, so
  they overlap on driver threads; epochs stay sequential (epoch e+1 must
  see e committed in every index).
- Crash contract (Delta Lake's, VLDB 2020: the data, then one atomic
  marker): the index writes the epoch's hits to its ``_admissions/``
  sidecar BEFORE the segment marker, so a committed epoch's decision
  survives any later ``compact()`` and a replay returns it verbatim.
- Within-epoch duplicates are both kept: an arrival batch is released
  atomically, and its members collide only with later epochs' probes.
- ``compact_every=c`` compacts every lane's index after each c-th epoch
  but the last, so later probes read the folded base (the LSM read-path
  witness: folding must change no hit).  A schedule that never fires is
  rejected up front (:func:`check_compaction_schedule`), and a run that
  did not compact raises.

ORACLE COUPLING: the certified SQL oracles in ``__ray_entry__``
hardcode the default epoch divisor (``ceil(count/4.0)``); a call with a
non-default ``n_epochs`` is a correct pipeline that diverges from them,
so pair any such call with a matching oracle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import ray
import ray.data as rd

from nyc_taxi_data_pipeline_ray.io import fresh_tmp_root, read_parquet_clean
from nyc_taxi_data_pipeline_ray.pipelines.ann import vectors_where_id_below
from nyc_taxi_data_pipeline_ray.pipelines.text import (
    assert_minhash_sql_domain,
    chargram_table,
    distributed_pair_jaccard,
)
from nyc_taxi_data_pipeline_ray.state.ann_index import (
    IvfIndex,
    kmeans_lite,
    normalize_rows,
)
from nyc_taxi_data_pipeline_ray.state.dedup_index import MinHashIndex


def check_epoch_coverage(ids, per: int, n_epochs: int, id_col: str) -> None:
    """Raise on an id outside ``[0, n_epochs*per)``: every epoch read
    would skip it (never indexed, never dedup-checked), yet the decide
    pass would still emit it ``keep=True``."""
    ids = np.asarray(ids)
    if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= n_epochs * per):
        raise ValueError(
            f"{id_col} range [{ids.min()}, {ids.max()}] exceeds the "
            f"epoch partitioning [0, {n_epochs * per}): the id-range "
            "epoch reads would silently skip rows — this witness "
            "requires dense 0-based ids"
        )


def check_compaction_schedule(compact_every: int | None, n_epochs: int) -> None:
    """Reject a ``compact_every`` that never fires mid-loop (e.g. >=
    n_epochs), which would otherwise fail the post-loop witness with a
    confusing message."""
    if compact_every and not any(
        (e + 1) % compact_every == 0 and e + 1 < n_epochs
        for e in range(n_epochs)
    ):
        raise ValueError(
            f"compact_every={compact_every} never compacts within "
            f"n_epochs={n_epochs} (the final epoch is excluded so later "
            "probes still read live segments); use compact_every < n_epochs"
        )


def _pairs(doc_a=(), doc_b=()) -> pd.DataFrame:
    """A lane's near-dup pairs: (arrival, earlier offender)."""
    return pd.DataFrame(
        {"doc_a": pd.Series(doc_a, dtype="int64"), "doc_b": pd.Series(doc_b, dtype="int64")}
    )


class _Lane:
    """One persisted index's share of the loop, over one table."""

    table: str
    id_col: str
    columns: list[str]

    def __init__(self, sf_dir: str, index, dup_col: str):
        self.path = f"{sf_dir}/{self.table}.parquet"
        self.ds = read_parquet_clean(self.path, columns=self.columns)
        self.index = index
        self.dup_col = dup_col

    def epoch(self, e: int, per: int) -> rd.Dataset:
        # pushed-down row filter: the read prunes to the epoch's id range
        # (in production, epochs arrive as separate WAL files)
        f = pads.field(self.id_col)
        return read_parquet_clean(
            self.path, columns=self.columns, filter=(f >= e * per) & (f < (e + 1) * per)
        )

    def verify(self, pairs: pd.DataFrame) -> pd.DataFrame:
        return pairs


class MinHashLane(_Lane):
    """Text lane: the MinHash LSH index over ``documents.text``.  Each
    epoch's candidates (est >= 0.5) are collected and reranked once,
    after the loop, by exact char-5-gram Jaccard; the band family's
    recall bound (miss prob (1 - J^4)^16 = 2e-4 at J = 0.8) makes the
    candidates cover the exact set on the witness corpus."""

    table, id_col, columns = "documents", "doc_id", ["doc_id", "text"]

    def __init__(
        self, sf_dir: str, root: str, *, exact_threshold: float, dup_col: str = "dup_of"
    ):
        super().__init__(sf_dir, MinHashIndex(fresh_tmp_root(root)), dup_col)
        self.exact_threshold = exact_threshold

    def probe_and_add(self, batch: rd.Dataset, e: int) -> tuple[pd.DataFrame, dict]:
        return self.index.probe_and_add(
            # the SQL-mirrored oracle's ASCII/length domain guard: off
            # it, byte and char shingles silently diverge
            batch.map_batches(assert_minhash_sql_domain, batch_format="pyarrow"),
            segment_id=e,
            threshold=0.5,
            persist_hits=True,
        )

    def pairs(self, hits: pd.DataFrame) -> pd.DataFrame:
        return _pairs(hits["probe_doc"], hits["indexed_doc"])

    def verify(self, pairs: pd.DataFrame) -> pd.DataFrame:
        return distributed_pair_jaccard(
            self.ds.map_batches(chargram_table, batch_format="pyarrow"),
            pairs,
            self.exact_threshold,
        )


class IvfLane(_Lane):
    """Embedding lane: the IVF index over ``embeddings`` in the
    exhaustive witness configuration (``nprobe == ncells``: every probe
    visits each earlier vector once, so the hits are the exact
    cross-epoch cosine filter).  Epoch queries stream through the
    driver in ``probe_chunk`` slices.  ``pq_books`` selects the IVF-PQ
    storage tier."""

    table, id_col, columns = "embeddings", "vec_id", ["vec_id", "embedding"]

    def __init__(
        self,
        sf_dir: str,
        root: str,
        *,
        threshold: float,
        k: int,
        ncells: int,
        sample_rows: int,
        probe_chunk: int = 4096,
        pq_books: np.ndarray | None = None,
        dup_col: str = "dup_of",
    ):
        _, sample = vectors_where_id_below(sf_dir, sample_rows)
        index = IvfIndex(
            fresh_tmp_root(root),
            centroids=kmeans_lite(normalize_rows(sample), ncells),
            pq_books=pq_books,
        )
        super().__init__(sf_dir, index, dup_col)
        self.threshold, self.k, self.ncells = threshold, k, ncells
        self.probe_chunk = probe_chunk

    def probe_and_add(self, batch: rd.Dataset, e: int) -> tuple[pd.DataFrame, dict]:
        return self.index.probe_and_add(
            batch,
            segment_id=e,
            k=self.k,
            nprobe=self.ncells,
            probe_chunk=self.probe_chunk,
            persist_hits=True,
        )

    def pairs(self, hits: pd.DataFrame) -> pd.DataFrame:
        """The epoch's hits >= threshold, reduced to each query's
        smallest earlier vec_id.  Saturation guard: a query with fewer
        than k such hits had a top-k that reached below the threshold,
        so nothing outside it qualifies and min() is the global min."""
        hits = hits[hits["sim"] >= self.threshold]
        counts = hits.groupby("qid").size()
        # witness-critical invariant: a real raise, not an assert (python
        # -O strips asserts and would silently degrade the witness)
        if not (counts < self.k).all():
            raise RuntimeError(
                f"top-k saturated (max {counts.max()} >= k={self.k}); "
                "raise k so min(dup_of) is exact"
            )
        first = hits.groupby("qid")["vec_id"].min()
        return _pairs(first.index, first.to_numpy())


class Admission:
    """The epoch loop over ``lanes``; the first lane's table drives the
    release table (a document without a row in another lane's table
    gets -1 there)."""

    def __init__(self, *lanes, n_epochs: int):
        self.lanes = lanes
        self.n_epochs = n_epochs
        self.per = [math.ceil(lane.ds.count() / n_epochs) for lane in lanes]

    def run(
        self, compact_every: int | None = None
    ) -> tuple[list[dict[int, int]], list[list[dict]]]:
        """One pass over every epoch.  Returns each lane's dup map
        (id -> smallest earlier near-dup) and, per epoch, each lane's
        ``probe_and_add`` report."""
        check_compaction_schedule(compact_every, self.n_epochs)
        found: list[list[pd.DataFrame]] = [[] for _ in self.lanes]
        reports: list[list[dict]] = []
        with ThreadPoolExecutor(max_workers=len(self.lanes)) as pool:
            for e in range(self.n_epochs):
                futs = [
                    pool.submit(lane.probe_and_add, lane.epoch(e, per), e)
                    for lane, per in zip(self.lanes, self.per)
                ]
                reports.append([])
                for lane, acc, fut in zip(self.lanes, found, futs):
                    hits, rep = fut.result()
                    pairs = lane.pairs(hits)
                    if len(pairs):
                        acc.append(pairs)
                    reports[-1].append(rep)
                if compact_every and (e + 1) % compact_every == 0 and e + 1 < self.n_epochs:
                    for lane in self.lanes:
                        lane.index.compact()
        if compact_every and any(lane.index.ledger.base() is None for lane in self.lanes):
            # witness-critical: a real raise, not an assert (python -O)
            raise RuntimeError("compaction witness never compacted")
        dups = []
        for lane, acc in zip(self.lanes, found):
            pairs = lane.verify(pd.concat(acc, ignore_index=True) if acc else _pairs())
            dups.append({} if pairs.empty else pairs.groupby("doc_a")["doc_b"].min().to_dict())
        return dups, reports

    def decide(self, dups: list[dict[int, int]]) -> pd.DataFrame:
        """The release table from the lanes' dup maps, broadcast once."""
        id_col, per, n_epochs = self.lanes[0].id_col, self.per[0], self.n_epochs
        dup_cols = [lane.dup_col for lane in self.lanes]
        ref = ray.put(dups)

        def batch(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy()
            check_epoch_coverage(ids, per, n_epochs, id_col)
            dup = [
                pd.Series(ids, dtype="int64").map(m).fillna(-1).to_numpy(np.int64)
                for m in ray.get(ref)
            ]
            return pa.table(
                {
                    id_col: t[id_col],
                    "epoch": pa.array((ids // per).astype(np.int64), pa.int64()),
                    "keep": pa.array(np.logical_and.reduce([d < 0 for d in dup]), pa.bool_()),
                    **{c: pa.array(d, pa.int64()) for c, d in zip(dup_cols, dup)},
                }
            )

        out = (
            self.lanes[0]
            .ds.select_columns([id_col])
            .map_batches(batch, batch_format="pyarrow")
            .to_pandas()
        )
        return out.sort_values(id_col, ignore_index=True)

    def release(self, compact_every: int | None = None) -> pd.DataFrame:
        """:meth:`run`, then :meth:`decide` on its dup maps."""
        return self.decide(self.run(compact_every)[0])
