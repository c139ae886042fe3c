"""Row-level incrementally-maintained DERIVED TABLE over the CDC lake
— the dbt incremental-model analog.

The reference's transform layer re-runs every model on every ``dbt
run``: ``fct_trips`` merges the last 7 days wholesale
(``nyc_taxi_dbt/models/marts/core/fct_trips.sql:10-13``) and the OBT /
validated layers are views recomputed per query
(``obt_trips.sql``, ``int_trips_validated.sql``).  Here a derived table
is a 1:1 row transform of lake state that, after the initial build, is
maintained by running the transform ONLY over rows whose LWW winner
changed since the table's last refresh — the point of an incremental
model when the transform is the expensive part (enrichment joins,
scoring, tokenization).

How it scales / stays correct:

- Conversations are partition-local (the lake hash-partitions on
  ``conv_id``), so the table is one consumer of the shared consumer
  ledger (:mod:`state.consumer`), which owns staleness, the commit
  and crash-resume; this module only builds a stale partition
  (:func:`build_derived`).  The changed-key set comes
  from the engine's diff machinery (before/after winner compare,
  ``engine.diff_states``), the full-schema after rows are fetched
  from current state by a vectorized key semi-join (so evolved columns
  flow through without the transform contract changing), and the old
  derived file is patched: drop changed keys, append
  ``transform(changed rows)``, keep everything else byte-identical.
- Transform cost is O(|changed rows|); the per-partition rewrite is
  O(|partition|) I/O, the floor any immutable columnar format imposes.
- The patch step is idempotent — "set changed keys to
  transform(current state)" applied twice yields the same bytes — so a
  crash between the data write and the ledger's commit just re-patches.
- The before-state is the partition read in the lake log truncated to
  the stored watermark, a log position, so a late group committed below
  larger group ids is diffed too.  If a compaction folded past that
  position (diff history folded away), the partition falls back to a
  full rebuild — the same re-sync rule ``changes()`` documents.

The transform contract: ``transform(state: pa.Table) -> pa.Table`` where
``state`` has the merged transcript schema (``conv_id, turn_idx, role,
text, tool, ts, lsn`` + any evolved columns) and the output MUST retain
``conv_id`` and ``turn_idx`` (the key the patch step addresses rows by)
and must be deterministic and 1:1 (no fan-out; use the corpus pipelines
for reshaping ops).  It must accept an empty input table.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from nyc_taxi_data_pipeline_ray import schemas
from nyc_taxi_data_pipeline_ray.engine import diff_states, read_partition_state
from nyc_taxi_data_pipeline_ray.state.consumer import ConsumerLedger
from nyc_taxi_data_pipeline_ray.state.manifest import read_log

KEY = ("conv_id", "turn_idx")

#: Input schema the transform sees when a partition is empty.
_empty_state = schemas.empty_state


def _key_of(t: pa.Table) -> pa.Array:
    """Composite key as one string column, length-prefixed so the
    encoding is injective for ANY conv_id content (``len:conv:turn`` —
    the prefix pins where conv ends, so no separator collision)."""
    conv = pc.cast(t["conv_id"], pa.string())
    k = pc.binary_join_element_wise(
        pc.cast(pc.utf8_length(conv), pa.string()),
        conv,
        pc.cast(t["turn_idx"], pa.string()),
        ":",
    )
    return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k


def build_derived(
    cls, transform, lake_path: str, pid: int, old: int | None, prev_path: str
) -> tuple[pa.Table, int]:
    """Consumer build step for :class:`DerivedTable` (granularity knobs
    from ``cls``): patch the previous output by the keys whose LWW
    winner changed since log position ``old``, or rebuild in full on a
    first build or when a compaction folded past ``old``.  Work =
    transform input rows (output rows when ``cls._COUNT_OUTPUT``)."""
    now = read_partition_state(lake_path, pid)
    if now is None:
        now = _empty_state()
    before = None
    if old is not None:
        try:
            before = read_partition_state(lake_path, pid, log=read_log(lake_path).upto(int(old)))
        except Exception:
            before = None  # folded past the watermark: full rebuild
    if before is None:
        derived = transform(now)
        n_work = derived.num_rows if cls._COUNT_OUTPUT else now.num_rows
    else:
        changed = cls._changed_keys(diff_states(before, now))
        prev = pq.read_table(prev_path)
        keep = prev.filter(
            pc.invert(pc.is_in(cls._match_key(prev), value_set=changed))
        )
        hit = now.filter(pc.is_in(cls._match_key(now), value_set=changed))
        patch = transform(hit)
        n_work = patch.num_rows if cls._COUNT_OUTPUT else hit.num_rows
        derived = pa.concat_tables([keep, patch], promote_options="default")
    return derived.sort_by(list(cls._SORT_KEYS)).combine_chunks(), n_work


class DerivedTable:
    """Keyed derived table kept in sync with the lake by row-level
    incremental transform (see module docstring).

    :class:`CorpusTable` shares this implementation; the granularity
    knobs are class attributes — ``_changed_keys`` (diff rows -> the
    key values to re-derive), ``_match_key`` (a table -> the column the
    patch filters on), ``_SORT_KEYS`` (deterministic output order),
    ``_COUNT_OUTPUT`` (witness counts transform OUTPUT rows instead of
    input rows) and the witness field/report names."""

    _SORT_KEYS = (("conv_id", "ascending"), ("turn_idx", "ascending"))
    _WITNESS_FIELD = "transformed"
    _REPORT_KEY = "transformed_rows"
    _COUNT_OUTPUT = False

    @staticmethod
    def _changed_keys(d: pa.Table) -> pa.Array:
        return _key_of(d) if d.num_rows else pa.array([], pa.string())

    @staticmethod
    def _match_key(t: pa.Table):
        return _key_of(t)

    def __init__(self, engine, path: str, transform, name: str = "derived"):
        self.engine = engine
        self.path = path
        self.transform = transform
        self.name = name
        self.ledger = ConsumerLedger(engine, path)

    def refresh(self) -> dict:
        """Bring the derived table up to the lake ledger.  Returns
        ``{"refreshed", "reused", <witness>, "rows"}`` where the
        witness (``transformed_rows`` here, ``rendered_convs`` for
        :class:`CorpusTable`) is the incrementality guarantee: on a
        second refresh after a small epoch it counts only the changed
        work, not the table size."""
        cls = type(self)
        return self.ledger.refresh(
            functools.partial(build_derived, cls, self.transform),
            witness=(cls._WITNESS_FIELD, cls._REPORT_KEY),
        )

    def read(self) -> rd.Dataset:
        """The derived table as a streaming Dataset (committed
        partitions only)."""
        return self.ledger.read(self.transform(_empty_state()))

    def table(self) -> pa.Table:
        """Materialized, key-sorted derived table (tests / small lakes)."""
        t = self.ledger.table(self.transform(_empty_state()))
        return t.sort_by(list(type(self)._SORT_KEYS)).combine_chunks()


def enrich_turns(state: pa.Table) -> pa.Table:
    """The stock enrichment transform — the OBT/validated-layer analog
    (``int_trips_validated.sql:46-69`` derived parts + flags): per-turn
    char count, hour-of-day, user flag, display form.  Pure vectorized
    Arrow kernels; used by the ``derived_enriched`` oracle query and as
    the default model in tests."""
    text = pc.fill_null(state["text"], "")
    return pa.table(
        {
            "conv_id": state["conv_id"],
            "turn_idx": state["turn_idx"],
            "role": state["role"],
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "ts_hour": pc.cast(pc.hour(state["ts"]), pa.int64()),
            "is_user": pc.equal(state["role"], "user"),
            "text_upper": pc.utf8_upper(text),
            "lsn": state["lsn"],
        }
    )


def render_conversations(state: pa.Table) -> pa.Table:
    """Group-granular stock transform: one training DOCUMENT per
    conversation (turns newline-joined in turn order) + turn/char
    counts — the corpus-assembly shape (`q_conversation_text`)
    downstream chunking/dedup/quality scoring consume.  Vectorized:
    one sort + pandas groupby-join per call, never per-conversation
    Python."""
    import pandas as pd

    if state.num_rows == 0:
        return pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "doc": pa.array([], pa.string()),
                "n_turns": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
            }
        )
    g = (
        pa.table(
            {
                "conv_id": state["conv_id"],
                "turn_idx": state["turn_idx"],
                "text": pc.fill_null(state["text"], ""),
            }
        )
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
    )
    gb = g.groupby("conv_id", sort=True)
    doc = gb["text"].agg("\n".join)
    return pa.table(
        {
            "conv_id": pa.array(doc.index.to_numpy(object), pa.string()),
            "doc": pa.array(doc.to_numpy(object), pa.string()),
            "n_turns": pa.array(gb.size().to_numpy().astype(np.int64), pa.int64()),
            "n_chars": pa.array(
                doc.str.len().to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


class CorpusTable(DerivedTable):
    """GROUP-granular incremental derived table: one output row per
    CONVERSATION, re-rendered only for conversations whose turn set
    changed — the incremental corpus-refresh bridge (continuous
    pretraining-data maintenance: an epoch that touches 0.1% of
    conversations re-renders 0.1% of documents, not the corpus).

    The machinery IS :class:`DerivedTable` (diff-driven staleness,
    partition-local work, idempotent tmp+rename patch, full-rebuild
    fallback once a compaction folded past the watermark) with the
    granularity knobs retuned: the changed-key set from the diff is
    projected to distinct ``conv_id``s, ALL current rows of those
    conversations are re-read (a group transform needs the whole group,
    not just changed turns), the per-partition corpus file is patched by
    conv_id, and the witness (``rendered_convs``) counts transform
    OUTPUT rows — documents rendered, not turns read.  ``transform`` maps a state
    subset to one row per conv_id present."""

    _SORT_KEYS = (("conv_id", "ascending"),)
    _WITNESS_FIELD = "rendered"
    _REPORT_KEY = "rendered_convs"
    _COUNT_OUTPUT = True

    @staticmethod
    def _changed_keys(d: pa.Table) -> pa.Array:
        return pc.unique(d["conv_id"]) if d.num_rows else pa.array([], pa.string())

    @staticmethod
    def _match_key(t: pa.Table):
        return t["conv_id"]

    def __init__(self, engine, path: str, transform=render_conversations):
        super().__init__(engine, path, transform, name="corpus")
