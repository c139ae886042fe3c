"""Deterministic seeded WAL generator (synthetic transcript change-log).

Analog of the reference's simulator sources: the Parquet replay
simulator (``streaming/simulator/stream_from_parquet.py:64-146``) and
the random normal/fraud event generators
(``streaming/simulator/send_trips.py:16-65``) — re-expressed as a
vectorized, seed-stable producer of change events
``(lsn, op, epoch, conv_id, turn_idx, role, text, tool, ts[, model])``
written as one-or-more Parquet segment files per epoch
(``wal_dir/epoch=NNNNNN/part-KKKK.parquet``).

Knobs (FIXTURES.md F2): ``ooo_fraction`` (ts order != lsn order),
``dup_fraction`` (exact duplicate delivery, mirroring the reference's
non-unique trip_id, ``nyc_taxi_dbt/models/staging/schema.yml:8``),
``zipf_s`` (hot-conversation skew, the Kafka hot-partition analog,
``streaming/api/kafka_producer.py:44``), ``evolve_at_epoch`` (schema v2:
add ``model`` column + widen ``turn_idx`` to int64), ``invalid_fraction``
(rows violating validation, the Pydantic-reject /
``ON_ERROR='CONTINUE'`` analog, ``streaming/api/schemas.py:7-34``).

All randomness derives from ``np.random.default_rng([seed, epoch])`` —
no wall clock, no global RNG state.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nyc_taxi_data_pipeline_ray import io as nio
from nyc_taxi_data_pipeline_ray import schemas

BASE_TS_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z in microseconds
EPOCH_SPAN_US = 300_000_000  # 5 minutes of event time per epoch

TOOL_VOCAB = [
    "search", "browser", "python", "bash", "calculator", "calendar",
    "email", "files", "sql", "weather", "translate", "maps",
]

_WORDS = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua enim ad minim veniam "
    "quis nostrud exercitation ullamco laboris nisi aliquip ex ea commodo "
    "consequat duis aute irure in reprehenderit voluptate velit esse cillum "
    "fugiat nulla pariatur excepteur sint occaecat cupidatat non proident "
    "sunt culpa qui officia deserunt mollit anim id est laborum"
).split()


def _text_pool(seed: int, size: int = 4096) -> np.ndarray:
    """Seed-stable pool of lorem strings, 10-2000 chars each."""
    rng = np.random.default_rng([seed, 0xF00D])
    words = np.array(_WORDS)
    out = []
    for _ in range(size):
        n = int(rng.integers(2, 320))
        out.append(" ".join(words[rng.integers(0, len(words), n)])[:2000])
    return np.array(out, dtype=object)


@dataclass
class WalSpec:
    """Shape of a synthetic WAL."""

    seed: int = 42
    num_conversations: int = 1000
    max_turns: int = 64
    num_epochs: int = 4
    events_per_epoch: int = 5000
    p_update: float = 0.25
    p_delete: float = 0.05
    ooo_fraction: float = 0.05
    dup_fraction: float = 0.02
    invalid_fraction: float = 0.0
    zipf_s: float = 0.0  # 0 = uniform conversation popularity
    evolve_at_epoch: int | None = None
    rows_per_file: int = 250_000
    extra: dict = field(default_factory=dict)


class WalGenerator:
    """Materializes a :class:`WalSpec` as Parquet epoch segments."""

    def __init__(self, spec: WalSpec):
        self.spec = spec
        rng = np.random.default_rng([spec.seed, 0xBEEF])
        # conversation sizes: 1..max_turns uniform; a Zipf popularity weight
        # decides how often each conversation is *touched* by events.
        self.n_turns = rng.integers(1, spec.max_turns + 1, spec.num_conversations)
        if spec.zipf_s > 0:
            ranks = np.arange(1, spec.num_conversations + 1, dtype=np.float64)
            w = ranks ** (-spec.zipf_s)
            self.conv_weights = w / w.sum()
        else:
            self.conv_weights = None
        self.pool = _text_pool(spec.seed)

    # -- column builders ---------------------------------------------------

    def _epoch_table(self, epoch: int) -> pa.Table:
        sp = self.spec
        rng = np.random.default_rng([sp.seed, epoch])
        n = sp.events_per_epoch
        lsn0 = 1 + epoch * n

        if self.conv_weights is not None:
            conv = rng.choice(sp.num_conversations, size=n, p=self.conv_weights)
        else:
            conv = rng.integers(0, sp.num_conversations, n)
        turn = (rng.random(n) * self.n_turns[conv]).astype(np.int64)

        u = rng.random(n)
        op = np.where(
            u < sp.p_delete, "delete", np.where(u < sp.p_delete + sp.p_update, "update", "insert")
        )
        lsn = lsn0 + np.arange(n, dtype=np.int64)

        # event time: advances with lsn plus jitter; ooo events jump backwards
        ts = (
            BASE_TS_US
            + epoch * EPOCH_SPAN_US
            + (np.arange(n, dtype=np.int64) * (EPOCH_SPAN_US // max(n, 1)))
            + rng.integers(0, 1000, n)
        )
        ooo = rng.random(n) < sp.ooo_fraction
        ts[ooo] -= rng.integers(EPOCH_SPAN_US // 2, EPOCH_SPAN_US, int(ooo.sum()))

        # role is a stable function of the key (a turn's role never changes):
        # turn 0 of every 16th conversation is system; otherwise alternate
        # user/assistant with ~8% tool turns.
        key_h = (conv * 1_000_003 + turn * 7919) & 0x7FFFFFFF
        role = np.where(turn % 2 == 0, "user", "assistant")
        role = np.where((turn == 0) & (conv % 16 == 0), "system", role)
        role = np.where((key_h % 12 == 0) & (turn > 0), "tool", role)

        tool_idx = key_h % len(TOOL_VOCAB)
        tool = np.array(TOOL_VOCAB, dtype=object)[tool_idx]
        has_tool = (role == "tool") | ((role == "assistant") & (key_h % 10 < 2))

        text = self.pool[(key_h + lsn) % len(self.pool)].copy()

        conv_id = np.char.mod("c%08d", conv).astype(object)

        is_del = op == "delete"
        if sp.invalid_fraction > 0:
            # expected validity is NOT emitted as a column: the oracle
            # and stages.validate re-derive it from the corrupted values
            # themselves, so the generator can't accidentally agree with
            # the validator by construction
            bad = rng.random(n) < sp.invalid_fraction
            kind = rng.integers(0, 3, n)
            conv_id = conv_id.astype(object)
            conv_id[bad & (kind == 0)] = None
            turn = turn.copy()
            turn[bad & (kind == 1)] = -1
            role = role.astype(object)
            role[bad & (kind == 2) & ~is_del] = "robot"

        # per-write-unique payload: " #<lsn>" suffix catches any wrong LWW
        # winner in the text-equality oracle.  Concat in Arrow (var-length)
        # — np.char on 2000-char strings allocates GBs of fixed-width U2000.
        text_full = pc.binary_join_element_wise(
            pa.array(text, pa.string()),
            pc.cast(pa.array(lsn), pa.string()),
            " #",
        )
        text_col = pc.if_else(pa.array(~is_del), text_full, pa.scalar(None, pa.string()))

        arrays: dict[str, pa.Array] = {
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(op.astype(object), pa.string()),
            "epoch": pa.array(np.full(n, epoch, np.int32), pa.int32()),
            "conv_id": pa.array(conv_id, pa.string()),
            "turn_idx": pa.array(turn, pa.int32() if not self._evolved(epoch) else pa.int64()),
            "role": pa.array(np.where(is_del, None, role), pa.string()),
            "text": text_col,
            "tool": pa.array(np.where(is_del | ~has_tool, None, tool), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
        if self._evolved(epoch):
            model = np.where(
                (role == "assistant") & ~is_del,
                np.char.mod("m-%d", key_h % 5).astype(object),
                None,
            )
            arrays["model"] = pa.array(model, pa.string())
        t = pa.table(arrays)

        if sp.dup_fraction > 0:
            k = int(n * sp.dup_fraction)
            if k:
                dup_idx = rng.integers(0, n, k)
                t = pa.concat_tables([t, t.take(pa.array(dup_idx, pa.int64()))])

        # shuffle arrival order within the epoch (lsn still records commit order)
        perm = rng.permutation(t.num_rows)
        return t.take(pa.array(perm, pa.int64()))

    def _evolved(self, epoch: int) -> bool:
        e = self.spec.evolve_at_epoch
        return e is not None and epoch >= e

    # -- output ------------------------------------------------------------

    def write(self, wal_dir: str) -> list[str]:
        """Write all epochs; returns the epoch directories. Idempotent."""
        dirs = []
        for epoch in range(self.spec.num_epochs):
            dirs.append(self.write_epoch(wal_dir, epoch))
        return dirs

    def write_epoch(self, wal_dir: str, epoch: int) -> str:
        t = self._epoch_table(epoch)
        d = os.path.join(wal_dir, f"epoch={epoch:06d}")
        # wipe, don't layer: a previous run with a different spec (e.g.
        # smaller rows_per_file) may have left MORE part files than this
        # write produces; a glob reader would ingest those stale events
        # alongside the fresh ones.  Rewriting from scratch is what
        # "idempotent" promises.
        shutil.rmtree(d, ignore_errors=True)
        rpf = self.spec.rows_per_file
        for i, start in enumerate(range(0, t.num_rows, rpf)):
            # small row groups so Ray's parquet reader can split one
            # segment file across many read tasks (a 250k-row single
            # group is one indivisible ~450 MB decompress unit); lz4
            # segments decode ~2.2x faster than snappy at +15% size —
            # the WAL writer is the Kafka-producer analog, so the
            # segment codec is this engine's choice
            nio.commit_file(
                os.path.join(d, f"part-{i:04d}.parquet"),
                lambda tmp: pq.write_table(
                    t.slice(start, rpf), tmp, row_group_size=16384, compression="lz4"
                ),
            )
        return d

    def events_table(self) -> pa.Table:
        """All epochs as one in-memory table (tests / oracle input)."""
        tables = [self._epoch_table(e) for e in range(self.spec.num_epochs)]
        uni = schemas.unify(*[t.schema for t in tables])
        return pa.concat_tables(
            [t.cast(pa.schema([uni.field(n) for n in t.schema.names])) for t in tables],
            promote_options="permissive",
        )
