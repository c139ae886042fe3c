"""Lake configuration.

The partition count is the engine's one fixed physical choice (the
analog of the reference's Kafka partition-by-PULocationID layout,
``streaming/api/kafka_producer.py:44``): every row lives in partition
``hash(conv_id) % num_partitions``, chosen once at lake creation and
persisted in ``_lake.json`` so replays and resumes agree.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from nyc_taxi_data_pipeline_ray import io as nio


@dataclass
class LakeConfig:
    path: str
    #: hash partitions on conv_id; sized so one partition's hot set fits a
    #: worker heap at target scale (100 TB / 4096 partitions ~ 25 GB raw,
    #: ~few GB hot per epoch).  Tests use 8-16.
    num_partitions: int = 16
    #: compact a partition once it accumulates this many delta runs
    #: (LSM-style; bounds read amplification of snapshots).
    max_delta_runs: int = 8
    #: pre-combine salting shards for hot keys: stage-1 combine on
    #: (partition, lsn % salt_shards) before the final per-partition merge.
    #: 1 = off (per-batch pre-combine alone is usually enough).
    salt_shards: int = 1
    #: rows per apply batch in map_batches stages.
    batch_size: int = 65536
    #: rows per Stage-A staging unit (a row-group-aligned slice of one WAL
    #: segment file processed by one Ray task).  ~128k rows of 2 KB text
    #: is ~256 MB in memory — sized so a unit plus its pid-split copy fits
    #: a worker heap comfortably.
    stage_unit_rows: int = 131072
    #: logical CPUs reserved per stage/merge task.  These tasks allocate
    #: hundreds of MB of transient Arrow buffers each; scheduling them at
    #: 1 CPU oversubscribes the node's memory bandwidth (32 concurrent
    #: ~1 GB-footprint tasks thrash page reclaim long before CPUs are the
    #: bottleneck).  2 halves concurrency per node while keeping all
    #: cores busy via Arrow kernels.
    task_cpus: int = 2
    #: row cap per row group of a lake run (base or delta).  Beside it,
    #: groups are bounded at ~512 KiB of Arrow data (engine._RUN_GROUP_BYTES),
    #: which is the bound that binds for 1-2 KB texts.  Runs are
    #: key-sorted, so bounded groups give parquet footer min/max stats real
    #: selectivity: a point lookup reads about one row group per run
    #: (engine.read_run_pruned), not the whole file.
    base_row_group_rows: int = 65536
    extra: dict = field(default_factory=dict)

    @property
    def meta_path(self) -> str:
        return os.path.join(self.path, "_lake.json")

    def save(self) -> None:
        """Publish ``_lake.json``: a commit marker (``reshard`` writes it
        last, as its completion marker)."""
        nio.commit_json(self.meta_path, asdict(self), indent=2)

    @classmethod
    def load(cls, path: str) -> "LakeConfig":
        with open(os.path.join(path, "_lake.json")) as f:
            data = json.load(f)
        data["path"] = path
        return cls(**data)

    @classmethod
    def open_or_create(cls, path: str, **kwargs) -> "LakeConfig":
        meta = os.path.join(path, "_lake.json")
        if os.path.exists(meta):
            return cls.load(path)
        cfg = cls(path=path, **kwargs)
        cfg.save()
        return cfg
