"""Ray-Data-native CDC / incremental-ingest engine over transcript tables.

A from-scratch re-expression of the capabilities of
``abdulrahman532/nyc-taxi-data-pipeline`` (reference at /root/reference,
cited by file:line throughout) on top of ``ray.data.Dataset`` pipelines:

- change-log (WAL) replay -> keyed last-writer-wins upsert into a
  hash-partitioned Parquet lake (replaces dbt incremental merge,
  reference ``nyc_taxi_dbt/models/marts/core/fct_trips.sql:1-13``),
- exactly-once epoch commits via one commit log per lake (replaces the
  S3-existence sync ledger, ``airflow/dags/scripts/sync_manager.py:24-58``),
- schema evolution by Arrow schema unification (replaces Snowflake
  ``ENABLE_SCHEMA_EVOLUTION``, ``snowflake/setup.sql:58-61``),
- derived marts / insight pipelines and a vectorized per-event scorer
  (replace the dbt gold layer and the Spark fraud UDF,
  ``streaming/spark/fraud_detector.py:221-304``).
"""

from nyc_taxi_data_pipeline_ray.config import LakeConfig
from nyc_taxi_data_pipeline_ray.engine import CdcEngine
from nyc_taxi_data_pipeline_ray.state.manifest import LakeLayoutError

__all__ = ["LakeConfig", "CdcEngine", "LakeLayoutError"]
__version__ = "0.1.0"
