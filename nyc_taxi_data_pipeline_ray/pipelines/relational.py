"""Relational operator inventory over the driver's TPC-H-ish tables.

Each ``q_*`` function is one operator pattern from SURVEY.md §2, expressed
Ray-Data-first (columns pruned at the read, vectorized Arrow batch fns,
broadcast map-side joins for small sides, aggregate cascades instead of
count-distinct shuffles).  Each has a matching DuckDB oracle in
``oracle_sql()`` (see ``__ray_entry__.py``); result column names are kept
identical on both sides, aggregates are rounded identically so value
hashes match.

Reference analogs are cited per function (file:line into /root/reference).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from nyc_taxi_data_pipeline_ray.io import read_parquet_clean


def _rp(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_cols(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = df[c].round(nd)
    return df


def _combine(
    ds: rd.Dataset,
    partial,
    keys: list[str],
    merges: dict[str, tuple[str, str]],
) -> pd.DataFrame:
    """Map-side combiner for SMALL group cardinality (bands, hours,
    types, flags, days): ``partial`` reduces each Arrow block to one row
    per group (pyarrow ``Table.group_by`` — vectorized, zero Python
    rows), so only O(num_blocks x num_groups) partial rows ever leave
    the workers; the driver folds them with one in-memory groupby.  No
    distributed shuffle at all — this is the combiner half of the
    100 TB plan, where the same partials feed a tiny final reduce
    instead of an all-to-all exchange of raw rows.  High-cardinality
    keys must use the hash-bucket shuffle pattern instead (see
    q_top_routes / q_monthly_active_customers)."""
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return parts.groupby(keys, sort=True, as_index=False).agg(**merges)


# --------------------------------------------------------------------------
# P1/P4/P8: projection + filter + vectorized arithmetic
# (reference: stg_trips.sql:15-39 rename/select/null-drop;
#  int_trips_validated.sql:50-55 derived math)
def q_filter_project(sf_dir: str) -> rd.Dataset:
    ds = _rp(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1995-09-01"), pa.timestamp("us"))),
                pc.greater(t["l_quantity"], 0.0),
            )
        )
        revenue = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "l_quantity": t["l_quantity"],
                "revenue": revenue,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# --------------------------------------------------------------------------
# A1: grouped rollup with sums/means/counts (agg_monthly.sql:3-46; TPC-H Q1 shape)
def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    ds = _rp(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("disc_price", disc_price)
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"), ("disc_price", "sum"), ([], "count_all")]
        )

    out = _combine(
        ds,
        partial,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity_sum", "sum"),
            "sum_base_price": ("l_extendedprice_sum", "sum"),
            "sum_disc_price": ("disc_price_sum", "sum"),
            "count_order": ("count_all", "sum"),
        },
    )
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    out["avg_price"] = out["sum_base_price"] / out["count_order"]
    out = _round_cols(
        out,
        {"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2, "avg_qty": 4, "avg_price": 4},
    )
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
            "sum_disc_price", "avg_qty", "avg_price", "count_order"]
    return out[cols].sort_values(["l_returnflag", "l_linestatus"], ignore_index=True)


# --------------------------------------------------------------------------
# A2/A3: partial->final aggregate cascade + YoY lag (agg_yearly.sql:3-25)
def q_orders_yearly(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        t = pa.table(
            {"o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int32()), "o_totalprice": t["o_totalprice"]}
        )
        return t.group_by("o_year").aggregate([("o_totalprice", "sum"), ([], "count_all")])

    df = _combine(
        ds,
        partial,
        ["o_year"],
        {"n_orders": ("count_all", "sum"), "sum_total": ("o_totalprice_sum", "sum")},
    )
    df["sum_total"] = df["sum_total"].round(2)
    prev = df["sum_total"].shift(1)
    df["yoy_pct"] = (((df["sum_total"] - prev) / prev) * 100).round(2)
    return df


# --------------------------------------------------------------------------
# A4/O3: group -> having -> top-k with deterministic tiebreak
# (insight_route_pricing.sql:3-19: route agg, count>=500, rank, limit 100)
def q_top_routes(sf_dir: str) -> pd.DataFrame:
    """Map-side partial (sum, count) per block, then one hash-bucket
    shuffle on a single small-int key instead of a sort shuffle on the
    high-cardinality (suppkey, partkey) composite: each bucket task
    finalizes its keys (having + avg + partial top-100) and the driver
    merges at most 100 x n_buckets rows.  At cluster scale the
    bucket count is the shuffle width knob; the per-key partials keep
    the exchanged bytes proportional to distinct keys, not input rows."""
    ds = _rp(sf_dir, "lineitem", ["l_suppkey", "l_partkey", "l_extendedprice", "l_discount"])
    n_buckets = 32

    def pre(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        df = pd.DataFrame(
            {
                "l_suppkey": t["l_suppkey"].to_numpy(),
                "l_partkey": t["l_partkey"].to_numpy(),
                "revenue": rev.to_numpy(),
            }
        )
        g = (
            df.groupby(["l_suppkey", "l_partkey"], sort=False)
            .agg(n_lines=("revenue", "size"), sum_revenue=("revenue", "sum"))
            .reset_index()
        )
        g["bucket"] = (
            (g["l_suppkey"].to_numpy(np.uint64) * np.uint64(1000003) + g["l_partkey"].to_numpy(np.uint64))
            % n_buckets
        ).astype(np.int8)
        return pa.Table.from_pandas(g, preserve_index=False)

    out_cols = ["l_suppkey", "l_partkey", "n_lines", "avg_revenue"]
    out_types = {"l_suppkey": "int64", "l_partkey": "int64", "n_lines": "int64", "avg_revenue": "float64"}

    def bucket_top(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["l_suppkey", "l_partkey"], sort=False)
            .agg(n_lines=("n_lines", "sum"), sum_revenue=("sum_revenue", "sum"))
            .reset_index()
        )
        g = g[g["n_lines"] >= 5].copy()
        g["avg_revenue"] = (g["sum_revenue"] / g["n_lines"]).round(2)
        top = g.sort_values(
            ["avg_revenue", "l_suppkey", "l_partkey"], ascending=[False, True, True]
        ).head(100)[out_cols]
        return top.astype(out_types)

    df = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_top, batch_format="pandas")
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in out_types.items()})
    return df.sort_values(
        ["avg_revenue", "l_suppkey", "l_partkey"], ascending=[False, True, True], ignore_index=True
    ).head(100)


# --------------------------------------------------------------------------
# J1: multi-way broadcast map-side join (obt_trips.sql:23-28)
def q_obt_enriched(sf_dir: str) -> rd.Dataset:
    from nyc_taxi_data_pipeline_ray.io import collect_table

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

    # pre-join the dim chain driver-side (supplier->nation->region is tiny),
    # then broadcast the two lookup tables once via ray.put
    supp_t = collect_table(_rp(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"]))
    nation_t = collect_table(_rp(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]))
    region_t = collect_table(_rp(sf_dir, "region", ["r_regionkey", "r_name"]))
    part_t = collect_table(_rp(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]))
    sn = supp_t.join(nation_t, keys="s_nationkey", right_keys="n_nationkey")
    snr = sn.join(region_t, keys="n_regionkey", right_keys="r_regionkey")
    snr = snr.select(["s_suppkey", "s_name", "n_name", "r_name"])
    part_ref = ray.put(part_t)
    snr_ref = ray.put(snr)

    def enrich(t: pa.Table) -> pa.Table:
        # plain task pool: the broadcast dim tables resolve from the
        # LOCAL object store via shared memory on every call (zero-copy
        # Arrow), so there is no per-actor spin-up and concurrency
        # follows the CPU count instead of a fixed pool size
        part = ray.get(part_ref)
        snr_l = ray.get(snr_ref)
        pidx = pc.index_in(t["l_partkey"], value_set=part["p_partkey"])
        sidx = pc.index_in(t["l_suppkey"], value_set=snr_l["s_suppkey"])
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "p_brand": pc.take(part["p_brand"], pidx),
                "p_type": pc.take(part["p_type"], pidx),
                "s_name": pc.take(snr_l["s_name"], sidx),
                "nation_name": pc.take(snr_l["n_name"], sidx),
                "region_name": pc.take(snr_l["r_name"], sidx),
            }
        )

    return li.map_batches(enrich, batch_format="pyarrow")


# --------------------------------------------------------------------------
# J (large-large): partitioned hash join lineitem x orders via Dataset.join
def q_lineitem_orders_join(sf_dir: str) -> pd.DataFrame:
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def pre(t: pa.Table) -> pa.Table:
        # pre-aggregate before the shuffle: the downstream rollup is
        # additive over o_orderstatus, so per-block (orderkey -> sum, n)
        # partials join identically and the exchange ships one row per
        # distinct orderkey per block instead of one per line item
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})
        return t.group_by("l_orderkey").aggregate([("revenue", "sum"), ([], "count_all")])

    li = li.map_batches(pre, batch_format="pyarrow")
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def post(t: pa.Table) -> pa.Table:
        return t.group_by("o_orderstatus").aggregate(
            [("revenue_sum", "sum"), ("count_all", "sum")]
        )

    df = _combine(
        joined,
        post,
        ["o_orderstatus"],
        {"n_lines": ("count_all_sum", "sum"), "sum_revenue": ("revenue_sum_sum", "sum")},
    )
    df["sum_revenue"] = df["sum_revenue"].round(2)
    return df.sort_values("o_orderstatus", ignore_index=True)


# --------------------------------------------------------------------------
# A1 count-distinct: bucketed aggregate cascade (agg_monthly.sql:9).
# Map-side (month, custkey) dedup per block, then ONE shuffle on a
# custkey-hash bucket: each custkey lands in exactly one bucket, so the
# per-bucket distinct counts are additive per month and the driver only
# merges n_buckets x n_months partial rows (vs two full sort shuffles on
# the high-cardinality (month, custkey) composite).
def q_monthly_active_customers(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_custkey"])
    n_buckets = 32

    def pre(t: pa.Table) -> pa.Table:
        m = pc.strftime(t["o_orderdate"], format="%Y-%m")
        df = pd.DataFrame({"o_month": m.to_pandas(), "o_custkey": t["o_custkey"].to_numpy()})
        g = df.groupby(["o_month", "o_custkey"], sort=False).size().reset_index(name="n")
        g["bucket"] = (g["o_custkey"].to_numpy(np.uint64) % n_buckets).astype(np.int8)
        return pa.Table.from_pandas(g, preserve_index=False)

    def bucket_agg(df: pd.DataFrame) -> pd.DataFrame:
        pairs = df.groupby(["o_month", "o_custkey"], sort=False)["n"].sum().reset_index()
        out = (
            pairs.groupby("o_month", sort=False)
            .agg(active_customers=("o_custkey", "size"), n_orders=("n", "sum"))
            .reset_index()
        )
        return out.astype({"active_customers": "int64", "n_orders": "int64"})

    df = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_agg, batch_format="pandas")
        .to_pandas()
    )
    df = (
        df.groupby("o_month", sort=True)
        .agg(active_customers=("active_customers", "sum"), n_orders=("n_orders", "sum"))
        .reset_index()
    )
    return df


# --------------------------------------------------------------------------
# A1 conditional (FILTER) aggregates as masked columns (agg_monthly.sql:16-23)
def q_conditional_aggregates(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount", "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.cast(pc.greater(t["l_discount"], 0.05), pa.int64())
        qty_hi_tax = pc.if_else(pc.greater(t["l_tax"], 0.04), t["l_quantity"], pa.scalar(0.0))
        t = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "discounted": disc,
                "qty_high_tax": qty_hi_tax,
            }
        )
        return t.group_by("l_returnflag").aggregate(
            [("discounted", "sum"), ("qty_high_tax", "sum"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["l_returnflag"],
        {
            "n_lines": ("count_all", "sum"),
            "n_discounted": ("discounted_sum", "sum"),
            "qty_high_tax": ("qty_high_tax_sum", "sum"),
        },
    )
    df["qty_high_tax"] = df["qty_high_tax"].round(2)
    df["discount_share_pct"] = (df["n_discounted"] / df["n_lines"] * 100).round(2)
    return df.sort_values("l_returnflag", ignore_index=True)


# --------------------------------------------------------------------------
# P10/A14: CASE bucketing + counts (int_trips_validated.sql:61-69 time-of-day;
# dashboard risk bands 2_🔍_Fraud_Monitor.py:58-69)
def q_value_bands(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["value", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        band = np.select([v < 10, v < 25, v < 50], ["low", "mid", "high"], default="extreme")
        t = pa.table({"band": pa.array(band), "value": t["value"]})
        return t.group_by("band").aggregate([("value", "sum"), ([], "count_all")])

    df = _combine(
        ds, partial, ["band"], {"n": ("count_all", "sum"), "sum_value": ("value_sum", "sum")}
    )
    df["sum_value"] = df["sum_value"].round(2)
    return df.sort_values("band", ignore_index=True)


# --------------------------------------------------------------------------
# A11/A13: per-hour grouped counters (fraud_detector.py:159-179 hourly stats)
def q_hourly_events(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        t = pa.table({"hour": pc.cast(pc.hour(t["ts"]), pa.int32()), "value": t["value"]})
        return t.group_by("hour").aggregate([("value", "sum"), ([], "count_all")])

    df = _combine(
        ds, partial, ["hour"], {"n_events": ("count_all", "sum"), "sum_value": ("value_sum", "sum")}
    )
    df["sum_value"] = df["sum_value"].round(2)
    return df


# --------------------------------------------------------------------------
# A11 value_counts analog (fraud_detector.py:168-179 zone/payment counts)
def q_event_type_stats(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by("event_type").aggregate(
            [("value", "sum"), ("value", "min"), ("value", "max"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["event_type"],
        {
            "n": ("count_all", "sum"),
            "sum_value": ("value_sum", "sum"),
            "min_value": ("value_min", "min"),
            "max_value": ("value_max", "max"),
        },
    )
    df["avg_value"] = (df["sum_value"] / df["n"]).round(4)
    return df[["event_type", "n", "avg_value", "min_value", "max_value"]].sort_values(
        "event_type", ignore_index=True
    )


# --------------------------------------------------------------------------
# ST1 analog over the driver's events table: CDC-style last-writer-wins
# upsert keyed by (user_id, event_type), LWW on (ts, event_id)
# (fct_trips.sql:1-7 merge; our engine's keyed merge as a pure Dataset op)
def _lww_combine(t: pa.Table) -> pa.Table:
    """Keep the last-writer row per (user_id, event_type) — LWW on
    (ts, event_id) — via one vectorized sort + boundary filter."""
    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("user_id", "ascending"),
            ("event_type", "ascending"),
            ("ts", "ascending"),
            ("event_id", "ascending"),
        ],
    )
    t = t.take(idx)
    n = t.num_rows
    if n == 0:
        return t
    u = t["user_id"].combine_chunks()
    e = t["event_type"].combine_chunks()
    same = pc.and_(
        pc.equal(u.slice(0, n - 1), u.slice(1)), pc.equal(e.slice(0, n - 1), e.slice(1))
    ).to_numpy(zero_copy_only=False)
    mask = np.empty(n, bool)
    mask[-1] = True
    mask[:-1] = ~same.astype(bool)
    return t.filter(pa.array(mask))


def q_cdc_upsert_events(sf_dir: str) -> rd.Dataset:
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    # per-batch combine (combiner), then per-key-group final resolve:
    # one shuffle on user_id, exactly the engine's apply topology
    return (
        ds.map_batches(_lww_combine, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(_lww_combine, batch_format="pyarrow")
    )


def _half_max_event_id(sf_dir: str) -> int:
    """Epoch-boundary stand-in for time travel over the events table:
    half the max event_id — from parquet FOOTER statistics (no scan),
    falling back to a per-block partial-max fold."""
    mm = _footer_min_max(sf_dir, "events", "event_id")
    if mm is not None:
        return int(mm[1]) // 2
    ds = _rp(sf_dir, "events", ["event_id"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"mx": pa.array([pc.max(t["event_id"]).as_py()], pa.int64())})

    mx = ds.map_batches(partial, batch_format="pyarrow").to_pandas()["mx"].max()
    return int(mx) // 2


# --------------------------------------------------------------------------
# §2.9 time travel, driver-visible: the keyed LWW state AS OF an epoch
# boundary (the query-level analog of the engine's ``as_of_epoch``,
# engine.py ``as_of``/``changes``; reference analog: re-running the
# dbt snapshot on a frozen raw set).  Boundary = half the max event_id.
def q_cdc_as_of(sf_dir: str) -> rd.Dataset:
    cutoff = _half_max_event_id(sf_dir)
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def pre(t: pa.Table) -> pa.Table:
        return _lww_combine(t.filter(pc.less(t["event_id"], cutoff)))

    return ds.map_batches(pre, batch_format="pyarrow").groupby("user_id").map_groups(
        _lww_combine, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# §2.9 change-data feed, driver-visible: what changed between the as-of
# state and the current state (the engine's ``changes()`` as a pure
# Dataset op).  ONE shuffle on user_id; the map-side combiner keeps at
# most two rows per key per block (LWW overall + LWW below the cutoff),
# so the exchange ships key-class rows, not raw events.
def q_cdc_changes_feed(sf_dir: str) -> rd.Dataset:
    cutoff = _half_max_event_id(sf_dir)
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def pre(t: pa.Table) -> pa.Table:
        cur = _lww_combine(t)
        base = _lww_combine(t.filter(pc.less(t["event_id"], cutoff)))
        both = pa.concat_tables([cur, base])
        # drop exact duplicates (a key whose LWW is already below cutoff)
        return _dedupe_rows(both)

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "ts", "event_id"], kind="mergesort")
        cur = df.drop_duplicates("event_type", keep="last")
        below = df[df["event_id"] < cutoff]
        base = below.drop_duplicates("event_type", keep="last")
        m = cur.merge(
            base[["event_type", "event_id"]], on="event_type", how="left", suffixes=("", "_b")
        )
        changed = m["event_id_b"].isna() | (m["event_id_b"] != m["event_id"])
        out = m[changed].copy()
        out["change_type"] = np.where(out["event_id_b"].isna(), "insert", "update")
        return out[["user_id", "event_type", "event_id", "ts", "value", "change_type"]]

    return ds.map_batches(pre, batch_format="pyarrow").groupby("user_id").map_groups(
        diff, batch_format="pandas"
    )


def _dedupe_rows(t: pa.Table) -> pa.Table:
    """Drop fully-identical rows (vectorized: sort by all keys, keep
    boundary rows) — used by the changes-feed combiner."""
    if t.num_rows == 0:
        return t
    idx = pc.sort_indices(
        t, sort_keys=[("user_id", "ascending"), ("event_type", "ascending"), ("event_id", "ascending")]
    )
    t = t.take(idx)
    n = t.num_rows
    u = t["user_id"].to_numpy(zero_copy_only=False)
    e = t["event_type"].to_numpy(zero_copy_only=False).astype(object)
    i = t["event_id"].to_numpy(zero_copy_only=False)
    dup = np.zeros(n, bool)
    dup[1:] = (u[1:] == u[:-1]) & (e[1:] == e[:-1]) & (i[1:] == i[:-1])
    return t.filter(pa.array(~dup))


# --------------------------------------------------------------------------
# Windowed aggregate: per-user daily tumbling window (guide: groupby key +
# floor(ts/size); reference's 5s micro-batch counters, fraud_detector.py:129-143)
def q_user_daily_window(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["user_id", "ts", "value"])

    # high-cardinality (user, day) key: bucketed shuffle, not a sort
    n_buckets = 32

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        t = pa.table({"user_id": t["user_id"], "day": day, "value": t["value"]})
        g = t.group_by(["user_id", "day"]).aggregate([("value", "sum"), ([], "count_all")])
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return g.append_column("bucket", pa.array((uid % n_buckets).astype(np.int8)))

    def bucket_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["user_id", "day"], sort=False)
            .agg(n_events=("count_all", "sum"), sum_value=("value_sum", "sum"))
            .reset_index()
        )
        g["sum_value"] = g["sum_value"].round(2)
        return g.astype({"user_id": "int64", "n_events": "int64", "sum_value": "float64"})

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_agg, batch_format="pandas")
        .to_pandas()
    )
    return df.sort_values(["user_id", "day"], ignore_index=True)


# --------------------------------------------------------------------------
# O2/O3: top-k with deterministic tiebreak (insight_uber_effect.sql:4-11)
def q_top_spenders(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["user_id", "event_type", "value"])
    n_buckets = 32

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        g = t.group_by("user_id").aggregate([("value", "sum"), ([], "count_all")])
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return g.append_column("bucket", pa.array((uid % n_buckets).astype(np.int8)))

    def bucket_top(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket final combine + partial top-10 under the FINAL
        # total order; the driver merges 10 x n_buckets rows
        g = (
            df.groupby("user_id", sort=False)
            .agg(total_spend=("value_sum", "sum"), n_purchases=("count_all", "sum"))
            .reset_index()
        )
        g["total_spend"] = g["total_spend"].round(2)
        g = g.sort_values(["total_spend", "user_id"], ascending=[False, True]).head(10)
        return g.astype({"user_id": "int64", "total_spend": "float64", "n_purchases": "int64"})

    df = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_top, batch_format="pandas")
        .to_pandas()
    )
    return df.sort_values(
        ["total_spend", "user_id"], ascending=[False, True], ignore_index=True
    ).head(10)


# --------------------------------------------------------------------------
# A8: lag window over daily revenue (insight_payment_shift.sql:7-8)
def q_daily_revenue_lag(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        t = pa.table({"day": pc.floor_temporal(t["ts"], unit="day"), "value": t["value"]})
        return t.group_by("day").aggregate([("value", "sum")])

    df = _combine(ds, partial, ["day"], {"revenue": ("value_sum", "sum")})
    df["revenue"] = df["revenue"].round(2)
    prev = df["revenue"].shift(1)
    df["dod_pct"] = ((df["revenue"] - prev) / prev * 100).round(2)
    return df


# --------------------------------------------------------------------------
# P11/A7: anomaly flag derivation + masked-sum rollup
# (int_trips_validated.sql:71-85 flags; insight_anomaly_breakdown.sql:3-12)
def q_event_anomalies(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_type", "value", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.hour(t["ts"])
        high_value = pc.cast(pc.greater(t["value"], 45.0), pa.int64())
        night = pc.cast(pc.or_(pc.greater_equal(hour, 22), pc.less(hour, 6)), pa.int64())
        err = pc.cast(pc.equal(t["event_type"], "error"), pa.int64())
        t = pa.table(
            {
                "event_type": t["event_type"],
                "is_high_value": high_value,
                "is_night": night,
                "is_error": err,
            }
        )
        return t.group_by("event_type").aggregate(
            [("is_high_value", "sum"), ("is_night", "sum"), ("is_error", "sum"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["event_type"],
        {
            "n": ("count_all", "sum"),
            "n_high_value": ("is_high_value_sum", "sum"),
            "n_night": ("is_night_sum", "sum"),
            "n_error": ("is_error_sum", "sum"),
        },
    )
    df["high_value_pct"] = (df["n_high_value"] / df["n"] * 100).round(2)
    return df.sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
# A6: percent_rank over a grouped aggregate (insight_zone_heatmap.sql:3-42)
def q_nation_customer_rank(sf_dir: str) -> pd.DataFrame:
    cust = _rp(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by("c_nationkey").aggregate([("c_acctbal", "sum"), ([], "count_all")])

    df = _combine(
        cust,
        partial,
        ["c_nationkey"],
        {"n_customers": ("count_all", "sum"), "sum_acctbal": ("c_acctbal_sum", "sum")},
    )
    df["sum_acctbal"] = df["sum_acctbal"].round(2)
    df = df.sort_values(["n_customers", "c_nationkey"], ignore_index=True)
    n = len(df)
    df["pr"] = ((df["n_customers"].rank(method="min") - 1) / max(n - 1, 1)).round(4)
    return df.sort_values("c_nationkey", ignore_index=True)


# --------------------------------------------------------------------------
# A5: having + row_number rank + tier CASE (insight_tipping_patterns.sql:3-19).
# custkey is high-cardinality, so this is the bucketed having+combine
# pattern (q_top_routes): per-block (custkey -> n, sum) partials, one
# hash-bucket shuffle, per-bucket final combine + HAVING filter — the
# driver merges only the survivors (the having-pruned output class).
def q_customer_tiers(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    n_buckets = 32

    def pre(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("o_totalprice", "sum"), ([], "count_all")])
        ck = g["o_custkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return g.append_column("bucket", pa.array((ck % n_buckets).astype(np.int8)))

    def bucket_having(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("o_custkey", sort=False)
            .agg(n_orders=("count_all", "sum"), total_spend=("o_totalprice_sum", "sum"))
            .reset_index()
        )
        g = g[g["n_orders"] >= 5].copy()
        g["total_spend"] = g["total_spend"].round(2)
        return g.astype({"o_custkey": "int64", "n_orders": "int64", "total_spend": "float64"})

    df = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_having, batch_format="pandas")
        .to_pandas()
    )
    df = df.sort_values(
        ["total_spend", "o_custkey"], ascending=[False, True], ignore_index=True
    )
    df["spend_rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    df["tier"] = np.select(
        [df["spend_rank"] <= 10, df["spend_rank"] <= 50], ["gold", "silver"], default="bronze"
    )
    return df


# --------------------------------------------------------------------------
# P14/O1: literal dim union + sort (dim_payment_types.sql:3-11 union-all dims)
def q_union_dims(sf_dir: str) -> pd.DataFrame:
    a = rd.from_arrow(pa.table({"kind": ["role"] * 4, "name": ["user", "assistant", "system", "tool"]}))
    b = rd.from_arrow(pa.table({"kind": ["status"] * 3, "name": ["open", "closed", "pending"]}))
    return a.union(b).to_pandas().sort_values(["kind", "name"], ignore_index=True)


# --------------------------------------------------------------------------
# P15: generated date-spine dimension (dim_date.sql:6-82)
def q_date_spine(sf_dir: str) -> pd.DataFrame:
    from nyc_taxi_data_pipeline_ray.sources.dims import date_spine

    return date_spine("2024-01-01", "2024-03-01").to_pandas()


# --------------------------------------------------------------------------
# P19: rule-based additive anomaly scoring with flag accumulation
# (reference: fraud_detector.py:221-294 — a per-row PySpark UDF with 17
#  additive rules and a fraud_flags array, capped at 100 via min();
#  here one vectorized numpy pass per batch, flags as a csv string so
#  the DuckDB value-hash comparison is list-free)
_SCORE_RULES = [
    # (flag, points, mask builder over (value, hour, event_type np arrays))
    ("high_value", 30, lambda v, h, t: v > 45.0),
    ("night", 10, lambda v, h, t: (h >= 22) | (h < 6)),
    ("error_event", 25, lambda v, h, t: t == "error"),
    ("micro_value", 5, lambda v, h, t: v < 1.0),
]


def _score_events_batch(t: pa.Table) -> pa.Table:
    v = t["value"].to_numpy(zero_copy_only=False)
    h = pc.hour(t["ts"]).to_numpy(zero_copy_only=False)
    et = t["event_type"].to_numpy(zero_copy_only=False).astype(object)
    n = t.num_rows
    score = np.zeros(n, np.int64)
    flags = np.full(n, "", object)
    for name, pts, make in _SCORE_RULES:
        m = make(v, h, et).astype(bool)
        score += np.where(m, pts, 0)
        flags = np.where(m, np.where(flags == "", name, flags + "," + name), flags)
    score = np.minimum(score, 50)
    return pa.table(
        {
            "event_id": t["event_id"],
            "anomaly_score": pa.array(score, pa.int64()),
            "flags": pa.array(flags, pa.string()),
        }
    )


def q_event_scoring(sf_dir: str) -> rd.Dataset:
    ds = _rp(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    return ds.map_batches(_score_events_batch, batch_format="pyarrow")


# --------------------------------------------------------------------------
# A15: flatten a flag list column and count per flag
# (reference: 2_🔍_Fraud_Monitor.py:116-125 — fraud_flags flatten +
#  frequency; partial counts per batch, then one tiny groupby)
def q_flag_frequency(sf_dir: str) -> pd.DataFrame:
    ds = q_event_scoring(sf_dir)

    def partial_counts(t: pa.Table) -> pa.Table:
        # vectorized flatten+count: Arrow split_pattern -> list_flatten ->
        # value_counts (no Python loop over rows)
        nz = t.filter(pc.not_equal(t["flags"], ""))
        flat = pc.list_flatten(pc.split_pattern(nz["flags"], ","))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "flag": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    df = _combine(ds, partial_counts, ["flag"], {"n_events": ("n", "sum")})
    return df.sort_values("flag", ignore_index=True)


# --------------------------------------------------------------------------
# P17 / JSON surface: parse a JSON props column into typed values
# (reference: fraud_detector.py:201-204 from_json(value, schema);
#  props here are flat single-key objects so a vectorized regex extract
#  suffices — swap for pyarrow.json / json.loads in an actor pool for
#  nested payloads)
def q_json_props(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        k = pc.extract_regex(t["props"], r'"k":\s*(?P<k>\d+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
        t = pa.table({"event_type": t["event_type"], "k": kv})
        # group_by sum skips nulls; count_all counts every row (matching
        # the oracle's count(*) + avg over non-null extracts)
        return t.group_by("event_type").aggregate(
            [("k", "sum"), ("k", "count"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["event_type"],
        {
            "sum_k": ("k_sum", "sum"),
            "n_k": ("k_count", "sum"),
            "n": ("count_all", "sum"),
        },
    )
    df["avg_k"] = (df["sum_k"] / df["n_k"]).round(4)
    return df[["event_type", "n", "avg_k"]].sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
# A13: weekday x hour activity matrix
# (reference: dashboard/utils/redis_client.py:115-138 hourly counts per
#  weekday; Arrow day_of_week is Monday=0, DuckDB dayofweek Sunday=0 —
#  shifted here so both sides emit the same encoding)
def q_weekday_hour_matrix(sf_dir: str) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        dow = pc.add(pc.day_of_week(t["ts"]), 1)  # Mon=0 -> Mon=1
        dow = pc.if_else(pc.equal(dow, 7), pa.scalar(0, pa.int64()), pc.cast(dow, pa.int64()))
        t = pa.table(
            {
                "dow": pc.cast(dow, pa.int32()),
                "hour": pc.cast(pc.hour(t["ts"]), pa.int32()),
                "value": t["value"],
            }
        )
        return t.group_by(["dow", "hour"]).aggregate([("value", "sum"), ([], "count_all")])

    df = _combine(
        ds,
        partial,
        ["dow", "hour"],
        {"n_events": ("count_all", "sum"), "sum_value": ("value_sum", "sum")},
    )
    df["sum_value"] = df["sum_value"].round(2)
    return df[["dow", "hour", "n_events", "sum_value"]].sort_values(
        ["dow", "hour"], ignore_index=True
    )


# --------------------------------------------------------------------------
# O6: deterministic skip/head slicing of an ordered stream
# (reference: stream_from_parquet.py:163-168 iloc[skip:] + head(count)).
# No global sort shuffle: each block keeps its (offset+limit) smallest
# rows by event_id (a partial min-k — any block's rank-(offset+limit)
# row bounds the answer), the driver merges n_blocks x (offset+limit)
# candidate rows and slices.  At 100 TB the read itself would also be
# pruned by an event_id range predicate when the lake is id-sorted.
def q_sample_window(sf_dir: str, *, offset: int = 1000, limit: int = 50) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    need = offset + limit

    def partial_min_k(t: pa.Table) -> pa.Table:
        if t.num_rows <= need:
            return t
        idx = pc.sort_indices(t, sort_keys=[("event_id", "ascending")])[:need]
        return t.take(idx)

    cand = ds.map_batches(partial_min_k, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values("event_id", kind="mergesort", ignore_index=True)
    return cand.iloc[offset : offset + limit].reset_index(drop=True)


# --------------------------------------------------------------------------
# Streaming windows beyond the reference: gap-based sessionization.
# (reference has only fixed tumbling windows — stream_from_parquet.py
#  batches by wall clock; this is the dynamic-gap analog every
#  clickstream/transcript pipeline needs.)
def q_sessionize(sf_dir: str, *, gap_minutes: int = 30) -> rd.Dataset:
    """Per-user gap sessionization: a new session starts when the gap to
    the previous event exceeds ``gap_minutes``.  Partitioning assumption:
    one ``map_groups`` task sees ALL of a user's events (Ray's groupby
    guarantees key co-location); per-user volume is human-bounded, so no
    salting is needed — at cluster scale the shuffle is the standard
    hash-by-user exchange and each task is O(events-per-user)."""
    ds = _rp(sf_dir, "events", ["user_id", "ts", "value"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("ts", kind="mergesort")
        new_s = df["ts"].diff().isna() | (df["ts"].diff() > gap)
        df["session_id"] = new_s.cumsum().astype("int64")
        out = (
            df.groupby("session_id", sort=True)
            .agg(
                user_id=("user_id", "first"),
                n_events=("ts", "size"),
                session_start=("ts", "min"),
                session_end=("ts", "max"),
                sum_value=("value", "sum"),
            )
            .reset_index()
        )
        out["sum_value"] = out["sum_value"].round(2)
        out["n_events"] = out["n_events"].astype("int64")
        return out[["user_id", "session_id", "n_events", "session_start", "session_end", "sum_value"]]

    # stays a streaming Dataset: session rows are event-scale output —
    # consume with write_parquet / iter_batches, never a driver collect
    return ds.groupby("user_id").map_groups(sessions, batch_format="pandas")


# --------------------------------------------------------------------------
# As-of join (Ray Data has no native one): for every event, the user's
# most recent purchase at-or-before the event's timestamp.  Expressed as
# a per-key sorted merge inside map_groups: hash-partition both sides on
# the key in ONE shuffle (they're the same table here; for two tables,
# union tagged rows first), sort within the group, np.searchsorted.
def q_asof_join(sf_dir: str) -> rd.Dataset:
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("ts", kind="mergesort")
        p = df[df["event_type"] == "purchase"]
        ix = np.searchsorted(p["ts"].to_numpy(), df["ts"].to_numpy(), side="right") - 1
        has = ix >= 0
        lpv = np.full(len(df), np.nan)
        lpv[has] = p["value"].to_numpy()[ix[has]]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "last_purchase_value": lpv,
            }
        )

    # event-scale output: keep it streaming (see q_sessionize)
    return ds.groupby("user_id").map_groups(asof, batch_format="pandas")


# --------------------------------------------------------------------------
# Exact grouped percentiles (continuous interpolation, = quantile_cont).
# Group cardinality is tiny (event types) while group size is huge, so
# ANY plan that hands one task a whole group's values is the skewed
# path at 100 TB.  This is the distributed exact-quantile pattern
# instead — no shuffle, no task (and no driver) ever holds a group's
# values:
#   1. global value range from parquet FOOTER statistics (no scan;
#      per-block min/max partials only if a writer omitted stats);
#   2. per-block fixed-bin histograms (one vectorized digitize+bincount
#      per type), folded to locate the bin holding each needed order
#      statistic (per-type counts fall out of the same fold);
#   3. per-block extraction of distinct (value, n) pairs ONLY inside
#      the needed bins (identical-value skew collapses to one row), so
#      the exact order stats + numpy-identical linear interpolation run
#      over a few rows per quantile.
def _np_lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation, bit-exactly (incl. the t >= 0.5
    branch) — keeps the output hash-identical to the np.quantile it
    replaces (which matched the DuckDB quantile_cont oracle)."""
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _footer_min_max(sf_dir: str, table: str, column: str) -> tuple[float, float] | None:
    """Global (min, max) of a column from parquet ROW-GROUP STATISTICS —
    a driver-side footer read, zero data scanned.  None if any row
    group lacks stats (caller falls back to a scan).  Timestamp stats
    are coerced to epoch MICROSECONDS (the same value
    ``pc.cast(col, int64())`` yields for a ``timestamp[us]`` column)."""
    import datetime

    import pyarrow.parquet as pq

    def as_float(x) -> float:
        # mirror pc.cast(col, int64()) per storage type: timestamp[us]
        # stats -> epoch MICROSECONDS, date32 stats -> epoch DAYS
        # (datetime.datetime subclasses datetime.date, so order matters —
        # a days/us mix-up here would silently funnel every row into one
        # histogram bin)
        if isinstance(x, datetime.datetime):
            return float(pd.Timestamp(x).value // 1000)
        if isinstance(x, datetime.date):
            return float((x - datetime.date(1970, 1, 1)).days)
        return float(x)

    f = pq.ParquetFile(f"{sf_dir}/{table}.parquet")
    ci = f.schema_arrow.names.index(column)
    mins, maxs = [], []
    for rg in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(rg).column(ci).statistics
        if st is None or not st.has_min_max:
            return None
        mins.append(as_float(st.min))
        maxs.append(as_float(st.max))
    return min(mins), max(maxs)


def q_value_percentiles(
    sf_dir: str, *, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99), n_bins: int = 4096
) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_type", "value"])

    # pass 1: GLOBAL value range from parquet footer statistics (no
    # scan); scan fallback only when a writer omitted stats
    mm = _footer_min_max(sf_dir, "events", "value")
    if mm is None:
        def mm_partial(t: pa.Table) -> pa.Table:
            return t.group_by([]).aggregate([("value", "min"), ("value", "max")])

        p = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
        mm = (float(p["value_min"].min()), float(p["value_max"].max()))
    lo_g, hi_g = mm
    width = max((hi_g - lo_g) / n_bins, 1e-300)

    def bins_of(v: np.ndarray) -> np.ndarray:
        return np.clip(((v - lo_g) / width).astype(np.int64), 0, n_bins - 1)

    # pass 2: per-block histograms, one list-column row per type
    # (global bin edges; per-type counts fall out of the histogram sums)
    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        out_ty, out_h = [], []
        for ty, g in df.groupby("event_type", sort=False):
            out_ty.append(ty)
            out_h.append(np.bincount(bins_of(g["value"].to_numpy()), minlength=n_bins))
        return pd.DataFrame({"event_type": out_ty, "hist": out_h})

    hp = ds.map_batches(hist_partial, batch_format="pandas").to_pandas()
    hists: dict[str, np.ndarray] = {}
    for ty, h in zip(hp["event_type"], hp["hist"]):
        if ty not in hists:
            hists[ty] = np.zeros(n_bins, np.int64)
        hists[ty] += np.asarray(h, np.int64)
    types = np.array(sorted(hists), dtype=object)
    n_of = {ty: int(hists[ty].sum()) for ty in types}

    # locate the bin of every needed order statistic (floor/ceil of each
    # virtual index h = q*(n-1)) and its below-bin cumulative count
    need_bins: dict[str, set[int]] = {ty: set() for ty in types}
    ranks: dict[str, list[tuple[int, int]]] = {}
    for ty in types:
        n = n_of[ty]
        cum = np.cumsum(hists[ty])
        ks: list[tuple[int, int]] = []
        for q in quantiles:
            h = q * (n - 1)
            for k in {int(np.floor(h)), int(np.ceil(h))}:
                b = int(np.searchsorted(cum, k, side="right"))
                need_bins[ty].add(b)
                ks.append((k, b))
        ranks[ty] = ks

    # pass 3: distinct (value, n) pairs inside needed bins only
    # (typed Arrow output so empty blocks keep a schema)
    def extract(df: pd.DataFrame) -> pa.Table:
        out = {"event_type": [], "value": [], "n": []}
        for ty, g in df.groupby("event_type", sort=False):
            v = g["value"].to_numpy()
            keep = v[np.isin(bins_of(v), list(need_bins[ty]))]
            if not len(keep):
                continue
            vals, cnts = np.unique(keep, return_counts=True)
            out["event_type"].extend([ty] * len(vals))
            out["value"].extend(vals)
            out["n"].extend(cnts)
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "value": pa.array(out["value"], pa.float64()),
                "n": pa.array(out["n"], pa.int64()),
            }
        )

    ex = ds.map_batches(extract, batch_format="pandas").to_pandas()
    ex = ex.groupby(["event_type", "value"], as_index=False)["n"].sum()

    rows: dict[str, list] = {"event_type": []}
    for qi in range(len(quantiles)):
        rows[f"p{int(quantiles[qi] * 100)}"] = []
    for ty in sorted(types):
        n = n_of[ty]
        cum = np.cumsum(hists[ty])
        below = cum - hists[ty]
        g = ex[ex["event_type"] == ty].sort_values("value")
        gv = g["value"].to_numpy()
        gb = bins_of(gv)
        gc = g["n"].to_numpy()

        def order_stat(k: int, b: int) -> float:
            inbin = gb == b
            vals, cnts = gv[inbin], gc[inbin]
            return float(vals[np.searchsorted(np.cumsum(cnts), k - below[b], side="right")])

        stat = {k: order_stat(k, b) for k, b in ranks[ty]}
        rows["event_type"].append(ty)
        for q in quantiles:
            h = q * (n - 1)
            f, c = int(np.floor(h)), int(np.ceil(h))
            v = _np_lerp(stat[f], stat[c], h - f)
            rows[f"p{int(q * 100)}"].append(round(np.float64(v), 4))
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# A8+: trailing moving-average frame window (7-day revenue MA).  The
# daily rollup is a map-side combine (days are few); the O(days) frame
# runs on the driver — the standard shape for small-keyed windows.
def q_daily_revenue_ma(sf_dir: str, *, window: int = 7) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        t = pa.table({"day": pc.floor_temporal(t["ts"], unit="day"), "value": t["value"]})
        return t.group_by("day").aggregate([("value", "sum")])

    df = _combine(ds, partial, ["day"], {"revenue": ("value_sum", "sum")})
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    df["revenue"] = df["revenue"].round(2)
    # DuckDB rounds half away from zero; pandas .round is half-to-even
    df["ma7"] = round_half_away(
        df["revenue"].rolling(window, min_periods=1).mean().to_numpy(), 2
    )
    return df


# --------------------------------------------------------------------------
# Grouped top-k: the k highest-value events per type with deterministic
# tiebreak — per-block partial top-k per group (combiner), driver folds
# O(blocks x groups x k) candidate rows.
def q_top_events_per_type(sf_dir: str, *, k: int = 3) -> pd.DataFrame:
    ds = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["event_type", "value", "event_id"], ascending=[True, False, True])
            .groupby("event_type", sort=False)
            .head(k)
        )

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        cand.sort_values(["event_type", "value", "event_id"], ascending=[True, False, True])
        .groupby("event_type", sort=False)
        .head(k)
        .reset_index(drop=True)
    )
    out["rk"] = out.groupby("event_type").cumcount().astype("int64") + 1
    return out[["event_type", "rk", "event_id", "value"]]


# --------------------------------------------------------------------------
# Hopping (sliding) window aggregate: 1-hour windows advancing every
# 15 minutes — the overlapping-window generalization of q_hourly_events
# (streaming analog: fraud_detector.py's micro-batch windowed counts).
# Each event belongs to exactly window/hop = 4 windows; assignment is a
# vectorized in-batch repeat (no shuffle), the per-(window, type)
# rollup is additive, so the map-side combiner + tiny driver fold
# pattern applies — window cardinality is span/hop x n_types, never
# event count.
def q_hopping_window(
    sf_dir: str, *, window_min: int = 60, hop_min: int = 15
) -> pd.DataFrame:
    assert window_min % hop_min == 0
    fanout = window_min // hop_min
    hop_us = hop_min * 60 * 1_000_000
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        tb = (ts // hop_us) * hop_us  # hop-aligned bucket of the event
        starts = (
            tb[None, :] - (np.arange(fanout, dtype=np.int64) * hop_us)[:, None]
        ).reshape(-1)
        rep = pa.table(
            {
                "window_start": pa.array(starts).cast(pa.timestamp("us")),
                "event_type": pa.concat_arrays(
                    [t["event_type"].combine_chunks()] * fanout
                ),
                "value": pa.concat_arrays([t["value"].combine_chunks()] * fanout),
            }
        )
        return rep.group_by(["window_start", "event_type"]).aggregate(
            [("value", "sum"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["window_start", "event_type"],
        {"n_events": ("count_all", "sum"), "sum_value": ("value_sum", "sum")},
    )
    df["sum_value"] = df["sum_value"].round(2)
    return df.sort_values(["window_start", "event_type"], ignore_index=True)


# --------------------------------------------------------------------------
# Anti-join (churn screen): customers with NO order on/after a cutoff
# date.  One partitioned hash shuffle (the join itself); the right side
# is filtered AT THE READ (row-group predicate pushdown) and ships
# per-block DISTINCT custkeys (combiner), so the exchange carries one
# row per (block, custkey), not one per order.  Left-outer + null-probe
# gives NOT EXISTS semantics: unmatched left rows appear exactly once
# regardless of right-side duplication across blocks.
def q_customer_running_total(sf_dir: str) -> rd.Dataset:
    """Keyed cumulative window (running account balance): per customer,
    the running sum of ``o_totalprice`` in order-date order — the
    distributed prefix-sum shape every per-entity timeline feature
    (cumulative spend, session depth, lifetime token count) needs.

    One bounded shuffle: rows bucket on ``hash(custkey) % NB`` so each
    customer's full history co-locates; the bucket task sorts once and
    computes EVERY customer's prefix sum in one vectorized
    ``groupby().cumsum()`` — no per-key loop, no global sort.  A
    customer's history (thousands of rows) always fits one task even
    when the table doesn't; only pathological single-key skew would
    need a two-level segmented scan (carry = per-segment totals).
    Output is per-order and stays a streaming Dataset.
    """
    NB = 32
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.bit_wise_and(t["o_custkey"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return t.append_column("bucket", b)

    def prefix(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"], ignore_index=True)
        df["running_total"] = (
            df.groupby("o_custkey", sort=False)["o_totalprice"].cumsum().round(2)
        )
        return df[["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "running_total"]]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(prefix, batch_format="pandas")
    )


def q_order_timeline(sf_dir: str) -> rd.Dataset:
    """The remaining per-entity window family in one shape — LEAD
    (next order date + day gap), FIRST_VALUE / LAST_VALUE over the
    whole-partition frame (first and latest order price), and
    DENSE_RANK (distinct-order-month rank within customer) — the
    per-customer timeline features a churn/LTV model consumes.

    Same physical plan as ``q_customer_running_total``: ONE bounded
    custkey-hash bucket shuffle co-locates each customer's history,
    then the bucket task computes every window in vectorized pandas
    group ops (shift / transform first-last / factorized month rank) —
    no per-key loop, no global sort, streaming Dataset out."""
    NB = 32
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.bit_wise_and(t["o_custkey"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return t.append_column("bucket", b)

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"], ignore_index=True)
        g = df.groupby("o_custkey", sort=False)
        nxt = g["o_orderdate"].shift(-1)
        # float64 with NaN for the last order (DuckDB's nullable BIGINT
        # lands as float64 in pandas too)
        df["gap_days"] = (nxt - df["o_orderdate"]).dt.days.astype(np.float64)
        df["first_price"] = g["o_totalprice"].transform("first")
        df["last_price"] = g["o_totalprice"].transform("last")
        # dense_rank over order month within customer: months are
        # already in sorted order, so rank = running count of distinct
        # month starts per customer
        month = df["o_orderdate"].values.astype("datetime64[M]")
        new_month = np.concatenate([[True], month[1:] != month[:-1]]) | (
            df["o_custkey"].values
            != np.concatenate([[-1], df["o_custkey"].values[:-1]])
        )
        df["month_rank"] = (
            pd.Series(new_month.astype(np.int64)).groupby(df["o_custkey"], sort=False).cumsum()
        )
        return df[
            [
                "o_custkey",
                "o_orderkey",
                "o_orderdate",
                "o_totalprice",
                "gap_days",
                "first_price",
                "last_price",
                "month_rank",
            ]
        ]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(windows, batch_format="pandas")
    )


# --------------------------------------------------------------------------
def q_repeat_customers(sf_dir: str, *, y1: int = 1995, y2: int = 1996) -> pd.DataFrame:
    """Set intersection (INTERSECT): customers who ordered in BOTH
    years.  Per-block distinct ``(custkey, year)`` pairs (combiner) cut
    the exchange to one row per block x key x year; the custkey-hash
    bucket shuffle co-locates each key's <=2 surviving year rows and the
    bucket task keeps keys seen in both — the orders table itself never
    moves, and no task ever holds more than its bucket's key range.
    """
    import pyarrow.dataset as pads

    NB = 32
    lo = pd.Timestamp(f"{y1}-01-01").to_pydatetime()
    hi = pd.Timestamp(f"{y2 + 1}-01-01").to_pydatetime()
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )

    def pairs(t: pa.Table) -> pa.Table:
        y = pc.year(t["o_orderdate"])
        g = pa.table({"o_custkey": t["o_custkey"], "o_year": y}).group_by(
            ["o_custkey", "o_year"]
        ).aggregate([])
        b = pc.cast(
            pc.bit_wise_and(g["o_custkey"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    def both_years(df: pd.DataFrame) -> pd.DataFrame:
        n = df.drop_duplicates(["o_custkey", "o_year"]).groupby("o_custkey").size()
        keep = n[n == 2].index.to_numpy()
        return pd.DataFrame({"o_custkey": np.sort(keep)})

    out = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(both_years, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("o_custkey", ignore_index=True)


def q_churned_customers(sf_dir: str, *, y1: int = 1995, y2: int = 1996) -> rd.Dataset:
    """Set difference (EXCEPT): customers who ordered in ``y1`` but not
    in ``y2`` — the churn cohort, completing the set-op family next to
    INTERSECT (``q_repeat_customers``, whose physical plan this
    shares): per-block distinct ``(custkey, year)`` combiner, one
    custkey-hash bucket shuffle, and the bucket task keeps keys whose
    surviving year set is exactly ``{y1}``."""
    import pyarrow.dataset as pads

    NB = 32
    lo = pd.Timestamp(f"{y1}-01-01").to_pydatetime()
    hi = pd.Timestamp(f"{y2 + 1}-01-01").to_pydatetime()
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )

    def pairs(t: pa.Table) -> pa.Table:
        y = pc.year(t["o_orderdate"])
        g = pa.table({"o_custkey": t["o_custkey"], "o_year": y}).group_by(
            ["o_custkey", "o_year"]
        ).aggregate([])
        b = pc.cast(
            pc.bit_wise_and(g["o_custkey"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    def only_y1(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["o_custkey", "o_year"])
        years = d.groupby("o_custkey")["o_year"].agg(["min", "max"])
        keep = years[(years["min"] == y1) & (years["max"] == y1)].index.to_numpy()
        return pd.DataFrame({"o_custkey": np.sort(keep)})

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(only_y1, batch_format="pandas")
    )


# --------------------------------------------------------------------------
def q_rollup_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP (year, month): the finest (year, month) rollup
    plus year subtotals plus a grand total, in one pass.  Because every
    level is an ADDITIVE re-aggregation of the finest level, only the
    (year, month) partials leave the workers (map-side combiner, tiny
    cardinality); the driver derives the coarser levels from those same
    partials instead of re-scanning — the standard cube-lattice trick.
    Label columns are strings with ``'ALL'`` marking the rolled-up axis
    (grouping-set NULLs don't survive a hash compare portably).
    """
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "o_month": pc.cast(pc.month(t["o_orderdate"]), pa.int64()),
                "o_totalprice": t["o_totalprice"],
            }
        )
        return g.group_by(["o_year", "o_month"]).aggregate(
            [("o_totalprice", "sum"), ([], "count_all")]
        )

    fine = _combine(
        ds,
        partial,
        ["o_year", "o_month"],
        {"revenue": ("o_totalprice_sum", "sum"), "n_orders": ("count_all", "sum")},
    )
    yearly = fine.groupby("o_year", as_index=False).agg(
        revenue=("revenue", "sum"), n_orders=("n_orders", "sum")
    )
    grand = pd.DataFrame(
        {"revenue": [fine["revenue"].sum()], "n_orders": [fine["n_orders"].sum()]}
    )
    fine["year_label"] = fine["o_year"].astype(str)
    fine["month_label"] = fine["o_month"].astype(str)
    yearly["year_label"] = yearly["o_year"].astype(str)
    yearly["month_label"] = "ALL"
    grand["year_label"] = "ALL"
    grand["month_label"] = "ALL"
    cols = ["year_label", "month_label", "revenue", "n_orders"]
    out = pd.concat([fine[cols], yearly[cols], grand[cols]], ignore_index=True)
    out["revenue"] = out["revenue"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(["year_label", "month_label"], ignore_index=True)


# --------------------------------------------------------------------------
def q_customers_no_orders(sf_dir: str, *, since: str = "2000-01-01") -> pd.DataFrame:
    import datetime as _dt

    import pyarrow.dataset as pads

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    cutoff = _dt.datetime.fromisoformat(since)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pads.field("o_orderdate") >= cutoff),
    )

    def distinct_keys(t: pa.Table) -> pa.Table:
        t = t.group_by("o_custkey").aggregate([])
        # explicit probe column: Ray's outer join folds the right key
        # into the left one, so null-ness must ride a payload column
        return t.append_column("matched", pa.array(np.ones(t.num_rows, np.int8)))

    joined = cust.join(
        orders.map_batches(distinct_keys, batch_format="pyarrow"),
        join_type="left_outer",
        num_partitions=8,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def keep_unmatched(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["matched"]))
        return t.select(["c_custkey", "c_name"])

    df = joined.map_batches(keep_unmatched, batch_format="pyarrow").to_pandas()
    return df.sort_values("c_custkey", ignore_index=True)


# --------------------------------------------------------------------------
def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (branch-free binary
    search; ``log2`` would mis-round above 2**53)."""
    bl = np.zeros(len(w), np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << shift)
        bl[m] += shift
        v[m] >>= np.uint64(shift)
    bl[w > 0] += 1
    return bl


def q_hll_distinct(sf_dir: str, *, p: int = 8) -> pd.DataFrame:
    """HyperLogLog distinct-customer estimate per year — the mergeable
    cardinality sketch (Flajolet et al. 2007) a 100 TB pipeline uses
    where an exact count-distinct would shuffle every key: each block
    reduces to at most ``years x 2^p`` register partials (bucket j =
    top ``p`` hash bits, rho = leading-zero rank of the rest), partials
    merge by elementwise MAX (a commutative monoid — combiner-safe,
    re-mergeable across epochs), and only registers ever move.

    Deterministic AND oracle-checked: the hash is DuckDB's
    ``md5_number_lower`` (LE uint64 of md5 bytes [8:16)), rho is exact
    integer bit-length (no libm), and the harmonic sum is computed in
    EXACT integers scaled by 2^57 (hugeint in SQL, Python int here), so
    the estimator is a bit-identical function of the input set in both
    engines.  Standard-regime estimator (yearly cardinality > 2.5m by
    design; the linear-counting small-range branch would need libm
    ``ln``).  Accuracy ~1.04/sqrt(2^p) ~ 6.5% at p=8 (pytest-bounded).
    """
    import hashlib as _hl
    import struct as _st

    m = 1 << p
    wbits = 64 - p
    ds = _rp(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        y = pc.cast(pc.year(t["o_orderdate"]), pa.int64()).to_numpy(zero_copy_only=False)
        k = t["o_custkey"].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([y, k]), axis=1)
        uk, inv = np.unique(pairs[1], return_inverse=True)
        h = np.array(
            [
                _st.unpack("<Q", _hl.md5(str(int(x)).encode()).digest()[8:])[0]
                for x in uk
            ],
            dtype=np.uint64,
        )[inv]
        bucket = (h >> np.uint64(wbits)).astype(np.int64)
        w = h & np.uint64((1 << wbits) - 1)
        rho = np.where(w > 0, wbits - _bit_length_u64(w) + 1, wbits + 1)
        df = pd.DataFrame({"y": pairs[0], "j": bucket, "rho": rho})
        reg = df.groupby(["y", "j"], as_index=False)["rho"].max()
        return pa.Table.from_pandas(reg, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    regs = parts.groupby(["y", "j"], as_index=False)["rho"].max()
    alpha = 0.7213 / (1 + 1.079 / m)
    out_y, out_est = [], []
    for y, g in regs.groupby("y", sort=True):
        rho = np.zeros(m, np.int64)
        rho[g["j"].to_numpy()] = g["rho"].to_numpy()
        s = sum(1 << (wbits + 1 - int(r)) for r in rho)  # sum 2^-rho scaled 2^57
        est = alpha * (m * m) * float(1 << (wbits + 1)) / float(s)
        out_y.append(int(y))
        out_est.append(est)
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    return pd.DataFrame(
        {
            "o_year": pd.Series(out_y, dtype="int64"),
            "hll_distinct": round_half_away(np.array(out_est), 4),
        }
    )


# --------------------------------------------------------------------------
def q_funnel(sf_dir: str) -> pd.DataFrame:
    """Ordered-sequence funnel: how many users did view -> click ->
    purchase in strict temporal order (each later stage strictly after
    the user's EARLIEST completion of the prior stage).  The product-
    analytics sequence-match pattern, and the shape that breaks naive
    SQL at scale (three self-joins over the full event log).

    Here it's one user-hash bucket shuffle of only the three relevant
    event types (pushed-down read filter): each bucket task holds every
    retained event of its users and resolves all three stages with
    vectorized merges (min-per-user cascade) — no self-join, no
    whole-log task, partial stage counts are additive.
    """
    import pyarrow.dataset as pads

    NB = 32
    stages = ["view", "click", "purchase"]
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
        filter=pads.field("event_type").isin(stages),
    )

    def tag(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return t.append_column("bucket", b)

    def count_stages(df: pd.DataFrame) -> pd.DataFrame:
        t1 = (
            df[df["event_type"] == "view"].groupby("user_id")["ts"].min().rename("t1")
        )
        c = df[df["event_type"] == "click"].merge(t1, on="user_id")
        t2 = c[c["ts"] > c["t1"]].groupby("user_id")["ts"].min().rename("t2")
        p = df[df["event_type"] == "purchase"].merge(t2, on="user_id")
        t3 = p[p["ts"] > p["t2"]].groupby("user_id")["ts"].min()
        return pd.DataFrame(
            {
                "stage": stages,
                "n_users": np.array([len(t1), len(t2), len(t3)], np.int64),
            }
        )

    parts = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_stages, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("stage", as_index=False)["n_users"].sum()
    out["ord"] = out["stage"].map({s: i for i, s in enumerate(stages)})
    out = out.sort_values("ord", ignore_index=True).drop(columns="ord")
    return out.astype({"n_users": "int64"})


# --------------------------------------------------------------------------
def q_unpivot_bands(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT (wide -> long melt): the wide lang x length-band count
    matrix (``q_lang_length_pivot``) re-expressed as (lang, band,
    n_docs) long rows.  Melt is a pure per-batch reshape — width x rows
    output, no shuffle of its own — so it composes with any wide
    producer; pivot -> unpivot round-tripping is the schema-bridge
    every mart/export layer needs.
    """
    from nyc_taxi_data_pipeline_ray.pipelines.text import q_lang_length_pivot

    wide = q_lang_length_pivot(sf_dir)
    long = wide.melt(
        id_vars=["lang"],
        value_vars=["n_short", "n_medium", "n_long"],
        var_name="band",
        value_name="n_docs",
    )
    long["band"] = long["band"].str.removeprefix("n_")
    long["n_docs"] = long["n_docs"].astype("int64")
    # group-by semantics: absent (lang, band) combinations emit no row
    long = long[long["n_docs"] > 0]
    return long.sort_values(["lang", "band"], ignore_index=True)


# --------------------------------------------------------------------------
def q_value_correlation(sf_dir: str) -> pd.DataFrame:
    """One-pass distributed Pearson correlation per group: corr(value,
    hour-of-day) per event_type from ADDITIVE moment partials (n, sx,
    sy, sxx, syy, sxy) — the textbook parallel-corr decomposition, so
    the exchange is one combiner row per (block, type) and the driver
    does a 6-column fold.  The oracle computes the SAME closed-form
    from SQL ``sum()``s (not DuckDB's Welford ``corr()``) so both
    engines round the identical expression.
    """
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["value"]
        y = pc.cast(pc.hour(t["ts"]), pa.float64())
        g = pa.table(
            {
                "event_type": t["event_type"],
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
                "xy": pc.multiply(x, y),
            }
        )
        return g.group_by("event_type").aggregate(
            [("x", "sum"), ("y", "sum"), ("xx", "sum"), ("yy", "sum"),
             ("xy", "sum"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["event_type"],
        {
            "n": ("count_all", "sum"),
            "sx": ("x_sum", "sum"),
            "sy": ("y_sum", "sum"),
            "sxx": ("xx_sum", "sum"),
            "syy": ("yy_sum", "sum"),
            "sxy": ("xy_sum", "sum"),
        },
    )
    n = df["n"].astype(float)
    num = n * df["sxy"] - df["sx"] * df["sy"]
    den = np.sqrt(n * df["sxx"] - df["sx"] ** 2) * np.sqrt(n * df["syy"] - df["sy"] ** 2)
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    out = pd.DataFrame(
        {
            "event_type": df["event_type"],
            "n": df["n"].astype("int64"),
            "corr_value_hour": round_half_away((num / den).to_numpy(), 6),
        }
    )
    return out.sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
def q_record_events(sf_dir: str, *, bucket_size: int = 4096) -> pd.DataFrame:
    """Running-record detection: events whose ``value`` strictly exceeds
    every EARLIER event's value (arrival order = ``event_id``) — the
    prefix-scan shape of streaming watermarking / high-water-mark
    tracking (the test events arrive time-ordered, so a ts watermark is
    vacuous; the value record-chain exercises the identical machinery
    with a non-empty answer).

    A global running-max is a prefix scan, not a shuffle: arrival order
    is carved into contiguous ``event_id`` ranges (``id // bucket_size``
    — deterministic, no sort), pass 1 reduces each range to its max
    value (combiner row per block x range), the driver exclusive-scans
    those tiny maxes into per-range carries, and pass 2 re-scans with
    the carries broadcast, flagging inside each range vectorized
    (``np.maximum.accumulate``).  Two linear passes; the exchange is
    one row per range.
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "value"])

    def range_max(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "rng": pc.cast(
                    pc.divide(t["event_id"], pa.scalar(bucket_size, pa.int64())),
                    pa.int64(),
                ),
                "value": t["value"],
            }
        )
        return g.group_by("rng").aggregate([("value", "max")])

    parts = ds.map_batches(range_max, batch_format="pyarrow").to_pandas()
    rmax = parts.groupby("rng")["value_max"].max().sort_index()
    carry = rmax.cummax().shift(1)  # max value of all EARLIER ranges
    carry_map = {int(r): (float(c) if pd.notna(c) else -np.inf) for r, c in carry.items()}

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_id", ignore_index=True)
        v = df["value"].to_numpy()
        prev = np.empty_like(v)
        prev[0] = carry_map.get(int(df["rng"].iat[0]), -np.inf)
        if len(v) > 1:
            np.maximum.accumulate(v[:-1], out=prev[1:])
            np.maximum(prev[1:], prev[0], out=prev[1:])
        rec = v > prev
        return df.loc[rec, ["event_id", "ts", "value"]]

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rng",
            pc.cast(pc.divide(t["event_id"], pa.scalar(bucket_size, pa.int64())), pa.int64()),
        )

    flagged = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(flag, batch_format="pandas")
        .to_pandas()
    )
    return flagged.sort_values("event_id", ignore_index=True)


# --------------------------------------------------------------------------
def q_rolling_mau(sf_dir: str, *, window_days: int = 7) -> pd.DataFrame:
    """Sliding-window distinct users (rolling 7-day MAU) — the windowed
    COUNT DISTINCT that naive engines re-scan once per day.  Here it is
    three bounded steps with no per-day rescan:

    1. per-block DISTINCT (user, day) pairs (combiner);
    2. user-hash bucket shuffle; each bucket merges every user's
       activity days into coverage intervals [d, d+W-1] (vectorized
       gap-split on the sorted frame — a user counted on day t iff some
       activity day lies in [t-W+1, t]) and emits +1/-1 DELTAS at
       interval starts/ends — output is O(active intervals), and each
       day's count is no longer a distinct problem;
    3. deltas are additive (combiner), the driver folds days x 2 rows
       and one prefix-sum over the day spine yields every day's MAU.

    The same shape answers any sliding-distinct (rolling DAU/WAU,
    trailing-28d active repos, ...) — the interval trick turns window
    distinct into interval coverage counting.
    """
    W = window_days
    ds = _rp(sf_dir, "events", ["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        day = pc.divide(day, pa.scalar(86_400_000_000, pa.int64()))  # us -> days
        g = pa.table({"user_id": t["user_id"], "day": day}).group_by(
            ["user_id", "day"]
        ).aggregate([])
        b = pc.cast(
            pc.bit_wise_and(g["user_id"], pa.scalar(31, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], ignore_index=True
        )
        u = df["user_id"].to_numpy()
        d = df["day"].to_numpy()
        new_iv = np.concatenate(
            [[True], (u[1:] != u[:-1]) | (d[1:] > d[:-1] + W - 1)]
        )
        starts = d[new_iv]
        # interval end = last activity day of the run + W - 1
        iv_id = np.cumsum(new_iv) - 1
        last = np.zeros(iv_id[-1] + 1, np.int64)
        np.maximum.at(last, iv_id, d)
        ends = last + W - 1
        return pd.DataFrame(
            {
                "day": np.concatenate([starts, ends + 1]),
                "delta": np.concatenate(
                    [np.ones(len(starts), np.int64), -np.ones(len(ends), np.int64)]
                ),
                "max_act": np.full(2 * len(starts), d.max(), np.int64),
            }
        )

    parts = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(deltas, batch_format="pandas")
        .to_pandas()
    )
    lo = int(parts.loc[parts["delta"] > 0, "day"].min())
    hi = int(parts["max_act"].max())
    fold = parts.groupby("day")["delta"].sum()
    spine = np.arange(lo, hi + 1)
    dd = np.zeros(len(spine), np.int64)
    idx = fold.index.to_numpy() - lo
    keep = (idx >= 0) & (idx < len(spine))
    dd[idx[keep]] = fold.to_numpy()[keep]
    # deltas landing before the spine (none: starts are activity days)
    mau = np.cumsum(dd)
    return pd.DataFrame(
        {
            "day": pd.to_datetime(spine * 86_400_000_000_000, unit="ns").astype(
                "datetime64[us]"
            ),
            "mau_7d": mau.astype("int64"),
        }
    )


# --------------------------------------------------------------------------
def q_value_regression(sf_dir: str) -> pd.DataFrame:
    """Per-group ordinary-least-squares fit (value ~ hour-of-day) from
    the same ADDITIVE moment partials as :func:`q_value_correlation`:
    slope, intercept and r² are closed forms over (n, Σx, Σy, Σx², Σy²,
    Σxy), so the distributed part is one combiner row per (block, type)
    and the driver does a 6-column fold — the classic way to train a
    per-segment linear model over 100 TB without ever shuffling raw
    rows.  The oracle evaluates the IDENTICAL closed-form expressions
    from SQL ``sum()``s so both engines round the same arithmetic.
    """
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.hour(t["ts"]), pa.float64())
        y = t["value"]
        g = pa.table(
            {
                "event_type": t["event_type"],
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
                "xy": pc.multiply(x, y),
            }
        )
        return g.group_by("event_type").aggregate(
            [("x", "sum"), ("y", "sum"), ("xx", "sum"), ("yy", "sum"),
             ("xy", "sum"), ([], "count_all")]
        )

    df = _combine(
        ds,
        partial,
        ["event_type"],
        {
            "n": ("count_all", "sum"),
            "sx": ("x_sum", "sum"),
            "sy": ("y_sum", "sum"),
            "sxx": ("xx_sum", "sum"),
            "syy": ("yy_sum", "sum"),
            "sxy": ("xy_sum", "sum"),
        },
    )
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    n = df["n"].astype(float).to_numpy()
    sx, sy = df["sx"].to_numpy(), df["sy"].to_numpy()
    sxx, syy, sxy = df["sxx"].to_numpy(), df["syy"].to_numpy(), df["sxy"].to_numpy()
    cov = n * sxy - sx * sy
    slope = cov / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    r2 = (cov * cov) / ((n * sxx - sx * sx) * (n * syy - sy * sy))
    out = pd.DataFrame(
        {
            "event_type": df["event_type"],
            "n": df["n"].astype("int64"),
            "slope": round_half_away(slope, 6),
            "intercept": round_half_away(intercept, 6),
            "r2": round_half_away(r2, 6),
        }
    )
    return out.sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
def q_hour_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy of the event-type mix per hour-of-day — the
    distribution-drift / diversity metric a streaming quality monitor
    tracks.  Counts per (hour, type) are a map-side combiner (tiny
    fixed cardinality: 24 x |types|); the driver folds partial counts
    and evaluates ``-Σ p·ln p`` from EXACT integer ratios, so the only
    float work happens once on the final 24-row table.
    """
    ds = _rp(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "hour": pc.cast(pc.hour(t["ts"]), pa.int64()),
                "event_type": t["event_type"],
            }
        )
        return g.group_by(["hour", "event_type"]).aggregate([([], "count_all")])

    counts = _combine(
        ds, partial, ["hour", "event_type"], {"n": ("count_all", "sum")}
    )
    tot = counts.groupby("hour")["n"].transform("sum")
    p = counts["n"].to_numpy(float) / tot.to_numpy(float)
    counts["term"] = p * np.log(p)
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    out = counts.groupby("hour", as_index=False).agg(
        n_events=("n", "sum"), neg_ent=("term", "sum")
    )
    return pd.DataFrame(
        {
            "hour": out["hour"].astype("int64"),
            "n_events": out["n_events"].astype("int64"),
            "type_entropy": round_half_away(-out["neg_ent"].to_numpy(), 6),
        }
    ).sort_values("hour", ignore_index=True)


# --------------------------------------------------------------------------
def q_event_pagerank(sf_dir: str, *, iters: int = 2, damping: float = 0.85) -> pd.DataFrame:
    """PageRank over the event-type transition graph (power iteration,
    iterative-algorithm family like ``q_kmeans_assign``): the
    distributed work is the Markov pair counting (reused from
    :func:`q_event_transitions`, bounded user buckets); the iteration
    itself runs on the aggregated TYPE x TYPE matrix — domain-bounded
    tiny (event-type cardinality), the correct driver-side residue.
    Dangling mass is dropped identically on both sides (the oracle
    unrolls the same update), so this is the formula contract, not
    canonical dangling-redistributed PageRank."""
    counts = q_event_transitions(sf_dir)
    types = np.array(
        sorted(set(counts["prev_type"]) | set(counts["next_type"]))
    )
    n = len(types)
    idx = {t: i for i, t in enumerate(types)}
    P = np.zeros((n, n))
    for a, b, c in zip(counts["prev_type"], counts["next_type"], counts["n"]):
        P[idx[a], idx[b]] = c
    row = P.sum(axis=1, keepdims=True)
    P = np.divide(P, row, out=np.zeros_like(P), where=row > 0)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r = (1 - damping) / n + damping * (r @ P)
    return pd.DataFrame(
        {"event_type": types, "rank": np.round(r, 6)}
    ).sort_values("event_type", ignore_index=True)


def q_event_transitions(sf_dir: str, *, n_buckets: int = 256) -> pd.DataFrame:
    """First-order Markov transition counts: for each user's event
    stream ordered by (ts, event_id), count consecutive
    (prev_type -> next_type) pairs globally — the session-flow /
    next-action model a product-analytics pipeline fits.

    Per-user ordering without a per-user shuffle: users are hashed into
    ``n_buckets`` bounded buckets (every user's rows land in ONE
    bucket), each bucket task lexsorts its rows by (user, ts, id) with
    numpy and counts adjacent same-user pairs vectorized; only
    |types|² partial-count rows per bucket leave the workers and the
    driver folds them.  Task size tracks bucket size (corpus/n_buckets),
    never corpus size.
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def bucketize(t: pa.Table) -> pa.Table:
        # n_buckets is a power of two: id & (n-1) == id % n
        b = pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1, pa.int64()))
        return t.append_column("bucket", b)

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (
                df["event_id"].to_numpy(),
                df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                df["user_id"].to_numpy(),
            )
        )
        uid = df["user_id"].to_numpy()[order]
        typ = df["event_type"].to_numpy()[order]
        same = uid[:-1] == uid[1:]
        pairs = pd.DataFrame(
            {"prev_type": typ[:-1][same], "next_type": typ[1:][same]}
        )
        out = pairs.value_counts(["prev_type", "next_type"]).reset_index(name="n")
        return out

    parts = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(transitions, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby(["prev_type", "next_type"], as_index=False).agg(
        n=("n", "sum")
    )
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["prev_type", "next_type"], ignore_index=True)


# --------------------------------------------------------------------------
def q_cube_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE (year, order-priority): all four grouping sets —
    (year, priority), year subtotals, priority subtotals, grand total —
    derived from ONE set of finest-level map-side partials (the cube
    lattice is additive, so coarser cells re-aggregate the finest
    cells; nothing is rescanned and only tiny partials move).  String
    labels with ``'ALL'`` mark rolled-up axes, as in
    :func:`q_rollup_revenue`.
    """
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "o_orderpriority": t["o_orderpriority"],
                "o_totalprice": t["o_totalprice"],
            }
        )
        return g.group_by(["o_year", "o_orderpriority"]).aggregate(
            [("o_totalprice", "sum"), ([], "count_all")]
        )

    fine = _combine(
        ds,
        partial,
        ["o_year", "o_orderpriority"],
        {"revenue": ("o_totalprice_sum", "sum"), "n_orders": ("count_all", "sum")},
    )
    yearly = fine.groupby("o_year", as_index=False).agg(
        revenue=("revenue", "sum"), n_orders=("n_orders", "sum")
    )
    priority = fine.groupby("o_orderpriority", as_index=False).agg(
        revenue=("revenue", "sum"), n_orders=("n_orders", "sum")
    )
    grand = pd.DataFrame(
        {"revenue": [fine["revenue"].sum()], "n_orders": [fine["n_orders"].sum()]}
    )
    fine["year_label"] = fine["o_year"].astype(str)
    fine["priority_label"] = fine["o_orderpriority"]
    yearly["year_label"] = yearly["o_year"].astype(str)
    yearly["priority_label"] = "ALL"
    priority["year_label"] = "ALL"
    priority["priority_label"] = priority["o_orderpriority"]
    grand["year_label"] = "ALL"
    grand["priority_label"] = "ALL"
    cols = ["year_label", "priority_label", "revenue", "n_orders"]
    out = pd.concat(
        [fine[cols], yearly[cols], priority[cols], grand[cols]], ignore_index=True
    )
    out["revenue"] = out["revenue"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(["year_label", "priority_label"], ignore_index=True)


# --------------------------------------------------------------------------
def q_zscore_values(sf_dir: str) -> rd.Dataset:
    """Per-group feature standardization: z-score of ``value`` within
    its event_type — the normalize-before-training step of every ML
    feature pipeline, done the scale-safe way: pass 1 is a map-side
    moment combiner (one row per block x type), the tiny (type -> mu,
    sd) table is baked into the pass-2 closure (broadcast once with the
    function, not per batch), and pass 2 is a streaming vectorized
    transform returning a Dataset — no shuffle, no materialization.
    Population sd from the closed form sqrt(Σx²/n − mu²), mirrored
    exactly in the oracle SQL.
    """
    ds = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "event_type": t["event_type"],
                "x": t["value"],
                "xx": pc.multiply(t["value"], t["value"]),
            }
        )
        return g.group_by("event_type").aggregate(
            [("x", "sum"), ("xx", "sum"), ([], "count_all")]
        )

    stats = _combine(
        ds,
        partial,
        ["event_type"],
        {"n": ("count_all", "sum"), "sx": ("x_sum", "sum"), "sxx": ("xx_sum", "sum")},
    )
    mu = stats["sx"].to_numpy() / stats["n"].to_numpy(float)
    sd = np.sqrt(stats["sxx"].to_numpy() / stats["n"].to_numpy(float) - mu * mu)
    table = {t: (m, s) for t, m, s in zip(stats["event_type"], mu, sd)}

    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    def transform(t: pa.Table) -> pa.Table:
        types = t["event_type"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(types)
        mus = np.array([table[u][0] for u in uniq])[codes]
        sds = np.array([table[u][1] for u in uniq])[codes]
        z = (t["value"].to_numpy() - mus) / sds
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "zscore": pa.array(round_half_away(z, 4), pa.float64()),
            }
        )

    return ds.map_batches(transform, batch_format="pyarrow")


# --------------------------------------------------------------------------
def q_mode_priority(sf_dir: str) -> pd.DataFrame:
    """MODE / arg-max aggregate: the most frequent order priority per
    year, deterministic tie-break on priority string.  The distributed
    part is the (year, priority) count combiner — tiny fixed
    cardinality, one partial row per block x cell — and the arg-max
    itself is a driver fold over that lattice, exactly how a mode over
    100 TB stays shuffle-free when the group domain is bounded.
    """
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                "o_orderpriority": t["o_orderpriority"],
            }
        )
        return g.group_by(["o_year", "o_orderpriority"]).aggregate([([], "count_all")])

    counts = _combine(
        ds, partial, ["o_year", "o_orderpriority"], {"n": ("count_all", "sum")}
    )
    counts = counts.sort_values(
        ["o_year", "n", "o_orderpriority"], ascending=[True, False, True]
    )
    out = counts.groupby("o_year", as_index=False).first()
    return pd.DataFrame(
        {
            "o_year": out["o_year"].astype("int64"),
            "mode_priority": out["o_orderpriority"],
            "n": out["n"].astype("int64"),
        }
    ).sort_values("o_year", ignore_index=True)


# --------------------------------------------------------------------------
def q_source_lists(sf_dir: str) -> pd.DataFrame:
    """LIST / string_agg aggregate: per language, the ordered
    comma-joined list of DISTINCT sources publishing in it.  The
    distinct (lang, source) pairs are a map-side combiner (bounded
    domain: |langs| x |sources|); only those tiny partials move and the
    driver does the ordered join — the bounded-domain form of a listagg
    that never ships raw rows.
    """
    ds = _rp(sf_dir, "documents", ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(["lang", "source"]).aggregate([([], "count_all")])

    pairs = _combine(ds, partial, ["lang", "source"], {"n": ("count_all", "sum")})
    pairs = pairs.sort_values(["lang", "source"])
    out = pairs.groupby("lang", as_index=False).agg(
        n_sources=("source", "size"), sources=("source", ",".join)
    )
    out["n_sources"] = out["n_sources"].astype("int64")
    return out.sort_values("lang", ignore_index=True)


# --------------------------------------------------------------------------
def q_value_histogram(sf_dir: str, *, n_bins: int = 20) -> pd.DataFrame:
    """Equi-width histogram of ``value``: pass 1 is a global min/max
    combiner (one row per block), pass 2 bins every row with the SAME
    closed-form expression the oracle uses
    (``floor((v - lo) * n / (hi - lo))`` capped at n-1) and reduces to
    per-(block, bin) partial counts.  Two linear streams, no shuffle —
    the shape of every distribution profile over 100 TB.  Empty bins
    emit no row (group-by semantics), matching SQL.
    """
    ds = _rp(sf_dir, "events", ["value"])

    def minmax(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lo": pa.array([pc.min(t["value"]).as_py()], pa.float64()),
                "hi": pa.array([pc.max(t["value"]).as_py()], pa.float64()),
            }
        )

    mm = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
    lo, hi = float(mm["lo"].min()), float(mm["hi"].max())

    def binned(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        b = np.minimum(
            np.floor((v - lo) * n_bins / (hi - lo)).astype(np.int64), n_bins - 1
        )
        return pa.table({"bin": pa.array(b, pa.int64())}).group_by("bin").aggregate(
            [([], "count_all")]
        )

    out = _combine(ds, binned, ["bin"], {"n": ("count_all", "sum")})
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    b = out["bin"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "bin": b,
            "bin_lo": round_half_away(lo + b * (hi - lo) / n_bins, 6),
            "n": out["n"].astype("int64"),
        }
    )
    return out.sort_values("bin", ignore_index=True)


# --------------------------------------------------------------------------
def q_extract_source_num(sf_dir: str) -> rd.Dataset:
    """Regex capture-group extraction (RE2 both sides): pull the
    numeric id out of the ``source`` tag with one vectorized
    ``pc.extract_regex`` kernel per batch, streaming Dataset out — the
    structured-field-from-string step (log lines, URLs, tags) of every
    ingest pipeline, as a compiled kernel rather than a Python loop.
    """
    ds = _rp(sf_dir, "documents", ["doc_id", "source"])

    def fn(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["source"], r"src(?P<num>\d+)")
        num = pc.cast(pc.struct_field(m, "num"), pa.int64())
        return pa.table(
            {"doc_id": t["doc_id"], "source": t["source"], "src_num": num}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# --------------------------------------------------------------------------
def _bloom_hashes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit mixes (splitmix64 finalizer constants) for
    double hashing; h2 forced odd so (h1 + i*h2) cycles all positions."""
    x = keys.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h1 = x ^ (x >> np.uint64(31))
    y = h1 * np.uint64(0x9E3779B97F4A7C15)
    h2 = (y ^ (y >> np.uint64(29))) | np.uint64(1)
    return h1, h2


def q_bloom_semi_join(sf_dir: str, *, m_bits: int = 1 << 17, k: int = 4) -> pd.DataFrame:
    """Bloom-filter semi-join: yearly line-item revenue for URGENT
    high-value orders.  The build side reduces to per-block Bloom
    BITMAPS (a monoid: driver ORs ~16 KB per block) so the broadcast to
    probe tasks is constant-size no matter how many build keys there
    are; the probe side tests membership vectorized inside
    ``map_batches`` and only survivors — true matches plus the ~0.1 %
    false-positive tail — enter the exact shuffle join that removes the
    false positives.  That is the canonical 100 TB shape: the all-to-all
    exchange sees the OUTPUT class, not the probe table.  The bloom is
    invisible in the result by construction (exact recheck), so the
    oracle is the plain semi-join aggregate.
    """
    orders = _rp(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority", "o_totalprice"]
    )

    def build_side(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")),
                pc.greater(t["o_totalprice"], pa.scalar(150_000.0)),
            )
        )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        )

    build = orders.map_batches(build_side, batch_format="pyarrow")

    def bloom_partial(t: pa.Table) -> pa.Table:
        h1, h2 = _bloom_hashes(t["o_orderkey"].to_numpy())
        bits = np.zeros(m_bits, np.bool_)
        for i in range(k):
            bits[(h1 + np.uint64(i) * h2) & np.uint64(m_bits - 1)] = True
        return pa.table({"bm": pa.array([np.packbits(bits).tobytes()], pa.binary())})

    parts = build.map_batches(bloom_partial, batch_format="pyarrow").to_pandas()
    packed = np.zeros(m_bits // 8, np.uint8)
    for b in parts["bm"]:
        packed |= np.frombuffer(b, np.uint8)
    bits = np.unpackbits(packed).view(np.bool_)

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def probe(t: pa.Table) -> pa.Table:
        h1, h2 = _bloom_hashes(t["l_orderkey"].to_numpy())
        mask = np.ones(len(h1), np.bool_)
        for i in range(k):
            mask &= bits[(h1 + np.uint64(i) * h2) & np.uint64(m_bits - 1)]
        t = t.filter(pa.array(mask))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})
        # pre-aggregate survivors: the downstream rollup is additive
        return g.group_by("l_orderkey").aggregate([("revenue", "sum"), ([], "count_all")])

    survivors = li.map_batches(probe, batch_format="pyarrow")
    joined = survivors.join(
        build,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def post(t: pa.Table) -> pa.Table:
        return t.group_by("o_year").aggregate(
            [("revenue_sum", "sum"), ("count_all", "sum")]
        )

    df = _combine(
        joined,
        post,
        ["o_year"],
        {"n_lines": ("count_all_sum", "sum"), "sum_revenue": ("revenue_sum_sum", "sum")},
    )
    df["o_year"] = df["o_year"].astype("int64")
    df["n_lines"] = df["n_lines"].astype("int64")
    df["sum_revenue"] = df["sum_revenue"].round(2)
    return df.sort_values("o_year", ignore_index=True)


# --------------------------------------------------------------------------
def q_cdc_engine_replay(sf_dir: str) -> pd.DataFrame:
    """Full-ENGINE witness, driver-visible: recast the events table as a
    transcript WAL (conv_id = user, turn_idx = dense event-type index,
    lsn = event_id), run it through the REAL :class:`CdcEngine` — epoch
    discovery, validation gate, staged partitioned write, exactly-once
    keyed LWW merge — then ``compact()`` and ``snapshot_table()``.  The
    oracle is the SQL LWW winner per (user, type), so this certifies
    apply + compact + snapshot end-to-end against an independent engine,
    not just in the engine's own pytest suite.

    The WAL conversion is driver-side pyarrow here (tiny at test scale);
    at 100 TB it is the same column mapping inside ``map_batches`` with
    ``write_parquet`` into the epoch layout — the engine side is already
    the scale path.  Scratch lives under /tmp, rebuilt per call.
    """
    import os

    root = "/tmp/nyc_ray_q_engine_replay"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    report = eng.apply(wal_dir)
    assert report.rejects == 0, report
    eng.compact()
    return eng.snapshot_table().to_pandas()


def _events_as_transcript_wal(
    sf_dir: str,
    root: str,
    *,
    poison_mod: int | None = None,
    epoch_by_parity: bool = False,
    evolve: bool = False,
):
    """Recast the events table as a two-epoch transcript WAL under
    ``root`` (see :func:`q_cdc_engine_replay` for the scale notes).
    Returns ``(engine, wal_dir)`` with nothing applied yet — callers
    choose whole-WAL or epoch-at-a-time replay.  ``poison_mod`` plants
    deterministically invalid rows (turn_idx = -1 where
    ``event_id % poison_mod == 0``) to exercise the dead-letter path
    with a SQL-expressible expected set.  ``epoch_by_parity`` splits
    epochs by ``event_id % 2`` instead of the id midpoint — the ids
    correlate with event time in the test data, so parity makes the
    second epoch interleave in event time (non-trivial late arrivals
    for the watermark witness).  ``evolve`` makes epoch 1 a SCHEMA-
    EVOLVED segment: it gains a ``model`` column ('m-' || event_type)
    and widens ``turn_idx`` to int64 — the add-column/type-widen case
    the engine must unify at merge time."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig

    shutil.rmtree(root, ignore_errors=True)
    ev = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    types = np.array(sorted(set(ev["event_type"].to_pylist())))
    turn_idx = np.searchsorted(types, ev["event_type"].to_numpy(zero_copy_only=False))
    eid = ev["event_id"].to_numpy()
    if poison_mod is not None:
        turn_idx = np.where(eid % poison_mod == 0, -1, turn_idx)
    if epoch_by_parity:
        epoch = (eid % 2).astype(np.int32)
    else:
        epoch = (eid > int(eid.max()) // 2).astype(np.int32)
    wal = pa.table(
        {
            "lsn": ev["event_id"],
            "op": pa.array(np.full(len(ev), "insert")),
            "epoch": pa.array(epoch, pa.int32()),
            "conv_id": pc.binary_join_element_wise(
                pa.array(np.full(len(ev), "u")), pc.cast(ev["user_id"], pa.string()), ""
            ),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(np.full(len(ev), "user")),
            "text": ev["event_type"],
            "tool": pa.nulls(len(ev), pa.string()),
            "ts": ev["ts"],
        }
    )
    for e in (0, 1):
        d = os.path.join(root, "wal", f"epoch={e:06d}")
        os.makedirs(d)
        part = wal.filter(pc.equal(wal["epoch"], pa.scalar(e, pa.int32())))
        if evolve and e == 1:
            part = part.set_column(
                part.schema.get_field_index("turn_idx"),
                "turn_idx",
                pc.cast(part["turn_idx"], pa.int64()),
            ).append_column(
                "model",
                pc.binary_join_element_wise(
                    pa.array(np.full(part.num_rows, "m-")), part["text"], ""
                ),
            )
        pq.write_table(part, os.path.join(d, "part-0000.parquet"))
    eng = CdcEngine(LakeConfig.open_or_create(os.path.join(root, "lake"), num_partitions=4))
    return eng, os.path.join(root, "wal")


def q_matview_conv_stats(sf_dir: str) -> pd.DataFrame:
    """Incrementally-maintained materialized view, driver-visible: replay
    the events-as-transcripts WAL through the engine epoch by epoch and
    ``refresh()`` the per-conversation stats view after EACH commit group
    — the second refresh recomputes only partitions whose ledger
    advanced (state/matview.py).  The oracle is the SQL aggregate over
    the LWW winners, so this certifies that incremental maintenance
    (partition reuse + recompute-on-touch) equals a from-scratch build.

    The reference's analog rebuilds its whole gold layer per run
    (``nyc_taxi_dbt/models/marts/aggregations/agg_monthly.sql``); at
    10^10 events the view touches only the partitions an epoch's WAL
    slice hit — no shuffle, because conversations are partition-local.
    """
    import os

    from nyc_taxi_data_pipeline_ray.state.matview import MaterializedView

    root = "/tmp/nyc_ray_q_matview"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    mv = MaterializedView(eng, os.path.join(root, "view"))
    eng.apply(wal_dir, max_epochs=1)
    mv.refresh()
    eng.apply(wal_dir)
    mv.refresh()
    idem = mv.refresh()  # ledger unchanged -> every partition reused
    assert idem["refreshed"] == 0 and idem["reused"] == 4, idem
    return mv.table().to_pandas()


def q_cdc_rejects_feed(sf_dir: str) -> pd.DataFrame:
    """Dead-letter feed, driver-visible WITH a full SQL oracle: the
    events-as-transcripts WAL is poisoned deterministically
    (turn_idx = -1 where event_id % 97 == 0), replayed epoch by epoch,
    and ``CdcEngine.rejects()`` must return exactly the poisoned rows
    — group-tagged, with the vectorized first-failing-rule reason —
    while the valid rows commit normally.  Exactly-once: rejects are
    committed by the same log record as their group's delta, so the
    feed's row set is replay-stable (engine pytest covers re-apply)."""
    import os

    root = "/tmp/nyc_ray_q_rejects_feed"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root, poison_mod=97)
    eng.apply(wal_dir, max_epochs=1)
    eng.apply(wal_dir)
    t = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.rejects().iter_batches(batch_format="pyarrow")
        ],
        promote_options="default",
    )
    return t.to_pandas().sort_values("lsn").reset_index(drop=True)


def q_conversation_text(sf_dir: str) -> pd.DataFrame:
    """Transcript assembly — the bridge from the CDC lake to the corpus
    pipelines: replay the events-as-transcripts WAL, then render ONE
    training document per conversation (turns joined with newlines in
    turn order) plus turn/char counts.  Downstream chunking, dedup and
    quality scoring consume exactly this shape.

    Scale: conversations are partition-local in the lake, but blocks
    may re-split under Ray's dynamic blocking, so assembly shuffles on
    a bounded hash bucket of conv_id and runs one vectorized
    sort + groupby-join pass per bucket (never one task per
    conversation, never the whole corpus in one task)."""
    import os

    root = "/tmp/nyc_ray_q_conv_text"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir)
    snap = eng.snapshot(columns=["conv_id", "turn_idx", "text"])
    NB = 64

    def bucketize(t: pa.Table) -> pa.Table:
        from nyc_taxi_data_pipeline_ray.engine import hash_partition_ids

        # deterministic cross-process hash (python hash() is salted)
        h = hash_partition_ids(t["conv_id"], NB).astype(np.int32)
        return t.append_column("bucket", pa.array(h))

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"])
        gb = g.groupby("conv_id", sort=True)
        doc = gb["text"].agg("\n".join)
        return pd.DataFrame(
            {
                "conv_id": doc.index,
                "doc": doc.to_numpy(),
                "n_turns": gb.size().to_numpy().astype("int64"),
                "n_chars": doc.str.len().to_numpy().astype("int64"),
            }
        )

    out = (
        snap.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(assemble, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id", ignore_index=True)


def q_cdc_point_lookup(sf_dir: str) -> pd.DataFrame:
    """Pruned point lookups, driver-visible: replay the
    events-as-transcripts WAL, compact (so lookups exercise the
    key-sorted base's row-group statistics AND the Bloom sidecar), then
    serve the 20 smallest conv_ids through
    :meth:`CdcEngine.get_conversations` — partition-pruned, row-group-
    pruned, bloom-screened.  The oracle filters the SQL LWW winners to
    the same id set, certifying that the entire pruned read path
    returns exactly the full-scan answer."""
    root = "/tmp/nyc_ray_q_point_lookup"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir)
    eng.compact()
    import pyarrow.parquet as _pq

    ev = _pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    ids = ["u" + str(u) for u in sorted(set(ev["user_id"].to_pylist()))[:20]]
    t = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.get_conversations(ids + ["u-missing"]).iter_batches(
                batch_format="pyarrow"
            )
        ],
        promote_options="default",
    )
    out = t.select(["conv_id", "turn_idx", "text", "ts", "lsn"]).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"], ignore_index=True)


def q_cdc_reshard(sf_dir: str) -> pd.DataFrame:
    """Scale-out resharding, driver-visible: replay half the WAL, reshard
    4 -> 7 partitions, apply the REMAINING epoch to the resharded lake,
    and return its snapshot — which the oracle (the full-replay LWW
    winners) certifies byte-for-byte.  The in-query assertion witnesses
    layout-independent convergence via the XOR checksum against the
    un-resharded source."""
    import os as _os

    root = "/tmp/nyc_ray_q_reshard"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir, max_epochs=1)
    eng2 = eng.reshard(_os.path.join(root, "lake7"), 7)
    eng.apply(wal_dir)
    eng2.apply(wal_dir)
    assert eng2.checksum() == eng.checksum()
    snap = eng2.snapshot_table()
    out = snap.select(["conv_id", "turn_idx", "text", "ts", "lsn"]).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"], ignore_index=True)


def q_corpus_refresh(sf_dir: str) -> pd.DataFrame:
    """Incremental corpus refresh, driver-visible: replay the
    events-as-transcripts WAL epoch by epoch and keep the
    one-document-per-conversation corpus table in sync via
    :class:`CorpusTable` (state/derived.py — group-granular: only
    conversations whose turn set changed are re-rendered).  The oracle
    is the same assembly in SQL over the LWW winners, so incremental
    corpus maintenance is certified equal to a from-scratch render —
    the continuous-pretraining story: an epoch touching 0.1% of
    conversations re-renders 0.1% of documents."""
    import os

    from nyc_taxi_data_pipeline_ray.state.derived import CorpusTable

    root = "/tmp/nyc_ray_q_corpus_refresh"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    ct = CorpusTable(eng, os.path.join(root, "corpus"))
    eng.apply(wal_dir, max_epochs=1)
    ct.refresh()
    eng.apply(wal_dir)
    ct.refresh()
    assert ct.refresh()["refreshed"] == 0  # noop witness
    return ct.table().to_pandas()


def q_cdc_corpus_release(sf_dir: str) -> pd.DataFrame:
    """CAPSTONE composition — the full CDC-to-training-data release in
    one oracle-checked path: replay the events-as-transcripts WAL
    through the engine, keep the corpus table in incremental sync
    (:class:`CorpusTable`), then run the release steps the corpus
    pipelines implement — NFC+casefold+whitespace normalization, exact
    dedup with smallest-conv_id winner election, md5-keyed
    deterministic train/val split — all as one lazy Dataset chain over
    the corpus Dataset (no driver materialization until the final
    bounded output).  The oracle composes the same steps in SQL over
    the LWW winners, so the whole lake -> corpus -> release bridge is
    certified end-to-end, not just per stage.

    Scale: assembly is partition-local (conversations never cross
    partitions), normalization/split are per-row kernels, and winner
    election is a bounded digest-group shuffle (one row per distinct
    normalized doc leaves each block)."""
    import hashlib
    import os

    from nyc_taxi_data_pipeline_ray.pipelines.text import normalize_col
    from nyc_taxi_data_pipeline_ray.state.derived import CorpusTable

    root = "/tmp/nyc_ray_q_corpus_release"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    ct = CorpusTable(eng, os.path.join(root, "corpus"))
    eng.apply(wal_dir, max_epochs=1)
    ct.refresh()
    eng.apply(wal_dir)
    ct.refresh()

    def release(t: pa.Table) -> pa.Table:
        norm = normalize_col(t["doc"])
        convs = t["conv_id"].to_pylist()
        h = np.array(
            [
                int.from_bytes(hashlib.md5(c.encode("utf-8")).digest()[8:16], "little")
                for c in convs
            ],
            dtype=np.uint64,
        )
        split = np.where(h % 10 == 0, "val", "train")
        # 24-byte digest stands in for the full doc in the dedup
        # shuffle (the q_dedup_exact precedent)
        digest = [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()
        ]
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "digest": pa.array(digest, pa.string()),
                "n_turns": t["n_turns"],
                "split": pa.array(split, pa.string()),
            }
        )

    def elect(g: pd.DataFrame) -> pd.DataFrame:
        """Winner per distinct normalized doc = smallest conv_id."""
        g = g.sort_values("conv_id")
        g["keep"] = ~g["digest"].duplicated()
        return g

    out = (
        ct.read()
        .map_batches(release, batch_format="pyarrow")
        .groupby("digest")
        .map_groups(elect, batch_format="pandas")
        .to_pandas()
    )
    return (
        out[["conv_id", "n_turns", "split", "keep"]]
        .sort_values("conv_id", ignore_index=True)
    )


def q_role_stats_ivm(sf_dir: str) -> pd.DataFrame:
    """Row-level incremental view maintenance, driver-visible: replay
    the events-as-transcripts WAL epoch by epoch and keep per-role
    totals in sync via :class:`DeltaAggregate` — bootstrap from the
    epoch-0 snapshot, then fold ONLY the diff() before/after images of
    the second commit group (O(changed keys), the retraction-based IVM
    the partition-granular matview deliberately avoids).  The oracle is
    the plain SQL aggregate over the LWW winners, so incremental
    maintenance is certified equal to a from-scratch build."""
    import os

    from nyc_taxi_data_pipeline_ray.state.matview import DeltaAggregate

    root = "/tmp/nyc_ray_q_role_ivm"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    da = DeltaAggregate(eng, os.path.join(root, "roles.json"))
    eng.apply(wal_dir, max_epochs=1)
    assert da.refresh()["mode"] == "full"
    eng.apply(wal_dir)
    assert da.refresh()["mode"] == "incremental"
    assert da.refresh()["mode"] == "noop"
    return da.table().to_pandas()


def q_index_lookup(sf_dir: str) -> pd.DataFrame:
    """Incrementally-maintained secondary index, driver-visible: replay
    the events-as-transcripts WAL epoch by epoch, keep a value index
    over the ``text`` column in sync (state/secondary_index.py —
    partition-granular recompute-on-touch, value-sorted files with
    bounded row groups), then serve "every turn whose text equals one
    of the two smallest distinct values" through the index's pruned
    lookup.  The oracle filters the SQL LWW winners to the same probe
    set, certifying the index's posting lists against a from-scratch
    scan.  The reference has no secondary access path (dashboard
    drilldowns re-filter whole tables, ``streaming/dashboard/app.py``);
    this is the lake-native answer at 10^10 rows: O(hits) row groups
    read, not a partition scan."""
    import os

    import pyarrow.parquet as _pq

    from nyc_taxi_data_pipeline_ray.state.secondary_index import SecondaryIndex

    root = "/tmp/nyc_ray_q_sidx"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    idx = SecondaryIndex(eng, os.path.join(root, "textidx"), "text")
    eng.apply(wal_dir, max_epochs=1)
    idx.refresh()
    eng.apply(wal_dir)
    idx.refresh()
    assert idx.refresh()["refreshed"] == 0  # noop witness

    ev = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type"])
    probe = sorted(set(ev["event_type"].to_pylist()))[:2]
    t = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in idx.lookup(probe).iter_batches(batch_format="pyarrow")
        ],
        promote_options="default",
    )
    return (
        t.to_pandas()
        .sort_values(["value", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )


def q_derived_enriched(sf_dir: str) -> pd.DataFrame:
    """Row-level incrementally-maintained DERIVED TABLE, driver-visible
    — the dbt incremental-model analog (``fct_trips.sql`` merges only
    new rows; ``int_trips_validated.sql:46-69`` is the enrichment):
    replay the events-as-transcripts WAL epoch by epoch and keep an
    enriched per-turn table (char count, hour, user flag, display
    form) in sync via :class:`DerivedTable.refresh`, which re-runs the
    transform ONLY over keys whose LWW winner changed (state/derived.py
    — changed keys from the diff machinery, full-schema rows by
    vectorized key semi-join, old file patched in place).  The oracle
    is the same enrichment in SQL over the LWW winners, so incremental
    maintenance is certified equal to transform(full snapshot).  The
    in-query assertions witness that the second refresh was
    incremental (transformed <= changed keys, not table size) and that
    a third refresh is a noop."""
    import os

    from nyc_taxi_data_pipeline_ray.state.derived import DerivedTable, enrich_turns

    root = "/tmp/nyc_ray_q_derived"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    dt = DerivedTable(eng, os.path.join(root, "derived"), enrich_turns)
    eng.apply(wal_dir, max_epochs=1)
    r1 = dt.refresh()
    eng.apply(wal_dir)
    r2 = dt.refresh()
    assert r2["transformed_rows"] <= r2["rows"], (r1, r2)
    r3 = dt.refresh()
    assert r3["refreshed"] == 0 and r3["transformed_rows"] == 0
    return dt.table().to_pandas()


def q_interval_overlap_join(sf_dir: str, *, gap_minutes: int = 30) -> pd.DataFrame:
    """Distributed RANGE (interval-overlap) join — the join shape Ray
    Data has no native operator for: per-user activity sessions
    (gap-sessionized intervals) joined to "busy hours" (hour buckets
    with above-average event counts) on interval overlap, counting the
    sessions that overlap each busy hour.

    Scale shape: the busy-hour side is time-bounded-tiny (one row per
    wall-clock hour), so it is the broadcast side — a sorted start
    array shipped with the task closure; each session batch finds its
    overlapped hour RANGE with two vectorized ``searchsorted`` calls
    and accumulates per-hour partial counts (``np.add.at``), which the
    driver folds (hours-cardinality, not session-cardinality).  No
    shuffle beyond the sessionizer's hash-by-user exchange.  If BOTH
    sides were huge, the path is bucket-replication by coarse time
    range — documented, not needed for a bounded busy-hour side."""
    sess = q_sessionize(sf_dir, gap_minutes=gap_minutes)

    ev = _rp(sf_dir, "events", ["ts"])

    def hour_partial(t: pa.Table) -> pa.Table:
        h = pc.floor_temporal(t["ts"], unit="hour")
        out = pa.table({"hour_start": h}).group_by("hour_start").aggregate(
            [("hour_start", "count")]
        )
        return out.rename_columns(["hour_start", "n"])

    hours = (
        ev.map_batches(hour_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("hour_start", as_index=False)["n"]
        .sum()
    )
    busy = np.sort(
        hours[hours["n"] > hours["n"].mean()]["hour_start"]
        .to_numpy()
        .astype("datetime64[us]")
    )
    one_hour = np.timedelta64(1, "h")

    def overlap_partial(df: pd.DataFrame) -> pd.DataFrame:
        s0 = df["session_start"].to_numpy().astype("datetime64[us]")
        s1 = df["session_end"].to_numpy().astype("datetime64[us]")
        lo = np.searchsorted(busy, s0 - one_hour, side="right")
        hi = np.searchsorted(busy, s1, side="right")
        counts = np.zeros(len(busy), np.int64)
        np.add.at(counts, np.concatenate([np.arange(l, h) for l, h in zip(lo, hi)]), 1)
        keep = counts > 0
        return pd.DataFrame(
            {"hour_start": busy[keep], "n_sessions": counts[keep]}
        )

    parts = sess.map_batches(overlap_partial, batch_format="pandas").to_pandas()
    out = (
        parts.groupby("hour_start", as_index=False)["n_sessions"]
        .sum()
        .sort_values("hour_start", ignore_index=True)
    )
    out["n_sessions"] = out["n_sessions"].astype("int64")
    return out


def q_rejects_repair_replay(sf_dir: str) -> pd.DataFrame:
    """Dead-letter RECOVERY, end to end: poison the WAL (turn_idx = -1
    on event_id % 97 == 0), replay — the poisoned rows dead-letter —
    then read them back from ``rejects()``, repair the turn index
    deterministically (re-derive it from the text, which carries the
    event type), re-inject the repaired rows as a NEW epoch, and
    replay again.  The final lake state must equal the NEVER-POISONED
    replay (the ``cdc_engine_replay`` oracle): repaired rows re-enter
    with their original (ts, lsn), so LWW puts every winner back —
    the witness that dead letters are losslessly recoverable.

    Scale shape: the repair is a map over the rejects feed (a Dataset)
    plus one tiny broadcastable type->index mapping; re-injection is a
    normal epoch write, so recovery cost is O(rejects), not O(lake)."""
    import os

    import pyarrow.parquet as pq

    from nyc_taxi_data_pipeline_ray import schemas

    root = "/tmp/nyc_ray_q_repair"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root, poison_mod=97)
    rep = eng.apply(wal_dir)
    assert rep.rejects > 0, "poison must dead-letter"

    rej = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.rejects().iter_batches(batch_format="pyarrow")
        ],
        promote_options="default",
    )
    # deterministic repair: text IS the event type; its dense index is
    # the turn_idx the clean WAL would have carried
    types = np.array(sorted(set(pq.read_table(
        f"{sf_dir}/events.parquet", columns=["event_type"]
    )["event_type"].to_pylist())))
    fixed_ti = np.searchsorted(types, rej["text"].to_numpy(zero_copy_only=False))
    next_epoch = int(max(rep.epochs)) + 1
    repaired = pa.table(
        {
            "lsn": rej["lsn"],
            "op": rej["op"],
            "epoch": pa.array(np.full(rej.num_rows, next_epoch, np.int32)),
            "conv_id": rej["conv_id"],
            "turn_idx": pa.array(fixed_ti.astype(np.int32)),
            "role": rej["role"],
            "text": rej["text"],
            "tool": rej["tool"],
            "ts": rej["ts"],
        }
    ).cast(schemas.EVENT_SCHEMA)
    d = os.path.join(wal_dir, f"epoch={next_epoch:06d}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(repaired, os.path.join(d, "part-0000.parquet"))
    rep2 = eng.apply(wal_dir)
    assert rep2.rejects == 0, rep2
    eng.compact()
    return eng.snapshot_table().to_pandas()


def q_cdc_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Before/after-image change feed, driver-visible: replay the
    events-as-transcripts WAL epoch by epoch, then ``diff(from_epoch=0)``
    — every key whose LWW winner changed between the epoch-0 snapshot
    and the final state, classified insert/update/delete with both
    images (engine.py ``CdcEngine.diff``).  The oracle recomputes both
    snapshots' winners in SQL and outer-joins them, so this certifies
    the enriched feed against an independent engine.  Partition-local
    (both states of a key share a partition): no shuffle at any scale.
    """
    import os

    root = "/tmp/nyc_ray_q_snapshot_diff"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir, max_epochs=1)
    eng.apply(wal_dir)
    t = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.table(b)
            for b in eng.diff(from_epoch=0).iter_batches(batch_format="pyarrow")
        ]
    )
    return (
        t.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )


# --------------------------------------------------------------------------
def _digest_compress(vals: np.ndarray, wts: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress a SORTED weighted sample to <= cap cells by merging
    adjacent pairs (weighted-mean value, summed weight) — deterministic,
    no RNG.  A no-op whenever len <= cap, which is the exactness
    witness: an uncompressed digest IS the sorted sample."""
    while len(vals) > cap:
        if len(vals) % 2:  # keep the global max exact as its own cell
            v_tail, w_tail = vals[-1:], wts[-1:]
            vals, wts = vals[:-1], wts[:-1]
        else:
            v_tail = np.array([], vals.dtype)
            w_tail = np.array([], wts.dtype)
        w2 = wts[0::2] + wts[1::2]
        v2 = (vals[0::2] * wts[0::2] + vals[1::2] * wts[1::2]) / w2
        vals = np.concatenate([v2, v_tail])
        wts = np.concatenate([w2, w_tail])
    return vals, wts


def _digest_quantile(vals: np.ndarray, wts: np.ndarray, q: float) -> float:
    """Interpolated quantile from a sorted weighted sample.  Each cell's
    rank centroid is cum_before + (w-1)/2; with all weights 1 this is
    exactly numpy/SQL ``quantile_cont`` linear interpolation."""
    n = wts.sum()
    c = np.cumsum(wts) - wts + (wts - 1) / 2.0
    r = q * (n - 1)
    i = np.searchsorted(c, r, side="right") - 1
    if i < 0:
        return float(vals[0])
    if i >= len(vals) - 1 or c[i] == r:
        i = min(i, len(vals) - 1)
        if c[i] == r or i == len(vals) - 1:
            return float(vals[i])
    frac = (r - c[i]) / (c[i + 1] - c[i])
    return float(vals[i] + (vals[i + 1] - vals[i]) * frac)


def q_quantile_digest(sf_dir: str, *, cap: int = 8192) -> pd.DataFrame:
    """Mergeable quantile DIGEST per event_type: every block reduces to
    a sorted weighted sample of <= cap cells (adjacent-pair merging,
    deterministic, no RNG); partials are a commutative fold and the
    driver merges blocks x types x cap cells — never raw values.  This
    is the sketch the 100 TB plan ships when exact per-group percentile
    merges (``q_value_percentiles``) are too wide: accuracy degrades
    gracefully with cap, and max rank error is bounded by the largest
    cell weight / n.

    Exactness witness: whenever a group's n <= cap no compression ever
    triggers, the digest IS the sorted sample, and the rank-centroid
    interpolation reduces to SQL ``quantile_cont`` — so at the
    correctness gate's scale this is oracle-exact while exercising the
    SAME merge machinery that runs approximate at 100 TB
    (``tests/test_sketch.py`` asserts the small-cap error bound).
    """
    ds = _rp(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out_ty, out_v, out_w = [], [], []
        for ty, g in df.groupby("event_type", sort=False):
            v = np.sort(g["value"].to_numpy())
            v, w = _digest_compress(v, np.ones(len(v)), cap)
            out_ty.append(ty)
            out_v.append(v)
            out_w.append(w)
        return pd.DataFrame({"event_type": out_ty, "vals": out_v, "wts": out_w})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    rows = []
    for ty, g in parts.groupby("event_type", sort=True):
        v = np.concatenate([np.asarray(x, np.float64) for x in g["vals"]])
        w = np.concatenate([np.asarray(x, np.float64) for x in g["wts"]])
        order = np.argsort(v, kind="mergesort")
        v, w = _digest_compress(v[order], w[order], cap)
        rows.append(
            {
                "event_type": ty,
                "p50": _digest_quantile(v, w, 0.5),
                "p90": _digest_quantile(v, w, 0.9),
                "p99": _digest_quantile(v, w, 0.99),
            }
        )
    out = pd.DataFrame(rows)
    for c in ("p50", "p90", "p99"):
        out[c] = round_half_away(out[c].to_numpy(), 4)
    return out.sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
def q_rolling_user_sum(sf_dir: str, *, n_buckets: int = 256) -> pd.DataFrame:
    """RANGE-frame trailing window per key: for every event, the count
    and sum of that user's events in the trailing 1 hour (peers at the
    same ts included, matching SQL RANGE ... CURRENT ROW semantics) —
    the per-entity rate/velocity feature of every fraud / abuse
    pipeline, evaluated streaming.

    Users hash into bounded buckets (one bucket owns all of a user's
    rows); a bucket task sorts by (user, ts) once, then per user the
    window edges come from two ``searchsorted`` calls and the sums from
    a cumsum difference — O(n log n) per bucket, no quadratic frame
    re-scan, no shuffle beyond the single bucket exchange.
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1, pa.int64()))
        return t.append_column("bucket", b)

    one_hour = np.timedelta64(1, "h").astype("timedelta64[us]").astype(np.int64)

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="mergesort", ignore_index=True)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = df["value"].to_numpy()
        uid = df["user_id"].to_numpy()
        # user slice boundaries in the (user, ts)-sorted frame
        cut = np.concatenate([[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [len(uid)]])
        w_n = np.empty(len(uid), np.int64)
        w_sum = np.empty(len(uid), np.float64)
        for s, e in zip(cut[:-1], cut[1:]):
            t_u, v_u = ts[s:e], v[s:e]
            csum = np.concatenate([[0.0], np.cumsum(v_u)])
            lo = np.searchsorted(t_u, t_u - one_hour, side="left")
            hi = np.searchsorted(t_u, t_u, side="right")  # include ts peers
            w_n[s:e] = hi - lo
            w_sum[s:e] = csum[hi] - csum[lo]
        from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

        return pd.DataFrame(
            {
                "event_id": df["event_id"],
                "w_n": w_n,
                "w_sum": round_half_away(w_sum, 2),
            }
        )

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(windows, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("event_id", ignore_index=True)


# --------------------------------------------------------------------------
def q_profile_events(sf_dir: str, *, n_buckets: int = 32) -> pd.DataFrame:
    """Column PROFILER over the events table — the data-quality summary
    (count, null count, exact distinct count, min/max per column) every
    ingest pipeline publishes.  Pass 1 folds per-(block, column) stat
    partials (counts/min/max are monoids — tiny exchange).  Pass 2
    counts distinct EXACTLY via the bucketed cascade: per-block distinct
    values in long form, ONE shuffle on a value-hash bucket (each value
    lands in exactly one bucket, so per-bucket distinct counts are
    additive).  Float values dedup by shortest-roundtrip repr
    (injective on doubles), used only as an internal key.  At 100 TB a
    column with ~all-distinct values would switch to the HLL sketch
    (``q_hll_distinct``) — the profiler keeps the exact cascade because
    its exchange is distinct-class, not row-class.
    """
    num_cols = ["event_id", "user_id", "value"]
    str_cols = ["event_type", "props"]
    cols = num_cols + str_cols
    ds = _rp(sf_dir, "events", cols)

    def stats_partial(t: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            arr = t[c]
            mm = pc.min_max(arr)
            is_num = c in num_cols
            rows.append(
                {
                    "col": c,
                    "n": t.num_rows,
                    "n_null": arr.null_count,
                    "min_num": float(mm["min"].as_py()) if is_num else np.nan,
                    "max_num": float(mm["max"].as_py()) if is_num else np.nan,
                    "min_str": None if is_num else mm["min"].as_py(),
                    "max_str": None if is_num else mm["max"].as_py(),
                }
            )
        return pa.Table.from_pylist(rows)

    sp = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    stats = sp.groupby("col", as_index=False).agg(
        n=("n", "sum"),
        n_null=("n_null", "sum"),
        min_num=("min_num", "min"),
        max_num=("max_num", "max"),
        min_str=("min_str", "min"),
        max_str=("max_str", "max"),
    )

    def distinct_pre(t: pa.Table) -> pa.Table:
        out_b, out_c, out_v = [], [], []
        for c in cols:
            u = pc.unique(t[c].combine_chunks()).drop_null()
            vs = u.to_numpy(zero_copy_only=False).astype(str)
            out_b.append(pd.util.hash_array(vs.astype(object)) % np.uint64(n_buckets))
            out_c.append(np.full(len(vs), c, object))
            out_v.append(vs.astype(object))
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(out_b).astype(np.int32)),
                "col": pa.array(np.concatenate(out_c), pa.string()),
                "val": pa.array(np.concatenate(out_v), pa.string()),
            }
        )

    def bucket_distinct(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("col", sort=False)["val"].nunique().reset_index(name="nd")
        return g.astype({"col": "object", "nd": "int64"})

    nd = (
        ds.map_batches(distinct_pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_distinct, batch_format="pandas")
        .to_pandas()
        .groupby("col", as_index=False)["nd"]
        .sum()
    )
    out = stats.merge(nd, on="col")
    out = pd.DataFrame(
        {
            "col": out["col"],
            "n": out["n"].astype("int64"),
            "n_null": out["n_null"].astype("int64"),
            "n_distinct": out["nd"].astype("int64"),
            "min_num": out["min_num"],
            "max_num": out["max_num"],
            "min_str": out["min_str"],
            "max_str": out["max_str"],
        }
    )
    return out.sort_values("col", ignore_index=True)


# --------------------------------------------------------------------------
def q_customer_ntile(sf_dir: str, *, k: int = 4, n_buckets: int = 32) -> pd.DataFrame:
    """Distributed NTILE: quartile every customer by order count (desc,
    custkey tie-break) WITHOUT a global sort shuffle.  Pass 1 folds
    per-customer counts in custkey-hash buckets (combiner + one bounded
    shuffle).  The rank key's domain is bounded, so the driver needs
    only the tiny (n_orders -> customer count) histogram to compute
    global rank OFFSETS; pass 2 re-shuffles on the rank key, each task
    sorts one key group locally and adds its offset — global row_number
    without moving the table through one sorter.  (For an unbounded
    float key the same plan range-partitions on histogram bins — same
    offsets trick, see q_value_percentiles for the binning pass.)
    NTILE sizes follow SQL: the first n%k tiles get the extra row.
    """
    ds = _rp(sf_dir, "orders", ["o_custkey"])

    def pre(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        b = pc.bit_wise_and(g["o_custkey"], pa.scalar(n_buckets - 1, pa.int64()))
        return g.append_column("bucket", b)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", sort=False)["count_all"].sum().reset_index(name="n_orders")
        return g.astype({"o_custkey": "int64", "n_orders": "int64"})

    per_cust = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold, batch_format="pandas")
    )

    # tiny rank-key histogram -> global offsets (rank key sorts DESC)
    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_orders", sort=False).size().reset_index(name="c")
        return g.astype({"n_orders": "int64", "c": "int64"})

    hp = per_cust.map_batches(hist, batch_format="pandas").to_pandas()
    counts = hp.groupby("n_orders")["c"].sum().sort_index(ascending=False)
    offsets = {int(v): int(o) for v, o in zip(counts.index, counts.cumsum() - counts)}
    n_total = int(counts.sum())
    base, rem = divmod(n_total, k)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        v = int(df["n_orders"].iat[0])
        df = df.sort_values("o_custkey", ignore_index=True)
        r0 = offsets[v] + np.arange(len(df), dtype=np.int64)
        head = rem * (base + 1)
        tile = np.where(r0 < head, r0 // (base + 1), rem + (r0 - head) // max(base, 1))
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"],
                "n_orders": df["n_orders"],
                "quartile": (tile + 1).astype("int64"),
            }
        )

    out = (
        per_cust.groupby("n_orders")
        .map_groups(assign, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("o_custkey", ignore_index=True)


# --------------------------------------------------------------------------
def q_nation_revenue(sf_dir: str, *, n_buckets: int = 64) -> pd.DataFrame:
    """Multi-way join with per-side strategies (TPC-H Q5 shape): 1995
    line-item revenue per customer NATION.  Each join is ONE bounded
    hash-bucket exchange of a tagged two-sided union (the repo's
    bucketed-merge pattern — cheaper than a dedicated join operator's
    actor pool for aggregate-shaped joins): line items PRE-AGGREGATE to
    (orderkey, revenue) partials before the first exchange so it ships
    order-class rows, the merge output re-aggregates to (custkey,
    revenue) before the second exchange so it ships customer-class
    rows, and the 25-row nation dim is a driver-built broadcast dict in
    the final combiner — no exchange at all for the smallest side.
    """
    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_pre(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = pa.table({"key": t["l_orderkey"], "revenue": rev})
        g = g.group_by("key").aggregate([("revenue", "sum")]).rename_columns(["key", "revenue"])
        return pa.table(
            {
                "bucket": pc.bit_wise_and(g["key"], pa.scalar(n_buckets - 1, pa.int64())),
                "key": g["key"],
                "revenue": g["revenue"],
                "rhs": pa.nulls(g.num_rows, pa.int64()),
            }
        )

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_pre(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.year(t["o_orderdate"]), pa.scalar(1995)))
        return pa.table(
            {
                "bucket": pc.bit_wise_and(t["o_orderkey"], pa.scalar(n_buckets - 1, pa.int64())),
                "key": t["o_orderkey"],
                "revenue": pa.nulls(t.num_rows, pa.float64()),
                "rhs": t["o_custkey"],
            }
        )

    def merge_sum(df: pd.DataFrame) -> pd.DataFrame:
        """Inner-join the bucket's two sides and pre-aggregate revenue
        by the right side's carried key — output is (rhs, revenue)."""
        left = df[df["rhs"].isna()]
        right = df[df["rhs"].notna()]
        m = left.merge(right[["key", "rhs"]], on="key", suffixes=("", "_r"))
        g = m.groupby("rhs_r", sort=False)["revenue"].sum().reset_index()
        return pd.DataFrame(
            {"key": g["rhs_r"].astype("int64"), "revenue": g["revenue"].astype("float64")}
        )

    rev_by_cust = (
        li.map_batches(li_pre, batch_format="pyarrow")
        .union(orders.map_batches(o_pre, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(merge_sum, batch_format="pandas")
    )

    def cust_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": pc.bit_wise_and(t["c_custkey"], pa.scalar(n_buckets - 1, pa.int64())),
                "key": t["c_custkey"],
                "revenue": pa.nulls(t.num_rows, pa.float64()),
                "rhs": pc.cast(t["c_nationkey"], pa.int64()),
            }
        )

    def rev_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": pc.bit_wise_and(t["key"], pa.scalar(n_buckets - 1, pa.int64())),
                "key": t["key"],
                "revenue": t["revenue"],
                "rhs": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    rev_by_nation = (
        rev_by_cust.map_batches(rev_side, batch_format="pyarrow")
        .union(cust.map_batches(cust_side, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(merge_sum, batch_format="pandas")
    )

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))

    def finish(t: pa.Table) -> pa.Table:
        keys = t["key"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(keys)
        names = np.array([name_of[int(u)] for u in uniq], object)[codes]
        g = pa.table({"n_name": pa.array(names, pa.string()), "revenue": t["revenue"]})
        return g.group_by("n_name").aggregate([("revenue", "sum")])

    df = _combine(rev_by_nation, finish, ["n_name"], {"sum_revenue": ("revenue_sum", "sum")})
    df["sum_revenue"] = df["sum_revenue"].round(2)
    return df.sort_values("n_name", ignore_index=True)


# --------------------------------------------------------------------------
def q_chi_square(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square test of independence between event_type and
    6-hour time-of-day band — the distribution-shift test a data-quality
    monitor runs on every ingest batch.  The contingency table is a
    map-side combiner (|types| x 4 cells, one partial row per block x
    cell); the driver evaluates the closed form
    sum (n - e)^2 / e, e = row_total x col_total / N, from EXACT integer
    counts — the oracle computes the identical expression in SQL, so
    both engines round the same arithmetic.
    """
    ds = _rp(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "event_type": t["event_type"],
                "band": pc.cast(
                    pc.divide(pc.hour(t["ts"]), pa.scalar(6, pa.int32())), pa.int64()
                ),
            }
        )
        return g.group_by(["event_type", "band"]).aggregate([([], "count_all")])

    cells = _combine(ds, partial, ["event_type", "band"], {"n": ("count_all", "sum")})
    n_total = float(cells["n"].sum())
    row_tot = cells.groupby("event_type")["n"].transform("sum").to_numpy(float)
    col_tot = cells.groupby("band")["n"].transform("sum").to_numpy(float)
    e = row_tot * col_tot / n_total
    chi2 = float((((cells["n"].to_numpy(float) - e) ** 2) / e).sum())
    n_rows = cells["event_type"].nunique()
    n_cols = cells["band"].nunique()
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    return pd.DataFrame(
        {
            "n_cells": pd.Series([len(cells)], dtype="int64"),
            "dof": pd.Series([(n_rows - 1) * (n_cols - 1)], dtype="int64"),
            "chi2": round_half_away(np.array([chi2]), 6),
        }
    )


# --------------------------------------------------------------------------
def q_value_mad(sf_dir: str, *, cap: int = 8192) -> pd.DataFrame:
    """Median absolute deviation per event_type — the robust-dispersion
    statistic outlier detectors prefer over stddev.  MAD needs TWO
    dependent quantile passes (median, then median of |x - median|);
    each runs the mergeable digest of :func:`q_quantile_digest` (per-
    block sorted weighted samples, driver fold of blocks x types x cap
    cells), with the phase-1 medians broadcast into the phase-2
    transform closure.  Under cap the digest is the sorted sample and
    the interpolation equals SQL ``quantile_cont`` bit-for-bit, so the
    |x - med| values — and therefore the MAD — are oracle-exact at gate
    scale while the same code path degrades gracefully at 100 TB.
    """
    ds = _rp(sf_dir, "events", ["event_type", "value"])

    def digest_pass(value_fn) -> dict[str, float]:
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            out_ty, out_v, out_w = [], [], []
            for ty, g in df.groupby("event_type", sort=False):
                v = np.sort(value_fn(ty, g["value"].to_numpy()))
                v, w = _digest_compress(v, np.ones(len(v)), cap)
                out_ty.append(ty)
                out_v.append(v)
                out_w.append(w)
            return pd.DataFrame({"event_type": out_ty, "vals": out_v, "wts": out_w})

        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        out = {}
        for ty, g in parts.groupby("event_type", sort=True):
            v = np.concatenate([np.asarray(x, np.float64) for x in g["vals"]])
            w = np.concatenate([np.asarray(x, np.float64) for x in g["wts"]])
            order = np.argsort(v, kind="mergesort")
            v, w = _digest_compress(v[order], w[order], cap)
            out[ty] = _digest_quantile(v, w, 0.5)
        return out

    med = digest_pass(lambda ty, v: v)
    mad = digest_pass(lambda ty, v: np.abs(v - med[ty]))
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    types = sorted(med)
    return pd.DataFrame(
        {
            "event_type": types,
            "median": round_half_away(np.array([med[t] for t in types]), 4),
            "mad": round_half_away(np.array([mad[t] for t in types]), 4),
        }
    )


# --------------------------------------------------------------------------
def q_scd2_values(sf_dir: str, *, n_buckets: int = 256) -> pd.DataFrame:
    """SCD2 (slowly-changing-dimension type 2) history build: every
    (user, event_type) value observation becomes a VERSIONED row with
    its validity interval [valid_from, valid_to) — ``valid_to`` is the
    next observation's ts (the 9999-12-31 sentinel while current) — the
    dbt-snapshot /
    warehouse-history table every CDC consumer materializes downstream
    of the change feed.

    One bounded exchange: users hash to buckets (a user's history lives
    in one task), each task lexsorts by (user, type, ts, id) and shifts
    the ts array by one inside each run — fully vectorized, no per-row
    Python, task size tracks bucket size.
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1, pa.int64()))
        return t.append_column("bucket", b)

    def versions(df: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (
                df["event_id"].to_numpy(),
                df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                df["event_type"].to_numpy(),
                df["user_id"].to_numpy(),
            )
        )
        df = df.iloc[order].reset_index(drop=True)
        uid = df["user_id"].to_numpy()
        ty = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy().astype("datetime64[us]")
        # open intervals close at the conventional SCD2 far-future
        # sentinel (comparable/hashable, unlike NULL/NaT)
        sentinel = np.datetime64("9999-12-31T00:00:00", "us")
        nxt = np.empty(len(df), "datetime64[us]")
        nxt[:-1] = ts[1:]
        nxt[-1] = sentinel
        run_end = np.concatenate(
            [(uid[1:] != uid[:-1]) | (ty[1:] != ty[:-1]), [True]]
        )
        nxt[run_end] = sentinel
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "event_type": df["event_type"],
                "value": df["value"],
                "valid_from": ts,
                "valid_to": nxt,
                "is_current": run_end,
            }
        )

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(versions, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(
        ["user_id", "event_type", "valid_from"], ignore_index=True
    )


# --------------------------------------------------------------------------
def q_user_lifecycle(sf_dir: str, *, n_buckets: int = 32) -> pd.DataFrame:
    """Per-user lifecycle summary with PAYLOAD-carrying arg-aggregates:
    first/last event ts AND the event_type observed at each boundary,
    plus event count and active span.  first/last-with-payload is a
    monoid (keep the row with the min/max (ts, event_id) key), so each
    block combines to one row per user and ONE bounded custkey-hash
    exchange folds the partials — the arg_min/arg_max shape at
    high-cardinality keys without any global sort.
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        o = np.lexsort((df["event_id"].to_numpy(), df["ts"].to_numpy(), df["user_id"].to_numpy()))
        df = df.iloc[o]
        first = df.drop_duplicates("user_id", keep="first")
        last = df.drop_duplicates("user_id", keep="last")
        n = df.groupby("user_id", sort=False).size().reset_index(name="n")
        g = first.merge(last, on="user_id", suffixes=("_f", "_l")).merge(n, on="user_id")
        g["bucket"] = (g["user_id"].to_numpy(np.int64) & (n_buckets - 1))
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        o = np.lexsort((df["event_id_f"].to_numpy(), df["ts_f"].to_numpy(), df["user_id"].to_numpy()))
        df = df.iloc[o]
        first = df.drop_duplicates("user_id", keep="first")[
            ["user_id", "ts_f", "event_type_f"]
        ]
        o = np.lexsort((df["event_id_l"].to_numpy(), df["ts_l"].to_numpy(), df["user_id"].to_numpy()))
        df2 = df.iloc[o]
        last = df2.drop_duplicates("user_id", keep="last")[
            ["user_id", "ts_l", "event_type_l"]
        ]
        n = df.groupby("user_id", sort=False)["n"].sum().reset_index()
        g = first.merge(last, on="user_id").merge(n, on="user_id")
        span = (
            g["ts_l"].to_numpy().astype("datetime64[us]").astype(np.int64)
            - g["ts_f"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ) / 3_600_000_000.0
        from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "first_ts": g["ts_f"],
                "first_type": g["event_type_f"],
                "last_ts": g["ts_l"],
                "last_type": g["event_type_l"],
                "n_events": g["n"].astype("int64"),
                "span_hours": round_half_away(span, 4),
            }
        )

    out = (
        ds.map_batches(pre, batch_format="pandas")
        .groupby("bucket")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("user_id", ignore_index=True)


# --------------------------------------------------------------------------
def q_late_events(sf_dir: str, *, bucket_size: int = 4096) -> pd.DataFrame:
    """Watermark / late-arrival accounting: an event is LATE if its
    event time ``ts`` is older than the maximum ``ts`` seen earlier in
    arrival order (``event_id``) — the metric a streaming pipeline
    tracks to size its watermark delay.  Same two-pass prefix-scan as
    :func:`q_record_events`: arrival order is carved into contiguous
    event_id ranges, pass 1 reduces each range to its max ts (combiner
    row per block x range), the driver exclusive-scans those tiny maxes
    into per-range carries, and pass 2 flags lateness vectorized with
    the carries broadcast.  Output: per event_type, late count, total,
    and the late fraction (identical closed form in the oracle).
    """
    ds = _rp(sf_dir, "events", ["event_id", "ts", "event_type"])

    def range_max(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "rng": pc.cast(
                    pc.divide(t["event_id"], pa.scalar(bucket_size, pa.int64())),
                    pa.int64(),
                ),
                "ts": t["ts"],
            }
        )
        return g.group_by("rng").aggregate([("ts", "max")])

    parts = ds.map_batches(range_max, batch_format="pyarrow").to_pandas()
    rmax = parts.groupby("rng")["ts_max"].max().sort_index()
    carry = rmax.cummax().shift(1)  # max ts of all EARLIER ranges
    carry_ns = {
        int(r): (np.datetime64(c, "us").astype(np.int64) if pd.notna(c) else np.iinfo(np.int64).min)
        for r, c in carry.items()
    }

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_id", ignore_index=True)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rng = (df["event_id"].to_numpy(np.int64) // bucket_size).astype(np.int64)
        prev = np.empty_like(ts)
        prev[0] = carry_ns.get(int(rng[0]), np.iinfo(np.int64).min)
        if len(ts) > 1:
            np.maximum.accumulate(ts[:-1], out=prev[1:])
            prev[1:] = np.maximum(prev[1:], prev[0])
        late = ts < prev
        g = pd.DataFrame({"event_type": df["event_type"], "late": late.astype(np.int64)})
        out = g.groupby("event_type", sort=False).agg(
            n_late=("late", "sum"), n=("late", "size")
        ).reset_index()
        return out.astype({"n_late": "int64", "n": "int64"})

    def add_rng(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rng",
            pc.cast(pc.divide(t["event_id"], pa.scalar(bucket_size, pa.int64())), pa.int64()),
        )

    parts2 = (
        ds.map_batches(add_rng, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(flag, batch_format="pandas")
        .to_pandas()
    )
    out = parts2.groupby("event_type", as_index=False).agg(
        n_late=("n_late", "sum"), n=("n", "sum")
    )
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    out["frac_late"] = round_half_away(
        out["n_late"].to_numpy(float) / out["n"].to_numpy(float), 6
    )
    out = out.astype({"n_late": "int64", "n": "int64"})
    return out.sort_values("event_type", ignore_index=True)


# --------------------------------------------------------------------------
def q_cohort_retention(sf_dir: str, *, n_buckets: int = 32) -> pd.DataFrame:
    """Cohort retention triangle: customers grouped by their FIRST
    order month (the cohort), counted as active in each subsequent
    month — the classic retention matrix.  One bounded custkey-hash
    exchange does all the keyed work: inside a bucket task the
    cohort month is a per-customer min and the distinct
    (customer, month) activity pairs dedup locally, so the task emits
    (cohort, month, active) partials of bounded cardinality
    (months² rows per bucket) and the driver folds counts.  No
    customer id ever crosses the exchange twice.
    """
    ds = _rp(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def pre(t: pa.Table) -> pa.Table:
        m = pc.strftime(t["o_orderdate"], format="%Y-%m")
        g = pa.table({"o_custkey": t["o_custkey"], "month": m})
        g = g.group_by(["o_custkey", "month"]).aggregate([])
        b = pc.bit_wise_and(g["o_custkey"], pa.scalar(n_buckets - 1, pa.int64()))
        return g.append_column("bucket", b)

    def cohortize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["o_custkey", "month"])
        first = df.groupby("o_custkey", sort=False)["month"].min().rename("cohort")
        df = df.join(first, on="o_custkey")
        out = (
            df.groupby(["cohort", "month"], sort=False)
            .size()
            .reset_index(name="active")
        )
        return out.astype({"cohort": "object", "month": "object", "active": "int64"})

    parts = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(cohortize, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby(["cohort", "month"], as_index=False)["active"].sum()
    out["active"] = out["active"].astype("int64")
    return out.sort_values(["cohort", "month"], ignore_index=True)


# --------------------------------------------------------------------------
def q_partition_skew(sf_dir: str, *, n_buckets: int = 32) -> pd.DataFrame:
    """Shuffle-planning diagnostic: row counts per user_id hash
    partition plus the skew factor (max/mean) — what an engine
    inspects before choosing salt counts for a keyed exchange
    (cf. ``LakeConfig.salt_shards``).  Bucket counts are a map-side
    combiner; the modulo bucketing is deterministic so the oracle
    reproduces it exactly in SQL.
    """
    ds = _rp(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {"bucket": pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1, pa.int64()))}
        )
        return g.group_by("bucket").aggregate([([], "count_all")])

    counts = _combine(ds, partial, ["bucket"], {"n": ("count_all", "sum")})
    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    mean = counts["n"].to_numpy(float).sum() / len(counts)
    skew = round_half_away(np.array([counts["n"].max() / mean]), 6)
    counts = counts.astype({"bucket": "int64", "n": "int64"})
    counts["skew_factor"] = skew[0]
    return counts.sort_values("bucket", ignore_index=True)


# --------------------------------------------------------------------------
def q_user_streaks(sf_dir: str, *, n_buckets: int = 32) -> pd.DataFrame:
    """Gaps-and-islands: per user, the longest run of consecutive
    active DAYS, plus total active days and number of distinct streaks
    (the classic engagement-streak window pattern, SQL-side done with
    the day - row_number anchor trick).  One bounded user-hash exchange
    does all the keyed work: blocks pre-dedup (user, day) pairs
    map-side so at most users x 30 rows cross the wire, and each bucket
    task computes islands vectorized (sorted day diffs -> cumsum run
    ids -> two tiny groupbys).  A user never spans buckets, so the
    driver only concatenates.
    """
    ds = _rp(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.date32()),
            }
        )
        g = g.group_by(["user_id", "day"]).aggregate([])
        b = pc.bit_wise_and(g["user_id"], pa.scalar(n_buckets - 1, pa.int64()))
        return g.append_column("bucket", b)

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], ignore_index=True
        )
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy().astype("datetime64[D]").astype(np.int64)
        new_run = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new_run[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        run = np.cumsum(new_run)
        g = pd.DataFrame({"user_id": u, "run": run})
        lens = g.groupby(["user_id", "run"], sort=False).size().reset_index(name="len")
        out = lens.groupby("user_id", sort=False).agg(
            n_active_days=("len", "sum"),
            longest_streak=("len", "max"),
            n_streaks=("len", "size"),
        ).reset_index()
        return out.astype(
            {"n_active_days": "int64", "longest_streak": "int64", "n_streaks": "int64"}
        )

    parts = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(islands, batch_format="pandas")
        .to_pandas()
    )
    return parts.sort_values("user_id", ignore_index=True)


# --------------------------------------------------------------------------
def q_full_outer_join(sf_dir: str, *, n_buckets: int = 32) -> rd.Dataset:
    """Distributed FULL OUTER JOIN between two keyed sides that each
    have keys the other lacks: BUILDING-segment customers (left) vs
    per-customer urgent-order aggregates (right).  Both sides are
    bucketed on the same custkey hash and unioned with a side tag; each
    bucket task folds the right side's map-side partial aggregates,
    outer-merges with the left, and emits — the standard union-merge
    exchange (cf. q_lineitem_orders_join), generalized to preserve
    unmatched rows from BOTH inputs.  One bounded shuffle, streaming
    Dataset out.
    """
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])
    orders = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderpriority"])

    def left_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], pa.scalar("BUILDING")))
        return pa.table(
            {
                "custkey": t["c_custkey"],
                "acctbal": t["c_acctbal"],
                "n_urgent": pa.nulls(t.num_rows, pa.int64()),
                "urgent_spend": pa.nulls(t.num_rows, pa.float64()),
                "bucket": pc.bit_wise_and(
                    t["c_custkey"], pa.scalar(n_buckets - 1, pa.int64())
                ),
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def right_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")))
        g = pa.table({"custkey": t["o_custkey"], "spend": t["o_totalprice"]})
        g = g.group_by("custkey").aggregate([("spend", "sum"), ([], "count_all")])
        return pa.table(
            {
                "custkey": g["custkey"],
                "acctbal": pa.nulls(g.num_rows, pa.float64()),
                "n_urgent": pc.cast(g["count_all"], pa.int64()),
                "urgent_spend": g["spend_sum"],
                "bucket": pc.bit_wise_and(
                    g["custkey"], pa.scalar(n_buckets - 1, pa.int64())
                ),
                "side": pa.array(np.ones(g.num_rows, np.int8)),
            }
        )

    from nyc_taxi_data_pipeline_ray.pipelines.text import round_half_away

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == 0][["custkey", "acctbal"]]
        r = df[df["side"] == 1]
        right = r.groupby("custkey", as_index=False).agg(
            n_urgent=("n_urgent", "sum"), urgent_spend=("urgent_spend", "sum")
        )
        out = left.merge(right, on="custkey", how="outer")
        out["n_urgent"] = out["n_urgent"].fillna(0).astype("int64")
        spend = out["urgent_spend"].to_numpy(np.float64)
        out["urgent_spend"] = np.where(
            np.isnan(spend), np.nan, round_half_away(spend, 2)
        )
        out["custkey"] = out["custkey"].astype("int64")
        return out[["custkey", "acctbal", "n_urgent", "urgent_spend"]]

    return (
        cust.map_batches(left_rows, batch_format="pyarrow")
        .union(orders.map_batches(right_partial, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(merge, batch_format="pandas")
    )


# --------------------------------------------------------------------------
def q_peak_concurrency(sf_dir: str, *, window_minutes: int = 5) -> pd.DataFrame:
    """Sweep-line peak concurrency: each event opens a
    ``window_minutes`` activity interval; the answer is the maximum
    number of simultaneously open intervals and the earliest instant it
    is reached.  The interval endpoints become +1/-1 deltas, ends
    ordered before starts at equal timestamps (touching intervals don't
    overlap).  Distribution is segmented scan, not a serial pass: the
    deltas shuffle once on their HOUR (equal timestamps can't split),
    each hour task sorts locally and reduces to (total delta, local max
    prefix, first ts achieving it) — a composable scan monoid — and the
    driver folds the ~(days x 24) partials with an exclusive carry scan.
    No task ever sees more than one hour of endpoints.
    """
    ds = _rp(sf_dir, "events", ["ts"])
    win_us = np.int64(window_minutes * 60_000_000)

    def deltas(t: pa.Table) -> pa.Table:
        s = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        tt = np.concatenate([s, s + win_us])
        dl = np.concatenate(
            [np.ones(len(s), np.int64), np.full(len(s), -1, np.int64)]
        )
        return pa.table(
            {"t": tt, "delta": dl, "hour": tt // np.int64(3_600_000_000)}
        )

    def scan_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["t", "delta"], ignore_index=True)  # ends before starts
        run = df["delta"].to_numpy(np.int64).cumsum()
        imax = int(run.argmax())  # first index achieving the local max
        return pd.DataFrame(
            {
                "hour": df["hour"].iloc[:1].astype("int64"),
                "total": [int(run[-1])],
                "local_max": [int(run[imax])],
                "t_at_max": [int(df["t"].iloc[imax])],
            }
        )

    parts = (
        ds.map_batches(deltas, batch_format="pyarrow")
        .groupby("hour")
        .map_groups(scan_partial, batch_format="pandas")
        .to_pandas()
        .sort_values("hour", ignore_index=True)
    )
    carry = parts["total"].cumsum().shift(1, fill_value=0).to_numpy(np.int64)
    global_runs = carry + parts["local_max"].to_numpy(np.int64)
    best = int(global_runs.argmax())  # earliest hour among ties
    peak = int(global_runs[best])
    peak_ts = pd.Timestamp(int(parts["t_at_max"].iloc[best]), unit="us")
    return pd.DataFrame(
        {
            "peak_concurrent": pd.Series([peak], dtype="int64"),
            "peak_ts": pd.Series([peak_ts], dtype="datetime64[us]"),
        }
    )


# --------------------------------------------------------------------------
def q_cdc_backfill(sf_dir: str) -> pd.DataFrame:
    """Bulk-correction witness, driver-visible: replay the
    events-as-transcripts WAL through the REAL engine, then
    ``backfill()`` a correction (every ``click`` turn's text rewritten
    to ``CLICK``) THROUGH the CDC path — the fix travels as a derived
    ``op='update'`` epoch with a fresh (ts, lsn) stamp, not an in-place
    file rewrite, so it is exactly-once, time-travelable and visible in
    ``changes()``.  The oracle applies the same rewrite to the SQL LWW
    winners, including the stamped ts/lsn the corrected rows must now
    carry.
    """
    import pyarrow as _pa
    import pyarrow.compute as _pc

    root = "/tmp/nyc_ray_q_backfill"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir)

    def fix(t: _pa.Table) -> _pa.Table:
        sel = t.filter(_pc.equal(t["text"], _pa.scalar("click")))
        return sel.set_column(
            sel.schema.get_field_index("text"),
            "text",
            _pa.array(np.full(sel.num_rows, "CLICK")),
        )

    epoch, report = eng.backfill(
        wal_dir, fix, ts=pd.Timestamp("2025-01-01"), lsn=1 << 60
    )
    assert epoch is not None and report.rejects == 0, (epoch, report)
    return eng.snapshot_table().to_pandas()


# --------------------------------------------------------------------------
def q_cdc_retention(sf_dir: str) -> pd.DataFrame:
    """Retention (TTL) witness, driver-visible: replay the
    events-as-transcripts WAL, then ``purge()`` every key whose winner
    is older than 2024-01-29 — tombstones emitted through the CDC path
    at exactly the cutoff timestamp — and ``compact()`` to reclaim the
    space physically.  The oracle keeps only the SQL LWW winners at or
    after the cutoff, certifying that logical TTL deletion + compaction
    equals a filtered rebuild.
    """
    root = "/tmp/nyc_ray_q_retention"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir)
    epoch, report = eng.purge(
        wal_dir, older_than=pd.Timestamp("2024-01-29"), lsn=1 << 60
    )
    assert epoch is not None and report.rejects == 0, (epoch, report)
    eng.compact()
    return eng.snapshot_table().to_pandas()


# --------------------------------------------------------------------------
def q_cdc_checksum(sf_dir: str) -> pd.DataFrame:
    """Anti-entropy witness, driver-visible: replay the
    events-as-transcripts WAL through the engine and compute the lake's
    order-independent content checksum (XOR of per-row 64-bit md5
    digests over a canonical encoding) — the primitive two replicas use
    to verify convergence without exchanging rows.  The oracle computes
    the identical ``bit_xor(md5_number_lower(...))`` over the SQL LWW
    winners, so an independent engine reproduces the digest bit for
    bit.  One row out: (n_rows, checksum).
    """
    root = "/tmp/nyc_ray_q_checksum"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root)
    eng.apply(wal_dir)
    cs = eng.checksum(
        columns=["conv_id", "turn_idx", "role", "text", "tool", "ts", "lsn"]
    )
    return pd.DataFrame(
        {
            "n_rows": pd.Series([cs["rows"]], dtype="int64"),
            "checksum": pd.Series([cs["checksum"]], dtype="int64"),
        }
    )


def q_cdc_lineage(sf_dir: str) -> pd.DataFrame:
    """Per-partition lineage counters, driver-visible WITH a full SQL
    oracle — the north-star's "per-partition lineage counters" surfaced
    as a reconciliation table: the poisoned events-as-transcripts WAL
    replays epoch by epoch, then the partition counters of every
    commit-log record are folded per EPOCH (the monoid merge of
    ``state/manifest.py`` restricted to one epoch's record) and
    must equal the SQL recomputation from the raw events: ``rows_in`` =
    all WAL rows, ``valid``/``rejects`` = the validation-gate split,
    ``upserts`` = LWW winner count per (conv_id, turn_idx) within the
    epoch.  ``rows_in``/``valid`` stay exact despite the pre-shuffle
    combiner because staged winners carry ``_nsrc`` source-row counts
    (engine.py ``n_valid_src``).  Exactly-once records make this a
    replay-stable reconciliation the reference's Redis counters cannot
    pass (increments double-count under replay,
    ``streaming/spark/fraud_detector.py:54-118``)."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    root = "/tmp/nyc_ray_q_lineage"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root, poison_mod=97)
    eng.apply(wal_dir, max_epochs=1)
    eng.apply(wal_dir)
    per_epoch: dict[int, dict[str, int]] = {}
    for rec in mf.read_log(eng.cfg.path).records:
        assert len(rec["epochs"]) == 1, rec  # epoch-at-a-time replay
        c = mf.merge_counters(rec["partitions"].values())
        per_epoch[int(rec["epochs"][0])] = {
            k: int(c.get(k, 0)) for k in ("rows_in", "valid", "rejects", "upserts", "deletes")
        }
    epochs = sorted(per_epoch)
    return pd.DataFrame(
        {
            "epoch": pd.Series(epochs, dtype="int32"),
            "rows_in": pd.Series([per_epoch[e]["rows_in"] for e in epochs], dtype="int64"),
            "valid": pd.Series([per_epoch[e]["valid"] for e in epochs], dtype="int64"),
            "rejects": pd.Series([per_epoch[e]["rejects"] for e in epochs], dtype="int64"),
            "upserts": pd.Series([per_epoch[e]["upserts"] for e in epochs], dtype="int64"),
            "deletes": pd.Series([per_epoch[e]["deletes"] for e in epochs], dtype="int64"),
        }
    )


def q_cdc_evolution(sf_dir: str) -> pd.DataFrame:
    """Schema evolution, driver-visible WITH a full SQL oracle — the
    north-rule's add-column/type-widen case: epoch 0 commits under the
    base transcript schema, then epoch 1 arrives EVOLVED (new ``model``
    column, ``turn_idx`` widened int32 -> int64) in a separate apply, so
    the lake's committed runs span two physical schemas and the merge
    must unify them (``schemas.unify`` + ``_PrepareBatch``/``conform``).
    The snapshot must equal the SQL union-with-nulls LWW winners:
    epoch-0 winners carry ``model = NULL``, epoch-1 winners carry
    ``'m-' || event_type`` — any column misalignment, dropped widening,
    or stale-schema read shows up as a value or schema mismatch."""
    root = "/tmp/nyc_ray_q_evolution"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root, evolve=True)
    eng.apply(wal_dir, max_epochs=1)  # base schema committed first
    eng.apply(wal_dir)  # evolved segment unifies at merge time
    snap = eng.snapshot_table().select(
        ["conv_id", "turn_idx", "role", "text", "tool", "ts", "lsn", "model"]
    )
    return (
        snap.to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )


def q_cdc_watermarks(sf_dir: str) -> pd.DataFrame:
    """Event-time watermark + late-data accounting, driver-visible WITH
    a full SQL oracle — the north-star's "lag metrics": the
    events-as-transcripts WAL replays epoch by epoch; each merge task
    records its partition-epoch's event-time high-water mark
    (``max_ts_us``, exact through the pre-shuffle combiner because the
    max-ts row is the LWW winner of its own key) and counts delta rows
    whose event time is at or below the lake's watermark BEFORE the
    group (``late_upserts`` — the Flink-style late-arrival metric).
    The fold per epoch (max of watermarks, sum of late counts) must
    equal the SQL recomputation: watermark = max event time in the
    epoch; late = epoch-1 LWW winners with ts <= epoch-0's watermark."""
    from nyc_taxi_data_pipeline_ray.state import manifest as mf

    root = "/tmp/nyc_ray_q_watermarks"
    eng, wal_dir = _events_as_transcript_wal(sf_dir, root, epoch_by_parity=True)
    eng.apply(wal_dir, max_epochs=1)
    eng.apply(wal_dir)
    per_epoch: dict[int, dict[str, int]] = {}
    for rec in mf.read_log(eng.cfg.path).records:
        assert len(rec["epochs"]) == 1, rec
        c = mf.merge_counters(rec["partitions"].values())
        per_epoch[int(rec["epochs"][0])] = {
            "watermark_us": c.get("max_ts_us"),
            "late_upserts": int(c.get("late_upserts", 0)),
        }
    epochs = sorted(per_epoch)
    return pd.DataFrame(
        {
            "epoch": pd.Series(epochs, dtype="int32"),
            "watermark_us": pd.Series(
                [per_epoch[e]["watermark_us"] for e in epochs], dtype="int64"
            ),
            "late_upserts": pd.Series(
                [per_epoch[e]["late_upserts"] for e in epochs], dtype="int64"
            ),
        }
    )


# --------------------------------------------------------------------------
def q_cdc_replicate(sf_dir: str) -> pd.DataFrame:
    """Cross-lake replication witness, driver-visible: replay the
    events-as-transcripts WAL into lake A, export A's change feed as a
    WAL epoch (``export_changes_as_wal``), apply it to a FRESH lake B
    with a different partition count, and prove convergence with the
    order-independent anti-entropy checksum before returning B's
    snapshot.  Delta runs keep original (ts, lsn) per winner, so LWW on
    the target reproduces the source state exactly — the oracle is the
    same SQL LWW winner set, now certified through the full
    produce -> feed -> consume -> verify loop.
    """
    import os
    import shutil

    from nyc_taxi_data_pipeline_ray import CdcEngine, LakeConfig

    root = "/tmp/nyc_ray_q_replicate"
    eng_a, wal_a = _events_as_transcript_wal(sf_dir, root)
    eng_a.apply(wal_a)

    wal_b = os.path.join(root, "wal_b")
    shutil.rmtree(wal_b, ignore_errors=True)
    eng_b = CdcEngine(
        LakeConfig.open_or_create(os.path.join(root, "lake_b"), num_partitions=8)
    )
    # epoch numbered against the TARGET's committed ledger (engine.py
    # export_changes_as_wal docstring): safe under feed wal-gc / multi-source
    epoch = eng_a.export_changes_as_wal(wal_b, target=eng_b)
    assert epoch is not None
    rep = eng_b.apply(wal_b)
    assert rep.rejects == 0, rep
    cs_a, cs_b = eng_a.checksum(), eng_b.checksum()
    assert cs_a == cs_b, (cs_a, cs_b)
    return eng_b.snapshot_table().to_pandas()


def q_cms_heavy_hitters(sf_dir: str, *, depth: int = 4, width: int = 512, top: int = 20) -> pd.DataFrame:
    """Count-min sketch heavy hitters: per-user event counts estimated
    from a ``depth x width`` mergeable counter matrix — THE
    bounded-memory frequency sketch for streams (Cormode-Muthukrishnan;
    the Redis per-zone counter analog at unbounded key cardinality,
    ``fraud_detector.py:54-118``, where exact per-key state no longer
    fits).  Reported next to the exact count so over-estimation bias is
    visible in the output.

    The sketch is a pure monoid: each block folds its per-user counts
    into a local (depth, width) int64 matrix (vectorized ``np.add.at``
    over md5-derived cells), the driver sums the tiny matrices —
    constant memory regardless of user cardinality, one streaming
    pass.  Estimates are ``min`` over the key's depth cells.  The
    oracle builds the IDENTICAL sketch in SQL (``md5_number_lower`` of
    ``user:row`` mod width — the ``hll_distinct`` precedent: mirror
    the sketch, don't approximate the oracle), so the driver hash
    certifies the estimator itself, not just the exact counts.  The
    exact side is a user-count combiner (Zipf-bounded partials, as
    ``term_doc_freq``)."""
    import hashlib

    ds = _rp(sf_dir, "events", ["user_id"])

    def _cells(users: np.ndarray) -> np.ndarray:
        """(len(users), depth) md5-derived cell columns, matching
        DuckDB md5_number_lower(user || ':' || i) % width."""
        out = np.empty((len(users), depth), np.int64)
        for r, u in enumerate(users):
            for i in range(depth):
                h = hashlib.md5(f"{u}:{i}".encode("utf-8")).digest()
                out[r, i] = int.from_bytes(h[8:16], "little") % width
        return out

    def partial(t: pa.Table) -> pa.Table:
        users, counts = np.unique(
            t["user_id"].to_numpy(zero_copy_only=False), return_counts=True
        )
        cms = np.zeros((depth, width), np.int64)
        cells = _cells(users)
        for i in range(depth):
            np.add.at(cms[i], cells[:, i], counts)
        flat = cms.ravel()
        nz = np.flatnonzero(flat)
        cell_rows = pa.table(
            {
                "kind": pa.array(np.zeros(len(nz), np.int8)),
                "key": pa.array(nz, pa.int64()),
                "n": pa.array(flat[nz], pa.int64()),
            }
        )
        user_rows = pa.table(
            {
                "kind": pa.array(np.ones(len(users), np.int8)),
                "key": pa.array(users.astype(np.int64), pa.int64()),
                "n": pa.array(counts, pa.int64()),
            }
        )
        return pa.concat_tables([cell_rows, user_rows])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby(["kind", "key"], as_index=False)["n"].sum()
    cms = np.zeros(depth * width, np.int64)
    c = agg[agg["kind"] == 0]
    cms[c["key"].to_numpy()] = c["n"].to_numpy()
    cms = cms.reshape(depth, width)
    u = agg[agg["kind"] == 1]
    users = u["key"].to_numpy(np.int64)
    exact = u["n"].to_numpy(np.int64)
    cells = _cells(users)
    est = np.min(
        np.stack([cms[i][cells[:, i]] for i in range(depth)]), axis=0
    )
    out = pd.DataFrame(
        {"user_id": users, "exact_count": exact, "cms_estimate": est}
    )
    out = out.sort_values(
        ["cms_estimate", "user_id"], ascending=[False, True], ignore_index=True
    ).head(top)
    return out.reset_index(drop=True)


def q_changepoint_cusum(sf_dir: str) -> pd.DataFrame:
    """CUSUM changepoint detection over the daily event-count series —
    the drift monitor that tells an ingest operator WHEN a feed's rate
    regime shifted (deploy, outage, upstream schema change), not just
    that today differs from yesterday.  The statistic is kept EXACT:
    with D days and N total events, the deviation series is
    ``S_k = sum_{d<=k} (D*n_d - N)`` — integer-valued (it telescopes to
    0 at k=D), so the argmax |S| changepoint is bit-stable cross-engine
    with no float means involved.

    Distributed shape: per-block (day, count) partials (one additive
    combiner row per day per block, days-cardinality exchange), driver
    prefix-sums the tiny daily series — the same partial/fold contract
    as ``q_daily_revenue_ma``."""
    ds = _rp(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        d = pc.floor_temporal(t["ts"], unit="day")
        g = pa.table({"day": d}).group_by("day").aggregate([([], "count_all")])
        return g.rename_columns(["day", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    daily = parts.groupby("day", as_index=False)["n"].sum().sort_values("day")
    n = daily["n"].to_numpy(np.int64)
    D, N = len(n), int(n.sum())
    s = np.cumsum(D * n - N)
    amax = int(np.argmax(np.abs(s)))
    return pd.DataFrame(
        {
            "day": pd.to_datetime(daily["day"].to_numpy()).astype("datetime64[us]"),
            "n": n,
            "cusum": s.astype(np.int64),
            "is_changepoint": np.arange(D) == amax,
        }
    ).reset_index(drop=True)


def q_daily_gapfill_locf(sf_dir: str) -> pd.DataFrame:
    """Calendar gap-fill + LOCF (last-observation-carried-forward) —
    the time-series regularization every downstream chart/model needs
    when a feed has silent days: the daily order-revenue series is
    re-laid on a complete day spine (min..max order date) and missing
    days carry the last seen value forward, flagged ``is_filled``.

    Distributed shape: the heavy table collapses to days-cardinality
    additive partials inside ``map_batches`` (the ``q_daily_revenue_ma``
    combiner contract); the spine join + forward-fill run on the tiny
    daily series in the driver (bounded by calendar days, never rows).
    Revenue stays EXACT for the compare: per-day sums are rounded once
    to 2dp (the stored-price grid) on both sides before the fill."""
    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = pc.floor_temporal(t["o_orderdate"], unit="day")
        g = (
            pa.table({"day": d, "rev": t["o_totalprice"]})
            .group_by("day")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["day", "rev"])

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    daily = parts.groupby("day", as_index=False)["rev"].sum()
    daily["rev"] = daily["rev"].round(2)
    daily["day"] = pd.to_datetime(daily["day"])
    spine = pd.DataFrame(
        {"day": pd.date_range(daily["day"].min(), daily["day"].max(), freq="D")}
    )
    out = spine.merge(daily, on="day", how="left")
    out["is_filled"] = out["rev"].isna()
    out["rev"] = out["rev"].ffill()
    out["day"] = out["day"].astype("datetime64[us]")
    return out[["day", "rev", "is_filled"]].reset_index(drop=True)


def q_power_users(sf_dir: str) -> rd.Dataset:
    """RELATIONAL DIVISION — "users who performed EVERY event type" —
    the classic all-quantified join (suppliers-who-supply-all-parts)
    no join/aggregate primitive expresses directly.  Division reduces
    to exact distinct counting: a user qualifies iff their distinct
    event-type count equals the global distinct-type count.

    Distributed shape: per-block distinct ``(user, type)`` pairs
    (combiner — at most users x types rows per block), one user-hash
    bucket shuffle, per-bucket distinct-count vs the broadcast global
    type count (computed from the same combiner stream, types-
    cardinality)."""
    NB = 32
    ds = _rp(sf_dir, "events", ["user_id", "event_type"])

    def pairs(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"user_id": t["user_id"], "event_type": t["event_type"]})
            .group_by(["user_id", "event_type"])
            .aggregate([])
        )
        b = pc.cast(
            pc.bit_wise_and(g["user_id"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    tagged = ds.map_batches(pairs, batch_format="pyarrow")
    n_types = len(
        set(
            t
            for b in tagged.map_batches(
                lambda t: pa.table({"event_type": pc.unique(t["event_type"])}),
                batch_format="pyarrow",
            ).iter_batches(batch_format="pyarrow")
            for t in (b if isinstance(b, pa.Table) else pa.table(b))["event_type"].to_pylist()
        )
    )

    def divide(df: pd.DataFrame, n_types=n_types) -> pd.DataFrame:
        c = df.drop_duplicates(["user_id", "event_type"]).groupby("user_id").size()
        keep = np.sort(c[c == n_types].index.to_numpy())
        return pd.DataFrame({"user_id": keep})

    return tagged.groupby("bucket").map_groups(divide, batch_format="pandas")


_RANK_SUB = 64  # refinement fan-out per hot bin (value axis and id axis)


class _RankPlan:
    """Range-partition plan for EXACT global ranking under the total
    order ``(value, id)`` — ``q_global_rank``'s machinery factored out
    for its reusers (``rank_sum_test``, ``revenue_gini``,
    ``spearman_drift``), with HOT-BIN SUB-SPLITTING so a skewed or
    near-constant column can no longer collapse the whole dataset into
    one task:

    - pass 1 (one combiner scan): per-bin count plus (vmin, vmax, imin,
      imax); bins are fixed-width over a caller-supplied [lo, hi]
      (parquet footer stats — no scan).
    - driver: bins with count <= cap stay ONE task each (the fast path:
      no second pass, identical to the old plan).
    - pass 2 (hot-bin rows only, run only when hot bins exist): a
      (vsub, esub) refinement grid per hot bin.  Value sub-bins split
      skewed-but-spread bins; a sub-bin held by ONE distinct value
      (vmin == vmax) — the degenerate case a value split can never
      help — is instead partitioned into ~cap-sized RANGES of the
      unique tie-break id, which is exact because rows of equal value
      rank in id order.  A still-hot sub-bin with vmin < vmax stays one
      task (requires > cap rows inside 1/(n_bins*64) of the value
      range; recorded in ``unsplit_hot``).
    - task ids are dense in global (value, id) order, so an exclusive
      scan of task counts gives each task its exact base rank offset.

    The exchange then moves every row ONCE on its task id; equal values
    always share a task prefix, so ties never straddle an offset
    boundary.  All driver state is O(n_bins * 64) numpy — broadcast
    into the tag/rank closures, never per-row Python."""

    def __init__(self, ds, conv, idconv, *, lo, hi, n_bins=4096, cap=1 << 18,
                 pass1_df=None):
        self.lo, self.n_bins, self.cap = float(lo), int(n_bins), int(cap)
        self.width = (float(hi) - float(lo)) / n_bins or 1.0
        if pass1_df is None:
            pass1_df = self._pass1(ds, conv, idconv)
        stats = (
            pass1_df.groupby("bin")
            .agg(n=("n", "sum"), vmin=("vmin", "min"), vmax=("vmax", "max"),
                 imin=("imin", "min"), imax=("imax", "max"))
        )
        hist = np.zeros(n_bins, np.int64)
        hist[stats.index.to_numpy()] = stats["n"].to_numpy()
        self.hot = hist > self.cap
        self.vlo = np.zeros(n_bins)
        self.vinv = np.zeros(n_bins)
        self.elo = np.zeros(n_bins)
        self.einv = np.zeros(n_bins)
        if self.hot.any():
            hb = stats.loc[self.hot[stats.index.to_numpy()]]
            idx = hb.index.to_numpy()
            self.vlo[idx] = hb["vmin"].to_numpy()
            span = hb["vmax"].to_numpy() - hb["vmin"].to_numpy()
            self.vinv[idx] = np.where(span > 0, _RANK_SUB / np.where(span > 0, span, 1.0), 0.0)
            self.elo[idx] = hb["imin"].to_numpy()
            espan = hb["imax"].to_numpy() - hb["imin"].to_numpy()
            self.einv[idx] = _RANK_SUB / np.where(espan > 0, espan, 1.0)
            sub = self._pass2(ds, conv, idconv)
        else:
            sub = None
        self._build_tasks(hist, sub)

    # ---- distributed passes -------------------------------------------
    def _bin_of(self, v: np.ndarray) -> np.ndarray:
        return np.clip(((v - self.lo) / self.width).astype(np.int64), 0, self.n_bins - 1)

    def _vsub_of(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.clip(((v - self.vlo[b]) * self.vinv[b]).astype(np.int64), 0, _RANK_SUB - 1)

    def _esub_of(self, b: np.ndarray, i: np.ndarray) -> np.ndarray:
        return np.clip(((i - self.elo[b]) * self.einv[b]).astype(np.int64), 0, _RANK_SUB - 1)

    def _pass1_block(self, v: np.ndarray, i: np.ndarray) -> pa.Table:
        """One block's per-bin (count, vmin, vmax, imin, imax) partials."""
        n_bins = self.n_bins
        b = self._bin_of(v)
        i = i.astype(np.float64)
        n = np.bincount(b, minlength=n_bins)
        vmin = np.full(n_bins, np.inf)
        vmax = np.full(n_bins, -np.inf)
        imin = np.full(n_bins, np.inf)
        imax = np.full(n_bins, -np.inf)
        np.minimum.at(vmin, b, v)
        np.maximum.at(vmax, b, v)
        np.minimum.at(imin, b, i)
        np.maximum.at(imax, b, i)
        nz = np.flatnonzero(n)
        return pa.table(
            {
                "bin": pa.array(nz, pa.int64()),
                "n": pa.array(n[nz], pa.int64()),
                "vmin": pa.array(vmin[nz]),
                "vmax": pa.array(vmax[nz]),
                "imin": pa.array(imin[nz]),
                "imax": pa.array(imax[nz]),
            }
        )

    def _pass1(self, ds, conv, idconv) -> pd.DataFrame:
        def part(t: pa.Table) -> pa.Table:
            return self._pass1_block(conv(t), idconv(t))

        return ds.map_batches(part, batch_format="pyarrow").to_pandas()

    def _pass2(self, ds, conv, idconv) -> pd.DataFrame:
        hot, bin_of, vsub_of, esub_of = self.hot, self._bin_of, self._vsub_of, self._esub_of

        def part(t: pa.Table) -> pa.Table:
            v = conv(t)
            b = bin_of(v)
            m = hot[b]
            empty = pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
            if not m.any():
                return empty
            v, b = v[m], b[m]
            i = idconv(t).astype(np.float64)[m]
            key = (b * _RANK_SUB + vsub_of(b, v)) * _RANK_SUB + esub_of(b, i)
            uk, inv = np.unique(key, return_inverse=True)
            n = np.bincount(inv)
            vmin = np.full(len(uk), np.inf)
            vmax = np.full(len(uk), -np.inf)
            np.minimum.at(vmin, inv, v)
            np.maximum.at(vmax, inv, v)
            return pa.table(
                {
                    "key": pa.array(uk, pa.int64()),
                    "n": pa.array(n, pa.int64()),
                    "vmin": pa.array(vmin),
                    "vmax": pa.array(vmax),
                }
            )

        parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        return parts.groupby("key").agg(
            n=("n", "sum"), vmin=("vmin", "min"), vmax=("vmax", "max")
        )

    # ---- driver-side task construction --------------------------------
    def _build_tasks(self, hist: np.ndarray, sub: pd.DataFrame | None) -> None:
        n_bins, cap = self.n_bins, self.cap
        entry_base = np.zeros(n_bins, np.int64)
        e_task = []       # task id per (bin, vsub) entry (no esplit)
        e_erow = []       # row into e2d per entry, -1 if not esplit
        e2d_rows: list[np.ndarray] = []
        counts: list[int] = []  # rows per task, in global (value, id) order
        self.unsplit_hot: list[tuple[int, int, int]] = []  # (bin, vsub, n)
        sub_n = sub["n"] if sub is not None else None
        sub_vmin = sub["vmin"] if sub is not None else None
        sub_vmax = sub["vmax"] if sub is not None else None
        for b in range(n_bins):
            entry_base[b] = len(e_task)
            if not self.hot[b]:
                if hist[b] > 0:
                    e_task.append(len(counts))
                    counts.append(int(hist[b]))
                else:
                    e_task.append(-1)
                e_erow.append(-1)
                continue
            for vs in range(_RANK_SUB):
                kbase = (b * _RANK_SUB + vs) * _RANK_SUB
                keys = [kbase + es for es in range(_RANK_SUB)]
                ns = (
                    sub_n.reindex(keys, fill_value=0).to_numpy(np.int64)
                    if sub_n is not None
                    else np.zeros(_RANK_SUB, np.int64)
                )
                total = int(ns.sum())
                if total == 0:
                    e_task.append(-1)
                    e_erow.append(-1)
                    continue
                vmin = float(sub_vmin.reindex(keys).min())
                vmax = float(sub_vmax.reindex(keys).max())
                if total <= cap or vmin < vmax:
                    if total > cap:
                        self.unsplit_hot.append((b, vs, total))
                    e_task.append(len(counts))
                    e_erow.append(-1)
                    counts.append(total)
                    continue
                # single distinct value: exact id-range (esub) chunking
                e_task.append(-1)
                e_erow.append(len(e2d_rows))
                row = np.empty(_RANK_SUB, np.int64)
                acc = 0
                task = len(counts)
                counts.append(0)
                for es in range(_RANK_SUB):
                    if acc > 0 and acc + int(ns[es]) > cap:
                        task = len(counts)
                        counts.append(0)
                        acc = 0
                    # an esub is the finest deterministic unit (splitting
                    # WITHIN one by id needs per-subrange counts = a third
                    # refinement pass; ranks stay exact either way), so an
                    # id-concentrated single-value run can still exceed cap
                    # in one task — record it like the vmin<vmax path does
                    # so the skew is observable, not silent
                    if int(ns[es]) > cap:
                        self.unsplit_hot.append((b, vs, int(ns[es])))
                    row[es] = task
                    counts[task] += int(ns[es])
                    acc += int(ns[es])
                e2d_rows.append(row)
        self.entry_base = entry_base
        self.e_task = np.asarray(e_task, np.int64)
        self.e_erow = np.asarray(e_erow, np.int64)
        self.e2d = (
            np.stack(e2d_rows) if e2d_rows else np.zeros((0, _RANK_SUB), np.int64)
        )
        c = np.asarray(counts, np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(c)[:-1]]) if len(c) else c

    # ---- per-row task assignment (vectorized, used in the tag stage) ---
    def assign(self, v: np.ndarray, i: np.ndarray) -> np.ndarray:
        b = self._bin_of(v)
        e = self.entry_base[b] + np.where(self.hot[b], self._vsub_of(b, v), 0)
        task = self.e_task[e]
        er = self.e_erow[e]
        m = er >= 0
        if m.any():
            es = self._esub_of(b[m], i[m].astype(np.float64))
            task = task.copy()
            task[m] = self.e2d[er[m], es]
        return task

    def add_ranks(
        self, df: pd.DataFrame, value_col: str, id_col: str, rank_col: str = "global_rank"
    ) -> pd.DataFrame:
        """Inside a per-task ``map_groups`` fn: sort the task's rows by
        the total order and add exact global ranks from the task's base
        offset."""
        df = df.sort_values([value_col, id_col], ignore_index=True)
        base = int(self.offsets[int(df["task"].iloc[0])])
        df[rank_col] = base + np.arange(1, len(df) + 1, dtype=np.int64)
        return df


def q_global_rank(sf_dir: str, *, n_bins: int = 4096) -> rd.Dataset:
    """EXACT global ranking — the distributed-sort (terasort) pattern
    made hash-certifiable: every event gets its global ``row_number``
    under ``order by (value, event_id)``, computed WITHOUT a global
    sort shuffle of the payload:

    pass 1: per-block histogram over fixed value bins (footer min/max
    -> bin edges; bins x 1 int per block leaves the workers), driver
    exclusive-scans the tiny histogram into per-bin rank offsets;
    pass 2: rows exchange ONCE on their task id (range partitioning —
    equal values share a task prefix, so ties never straddle a
    boundary), each task sorts its slice by (value, event_id) and adds
    its broadcast offset.  Skew is handled by :class:`_RankPlan`'s
    hot-bin sub-splitting (value refinement, id-range chunking for
    single-valued runs), so a near-constant column no longer collapses
    into one task.  This is O1's "global order by" at 10^10 rows,
    where ``ds.sort``'s payload all-to-all would bottleneck on the
    object store."""
    ds = _rp(sf_dir, "events", ["event_id", "value"])
    mm = _footer_min_max(sf_dir, "events", "value")
    assert mm is not None
    plan = _RankPlan(
        ds,
        lambda t: t["value"].to_numpy(zero_copy_only=False),
        lambda t: t["event_id"].to_numpy(zero_copy_only=False),
        lo=mm[0], hi=mm[1], n_bins=n_bins,
    )

    def tag(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        i = t["event_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t["event_id"],
                "value": t["value"],
                "task": pa.array(plan.assign(v, i), pa.int64()),
            }
        )

    def rank_task(df: pd.DataFrame) -> pd.DataFrame:
        df = plan.add_ranks(df, "value", "event_id")
        return df[["event_id", "value", "global_rank"]]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("task")
        .map_groups(rank_task, batch_format="pandas")
    )


def q_weighted_median(sf_dir: str, *, n_bins: int = 4096) -> pd.DataFrame:
    """EXACT weighted median per group — the robust center plain
    ``quantile_cont`` can't give when rows carry weights (here: median
    order price per priority class, weighted by line count, so big
    orders pull harder).  Lower weighted median: the smallest value
    whose DOUBLED cumulative weight reaches the group total — integer
    weight comparisons on exactly-ordered values, hash-stable.

    Scale shape (the ``q_value_percentiles`` histogram pattern, joined):
    the orders x lineitem weight join is ONE orderkey-bucket exchange
    (``q_nation_revenue``'s tagged union-merge); phase A reduces it to
    (priority, price-bin, weight) partials — bins-bounded, never
    row-bounded — and the driver locates each group's median bin;
    phase B re-runs the join keeping ONLY rows in each group's target
    bin (occupancy ~ N/bins), whose tiny sorted series the driver
    scans.  No full-table driver materialization at any point."""
    NB = 64
    mm = _footer_min_max(sf_dir, "orders", "o_totalprice")
    assert mm is not None
    lo, hi = mm
    width = (hi - lo) / n_bins or 1.0

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.clip(((v - lo) / width).astype(np.int64), 0, n_bins - 1)

    def joined(target: dict | None):
        """(priority, price, w) rows via one orderkey-bucket exchange;
        with ``target``, only rows in the group's median bin survive."""
        orders = _rp(
            sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
        )
        li = _rp(sf_dir, "lineitem", ["l_orderkey"])

        def o_side(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "bucket": pc.cast(
                        pc.bit_wise_and(t["o_orderkey"], pa.scalar(NB - 1, pa.int64())),
                        pa.int32(),
                    ),
                    "key": t["o_orderkey"],
                    "pr": t["o_orderpriority"],
                    "price": t["o_totalprice"],
                    "w": pa.nulls(t.num_rows, pa.int64()),
                }
            )

        def l_side(t: pa.Table) -> pa.Table:
            g = (
                pa.table({"key": t["l_orderkey"]})
                .group_by("key")
                .aggregate([([], "count_all")])
                .rename_columns(["key", "w"])
            )
            return pa.table(
                {
                    "bucket": pc.cast(
                        pc.bit_wise_and(g["key"], pa.scalar(NB - 1, pa.int64())),
                        pa.int32(),
                    ),
                    "key": g["key"],
                    "pr": pa.nulls(g.num_rows, pa.string()),
                    "price": pa.nulls(g.num_rows, pa.float64()),
                    "w": g["w"],
                }
            )

        def merge(df: pd.DataFrame) -> pd.DataFrame:
            left = df[df["pr"].notna()]
            right = df[df["pr"].isna()].groupby("key", as_index=False)["w"].sum()
            m = left[["key", "pr", "price"]].merge(right, on="key")
            if target is not None:
                b = bin_of(m["price"].to_numpy())
                want = m["pr"].map(target).to_numpy(dtype=float, na_value=np.nan)
                m = m[want == b]
                return m[["pr", "price", "w"]]
            m["bin"] = bin_of(m["price"].to_numpy())
            g = m.groupby(["pr", "bin"], as_index=False)["w"].sum()
            return g[["pr", "bin", "w"]]

        return (
            orders.map_batches(o_side, batch_format="pyarrow")
            .union(li.map_batches(l_side, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(merge, batch_format="pandas")
            .to_pandas()
        )

    # phase A: bins-bounded weight histogram per group
    hist = joined(None).groupby(["pr", "bin"], as_index=False)["w"].sum()
    target: dict = {}
    before: dict = {}
    totals: dict = {}
    for pr, g in hist.groupby("pr"):
        g = g.sort_values("bin")
        w = g["w"].to_numpy(np.int64)
        tot = int(w.sum())
        cum2 = 2 * np.cumsum(w)
        i = int(np.argmax(cum2 >= tot))
        target[pr] = int(g["bin"].iloc[i])
        before[pr] = int(np.cumsum(w)[i - 1]) if i else 0
        totals[pr] = tot

    # phase B: exact scan inside each group's single median bin
    rows = joined(target)
    out_g, out_m = [], []
    for pr in sorted(target):
        g = rows[rows["pr"] == pr].sort_values(["price"])
        cum = before[pr] + np.cumsum(g["w"].to_numpy(np.int64))
        i = int(np.argmax(2 * cum >= totals[pr]))
        out_g.append(pr)
        out_m.append(float(g["price"].iloc[i]))
    return pd.DataFrame({"o_orderpriority": out_g, "weighted_median": out_m})


def q_value_minmax_scaled(sf_dir: str) -> rd.Dataset:
    """Per-group min-max feature scaling — the normalization every
    model-input pipeline applies: ``(v - min) / (max - min)`` within
    each event type.  Two passes: a tiny per-group (min, max) combiner
    (groups x 2 doubles per block), broadcast to a vectorized per-batch
    scale — no shuffle of the data itself, streaming Dataset out.
    Each output value is ONE subtraction + ONE division of exact
    stored doubles (no accumulation), so it is bit-identical in SQL."""
    ds = _rp(sf_dir, "events", ["event_id", "event_type", "value"])

    def mm_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"event_type": t["event_type"], "value": t["value"]})
            .group_by("event_type")
            .aggregate([("value", "min"), ("value", "max")])
        )
        return g.rename_columns(["event_type", "vmin", "vmax"])

    parts = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
    mm = parts.groupby("event_type").agg(vmin=("vmin", "min"), vmax=("vmax", "max"))
    lut_min = mm["vmin"].to_dict()
    lut_max = mm["vmax"].to_dict()

    def scale(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_pylist()
        v = t["value"].to_numpy(zero_copy_only=False)
        lo = np.array([lut_min[e] for e in et])
        hi = np.array([lut_max[e] for e in et])
        s = (v - lo) / (hi - lo)
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value": t["value"],
                "scaled": pa.array(s, pa.float64()),
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow")


def q_user_max_gap(sf_dir: str) -> rd.Dataset:
    """Maximum inactivity gap per user — the churn-risk feature
    (longest silence between consecutive events), exact in integer
    microseconds.  One custkey-style user-hash bucket shuffle
    co-locates each user's events; the bucket task sorts once and
    diffs consecutive timestamps vectorized for EVERY user in the
    bucket (the ``q_customer_running_total`` plan).  Users with a
    single event report NULL (no gap exists)."""
    NB = 32
    ds = _rp(sf_dir, "events", ["user_id", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.bit_wise_and(t["user_id"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return t.append_column("bucket", b)

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], ignore_index=True)
        g = df.groupby("user_id", sort=False)
        # exact integer microseconds (total_seconds() would round at
        # 1e11-us magnitudes), then float for the NULL-able output
        d = g["ts"].transform(lambda s: s.astype("int64")).diff()
        d[df["user_id"].ne(df["user_id"].shift())] = np.nan
        out = (
            pd.DataFrame({"user_id": df["user_id"], "gap": d})
            .groupby("user_id", as_index=False)["gap"]
            .max()
        )
        out["max_gap_us"] = out["gap"]  # float64 with NaN for 1-event users
        return out[["user_id", "max_gap_us"]]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(gaps, batch_format="pandas")
    )


def q_user_entropy(sf_dir: str) -> rd.Dataset:
    """Behavioral-diversity score per user — integer-quantized Shannon
    surprisal of each user's event-type mix (1-type bots score 0;
    uniform explorers score high), the engagement feature cohort
    models consume.  Same exactness scheme as ``q_char_surprisal``:
    per-type bits are ``floor(log2(n_user)) - floor(log2(c_type))``
    summed with integer weights — no libm, order-free, hash-stable.

    Distributed shape: per-block distinct ``(user, type, count)``
    combiner (users x types rows per block), one user-hash bucket
    exchange, per-bucket vectorized fold."""
    NB = 32
    ds = _rp(sf_dir, "events", ["user_id", "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"user_id": t["user_id"], "event_type": t["event_type"]})
            .group_by(["user_id", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "event_type", "c"])
        )
        b = pc.cast(
            pc.bit_wise_and(g["user_id"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False)["c"].sum()
        tot = g.groupby("user_id")["c"].transform("sum").to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)

        def flog2(x):
            return np.frexp(x.astype(np.float64))[1].astype(np.int64) - 1

        bits = c * (flog2(tot) - flog2(c))
        out = pd.DataFrame({"user_id": g["user_id"], "n": c, "bits": bits})
        agg = out.groupby("user_id", as_index=False).agg(
            n_events=("n", "sum"), surprisal_bits=("bits", "sum")
        )
        return agg

    return (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold, batch_format="pandas")
    )


def q_rank_sum_test(sf_dir: str) -> pd.DataFrame:
    """Mann-Whitney rank-sum statistic between weekend and weekday
    event values — the nonparametric two-sample location test
    (complements the chi-square independence test in the monitoring
    family).  Ranks are EXACT distinct integers under the
    ``(value, event_id)`` total order (deterministic tie-break, so U is
    an exact int both engines agree on); the rank machinery is
    ``q_global_rank``'s range partitioning — bin histogram, driver
    offsets, one bin exchange — with per-bin partial rank-sums per
    group folded at the driver.  Outputs n per group, rank sums, and
    the U statistic."""
    ds = _rp(sf_dir, "events", ["event_id", "ts", "value"])
    mm = _footer_min_max(sf_dir, "events", "value")
    assert mm is not None
    plan = _RankPlan(
        ds,
        lambda t: t["value"].to_numpy(zero_copy_only=False),
        lambda t: t["event_id"].to_numpy(zero_copy_only=False),
        lo=mm[0], hi=mm[1],
    )

    def tag(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        i = t["event_id"].to_numpy(zero_copy_only=False)
        dow = pc.day_of_week(t["ts"]).to_numpy(zero_copy_only=False)
        # int8 group flag instead of a per-row string label: ~50 MB less
        # exchange payload at 8M rows; names re-attached at the driver
        return pa.table(
            {
                "event_id": t["event_id"],
                "value": t["value"],
                "g": pa.array((dow >= 5).astype(np.int8)),
                "task": pa.array(plan.assign(v, i), pa.int64()),
            }
        )

    def ranksum_task(df: pd.DataFrame) -> pd.DataFrame:
        df = plan.add_ranks(df, "value", "event_id", rank_col="rank")
        return df.groupby("g", as_index=False).agg(
            n=("rank", "size"), rsum=("rank", "sum")
        )

    partials = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("task")
        .map_groups(ranksum_task, batch_format="pandas")
        .to_pandas()
    )
    agg = partials.groupby("g", as_index=False)[["n", "rsum"]].sum()
    agg["grp"] = np.where(agg["g"].to_numpy() == 1, "weekend", "weekday")
    agg = agg.drop(columns=["g"]).sort_values("grp", ignore_index=True)
    n_by = dict(zip(agg["grp"], agg["n"]))
    r_by = dict(zip(agg["grp"], agg["rsum"]))
    n1 = int(n_by.get("weekday", 0))
    r1 = int(r_by.get("weekday", 0))
    u1 = r1 - n1 * (n1 + 1) // 2
    agg["u_weekday"] = np.int64(u1)
    return agg[["grp", "n", "rsum", "u_weekday"]].astype(
        {"n": "int64", "rsum": "int64"}
    )


def q_revenue_gini(sf_dir: str, *, n_bins: int = 4096) -> pd.DataFrame:
    """Gini coefficient of customer revenue concentration — the
    inequality metric behind "top 1% of customers drive X%" analyses —
    computed EXACTLY: revenues become integer cents (the 2-dp price
    grid is exact in cents), ranks come from ``q_global_rank``'s range
    partitioning, and ``G = (2*sum(rank*cents) - (n+1)*sum(cents)) /
    (n*sum(cents))`` is evaluated on exact int sums with one final
    IEEE division — no float accumulation anywhere.

    Plan: per-customer cent totals via a custkey-bucket combine (one
    exchange), materialized ONCE in the object store (distributed, not
    driver); then the rank machinery over the totals — min/max
    aggregate, bin histogram partials, driver offsets, one bin
    exchange emitting per-bin exact partial sums of rank*cents."""
    NB = 32
    ds = _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def pre(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0)), ndigits=0),
            pa.int64(),
        )
        g = (
            pa.table({"o_custkey": t["o_custkey"], "cents": cents})
            .group_by("o_custkey")
            .aggregate([("cents", "sum")])
            .rename_columns(["o_custkey", "cents"])
        )
        b = pc.cast(
            pc.bit_wise_and(g["o_custkey"], pa.scalar(NB - 1, pa.int64())), pa.int32()
        )
        return g.append_column("bucket", b)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False)["cents"].sum()

    totals = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold, batch_format="pandas")
        .materialize()
    )

    import ray.data.aggregate as agg_mod

    mm = totals.aggregate(agg_mod.Min("cents"), agg_mod.Max("cents"))
    plan = _RankPlan(
        totals,
        lambda t: t["cents"].to_numpy(zero_copy_only=False).astype(np.float64),
        lambda t: t["o_custkey"].to_numpy(zero_copy_only=False),
        lo=float(mm["min(cents)"]), hi=float(mm["max(cents)"]), n_bins=n_bins,
    )

    def tag(t: pa.Table) -> pa.Table:
        v = t["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        i = t["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "cents": t["cents"],
                "task": pa.array(plan.assign(v, i), pa.int64()),
            }
        )

    def gini_task(df: pd.DataFrame) -> pd.DataFrame:
        df = plan.add_ranks(df, "cents", "o_custkey", rank_col="rank")
        rank = df["rank"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n": [len(df)],
                "s": [int(c.sum())],
                "rs": [int((rank * c).sum())],
            }
        )

    partials = (
        totals.map_batches(tag, batch_format="pyarrow")
        .groupby("task")
        .map_groups(gini_task, batch_format="pandas")
        .to_pandas()
    )
    n = int(partials["n"].sum())
    s_tot = int(partials["s"].sum())
    rs = int(partials["rs"].sum())
    # double-cast numerator and denominator separately, matching the
    # SQL cast(...) / cast(...) exactly even past 2^53
    gini = float(2 * rs - (n + 1) * s_tot) / float(n * s_tot)
    return pd.DataFrame(
        {
            "n_customers": pd.Series([n], dtype="int64"),
            "total_cents": pd.Series([s_tot], dtype="int64"),
            "rank_weighted_cents": pd.Series([rs], dtype="int64"),
            "gini": pd.Series([gini], dtype="float64"),
        }
    )


def q_spearman_drift(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation between order DATE and order PRICE —
    the monotonic-drift detector ("is revenue per order trending up?")
    that Pearson misses when the trend is nonlinear.  Both variables
    get EXACT distinct integer ranks under deterministic tie-breaks
    ((date, key) and (price, key)), so rho reduces to the classic
    ``1 - 6*sum(d^2) / (n(n^2-1))`` on exact integer sums — one final
    double division, hash-stable.

    Distributed shape (fused this round — was six full scans): ZERO
    min/max scans (parquet footer stats for both columns), ONE fused
    combiner scan emitting BOTH axes' per-bin histograms, ONE fused tag
    scan emitting both tagged row streams, one (axis, task) rank
    exchange, and one orderkey-bucket exchange folding per-bucket
    ``sum(d^2)`` ints at the driver.  Ranks use :class:`_RankPlan`
    (hot-bin sub-splitting included)."""
    NB = 32
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])

    def conv_d(t: pa.Table) -> np.ndarray:
        return (
            pc.cast(t["o_orderdate"], pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )

    def conv_p(t: pa.Table) -> np.ndarray:
        return t["o_totalprice"].to_numpy(zero_copy_only=False)

    def conv_i(t: pa.Table) -> np.ndarray:
        return t["o_orderkey"].to_numpy(zero_copy_only=False)

    mm_d = _footer_min_max(sf_dir, "orders", "o_orderdate")
    mm_p = _footer_min_max(sf_dir, "orders", "o_totalprice")
    assert mm_d is not None and mm_p is not None
    # ONE pass-1 scan for both axes: each plan's combiner runs on the
    # same block visit; axis 0 = date, axis 1 = price
    plans: list[_RankPlan] = []
    shells = [
        _RankPlan.__new__(_RankPlan),
        _RankPlan.__new__(_RankPlan),
    ]
    for ax, (lo, hi) in enumerate([mm_d, mm_p]):
        shells[ax].lo, shells[ax].n_bins, shells[ax].cap = float(lo), 4096, 1 << 18
        shells[ax].width = (float(hi) - float(lo)) / 4096 or 1.0

    def pass1_both(t: pa.Table) -> pa.Table:
        outs = []
        for ax, conv in ((0, conv_d), (1, conv_p)):
            part = shells[ax]._pass1_block(conv(t), conv_i(t))
            outs.append(part.append_column(
                "axis", pa.array(np.full(part.num_rows, ax, np.int8))
            ))
        return pa.concat_tables(outs)

    p1 = ds.map_batches(pass1_both, batch_format="pyarrow").to_pandas()
    for ax, conv, (lo, hi) in ((0, conv_d, mm_d), (1, conv_p, mm_p)):
        plans.append(
            _RankPlan(
                ds, conv, conv_i, lo=lo, hi=hi,
                pass1_df=p1[p1["axis"] == ax],
            )
        )

    def tag_both(t: pa.Table) -> pa.Table:
        i = conv_i(t)
        vd, vp = conv_d(t), conv_p(t)
        n = t.num_rows
        return pa.table(
            {
                "axis": pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
                ),
                "o_orderkey": pa.concat_arrays(
                    [t["o_orderkey"].combine_chunks(), t["o_orderkey"].combine_chunks()]
                ),
                "v": pa.array(np.concatenate([vd, vp]), pa.float64()),
                "task": pa.array(
                    np.concatenate([plans[0].assign(vd, i), plans[1].assign(vp, i)]),
                    pa.int64(),
                ),
            }
        )

    def rank_task(df: pd.DataFrame) -> pd.DataFrame:
        ax = int(df["axis"].iloc[0])
        df = plans[ax].add_ranks(df, "v", "o_orderkey", rank_col="rank")
        return df[["axis", "o_orderkey", "rank"]]

    ranks = (
        ds.map_batches(tag_both, batch_format="pyarrow")
        .groupby(["axis", "task"])
        .map_groups(rank_task, batch_format="pandas")
    )

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket",
            pc.cast(
                pc.bit_wise_and(t["o_orderkey"], pa.scalar(NB - 1, pa.int64())),
                pa.int32(),
            ),
        )

    def d2_partial(df: pd.DataFrame) -> pd.DataFrame:
        a = df[df["axis"] == 0][["o_orderkey", "rank"]]
        b = df[df["axis"] == 1][["o_orderkey", "rank"]]
        m = a.merge(b, on="o_orderkey", suffixes=("_a", "_b"))
        d = m["rank_a"].to_numpy(np.int64) - m["rank_b"].to_numpy(np.int64)
        return pd.DataFrame({"n": [len(m)], "d2": [int((d * d).sum())]})

    parts = (
        ranks.map_batches(bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(d2_partial, batch_format="pandas")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    d2 = int(parts["d2"].sum())
    rho = 1.0 - float(6 * d2) / float(n * (n * n - 1))
    return pd.DataFrame(
        {
            "n_orders": pd.Series([n], dtype="int64"),
            "sum_d2": pd.Series([d2], dtype="int64"),
            "spearman_rho": pd.Series([rho], dtype="float64"),
        }
    )


def q_benford_digits(sf_dir: str) -> pd.DataFrame:
    """Benford first-digit analysis of order totals — the fraud /
    data-fabrication screen from forensic accounting (natural
    multiplicative data follows log-ish first-digit frequencies;
    fabricated numbers don't).  Exactness: the first digit is taken
    from the DECIMAL STRING of exact integer cents (no log10, no float
    thresholds), counts are additive ints, and the observed share is
    one division per digit.

    Distributed shape: 9-bucket count partials per block (digits x 1
    int), driver fold — the cheapest combiner in the repo."""
    ds = _rp(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0)), ndigits=0),
            pa.int64(),
        )
        first = pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1)
        g = (
            pa.table({"digit": first})
            .group_by("digit")
            .aggregate([([], "count_all")])
            .rename_columns(["digit", "n"])
        )
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("digit", as_index=False)["n"].sum()
    total = int(agg["n"].sum())
    agg["share"] = agg["n"].astype(np.float64) / np.float64(total)
    return (
        agg.sort_values("digit", ignore_index=True)
        .astype({"n": "int64"})
        [["digit", "n", "share"]]
    )


def q_seasonal_revenue(sf_dir: str) -> pd.DataFrame:
    """Seasonality mart via the GENERATED date-spine dimension (the
    dbt `dim_date` join every calendar-aware mart does,
    ``dim_date.sql:6-82``): revenue by (year, quarter, weekend flag),
    where quarter and weekend come from the spine's attributes, not
    recomputed ad hoc — the spine is built once over the fact's date
    range and joined to the DAYS-cardinality revenue combine (the
    fact table itself never joins anything).

    The oracle recomputes the same attributes with SQL date functions
    (the `date_spine` oracle already certifies they agree), so this
    certifies the dim JOIN end-to-end."""
    from nyc_taxi_data_pipeline_ray.sources.dims import date_spine

    ds = _rp(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = pc.floor_temporal(t["o_orderdate"], unit="day")
        g = (
            pa.table({"day": d, "rev": t["o_totalprice"]})
            .group_by("day")
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["day", "rev"])

    daily = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("day", as_index=False)["rev"]
        .sum()
    )
    daily["day"] = pd.to_datetime(daily["day"])
    # date_spine's end bound is exclusive (np.arange semantics)
    spine = date_spine(
        str(daily["day"].min().date()),
        str((daily["day"].max() + pd.Timedelta(days=1)).date()),
    ).to_pandas()[["date_day", "year", "quarter", "is_weekend"]]
    m = daily.merge(spine, left_on="day", right_on="date_day", how="inner")
    out = m.groupby(["year", "quarter", "is_weekend"], as_index=False).agg(
        n_days=("day", "size"), revenue=("rev", "sum")
    )
    out["revenue"] = out["revenue"].round(2)
    return (
        out.sort_values(["year", "quarter", "is_weekend"], ignore_index=True)
        .astype({"year": "int64", "quarter": "int64", "n_days": "int64"})
    )
