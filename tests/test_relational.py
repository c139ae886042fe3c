"""Driver-style correctness gate, run locally: every ``queries()`` entry
vs its ``oracle_sql()`` on /root/testdata/sf0.01 — row count, column
names, and order-insensitive value equality (the driver's compare sorts
columns by name and hashes values)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"create view {t} as select * from '{SF_DIR}/{t}.parquet'")
    return con.execute(sql).fetchdf()


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), ignore_index=True)


def _entries():
    import __ray_entry__ as E

    q = E.queries()
    o = E.oracle_sql()
    return [(name, q[name], o.get(name)) for name in q]


@pytest.mark.parametrize("name,fn,sql", _entries(), ids=[n for n, _, _ in _entries()])
def test_query_vs_oracle(name, fn, sql):
    got = _normalize(_to_df(fn(SF_DIR)))
    if sql is None:
        assert len(got) >= 0  # rows-only check for non-SQL-expressible ops
        return
    exp = _normalize(_oracle(sql))
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} != {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"{name}: {len(got)} rows != {len(exp)}"
    for c in got.columns:
        g, e = got[c], exp[c]
        if pd.api.types.is_float_dtype(g) or pd.api.types.is_float_dtype(e):
            ok = np.isclose(
                g.astype(float), e.astype(float), rtol=0, atol=1e-9, equal_nan=True
            )
            assert ok.all(), f"{name}.{c}: {int((~ok).sum())} mismatches\n" + str(
                pd.DataFrame({"got": g[~ok].head(), "exp": e[~ok].head()})
            )
        else:
            same = (g.fillna("<null>") == e.fillna("<null>")) if g.dtype == object else (g == e)
            assert same.all(), f"{name}.{c}: mismatch\n" + str(
                pd.DataFrame({"got": g[~same].head(), "exp": e[~same].head()})
            )
