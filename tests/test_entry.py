"""Driver-contract simulation: run every queries() entry at sf0.01 and
compare against its oracle_sql() with the driver's semantics (sorted columns,
order-insensitive row comparison).

Every query's frame is also pinned in ``entry_pins.json``: column names,
``str(dtype)`` per column and row count, and for the rows-only queries a
sha256 of the canonical rows, except where ROWS_UNPINNED says why not.
The pins were recorded twice on the same commit and both runs agreed."""

import hashlib
import importlib.util
import json

import duckdb
import numpy as np
import pandas as pd
import pytest

from proc_group import REPO

SF = "/root/testdata/sf0.01"
PINS = json.loads((REPO / "tests" / "entry_pins.json").read_text())
#: rows-only queries pinned at columns, dtypes and row count only: their
#: quantiles (stats p50/p95/p99, the drift KS statistic) come from t-digest
#: merges whose order follows block completion
ROWS_UNPINNED = {"spans_drift", "spans_stats"}
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"create view {t} as select * from "
              f"read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.fixture(scope="module")
def contract(ray_session):
    import __ray_entry__ as m
    return m


def test_entry_smoke(contract):
    result = contract.entry()
    df = _to_df(result)
    assert len(df) >= 0
    assert "error_kind" in df.columns


def test_all_queries_have_unique_names(contract):
    qs = contract.queries()
    assert len(qs) >= 25
    sql = contract.oracle_sql()
    assert set(sql.keys()) <= set(qs.keys())


def _rows_digest(df: pd.DataFrame) -> str:
    return hashlib.sha256(_canon(df).to_csv(index=False).encode()).hexdigest()


def _check_pin(name: str, df: pd.DataFrame) -> None:
    """The frame the driver sees matches its pin: columns, dtypes, rows,
    and the rows digest where one is pinned."""
    pin = PINS[name]
    assert list(df.columns) == pin["columns"], f"{name}: columns"
    assert [str(df[c].dtype) for c in df.columns] == pin["dtypes"], (
        f"{name}: dtypes {[str(df[c].dtype) for c in df.columns]}")
    assert len(df) == pin["rows"], f"{name}: {len(df)} rows"
    if "sha256" in pin:
        assert _rows_digest(df) == pin["sha256"], f"{name}: rows digest"


def _entry_module():
    """This checkout's entry module, loaded for its query names only (at
    collection time, before any Ray session exists)."""
    spec = importlib.util.spec_from_file_location(
        "_entry_names", REPO / "__ray_entry__.py")
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def _oracled_names():
    """EVERY query with an oracle is SQL-parity-checked — the list is
    derived, so a new oracled query can never silently skip this gate."""
    return sorted(_entry_module().oracle_sql())


@pytest.mark.parametrize("name", _oracled_names())
def test_sql_checked_query(contract, con, name):
    qs = contract.queries()
    df = _to_df(qs[name](SF))
    got = _canon(df)
    exp = _canon(con.sql(contract.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} != {list(exp.columns)}")
    assert len(got) == len(exp), f"{name}: {len(got)} rows != {len(exp)}"
    if len(got):
        for c in got.columns:
            if got[c].dtype.kind == "f":
                g = got[c].astype(float).to_numpy()
                e = exp[c].astype(float).to_numpy()
                # NULL/NaN positions must agree (SQL NULL arrives as NaN
                # from .df()), then compare the finite values
                assert (np.isnan(g) == np.isnan(e)).all(), \
                    f"{name}.{c} NULL mask mismatch"
                assert np.allclose(g, e, rtol=0, atol=1e-12,
                                   equal_nan=True), f"{name}.{c}"
            else:
                assert (got[c].values == exp[c].values).all(), \
                    f"{name}.{c} mismatch"
    _check_pin(name, df)


def _rows_only_names():
    """Every queries() entry WITHOUT an oracle runs rows-only here, so the
    full driver surface executes in-suite regardless of oracle status."""
    m = _entry_module()
    return sorted(set(m.queries()) - set(m.oracle_sql()))


@pytest.mark.parametrize("name", _rows_only_names())
def test_rows_only_query_runs(contract, name):
    got = _to_df(contract.queries()[name](SF))
    assert got is not None
    # rows-only: driver records shape; we assert it at least executes and
    # produces a stable column set (ray's to_pandas drops columns for
    # all-empty datasets — an empty result is still a valid run)
    assert len(got.columns) > 0 or len(got) == 0
    _check_pin(name, got)
    assert ("sha256" in PINS[name]) == (name not in ROWS_UNPINNED), name


def test_every_query_is_pinned():
    assert sorted(PINS) == sorted(_entry_module().queries())
