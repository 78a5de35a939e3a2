"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry and, where an ``oracle_sql()`` entry exists,
compares against DuckDB on the same parquet tables: row count, column-name
set, and order-insensitive value comparison (rows sorted by all columns).

Usage: python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        res = res.to_pandas()
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _dtype_kind(dt) -> str:
    """Coarse dtype class for engine/oracle parity.

    The driver's value hash is type-sensitive (int64 vs DuckDB HUGEINT→float64
    flagged user_sessions in round 1 while value-only comparison passed), so we
    must fail locally on int-vs-float and similar class mismatches.  Nullable
    pandas Int64 and numpy int64 are the same class; object and string are the
    same class.
    """
    s = str(dt).lower()
    if "datetime" in s:
        return "datetime"
    if s.startswith(("int", "uint")) or s in ("int64", "int32"):
        return "int"
    if s.startswith("float"):
        return "float"
    if s == "bool" or s == "boolean":
        return "bool"
    return "str"


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if set(mine.columns) != set(oracle.columns):
        problems.append(f"columns differ: mine={sorted(mine.columns)} oracle={sorted(oracle.columns)}")
        return problems
    for c in sorted(mine.columns):
        km, ko = _dtype_kind(mine[c].dtype), _dtype_kind(oracle[c].dtype)
        if km != ko:
            problems.append(
                f"dtype class differs on {c}: mine={mine[c].dtype}({km}) oracle={oracle[c].dtype}({ko})"
            )
    if len(mine) != len(oracle):
        problems.append(f"row count differs: mine={len(mine)} oracle={len(oracle)}")
    a, b = canon(mine), canon(oracle)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(np.asarray(av).dtype, np.floating) or np.issubdtype(
                np.asarray(bv).dtype, np.floating
            ):
                av = np.asarray(av, dtype=np.float64)
                bv = np.asarray(bv, dtype=np.float64)
                # EXACT equality: the driver hashes values, so any tolerance
                # here would hide a mismatch the real gate will catch
                bad = ~((av == bv) | (np.isnan(av) & np.isnan(bv)))
            else:
                bad = ~(
                    (pd.Series(av).astype(str) == pd.Series(bv).astype(str)).to_numpy()
                )
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                problems.append(f"col {c}: {int(bad.sum())} mismatches; first at row {i}: mine={av[i]!r} oracle={bv[i]!r}")
    return problems


def connect(sf_dir: str) -> "duckdb.DuckDBPyConnection":
    """A fresh DuckDB connection with one view per testdata table.

    One connection per query: a single long-lived connection across ~160
    heavy oracles fragments the allocator into >64k anonymous mmaps and
    dies on vm.max_map_count ("Out of Memory Error" / "can't start new
    thread" with 100 GB free — round-5 diagnosis); closing the connection
    releases its maps."""
    c = duckdb.connect()
    c.sql("SET temp_directory='/tmp/duckdb_gate_tmp'")
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return c


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    # grade the tree this script sits in, whatever the working directory:
    # the driver imports it from sys.path, Ray workers inherit PYTHONPATH
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok?   {name}: rows={len(mine)} cols={sorted(mine.columns)} ({dt:.1f}s, rows-only)")
            n_pass += 1
            continue
        sql = oracles[name]
        if "sf0.01" in sql and "sf0.01" not in sf_dir:
            sql = sql.replace("sf0.01", sf_dir.rstrip("/").split("/")[-1])
        try:
            con = connect(sf_dir)
            try:
                oracle = con.sql(sql).df()
            finally:
                con.close()
        except Exception as ex:
            print(f"FAIL  {name}: oracle raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        problems = compare(name, mine, oracle)
        if problems:
            n_fail += 1
            print(f"FAIL  {name}: ({dt:.1f}s)")
            for p in problems:
                print(f"      - {p}")
        else:
            n_pass += 1
            print(f"PASS  {name}: rows={len(mine)} ({dt:.1f}s)")
    print(f"\n{n_pass} pass, {n_fail} fail")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
