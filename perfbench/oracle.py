"""Reference outputs the benchmark checks each timed call against.

* validate workloads: the single-process pandas oracle
  (``checks.oracle_pandas``) on the same corpus gives the per-check counts,
  the duplicate ids and hence the number of violation rows the sink must hold;
  the exact n_tok distribution bounds the report's t-digest quantiles.
* prep_capstone: the DuckDB query ``__ray_entry__.oracle_sql()
  ["prepare_training_sequences"]``, with its corpus glob pointed at the
  benchmark corpus.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

PLAN_COLUMNS = ("doc_id", "shard", "pack_id", "pack_pos", "tok_offset", "n_tok")


def _fragment_oracle(path: str) -> tuple[dict, int, "pd.DataFrame"]:
    from product_quality_check_ray.checks.oracle_pandas import oracle_row_checks
    from product_quality_check_ray.checks.row_checks import ROW_CHECK_NAMES

    df = pq.read_table(path).to_pandas()
    checks = oracle_row_checks(df)
    counts = {n: int(checks[n].sum()) for n in ROW_CHECK_NAMES}
    return counts, int((~checks["ok"]).sum()), df[["doc_id", "source", "n_tok"]]


def _quantile_bounds(df) -> dict[str, tuple[float, float]]:
    """Exact n_tok values at ranks q -/+ QUANTILE_RANK_TOL for every quantile
    the report states, keyed like ``quantile_values``."""
    import numpy as np

    valid = df[df["n_tok"].notna() & (df["n_tok"] >= 0)]
    groups = {"/global": (valid["n_tok"], (0.5, 0.9, 0.99))}
    for src, g in valid.groupby(valid["source"].fillna("\x00null")):
        groups[f"/per_source/{src}"] = (g["n_tok"], (0.5, 0.99))
    out = {}
    for prefix, (vals, qs) in groups.items():
        v = np.sort(vals.to_numpy(dtype=np.float64))
        for q in qs:
            lo = np.quantile(v, max(0.0, q - QUANTILE_RANK_TOL), method="lower")
            hi = np.quantile(v, min(1.0, q + QUANTILE_RANK_TOL), method="higher")
            out[f"{prefix}/p{round(q * 100)}_n_tok"] = (float(lo), float(hi))
    return out


def validate_expectation(corpus: str) -> dict:
    """Oracle counts for ``corpus``. The row checks are per row, so the
    fragments are checked in a process pool; the rest is global."""
    import multiprocessing as mp

    import pandas as pd

    from product_quality_check_ray.checks.oracle_pandas import oracle_duplicates

    frags = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))
    procs = min(len(frags), len(os.sched_getaffinity(0)))
    with mp.get_context("spawn").Pool(procs) as pool:
        parts = pool.map(_fragment_oracle, frags)
    counts = {n: sum(c[n] for c, _, _ in parts) for n in parts[0][0]}
    df = pd.concat([d for _, _, d in parts], ignore_index=True)
    dups = oracle_duplicates(df)
    counts["dup_doc_id"] = sum(dups.values())
    return {
        "check_counts": counts,
        "duplicates": dups,
        # the sink holds every row-check failure plus every row of a
        # duplicated doc_id (a row can be in both)
        "violation_rows": sum(n for _, n, _ in parts) + sum(dups.values()),
        "quantile_bounds": _quantile_bounds(df),
    }


def violation_rows(out_dir: str) -> int:
    files = glob.glob(os.path.join(out_dir, "violations", "part=*", "*.parquet"))
    return sum(pq.read_metadata(f).num_rows for f in files)


# t-digest quantiles depend on how a partition's rows were split into Ray
# blocks, so they are held to the package's documented sketch accuracy (the
# seq_sketch_accuracy contract: between the exact values at ranks q -/+ 0.05)
# instead of to equality; every other field of a report is exact
QUANTILE_KEYS = ("p50_n_tok", "p90_n_tok", "p99_n_tok")
QUANTILE_RANK_TOL = 0.05


def report_summary(rep) -> dict:
    """Everything a validation report states about the corpus (per-partition
    wall times and paths excluded), as plain JSON values."""
    parts = {
        pid: {k: p[k] for k in ("file_rows", "processed_rows", "ok_rows", "viol_rows", "check_counts")}
        for pid, p in rep.partitions.items()
    }
    per_source = {s: {k: v for k, v in a.items() if k != "hist"} | {"hist": list(map(int, a["hist"]))}
                  for s, a in rep.per_source.items()}
    return json.loads(json.dumps(
        {
            "check_counts": rep.check_counts(),
            "duplicates": rep.duplicates,
            "drift": rep.drift,
            "global": {k: v for k, v in rep.global_stats.items() if not isinstance(v, bytes)},
            "per_source": per_source,
            "partitions": parts,
        },
        default=str,
    ))


def quantile_values(summary: dict) -> dict[str, float]:
    out = {f"/global/{k}": summary["global"][k] for k in QUANTILE_KEYS if k in summary["global"]}
    for src, a in summary["per_source"].items():
        out.update({f"/per_source/{src}/{k}": a[k] for k in QUANTILE_KEYS if k in a})
    return out


def quantile_problems(values: dict[str, float], bounds: dict[str, tuple]) -> list[str]:
    problems = [f"{k}: no exact reference" for k in values.keys() - bounds.keys()]
    for k, (lo, hi) in bounds.items():
        v = values.get(k)
        if v is None or not lo <= v <= hi:
            problems.append(f"{k}: {v} outside the exact [{lo}, {hi}]")
    return problems


def summary_differences(a, b, path: str = "") -> list[str]:
    """Fields where two report summaries differ, quantile estimates aside."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{path}/{k}: only in one report" for k in set(a) ^ set(b)]
        for k in sorted(set(a) & set(b)):
            if k not in QUANTILE_KEYS:
                out += summary_differences(a[k], b[k], f"{path}/{k}")
        return out
    return [] if a == b else [f"{path}: {a} != {b}"]


def canonical_plan(t: pa.Table) -> pa.Table:
    cols = {c: t.column(c) for c in PLAN_COLUMNS}
    for c in PLAN_COLUMNS[1:]:
        cols[c] = pc.cast(cols[c], pa.int64())
    out = pa.table(cols)
    return out.sort_by([(c, "ascending") for c in PLAN_COLUMNS])


def prep_expectation(corpus: str) -> pa.Table:
    """Run the capstone's DuckDB oracle over ``corpus``."""
    import duckdb

    import __ray_entry__ as entry

    frag_glob = os.path.join(corpus, "frag-*.parquet")
    saved = entry._seq_glob_sql, entry._seq_v2_glob_sql
    # the oracle builder resolves its corpus through these two helpers, which
    # would otherwise materialise the sf0.01 fixture corpora
    entry._seq_glob_sql = entry._seq_v2_glob_sql = lambda _sf: frag_glob
    try:
        sql = entry.oracle_sql()["prepare_training_sequences"]
    finally:
        entry._seq_glob_sql, entry._seq_v2_glob_sql = saved
    con = duckdb.connect()
    try:
        return canonical_plan(con.execute(sql).fetch_arrow_table())
    finally:
        con.close()
