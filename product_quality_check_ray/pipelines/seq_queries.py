"""SQL-matchable query views over the sequences validation engine.

Each function runs the engine's vectorized check kernels
(``checks/row_checks.py``) as streaming Ray Data pipelines over the
deterministic synthetic sequences corpus (``datagen.ensure_sequences``) and
returns a result a DuckDB oracle can reproduce exactly — the driver's
correctness gate. The full flagship pipeline (sketches, lineage, drift,
violation materialization) lives in ``pipelines/validate.py``; these views
exercise the same predicates in oracle-comparable form.

Scale notes: every aggregate here uses a per-batch combiner before the
groupby, and per-row outputs carry no token payloads (only doc_id/n_tok/
source + flags), so nothing here ships token arrays through a shuffle.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Max, Min, Sum

from ..core.batches import arrow_out as _aout
from ..core.collect import collect_table as _collect
from ..core.rounding import round_half_away as _rha
from ..checks.row_checks import ROW_CHECK_NAMES, conform_schema, row_check_matrix
from ..core.schema import HIST_BIN_WIDTH
from ..datagen import ensure_sequences, sequences_glob
from ..sources.dimensions import build_check_ctx


def _seq_ds(sf_dir: str, columns=None) -> rd.Dataset:
    from ..datagen import resolve_sequences

    return rd.read_parquet(resolve_sequences(sf_dir), columns=columns)



class _FlagStage:
    """Stateless check-kernel stage; ctx built once per actor (analog A1)."""

    def __init__(self):
        self.ctx = build_check_ctx()

    def flags(self, batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        t = conform_schema(batch)
        return t, row_check_matrix(t, self.ctx)


class RowViolationsStage(_FlagStage):
    def __call__(self, batch: pa.Table) -> pa.Table:
        t, mat = self.flags(batch)
        bad = mat.any(axis=1)
        sel = t.filter(pa.array(bad))
        m = mat[bad]
        cols = {
            "doc_id": sel.column("doc_id"),
            "n_tok": sel.column("n_tok"),
            "source": sel.column("source"),
        }
        for j, name in enumerate(ROW_CHECK_NAMES):
            cols[name] = pa.array(m[:, j])
        return pa.table(cols)


def seq_row_violations(sf_dir: str) -> rd.Dataset:
    """All violating rows with one boolean column per fused check."""
    return _seq_ds(sf_dir).map_batches(
        _stage_task(RowViolationsStage), batch_format="pyarrow"
    )


class CheckCountsStage(_FlagStage):
    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        t, mat = self.flags(batch)
        src = t.column("source").to_pandas()
        df = pd.DataFrame(mat.astype(np.int64), columns=list(ROW_CHECK_NAMES))
        df["rows"] = np.int64(1)
        df["viol_rows"] = mat.any(axis=1).astype(np.int64)
        df["source"] = src.to_numpy()
        out = df.groupby("source", as_index=False, dropna=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def seq_check_counts(sf_dir: str) -> pa.Table:
    """Per-source violation counts for every fused row check."""
    partial = _seq_ds(sf_dir).map_batches(
        _stage_task(CheckCountsStage), batch_format="pyarrow"
    ).materialize()  # tiny combiner output; see core/batches.py note
    # final rollup on the driver: O(tasks × sources) partial rows — a Ray
    # hash-aggregate here only pays its fixed stall (see the sampled probe)
    cols = list(ROW_CHECK_NAMES) + ["rows", "viol_rows"]
    df = partial.to_pandas()
    if len(df) == 0:
        # zero-row corpus: the partials dataset is column-less and the
        # groupby below would KeyError — return the typed empty table
        # (same guard as the sampled probe)
        return pa.schema(
            [("source", pa.string())] + [(c, pa.int64()) for c in cols]
        ).empty_table()
    g = df.groupby("source", dropna=False, as_index=False)[cols].sum()
    g = g.sort_values("source", na_position="last", kind="mergesort").reset_index(
        drop=True
    )
    return pa.table(
        {"source": pa.array(g["source"].astype(object).where(g["source"].notna(), None), type=pa.string())}
        | {c: pa.array(g[c].astype(np.int64), type=pa.int64()) for c in cols}
    )


SAMPLE_HEX_CUTOFF = "28"  # 40/256 = 15.625% expected sample rate


class SampledCheckCountsStage(_FlagStage):
    """``CheckCountsStage`` over a deterministic CONTENT-KEYED row sample:
    keep rows whose md5 of the canonical row string (the corpus-manifest
    formula: ``coalesce(doc_id,'~N~') || '|' || tokens-canon``) starts below
    ``SAMPLE_HEX_CUTOFF``. Content-keyed sampling is re-shard- and
    engine-independent (unlike ``random_sample`` or row-position hashing),
    so the probe returns the SAME rows on any cluster size and the SQL
    oracle replays it exactly."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .tokens import _md5_hexes, _tokens_canon

        t = conform_schema(batch)
        canon = pc.binary_join_element_wise(
            pc.fill_null(t.column("doc_id").combine_chunks(), "~N~"),
            _tokens_canon(t.column("tokens")),
            "|",
        )
        keep = pa.array([h[:2] < SAMPLE_HEX_CUTOFF for h in _md5_hexes(canon)])
        sel = t.filter(keep)
        if sel.num_rows == 0:
            return _check_counts_schema().empty_table()
        mat = row_check_matrix(sel, self.ctx)
        df = pd.DataFrame(mat.astype(np.int64), columns=list(ROW_CHECK_NAMES))
        df["rows"] = np.int64(1)
        df["viol_rows"] = mat.any(axis=1).astype(np.int64)
        df["source"] = sel.column("source").to_pandas().to_numpy()
        out = df.groupby("source", as_index=False, dropna=False).sum()
        out = out[[*ROW_CHECK_NAMES, "rows", "viol_rows", "source"]]
        return (
            pa.Table.from_pandas(out, preserve_index=False)
            .replace_schema_metadata(None)
            .cast(_check_counts_schema())
        )


def _check_counts_schema() -> pa.Schema:
    return pa.schema(
        [(n, pa.int64()) for n in ROW_CHECK_NAMES]
        + [("rows", pa.int64()), ("viol_rows", pa.int64()), ("source", pa.string())]
    )


_TASK_STAGE_CACHE: dict = {}


def _stage_task(cls):
    """Run a tiny-state stage class as TASKS with a per-worker instance
    cache: Ray reuses worker processes, so the check ctx builds once per
    worker — and tasks use all cores immediately, where a small actor pool
    ramps too slowly.

    CONTRACT: ``cls`` must be no-arg and stateless-per-run (ctx built from
    module constants only). The cache is keyed by class name and never
    invalidated on workers, so a stage carrying per-run config would
    silently reuse a stale instance across queries in long-lived worker
    processes — key the cache by (cls, config) before adding one."""

    def run(batch: pa.Table) -> pa.Table:
        st = _TASK_STAGE_CACHE.get(cls.__name__)
        if st is None:
            st = _TASK_STAGE_CACHE[cls.__name__] = cls()
        return st(batch)

    return run


def seq_sampled_check_counts(sf_dir: str) -> pa.Table:
    """Sampled corpus health probe: ``seq_check_counts`` over the
    deterministic ~15.6% content-keyed sample — at 100 TB the cheap
    pre-commit answer to "roughly how broken is this corpus, per source"
    before paying for the full validation pass (the row-level complement of
    the footer prescreen, which can only PROVE cleanliness, not estimate
    violation rates). One streaming pass; the md5 sampling key is computed
    from zero-copy value-buffer slices and non-sampled rows never reach the
    check kernels."""
    # the md5 sampling key is per-row CPU work; run the stage as TASKS with
    # a per-worker stage cache (``_stage_task``) — an actor pool here
    # ramped too slowly to use the cores and the original
    # (1, 4) cap serialized the scan (measured 7.4-8 s at sf0.1 / 32 CPUs
    # vs 2.6 s as tasks; state is one tiny check ctx, free to rebuild)
    partial = _seq_ds(sf_dir).map_batches(
        _stage_task(SampledCheckCountsStage), batch_format="pyarrow"
    ).materialize()  # tiny combiner output; see core/batches.py note
    # final rollup on the DRIVER: the partials are O(tasks × sources) rows
    # (~1.5k at sf0.1), so a Ray groupby here only pays the hash-aggregate
    # operator's fixed stall (~3 s measured) for work pandas does in
    # microseconds. Null sources (none in the fixture, possible in user
    # corpora) keep their group and sort last, matching DuckDB ASC order.
    cols = list(ROW_CHECK_NAMES) + ["rows", "viol_rows"]
    df = partial.to_pandas()
    if len(df) == 0:
        # nothing sampled (tiny corpus): typed empty, matching the oracle
        return pa.schema(
            [("source", pa.string())]
            + [(n, pa.int64()) for n in cols]
        ).empty_table()
    g = df.groupby("source", dropna=False, as_index=False)[cols].sum()
    g = g.sort_values("source", na_position="last", kind="mergesort").reset_index(
        drop=True
    )
    return pa.table(
        {"source": pa.array(g["source"].astype(object).where(g["source"].notna(), None), type=pa.string())}
        | {c: pa.array(g[c].astype(np.int64), type=pa.int64()) for c in cols}
    )


def seq_dup_doc_ids(sf_dir: str) -> pa.Table:
    """doc_ids appearing more than once (projected read, combiner, groupby).

    The shuffle ships only (doc_id, n) partial-count pairs — never tokens
    (SURVEY.md §7.4 skew note).
    """
    ds = _seq_ds(sf_dir, columns=["doc_id"])

    from ..core.batches import doc_id_partial_counts as partial_counts

    agg = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("doc_id")
        .aggregate(Sum("n", alias_name="n"))
    )
    dup = agg.map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), 1)), batch_format="pyarrow"
    )
    return _collect(dup.sort("doc_id"))


def seq_source_stats(sf_dir: str) -> pa.Table:
    """Per-source row count and n_tok sum/min/max/mean (combiner + groupby)."""
    ds = _seq_ds(sf_dir, columns=["source", "n_tok"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", as_index=False, dropna=False).agg(
            rows=("n_tok", "size"),
            n_vals=("n_tok", "count"),  # non-null count: SQL-NULL parity below
            sum_n_tok=("n_tok", "sum"),
            min_n_tok=("n_tok", "min"),
            max_n_tok=("n_tok", "max"),
        )
        g["rows"] = g["rows"].astype(np.int64)
        g["n_vals"] = g["n_vals"].astype(np.int64)
        g["sum_n_tok"] = g["sum_n_tok"].astype(np.float64)
        return g

    df = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .to_pandas()
    )
    if len(df) == 0:
        # zero-row corpus: the partials are column-less (the
        # seq_check_counts guard) — typed empty table
        return pa.schema(
            [("source", pa.string()), ("rows", pa.int64()),
             ("sum_n_tok", pa.int64()), ("min_n_tok", pa.int32()),
             ("max_n_tok", pa.int32()), ("mean_n_tok", pa.float64())]
        ).empty_table()
    # driver rollup over O(tasks × sources) partial rows (see seq_check_counts)
    g = df.groupby("source", dropna=False, as_index=False).agg(
        rows=("rows", "sum"),
        n_vals=("n_vals", "sum"),
        sum_n_tok=("sum_n_tok", "sum"),
        min_n_tok=("min_n_tok", "min"),
        max_n_tok=("max_n_tok", "max"),
    )
    g = g.sort_values("source", na_position="last", kind="mergesort").reset_index(
        drop=True
    )
    # a source whose n_tok values are ALL null reports NULL aggregates (the
    # SQL sum/min/max-skip-nulls convention) instead of 0 / a NaN int cast
    has = g["n_vals"].to_numpy() > 0

    def _nullable(col, np_type, pa_type):
        vals = g[col].to_numpy(dtype=np.float64)
        return pa.array(
            [np_type(v) if h else None for v, h in zip(vals, has)], type=pa_type
        )

    mean = np.where(
        has, _rha(g["sum_n_tok"].to_numpy(dtype=np.float64) / g["rows"], 6), np.nan
    )
    return pa.table(
        {
            "source": pa.array(g["source"].astype(object).where(g["source"].notna(), None), type=pa.string()),
            "rows": pa.array(g["rows"].astype(np.int64), type=pa.int64()),
            "sum_n_tok": _nullable("sum_n_tok", int, pa.int64()),
            "min_n_tok": _nullable("min_n_tok", int, pa.int32()),
            "max_n_tok": _nullable("max_n_tok", int, pa.int32()),
            "mean_n_tok": pa.array(
                [float(m) if h else None for m, h in zip(mean, has)],
                type=pa.float64(),
            ),
        }
    )


def seq_ntok_histogram(sf_dir: str) -> pa.Table:
    """Global n_tok histogram at the engine's drift-bin width (combiner +
    low-cardinality groupby; the drift check's observable)."""
    ds = _seq_ds(sf_dir, columns=["n_tok"])
    w = HIST_BIN_WIDTH

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["n_tok"]
        valid = v.notna().to_numpy()
        # NULL n_tok rows keep a NULL bin (the oracle's floor(NULL) group);
        # the old to_numpy(dtype=int64) over a NaN column emitted
        # platform-dependent garbage bins. Vectorized: bin counts over the
        # valid rows, one NULL-bin row for the rest.
        bv = (v.to_numpy(dtype=np.float64)[valid] // w).astype(np.int64)
        ub, uc = np.unique(bv, return_counts=True)
        bins = pd.array(ub, dtype="Int64")
        counts = uc.astype(np.int64)
        n_null = int((~valid).sum())
        g = pd.DataFrame({"bin": bins, "n": counts})
        if n_null:
            g = pd.concat(
                [g, pd.DataFrame({"bin": pd.array([None], dtype="Int64"),
                                  "n": [np.int64(n_null)]})],
                ignore_index=True,
            )
        g["n"] = g["n"].astype(np.int64)
        return g

    df = ds.map_batches(_aout(partial), batch_format="pandas").to_pandas()
    if len(df) == 0:
        # zero-row corpus (the seq_check_counts guard)
        return pa.schema([("bin", pa.int64()), ("n", pa.int64())]).empty_table()
    # driver rollup over O(tasks × bins) partial rows (see seq_check_counts)
    g = (
        df.groupby("bin", as_index=False, dropna=False)["n"].sum()
        .sort_values("bin", na_position="last", kind="mergesort")
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "bin": pa.array(
                [None if pd.isna(x) else int(x) for x in g["bin"]], type=pa.int64()
            ),
            "n": pa.array(g["n"].astype(np.int64), type=pa.int64()),
        }
    )


def seq_drift_verdicts(sf_dir: str) -> pa.Table:
    """Per-source drift verdict (chi² + KS vs the reference histogram
    dimension). Histograms are merged from per-batch partials keyed on
    (source, bin) — no token rows move; the verdict math runs on the tiny
    merged table (rows-only driver check: the statistics are not
    SQL-expressible)."""
    from ..checks.drift import drift_verdicts
    from ..core.schema import HIST_NUM_BINS
    from ..sources.dimensions import reference_histograms_dim

    ds = _seq_ds(sf_dir, columns=["source", "n_tok"])
    w = HIST_BIN_WIDTH

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nt = df["n_tok"].to_numpy(dtype=np.int64)
        valid = nt >= 0  # same exclusion as the flagship stage: negative
        # n_tok would otherwise index the overflow bin via wraparound
        b = np.minimum(nt[valid] // w, HIST_NUM_BINS).astype(np.int64)
        g = pd.DataFrame(
            {"source": df["source"].to_numpy()[valid], "bin": b, "n": np.int64(1)}
        ).groupby(["source", "bin"], as_index=False).sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    hists: dict[str, np.ndarray] = {}
    # merge the O(tasks × sources × bins) partials on the driver — a Ray
    # (source, bin) groupby here only pays its fixed stall
    for bt in ds.map_batches(_aout(partial), batch_format="pandas").iter_batches(
        batch_format="pyarrow"
    ):
        for src, b, n in zip(
            bt.column("source").to_pylist(),
            bt.column("bin").to_pylist(),
            bt.column("n").to_pylist(),
        ):
            hists.setdefault(src, np.zeros(HIST_NUM_BINS + 1, dtype=np.int64))[
                int(b)
            ] += int(n)
    verdicts = drift_verdicts(hists, reference_histograms_dim())
    rows = [
        {
            "source": s,
            "rows": v["rows"],
            "chi2": v["chi2"],
            "chi2_crit": v["chi2_crit"],
            "ks": v["ks"],
            "ks_thresh": v["ks_thresh"],
            "drifted": v["drifted"],
        }
        for s, v in sorted(verdicts.items())
    ]
    return pa.Table.from_pylist(rows)


def _sketch_partial(t: pa.Table) -> pa.Table:
    """Per-batch per-source sketch partials: t-digest over valid n_tok
    (null/negative excluded) + HLL over non-null doc_ids; null sources fold
    to the ``\\x00null`` sentinel group. One source encode, one n_tok
    value count and one doc_id hash per batch (validate's
    ``SourcePartials`` steps)."""
    from ..state.sketches import HyperLogLog, TDigest, add_strings_grouped
    from .validate import ntok_keys, source_codes

    index: dict[str, int] = {}
    code = source_codes(t.column("source"), index)
    n_tok = np.asarray(
        pc.fill_null(t.column("n_tok"), -1).to_numpy(zero_copy_only=False),
        dtype=np.int64,
    )
    valid = n_tok >= 0
    keys, counts = np.unique(ntok_keys(code[valid], n_tok[valid]), return_counts=True)
    bounds = np.searchsorted(keys >> 32, np.arange(len(index) + 1))
    values = (keys & 0xFFFFFFFF).astype(np.float64)
    rows = np.bincount(code, minlength=len(index))
    hll = np.zeros((len(index), HyperLogLog().m), dtype=np.uint8)
    doc_ids = t.column("doc_id")
    if doc_ids.null_count < len(doc_ids):
        has_id = np.asarray(pc.is_valid(doc_ids))
        add_strings_grouped(hll, code[has_id], doc_ids.drop_null())
    out = []
    for s, c in sorted(index.items()):
        lo, hi = bounds[c], bounds[c + 1]
        td = TDigest().add(values[lo:hi], counts[lo:hi].astype(np.float64))
        out.append(
            {
                "source": s,
                "n": int(rows[c]),
                "td": td.to_bytes(),
                "hll": HyperLogLog.from_registers(hll[c]).to_bytes(),
            }
        )
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("source", pa.string()), ("n", pa.int64()), ("td", pa.binary()), ("hll", pa.binary())]
        ),
    )


def _merge_sketch_partials(partials: list[dict]) -> dict[str, dict]:
    """Deterministic-order merge of per-batch sketch partials (SURVEY §7.4:
    t-digest merges are order-sensitive, so partials sort first)."""
    from ..state.sketches import HyperLogLog as _H, TDigest as _T

    merged: dict[str, dict] = {}
    for r in sorted(partials, key=lambda r: (r["source"], r["n"], r["td"])):
        agg = merged.setdefault(r["source"], {"n": 0, "td": _T(), "hll": _H()})
        agg["n"] += r["n"]
        agg["td"].merge(_T.from_bytes(r["td"]))
        agg["hll"].merge(_H.from_bytes(r["hll"]))
    return merged


def seq_sketch_report(sf_dir: str) -> pa.Table:
    """Per-source sketch stage as a driver query: t-digest quantiles of
    n_tok + HLL distinct-doc estimates, from per-batch partial sketches
    merged in deterministic order (rows-only check: approximate by design;
    accuracy bounds are asserted in tests/test_sketches.py and graded
    against exact DuckDB values by ``seq_sketch_accuracy``)."""
    ds = _seq_ds(sf_dir, columns=["source", "n_tok", "doc_id"])
    merged = _merge_sketch_partials(
        ds.map_batches(_sketch_partial, batch_format="pyarrow").take_all()
    )
    rows = [
        {
            "source": s,
            "rows": a["n"],
            "p50_n_tok": round(a["td"].quantile(0.5), 2),
            "p90_n_tok": round(a["td"].quantile(0.9), 2),
            "p99_n_tok": round(a["td"].quantile(0.99), 2),
            "distinct_doc_est": int(a["hll"].estimate()),
        }
        for s, a in sorted(merged.items())
        if not s.startswith("\x00")
    ]
    return pa.Table.from_pylist(rows)


SKETCH_HLL_BOUND = 0.05   # |HLL est − exact| ≤ 5% of exact (≈3σ at p=12)
SKETCH_TD_RANK_EPS = 0.05  # t-digest quantile within a ±5% rank window
PERCENTILES: tuple[tuple[str, float], ...] = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


@ray.remote
def _distinct_range(*parts):
    """(source hashes, distinct-key counts) of one hash range's (k, s)
    partials."""
    ks = [p[0] for p in parts if len(p[0])]
    if not ks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    k = np.concatenate(ks)
    s = np.concatenate([p[1] for p in parts if len(p[0])])
    u = np.unique(np.stack([k, s], axis=1), axis=0)
    sv, sc = np.unique(u[:, 1], return_counts=True)
    return sv, sc.astype(np.int64)


def _distinct_by_source(ds: rd.Dataset) -> dict[int, int]:
    """Exact distinct-key count per source over a (k:int64, s:int64)
    dataset, via the hash-range exchange (``state/pairreduce`` keyed map):
    each range holds disjoint key hashes, unique (k, s) pairs are counted
    per range and summed — the driver sees O(ranges × sources) integers,
    never the keys. Returns {source_hash: distinct_count}. Exact up to
    64-bit doc_id-hash collisions (~n²/2⁶⁴ — feeds a 5%-slack bound, never
    an equality check)."""
    from ..core import exchange
    from ..state.pairreduce import map_keys

    groups = exchange.block_groups(ds)
    if not groups:
        return {}
    out: dict[int, int] = {}
    for sv, sc in ray.get(
        exchange.run(
            map_keys, groups, _distinct_range, exchange.range_count(),
            map_args=("k", "s", None),
        )
    ):
        for s, c in zip(sv.tolist(), sc.tolist()):
            out[s] = out.get(s, 0) + c
    return out


def seq_sketch_accuracy(sf_dir: str) -> pa.Table:
    """Oracle-graded accuracy contract for the sketch stage (VERDICT r3
    item 3): per source, the HLL distinct-doc estimate must land within
    ±5% of the EXACT distinct count, and each t-digest quantile estimate
    must lie between the exact quantile values at ranks q∓0.05 — both
    documented bounds, well outside the sketches' design error (HLL σ≈1.6%
    at p=12; t-digest rank error ≪1% at δ=100). The engine computes the
    exact references itself, distributed:

    - exact distinct per source via the hash-range reduce
      (``_distinct_by_source`` — unique (id-hash, source-hash) pairs per
      range, driver sees per-range counts);
    - the exact n_tok values at the window's ranks per source (n_tok ≥ 0)
      via ``state/orderstats.grouped_kth`` radix select;

    and emits booleans the ORACLE asserts structurally (TRUE per source,
    the ``doc_simhash_recall`` grading pattern): a sketch regression
    surfaces as FALSE → driver hash mismatch. Output: (source, rows,
    hll_ok, p50_ok, p90_ok, p99_ok)."""
    from ..core.hashing import hash_strings
    from ..state.orderstats import grouped_kth

    ds = _seq_ds(sf_dir, columns=["source", "n_tok", "doc_id"])
    merged = _merge_sketch_partials(
        ds.map_batches(_sketch_partial, batch_format="pyarrow").take_all()
    )

    def id_pairs(t: pa.Table) -> pa.Table:
        src = pc.fill_null(t.column("source").combine_chunks(), "\x00null")
        ids = t.column("doc_id").combine_chunks()
        keep = pc.is_valid(ids)
        sel = pa.table({"i": ids, "s": src}).filter(keep)
        if sel.num_rows == 0:
            return pa.table(
                {"k": pa.array([], type=pa.int64()), "s": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {
                "k": pa.array(hash_strings(sel.column("i")).view(np.int64)),
                "s": pa.array(hash_strings(sel.column("s")).view(np.int64)),
            }
        )

    pair_ds = (
        _seq_ds(sf_dir, columns=["source", "doc_id"])
        .map_batches(id_pairs, batch_format="pyarrow")
        .materialize()
    )
    distinct_by_hash = _distinct_by_source(pair_ds)

    def window_ranks(n: int) -> list[int]:
        # the values at 0-based ranks floor((q−ε)(n−1)) and ceil((q+ε)(n−1)),
        # clamped to the column, as 1-based ranks
        return [
            min(max(r, 0), n - 1) + 1
            for _, q in PERCENTILES
            for r in (
                math.floor((q - SKETCH_TD_RANK_EPS) * (n - 1)),
                math.ceil((q + SKETCH_TD_RANK_EPS) * (n - 1)),
            )
        ]

    exact = grouped_kth(
        _seq_ds(sf_dir, columns=["source", "n_tok"]).filter(expr="n_tok >= 0"),
        "source", "n_tok", window_ranks,
    )

    rows = []
    # null source LAST (the na_position='last' convention of the sibling
    # check-view queries and the oracle's ASC NULLS LAST ordering — the
    # \x00 sentinel would otherwise sort FIRST)
    order = sorted(s for s in merged if s != "\x00null")
    if "\x00null" in merged:
        order.append("\x00null")
    for s in order:
        a = merged[s]
        sh = int(hash_strings([s]).view(np.int64)[0])
        exact_d = distinct_by_hash.get(sh, 0)
        est_d = a["hll"].estimate()
        hll_ok = (
            abs(est_d - exact_d) <= SKETCH_HLL_BOUND * exact_d if exact_d else est_d < 1.0
        )
        n, window = exact.get(None if s == "\x00null" else s, (0, []))
        q_ok = {}
        for i, (name, q) in enumerate(PERCENTILES):
            if not n:
                q_ok[f"{name}_ok"] = True
                continue
            lo, hi = window[2 * i].value, window[2 * i + 1].value
            est = a["td"].quantile(q)
            q_ok[f"{name}_ok"] = (lo - 1e-9) <= est <= (hi + 1e-9)
        rows.append(
            {
                "source": None if s == "\x00null" else s,
                "rows": a["n"],
                "hll_ok": bool(hll_ok),
                **{k: bool(v) for k, v in q_ok.items()},
            }
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("source", pa.string()),
                ("rows", pa.int64()),
                ("hll_ok", pa.bool_()),
                *((f"{name}_ok", pa.bool_()) for name, _ in PERCENTILES),
            ]
        ),
    )


def seq_repaired(sf_dir: str) -> rd.Dataset:
    """Deterministic row REPAIR operator (reference analog M19/M13: stateless
    repair UDFs — address stitch/swap, field-merge with fallback): rows with
    a recomputable defect are fixed in place and flagged.

      n_tok        → recomputed from len(tokens) when inconsistent/null
      source       → trimmed/lowercased (canonical form)

    Emits (doc_id, n_tok_fixed, source_fixed, was_repaired); input columns
    are otherwise preserved byte-identical. Unrepairable defects (null
    tokens/doc_id, OOV values) stay with the violation path — repair never
    hides a violation it cannot actually fix.
    """
    ds = _seq_ds(sf_dir)

    def fix(t: pa.Table) -> pa.Table:
        tokens = t.column("tokens")
        n_tok = t.column("n_tok")
        true_len = pc.cast(pc.list_value_length(tokens), pa.int32())
        n_fixed = pc.coalesce(true_len, n_tok)
        src = t.column("source")
        src_fixed = pc.utf8_trim_whitespace(pc.utf8_lower(pc.fill_null(src, "")))
        src_fixed = pc.if_else(pc.equal(src_fixed, ""), pa.scalar(None, pa.string()), src_fixed)
        repaired = pc.or_kleene(
            pc.fill_null(pc.not_equal(pc.coalesce(n_tok, pa.scalar(-1, pa.int32())), pc.coalesce(n_fixed, pa.scalar(-1, pa.int32()))), False),
            pc.fill_null(pc.not_equal(pc.coalesce(src, pa.scalar("", pa.string())), pc.coalesce(src_fixed, pa.scalar("", pa.string()))), False),
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tok_fixed": n_fixed,
                "source_fixed": src_fixed,
                "was_repaired": repaired,
            }
        )

    return ds.map_batches(fix, batch_format="pyarrow")


def seq_token_topk(sf_dir: str, k: int = 100) -> pa.Table:
    """Top-k most frequent TOKEN values across the whole corpus.

    Token frequency is a FIXED-WIDTH dense aggregation (one int64[VOCAB]
    vector, 256 KB), so the scalable shape is a raw-task tree reduce —
    one bincount per fragment, pairwise-group summed until one vector —
    not a row shuffle. (A (token, n)-row groupby was measured 30×+ slower:
    tiny read blocks made every combiner emit ~VOCAB rows, and Ray's hash
    aggregate crawls at ~80k rows/s.) At 10^12 rows the tree moves
    #fragments × 256 KB through the object store, log-depth, driver holds
    only ObjectRefs.
    """
    import ray

    from ..core.schema import VOCAB
    from ..datagen import resolve_sequences

    # resolve_sequences, NOT ensure_sequences: a user directory of
    # frag-*.parquet is read directly, and anything else fails loudly —
    # the fixture generator must never fabricate data for user input
    # (the resolve_sequences contract every other seq op follows)
    files = resolve_sequences(sf_dir)

    @ray.remote
    def count_frag(paths: list[str]) -> np.ndarray:
        import pyarrow.parquet as pq

        total = np.zeros(VOCAB, dtype=np.int64)
        for p in paths:
            arr = pq.read_table(p, columns=["tokens"]).column("tokens").combine_chunks()
            values = arr.values
            if values.null_count:
                values = values.drop_null()
            v = values.to_numpy(zero_copy_only=False)
            v = v[(v >= 0) & (v < VOCAB)]
            total += np.bincount(v, minlength=VOCAB)
        return total

    @ray.remote
    def sum_arrays(*arrs) -> np.ndarray:
        return np.sum(arrs, axis=0)

    refs = [count_frag.remote(files[i : i + 2]) for i in range(0, len(files), 2)]
    while len(refs) > 1:
        refs = [sum_arrays.remote(*refs[i : i + 16]) for i in range(0, len(refs), 16)]
    counts = ray.get(refs[0])
    order = np.lexsort((np.arange(VOCAB), -counts))[:k]
    order = order[counts[order] > 0]
    return pa.table(
        {
            "token": pa.array(order.astype(np.int64)),
            "n": pa.array(counts[order].astype(np.int64)),
        }
    )


def _pct_ranks(n: int, q: float) -> tuple[int, int]:
    """The 1-based ranks around ``h = q·(n−1)`` that linear interpolation
    reads: ``floor(h)+1`` and ``min(floor(h)+2, n)``."""
    f = math.floor(q * (n - 1))
    return f + 1, min(f + 2, n)


def _pct_value(n: int, q: float, a: int, b: int) -> float:
    """``np.percentile(v, 100·q, method="linear")`` from the values ``a``,
    ``b`` at ``_pct_ranks(n, q)``, with numpy's lerp (from ``b`` when the
    weight is ≥ 0.5)."""
    h = q * (n - 1)
    t = h - math.floor(h)
    a, b = float(a), float(b)
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def seq_ntok_percentiles(sf_dir: str) -> pa.Table:
    """EXACT per-source n_tok percentiles (linear interpolation, rounded to
    6 decimals — SQL ``round(percentile_cont(q), 6)``).

    Each percentile reads the two values around ``q·(n−1)``; both come from
    ``state/orderstats.grouped_kth`` radix select, so no source's values
    are ever held in one task. NULL n_tok is excluded; a source whose n_tok
    is all NULL keeps a row of NULL percentiles. Rows are ordered by
    source, the NULL source last.
    """
    from ..state.orderstats import grouped_kth

    def ranks(n: int) -> list[int]:
        return [r for _, q in PERCENTILES for r in _pct_ranks(n, q)]

    got = grouped_kth(_seq_ds(sf_dir, columns=["source", "n_tok"]), "source", "n_tok", ranks)
    order = sorted(got, key=lambda g: (g is None, g or ""))
    cols: dict = {name: [] for name, _ in PERCENTILES}
    for g in order:
        n, st = got[g]
        for i, (name, q) in enumerate(PERCENTILES):
            cols[name].append(
                float(_rha(_pct_value(n, q, st[2 * i].value, st[2 * i + 1].value), 6))
                if n
                else None
            )
    return pa.table(
        {
            "source": pa.array(order, type=pa.string()),
            **{name: pa.array(v, type=pa.float64()) for name, v in cols.items()},
        }
    )


# quantile-band tails for seq_length_outliers (0.5% each side)
OUTLIER_Q_LO = 0.005
OUTLIER_Q_HI = 0.995
# seq_length_outliers' output; explicit, so a block that flags nothing has
# the same column types as one that does
_OUTLIER_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source", pa.string()),
        ("n_tok", pa.int64()),
        ("lo", pa.int64()),
        ("hi", pa.int64()),
        ("side", pa.string()),
    ]
)


def _disc_rank(n: int, q: float) -> int:
    """DuckDB ``quantile_disc``'s 1-based rank: ``max(1, ceil(q·n))``, with
    ``q·n`` in IEEE double on both sides, so no float boundary can
    disagree."""
    return max(1, math.ceil(q * n))


def seq_length_outliers(
    sf_dir: str, q_lo: float = OUTLIER_Q_LO, q_hi: float = OUTLIER_Q_HI
) -> rd.Dataset:
    """Rows whose n_tok falls outside the per-source exact
    [quantile_disc(q_lo), quantile_disc(q_hi)] band — the distribution-tail
    constraint of the validation engine (a fixed [1, MAX] range check
    misses a shard whose lengths are legal but wildly atypical for its
    source).

    Two stages, zero row shuffle: (1) per-source thresholds from
    ``state/orderstats.grouped_kth`` radix select at the ``_disc_rank``
    ranks; (2) one broadcast flag pass that emits only the offending rows.
    Exactness is the point — both thresholds and flags are integer
    comparisons, so the SQL oracle (``quantile_disc`` + join) must agree
    bit-for-bit.

    Output: (doc_id, source, n_tok, lo, hi, side) — side is 'low'/'high';
    every block carries ``_OUTLIER_SCHEMA``, the ones that flag nothing too.
    NULL-n_tok rows are never flagged (the null check owns those).
    """
    from ..state.orderstats import grouped_kth

    got = grouped_kth(
        _seq_ds(sf_dir, columns=["source", "n_tok"]), "source", "n_tok",
        lambda n: [_disc_rank(n, q_lo), _disc_rank(n, q_hi)],
    )
    th = {g: (st[0].value, st[1].value) for g, (n, st) in got.items() if n}

    def flag(df: pd.DataFrame) -> pa.Table:
        nt = df["n_tok"].to_numpy(dtype=np.float64, na_value=np.nan)
        src = df["source"]
        lo = np.full(len(df), np.inf)
        hi = np.full(len(df), -np.inf)
        for key, (tlo, thi) in th.items():
            m = src.isna().to_numpy() if key is None else (src == key).to_numpy()
            lo[m], hi[m] = tlo, thi
        bad = ~np.isnan(nt) & ((nt < lo) | (nt > hi))
        out = df.loc[bad, ["doc_id", "source", "n_tok"]].copy()
        out["n_tok"] = out["n_tok"].astype(np.int64)
        out["lo"] = lo[bad].astype(np.int64)
        out["hi"] = hi[bad].astype(np.int64)
        out["side"] = np.where(nt[bad] < lo[bad], "low", "high")
        return pa.Table.from_pandas(
            out, schema=_OUTLIER_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)

    ds = _seq_ds(sf_dir, columns=["doc_id", "source", "n_tok"])
    return ds.map_batches(flag, batch_format="pandas")


# ---------------------------------------------------------------------------
# Corpus-wide exact n_tok quantiles via distributed radix select
# ---------------------------------------------------------------------------

EXACT_QUANTILES: tuple[tuple[str, int, int], ...] = (
    ("p50", 1, 2),
    ("p90", 9, 10),
    ("p99", 99, 100),
)

_EXACT_Q_SCHEMA = pa.schema(
    [("quantile", pa.string()), ("k", pa.int64()), ("value", pa.int64())]
)


def _exact_ranks(n: int) -> list[int]:
    return [(n * num + den - 1) // den for _, num, den in EXACT_QUANTILES]  # ceil


def seq_ntok_exact_quantiles(sf_dir: str) -> pa.Table:
    """EXACT corpus-wide discrete n_tok quantiles (value at rank
    ceil(q·n), ascending — the lower discrete quantile) via
    ``state/orderstats.grouped_kth`` radix select over one group: exact
    and scale-safe for any integer column (worker-summed histogram
    partials, ≤4 refinement rounds over the full int64 range; n_tok needs
    1). The t-digest (``seq_sketch_report``) is the approximate path. NULL
    n_tok rows are excluded (the null check's finding, not a length
    datum); a corpus with no non-null n_tok returns the typed empty table.
    Reference analog: the summary stats the reference prints per run
    (app.py:1454-1460 progress aggregates); oracle: row_number rank join
    (see __ray_entry__.oracle_sql)."""
    from ..state.orderstats import grouped_kth

    got = grouped_kth(_seq_ds(sf_dir, columns=["n_tok"]), None, "n_tok", _exact_ranks)
    n, st = got.get(None, (0, []))
    if not n:
        return _EXACT_Q_SCHEMA.empty_table()
    return pa.table(
        {
            "quantile": pa.array([name for name, _, _ in EXACT_QUANTILES]),
            "k": pa.array(_exact_ranks(n), type=pa.int64()),
            "value": pa.array([x.value for x in st], type=pa.int64()),
        }
    )


def seq_source_exact_quantiles(sf_dir: str) -> pa.Table:
    """EXACT per-source discrete n_tok quantiles via
    ``state/orderstats.grouped_kth``: every (source, quantile) pair refines
    its own interval, and each refinement round is ONE shared pass over the
    blocks (1 + ≤4 passes regardless of source/quantile count). Same rank
    contract as ``seq_ntok_exact_quantiles`` (value at ceil(q·n)
    ascending, NULL n_tok excluded, a NULL source is its own group);
    sources whose n_tok is all NULL are absent (no rank exists).  Oracle:
    per-source row_number rank join (see __ray_entry__.oracle_sql)."""
    from ..state.orderstats import grouped_kth

    got = grouped_kth(
        _seq_ds(sf_dir, columns=["source", "n_tok"]), "source", "n_tok", _exact_ranks
    )
    rows = [
        (g, name, k, x.value)
        for g, (n, st) in got.items()
        for (name, _, _), k, x in zip(EXACT_QUANTILES, _exact_ranks(n), st)
    ]
    rows.sort(key=lambda r: (r[0] is not None, r[0] or "", r[1]))
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], type=pa.string()),
            "quantile": pa.array([r[1] for r in rows], type=pa.string()),
            "k": pa.array([r[2] for r in rows], type=pa.int64()),
            "value": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )
