"""seq_length_outliers and seq_ntok_percentiles: rank-rule parity and
edge-case coverage.

The exactness claims are that ``grouped_kth`` at ``_disc_rank`` reproduces
DuckDB ``quantile_disc``, and that the values at ``_pct_ranks`` through
``_pct_value`` reproduce DuckDB ``round(percentile_cont(q), 6)`` —
Hypothesis drives random value lists through both. A planted corpus runs
the per-source quantile queries against their ``oracle_sql()`` entries on
the multi-round path (a span above 2^16), and planted direct-path corpora
pin NULL handling and the tie/rank boundaries.
"""

import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from product_quality_check_ray.core.rounding import round_half_away
from product_quality_check_ray.pipelines.seq_queries import (
    OUTLIER_Q_HI,
    OUTLIER_Q_LO,
    _disc_rank,
    _pct_ranks,
    _pct_value,
    seq_length_outliers,
    seq_ntok_percentiles,
    seq_source_exact_quantiles,
)
from product_quality_check_ray.state.orderstats import grouped_kth

_counted = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers(1, 5)),
    min_size=1,
    max_size=30,
)


def _expand(vals) -> np.ndarray:
    return np.repeat(
        np.array([v for v, _ in vals], dtype=np.int64),
        np.array([c for _, c in vals], dtype=np.int64),
    )


@given(vals=_counted, qs=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_disc_quantiles_match_duckdb(ray_session, vals, qs):
    x = _expand(vals)
    ds = rd.from_arrow(pa.table({"x": x}))
    n, stats = grouped_kth(ds, None, "x", lambda n: [_disc_rank(n, q) for q in qs])[None]
    assert n == len(x)
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"x": x}))
    for q, mine in zip(qs, stats):
        want = con.sql(f"SELECT quantile_disc(x, {q!r}) FROM t").fetchone()[0]
        assert mine.value == want, (q, mine, want, x.tolist())


@given(vals=_counted, qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_percentile_ranks_match_duckdb(ray_session, vals, qs):
    x = _expand(vals)
    ds = rd.from_arrow(pa.table({"x": x}))
    n, stats = grouped_kth(
        ds, None, "x", lambda n: [r for q in qs for r in _pct_ranks(n, q)]
    )[None]
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"x": x}))
    for i, q in enumerate(qs):
        mine = round_half_away(
            _pct_value(n, q, stats[2 * i].value, stats[2 * i + 1].value), 6
        )
        assert mine == round_half_away(np.percentile(x, 100 * q, method="linear"), 6)
        want = con.sql(
            f"SELECT round(percentile_cont({q!r}) WITHIN GROUP (ORDER BY x), 6) FROM t"
        ).fetchone()[0]
        assert mine == want, (q, mine, want, x.tolist())


def _planted_corpus(d) -> str:
    """Three fragments: a source whose n_tok is all NULL, a one-row source,
    a NULL source, negative n_tok, and a source spanning values near 1 and
    near 10^6 (> 2^16: more than one refinement round)."""
    rng = np.random.default_rng(9)
    wide = np.concatenate([rng.integers(1, 200, 150), rng.integers(999_000, 1_000_200, 150)])
    rows = (
        [("w%03d" % i, "wide", int(v)) for i, v in enumerate(wide)]
        + [("wneg", "wide", -7), ("wnull", "wide", None)]
        + [("dead1", "dead", None), ("dead2", "dead", None)]
        + [("solo", "one", 42)]
        + [("n%02d" % i, None, int(v)) for i, v in enumerate(rng.integers(-30, 90, 60))]
        + [("neg%d" % i, "neg", -i) for i in range(1, 9)]
    )
    d.mkdir()
    for f in range(3):
        part = rows[f::3]
        pq.write_table(
            pa.table(
                {
                    "doc_id": [r[0] for r in part],
                    "tokens": pa.array([[1, 2]] * len(part), type=pa.list_(pa.int32())),
                    "n_tok": pa.array([r[2] for r in part], type=pa.int32()),
                    "source": pa.array([r[1] for r in part], type=pa.string()),
                }
            ),
            d / f"frag-{f:03d}.parquet",
        )
    return str(d)


def _rows(df: pd.DataFrame) -> list:
    cols = sorted(df.columns)
    out = [
        tuple(None if pd.isna(v) else (v if isinstance(v, str) else float(v)) for v in r)
        for r in df[cols].itertuples(index=False)
    ]
    return sorted(out, key=lambda r: tuple((v is None, v if v is not None else 0) for v in r))


def test_planted_corpus_matches_oracles(tmp_path, ray_session):
    import __ray_entry__ as e

    d = _planted_corpus(tmp_path / "corpus")
    con = duckdb.connect()

    def oracle(name):
        sql = re.sub(
            r"read_parquet\('[^']*'\)", f"read_parquet('{d}/frag-*.parquet')",
            e.oracle_sql()[name],
        )
        return con.sql(sql).df()

    pct = seq_ntok_percentiles(d).to_pandas()
    assert pct["source"].tolist() == ["dead", "neg", "one", "wide", None]
    assert pct.loc[0, ["p50", "p90", "p99"]].isna().all()
    want = oracle("seq_ntok_percentiles")
    assert _rows(pct) == _rows(want)

    out = seq_length_outliers(d).to_pandas()
    assert set(out["side"]) == {"low", "high"} and "dead" not in set(out["source"])
    want = oracle("seq_length_outliers")
    assert len(out) == len(want) and _rows(out) == _rows(want)

    q = seq_source_exact_quantiles(d).to_pandas()
    assert set(q["source"].dropna()) == {"wide", "one", "neg"} and q["source"].isna().any()
    want = oracle("seq_source_exact_quantiles")
    assert _rows(q) == _rows(want)


def test_null_groups_and_ties(tmp_path, ray_session):
    # source 'a': 200 rows of n_tok=7 plus single 1 and 999 tails — ties put
    # both quantiles on 7, so exactly the two tails flag. source NULL is its
    # own group; NULL n_tok rows never flag even at extreme ids.
    n_a = 200
    rows = (
        [("a%04d" % i, "a", 7) for i in range(n_a)]
        + [("alow", "a", 1), ("ahigh", "a", 999)]
        + [("n%02d" % i, None, 50) for i in range(40)]
        + [("nlow", None, 2), ("nnull", None, None), ("anull", "a", None)]
    )
    t = pa.table(
        {
            "doc_id": [r[0] for r in rows],
            "tokens": pa.array([[1, 2]] * len(rows), type=pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
            "source": [r[1] for r in rows],
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(t, d / "frag-000.parquet")
    out = seq_length_outliers(str(d)).to_pandas()
    got = {(r.doc_id, r.side, r.lo, r.hi) for r in out.itertuples()}
    # 'a' group: 202 values sorted [1, 7×200, 999]; rank_lo=ceil(.005*202)=2 → 7,
    # rank_hi=ceil(.995*202)=201 → 7 — so band is [7,7] and both tails flag.
    # NULL group: 41 values [2, 50×40]; rank_lo=1 → 2 → nothing below, and
    # rank_hi=41 → 50 → nothing above: no NULL-source rows flag.
    assert got == {("alow", "low", 7, 7), ("ahigh", "high", 7, 7)}


def test_all_null_ntok_source_never_flags(tmp_path, ray_session):
    t = pa.table(
        {
            "doc_id": ["x1", "x2", "y1", "y2"],
            "tokens": pa.array([[1]] * 4, type=pa.list_(pa.int32())),
            "n_tok": pa.array([None, None, 5, 6], type=pa.int32()),
            "source": ["deadsrc", "deadsrc", "live", "live"],
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(t, d / "frag-000.parquet")
    out = seq_length_outliers(str(d)).to_pandas()
    assert len(out) == 0


def test_default_band_is_the_documented_tails():
    assert (OUTLIER_Q_LO, OUTLIER_Q_HI) == (0.005, 0.995)


def test_blocks_that_flag_nothing_keep_the_output_types(tmp_path, ray_session):
    # eight fragments of n_tok=7; only the last holds the two tails, so
    # the band is [7, 7] and seven of the eight blocks flag nothing
    d = tmp_path / "corpus"
    d.mkdir()
    for f in range(8):
        rows = [("f%d_%02d" % (f, i), "s", 7) for i in range(25)]
        if f == 7:
            rows += [("tail_lo", "s", 1), ("tail_hi", "s", 999)]
        pq.write_table(
            pa.table(
                {
                    "doc_id": [r[0] for r in rows],
                    "tokens": pa.array([[1]] * len(rows), type=pa.list_(pa.int32())),
                    "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
                    "source": [r[1] for r in rows],
                }
            ),
            d / f"frag-{f:03d}.parquet",
        )
    ds = seq_length_outliers(str(d)).materialize()
    flagged = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert ds.num_blocks() >= 8 and len(flagged) == 1
    schema = ds.schema().base_schema
    assert not [f.name for f in schema if pa.types.is_null(f.type)], schema
    assert schema.types == [pa.string(), pa.string()] + [pa.int64()] * 3 + [pa.string()]
    out = ds.to_pandas()
    assert sorted(zip(out["doc_id"], out["side"])) == [("tail_hi", "high"), ("tail_lo", "low")]
