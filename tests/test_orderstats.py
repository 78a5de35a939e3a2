"""state/orderstats radix select: differential vs numpy sort.

Covers wide spans (multi-round refinement), heavy ties, all-equal columns,
negative values, nulls, descending ranks, out-of-range errors, and a
round's worker-summed partial being independent of the block split.
"""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from product_quality_check_ray.state.orderstats import grouped_kth, kth_stats


def _ds(vals):
    return (
        rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.int64())}))
        .repartition(13)
        .materialize()
    )


@pytest.mark.parametrize(
    "gen",
    [
        lambda rng: rng.integers(-(10**9), 10**9, 20000),  # wide span, 2 passes
        lambda rng: rng.integers(-5, 5, 8000),  # heavy ties, single pass
        lambda rng: np.full(1000, 42),  # degenerate all-equal
        lambda rng: rng.normal(0, 1e12, 10000).astype(np.int64),  # ~3 passes
        lambda rng: np.array([7]),
    ],
)
def test_kth_stats_matches_numpy(ray_session, gen):
    rng = np.random.default_rng(7)
    vals = gen(rng)
    ds = _ds(vals)
    s = np.sort(vals)
    n = len(vals)
    for k in sorted({1, max(1, n // 3), max(1, n // 2), n}):
        st = kth_stats(ds, "v", k)
        exp = int(s[k - 1])
        assert st.value == exp
        assert st.n_less == int((s < exp).sum())
        assert st.n_equal == int((s == exp).sum())
        assert st.n_total == n
        std = kth_stats(ds, "v", k, descending=True)
        assert std.value == int(s[n - k])


def test_kth_stats_nulls_and_errors(ray_session):
    ds = _ds([None, 5, None, 1, 3])
    assert kth_stats(ds, "v", 1).value == 1
    assert kth_stats(ds, "v", 2).value == 3
    assert kth_stats(ds, "v", 3).value == 5
    assert kth_stats(ds, "v", 1, descending=True).value == 5
    with pytest.raises(ValueError):
        kth_stats(ds, "v", 4)  # only 3 non-null values
    with pytest.raises(ValueError):
        kth_stats(ds, "v", 0)
    with pytest.raises(ValueError):
        kth_stats(_ds([None, None]), "v", 1)


def test_kth_stats_small_bits_forces_deep_refinement(ray_session):
    """bits=4 (16 buckets) on a wide-span column exercises many refinement
    rounds; result must still be exact."""
    rng = np.random.default_rng(11)
    vals = rng.integers(-(10**15), 10**15, 5000)
    ds = _ds(vals)
    s = np.sort(vals)
    for k in (1, 1700, 5000):
        assert kth_stats(ds, "v", k, bits=4).value == int(s[k - 1])


# ---------------------------------------------------------------------------
# doc_dsir_select: the radix-select consumer
# ---------------------------------------------------------------------------

SF = "/root/testdata/sf0.001"


def test_dsir_selects_exactly_ceil_fraction(ray_session):
    from product_quality_check_ray.pipelines.textprep import doc_dsir_select

    out = doc_dsir_select(SF).to_pandas()
    n = len(out)
    k = (n * 1 + 3) // 4
    assert int(out["selected"].sum()) == k
    # every selected doc dominates every unselected doc under
    # (weight DESC, doc_id ASC)
    sel = out[out["selected"]]
    uns = out[~out["selected"]]
    worst_sel = sel.sort_values(["weight_millibits", "doc_id"], ascending=[True, False]).iloc[0]
    best_uns = uns.sort_values(["weight_millibits", "doc_id"], ascending=[False, True]).iloc[0]
    assert (worst_sel.weight_millibits, -worst_sel.doc_id) > (
        best_uns.weight_millibits,
        -best_uns.doc_id,
    )


def test_dsir_degenerate_ties_keep_lowest_doc_ids(ray_session, tmp_path):
    """All docs identical → all weights equal → the tie-break radix select
    must admit exactly the ceil(n/4) LOWEST doc_ids."""
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.textprep import doc_dsir_select

    ids = np.arange(100, dtype=np.int64) * 3 + 5  # sparse, none divisible pattern-free
    text = "alpha beta gamma delta epsilon zeta"
    docs = pa.table({"doc_id": ids, "text": pa.array([text] * 100)})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = doc_dsir_select(str(tmp_path)).to_pandas().sort_values("doc_id")
    k = (100 + 3) // 4
    assert int(out["selected"].sum()) == k
    assert out["weight_millibits"].nunique() == 1
    assert set(out[out["selected"]]["doc_id"]) == set(sorted(ids)[:k])


def test_seq_ntok_exact_quantiles_matches_numpy(ray_session):
    from product_quality_check_ray.datagen import resolve_sequences
    from product_quality_check_ray.pipelines.seq_queries import (
        seq_ntok_exact_quantiles,
    )
    import pyarrow.parquet as pq
    import pyarrow as pa_

    out = seq_ntok_exact_quantiles(SF).to_pandas().set_index("quantile")
    vals = np.sort(
        np.concatenate(
            [
                pq.read_table(f, columns=["n_tok"])
                .column("n_tok")
                .drop_null()
                .to_numpy(zero_copy_only=False)
                for f in resolve_sequences(SF)
            ]
        ).astype(np.int64)
    )
    n = len(vals)
    for name, num, den in (("p50", 1, 2), ("p90", 9, 10), ("p99", 99, 100)):
        k = (n * num + den - 1) // den
        assert out.loc[name, "k"] == k
        assert out.loc[name, "value"] == int(vals[k - 1])


def test_quantiles_disc_all_null_column(ray_session):
    """An all-NULL column is one group with n = 0 (ranks never asked); an
    empty Dataset has no group at all."""
    ds = _ds([None, None])
    assert grouped_kth(ds, None, "v", lambda n: [1]) == {None: (0, [])}
    assert grouped_kth(_ds([]), None, "v", lambda n: [1]) == {}
    with pytest.raises(ValueError):
        grouped_kth(_ds([4, 5]), None, "v", lambda n: [n + 1])


def test_ccnet_buckets_tercile_counts(ray_session):
    from product_quality_check_ray.pipelines.textprep import doc_ccnet_buckets

    out = doc_ccnet_buckets(SF).to_pandas()
    ranked = out[out["bucket"] != "none"]
    n = len(ranked)
    k1, k2 = (n + 2) // 3, (2 * n + 2) // 3
    counts = ranked["bucket"].value_counts()
    assert counts.get("head", 0) == k1
    assert counts.get("middle", 0) == k2 - k1
    assert counts.get("tail", 0) == n - k2
    # ordering invariant: every head score <= every middle score <= tail
    assert ranked[ranked.bucket == "head"]["score_ubits"].max() <= (
        ranked[ranked.bucket == "middle"]["score_ubits"].min()
    )
    assert ranked[ranked.bucket == "middle"]["score_ubits"].max() <= (
        ranked[ranked.bucket == "tail"]["score_ubits"].min()
    )
    # 'none' ⇔ no bigrams ⇔ NULL score
    none = out[out["bucket"] == "none"]
    assert (none["n_bigrams"] == 0).all() and none["score_ubits"].isna().all()


def test_ccnet_buckets_degenerate_ties_and_none(ray_session, tmp_path):
    """Identical docs → one shared score → tie cutoffs split terciles by
    doc_id; a one-word doc (no bigrams) lands in 'none'."""
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.textprep import doc_ccnet_buckets

    ids = np.arange(30, dtype=np.int64)
    text = ["alpha beta gamma delta"] * 29 + ["solo"]
    pq.write_table(
        pa.table({"doc_id": ids, "text": pa.array(text)}),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        doc_ccnet_buckets(str(tmp_path)).to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[29, "bucket"] == "none"
    ranked = out.drop(index=29)
    assert ranked["score_ubits"].nunique() == 1
    n = 29
    k1, k2 = (n + 2) // 3, (2 * n + 2) // 3
    assert list(ranked.index[ranked.bucket == "head"]) == list(range(k1))
    assert list(ranked.index[ranked.bucket == "middle"]) == list(range(k1, k2))
    assert list(ranked.index[ranked.bucket == "tail"]) == list(range(k2, 29))


def _fracs_ranks(fracs):
    return lambda n: [(n * num + den - 1) // den for num, den in fracs]


def test_grouped_quantiles_matches_numpy(ray_session):
    """Grouped radix select vs per-group numpy sort, including a NULL group,
    a null-bearing value column, an all-NULL group, a wide-span group and a
    full-int64-span group (multi-round), at bits=16 and at bits=4 (many
    rounds)."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    i64 = np.iinfo(np.int64)
    groups = ["a"] * 5000 + ["b"] * 300 + [None] * 200 + ["c"] * 1 + ["e"] * 6
    vals = np.concatenate(
        [
            rng.integers(0, 500, 5000),
            rng.integers(-(10**12), 10**12, 300),
            rng.integers(10, 20, 200),
            [7],
            [i64.min, i64.max, 0, -1, i64.max, i64.min + 1],
        ]
    ).astype(np.int64)
    vlist = vals.tolist()
    vlist[17] = None  # a null value inside group 'a'
    t = pa.table(
        {
            "g": pa.array(groups + ["d", "d"], type=pa.string()),
            "v": pa.array(vlist + [None, None], type=pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(11).materialize()
    fracs = ((1, 2), (9, 10), (99, 100))
    by_g = {}
    for g, v, orig in zip(groups, vals, vlist):
        if orig is None:
            continue
        by_g.setdefault(g, []).append(v)
    for bits in (16, 4):
        got = grouped_kth(ds, "g", "v", _fracs_ranks(fracs), bits=bits)
        assert None in got  # the NULL group is keyed None, not a NaN label
        assert got.pop("d") == (0, [])  # all-NULL group: n = 0
        assert set(got) == set(by_g)
        for g, arr in by_g.items():
            s = np.sort(arr)
            n = len(s)
            gn, stats = got[g]
            assert gn == n and len(stats) == len(fracs)
            for (num, den), st in zip(fracs, stats):
                k = (n * num + den - 1) // den
                assert st.value == int(s[k - 1]), (bits, g, num, den)
                assert st.n_less == int((s < s[k - 1]).sum())
                assert st.n_equal == int((s == s[k - 1]).sum())
                assert st.n_total == n


def test_kth_stats_full_int64_span_no_overflow(ray_session):
    """Span wider than int64 itself: v - lo would overflow into negative
    bucket indices (bincount ValueError); the biased-uint64 domain must
    return the exact order statistics."""
    vals = np.array(
        [-(2**62) - 5, -(2**62), -17, 0, 3, 2**62, 2**62 + 9], dtype=np.int64
    )
    ds = _ds(vals)
    s = np.sort(vals)
    for k in range(1, len(vals) + 1):
        assert kth_stats(ds, "v", k).value == int(s[k - 1])


def test_grouped_quantiles_precision_above_2_53_with_nulls(ray_session):
    """A null VALUE in the same batch as >2^53 values: a float64 round trip
    collapses 2^62 and 2^62+3; the Arrow-level null drop must keep them
    distinct."""
    import ray.data as rd

    t = pa.table(
        {
            "g": pa.array(["x", "x", "x", "x"], type=pa.string()),
            "v": pa.array([2**62, 2**62 + 3, None, 2**62 + 3], type=pa.int64()),
        }
    )
    ds = rd.from_arrow(t).materialize()
    n, (f1, f2) = grouped_kth(ds, "g", "v", _fracs_ranks(((1, 2), (99, 100))))["x"]
    assert f1.value == 2**62 + 3  # ceil(3/2)=2nd of [2^62, 2^62+3, 2^62+3]
    assert f2.value == 2**62 + 3
    assert f1.n_total == 3 and n == 3
    # and the grouped wide-span case (the overflow regression, per group)
    t2 = pa.table(
        {
            "g": pa.array(["a"] * 3 + ["b"] * 2, type=pa.string()),
            "v": pa.array([-(2**62) - 1, 5, 2**62, -3, 2**61], type=pa.int64()),
        }
    )
    ds2 = rd.from_arrow(t2).materialize()
    for bits in (16, 4):
        got2 = grouped_kth(ds2, "g", "v", _fracs_ranks(((1, 2),)), bits=bits)
        assert got2["a"][1][0].value == 5
        assert got2["b"][1][0].value == -3


def test_round_partial_independent_of_block_count(ray_session, monkeypatch):
    """A round's summed partial — the (key, count) arrays the driver
    receives — is identical for the same rows at 1, 7 and 64 blocks: the
    per-block partials are summed worker-side, so driver ingress is one
    row per (plan, bucket) whatever the block count."""
    import ray.data as rd

    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.state import orderstats

    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    rng = np.random.default_rng(5)
    g = rng.choice(["a", "b", "c"], 6400).tolist()
    g[:40] = [None] * 40
    v = rng.integers(-300, 300, 6400)
    t = pa.table({"g": pa.array(g, type=pa.string()), "v": pa.array(v)})
    gvals = ["a", "b", "c", None]
    # an overlapping narrower second plan for 'a'; 'c' has no plan
    plans = [(0, -300, 299, 4), (0, -20, 27, 0), (1, -300, 299, 4), (3, -300, 299, 4)]
    outs = []
    for blocks in (1, 7, 64):
        ds = rd.from_arrow(t).repartition(blocks).materialize()
        groups = exchange.block_groups(ds)
        assert len(groups) == (blocks + 1) // 2
        outs.append(orderstats._histogram_round(groups, "g", "v", gvals, plans, 6))
    keys, counts = outs[0]
    for k, c in outs[1:]:
        assert k.tolist() == keys.tolist() and c.tolist() == counts.tolist()
    want = {}
    ga = np.array(g, dtype=object)
    for p, (gi, lo, hi, shift) in enumerate(plans):
        m = (ga == gvals[gi]) if gvals[gi] is not None else np.array([x is None for x in g])
        sel = v[m & (v >= lo) & (v <= hi)]
        for b, c in zip(*np.unique((sel - lo) >> shift, return_counts=True)):
            want[(p << 6) + int(b)] = int(c)
    assert dict(zip(keys.tolist(), counts.tolist())) == want
    assert len(keys) <= len(plans) << 6


def test_kth_with_tiecut_semantics(ray_session):
    """Selected = value beats threshold, or equals it with id <= cutoff;
    exactly k rows selected in both directions under heavy ties."""
    import ray.data as rd

    from product_quality_check_ray.state.orderstats import kth_with_tiecut

    ids = np.arange(100, dtype=np.int64) * 7 + 3
    vals = np.repeat(np.array([10, 20, 20, 30], dtype=np.int64), 25)
    t = pa.table({"doc_id": ids, "v": pa.array(vals)})
    ds = rd.from_arrow(t).repartition(7).materialize()
    for k in (1, 30, 50, 74, 100):
        thr, cut = kth_with_tiecut(ds, "v", k, descending=True)
        sel = (vals > thr) | ((vals == thr) & (ids <= cut))
        assert int(sel.sum()) == k, ("desc", k)
        thr2, cut2 = kth_with_tiecut(ds, "v", k)
        sel2 = (vals < thr2) | ((vals == thr2) & (ids <= cut2))
        assert int(sel2.sum()) == k, ("asc", k)
