"""Sketch accuracy + mergeability bounds (SURVEY.md §5 plan #5), and the
HyperLogLog byte codec."""

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from product_quality_check_ray.state.sketches import HyperLogLog, TDigest, add_strings_grouped


def test_tdigest_quantiles_merged_partials():
    rng = np.random.default_rng(1)
    vals = rng.gamma(4.0, 60.0, size=100_000)
    parts = [TDigest().add(vals[i::16]) for i in range(16)]
    td = TDigest()
    for p in parts:
        td.merge(p)
    assert td.count == len(vals)
    for q in (0.1, 0.5, 0.9, 0.99):
        true = np.quantile(vals, q)
        assert abs(td.quantile(q) - true) / true < 0.02, q


def test_tdigest_merge_order_insensitive_within_tolerance():
    rng = np.random.default_rng(2)
    vals = rng.normal(100, 15, size=50_000)
    parts = [TDigest().add(vals[i::8]) for i in range(8)]
    a = TDigest()
    for p in parts:
        a.merge(TDigest.from_bytes(p.to_bytes()))
    b = TDigest()
    for p in reversed(parts):
        b.merge(TDigest.from_bytes(p.to_bytes()))
    for q in (0.5, 0.9):
        assert abs(a.quantile(q) - b.quantile(q)) / abs(a.quantile(q)) < 0.01


def test_tdigest_serialization_roundtrip():
    td = TDigest().add(np.arange(1000.0))
    td2 = TDigest.from_bytes(td.to_bytes())
    assert td2.count == td.count
    assert abs(td2.quantile(0.5) - td.quantile(0.5)) < 1e-9


def test_tdigest_extremes():
    td = TDigest().add(np.arange(10_000.0))
    assert td.quantile(1.0) == 9999.0
    assert abs(td.quantile(0.0)) <= 1.0


def test_hll_error_bound_and_merge():
    ids = [f"doc-{i}" for i in range(200_000)]
    parts = [HyperLogLog() for _ in range(10)]
    for i, p in enumerate(parts):
        p.add_strings(ids[i::10])
    h = HyperLogLog()
    for p in parts:
        h.merge(HyperLogLog.from_bytes(p.to_bytes()))
    est = h.estimate()
    # p=12 → ~1.04/sqrt(4096) ≈ 1.6% std error; allow 5%
    assert abs(est - 200_000) / 200_000 < 0.05


def test_hll_merge_is_union_not_sum():
    a = HyperLogLog().add_strings([f"x-{i}" for i in range(10_000)])
    b = HyperLogLog().add_strings([f"x-{i}" for i in range(10_000)])  # same set
    a.merge(b)
    assert abs(a.estimate() - 10_000) / 10_000 < 0.05


def test_hll_small_range_linear_counting():
    h = HyperLogLog().add_strings([f"y-{i}" for i in range(50)])
    assert abs(h.estimate() - 50) < 5


def test_grouped_hll_equals_one_sketch_per_group():
    rng = np.random.default_rng(4)
    ids = pa.array([f"g-{i}" for i in rng.integers(0, 30_000, 50_000)])
    groups = rng.integers(0, 5, len(ids))
    groups[groups == 3] = 2  # group 3 gets nothing: its row stays empty
    regs = np.zeros((5, HyperLogLog().m), dtype=np.uint8)
    add_strings_grouped(regs, groups, ids)
    for g in range(5):
        want = HyperLogLog()
        sel = ids.filter(pa.array(groups == g))
        if len(sel):
            want.add_strings(sel)
        got = HyperLogLog.from_registers(regs[g])
        assert np.array_equal(got.registers, want.registers), g
        assert got.to_bytes() == want.to_bytes()
    assert not regs[3].any()


def _registers(p: int, nnz: int, seed: int = 0) -> np.ndarray:
    """2^p registers, ``nnz`` of them nonzero, ranks spanning [1, 64-p+1]."""
    rng = np.random.default_rng(seed)
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    idx = rng.choice(m, nnz, replace=False)
    regs[idx] = rng.integers(1, 64 - p + 2, nnz)
    if nnz:
        regs[idx[0]] = 64 - p + 1
    return regs


@pytest.mark.parametrize("p", [4, 12, 16])
def test_hll_codec_round_trips_at_the_sparse_dense_boundary(p):
    m = 1 << p
    edge = (m - 1) // 3  # largest sparse count: 1365 at p=12
    for nnz in (0, 1, edge, edge + 1, m):
        regs = _registers(p, nnz, seed=nnz)
        b = HyperLogLog.from_registers(regs).to_bytes()
        assert b[0] == p and b[1] == (1 if 3 * nnz < m else 0), nnz
        assert len(b) <= 2 + min(3 * nnz, m), nnz
        got = HyperLogLog.from_bytes(b)
        assert got.p == p and got.m == m
        assert got.registers.dtype == np.uint8
        assert np.array_equal(got.registers, regs), nnz
        # the decoded registers are writable: merging into them works
        got.merge(HyperLogLog.from_registers(_registers(p, 3, seed=99)))
    assert len(HyperLogLog(p).to_bytes()) == 2


def _sparse(p: int, idx, ranks) -> bytes:
    return (
        bytes((p, 1))
        + np.asarray(idx, dtype="<u2").tobytes()
        + np.asarray(ranks, dtype=np.uint8).tobytes()
    )


@pytest.mark.parametrize(
    "case",
    [
        b"",
        b"\x0c",
        bytes((3, 0)) + bytes(8),  # p below 4
        bytes((17, 1)),  # p above 16
        bytes((0, 1)),
        bytes((12, 2)),  # unknown form
        bytes((12, 0)) + bytes(4095),  # dense: one register short
        bytes((12, 0)) + bytes(4097),  # dense: one register long
        bytes((12, 1)) + bytes(4),  # sparse: not whole (index, rank) entries
        _sparse(12, range(1366), [1] * 1366),  # sparse at a dense count
        _sparse(12, [5, 5], [1, 2]),  # indices not increasing
        _sparse(12, [9, 3], [1, 2]),
        _sparse(12, [4096], [1]),  # index out of range
        _sparse(4, [16], [1]),
        _sparse(12, [7], [0]),  # a zero register listed as nonzero
        _sparse(12, [7], [54]),  # rank above 64-12+1
        bytes((12, 0)) + bytes(4095) + b"\x36",
        bytes((4, 0)) + bytes(15) + b"\x3e",  # 62 > 64-4+1
        pickle.dumps((12, bytes(4096))),  # the old pickled layout
    ],
)
def test_hll_codec_rejects_malformed_bytes(case):
    with pytest.raises(ValueError):
        HyperLogLog.from_bytes(case)


def test_hll_codec_accepts_the_top_rank():
    for p in (4, 12, 16):
        h = HyperLogLog.from_bytes(_sparse(p, [0, (1 << p) - 1], [64 - p + 1, 1]))
        assert h.registers[0] == 64 - p + 1 and h.registers[-1] == 1


def _loop_sketch_partial(t: pa.Table) -> pa.Table:
    """The per-source loop ``seq_queries._sketch_partial`` replaced."""
    src = t.column("source").to_pandas().fillna("\x00null")
    n_tok = np.asarray(
        pc.fill_null(t.column("n_tok"), -1).to_numpy(zero_copy_only=False), dtype=np.int64
    )
    doc_ids = t.column("doc_id")
    rows = []
    for s, idx in src.groupby(src).groups.items():
        ii = np.asarray(idx)
        ntv = n_tok[ii][n_tok[ii] >= 0]
        uv, uc = np.unique(ntv, return_counts=True)
        td = TDigest().add(uv.astype(np.float64), uc.astype(np.float64))
        hll = HyperLogLog()
        ids = doc_ids.take(pa.array(ii)).combine_chunks().drop_null()
        if len(ids):
            hll.add_strings(ids)
        rows.append({"source": s, "n": int(len(ii)), "td": td.to_bytes(), "hll": hll.to_bytes()})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("source", pa.string()), ("n", pa.int64()), ("td", pa.binary()), ("hll", pa.binary())]
        ),
    )


def test_sketch_partial_equals_per_source_loop(small_corpus_table):
    from product_quality_check_ray.pipelines.seq_queries import _sketch_partial

    t = small_corpus_table.select(["source", "n_tok", "doc_id"])
    n = t.num_rows
    edge = pa.table(
        {
            "source": pa.array(["a", None, "b", "a", None, "c"]),
            "n_tok": pa.array([3, None, -2, 7, 5, None], pa.int32()),
            "doc_id": pa.array([None, "x", None, "y", None, None]),
        }
    )
    for case in (t, t.slice(0, n // 3), edge, edge.slice(0, 0)):
        assert _sketch_partial(case).equals(_loop_sketch_partial(case))


def test_distinct_by_source_exact_across_batches(ray_session, tmp_path):
    """The hash-range distinct reduce counts exactly across fragment and
    batch boundaries (same id repeated in many fragments counts once)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from product_quality_check_ray.core.hashing import hash_strings
    from product_quality_check_ray.pipelines.seq_queries import _distinct_by_source

    ids_a = [f"a-{i % 37}" for i in range(500)]      # 37 distinct, heavy dup
    ids_b = [f"b-{i}" for i in range(211)]           # 211 distinct, unique
    srcs = ["web"] * 500 + ["code"] * 211
    t = pa.table(
        {
            "k": pa.array(
                hash_strings(pa.array(ids_a + ids_b)).view(np.int64)
            ),
            "s": pa.array(
                hash_strings(pa.array(srcs)).view(np.int64)
            ),
        }
    )
    d = str(tmp_path / "p")
    os.makedirs(d)
    pq.write_table(t.slice(0, 300), os.path.join(d, "x0.parquet"))
    pq.write_table(t.slice(300), os.path.join(d, "x1.parquet"))
    ds = rd.read_parquet(d).materialize()
    got = _distinct_by_source(ds)
    web_h = int(hash_strings(["web"]).view(np.int64)[0])
    code_h = int(hash_strings(["code"]).view(np.int64)[0])
    assert got[web_h] == 37 and got[code_h] == 211


def test_seq_sketch_accuracy_flags_all_true(ray_session):
    from product_quality_check_ray.pipelines.seq_queries import seq_sketch_accuracy

    t = seq_sketch_accuracy("/root/testdata/sf0.001").to_pandas()
    assert len(t) > 0 and t["rows"].sum() == 8000
    for c in ("hll_ok", "p50_ok", "p90_ok", "p99_ok"):
        assert t[c].all(), c


def test_seq_sketch_accuracy_bound_is_live(ray_session, monkeypatch):
    """The bound check is a real comparison, not a constant: shrinking the
    HLL bound to ~0 makes estimate-vs-exact deviations fail (unless the
    estimate is exactly equal everywhere, in which case tighten further on
    the rank window to prove the same for t-digest)."""
    from product_quality_check_ray.pipelines import seq_queries as sq

    monkeypatch.setattr(sq, "SKETCH_HLL_BOUND", 0.0)
    monkeypatch.setattr(sq, "SKETCH_TD_RANK_EPS", 0.0)
    t = sq.seq_sketch_accuracy("/root/testdata/sf0.001").to_pandas()
    # with zero slack at least one source must deviate somewhere (HLL is
    # approximate by construction at 12k+ distinct ids)
    flags = t[["hll_ok", "p50_ok", "p90_ok", "p99_ok"]].to_numpy()
    assert not flags.all()
