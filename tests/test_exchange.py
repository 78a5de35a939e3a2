"""``core.exchange``: the shared hash-range exchange and its ported users.

Pins the primitive's edge cases (range-count bounds, split edges, block
fetch) and, for every operator routed through the exchange, that the
output does not depend on the range count (2 vs 37 ranges)."""

import glob
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.core import exchange
from product_quality_check_ray.core.hashing import range_edges

PKG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "product_quality_check_ray",
)


def test_range_count_bounds(ray_session, monkeypatch):
    import ray

    assert exchange.range_count(cap=1) == 2
    assert exchange.range_count(1) == 2
    assert exchange.range_count(37) == 37
    assert exchange.range_count(37, cap=5) == 5
    assert exchange.range_count() >= 8

    def no_cluster():
        raise RuntimeError("Ray has not been started yet")

    monkeypatch.setattr(ray, "cluster_resources", no_cluster)
    assert exchange.range_count() == 8
    assert exchange.range_count(cap=3) == 3


def test_split_edges():
    edges = range_edges(4)
    empty = exchange.split(np.empty(0, dtype=np.uint64), 4, np.empty(0))
    assert len(empty) == 4 and all(len(p[0]) == 0 for p in empty)

    low = np.array([1, 2, 3], dtype=np.uint64)
    parts = exchange.split(low, 4, low, np.array([10, 20, 30]))
    assert [p[1].tolist() for p in parts] == [[10, 20, 30], [], [], []]

    # a hash equal to an edge opens the next range; 2**64-1 is the last one
    h = np.array(
        [edges[0] - np.uint64(1), edges[0], edges[1], np.uint64(2**64 - 1)],
        dtype=np.uint64,
    )
    t = pa.table({"i": [0, 1, 2, 3]})
    parts = exchange.split(h, 4, h, t)
    assert [p[0].tolist() for p in parts] == [[h[0]], [h[1]], [h[2]], [h[3]]]
    assert [p[1].column("i").to_pylist() for p in parts] == [[0], [1], [2], [3]]


def test_segment_sum():
    k, c = exchange.segment_sum(
        np.array([1, 1, 4, 9, 9, 9], dtype=np.uint64),
        np.array([1, 2, 3, 1, 1, 1], dtype=np.int64),
    )
    assert k.tolist() == [1, 4, 9] and c.tolist() == [3, 3, 3]
    k, c = exchange.segment_sum(np.empty(0, np.uint64), np.empty(0, np.int64))
    assert k.size == 0 and c.size == 0


def test_fetch_table_block_shapes(ray_session):
    import ray

    a = pa.table({"k": [1, 2], "v": ["x", "y"]}).replace_schema_metadata(
        {"pandas": "{}"}
    )
    b = pa.table({"k": [3], "v": ["z"]}).replace_schema_metadata({"other": "1"})
    batch = pa.RecordBatch.from_pydict({"k": [4], "v": ["w"]})
    refs = [ray.put(x) for x in (a, pa.table({}), b, batch, a.slice(0, 0))]
    t = exchange.fetch_table(refs, ["k", "v"])
    assert t.column("k").to_pylist() == [1, 2, 3, 4]
    assert t.column("v").to_pylist() == ["x", "y", "z", "w"]
    assert exchange.fetch_table([ray.put(pa.table({})), ray.put(a.slice(0, 0))], ["k"]) is None


def _pair_ds(int_keys: bool):
    import ray.data as rd

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 60, size=900)
    keys[:40] = 7  # hot key above max_bucket
    ids = rng.integers(0, 300, size=900)
    key_col = pa.array(keys) if int_keys else pa.array([f"k{x}" for x in keys])
    t = pa.table({"key": key_col, "doc_id": pa.array(ids), "n": pa.array(ids * 3 + 1)})
    return rd.from_arrow([t.slice(i, 100) for i in range(0, 900, 100)]).materialize()


@pytest.mark.parametrize("int_keys", [False, True])
def test_cooccurrence_pairs_range_invariant(ray_session, monkeypatch, int_keys):
    from product_quality_check_ray.state.pairreduce import cooccurrence_pairs

    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    ds = _pair_ds(int_keys)
    for drop_hot in (False, True):
        for distinct in (False, True):
            out = [
                cooccurrence_pairs(
                    ds, "key", "doc_id", ranges=r, max_bucket=16, size_col="n",
                    drop_hot=drop_hot, distinct_ids=distinct,
                )
                .sort_values(["id_a", "id_b"])
                .reset_index(drop=True)
                for r in (2, 37)
            ]
            assert len(out[0]) > 0
            pd.testing.assert_frame_equal(out[0], out[1])


def test_dup_group_id_refs_range_invariant(ray_session):
    import ray

    from product_quality_check_ray.state.dupfinder import dup_group_id_refs

    ds = _pair_ds(False)
    for drop_min in (False, True):
        got = [
            sorted(
                pa.concat_tables(
                    ray.get(dup_group_id_refs(ds, "key", "doc_id", drop_min=drop_min, ranges=r))
                )
                .column("doc_id")
                .to_pylist()
            )
            for r in (2, 37)
        ]
        assert len(got[0]) > 0 and got[0] == got[1]


def test_distinct_by_source_range_invariant(ray_session, monkeypatch):
    import ray.data as rd

    from product_quality_check_ray.pipelines.seq_queries import _distinct_by_source

    rng = np.random.default_rng(5)
    t = pa.table(
        {"k": pa.array(rng.integers(0, 400, 2000)), "s": pa.array(rng.integers(0, 4, 2000))}
    )
    ds = rd.from_arrow([t.slice(i, 250) for i in range(0, 2000, 250)]).materialize()
    got = []
    for r in (2, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        got.append(_distinct_by_source(ds))
    exact = t.to_pandas().drop_duplicates().groupby("s").size().to_dict()
    assert got[0] == got[1] == exact


def _two_corpora(tmp_path):
    """A written corpus and a derived second version: rows removed, token
    lists changed, and rows re-added under new ids with old content."""
    from product_quality_check_ray.datagen import write_sequences

    a = write_sequences(str(tmp_path / "a"), 1200, seed=5, num_fragments=6)
    files_a = sorted(glob.glob(os.path.join(a, "frag-*.parquet")))
    os.makedirs(tmp_path / "b")
    files_b = []
    for i, f in enumerate(files_a):
        t = pq.read_table(f)
        t = t.take([j for j in range(t.num_rows) if j % 11 != 3])
        toks = [
            x + [5] if x is not None and j % 7 == 0 else x
            for j, x in enumerate(t.column("tokens").to_pylist())
        ]
        ti = t.schema.get_field_index("tokens")
        t = t.set_column(ti, t.schema.field(ti), pa.array(toks, type=t.schema.field(ti).type))
        di = t.schema.get_field_index("doc_id")
        add = t.slice(1, 5)
        add = add.set_column(
            di, add.schema.field(di), pa.array([f"new-{i}-{j}" for j in range(5)])
        )
        out = str(tmp_path / "b" / f"frag-{i:03d}.parquet")
        pq.write_table(pa.concat_tables([t, add]), out)
        files_b.append(out)
    return files_a, files_b


def test_corpus_diff_and_incremental_dedup_range_invariant(ray_session, tmp_path):
    from product_quality_check_ray.core.collect import collect_table
    from product_quality_check_ray.pipelines.tokens import (
        seq_corpus_diff_files,
        seq_incremental_dedup_files,
    )

    files_a, files_b = _two_corpora(tmp_path)
    diffs = [seq_corpus_diff_files(files_a, files_b, ranges=r) for r in (2, 37)]
    assert set(diffs[0].column("status").to_pylist()) == {"added", "removed", "changed"}
    assert diffs[0].equals(diffs[1])

    admitted = [
        seq_incremental_dedup_files(files_a, files_b, cap=0, ranges=r) for r in (2, 37)
    ]
    assert admitted[0].num_rows > 0 and admitted[0].equals(admitted[1])
    # the broadcast path (no exchange) agrees
    assert admitted[0].equals(seq_incremental_dedup_files(files_a, files_b))

    def payload(r):
        ds = seq_incremental_dedup_files(files_a, files_b, payload=True, cap=0, ranges=r)
        return sorted(collect_table(ds).to_pylist(), key=repr)

    assert payload(2) == payload(37)


def test_range_rule_lives_only_in_exchange():
    rule = re.compile(
        r"max\(\s*8\s*,\s*int\(\s*ray\.cluster_resources\(\)\.get\(\s*\"CPU\"\s*,\s*8\s*\)\s*\)\s*\)"
    )
    offenders = [
        os.path.relpath(p, PKG)
        for p in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)
        if os.path.relpath(p, PKG) != os.path.join("core", "exchange.py")
        and rule.search(open(p).read())
    ]
    assert offenders == []
    assert rule.search(open(os.path.join(PKG, "core", "exchange.py")).read())


def _join_inputs(int_keys: bool):
    """(ds, key side, dim): ds keys are ``string``/int64, the other sides
    ``large_string``/int32; nulls on every side, many blocks each."""
    import ray.data as rd

    rng = np.random.default_rng(11)

    def col(vals, other_side):
        vals = [None if i % 17 == 0 else int(v) for i, v in enumerate(vals)]
        if int_keys:
            return pa.array(vals, type=pa.int32() if other_side else pa.int64())
        typ = pa.large_string() if other_side else pa.string()
        return pa.array([None if v is None else f"k{v}" for v in vals], type=typ)

    def blocks(t, n):
        return rd.from_arrow([t.slice(i, n) for i in range(0, t.num_rows, n)])

    ds = pa.table({"k": col(rng.integers(0, 300, 1200), False), "v": pa.array(range(1200))})
    keys = pa.table({"kk": col(rng.integers(100, 500, 600), True)})
    dim_k = rng.permutation(np.arange(100, 500))[:250]
    dim = pa.table({"dk": col(dim_k, True), "name": [f"n{x}" for x in dim_k]})
    return blocks(ds, 100), blocks(keys, 60), blocks(dim, 25)


@pytest.mark.parametrize("int_keys", [False, True])
def test_joins_range_invariant(ray_session, monkeypatch, int_keys):
    """semi, anti and lookup at cap=0 (the key exchange, several map groups
    per side) equal the broadcast path at 2 and at 37 ranges."""
    from product_quality_check_ray.core.joins import lookup_join, semi_join

    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    ds, keys, dim = _join_inputs(int_keys)

    def runs(cap):
        out = [
            semi_join(ds, "k", keys, "kk", anti=anti, cap=cap) for anti in (False, True)
        ]
        out.append(lookup_join(ds, "k", dim, "dk", ["name"], cap=cap))
        return [d.to_pandas().sort_values("v").reset_index(drop=True) for d in out]

    broadcast = runs(None)
    assert all(len(b) > 0 for b in broadcast)
    assert len(broadcast[0]) + len(broadcast[1]) == 1200
    for r in (2, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        for got, want in zip(runs(0), broadcast):
            pd.testing.assert_frame_equal(got, want)


def test_routing_lives_only_in_exchange():
    """Per-range routing (``.options(num_returns=`` or a
    ``@ray.remote(num_returns=`` decorator) and the range partition rule
    (``hashing.range_edges``, defined in ``core/hashing.py``) occur only in
    ``core/exchange.py``."""
    home = os.path.join("core", "exchange.py")
    sources = {
        os.path.relpath(p, PKG): open(p).read()
        for p in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)
    }
    routing = [
        rel
        for rel, src in sources.items()
        if rel != home
        and (".options(num_returns=" in src or "@ray.remote(num_returns=" in src)
    ]
    assert routing == []
    rule = [
        rel
        for rel, src in sources.items()
        if rel not in (home, os.path.join("core", "hashing.py")) and "range_edges" in src
    ]
    assert rule == []
    assert "range_edges" in sources[home]


def test_no_map_groups_in_library():
    """Every keyed apply runs on ``exchange.group_apply``: no Ray Data
    ``.map_groups(`` call is left in the package."""
    offenders = [
        os.path.relpath(p, PKG)
        for p in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)
        if ".map_groups(" in open(p).read()
    ]
    assert offenders == []


_CALLS = pa.schema([("rows", pa.int64()), ("keys", pa.int64())])


def _group_apply_calls(tables) -> pa.Table:
    """``group_apply`` over ``tables`` with an ``fn`` that returns one row
    per call: the rows and distinct keys it saw (int32, so the cast to the
    declared schema is exercised)."""
    import ray.data as rd

    from product_quality_check_ray.core.collect import collect_table

    def calls(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "rows": pa.array([t.num_rows], type=pa.int32()),
                "keys": pa.array([len(pc.unique(t.column("k")))], type=pa.int32()),
            }
        )

    out = exchange.group_apply(rd.from_arrow(tables), "k", ["k", "v"], calls, _CALLS)
    return collect_table(out, schema=_CALLS)


def test_group_apply_degenerate_inputs(ray_session, monkeypatch):
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    for typ in (pa.int64(), pa.string()):
        empty = pa.table({"k": pa.array([], type=typ), "v": pa.array([], type=pa.int64())})
        got = _group_apply_calls([empty])
        assert got.schema == _CALLS and got.num_rows == 0  # fn never called

        one = pa.table({"k": pa.array([7 if typ == pa.int64() else "x"], type=typ), "v": [1]})
        assert _group_apply_calls([one]).to_pylist() == [{"rows": 1, "keys": 1}]

        # all-null keys across several map tasks: one call holding every row
        nulls = pa.table({"k": pa.nulls(60, type=typ), "v": pa.array(range(60))})
        got = _group_apply_calls([nulls.slice(i, 10) for i in range(0, 60, 10)])
        assert got.to_pylist() == [{"rows": 60, "keys": 1}]


def test_group_apply_keeps_keys_whole(ray_session, monkeypatch):
    """Each key's rows land in one call, whatever the range count; null
    keys count as one more key."""
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    rng = np.random.default_rng(9)
    keys = [None if i % 7 == 0 else int(x) for i, x in enumerate(rng.integers(0, 50, 800))]
    t = pa.table({"k": pa.array(keys, type=pa.int64()), "v": pa.array(range(800))})
    for r in (2, 3, 8):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        got = _group_apply_calls([t.slice(i, 100) for i in range(0, 800, 100)])
        assert got.num_rows <= r
        assert sum(got.column("rows").to_pylist()) == 800
        assert sum(got.column("keys").to_pylist()) == 51


def test_group_apply_queries_range_invariant(ray_session, monkeypatch):
    """user_sessions (many users per range), grouped_topk_orders (5 string
    keys, so some of 8 ranges are empty) and doc_pack_examples (several of
    the 16 shards per range) give identical results at 2, 3 and 8 ranges."""
    from product_quality_check_ray.pipelines.relational import (
        grouped_topk_orders,
        user_sessions,
    )
    from product_quality_check_ray.pipelines.textprep import doc_pack_examples
    from test_operators import SF_SMALL as sf

    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 2)
    runs = []
    for r in (2, 3, 8):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        packs = doc_pack_examples(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        runs.append((user_sessions(sf), grouped_topk_orders(sf), packs))
    sessions, topk, packs = runs[0]
    assert sessions.num_rows > 0 and topk.num_rows == 15 and packs["shard"].nunique() == 16
    for s, k, p in runs[1:]:
        assert s.equals(sessions) and k.equals(topk)
        pd.testing.assert_frame_equal(p, packs)
