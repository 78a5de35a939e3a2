"""seq_lcs_pairs / seq_strip_dup_spans (pipelines/tokspans.py).

Covers: naive O(n²) differential on a hand-planted direct-path corpus
(shared interior spans, overlapping/adjacent span union, keep-first,
hot-cap stop-list, dup-key and null-doc_id pass-through), the fixture
plant expectations at sf0.001, parameterized gram width,
block-structure invariance (the exchange's range count and blocks per
map task must not change results) and the shared interval union.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.pipelines.tokspans import (
    SPANDUP_RUN,
    seq_lcs_pairs,
    seq_strip_dup_spans,
)


def _write_corpus(tmp_path, rows):
    """rows: list of (doc_id | None, tokens list | None) → direct-path dir
    (frag-*.parquet ⇒ resolve_sequences reads it verbatim, augment off)."""
    d = tmp_path / "seqs"
    d.mkdir()
    half = max(1, len(rows) // 2)
    for i, chunk in enumerate((rows[:half], rows[half:])):
        if not chunk:
            continue
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in chunk], type=pa.string()),
                "tokens": pa.array([r[1] for r in chunk], type=pa.list_(pa.int32())),
                "n_tok": pa.array(
                    [len(r[1]) if r[1] is not None else None for r in chunk],
                    type=pa.int32(),
                ),
                "source": pa.array(["web"] * len(chunk), type=pa.string()),
            }
        )
        pq.write_table(t, os.path.join(str(d), f"frag-{i:05d}.parquet"))
    return str(d)


def _naive(rows, L, min_run, hot_cap):
    """(pairs dict, merged spans dict) over pairable rows only.

    pairs[(ka, kb)] = (max_run, n_runs, n_anchors); spans[kb] = merged
    sorted [s, e) intervals (keep-first: charged to the larger key).
    """
    keys = {}
    for did, _ in rows:
        if did is None:
            continue
        keys[did] = keys.get(did, 0) + 1
    pairable = [
        (int(did[-12:]), toks if toks is not None else [])
        for did, toks in rows
        if did is not None and keys[did] == 1
    ]
    count: dict[tuple, int] = defaultdict(int)
    for k, t in pairable:
        for i in range(len(t) - L + 1):
            count[tuple(t[i : i + L])] += 1
    occ: dict[tuple, list] = defaultdict(list)
    for k, t in pairable:
        for i in range(len(t) - L + 1):
            g = tuple(t[i : i + L])
            if count[g] <= hot_cap:
                occ[g].append((k, i))
    anchors: dict[tuple, list] = defaultdict(list)
    for g, lst in occ.items():
        for (ka, pa_), (kb, pb) in combinations(sorted(lst), 2):
            if ka != kb:
                anchors[(ka, kb)].append((pa_ - pb, pa_))
    pairs = {}
    spans: dict[int, list] = defaultdict(list)
    for (ka, kb), an in anchors.items():
        bydiag: dict[int, list] = defaultdict(list)
        for d, pa_ in an:
            bydiag[d].append(pa_)
        runs = []
        for d, pas in bydiag.items():
            pas = sorted(pas)
            start = prev = pas[0]
            for p in pas[1:]:
                if p == prev + 1:
                    prev = p
                    continue
                runs.append((d, start, prev - start + L))
                start = prev = p
            runs.append((d, start, prev - start + L))
        if max(r[2] for r in runs) >= min_run:
            pairs[(ka, kb)] = (
                max(r[2] for r in runs),
                len(runs),
                len(an),
            )
        for d, s_pa, rl in runs:
            if rl >= min_run:
                spans[kb].append((s_pa - d, s_pa - d + rl))
    merged = {}
    for k, sp in spans.items():
        sp = sorted(sp)
        out = [list(sp[0])]
        for s, e in sp[1:]:
            if s <= out[-1][1]:
                out[-1][1] = max(out[-1][1], e)
            else:
                out.append([s, e])
        merged[k] = [tuple(x) for x in out]
    return pairs, merged


def _did(n: int) -> str:
    return f"web-{n:012d}"


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Direct-path corpus with hand-planted shared spans + edge rows."""
    rng = np.random.default_rng(7)
    rows = []
    toks = [rng.integers(0, 30000, size=60).astype(np.int32).tolist() for _ in range(30)]
    # shared interior span: rows 1,2 copy rows 0's [5:45) at different offsets
    toks[1][10:50] = toks[0][5:45]
    toks[2][0:40] = toks[0][5:45]
    # two separate spans from different donors into row 5 (tests interval union)
    toks[5][0:26] = toks[3][20:46]
    toks[5][30:56] = toks[4][2:28]
    # adjacent spans (must merge): row 8 copies row 6's [0:26) then row 7's [0:26)
    toks[8][4:30] = toks[6][0:26]
    toks[8][30:56] = toks[7][0:26]
    # a run shorter than min_run (invisible): 20 < 24
    toks[10][10:30] = toks[9][10:30]
    for i, t in enumerate(toks):
        rows.append((_did(i), t))
    # hot-gram split: one 8-token window of the rows-0/1/2 shared run also
    # appears in 70 isolated rows → global count 73 > hot_cap=64, so that
    # gram's anchors drop and the 40-run splits into two islands (17 + 29,
    # still qualifying via 29 ≥ 24). The isolated rows share only an
    # 8-token run (< min_run) so they never pair — but the engine's global
    # count pass MUST still count them (cap is corpus-wide, not
    # candidate-local).
    g_star = toks[0][15:23]
    for i in range(200, 270):
        t = rng.integers(0, 30000, size=30).astype(np.int32).tolist()
        t[7:15] = g_star
        rows.append((_did(i), t))
    # dup-key rows sharing content with row 0 — MUST pass through unpaired
    rows.append((_did(100), toks[0][:]))
    rows.append((_did(100), toks[1][:]))
    # null doc_id and null tokens pass-through
    rows.append((None, toks[0][:]))
    rows.append((_did(101), None))
    return rows, _write_corpus(tmp_path_factory.mktemp("tokspans"), rows)


def test_lcs_pairs_matches_naive(ray_session, planted):
    rows, d = planted
    got = seq_lcs_pairs(d).to_pandas()
    exp, _ = _naive(rows, 8, 24, 64)
    assert len(got) == len(exp)
    for r in got.itertuples():
        assert exp[(r.doc_sfx_a, r.doc_sfx_b)] == (r.max_run, r.n_runs, r.n_anchors)
    # dup-key rows never pair
    assert not ((got.doc_sfx_a == 100) | (got.doc_sfx_b == 100)).any()


def test_strip_matches_naive(ray_session, planted):
    rows, d = planted
    got = seq_strip_dup_spans(d).to_pandas().set_index("doc_id", drop=False)
    _, merged = _naive(rows, 8, 24, 64)
    n_null = sum(1 for did, _ in rows if did is None)
    assert len(got) == len(rows)
    for did, toks in rows:
        if did is None or (got.index == did).sum() > 1:
            continue  # null id / dup-key rows checked below
        r = got.loc[did]
        k = int(did[-12:])
        sp = merged.get(k, [])
        t = toks if toks is not None else []
        keep = [x for i, x in enumerate(t) if not any(s <= i < e for s, e in sp)]
        assert r.tokens_clean == " ".join(str(x) for x in keep)
        assert r.n_tok_clean == len(keep)
        assert r.n_removed == len(t) - len(keep)
        assert r.n_spans == len(sp)
    # dup-key + null rows: byte-identical pass-through
    dups = got[got.doc_id == _did(100)]
    assert len(dups) == 2 and (dups.n_removed == 0).all() and (dups.n_spans == 0).all()
    nulls = got[got.doc_id.isna()]
    assert len(nulls) == n_null and (nulls.n_removed == 0).all()


def test_strip_param_variation_matches_naive(ray_session, planted):
    """Non-default gram width / min_run flow through every hop."""
    rows, d = planted
    got = seq_lcs_pairs(d, L=4, min_run=10, hot_cap=64).to_pandas()
    exp, _ = _naive(rows, 4, 10, 64)
    assert len(got) == len(exp)
    for r in got.itertuples():
        assert exp[(r.doc_sfx_a, r.doc_sfx_b)] == (r.max_run, r.n_runs, r.n_anchors)


def test_block_structure_invariance(ray_session, planted, monkeypatch):
    """2, 3 and 37 hash ranges with one block per map task give the
    default's pairs and stripped rows."""
    from product_quality_check_ray.core import exchange

    rows, d = planted

    def stripped():
        return seq_strip_dup_spans(d).to_pandas().sort_values(
            ["doc_id", "tokens_clean"], na_position="first"
        ).reset_index(drop=True)

    a, sa = seq_lcs_pairs(d).to_pandas(), stripped()
    assert len(a) > 0 and (sa.n_spans > 0).any()
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 1)
    for r in (2, 3, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        assert a.equals(seq_lcs_pairs(d).to_pandas())
        assert sa.equals(stripped())


def test_union_spans_many_docs():
    """The interval union stays exact past 2**23 docs in one range: each
    doc's spans [10, 50) and [20, 60) merge into one [10, 60)."""
    from product_quality_check_ray.pipelines.substring import union_spans

    n = (1 << 23) + 4
    d = np.repeat(np.arange(n, dtype=np.int64), 2)
    s = np.tile(np.array([10, 20], dtype=np.int64), n)
    e = np.tile(np.array([50, 60], dtype=np.int64), n)
    m_doc, m_s, m_e = union_spans(d, s, e)
    del d, s, e
    assert m_doc.size == n
    assert (m_doc == np.arange(n)).all() and (m_s == 10).all() and (m_e == 60).all()


def test_fixture_plant_sf0001(ray_session):
    """8 full 3-member families at sf0.001: every pair shares exactly the
    40-token planted run (33 anchors at L=8); keep-first leaves the
    smallest member intact and cuts one merged span from each victim."""
    pairs = seq_lcs_pairs("/root/testdata/sf0.001").to_pandas()
    assert len(pairs) == 24
    assert (pairs.max_run == SPANDUP_RUN).all()
    assert (pairs.n_runs == 1).all()
    assert (pairs.n_anchors == SPANDUP_RUN - 8 + 1).all()
    df = seq_strip_dup_spans("/root/testdata/sf0.001").to_pandas()
    assert len(df) == 8000
    victims = df[df.n_removed > 0]
    assert len(victims) == 16
    assert (victims.n_removed == SPANDUP_RUN).all()
    assert (victims.n_spans == 1).all()
    assert (victims.n_tok_clean == 96 - SPANDUP_RUN).all()
    # keepers: the smallest member of every full family keeps all 96 tokens
    planted = df[df.doc_id.str.slice(-12).fillna("x").str.isdigit()].copy()
    planted["sfx"] = planted.doc_id.str.slice(-12).astype(np.int64)
    planted = planted[(planted.sfx % 331 == 9)]
    keepers = planted[planted.n_removed == 0]
    assert ((keepers.sfx // 331) % 3 == 0).sum() >= 8  # min member per group
    assert df.n_spans.sum() == 16


def test_tight_runs_recall(ray_session, tmp_path):
    """Winnowing-guarantee stress: planted runs of EXACTLY min_run tokens
    (one single full W-window inside the run — the theorem's boundary) at
    random offsets must all be found."""
    rng = np.random.default_rng(11)
    rows = []
    toks = [rng.integers(0, 30000, size=80).astype(np.int32).tolist() for _ in range(40)]
    expected = set()
    for j in range(0, 40, 2):
        src = rng.integers(0, 80 - 24 + 1)
        dst = rng.integers(0, 80 - 24 + 1)
        toks[j + 1][dst : dst + 24] = toks[j][src : src + 24]
        expected.add((j, j + 1))
    for i, t in enumerate(toks):
        rows.append((_did(i), t))
    d = _write_corpus(tmp_path, rows)
    got = seq_lcs_pairs(d).to_pandas()
    naive, _ = _naive(rows, 8, 24, 64)
    assert {(a, b) for a, b in zip(got.doc_sfx_a, got.doc_sfx_b)} == set(naive)
    assert expected <= set(naive)
    for r in got.itertuples():
        assert naive[(r.doc_sfx_a, r.doc_sfx_b)] == (r.max_run, r.n_runs, r.n_anchors)


def test_user_corpus_runs_plain(ray_session, tmp_path):
    """A direct-path corpus containing a row whose suffix hits the plant
    modulus is NOT rewritten (augment resolves off) and yields no pairs."""
    rng = np.random.default_rng(3)
    rows = [
        (_did(9), rng.integers(0, 30000, size=50).astype(np.int32).tolist()),
        (_did(340), rng.integers(0, 30000, size=50).astype(np.int32).tolist()),
    ]
    d = _write_corpus(tmp_path, rows)
    assert seq_lcs_pairs(d).num_rows == 0
    df = seq_strip_dup_spans(d).to_pandas()
    assert (df.n_removed == 0).all()
    by_id = df.set_index("doc_id")
    for did, toks in rows:
        assert by_id.loc[did].tokens_clean == " ".join(str(x) for x in toks)
