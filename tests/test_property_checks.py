"""Hypothesis differential test: the fused vectorized check kernel must
agree with a naive per-row Python implementation on arbitrary inputs
(SURVEY.md §5: bulk-vs-single differential pair, the reference's own
built-in pattern in ``banningredients.py:283-358``)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product_quality_check_ray.checks.row_checks import (
    ROW_CHECK_NAMES,
    row_check_matrix,
)
from product_quality_check_ray.core.schema import MAX_N_TOK_DEFAULT
from product_quality_check_ray.sources.dimensions import build_check_ctx

VOCAB_SMALL = 100

token_list = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=-5, max_value=VOCAB_SMALL + 20), max_size=12),
)
row = st.fixed_dictionaries(
    {
        "doc_id": st.one_of(st.none(), st.text(min_size=0, max_size=8)),
        "tokens": token_list,
        "n_tok": st.one_of(st.none(), st.integers(min_value=-3, max_value=2100)),
        "source": st.one_of(
            st.none(), st.sampled_from(["web", "books", "spam-1", "", "forums"])
        ),
    }
)


def naive_row_checks(r: dict, allowed: set[str], vocab: int, cap: int) -> dict[str, bool]:
    toks = r["tokens"]
    nt = r["n_tok"]
    out = {
        "null_doc_id": r["doc_id"] is None,
        "null_tokens": toks is None,
        "ntok_mismatch": toks is not None and (nt is None or len(toks) != nt),
        "token_oov": toks is not None and any(t >= vocab for t in toks),
        "token_neg": toks is not None and any(t < 0 for t in toks),
        "bad_source": r["source"] is None or r["source"] not in allowed,
        "ntok_range": (nt if nt is not None else -1) < 1
        or (nt if nt is not None else -1) > cap,
    }
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(row, min_size=1, max_size=25))
def test_vectorized_matches_naive(rows):
    t = pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "tokens": pa.array([r["tokens"] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([r["n_tok"] for r in rows], type=pa.int32()),
            "source": pa.array([r["source"] for r in rows], type=pa.string()),
        }
    )
    ctx = build_check_ctx(vocab=VOCAB_SMALL)
    mat = row_check_matrix(t, ctx)
    allowed = set(ctx["allowed_sources"])
    for i, r in enumerate(rows):
        want = naive_row_checks(r, allowed, VOCAB_SMALL, MAX_N_TOK_DEFAULT)
        got = {name: bool(mat[i, j]) for j, name in enumerate(ROW_CHECK_NAMES)}
        assert got == want, f"row {i}: {r!r}\n got={got}\nwant={want}"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=4000, allow_nan=False), min_size=1, max_size=500),
    st.integers(min_value=2, max_value=8),
)
def test_tdigest_quantiles_bounded_error(values, n_parts):
    """Merged t-digest quantiles stay within rank-error bounds regardless of
    how the input is partitioned (mergeability property)."""
    from product_quality_check_ray.state.sketches import TDigest

    arr = np.asarray(values)
    parts = np.array_split(arr, n_parts)
    td = TDigest()
    for p in parts:
        other = TDigest().add(p)
        td.merge(other)
    s = np.sort(arr)
    for q in (0.1, 0.5, 0.9):
        est = td.quantile(q)
        # rank error bound: estimate must fall within ±10% rank of the target
        lo = s[max(0, int(np.floor((q - 0.1) * (len(s) - 1))))]
        hi = s[min(len(s) - 1, int(np.ceil((q + 0.1) * (len(s) - 1))))]
        assert lo - 1e-9 <= est <= hi + 1e-9, (q, est, lo, hi)


# ---------------------------------------------------------------------------
# Capstone/near-dup view kernels (mask-compaction + splice rewrites)
# ---------------------------------------------------------------------------

import pyarrow as _pa

from product_quality_check_ray.core.schema import VOCAB as _V
from product_quality_check_ray.pipelines import tokens as _tk


@st.composite
def _token_tables(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    rows = []
    for i in range(n):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            rows.append(None)  # null list
        else:
            ln = draw(st.integers(0, 12))
            rows.append(
                [
                    draw(
                        st.one_of(
                            st.none(),
                            st.integers(-2, _V + 2),
                        )
                    )
                    for _ in range(ln)
                ]
            )
    # doc_id suffixes chosen to hit every augmentation class sometimes
    sfx = [
        draw(
            st.one_of(
                st.integers(0, 3000),
                st.just(_tk.DUPSEQ_MOD + _tk.DUPSEQ_RES),
                st.just(_tk.SEQND_MOD + _tk.SEQND_RES),
                st.just(_tk.DECON_PATCH_MOD + _tk.DECON_PATCH_RES),
            )
        )
        for _ in range(n)
    ]
    ids = [
        draw(st.one_of(st.just(None), st.just(f"seq-{s:012d}")))
        for s in sfx
    ]
    t = _pa.table(
        {
            "doc_id": _pa.array(ids, type=_pa.string()),
            "tokens": _pa.array(rows, type=_pa.list_(_pa.int32())),
            "source": _pa.array(["web"] * n, type=_pa.string()),
        }
    )
    # exercise the sliced-array path (offsets[0] > 0) half the time
    if n >= 2 and draw(st.booleans()):
        t = t.slice(1)
    return t


def _naive_capstone(t):
    out = []
    for r in t.to_pylist():
        if r["doc_id"] is None or r["tokens"] is None:
            continue
        s = int(r["doc_id"][-12:])
        toks = [-1 if x is None else x for x in r["tokens"]]
        if s % _tk.DUPSEQ_MOD == _tk.DUPSEQ_RES:
            toks = list(_tk.CANARY[: _tk.DUPSEQ_LEN_BASE + s % _tk.DUPSEQ_LEN_CHOICES])
        elif s % _tk.DECON_PATCH_MOD == _tk.DECON_PATCH_RES:
            m = min(_tk.CANARY_LEN, len(toks))
            toks = list(_tk.CANARY[:m]) + toks[m:]
        out.append((s, toks))
    return out


@given(_token_tables())
@settings(max_examples=120, deadline=None)
def test_capstone_view_matches_naive(t):
    sfx, offs, vals, lens, sel = _tk._capstone_view(t)
    naive = _naive_capstone(t)
    assert len(naive) == sel.num_rows == len(sfx) == len(lens)
    for i, (s, toks) in enumerate(naive):
        assert sfx[i] == s
        assert vals[offs[i] : offs[i + 1]].tolist() == toks


def _naive_seqnd(t):
    out = []
    for r in t.to_pylist():
        if r["doc_id"] is None or r["tokens"] is None:
            continue
        s = int(r["doc_id"][-12:])
        if s % _tk.SEQND_MOD == _tk.SEQND_RES:
            g = (s // (2 * _tk.SEQND_MOD)) % _V
            m = (s // _tk.SEQND_MOD) % 2
            toks = [
                (
                    _tk.SEQND_A * (g + 1)
                    + _tk.SEQND_B * (j + 1)
                    + (_tk.SEQND_C * (m + 1) if j >= _tk.SEQND_L - _tk.SEQND_TAIL else 0)
                )
                % _V
                for j in range(_tk.SEQND_L)
            ]
        else:
            toks = [-1 if x is None else x for x in r["tokens"]]
        if len(toks) >= _tk.DECON_K:
            out.append((r["doc_id"], toks))
    return out


@given(_token_tables())
@settings(max_examples=120, deadline=None)
def test_seqnd_view_matches_naive(t):
    ids, offs, vals = _tk._seqnd_view(t)
    ids = ids.to_pylist() if hasattr(ids, "to_pylist") else list(ids)
    naive = _naive_seqnd(t)
    assert len(naive) == len(ids)
    for i, (d, toks) in enumerate(naive):
        assert ids[i] == d
        assert vals[offs[i] : offs[i + 1]].tolist() == toks


# --- seq_repetition_scores kernel vs naive (incl. sliced-offset arrays) ----

rep_tokens = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            st.integers(min_value=0, max_value=3),  # bias toward collisions
        ),
        max_size=10,
    ),
)
rep_row = st.fixed_dictionaries(
    {
        "doc_id": st.one_of(st.none(), st.text(min_size=0, max_size=6)),
        "source": st.sampled_from(["web", "books"]),
        "tokens": rep_tokens,
    }
)


def _naive_rep(tokens):
    toks = [-1 if x is None else x for x in tokens]
    n = len(toks)
    nd = sum(1 for i in range(1, n) if toks[i] == toks[i - 1])
    dist = len(set(toks)) if n else 0
    top = max((toks.count(x) for x in set(toks)), default=0)
    rep = (n > 1 and nd * 10 > (n - 1) * 3) or (n > 0 and top * 5 > n)
    return (n, nd, dist, top, rep)


@settings(max_examples=200, deadline=None)
@given(st.lists(rep_row, min_size=0, max_size=12), st.integers(min_value=0, max_value=5))
def test_repetition_kernel_matches_naive(rows, cut):
    from product_quality_check_ray.pipelines.tokens import _repetition_batch

    t = pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "source": pa.array([r["source"] for r in rows], type=pa.string()),
            "tokens": pa.array([r["tokens"] for r in rows], type=pa.list_(pa.int32())),
        }
    )
    # exercise nonzero-offset (sliced) arrays too — Ray hands the kernel
    # slices of bigger blocks
    t = t.slice(min(cut, len(rows)))
    out = _repetition_batch(t).to_pydict()
    got = list(
        zip(
            out["doc_id"], out["source"], out["n_tok_actual"], out["n_adj_dup"],
            out["n_distinct"], out["top_tok_n"], out["repetitive"],
        )
    )
    expected = [
        (r["doc_id"], r["source"]) + _naive_rep(r["tokens"])
        for r in rows[min(cut, len(rows)):]
        if r["doc_id"] is not None and r["tokens"] is not None
    ]
    assert got == expected


# --- seq_prefix_dups verification kernel --------------------------------

prefix_list = st.lists(
    st.integers(min_value=0, max_value=1), min_size=0, max_size=8
)


@settings(max_examples=200, deadline=None)
@given(st.lists(prefix_list, min_size=0, max_size=25), st.data())
def test_prefix_pair_kernel_matches_naive(lists, data):
    """_verify_prefix_pairs must emit exactly the strict-prefix pairs a
    naive O(n^2) scan finds. Vocab {0,1} at lengths <= 8 makes anchor
    collisions and genuine prefix relations frequent; extra rows drawn as
    literal truncations of earlier rows guarantee positives."""
    from product_quality_check_ray.pipelines import tokens as tk

    K = tk.PREFIX_K
    # derive some rows as truncations of existing ones (the positive class)
    base = [l for l in lists if len(l) > K]
    for l in base[:5]:
        cut = data.draw(st.integers(min_value=K, max_value=len(l) - 1))
        lists = lists + [l[:cut]]
    rows = [l for l in lists if len(l) >= K]
    n = len(rows)
    offs = np.zeros(n + 1, dtype=np.int64)
    offs[1:] = np.cumsum([len(r) for r in rows])
    vals = np.asarray([x for r in rows for x in r], dtype=np.int32)
    tlen = offs[1:] - offs[:-1]
    sfx = np.full(n, -1, dtype=np.int64)
    _, anch = tk._anchor_hashes(sfx, offs, vals, aug=False)

    si, li = tk._verify_prefix_pairs(offs, vals, tlen, anch)
    got = sorted(zip(si.tolist(), li.tolist()))
    expected = sorted(
        (i, j)
        for i in range(n)
        for j in range(n)
        if len(rows[i]) < len(rows[j]) and rows[j][: len(rows[i])] == rows[i]
    )
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(row, min_size=0, max_size=30), st.booleans())
def test_footer_prescreen_sound_on_arbitrary_corpora(ray_session, rows, stats_on):
    """Soundness of the footer-statistics proofs on ARBITRARY corpora: a
    check the prescreen proves clean for a fragment must never fire on any
    of that fragment's rows per the (independently differential-tested) row
    kernel — including with statistics writing disabled (nothing may prove
    then, except vacuously on 0 rows)."""
    import os
    import tempfile

    import pyarrow.parquet as pq
    import ray as _ray

    from product_quality_check_ray.pipelines.tokens import (
        _PRESCREEN_CHECKS,
        _min_source_cap,
        _scan_stats_prescreen,
    )

    t = pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "tokens": pa.array([r["tokens"] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([r["n_tok"] for r in rows], type=pa.int32()),
            "source": pa.array([r["source"] for r in rows], type=pa.string()),
        }
    )
    ctx = build_check_ctx(vocab=VOCAB_SMALL)
    mat = row_check_matrix(t, ctx)
    fired = {name: bool(mat[:, j].any()) for j, name in enumerate(ROW_CHECK_NAMES)}

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "frag-000.parquet")
        pq.write_table(t, p, write_statistics=stats_on, row_group_size=7)
        [(path, n_rows, *flags)] = _ray.get(
            _scan_stats_prescreen.remote(
                [p], VOCAB_SMALL, _min_source_cap(), ctx["allowed_sources"]
            )
        )
    assert n_rows == t.num_rows
    for name, proven in zip(_PRESCREEN_CHECKS, flags):
        check = name[len("prove_") :]
        if proven:
            assert not fired[check], (check, rows)
    if not stats_on and t.num_rows:
        assert not any(flags)


# ---------------------------------------------------------------------------
# Round-4 property tests: BPE merge application + connected components
# ---------------------------------------------------------------------------


def _bpe_apply_naive(rows, merges):
    """Reference leftmost-greedy BPE application: per row, scan left to
    right consuming two tokens when they match the rule."""
    out_rows = []
    for row in rows:
        cur = list(row)
        for a, b, nid in merges:
            nxt, i = [], 0
            while i < len(cur):
                if i + 1 < len(cur) and cur[i] == a and cur[i + 1] == b:
                    nxt.append(nid)
                    i += 2
                else:
                    nxt.append(cur[i])
                    i += 1
            cur = nxt
        out_rows.append(cur)
    return out_rows


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=14),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_apply_bpe_merges_matches_naive(rows, pairs):
    """Vectorized merge application == the per-row scanning reference, on
    tiny-vocab rows engineered to hit a==b runs and cascades constantly."""
    import numpy as np

    from product_quality_check_ray.pipelines.tokens import _apply_bpe_merges

    merges = [(a, b, 100 + i) for i, (a, b) in enumerate(pairs)]
    lens = [len(r) for r in rows]
    offs = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    vals = np.array([t for r in rows for t in r], dtype=np.int32)
    o, v = _apply_bpe_merges(offs, vals, merges)
    got = [v[o[i] : o[i + 1]].tolist() for i in range(len(o) - 1)]
    assert got == _bpe_apply_naive(rows, merges)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([2, 3, 37]),
)
def test_connected_components_matches_union_find(ray_session, edges, ranges):
    """Distributed label propagation == driver union-find on arbitrary
    small random graphs (self-loops, duplicate edges, both orientations),
    at 2, 3 or 37 hash ranges."""
    import numpy as np

    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.state.components import (
        connected_components,
        union_find_labels,
    )

    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    want = union_find_labels(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=ranges: r)
        got = connected_components(a, b, driver_cap=0)
    assert got.equals(want)


# ---------------------------------------------------------------------------
# seq_incremental_dedup: hypothesis differential vs a python reference
# ---------------------------------------------------------------------------

_tok = st.one_of(st.none(), st.integers(min_value=-2, max_value=6))
_arr = st.one_of(st.none(), st.lists(_tok, min_size=0, max_size=5))


def _sentinel(arr):
    """The dup-family content view: null list ≡ (), null element ≡ -1."""
    if arr is None:
        return ()
    return tuple(-1 if x is None else int(x) for x in arr)


@settings(max_examples=30, deadline=None)
@given(
    base=st.lists(_arr, min_size=0, max_size=12),
    new=st.lists(_arr, min_size=1, max_size=12),
)
def test_incremental_dedup_matches_python_reference(ray_session, tmp_path_factory, base, new):
    import os
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.tokens import (
        seq_incremental_dedup_files,
    )

    d = tmp_path_factory.mktemp(f"inc{uuid.uuid4().hex[:8]}")

    def corpus(sub, arrays):
        p = os.path.join(str(d), sub)
        os.makedirs(p, exist_ok=True)
        t = pa.table(
            {
                "doc_id": pa.array(
                    [f"{sub}-{i:012d}" for i in range(len(arrays))], type=pa.string()
                ),
                "tokens": pa.array(arrays, type=pa.list_(pa.int32())),
                "n_tok": pa.array(
                    [len(a) if a is not None else None for a in arrays],
                    type=pa.int32(),
                ),
                "source": pa.array(["s"] * len(arrays), type=pa.string()),
            }
        )
        f = os.path.join(p, "frag-000.parquet")
        pq.write_table(t, f)
        return [f]

    fb = corpus("b", base if base else [[99]])  # base must have ≥1 file row
    fn = corpus("n", new)
    base_eff = base if base else [[99]]
    base_set = {_sentinel(a) for a in base_eff}
    expect = [
        f"n-{i:012d}" for i, a in enumerate(new) if _sentinel(a) not in base_set
    ]
    got = seq_incremental_dedup_files(fb, fn).column("doc_id").to_pylist()
    assert got == expect


# ---------------------------------------------------------------------------
# doc_tokenize: hypothesis differential vs a per-char python greedy matcher
# over RANDOM vocabularies and texts (round 5) — pins the greedy
# longest-match contract (no backtracking, unk consumes one char, per-word
# concatenation order) independent of the fixture vocab's structure.
# ---------------------------------------------------------------------------

_piece = st.text(alphabet="abcxy", min_size=1, max_size=4)
_word = st.text(alphabet="abcxyz9 ", min_size=0, max_size=14)


@settings(max_examples=25, deadline=None)
@given(
    pieces=st.lists(_piece, min_size=1, max_size=30, unique=True),
    texts=st.lists(_word, min_size=1, max_size=12),
)
def test_doc_tokenize_matches_python_greedy(ray_session, pieces, texts):
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.textprep import doc_tokenize

    with tempfile.TemporaryDirectory() as d:
        vt = pa.table(
            {
                "token_id": pa.array(range(len(pieces)), type=pa.int32()),
                "piece": pa.array(pieces, type=pa.string()),
            }
        )
        vp = os.path.join(d, "vocab.parquet")
        pq.write_table(vt, vp)
        docs = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        )
        pq.write_table(docs, os.path.join(d, "documents.parquet"))
        out = doc_tokenize(d, vocab_path=vp).to_pandas().set_index("doc_id")

        p2i = {p: i for i, p in enumerate(pieces)}
        max_l = max(len(p) for p in pieces)
        for did, text in enumerate(texts):
            toks, unk = [], 0
            for w in text.lower().split():
                pos = 0
                while pos < len(w):
                    for length in range(min(max_l, len(w) - pos), 0, -1):
                        tid = p2i.get(w[pos : pos + length])
                        if tid is not None:
                            toks.append(tid)
                            pos += length
                            break
                    else:
                        unk += 1
                        pos += 1
            row = out.loc[did]
            assert list(row.tokens) == toks, (text, pieces)
            assert row.n_unk == unk and row.n_tok == len(toks)
