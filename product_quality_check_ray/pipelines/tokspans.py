"""Exact duplicated-SPAN detection/removal over pre-tokenized sequences.

Token-axis twin of ``pipelines/substring.py`` (Lee et al. 2022 substring
dedup, arXiv:2107.06499): ``seq_lcs_pairs`` reports, for every row pair of
the sequences table, the longest run of consecutive shared TOKENS (and all
maximal shared runs ≥ the gram width); ``seq_strip_dup_spans`` cuts every
shared run ≥ ``min_run`` out of the higher-keyed copy (keep-first) and
rebuilds the token arrays. This is the dup class that matters most on the
north-star table: exact-content dedup (``seq_dup_token_arrays``) misses
partially-copied rows, near-dup (``seq_neardup_pairs``) misses a long quote
inside an otherwise-unrelated row, and prefix-dup (``seq_prefix_dups``)
misses interior spans.

Distributed shape — stricter than the document-side operator:

1. **Candidate generation is WINNOWED, then candidate→recover — never
   ship-all-grams.** A qualifying shared run has length ≥ ``min_run`` =
   W + L − 1 with W = min_run − L + 1, so by the winnowing guarantee
   (Schleimer, Wilkerson & Aiken 2003, "Winnowing: Local Algorithms for
   Document Fingerprinting") any such run contains a window selected as
   the minimum of some W consecutive window hashes in BOTH copies — and
   because selection is content-local, both rows select the same
   fingerprint. One streaming pass therefore emits only each row's
   SELECTED window hashes (ties select all — a superset, preserving the
   guarantee; expected density 2/(W+1) ≈ 11% at the defaults, an ~9×
   shuffle reduction over per-window emission) into the ``dupfinder``
   hash-range tree reduce with ``max_count=hot_cap``. The cap is safe for
   recall: a post-cap qualifying run consists of ≥ W consecutive NON-hot
   shared windows, whose aligned interior selection is a non-hot gram
   with ≤ hot_cap occurrences — so its selected count can never exceed
   the cap. Rows holding a duplicated fingerprint are the CANDIDATES; a
   second pass recovers the exact 4L-byte gram keys + (row key, position)
   for candidate rows only — on a healthy corpus a vanishing fraction, so
   the token payload never shuffles and no stage ever holds all grams.
2. **Exact anchor reduce with GLOBAL hot-cap counts.** A third thin pass
   re-streams window hashes, keeps only those matching a candidate gram
   (per-batch pre-aggregated, so a mega-hot gram collapses to one row per
   batch), and tree-reduces exact per-hash global counts. Hop-1 ranges on
   the gram key, groups candidate windows by the EXACT 4L-byte key
   (64-bit prefilter collisions are resolved here; hashes only route),
   drops buckets whose GLOBAL count exceeds ``hot_cap`` (the oracle's
   ``HAVING count(*) <= hot_cap`` — identical to counting before
   winnowing), and emits anchors (k_a < k_b, diag = pos_a − pos_b, pos_a)
   pre-split by pair hash with ``substring.emit_anchors``. Hops 2/3 are
   ``substring.py``'s island and interval-union (``union_spans``)
   reduces — maximal shared runs are gaps-and-islands over anchors on a
   diagonal, no suffix array needed. Every level (the count reduce
   included) is a ``core/exchange`` map/reduce round.
3. **Span application is a broadcast, not a join.** Merged removal spans
   are bounded by the duplicated-span victims (candidates ≪ corpus — the
   same contract as ``state/dupfinder``), so the driver assembles one
   (row_key, start, end) bundle, ``ray.put``\\ s it once, and the final
   streaming pass cuts each batch via searchsorted + one scatter-add keep
   mask. The corpus is read, never shuffled. (If a corpus ever violates
   the candidates-≪-corpus contract, fall back to the doc-side shape: a
   ``from_arrow_refs`` spans Dataset left-joined onto the corpus.)

Row identity and the duplicate-doc_id guard: rows are keyed by the numeric
12-digit doc_id suffix (``_doc_num`` — deterministic hash fallback for
arbitrary user ids, same contract as ``seq_split_assign``). Rows with a
NULL doc_id or a NON-UNIQUE key (the fixture's planted dup_doc_id rows —
two physical rows sharing an id but not content) are excluded from pairing
and pass through unchanged: applying spans computed against one row's
content to a different row sharing its id would corrupt user data, and
mixed-key anchor chains are not SQL-reproducible. Key uniqueness is
established by one thin pass (doc_id column only) through the dupfinder
reduce on ``splitmix64(key)`` — a bijection, so dup hashes ARE dup keys
and the exclusion is exact with no collision caveat.

Caps and exactness: the hash-level ``max_count=hot_cap`` drop mirrors the
oracle's ``HAVING count(*) <= hot_cap`` on exact grams up to 64-bit
collisions (two distinct grams sharing a hash whose combined count crosses
the cap — odds ~n²/2⁶⁴, the same documented contract as
``seq_prefix_dups``); everything downstream of recovery is exact.

Fixture non-vacuity (the ADVICE-r1 augmentation contract): on
fixture-provenance corpora only, rows with suffix % {MOD} == {RES} form
3-member families sharing a 40-token run planted at member-dependent
offsets inside otherwise member-unique 96-token arrays — generated by
integer affine formulas mirrored verbatim in the SQL oracle, so every
boundary (run starts on distinct diagonals, keep-first victim choice,
interval union) is exercised and SQL-checkable. User corpora run plain.

Reference analog: the reference dedupes whole answers only
(``app.py`` ``drop_duplicates``); span-level dedup is an operator this
engine adds for training-data curation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..core import exchange
from ..core.hashing import splitmix64
from ..core.schema import VOCAB
from .substring import (
    _ANCHOR_EMPTY,
    _hash_split,
    _reduce_pair_range,
    _reduce_pair_spans,
    emit_anchors,
    union_spans,
)
from .tokens import (
    _aug,
    _doc_num,
    _fsb_to_mat,
    _gather_windows,
    _intra,
    _key_hash64,
    _seq_ds,
    _suffix_i64,
    _tokens_parts,
    _window_hash64,
    _window_starts,
)

SPANDUP_GRAM = 8       # anchor width L (tokens); runs < L are invisible
SPANDUP_MIN_RUN = 24   # report/cut runs of at least this many shared tokens
SPANDUP_HOT_CAP = 64   # stop-list grams occurring more than this corpus-wide
SPANDUP_MOD = 331      # suffix % MOD == RES → planted span-family member
SPANDUP_RES = 9
SPANDUP_GEN_LEN = 96   # planted member array length
SPANDUP_RUN = 40       # planted shared-run length
SPANDUP_A, SPANDUP_B = 23, 41  # member-unique filler constants
SPANDUP_C, SPANDUP_D = 59, 19  # shared-run constants (< VOCAB: exact BIGINT)

_U64 = np.uint64
_COLS = ["doc_id", "tokens"]


def _spandup_tokens(sfx: np.ndarray) -> np.ndarray:
    """Planted member arrays ((n, GEN_LEN) int32): member m = (sfx//MOD)%3
    of group g = sfx//(3·MOD) carries the group-shared run
    (C·(g+1) + D·(q+1)) % V at positions [10+7m, 10+7m+RUN) inside
    member-unique filler (A·(g+1) + B·(m+1)·(j+1)) % V — mirrored verbatim
    in the SQL oracle. Distinct member slopes B·(m+1) keep fillers from
    aligning over a full window, so shared windows are exactly the run."""
    g = sfx // (3 * SPANDUP_MOD)
    m = (sfx // SPANDUP_MOD) % 3
    j = np.arange(SPANDUP_GEN_LEN, dtype=np.int64)
    s = (10 + 7 * m)[:, None]
    filler = (
        SPANDUP_A * (g + 1)[:, None] + SPANDUP_B * (m + 1)[:, None] * (j + 1)[None, :]
    ) % VOCAB
    run = (SPANDUP_C * (g + 1)[:, None] + SPANDUP_D * (j[None, :] - s + 1)) % VOCAB
    in_run = (j[None, :] >= s) & (j[None, :] < s + SPANDUP_RUN)
    return np.where(in_run, run, filler).astype(np.int32)


def _span_view(t: pa.Table, aug: bool):
    """(ids, key int64, offs int64[n+1], vals int32) of the span-augmented
    view — one entry per INPUT row. Planted rows' arrays are replaced by
    the generated family member (plant wins over null tokens); non-planted
    null-token rows become empty. Null list elements are -1
    (``_tokens_parts`` convention, SQL ``coalesce(x, -1)``)."""
    ids = t.column("doc_id").combine_chunks()
    toks = t.column("tokens")
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    n = t.num_rows
    if n == 0:
        return ids, np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0, np.int32)
    sfx = _suffix_i64(ids)
    key = _doc_num(ids)
    offs, vals = _tokens_parts(toks)
    base = offs - offs[0]
    lens = offs[1:] - offs[:-1]
    tvalid = np.asarray(pc.is_valid(toks).to_numpy(zero_copy_only=False), dtype=bool)
    planted = aug & (sfx >= 0) & (sfx % SPANDUP_MOD == SPANDUP_RES)
    drop = planted | ~tvalid  # rows whose original values leave the buffer
    lens_eff = np.where(planted, SPANDUP_GEN_LEN, np.where(tvalid, lens, 0))
    span = vals[offs[0] : offs[-1]]
    offs_eff = np.concatenate(([0], np.cumsum(lens_eff)))
    if not drop.any():
        return ids, key, offs_eff, span
    keep_m = np.ones(span.size, dtype=bool)
    drows = np.flatnonzero(drop)
    cd = lens[drows]
    if cd.sum():
        keep_m[np.repeat(base[:-1][drows], cd) + _intra(cd)] = False
    main = span[keep_m]
    prows = np.flatnonzero(planted)
    if prows.size == 0:
        return ids, key, offs_eff, main
    gen = _spandup_tokens(sfx[prows])
    # kept values strictly before each planted row's original position
    dropped_before = np.cumsum(cd) - cd
    kept_before = base[:-1][prows] - dropped_before[np.searchsorted(drows, prows)]
    pieces: list[np.ndarray] = []
    prev = 0
    for i, pos in enumerate(kept_before):
        pieces.append(main[prev:pos])
        pieces.append(gen[i])
        prev = pos
    pieces.append(main[prev:])
    return ids, key, offs_eff, np.concatenate(pieces) if pieces else main


def _in_sorted(sorted_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    if sorted_vals.size == 0:
        return np.zeros(x.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_vals, x), sorted_vals.size - 1)
    return sorted_vals[pos] == x


def _pairable(ids, key: np.ndarray, dup_sorted: np.ndarray) -> np.ndarray:
    """dup_sorted holds sorted uint64 splitmix64 images of the dup keys —
    membership re-applies the bijection to ``key`` before searching."""
    valid = np.asarray(pc.is_valid(ids).to_numpy(zero_copy_only=False), dtype=bool)
    return valid & ~_in_sorted(dup_sorted, splitmix64(key.view(_U64)))


def _dup_keys(sf_dir: str) -> np.ndarray:
    """Sorted uint64 splitmix64 images of the keys occurring ≥ 2 times among
    valid-doc_id rows — one thin pass (doc_id column only) through the
    dupfinder reduce on ``splitmix64(key)`` (bijective → exact, and uniform
    so hash ranges partition evenly though raw suffixes are dense ints)."""
    from ..state.dupfinder import find_dup_hash_values

    def keys(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").combine_chunks()
        valid = np.asarray(pc.is_valid(ids).to_numpy(zero_copy_only=False), dtype=bool)
        k = _doc_num(ids)[valid]
        return pa.table({"h": pa.array(splitmix64(k.view(_U64)).view(np.int64))})

    hashed = _seq_ds(sf_dir, columns=["doc_id"]).map_batches(
        keys, batch_format="pyarrow", batch_size=None
    )
    dup_h = find_dup_hash_values(hashed, "h")
    if dup_h.size == 0:
        return np.empty(0, dtype=_U64)
    # inverting the bijection is unnecessary: _pairable re-applies it
    return np.sort(dup_h.view(_U64))


@ray.remote
def _map_tokgram_blocks(block_refs: list, ranges: int) -> tuple:
    """Hop-0 map: one group of recovered candidate blocks, split into the
    gram-key-hash ranges. The exact 4L-byte key rides as an (n, L/2)
    uint64 matrix (numpy-lexsortable — no object-array round trip); L is
    inferred from the fixed-size-binary width."""
    t = exchange.fetch_table(block_refs, ["g", "k", "p"])
    if t is None:
        e = (np.empty((0, 1), dtype=_U64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return (e,) * ranges
    L = t.column("g").type.byte_width // 4
    mat = np.ascontiguousarray(_fsb_to_mat(t.column("g"), L))
    k = t.column("k").to_numpy(zero_copy_only=False).astype(np.int64)
    p = t.column("p").to_numpy(zero_copy_only=False).astype(np.int64)
    return _hash_split(_key_hash64(mat), ranges, mat.view(_U64), k, p)


@ray.remote
def _reduce_tokgram_range(hot_cap: int, pair_ranges: int, counts, *parts) -> tuple:
    """Hop 1: group one gram-hash range by the EXACT 4L-byte key, drop
    buckets whose GLOBAL hash count (from the cap-count reduce) exceeds
    ``hot_cap``, emit anchors (``substring.emit_anchors``: k_a < k_b, diag,
    pos_a) split by pair hash, so hops 2/3 are shared with the word
    operator."""
    q = np.concatenate([p[0] for p in parts], axis=0)
    if q.shape[0] == 0:
        return (_ANCHOR_EMPTY,) * pair_ranges
    gh, gc = counts
    k = np.concatenate([p[1] for p in parts])
    p_ = np.concatenate([p[2] for p in parts])
    order = np.lexsort((p_, k) + tuple(q[:, w] for w in range(q.shape[1] - 1, -1, -1)))
    q, k, p_ = np.ascontiguousarray(q[order]), k[order], p_[order]
    change = np.empty(k.size, dtype=bool)
    change[0] = True
    change[1:] = (q[1:] != q[:-1]).any(axis=1)
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, k.size])
    # global count per bucket: recompute the routing hash of each bucket's
    # exact key and look it up in the (hash → global count) reduce output
    bh = _key_hash64(np.ascontiguousarray(q[starts]).view(np.int32))
    if gh.size:
        pos = np.minimum(np.searchsorted(gh, bh), gh.size - 1)
        bglobal = np.where(gh[pos] == bh, gc[pos], sizes)
    else:  # defensive: unknown hash falls back to the local size
        bglobal = sizes
    return emit_anchors(starts, sizes, k, p_, bglobal <= hot_cap, pair_ranges)


def _winnow_selected(wh: np.ndarray, m: np.ndarray, W: int) -> np.ndarray:
    """Winnowing selection mask over per-row window hashes.

    ``wh`` is the row-major concatenation of every row's window hashes and
    ``m`` the per-row window counts. Window i of a row is selected iff its
    hash equals the minimum of SOME W-window of that row's hashes covering
    i (ties select all; windows clamp at row edges — a recall-safe
    superset). Since every covering window's min is ≤ h[i], that is
    exactly ``max over covering windows of (window min) == h[i]`` — two
    sliding passes (min of width W, then max of width W) over a single
    uint64-max-padded flat buffer whose W−1 pads separate rows, so no
    per-row Python loop and no cross-row contamination."""
    if W <= 1 or wh.size == 0:
        return np.ones(wh.size, dtype=bool)
    pad = W - 1
    tot = int(m.sum()) + pad * (m.size + 1)
    padded = np.full(tot, np.iinfo(_U64).max, dtype=_U64)
    dest = pad + np.repeat(np.cumsum(m + pad) - (m + pad), m) + _intra(m)
    padded[dest] = wh
    # O(N) sliding extrema (van Herk / Gil–Werman blocks) — the
    # sliding_window_view reduction was O(N·W) and dominated the whole
    # anchor pipeline's per-batch profile at W=17
    wmin = _slide_extreme(padded, W, np.minimum, np.iinfo(_U64).max)
    cover_max = _slide_extreme(wmin, W, np.maximum, 0)
    return cover_max[dest - pad] == wh


def _slide_extreme(a: np.ndarray, W: int, op, fill) -> np.ndarray:
    """Exact sliding min/max of width ``W`` over 1-D ``a`` (output size
    ``a.size − W + 1``) in O(N): van Herk–Gil–Werman — combine each W-block's
    running prefix extremum with the next block's running suffix extremum.
    ``fill`` must be ``op``'s identity (uint64 max for min, 0 for max)."""
    n = a.size
    out_n = n - W + 1
    nb = -(-n // W)
    buf = np.full(nb * W, fill, dtype=a.dtype)
    buf[:n] = a
    blocks = buf.reshape(nb, W)
    pre = op.accumulate(blocks, axis=1).reshape(-1)
    suf = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1)
    return op(suf[:out_n], pre[W - 1 : W - 1 + out_n])


@ray.remote
def _map_count_blocks(block_refs: list, ranges: int) -> tuple:
    """Count-reduce map: one block group's (hash, count) pairs (already
    pre-aggregated per batch) summed per hash and split into the hash
    ranges."""
    t = exchange.fetch_table(block_refs, ["h", "c"])
    if t is None:
        return ((np.empty(0, dtype=_U64), np.empty(0, dtype=np.int64)),) * ranges
    h = t.column("h").to_numpy(zero_copy_only=False).astype(np.int64).view(_U64)
    c = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(h, kind="stable")
    hv, cv = exchange.segment_sum(h[order], c[order])
    return tuple(exchange.split(hv, ranges, hv, cv))


@ray.remote
def _merge_spans_np(*parts) -> tuple:
    """Hop 3 (strip variant): ``substring.union_spans`` per row key over
    one key-hash range, returned as three plain numpy arrays (key, start,
    end) for the driver's broadcast bundle instead of a CSV-encoded join
    table."""
    d = np.concatenate([p[0] for p in parts])
    if d.size == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    return union_spans(
        d, np.concatenate([p[1] for p in parts]), np.concatenate([p[2] for p in parts])
    )


def _anchor_refs(sf_dir: str, L: int, min_run: int, hot_cap: int, aug: bool):
    """Shared hops for both operators: dup-key exclusion, window-hash
    candidate reduce, exact-gram recovery, hop-1 anchor reduce. Returns
    (ranges, anchor_refs | None)."""
    from ..state.dupfinder import _combine_range, find_dup_hash_values

    if L % 2 or L < 2:
        raise ValueError("gram width L must be a positive multiple of 2")
    gtype = pa.binary(4 * L)
    ranges = exchange.range_count()
    dup_sorted = _dup_keys(sf_dir)

    W = min_run - L + 1
    if W < 1:
        raise ValueError("min_run must be >= the gram width L")

    def _view_windows(t: pa.Table):
        """(flat values, window starts, row-of-window, window counts, keys)
        of the batch's pairable rows — None when the batch has none."""
        ids, key, offs, vals = _span_view(t, aug)
        ok = _pairable(ids, key, dup_sorted)
        if not ok.any():
            return None
        sel_off = np.concatenate(([0], np.cumsum((offs[1:] - offs[:-1])[ok])))
        sel_vals = _filter_rows(offs, vals, ok)
        starts, gdoc, m = _window_starts(sel_off, L)
        if starts.size == 0:
            return None
        return sel_vals, sel_off, starts, gdoc, m, key[ok]

    def win_fps(t: pa.Table) -> pa.Table:
        vw = _view_windows(t)
        if vw is None:
            return pa.table({"h": pa.array([], type=pa.int64())})
        sel_vals, _off, starts, _gdoc, m, _key = vw
        wh = _window_hash64(sel_vals, L)[starts]
        sel = _winnow_selected(wh, m, W)
        return pa.table({"h": pa.array(wh[sel].view(np.int64))})

    fps = _seq_ds(sf_dir, columns=_COLS).map_batches(
        win_fps, batch_format="pyarrow", batch_size=2048
    )
    dup_fp = find_dup_hash_values(fps, "h", max_count=hot_cap)
    if dup_fp.size == 0:
        return ranges, None
    fp_sorted = np.sort(dup_fp.view(_U64))

    def recover(t: pa.Table) -> pa.Table:
        no = pa.table(
            {
                "g": pa.array([], type=gtype),
                "k": pa.array([], type=pa.int64()),
                "p": pa.array([], type=pa.int64()),
            }
        )
        vw = _view_windows(t)
        if vw is None:
            return no
        sel_vals, sel_off, starts, gdoc, m, key = vw
        wh = _window_hash64(sel_vals, L)[starts]
        hit = _winnow_selected(wh, m, W) & _in_sorted(fp_sorted, wh)
        cand_rows = np.zeros(m.size, dtype=bool)
        cand_rows[gdoc[hit]] = True  # ALL windows of flagged rows re-emit
        mm = np.flatnonzero(cand_rows[gdoc])
        if mm.size == 0:
            return no
        win = _gather_windows(sel_vals, starts[mm], L)
        garr = pa.Array.from_buffers(
            gtype, mm.size, [None, pa.py_buffer(np.ascontiguousarray(win).tobytes())]
        )
        return pa.table(
            {
                "g": garr,
                "k": pa.array(key[gdoc[mm]]),
                "p": pa.array(starts[mm] - sel_off[:-1][gdoc[mm]]),
            }
        )

    # materialize: grams is consumed twice (block refs below + the
    # candidate-hash union) — without this the second consumer re-executes
    # the full recover scan over the corpus
    grams = _seq_ds(sf_dir, columns=_COLS).map_batches(
        recover, batch_format="pyarrow", batch_size=2048
    ).materialize()
    groups = exchange.block_groups(grams)
    if not groups:
        return ranges, None

    # candidate gram hash set (driver union of per-block uniques — bounded
    # by the candidates-≪-corpus contract, like the spans bundle)
    from ..core.collect import collect_table as _collect

    def _block_hashes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], type=pa.int64())})
        mat = np.ascontiguousarray(_fsb_to_mat(t.column("g"), L))
        return pa.table({"h": pa.array(np.unique(_key_hash64(mat)).view(np.int64))})

    cg = _collect(grams.map_batches(_block_hashes, batch_format="pyarrow"))
    cg_sorted = np.unique(
        cg.column("h").to_numpy(zero_copy_only=False).astype(np.int64).view(_U64)
    )

    def cap_hashes(t: pa.Table) -> pa.Table:
        no = pa.table(
            {"h": pa.array([], type=pa.int64()), "c": pa.array([], type=pa.int64())}
        )
        vw = _view_windows(t)
        if vw is None:
            return no
        sel_vals, _off, starts, _gdoc, _m, _key = vw
        wh = _window_hash64(sel_vals, L)[starts]
        wh = wh[_in_sorted(cg_sorted, wh)]
        if wh.size == 0:
            return no
        hv, cv = np.unique(wh, return_counts=True)  # pre-aggregate per batch
        return pa.table(
            {"h": pa.array(hv.view(np.int64)), "c": pa.array(cv.astype(np.int64))}
        )

    counted = _seq_ds(sf_dir, columns=_COLS).map_batches(
        cap_hashes, batch_format="pyarrow", batch_size=2048
    )
    # exact global count per hash, each range sorted (dupfinder's combine)
    creduced = ray.get(
        exchange.run(_map_count_blocks, exchange.block_groups(counted), _combine_range, ranges)
    )
    gh = np.concatenate([r[0] for r in creduced])  # ranges are hash-ordered
    gc = np.concatenate([r[1] for r in creduced])
    counts_ref = ray.put((gh, gc))

    mapped = exchange.map_ranges(_map_tokgram_blocks, groups, ranges)
    anchors = exchange.reduce_ranges(
        mapped, _reduce_tokgram_range, ranges, hot_cap, ranges, counts_ref, returns=ranges
    )
    return ranges, anchors


def span_anchor_exchange(
    sf_dir: str,
    L: int = SPANDUP_GRAM,
    min_run: int = SPANDUP_MIN_RUN,
    hot_cap: int = SPANDUP_HOT_CAP,
    *,
    augment: bool | None = None,
):
    """Materialize the shared anchor exchange ONCE for suite-mode reuse
    (VERDICT r4 item 7): ``seq_lcs_pairs`` and ``seq_strip_dup_spans``
    share every hop up to the hop-1 anchor reduce (five sequential
    hash-range rounds — the dominant cost of both walls); pass the
    returned handle to both via ``precomputed_anchors`` and the corpus is
    scanned once instead of twice.  Anchor refs are immutable object-store
    tables, so both consumers read them zero-copy."""
    aug = _aug(sf_dir, augment)
    return _anchor_refs(sf_dir, L, min_run, hot_cap, aug)


def _filter_rows(offs: np.ndarray, vals: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Flat values of the ok-masked rows (offs are view-local, base 0)."""
    if ok.all():
        return vals
    lens = offs[1:] - offs[:-1]
    rows = np.flatnonzero(ok)
    c = lens[rows]
    if c.sum() == 0:
        return np.empty(0, dtype=vals.dtype)
    return vals[np.repeat(offs[:-1][rows], c) + _intra(c)]


_LCS_SCHEMA = pa.schema(
    [
        ("doc_sfx_a", pa.int64()),
        ("doc_sfx_b", pa.int64()),
        ("max_run", pa.int64()),
        ("n_runs", pa.int64()),
        ("n_anchors", pa.int64()),
    ]
)


def seq_lcs_pairs(
    sf_dir: str,
    L: int = SPANDUP_GRAM,
    min_run: int = SPANDUP_MIN_RUN,
    hot_cap: int = SPANDUP_HOT_CAP,
    *,
    augment: bool | None = None,
    precomputed_anchors=None,
) -> pa.Table:
    """Row pairs sharing a token run of ≥ ``min_run`` tokens, with the exact
    longest shared run, number of maximal shared runs (≥ L) and anchor
    count. Keys are the numeric doc_id suffixes (hash fallback for user
    ids). Output (doc_sfx_a, doc_sfx_b, max_run, n_runs, n_anchors).
    ``precomputed_anchors`` (from ``span_anchor_exchange``) skips the
    shared candidate/recover/anchor hops in suite mode."""
    aug = _aug(sf_dir, augment)
    ranges, anchors = (
        precomputed_anchors
        if precomputed_anchors is not None
        else _anchor_refs(sf_dir, L, min_run, hot_cap, aug)
    )
    if anchors is None:
        return _LCS_SCHEMA.empty_table()
    reduced = ray.get(
        exchange.reduce_ranges(anchors, _reduce_pair_range, ranges, L, min_run)
    )
    nonempty = [r for r in reduced if len(r[0])]
    if not nonempty:
        return _LCS_SCHEMA.empty_table()
    cols = [np.concatenate([r[j] for r in nonempty]) for j in range(5)]
    order = np.lexsort((cols[1], cols[0]))
    return pa.table(
        {f.name: pa.array(c[order], type=pa.int64()) for f, c in zip(_LCS_SCHEMA, cols)}
    )


def seq_strip_dup_spans(
    sf_dir: str,
    L: int = SPANDUP_GRAM,
    min_run: int = SPANDUP_MIN_RUN,
    hot_cap: int = SPANDUP_HOT_CAP,
    *,
    augment: bool | None = None,
    precomputed_anchors=None,
) -> rd.Dataset:
    """Cut every shared token run ≥ ``min_run`` out of the higher-keyed row
    of each pair (keep-first) and rebuild the corpus — one output row per
    input row: (doc_id, tokens_clean space-joined string, n_tok_clean,
    n_removed, n_spans). Rows with NULL doc_id or a non-unique key pass
    through unchanged (see module docstring). ``precomputed_anchors``
    (from ``span_anchor_exchange``) skips the shared hops in suite mode."""
    aug = _aug(sf_dir, augment)
    ranges, anchors = (
        precomputed_anchors
        if precomputed_anchors is not None
        else _anchor_refs(sf_dir, L, min_run, hot_cap, aug)
    )
    if anchors is None:
        doc = np.empty(0, dtype=np.int64)
        spans_ref = ray.put((doc, doc, doc))
    else:
        span_parts = exchange.reduce_ranges(
            anchors, _reduce_pair_spans, ranges, L, min_run, ranges, returns=ranges
        )
        merged = ray.get(exchange.reduce_ranges(span_parts, _merge_spans_np, ranges))
        doc = np.concatenate([m[0] for m in merged])
        s = np.concatenate([m[1] for m in merged])
        e = np.concatenate([m[2] for m in merged])
        order = np.lexsort((s, doc))
        spans_ref = ray.put((doc[order], s[order], e[order]))

    def cut(t: pa.Table) -> pa.Table:
        ids, key, offs, vals = _span_view(t, aug)
        sdoc, ss, se = ray.get(spans_ref)
        n = t.num_rows
        lens = offs[1:] - offs[:-1]
        lo = np.searchsorted(sdoc, key, side="left")
        hi = np.searchsorted(sdoc, key, side="right")
        counts = hi - lo
        row_of_span = np.repeat(np.arange(n, dtype=np.int64), counts)
        span_idx = np.repeat(lo, counts) + _intra(counts)
        s_f, e_f = ss[span_idx], se[span_idx]
        diff = np.zeros(int(offs[-1]) + 1, dtype=np.int64)
        np.add.at(diff, offs[:-1][row_of_span] + s_f, 1)
        np.add.at(diff, offs[:-1][row_of_span] + e_f, -1)
        keep = np.cumsum(diff[:-1]) == 0
        removed = np.zeros(n, dtype=np.int64)
        np.add.at(removed, row_of_span, e_f - s_f)
        kept = vals[: offs[-1]][keep] if offs[-1] else vals[:0]
        new_off = np.r_[0, np.cumsum(lens - removed)]
        toks = pa.LargeListArray.from_arrays(
            pa.array(new_off, type=pa.int64()),
            pc.cast(pa.array(kept), pa.string()),
        )
        return pa.table(
            {
                "doc_id": ids,
                "tokens_clean": pc.binary_join(toks, " "),
                "n_tok_clean": pa.array(lens - removed),
                "n_removed": pa.array(removed),
                "n_spans": pa.array(counts.astype(np.int64)),
            }
        )

    return _seq_ds(sf_dir, columns=_COLS).map_batches(
        cut, batch_format="pyarrow", batch_size=8192
    )
