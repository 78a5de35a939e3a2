"""Exact substring-level duplicate detection between documents.

``doc_lcs_pairs`` finds, for every document pair, the LONGEST run of
consecutive shared words (and all maximal shared runs ≥ the gram width),
exactly — the substring-dedup criterion popularized for LLM training
corpora by Lee et al. 2022 ("Deduplicating Training Data Makes Language
Models Better", arXiv:2107.06499), which whole-doc fingerprints and
MinHash both miss (quotes, boilerplate headers, partially-copied docs).

Lee et al. build one giant suffix array; that is the single-machine shape.
The Ray-native equivalent used here needs no global ordered structure:

1. **Anchor join** — every position emits its L-word gram; docs sharing a
   gram yield anchor matches ``(doc_a, doc_b, pos_a, pos_b)``. A shared
   word-run of length R ≥ L is EXACTLY a chain of R−L+1 consecutive
   anchors on one diagonal (``pos_a − pos_b`` constant), so no suffix
   array is needed: maximal runs are gaps-and-islands over anchors.
2. **Two-hop hash-range tree reduce** on ``core/exchange`` (the
   ``state/pairreduce.py`` pattern): hop 1 ranges on the gram, groups
   exact gram strings (collision-free — the hash only routes), stop-lists
   grams hotter than ``hot_cap`` docs-positions (boilerplate; drop, not
   truncate, so the result stays SQL-reproducible), and emits anchors
   pre-partitioned by a pair hash (``emit_anchors``); hop 2 ranges on the
   pair, sorts each pair's anchors by (diagonal, pos) and reduces islands
   → per-pair (max_run, n_runs, n_anchors) with numpy reduceat — no
   per-pair Python loop, and the driver only ever sees per-pair
   aggregates, never anchors.

Partitioning assumptions: gram hashes are uniform (they are — xxhash
routes them); per-gram anchor fan-out is bounded by ``hot_cap``²; each
doc pair's anchors co-locate in exactly one hop-2 range by construction.
At 100 TB the gram strings (~L words each) dominate hop-1 shuffle volume;
they stay strings so hop 1 groups on the very key the DuckDB oracle joins
on.

Reference analog: the reference dedupes at whole-answer granularity only
(pandas ``drop_duplicates`` in ``app.py``); substring-level dedup is one
of the training-data operators this engine adds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..core import exchange
from ..core.hashing import hash_ints, hash_strings
from .text import _docs, _split_words

LCS_GRAM = 8  # anchor width L: shared runs shorter than L words are invisible
LCS_MIN_RUN = 16  # report pairs whose longest shared run is >= this many words
LCS_HOT_CAP = 64  # stop-list grams occurring more than this many times corpus-wide
_RANGE_SEED = 23
_PAIR_SEED = 29


def gram_positions(t: pa.Table, L: int = LCS_GRAM) -> pa.Table:
    """(gram, doc_id, pos) for every L-word window of every doc in a batch.

    Vectorized: one whitespace split for the whole batch, L takes of the
    flat word array joined with ``binary_join_element_wise`` — no per-doc
    Python loop (same flat-buffer idiom as ``text._winnow_batch``).
    """
    empty = pa.table(
        {
            "gram": pa.array([], type=pa.string()),
            "doc_id": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    m_grams = np.maximum(lens - L + 1, 0)
    total = int(m_grams.sum())
    if total == 0:
        return empty
    grp = np.cumsum(m_grams) - m_grams
    intra = np.arange(total, dtype=np.int64) - np.repeat(grp, m_grams)
    pos_flat = np.repeat(off[:-1], m_grams) + intra
    parts: list = []
    for j in range(L):
        parts.append(flat.take(pa.array(pos_flat + j)))
    gram = pc.binary_join_element_wise(*parts, " ")
    return pa.table(
        {
            "gram": gram,
            "doc_id": pa.array(np.repeat(ids, m_grams)),
            "pos": pa.array(intra),
        }
    )


def _hash_split(h: np.ndarray, ranges: int, *cols: np.ndarray) -> tuple:
    """``cols`` cut into the ``ranges`` hash ranges of their hashes ``h``."""
    order = np.argsort(h, kind="stable")
    return tuple(exchange.split(h[order], ranges, *(c[order] for c in cols)))


_ANCHOR_EMPTY = tuple(np.empty(0, dtype=np.int64) for _ in range(4))


@ray.remote
def _map_gram_blocks(block_refs: list, ranges: int) -> tuple:
    """Hop-0 map: one block group's (grams, doc_ids, poss), split into the
    gram-hash ranges; partials route worker→worker — the driver holds only
    ObjectRefs."""
    t = exchange.fetch_table(block_refs, ["gram", "doc_id", "pos"])
    if t is None:
        e = (np.empty(0, dtype=object), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return (e,) * ranges
    grams = t.column("gram").combine_chunks()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    pos = t.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
    g = np.asarray(grams.to_pylist(), dtype=object)
    return _hash_split(hash_strings(grams, seed=_RANGE_SEED), ranges, g, ids, pos)


def emit_anchors(
    starts: np.ndarray,
    sizes: np.ndarray,
    ids: np.ndarray,
    pos: np.ndarray,
    keep: np.ndarray,
    pair_ranges: int,
) -> tuple:
    """Anchors of the kept exact-key buckets, split into the pair-hash
    ranges: per range (doc_a, doc_b, diag = pos_a − pos_b, pos_a).

    Bucket j holds rows ``starts[j] : starts[j] + sizes[j]`` of ``ids`` /
    ``pos``, sorted by (id, pos) within the bucket; ``keep`` is the
    caller's hot-cap verdict per bucket. Every cross-doc row pair of a
    kept bucket is one anchor, oriented so doc_a < doc_b."""
    da_l, db_l, dg_l, pa_l = [], [], [], []
    # python loop only over SHARED buckets (size >= 2, two+ docs) — the
    # long unique tail is skipped wholesale
    shared = keep & (sizes >= 2)
    for lo, sz in zip(starts[shared], sizes[shared]):
        bi = ids[lo : lo + sz]
        if bi[0] == bi[-1]:  # single doc (rows are id-sorted) — no pairs
            continue
        bp = pos[lo : lo + sz]
        ia, ib = np.triu_indices(sz, k=1)
        cross = bi[ia] != bi[ib]
        ia, ib = ia[cross], ib[cross]
        da_l.append(bi[ia])
        db_l.append(bi[ib])
        dg_l.append(bp[ia] - bp[ib])
        pa_l.append(bp[ia])
    if not da_l:
        return (_ANCHOR_EMPTY,) * pair_ranges
    da = np.concatenate(da_l)
    db = np.concatenate(db_l)
    with np.errstate(over="ignore"):
        mix = da.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + db.astype(np.uint64)
    h = hash_ints(mix, seed=_PAIR_SEED)
    return _hash_split(h, pair_ranges, da, db, np.concatenate(dg_l), np.concatenate(pa_l))


@ray.remote
def _reduce_gram_range(hot_cap: int, pair_ranges: int, *parts) -> tuple:
    """Hop 1: group one gram-hash range by EXACT gram, emit anchors
    (``emit_anchors``) split into ``pair_ranges`` pair-hash ranges, so the
    anchor volume never converges anywhere — each hop-2 task sees only its
    pair range. Buckets hotter than ``hot_cap`` rows are dropped whole
    (stop-list)."""
    grams = np.concatenate([p[0] for p in parts])
    if grams.size == 0:
        return (_ANCHOR_EMPTY,) * pair_ranges
    ids = np.concatenate([p[1] for p in parts])
    pos = np.concatenate([p[2] for p in parts])
    df = pd.DataFrame({"g": grams, "i": ids, "p": pos}).sort_values(
        ["g", "i", "p"], kind="mergesort"
    )
    g, i, p = (df[c].to_numpy() for c in ("g", "i", "p"))
    change = np.empty(g.size, dtype=bool)
    change[0] = True
    change[1:] = g[1:] != g[:-1]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, g.size])
    return emit_anchors(starts, sizes, i, p, sizes <= hot_cap, pair_ranges)


@ray.remote
def _reduce_pair_range(L: int, min_run: int, *parts):
    """Hop 2: gaps-and-islands over one pair-hash range of anchors.

    One global lexsort by (doc_a, doc_b, diag, pos); islands are breaks in
    consecutive pos on a diagonal; per-pair max/count/sum via reduceat.
    """
    empty = tuple(np.empty(0, dtype=np.int64) for _ in range(5))
    da = np.concatenate([p[0] for p in parts])
    if da.size == 0:
        return empty
    db = np.concatenate([p[1] for p in parts])
    dg = np.concatenate([p[2] for p in parts])
    pp = np.concatenate([p[3] for p in parts])
    order = np.lexsort((pp, dg, db, da))
    da, db, dg, pp = da[order], db[order], dg[order], pp[order]
    new_diag = np.empty(da.size, dtype=bool)
    new_diag[0] = True
    new_diag[1:] = (da[1:] != da[:-1]) | (db[1:] != db[:-1]) | (dg[1:] != dg[:-1])
    new_isl = new_diag.copy()
    new_isl[1:] |= np.diff(pp) != 1
    isl_starts = np.flatnonzero(new_isl)
    isl_sizes = np.diff(np.r_[isl_starts, da.size])
    run_len = isl_sizes + L - 1
    ida, idb = da[isl_starts], db[isl_starts]
    new_pair = np.empty(ida.size, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (ida[1:] != ida[:-1]) | (idb[1:] != idb[:-1])
    p_starts = np.flatnonzero(new_pair)
    max_run = np.maximum.reduceat(run_len, p_starts)
    n_runs = np.diff(np.r_[p_starts, ida.size])
    n_anchors = np.add.reduceat(isl_sizes, p_starts)
    keep = max_run >= min_run
    return (
        ida[p_starts][keep],
        idb[p_starts][keep],
        max_run[keep],
        n_runs[keep],
        n_anchors[keep],
    )


_SPAN_EMPTY = tuple(np.empty(0, dtype=np.int64) for _ in range(3))


@ray.remote
def _reduce_pair_spans(L: int, min_run: int, doc_ranges: int, *parts) -> tuple:
    """Hop 2 (strip variant): islands as in ``_reduce_pair_range``, but emit
    one REMOVAL SPAN per qualifying run, charged to the higher doc_id of the
    pair (keep-first policy: the lowest doc keeps its text). Span is in the
    victim doc's word coordinates: ``[pos_b, pos_b + run_len)``, and spans
    leave split into ``doc_ranges`` doc-hash ranges so hop 3 can
    interval-union each doc's spans without any Dataset shuffle."""
    da = np.concatenate([p[0] for p in parts])
    if da.size == 0:
        return (_SPAN_EMPTY,) * doc_ranges
    db = np.concatenate([p[1] for p in parts])
    dg = np.concatenate([p[2] for p in parts])
    pp = np.concatenate([p[3] for p in parts])
    order = np.lexsort((pp, dg, db, da))
    da, db, dg, pp = da[order], db[order], dg[order], pp[order]
    new_isl = np.empty(da.size, dtype=bool)
    new_isl[0] = True
    new_isl[1:] = (
        (da[1:] != da[:-1]) | (db[1:] != db[:-1]) | (dg[1:] != dg[:-1]) | (np.diff(pp) != 1)
    )
    starts = np.flatnonzero(new_isl)
    run_len = np.diff(np.r_[starts, da.size]) + L - 1
    keep = run_len >= min_run
    starts, run_len = starts[keep], run_len[keep]
    if starts.size == 0:
        return (_SPAN_EMPTY,) * doc_ranges
    s = pp[starts] - dg[starts]  # pos_b of the island start
    doc = db[starts]
    h = hash_ints(doc.astype(np.uint64), seed=_RANGE_SEED)
    return _hash_split(h, doc_ranges, doc, s, s + run_len)


def union_spans(d: np.ndarray, s: np.ndarray, e: np.ndarray) -> tuple:
    """Per-doc interval union of the spans ``[s, e)`` of docs ``d`` (all
    int64, ``0 <= s < e``): the merged (doc, start, end), sorted by (doc,
    start). Adjacent spans ([0,5) + [5,9)) merge.

    Vectorized across docs: a sorted-cummax merge whose segment cummax is
    one ``np.maximum.accumulate`` over ends lifted by ``doc_rank · band``.
    The band is one more than the largest end, so each doc's lifted ends
    lie in their own band."""
    order = np.lexsort((e, s, d))
    d, s, e = d[order], s[order], e[order]
    new_doc = np.empty(d.size, dtype=bool)
    new_doc[0] = True
    new_doc[1:] = d[1:] != d[:-1]
    lift = (np.cumsum(new_doc) - 1) * (int(e.max()) + 1)
    lifted_cummax = np.maximum.accumulate(e + lift) - lift
    brk = new_doc.copy()
    brk[1:] |= s[1:] > lifted_cummax[:-1]
    g_starts = np.flatnonzero(brk)
    return d[g_starts], s[g_starts], np.maximum.reduceat(e, g_starts)


_MERGED_EMPTY = pa.schema(
    [("doc_id", pa.int64()), ("starts", pa.string()), ("ends", pa.string())]
).empty_table()


@ray.remote
def _merge_doc_range(*parts) -> tuple:
    """Hop 3: ``union_spans`` over one doc-hash range, then one output row
    per doc with the merged (starts, ends) CSV strings; returns (table,
    row count). Always a TYPED table, so the downstream join never sees
    zero-column empty blocks."""
    d = np.concatenate([p[0] for p in parts])
    if d.size == 0:
        return _MERGED_EMPTY, 0
    m_doc, m_s, m_e = union_spans(
        d, np.concatenate([p[1] for p in parts]), np.concatenate([p[2] for p in parts])
    )
    # one row per doc: list-ify the merged intervals (sorted by s already)
    first = np.empty(m_doc.size, dtype=bool)
    first[0] = True
    first[1:] = m_doc[1:] != m_doc[:-1]
    doc_offsets = np.r_[np.flatnonzero(first), m_doc.size].astype(np.int32)
    # CSV-encode the per-doc interval lists: Arrow's hash join rejects
    # list-typed payload columns, so the spans ride through the join as two
    # comma-joined strings and are re-parsed vectorized on the other side
    s_str = pc.cast(pa.array(m_s, type=pa.int64()), pa.string())
    e_str = pc.cast(pa.array(m_e, type=pa.int64()), pa.string())
    out = pa.table(
        {
            "doc_id": pa.array(m_doc[doc_offsets[:-1]], type=pa.int64()),
            "starts": pc.binary_join(pa.ListArray.from_arrays(doc_offsets, s_str), ","),
            "ends": pc.binary_join(pa.ListArray.from_arrays(doc_offsets, e_str), ","),
        }
    )
    return out, out.num_rows


def _strip_spans_batch(t: pa.Table) -> pa.Table:
    """Cut each doc's removal spans out of its word sequence — one flat
    keep-mask built with scatter-add over the batch's flat word buffer, one
    filter, one list rebuild; no per-doc Python loop. ``clean_text`` is the
    lowercased whitespace-normalized reconstruction (' '-joined words) for
    ALL docs, stripped or not, so output text is deterministic."""
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    n_docs = t.num_rows
    starts_str = pc.fill_null(t.column("starts").combine_chunks(), "")
    starts_col = pc.split_pattern(starts_str, ",")
    ends_col = pc.split_pattern(pc.fill_null(t.column("ends").combine_chunks(), ""), ",")
    # a null/empty spans string splits to [''] — mask those rows to 0 spans
    has = pc.not_equal(starts_str, "").to_numpy(zero_copy_only=False)
    split_lens = np.asarray(
        pc.list_value_length(starts_col).to_numpy(zero_copy_only=False), dtype=np.int64
    )
    sp_counts = np.where(has, split_lens, 0)
    keep_rows = pa.array(np.repeat(has, split_lens))
    s_flat = np.asarray(
        pc.cast(pc.list_flatten(starts_col).filter(keep_rows), pa.int64()).to_numpy(
            zero_copy_only=False
        ),
        dtype=np.int64,
    )
    e_flat = np.asarray(
        pc.cast(pc.list_flatten(ends_col).filter(keep_rows), pa.int64()).to_numpy(
            zero_copy_only=False
        ),
        dtype=np.int64,
    )
    row_of_span = np.repeat(np.arange(n_docs, dtype=np.int64), sp_counts)
    diff = np.zeros(int(off[-1]) + 1, dtype=np.int64)
    np.add.at(diff, off[row_of_span] + s_flat, 1)
    np.add.at(diff, off[row_of_span] + e_flat, -1)
    keep = np.cumsum(diff[:-1]) == 0
    removed_per_doc = np.zeros(n_docs, dtype=np.int64)
    np.add.at(removed_per_doc, row_of_span, e_flat - s_flat)
    kept_flat = flat.filter(pa.array(keep))
    new_off = np.r_[0, np.cumsum(lens - removed_per_doc)].astype(np.int64)
    words = pa.ListArray.from_arrays(pa.array(new_off, type=pa.int64()).cast(pa.int32()), kept_flat)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "clean_text": pc.binary_join(words, " "),
            "n_removed": pa.array(removed_per_doc),
            "n_spans": pa.array(sp_counts),
        }
    )


def _anchor_partials(sf_dir: str, L: int, hot_cap: int):
    """Shared hop-0/hop-1 wiring for both substring operators: gram
    extraction over the corpus, gram-hash-range map tasks, and the hop-1
    exact-gram anchor reduce. Returns (docs_dataset, ranges, anchor_refs)
    — anchor_refs is None for an empty corpus."""
    ranges = exchange.range_count()
    docs = _docs(sf_dir, columns=["doc_id", "text"])
    grams = docs.map_batches(lambda t: gram_positions(t, L), batch_format="pyarrow")
    groups = exchange.block_groups(grams)
    if not groups:
        return docs, ranges, None
    mapped = exchange.map_ranges(_map_gram_blocks, groups, ranges)
    anchors = exchange.reduce_ranges(
        mapped, _reduce_gram_range, ranges, hot_cap, ranges, returns=ranges
    )
    return docs, ranges, anchors


def doc_strip_dup_spans(
    sf_dir: str,
    L: int = LCS_GRAM,
    min_run: int = LCS_MIN_RUN,
    hot_cap: int = LCS_HOT_CAP,
) -> rd.Dataset:
    """Substring-level corpus dedup à la Lee et al. 2022: CUT every shared
    word run ≥ ``min_run`` out of the higher-doc_id copy (keep-first), and
    rebuild the corpus. Output (doc_id, clean_text, n_removed, n_spans).

    Composition, all distributed: three-hop anchor tree reduce (gram range
    → pair range → doc range; the driver holds only ObjectRefs) → merged
    per-doc spans as a Dataset via ``from_arrow_refs`` (zero driver
    materialization) → ``left_outer`` hash join onto the corpus → one
    vectorized cut pass. Docs without spans flow through the join with
    null span columns and are reconstructed unchanged.
    """
    from ..core.batches import strip_schema_metadata

    docs, ranges, anchors = _anchor_partials(sf_dir, L, hot_cap)
    merged_tables = []
    if anchors is not None:
        span_parts = exchange.reduce_ranges(
            anchors, _reduce_pair_spans, ranges, L, min_run, ranges, returns=ranges
        )
        hop3 = exchange.reduce_ranges(span_parts, _merge_doc_range, ranges, returns=2)
        # an EMPTY table inside from_arrow_refs loses its schema in the join
        # shuffle ("no match for key field doc_id") — keep only non-empty
        # ranges, known from the tiny count returns (never the tables)
        counts = ray.get([c for _, c in hop3])
        merged_tables = [t for (t, _), n in zip(hop3, counts) if n > 0]
    if merged_tables:
        # 8 partitions, as the other native joins: the join pins one
        # aggregator actor per partition up front, and tying the count to
        # the hash-range count (37 ranges → 18 partitions) left them
        # unscheduled on a 4-CPU node
        joined = strip_schema_metadata(docs).join(
            rd.from_arrow_refs(merged_tables),
            join_type="left_outer",
            num_partitions=8,
            on=("doc_id",),
        )
    else:
        joined = docs.map_batches(
            lambda t: t.append_column(
                "starts", pa.array([None] * t.num_rows, type=pa.string())
            ).append_column("ends", pa.array([None] * t.num_rows, type=pa.string())),
            batch_format="pyarrow",
        )
    return joined.map_batches(_strip_spans_batch, batch_format="pyarrow")


def doc_lcs_pairs(
    sf_dir: str,
    L: int = LCS_GRAM,
    min_run: int = LCS_MIN_RUN,
    hot_cap: int = LCS_HOT_CAP,
) -> pa.Table:
    """Doc pairs sharing a word run of ≥ ``min_run`` words, with the exact
    longest shared run, number of maximal shared runs (≥ L), and total
    anchor count. Output: (doc_id_a, doc_id_b, max_run, n_runs, n_anchors),
    sorted by (doc_id_a, doc_id_b)."""
    empty = pa.table(
        {
            "doc_id_a": pa.array([], type=pa.int64()),
            "doc_id_b": pa.array([], type=pa.int64()),
            "max_run": pa.array([], type=pa.int64()),
            "n_runs": pa.array([], type=pa.int64()),
            "n_anchors": pa.array([], type=pa.int64()),
        }
    )
    _, ranges, anchors = _anchor_partials(sf_dir, L, hot_cap)
    if anchors is None:
        return empty
    reduced = ray.get(
        exchange.reduce_ranges(anchors, _reduce_pair_range, ranges, L, min_run)
    )
    nonempty = [r for r in reduced if len(r[0])]
    if not nonempty:
        return empty
    cols = [np.concatenate([r[k] for r in nonempty]) for k in range(5)]
    order = np.lexsort((cols[1], cols[0]))
    names = ["doc_id_a", "doc_id_b", "max_run", "n_runs", "n_anchors"]
    return pa.table({n: pa.array(c[order], type=pa.int64()) for n, c in zip(names, cols)})
