"""Training-data text operators over the ``documents`` table.

Large-scale-pipeline operators the reference lacks but a 100 TB training-data
engine needs (round brief): token counting, document fingerprinting, exact
dedup, quality scoring, language ID, MinHash+LSH and SimHash near-dedup.

Design rules applied throughout:
- All string kernels are vectorized ``pyarrow.compute`` (RE2 regexes — the
  same engine DuckDB uses, so the oracle SQL matches byte-for-byte).
- Per-doc hashing (md5/crc) is C-speed per-row work inside ``map_batches``;
  no Python-level tokenization loops in hot paths.
- Every groupby is fed by a per-batch combiner or ships only tiny rows
  (fingerprints, band keys, signature pieces) — never document text.
- Near-dup verification assumes |candidate pairs| ≪ |corpus| (standard LSH
  contract); candidates are verified with exact similarity before reporting.

Reference analogs: normalized-variant exact dedupe (``prompts/
banningredients.py:175-183``), near-dup merge by IoU (``artwork_processing_
warnings_advisory.py:223-236``), fuzzy dictionary joins (J3) — generalized to
corpus-scale dedup primitives.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

from ..core.collect import collect_table as _collect
from ..core.rounding import round_half_away as _rha

WS_TOKEN_RE = r"\S+"
BPE_ISH_RE = r"[A-Za-z0-9]+|[^A-Za-z0-9\s]"
PUNCT_RE = r"[.!?,;:]"
DIGIT_RE = r"[0-9]"
STOPWORDS = ("the", "and", "of", "to", "in", "a", "is", "that", "for", "it")
STOPWORD_RE = r"\b(" + "|".join(STOPWORDS) + r")\b"


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    """Projected documents read with size-aware read-task fan-out for a
    single large file (see ``core.batches.read_parquet_fanout``)."""
    from ..core.batches import read_parquet_fanout

    return read_parquet_fanout(os.path.join(sf_dir, "documents.parquet"), columns)



def _count_re(col: pa.ChunkedArray, pattern: str) -> pa.Array:
    return pc.cast(pc.count_substring_regex(col, pattern), pa.int64())


# ---------------------------------------------------------------------------
# Token counting (whitespace + BPE-ish regex)
# ---------------------------------------------------------------------------


def doc_token_stats(sf_dir: str) -> rd.Dataset:
    """Per-doc character and token counts (whitespace + BPE-ish regex)."""
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang", "source"])

    def f(t: pa.Table) -> pa.Table:
        text = t.column("text")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "source": t.column("source"),
                "n_chars_actual": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_ws_tokens": _count_re(text, WS_TOKEN_RE),
                "n_bpe_ish_tokens": _count_re(text, BPE_ISH_RE),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Fingerprinting + exact dedup
# ---------------------------------------------------------------------------


def _normalize_for_fp(text: pa.ChunkedArray) -> pa.Array:
    """Whitespace-collapsed lowercase form that the md5 fingerprint hashes.

    NOTE: pc.utf8_trim_whitespace trims Unicode whitespace while the SQL
    oracle's trim() trims ASCII space only — the md5 parity contract holds
    for corpora whose edge whitespace is ASCII (all fixtures; real corpora
    should normalize NBSP upstream)."""
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(text), r"\s+", " ")
    )


def _fingerprint_col(text: pa.ChunkedArray) -> pa.Array:
    norm = _normalize_for_fp(text)
    fps = [
        None if s is None else hashlib.md5(s.encode("utf-8")).hexdigest()
        for s in norm.to_pylist()
    ]
    return pa.array(fps, type=pa.string())


def doc_fingerprints(sf_dir: str) -> rd.Dataset:
    """Normalized-content md5 fingerprint per document (exact-dup key)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"), "fingerprint": _fingerprint_col(t.column("text"))}
        )

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Winnowing fingerprints (k-gram rolling hash + window-min selection — the
# public MOSS algorithm; Schleimer/Wilkerson/Aiken, SIGMOD'03). The round
# brief's "document fingerprinting (rolling hash)" op: robust partial-overlap
# fingerprints, unlike the whole-doc md5 above.
# ---------------------------------------------------------------------------

WINNOW_K = 8  # k-gram length (chars of cleaned text)
WINNOW_W = 4  # winnowing window (k-grams per window)
WINNOW_B = 131  # polynomial base
WINNOW_M = (1 << 31) - 1  # Mersenne modulus — max hash term sum < 2^63
# position packed below the hash in the window-min key: hash < 2^31 and
# 31 + 32 = 63 bits, so the packed key stays int64 up to 4G-char docs
_WINNOW_POS_BITS = 32


def _winnow_batch(t: pa.Table) -> pa.Table:
    """Fully vectorized winnowing over a batch: one flat byte array for ALL
    docs; k shifted adds build every k-gram hash, a (n, w) sliding-window
    min selects fingerprints, and doc boundaries are masked with offset
    arithmetic — no per-doc Python loop. Rightmost-min tie-break is encoded
    by packing (hash, 2^32-1-pos) into one int64 key before the window min
    (the SQL oracle packs identically)."""
    txt = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(t.column("text").combine_chunks(), "")),
        "[^a-z0-9]",
        "",
    )
    arr = txt.combine_chunks() if isinstance(txt, pa.ChunkedArray) else txt
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
            "fp": pa.array([], type=pa.int64()),
        }
    )
    n_docs = len(arr)
    if n_docs == 0:
        return empty
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(
        arr.buffers()[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset
    )[arr.offset :].astype(np.int64)
    buf = arr.buffers()[2]
    if buf is None or offs[-1] == offs[0]:
        return empty
    flat = np.frombuffer(buf, dtype=np.uint8, count=int(offs[-1]))[offs[0] :].astype(
        np.int64
    )
    offs = offs - offs[0]
    lens = offs[1:] - offs[:-1]
    if lens.max() >= (1 << _WINNOW_POS_BITS):
        raise ValueError("document too long for winnowing position packing")
    k, w = WINNOW_K, WINNOW_W
    m_grams = np.maximum(lens - k + 1, 0)
    total = int(m_grams.sum())
    if total == 0:
        return empty
    # flat k-gram hashes: k shifted adds (sum < 8·122·B^(k-1) < 2^63), one mod
    n_flat = flat.size
    acc = np.zeros(n_flat - k + 1, dtype=np.int64)
    for j in range(k):
        acc += flat[j : n_flat - k + 1 + j] * pow(WINNOW_B, k - 1 - j, WINNOW_M)
    acc %= WINNOW_M
    # valid gram starts (fully inside one doc), contiguous per doc
    grp_starts = np.cumsum(m_grams) - m_grams
    intra = np.arange(total, dtype=np.int64) - np.repeat(grp_starts, m_grams)
    gidx = np.repeat(offs[:-1], m_grams) + intra
    gdoc = np.repeat(np.arange(n_docs, dtype=np.int64), m_grams)
    ck = acc[gidx] * (1 << _WINNOW_POS_BITS) + ((1 << _WINNOW_POS_BITS) - 1 - intra)
    # sliding min over w grams; windows crossing doc boundaries are dropped
    if total < w:
        return empty
    sw = np.lib.stride_tricks.sliding_window_view(ck, w)
    wmin = sw.min(axis=1)
    valid = gdoc[w - 1 :] == gdoc[: total - w + 1]
    wmin = wmin[valid]
    wdoc = gdoc[w - 1 :][valid]
    if wmin.size == 0:
        return empty
    # dedupe (doc, key): (fp, pos) ↔ key is a bijection
    order = np.lexsort((wmin, wdoc))
    wmin, wdoc = wmin[order], wdoc[order]
    keep = np.empty(wmin.size, dtype=bool)
    keep[0] = True
    keep[1:] = (wmin[1:] != wmin[:-1]) | (wdoc[1:] != wdoc[:-1])
    wmin, wdoc = wmin[keep], wdoc[keep]
    fp = wmin >> _WINNOW_POS_BITS
    pos = ((1 << _WINNOW_POS_BITS) - 1) - (wmin & ((1 << _WINNOW_POS_BITS) - 1))
    out_doc = doc_ids[wdoc]
    order = np.lexsort((pos, out_doc))
    return pa.table(
        {
            "doc_id": pa.array(out_doc[order]),
            "pos": pa.array(pos[order]),
            "fp": pa.array(fp[order]),
        }
    )


def doc_winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    """Winnowing fingerprints (doc_id, pos, fp): any shared substring of
    length ≥ k+w−1 cleaned chars between two docs shares ≥ 1 fingerprint
    (the winnowing guarantee) — the partial-overlap dedup primitive."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _winnow_batch, batch_format="pyarrow"
    )


OVERLAP_MIN_SHARED = 16
OVERLAP_HOT_CAP = 64


def doc_overlap_pairs(
    sf_dir: str, min_shared: int = OVERLAP_MIN_SHARED, hot_cap: int = OVERLAP_HOT_CAP
) -> pa.Table:
    """Partial-overlap candidate pairs: docs sharing ≥ ``min_shared``
    distinct winnowing fingerprints (quote/copy/containment detection — the
    use-case whole-doc md5 and MinHash both miss). Fingerprints hotter than
    ``hot_cap`` docs are stop-listed as boilerplate (drop, not truncate, so
    the result is exactly SQL-reproducible); the pairing is the same
    hash-range reduce as the LSH dedup family — only (fp, doc_id) rows move.
    """
    from ..state.pairreduce import cooccurrence_pairs

    fps = doc_winnow_fingerprints(sf_dir)

    def distinct_doc_fp(t: pa.Table) -> pa.Table:
        # per-batch dedupe is a shuffle-VOLUME reducer only (block
        # re-slicing can split a doc's rows); correctness comes from the
        # reduce-side distinct_ids pass below
        # astype: Arrow→numpy of an EMPTY int64 column yields float64, which
        # would emit a schema-divergent block
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        f = t.column("fp").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((f, d))
        d, f = d[order], f[order]
        keep = np.empty(d.size, dtype=bool)
        if d.size:
            keep[0] = True
            keep[1:] = (d[1:] != d[:-1]) | (f[1:] != f[:-1])
        return pa.table(
            {
                "fp": pa.array(f[keep], type=pa.int64()),
                "doc_id": pa.array(d[keep], type=pa.int64()),
            }
        )

    # batch_size=None: whole winnow output blocks (one per input block, so a
    # doc's rows never split across batches — required for the per-batch
    # dedupe to be a global distinct)
    keyed = fps.map_batches(distinct_doc_fp, batch_format="pyarrow", batch_size=None)
    # distinct_ids: reduce-side (fp, doc) dedupe is the correctness guard —
    # the per-batch dedupe above is only a shuffle-volume reducer, so block
    # re-slicing at any scale cannot inflate pair counts
    pairs = cooccurrence_pairs(
        keyed, "fp", "doc_id", max_bucket=hot_cap, drop_hot=True, distinct_ids=True
    )
    sel = pairs[pairs["n_shared"] >= min_shared]
    return pa.table(
        {
            "doc_id_a": pa.array(sel["id_a"].to_numpy(), type=pa.int64()),
            "doc_id_b": pa.array(sel["id_b"].to_numpy(), type=pa.int64()),
            "n_shared": pa.array(sel["n_shared"].to_numpy(), type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Within-doc repetition scoring (Gopher-style quality signal, Rae et al.
# 2021: duplicate n-gram fraction / most-common n-gram fraction — the
# repetition rules every large-scale corpus filter applies).
# ---------------------------------------------------------------------------


def _repetition_from_split(
    off: np.ndarray, flat: pa.Array, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_bigrams, dup_frac, top_frac) per doc from a word split — exact and
    vectorized: words are factorized to int codes per batch (np.unique — no
    hash collisions), bigrams packed into one int64, lexsorted per doc, and
    distinct/top counts come from run-length arithmetic."""
    n_docs = len(lens)
    n_bi = np.maximum(lens - 1, 0)
    dup_frac = np.zeros(n_docs, dtype=np.float64)
    top_frac = np.zeros(n_docs, dtype=np.float64)
    total = int(n_bi.sum())
    if total:
        # factorize words → codes; bigram key = code[i]·V + code[i+1]
        codes = np.unique(
            np.asarray(flat.to_numpy(zero_copy_only=False), dtype=object),
            return_inverse=True,
        )[1].astype(np.int64)
        v = int(codes.max()) + 1
        grp = np.cumsum(n_bi) - n_bi
        intra = np.arange(total, dtype=np.int64) - np.repeat(grp, n_bi)
        pos = np.repeat(off[:-1], n_bi) + intra
        bdoc = np.repeat(np.arange(n_docs, dtype=np.int64), n_bi)
        bg = codes[pos] * v + codes[pos + 1]
        order = np.lexsort((bg, bdoc))
        bdoc_s, bg_s = bdoc[order], bg[order]
        new_run = np.empty(total, dtype=bool)
        new_run[0] = True
        new_run[1:] = (bdoc_s[1:] != bdoc_s[:-1]) | (bg_s[1:] != bg_s[:-1])
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.r_[run_starts, total])
        run_doc = bdoc_s[run_starts]
        distinct = np.bincount(run_doc, minlength=n_docs)
        top = np.zeros(n_docs, dtype=np.int64)
        np.maximum.at(top, run_doc, run_lens)
        nz = n_bi > 0
        dup_frac[nz] = (n_bi[nz] - distinct[nz]) / n_bi[nz]
        top_frac[nz] = top[nz] / n_bi[nz]
    return n_bi.astype(np.int64), dup_frac, top_frac


def _repetition_batch(t: pa.Table) -> pa.Table:
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    n_bi, dup_frac, top_frac = _repetition_from_split(off, flat, lens)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "n_bigrams": pa.array(n_bi),
            "dup_bigram_frac": pa.array(_rha(dup_frac, 6)),
            "top_bigram_frac": pa.array(_rha(top_frac, 6)),
        }
    )


def doc_repetition_scores(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition signals per doc: duplicate-bigram fraction and
    most-common-bigram fraction over the trim(lower()) word split."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _repetition_batch, batch_format="pyarrow"
    )


# Gopher-rule thresholds (Rae et al. 2021 table A1 style, calibrated to the
# fixture's distributions so every rule is non-vacuous at sf0.01)
GOPHER_MIN_WORDS = 25
GOPHER_MAX_WORDS = 100_000
GOPHER_MWL_RANGE = (3.0, 10.0)
GOPHER_MIN_STOPWORD_FRAC = 0.01
GOPHER_MAX_DUP_BIGRAM = 0.10
GOPHER_MAX_TOP_BIGRAM = 0.12


def _gopher_flags_from_split(
    off: np.ndarray, flat: pa.Array, lens: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-rule Gopher boolean flags (+ ``n_words``) from an existing word
    split; one pass computes word-count, mean-word-length, stopword-fraction
    and the repetition signals."""
    n_docs = len(lens)
    nw = lens.astype(np.int64)
    wl = np.asarray(
        pc.utf8_length(flat).to_numpy(zero_copy_only=False), dtype=np.int64
    )
    sw = np.asarray(
        pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(zero_copy_only=False),
        dtype=np.int64,
    )
    chars = np.zeros(n_docs, dtype=np.int64)
    stops = np.zeros(n_docs, dtype=np.int64)
    nzd = lens > 0
    starts = off[:-1][nzd]
    if starts.size:
        chars[nzd] = np.add.reduceat(wl, starts)
        stops[nzd] = np.add.reduceat(sw, starts)
    mwl = np.zeros(n_docs, dtype=np.float64)
    swf = np.zeros(n_docs, dtype=np.float64)
    nz = nw > 0
    mwl[nz] = chars[nz] / nw[nz]
    swf[nz] = stops[nz] / nw[nz]
    _, dup_frac, top_frac = _repetition_from_split(off, flat, lens)
    wc_ok = (nw >= GOPHER_MIN_WORDS) & (nw <= GOPHER_MAX_WORDS)
    mwl_ok = (mwl >= GOPHER_MWL_RANGE[0]) & (mwl <= GOPHER_MWL_RANGE[1])
    stop_ok = swf >= GOPHER_MIN_STOPWORD_FRAC
    rep_ok = dup_frac <= GOPHER_MAX_DUP_BIGRAM
    top_ok = top_frac <= GOPHER_MAX_TOP_BIGRAM
    return {
        "n_words": nw,
        "wc_ok": wc_ok,
        "mwl_ok": mwl_ok,
        "stopword_ok": stop_ok,
        "rep_ok": rep_ok,
        "top_ok": top_ok,
        "keep": wc_ok & mwl_ok & stop_ok & rep_ok & top_ok,
    }


def _gopher_batch(t: pa.Table) -> pa.Table:
    """Fused single-pass quality filter: ONE word split feeds every signal;
    emits per-rule boolean flags plus the composed keep verdict (flags ARE
    the reasons — no string building)."""
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    fl = _gopher_flags_from_split(off, flat, lens)
    return pa.table({"doc_id": pa.array(doc_ids), **{k: pa.array(v) for k, v in fl.items()}})


def doc_gopher_filter(sf_dir: str) -> rd.Dataset:
    """Composed Gopher-style quality filter: per-rule flags + keep verdict,
    one fused pass over the text column."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _gopher_batch, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Benchmark decontamination: flag corpus docs sharing any word n-gram with a
# benchmark set (the test-set-contamination filter every LLM data pipeline
# runs; GPT-3/PaLM-style n-gram overlap). The benchmark here is a
# deterministic slice of the corpus (doc_id % DECON_BENCH_MOD == 0) — in
# production it is the eval-suite text. Small-side broadcast, no shuffle:
# candidates by rolling word-hash, verified by exact gram string.
# ---------------------------------------------------------------------------

DECON_NGRAM = 4
DECON_BENCH_MOD = 101
_DECON_B = np.uint64(0x100000001B3)  # FNV-ish odd multiplier for gram mixing


def _gram_hashes(word_hashes: np.ndarray, n: int) -> np.ndarray:
    """Rolling polynomial combine of ``n`` consecutive word hashes → one
    uint64 per gram position (wraparound arithmetic, deterministic)."""
    m = word_hashes.size - n + 1
    if m <= 0:
        return np.zeros(0, dtype=np.uint64)
    acc = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            acc = acc * _DECON_B + word_hashes[j : j + m]
    return acc


def _decon_bench_state(
    sf_dir: str, n: int, bench_mod: int
) -> tuple[np.ndarray, frozenset]:
    """Benchmark gram set for decontamination: (sorted rolling hashes, exact
    gram strings) built from the small ``doc_id % bench_mod == 0`` slice."""
    from ..core.hashing import hash_strings

    def _pick_bench(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(ids % bench_mod == 0))

    bench = _collect(
        _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
            _pick_bench, batch_format="pyarrow"
        )
    )
    bench_grams: set[str] = set()
    for txt in bench.column("text").to_pylist():
        ws = (txt or "").lower().split()
        for i in range(len(ws) - n + 1):
            bench_grams.add(" ".join(ws[i : i + n]))
    gram_list = sorted(bench_grams)
    if gram_list:
        wh_per_gram = [hash_strings(g.split()) for g in gram_list]
        bench_h = np.sort(
            np.concatenate([_gram_hashes(wh, n) for wh in wh_per_gram])
        )
    else:
        bench_h = np.zeros(0, dtype=np.uint64)
    return bench_h, frozenset(bench_grams)


def _decon_hits_from_split(
    off: np.ndarray,
    flat: pa.Array,
    lens: np.ndarray,
    bh: np.ndarray,
    bset: frozenset,
    n: int,
) -> np.ndarray:
    """Per-row count of benchmark n-gram occurrences over an existing word
    split: vectorized rolling-hash candidates (np.searchsorted against the
    sorted benchmark hashes), exact gram-string verification on candidate
    windows only — hash collisions cannot flag a clean doc."""
    from ..core.hashing import hash_strings

    n_docs = len(lens)
    hits = np.zeros(n_docs, dtype=np.int64)
    m_grams = np.maximum(lens - n + 1, 0)
    total = int(m_grams.sum())
    if total and bh.size:
        wh = hash_strings(flat)
        flat_gh = _gram_hashes(wh, n)  # gram at every flat position
        grp = np.cumsum(m_grams) - m_grams
        intra = np.arange(total, dtype=np.int64) - np.repeat(grp, m_grams)
        pos = np.repeat(off[:-1], m_grams) + intra
        gdoc = np.repeat(np.arange(n_docs, dtype=np.int64), m_grams)
        gh = flat_gh[pos]
        cand = np.flatnonzero(
            bh[np.clip(np.searchsorted(bh, gh), 0, bh.size - 1)] == gh
        )
        if cand.size:
            # gather ONLY the candidate windows' tokens (candidates are
            # rare by the hash prefilter; clean batches never pay)
            idx = (pos[cand][:, None] + np.arange(n, dtype=np.int64)).reshape(-1)
            toks = flat.take(pa.array(idx)).to_pylist()
            for ci, c in enumerate(cand):
                if " ".join(toks[ci * n : (ci + 1) * n]) in bset:
                    hits[gdoc[c]] += 1
    return hits


def _decon_hits(t: pa.Table, bh: np.ndarray, bset: frozenset, n: int) -> np.ndarray:
    """`_decon_hits_from_split` over a fresh split of the batch's text col."""
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    return _decon_hits_from_split(off, flat, lens, bh, bset, n)


def doc_decontaminate(
    sf_dir: str, n: int = DECON_NGRAM, bench_mod: int = DECON_BENCH_MOD
) -> rd.Dataset:
    """(doc_id, n_contaminated_grams, contaminated) per doc: occurrences of
    benchmark n-grams in the doc. The benchmark gram set (strings + their
    rolling hashes) is built once from the small filtered read and broadcast
    via ``ray.put``."""
    import ray as _ray

    state_ref = _ray.put(_decon_bench_state(sf_dir, n, bench_mod))

    def task(t: pa.Table, _cache={}) -> pa.Table:
        st = _cache.get("st")
        if st is None:
            st = _cache["st"] = _ray.get(state_ref)
        hits = _decon_hits(t, st[0], st[1], n)
        return pa.table(
            {
                "doc_id": pa.array(
                    t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "n_contaminated_grams": pa.array(hits),
                "contaminated": pa.array(hits > 0),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        task, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Statement splitter + cross-row statement dedupe (reference M8,
# ``app.py`` statement handling): text → statements → duplicate statements
# across the corpus. The corpus has no sentence punctuation, so the driver
# query uses fixed word-window segmentation; sentence mode (regex
# ``[^.!?]+[.!?]*``) is provided for punctuated corpora and covered by
# pytest on a punctuated fixture.
# ---------------------------------------------------------------------------

SEGMENT_WIDTH = 12


def _window_segments(t: pa.Table, width: int) -> pa.Table:
    """Disjoint ``width``-word segments per doc, fully vectorized: the
    word-split ListArray is re-offsetted at every ``width`` words (segment
    lists stay contiguous in the flat values buffer — no copies) and joined
    with one ``binary_join`` kernel."""
    texts = t.column("text").combine_chunks()
    _, off, flat, lens = _split_words(pc.fill_null(texts, ""))
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    n_seg = (lens + width - 1) // width
    n_seg = np.maximum(n_seg, 0)
    total = int(n_seg.sum())
    if total == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "seg_idx": pa.array([], type=pa.int64()),
                "statement": pa.array([], type=pa.string()),
            }
        )
    grp = np.cumsum(n_seg) - n_seg
    intra = np.arange(total, dtype=np.int64) - np.repeat(grp, n_seg)
    starts = np.repeat(off[:-1], n_seg) + width * intra
    offsets = np.append(starts, off[-1]).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
    segs = pc.binary_join(lists, " ")
    out_doc = np.repeat(doc_ids, n_seg)
    keep = np.asarray(pc.utf8_length(segs).to_numpy(zero_copy_only=False)) > 0
    return pa.table(
        {
            "doc_id": pa.array(out_doc[keep]),
            "seg_idx": pa.array(intra[keep]),
            "statement": segs.filter(pa.array(keep)),
        }
    )


def _sentence_segments(t: pa.Table) -> pa.Table:
    """Sentence mode: regex chunks ``[^.!?]+[.!?]*`` (polars extract_all,
    vectorized), trimmed, empties dropped — for punctuated corpora."""
    import polars as pl

    s = pl.Series(
        pa.chunked_array([pc.fill_null(t.column("text").combine_chunks(), "")])
    )
    lists = s.str.extract_all(r"[^.!?]+[.!?]*").to_arrow()
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lists = pc.cast(lists, pa.list_(pa.string()))
    off = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_seg = off[1:] - off[:-1]
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(n_seg.sum())
    grp = np.cumsum(n_seg) - n_seg
    intra = np.arange(total, dtype=np.int64) - np.repeat(grp, n_seg)
    flat = pc.utf8_trim_whitespace(lists.values)
    keep = np.asarray(pc.utf8_length(flat).to_numpy(zero_copy_only=False)) > 0
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(doc_ids, n_seg)[keep]),
            "seg_idx": pa.array(intra[keep]),
            "statement": flat.filter(pa.array(keep)),
        }
    )


def doc_statements(
    sf_dir: str, mode: str = "window", width: int = SEGMENT_WIDTH
) -> rd.Dataset:
    """Statement explode: (doc_id, seg_idx, statement)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    if mode == "window":
        return ds.map_batches(
            lambda t: _window_segments(t, width), batch_format="pyarrow"
        )
    if mode == "sentence":
        return ds.map_batches(_sentence_segments, batch_format="pyarrow")
    raise ValueError(f"unknown statement mode {mode!r}")


# M9 safety-pattern hinter (reference analog: the compiled regex bank run
# over split statements to flag ones the main pass may have missed,
# ``artwork_processing_warnings_advisory.py:65-77,251-262``). The bank is a
# module constant interpolated verbatim into the SQL oracle so engine and
# oracle can never drift; patterns are RE2-compatible on both sides (Arrow
# match_substring_regex and DuckDB regexp_matches are both partial-match
# RE2). The vocabulary-specific pattern TEXT differs from the reference's
# safety phrases (our fixture corpus has no food-safety language); the
# SHAPES — word-boundary alternation, gap wildcard, bigram, start/end
# anchor, plus a never-matching recall control — mirror its bank.
SAFETY_PATTERNS: tuple[tuple[str, str], ...] = (
    ("ends_query", r"\bquery$"),
    ("starts_window", r"^window\b"),
    ("hash_join_bigram", r"\bhash join\b"),
    ("sort_then_group", r"\bsort\b.*\bgroup\b"),
    ("sized_table", r"\b(big|small) table\b"),
    ("slow_gap_scan", r"\bslow \w+ scan\b"),
    ("dup_flag", r"\bdup\b"),
    ("control_never", r"\bxyzzy\b"),  # recall control: must emit 0 rows
)


def doc_safety_hints(
    sf_dir: str,
    patterns: tuple[tuple[str, str], ...] = SAFETY_PATTERNS,
    width: int = SEGMENT_WIDTH,
) -> rd.Dataset:
    """Pattern-bank hinter: one row per (statement, matching pattern).

    Vectorized: each pattern is one ``match_substring_regex`` kernel pass
    over the statement column (N patterns → N passes, no row loop); the
    regex is compiled inside Arrow per batch — state-free tasks on the
    shared worker pool, no actor pool needed.
    """
    segs = doc_statements(sf_dir, mode="window", width=width)

    def hint(t: pa.Table) -> pa.Table:
        stmt = t.column("statement").combine_chunks()
        parts = []
        for name, pat in patterns:
            mask = pc.fill_null(pc.match_substring_regex(stmt, pat), False)
            sel = t.filter(mask)
            parts.append(
                pa.table(
                    {
                        "doc_id": sel.column("doc_id"),
                        "seg_idx": sel.column("seg_idx"),
                        "pattern": pa.array(
                            [name] * sel.num_rows, type=pa.string()
                        ),
                        "statement": sel.column("statement"),
                    }
                )
            )
        return pa.concat_tables(parts)

    return segs.map_batches(hint, batch_format="pyarrow")


def doc_segment_dedupe(
    sf_dir: str, width: int = SEGMENT_WIDTH
) -> pa.Table:
    """Duplicate statements across the corpus: (statement, n_occurrences,
    keeper_doc_id). Candidate→recover shape (the exact-dedup pattern):
    statements travel as 64-bit hashes through the duplicate-hash tree
    reduce; only CANDIDATE statements (dup hash) are grouped by exact
    string, so no full-corpus string shuffle and collisions are filtered
    by the exact groupby's own count."""
    from ..state.dupfinder import find_dup_hash_values

    segs = doc_statements(sf_dir, mode="window", width=width)

    def add_hash(t: pa.Table) -> pa.Table:
        from ..core.hashing import hash_strings

        h = hash_strings(t.column("statement").combine_chunks()).view(np.int64)
        return t.append_column("h", pa.array(h, type=pa.int64()))

    hashed = segs.map_batches(add_hash, batch_format="pyarrow").materialize()
    dup_h = find_dup_hash_values(hashed, "h")
    if dup_h.size == 0:
        return pa.table(
            {
                "statement": pa.array([], type=pa.string()),
                "n_occurrences": pa.array([], type=pa.int64()),
                "keeper_doc_id": pa.array([], type=pa.int64()),
            }
        )
    dup_set = pa.array(np.asarray(dup_h, dtype=np.int64))

    def candidates(t: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.is_in(t.column("h"), value_set=dup_set), False)
        sel = t.filter(mask)
        return pa.table(
            {"statement": sel.column("statement"), "doc_id": sel.column("doc_id")}
        )

    agg = (
        hashed.map_batches(candidates, batch_format="pyarrow")
        .materialize()
        .groupby("statement")
        .aggregate(Count(alias_name="n_occurrences"), Min("doc_id", alias_name="keeper_doc_id"))
    )
    out = _collect(agg)
    n = out.column("n_occurrences").to_numpy(zero_copy_only=False).astype(np.int64)
    out = out.filter(pa.array(n > 1))  # 64-bit collision filter
    idx = pc.sort_indices(out, sort_keys=[("statement", "ascending")])
    out = out.take(idx)
    return pa.table(
        {
            "statement": out.column("statement"),
            "n_occurrences": pc.cast(out.column("n_occurrences"), pa.int64()),
            "keeper_doc_id": pc.cast(out.column("keeper_doc_id"), pa.int64()),
        }
    )


def doc_exact_dup_groups(sf_dir: str) -> pa.Table:
    """Exact-duplicate groups: fingerprint → (n_docs, keeper = min doc_id).

    hash-partitioned groupby on the 32-char fingerprint (never text);
    keeper selection is the grouped argmin (reference analog G1 best-per-group
    reduce, ``banningredients.py:211-234``).
    """
    fp = doc_fingerprints(sf_dir).materialize()  # key rows only, no text
    agg = fp.groupby("fingerprint").aggregate(
        Count(alias_name="n_docs"), Min("doc_id", alias_name="keeper_doc_id")
    )

    def dups_only(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.greater(t.column("n_docs"), 1))
        return pa.table(
            {
                "fingerprint": sel.column("fingerprint"),
                "n_docs": pc.cast(sel.column("n_docs"), pa.int64()),
                "keeper_doc_id": sel.column("keeper_doc_id"),
            }
        )

    return _collect(
        agg.map_batches(dups_only, batch_format="pyarrow").sort("fingerprint"),
        schema=pa.schema(
            [
                ("fingerprint", pa.string()),
                ("n_docs", pa.int64()),
                ("keeper_doc_id", pa.int64()),
            ]
        ),
    )


def exact_loser_ids(ds: rd.Dataset) -> set:
    """doc_ids to DROP for exact-content dedup (everything but each
    fingerprint group's min-id keeper). Candidate→recover design: a hashed
    fingerprint aggregate finds duplicate CANDIDATES, a second scan
    collects full fingerprints for candidates only and verifies exactly —
    the corpus itself is never shuffled and the driver only ever sees the
    candidate set.

    NOTE: driver-SET variant, kept as the differential reference for
    tests; every production path routes through ``exact_loser_ids_ds``
    (the Dataset form whose loser set never touches the driver)."""

    from ..core.hashing import hash_strings

    # pass 1 ships an 8-byte hash of the fingerprint through the shuffle
    # (not the 32-char hex string): groups with n>1 are duplicate
    # CANDIDATES; 64-bit collisions are filtered exactly in pass 2, which
    # re-derives the full fingerprint for candidate docs only (the
    # state/dupfinder candidate→recover design, measured ~2× on the
    # mostly-unique-key aggregate at 500k docs)
    def fp_hash(t: pa.Table) -> pa.Table:
        # candidate key = vectorized 64-bit hash of the NORMALIZED text (no
        # corpus-wide Python md5 loop — exact md5 fingerprints are computed
        # only for the tiny candidate set in pass 2; 64-bit collisions are
        # filtered there). int64 VIEW because Ray's aggregate key path
        # round-trips through Python ints and overflows on uint64 > 2^63.
        h = hash_strings(_normalize_for_fp(t.column("text"))).view(np.int64)
        return pa.table({"doc_id": t.column("doc_id"), "fph": pa.array(h)})

    from ..state.dupfinder import find_dup_hash_values

    hashed = ds.map_batches(fp_hash, batch_format="pyarrow").materialize()
    # hash-range tree reduce instead of Dataset groupby: mostly-unique-key
    # aggregation is the measured Ray groupby worst case (BASELINE.md);
    # only the tiny candidate set reaches the driver
    dup_h = find_dup_hash_values(hashed, "fph")
    if dup_h.size == 0:
        return set()
    cand_arr = pa.array(np.sort(dup_h))

    # candidate doc_ids from the ALREADY-materialized (doc_id, fph) table —
    # no md5 recompute over the corpus; pass 2 fingerprints candidate rows
    # only (tiny)
    def ids_in_cand(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t.column("fph"), value_set=cand_arr)
        return pa.table({"doc_id": t.filter(mask).column("doc_id")})

    cand_ids = _collect(hashed.map_batches(ids_in_cand, batch_format="pyarrow"))
    cand_id_arr = pc.unique(cand_ids.column("doc_id").combine_chunks())

    def collect_candidates(t: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.is_in(t.column("doc_id"), value_set=cand_id_arr), False)
        sel = t.filter(mask)
        return pa.table(
            {"doc_id": sel.column("doc_id"), "fingerprint": _fingerprint_col(sel.column("text"))}
        )

    cand_rows = _collect(ds.map_batches(collect_candidates, batch_format="pyarrow"))
    # exact grouping of the candidate set (tiny) on full fingerprints:
    # collisions fall out here, keeper = min doc_id per true group
    dfc = cand_rows.to_pandas()
    # dropna=False: null-text docs share the None fingerprint and MUST
    # dedupe as one group (matches the Ray-groupby semantics this replaced,
    # doc_exact_dup_groups, and the oracles' NULL partitioning)
    keeper = dfc.groupby("fingerprint", dropna=False)["doc_id"].transform("min")
    sizes = dfc.groupby("fingerprint", dropna=False)["doc_id"].transform("size")
    return set(dfc.loc[(sizes > 1) & (dfc["doc_id"] != keeper), "doc_id"].tolist())


def exact_loser_ids_ds(ds: rd.Dataset) -> rd.Dataset:
    """``exact_loser_ids`` with the loser set kept OFF the driver: a Dataset
    of doc_ids to DROP for exact-content dedup (everything but each
    fingerprint group's min-id keeper).

    Same two-pass candidate→verify semantics as the set variant, but every
    id-set stage lives in the object store (VERDICT r3 finding #1 — at a
    realistic 20–50% dup rate the loser set is O(corpus) and must not be a
    driver broadcast):

    1. (doc_id, 64-bit content hash) rows → hash-range reduce
       (``state/dupfinder.dup_group_id_refs``) emits per-range CANDIDATE id
       tables as ObjectRefs;
    2. the corpus is semi-joined against the candidate Dataset
       (``core/joins`` — broadcast under the 2M-key cap, key exchange above),
       full md5 fingerprints are computed for candidate rows only, and a
       second range reduce groups by EXACT fingerprint (collision-free) and
       emits each group's non-min ids — the losers — as per-range tables.

    Null doc_id rows never become losers (they cannot be addressed by an
    id filter — same contract as the set variant); null texts share the
    ``~null~`` fingerprint sentinel and dedupe as one group.
    """
    from ..core.hashing import hash_strings
    from ..core.joins import semi_join
    from ..state.dupfinder import dup_group_id_refs

    empty = pa.table({"doc_id": pa.array([], type=pa.int64())})

    def fp_hash(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("doc_id")))
        h = hash_strings(_normalize_for_fp(t.column("text"))).view(np.int64)
        return pa.table({"doc_id": t.column("doc_id"), "fph": pa.array(h)})

    hashed = ds.map_batches(fp_hash, batch_format="pyarrow").materialize()
    cand_refs = dup_group_id_refs(hashed, "fph", "doc_id", drop_min=False)
    if not cand_refs:
        return rd.from_arrow(empty)
    cand_ds = rd.from_arrow_refs(cand_refs)

    def fp(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "fingerprint": pc.fill_null(
                    _fingerprint_col(t.column("text")), "~null~"
                ),
            }
        )

    fp_ds = (
        semi_join(ds, "doc_id", cand_ds, "doc_id")
        .map_batches(fp, batch_format="pyarrow")
        .materialize()
    )
    loser_refs = dup_group_id_refs(fp_ds, "fingerprint", "doc_id", drop_min=True)
    return rd.from_arrow_refs(loser_refs) if loser_refs else rd.from_arrow(empty)


def dedup_exact(ds: rd.Dataset) -> rd.Dataset:
    """Keep one row per exact-content group (min doc_id wins). The loser
    set is a Dataset routed through the cap-aware broadcast-or-shuffle
    anti-join — never a driver-held set."""
    from ..core.joins import semi_join

    return semi_join(ds, "doc_id", exact_loser_ids_ds(ds), "doc_id", anti=True)


# ---------------------------------------------------------------------------
# Quality scoring
# ---------------------------------------------------------------------------


def doc_quality_scores(sf_dir: str) -> rd.Dataset:
    """Per-doc quality signals: length, punctuation/digit/stopword ratios."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_chars = np.asarray(pc.utf8_length(text).to_numpy(zero_copy_only=False), dtype=np.int64)
        n_words = np.asarray(_count_re(text, WS_TOKEN_RE).to_numpy(zero_copy_only=False))
        n_punct = np.asarray(_count_re(text, PUNCT_RE).to_numpy(zero_copy_only=False))
        n_digits = np.asarray(_count_re(text, DIGIT_RE).to_numpy(zero_copy_only=False))
        n_stop = np.asarray(_count_re(text, STOPWORD_RE).to_numpy(zero_copy_only=False))
        punct_ratio = _rha(n_punct / np.maximum(n_chars, 1), 6)
        stop_ratio = _rha(n_stop / np.maximum(n_words, 1), 6)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars_actual": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "n_punct": pa.array(n_punct),
                "n_digits": pa.array(n_digits),
                "n_stopwords": pa.array(n_stop),
                "punct_ratio": pa.array(punct_ratio),
                "stopword_ratio": pa.array(stop_ratio),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Language ID (n-gram / stopword heuristic; rows-only check)
# ---------------------------------------------------------------------------

LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "is", "that", "with", "for"),
    "es": ("el", "la", "de", "que", "los", "una", "por"),
    "fr": ("le", "la", "les", "des", "est", "une", "dans"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "mit"),
}


class LangIdStage:
    """Actor-pool stage: marker regexes compiled once per actor (A4 analog)."""

    def __init__(self):
        self.patterns = {
            lang: r"\b(" + "|".join(ws) + r")\b" for lang, ws in LANG_MARKERS.items()
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        # null text scores as empty text (pred 'und', score 0.0) — keeps the
        # engine and the SQL oracle (coalesce(text,'')) on one code path
        # instead of NaN-vs-NULL divergence
        text = pc.utf8_lower(pc.fill_null(t.column("text"), ""))
        n_words = np.maximum(
            np.asarray(_count_re(text, WS_TOKEN_RE).to_numpy(zero_copy_only=False)), 1
        )
        scores = np.zeros((t.num_rows, len(self.patterns)))
        langs = list(self.patterns)
        for j, lang in enumerate(langs):
            hits = np.asarray(
                _count_re(text, self.patterns[lang]).to_numpy(zero_copy_only=False)
            )
            scores[:, j] = hits / n_words
        best = np.argmax(scores, axis=1)
        best_score = scores[np.arange(t.num_rows), best]
        pred = np.where(best_score > 0.01, np.asarray(langs, dtype=object)[best], "und")
        # half-away rounding for DuckDB round() parity (numpy round is
        # banker's; see core/rounding.py)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "lang_pred": pa.array(pred, type=pa.string()),
                "lang_score": pa.array(_rha(best_score, 6)),
            }
        )


def doc_lang_id(sf_dir: str) -> rd.Dataset:
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    return ds.map_batches(LangIdStage, batch_format="pyarrow", concurrency=(1, 4))


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup
# ---------------------------------------------------------------------------

MINHASH_K = 64
LSH_BANDS = 16
LSH_ROWS = MINHASH_K // LSH_BANDS


def _minhash_seeds(k: int = MINHASH_K, seed: int = 1234567) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 2**63, size=k, dtype=np.int64
    ).astype(np.uint64)


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Stable uint64 hashes of word n-gram shingles (full 64-bit xxhash via
    ``core.hashing``; the earlier paired-crc32 construction was affine and
    collapsed to ~32 effective bits for equal-length shingles)."""
    from ..core.hashing import hash_strings

    words = text.lower().split()
    if len(words) < n:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    return np.unique(hash_strings(shingles))


def _split_words(texts: pa.Array) -> tuple[pa.ListArray, np.ndarray, pa.Array, np.ndarray]:
    """Lower + whitespace-split a text column, matching ``str.lower().split()``.

    Arrow's ``utf8_split_whitespace`` emits phantom empty tokens at string
    edges, so the text is whitespace-trimmed first; a fully-empty/whitespace
    string then yields the single token ``""`` (Python yields ``[]`` — the
    one divergence; callers that care, e.g. SimHash, mask zero-length docs
    explicitly). Returns (list_array, offsets, flat_values, lens).
    """
    trimmed = pc.utf8_trim_whitespace(pc.utf8_lower(texts))
    words = pc.utf8_split_whitespace(trimmed)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values
    lens = off[1:] - off[:-1]
    return words, off, flat, lens


class MinHashStage:
    """Actor-pool stage: hash-family params built once per actor.

    Emits one row per (doc, band): (band_id, band_key, doc_id). The LSH
    groupby then buckets by band_key (band index is mixed into the key);
    only docs sharing a full band collide (SURVEY.md D-gap: doc-scale
    near-dedup).

    Signatures are computed fully vectorized (VERDICT r1 item 5): shingle
    strings are built with one ``binary_join_element_wise`` over three
    slices of the flat word array, hashed in one ``hash_strings`` call, and
    reduced per (doc, seed) with ``np.minimum.reduceat`` — no Python loop
    over rows. ``signature()`` keeps the original per-row construction as
    the differential-test reference; both produce identical signatures
    (min over duplicates == min over uniques).
    """

    def __init__(self, k: int = MINHASH_K, bands: int = LSH_BANDS):
        self.seeds = _minhash_seeds(k)
        self.k = k
        self.bands = bands
        self.r = k // bands

    def signature(self, text: str) -> np.ndarray:
        from ..core.hashing import splitmix64

        h = _shingle_hashes(text)
        # k independent min-wise functions via seeded splitmix64 mixing —
        # pure uint64 ops, no modular multiply (the previous (a*h+b) mod p
        # silently wrapped at 2^64 before the reduction, breaking the
        # claimed universal family)
        vals = splitmix64(h[None, :] ^ self.seeds[:, None])  # (k, |shingles|)
        return vals.min(axis=1)

    def signatures_vec(self, texts: pa.Array, n: int = 3) -> np.ndarray:
        """(n_docs, k) signature matrix for a non-null text column."""
        from ..core.hashing import hash_strings, splitmix64

        words, off, flat, lens = _split_words(texts)
        n_docs = len(lens)
        sig = np.empty((n_docs, self.k), dtype=np.uint64)
        if n_docs == 0:
            return sig
        nflat = len(flat)
        long_mask = lens >= n
        if long_mask.any() and nflat >= n:
            a = flat.slice(0, nflat - (n - 1))
            b = flat.slice(1, nflat - (n - 1))
            c = flat.slice(2, nflat - (n - 1))
            doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
            valid = doc_of[: nflat - (n - 1)] == doc_of[n - 1 :]
            tris = pc.binary_join_element_wise(a, b, c, " ").filter(pa.array(valid))
            tri_hash = hash_strings(tris)
            tri_doc = doc_of[: nflat - (n - 1)][valid]
            # contiguous per-doc runs (tri_doc is non-decreasing)
            starts = np.flatnonzero(np.diff(tri_doc, prepend=-1))
            udocs = tri_doc[starts]
            for j in range(self.k):
                vals = splitmix64(tri_hash ^ self.seeds[j])
                sig[udocs, j] = np.minimum.reduceat(vals, starts)
        short = np.flatnonzero(~long_mask)
        if short.size:
            joined = pc.binary_join(words.take(pa.array(short)), " ")
            sh = hash_strings(joined)
            sig[short] = splitmix64(sh[:, None] ^ self.seeds[None, :])
        return sig

    def band_keys(self, sig: np.ndarray) -> np.ndarray:
        """(n_docs, bands) uint64 band keys: a splitmix64 chain over the
        band's r signature values with the band index mixed in. Replaces the
        per-row blake2b hexdigest — same bucketing partition (equal chunks ⇒
        equal key; 64-bit collisions only add candidates, which exact
        verification removes), ~16× less Python overhead and an 8-byte key
        through the shuffle instead of a 16-char string."""
        from ..core.hashing import splitmix64

        n_docs = sig.shape[0]
        keys = np.empty((n_docs, self.bands), dtype=np.uint64)
        for band in range(self.bands):
            acc = splitmix64(np.full(n_docs, band, dtype=np.uint64))
            for i in range(self.r):
                acc = splitmix64(acc ^ sig[:, band * self.r + i])
            keys[:, band] = acc
        return keys

    # NOTE: this class is the signature/band-key kernel holder only; the
    # Dataset stage is the task function ``_minhash_band_task`` below (a
    # previous callable-stage __call__ duplicated its emit logic and had no
    # callers — removed).


_WORKER_STAGE_CACHE: dict = {}


def _minhash_band_task(t: pa.Table) -> pa.Table:
    """Task-function form of MinHashStage fused with the composite-key
    projection: emits (key=uint64 band key, doc_id). Actor pools pay
    multi-second startup per map_batches stage (BASELINE.md gotcha #4);
    the stage state (64 seeds) is trivial, so a per-worker cached instance
    in a plain task is strictly faster."""
    st = _WORKER_STAGE_CACHE.get("minhash")
    if st is None:
        st = _WORKER_STAGE_CACHE["minhash"] = MinHashStage()
    sel = t.filter(pc.is_valid(t.column("text")))
    if sel.num_rows == 0:
        return pa.table(
            {"key": pa.array([], type=pa.uint64()), "doc_id": pa.array([], type=pa.int64())}
        )
    sig = st.signatures_vec(sel.column("text").combine_chunks())
    keys = st.band_keys(sig)
    doc_ids = sel.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "key": pa.array(keys.reshape(-1)),
            "doc_id": pa.array(np.repeat(doc_ids, st.bands)),
        }
    )


def doc_minhash_dups(
    sf_dir: str, threshold: float = 0.8, max_bucket: int = 64
) -> pa.Table:
    """MinHash+LSH near-duplicate pairs, verified by exact shingle Jaccard.

    shingle → minhash → band → bucket groupby → candidate pairs → exact
    verification. The groupby ships only (band_id, band_key, doc_id) rows.
    Buckets larger than ``max_bucket`` are truncated (logged via column
    ``bucket_truncated`` absent here — they indicate degenerate content) to
    bound the pair explosion.

    Verification is DISTRIBUTED (``state/pairverify``, VERDICT r2 #2): the
    driver holds only the candidate pair ids (already bounded by the bucket
    caps); candidate docs' shingle sets are recomputed in a streaming pass —
    non-candidates never leave their block — routed to per-range verify
    tasks, and scored by one vectorized lexsort intersection per range. The
    threshold applies to the HALF-AWAY-6-rounded Jaccard, matching the
    DuckDB oracle's ``round(j,6) >= threshold``.
    """
    from ..state.pairreduce import cooccurrence_pairs
    from ..state.pairverify import verify_jaccard_pairs

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    keyed = ds.map_batches(_minhash_band_task, batch_format="pyarrow")
    cand = cooccurrence_pairs(keyed, "key", "doc_id", max_bucket=max_bucket)
    if cand.empty:
        return pa.table(
            {
                "doc_id_a": pa.array([], type=pa.int64()),
                "doc_id_b": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )

    # candidate docs' shingle sets, computed where the data lives
    need_set = pa.array(
        np.unique(np.concatenate([cand["id_a"].to_numpy(), cand["id_b"].to_numpy()])),
        type=pa.int64(),
    )

    def shingles_of(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t.column("doc_id"), value_set=need_set)
        sel = t.filter(pc.fill_null(mask, False))
        rows = []
        for doc_id, text in zip(sel.column("doc_id").to_pylist(), sel.column("text").to_pylist()):
            rows.append({"doc_id": doc_id, "hashes": _shingle_hashes(text or "").tolist()})
        return pa.Table.from_pylist(
            rows, schema=pa.schema([("doc_id", pa.int64()), ("hashes", pa.list_(pa.uint64()))])
        )

    payload = ds.map_batches(shingles_of, batch_format="pyarrow").materialize()
    verified = verify_jaccard_pairs(
        payload,
        "doc_id",
        "hashes",
        cand["id_a"].to_numpy(),
        cand["id_b"].to_numpy(),
        threshold=threshold,
    )
    out = verified.select(["doc_id_a", "doc_id_b", "jaccard"])
    return out.sort_by([("doc_id_a", "ascending"), ("doc_id_b", "ascending")])


# ---------------------------------------------------------------------------
# SimHash near-dedup (pigeonhole piece index, hamming verification)
# ---------------------------------------------------------------------------

SIMHASH_BITS = 64
SIMHASH_PIECES = 4  # hamming ≤ SIMHASH_PIECES-1 guaranteed to collide on ≥1 piece


def _simhash(text: str) -> int:
    from ..core.hashing import hash_strings

    words = text.lower().split()
    if not words:
        return 0
    uniq, counts = np.unique(np.asarray(words, dtype=object), return_counts=True)
    hs = hash_strings([str(w) for w in uniq])
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    acc = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    out = np.uint64(0)
    for j in range(64):
        if acc[j] > 0:
            out |= np.uint64(1) << np.uint64(j)
    return int(out)


def _simhash_vec(texts: pa.Array) -> np.ndarray:
    """Vectorized simhash over a non-null text column → uint64 per doc.

    Identical to ``_simhash`` per doc: the per-unique-word count weighting
    equals summing ±1 over every word OCCURRENCE, so no per-doc unique pass
    is needed; per-bit sums are ``2·Σbit − n_words`` reduced per doc with
    ``np.add.reduceat`` (64 vectorized passes, no Python row loop —
    VERDICT r1 item 5).
    """
    from ..core.hashing import hash_strings

    _, off, flat, lens = _split_words(texts)
    n_docs = len(lens)
    out = np.zeros(n_docs, dtype=np.uint64)
    if n_docs == 0 or len(flat) == 0:
        return out
    # docs whose trimmed text is empty split to the single phantom token
    # [""] (Python's "".split() is [] → simhash 0) — detectable from the
    # split output itself (lens==1 and that token has zero length), no
    # second lower+trim pass over the text column
    empty_doc = np.zeros(n_docs, dtype=bool)
    one = lens == 1
    if one.any():
        tok0 = flat.take(pa.array(off[:-1][one]))
        empty_doc[one] = np.asarray(
            pc.equal(pc.utf8_length(tok0), 0).to_numpy(zero_copy_only=False)
        )
    wh = hash_strings(flat)
    nz = lens > 0
    starts = off[:-1][nz]
    if starts.size:
        doc_lens = lens[nz].astype(np.int64)
        acc_pos = np.empty(starts.size, dtype=np.int64)
        sims = np.zeros(starts.size, dtype=np.uint64)
        for j in range(SIMHASH_BITS):
            bit_j = ((wh >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
            np.add.reduceat(bit_j, starts, out=acc_pos)
            sims |= ((2 * acc_pos - doc_lens) > 0).astype(np.uint64) << np.uint64(j)
        out[nz] = sims
    out[empty_doc] = 0
    return out


class SimHashStage:
    """Emits (piece_id, piece_val, doc_id, simhash) rows for the pigeonhole
    index: two docs within hamming distance < SIMHASH_PIECES must agree on at
    least one 16-bit piece. Simhashes come from the vectorized ``_simhash_vec``
    (``_simhash`` is kept as the per-row differential-test reference)."""

    def __call__(self, t: pa.Table) -> pa.Table:
        sel = t.filter(pc.is_valid(t.column("text")))
        if sel.num_rows == 0:
            return pa.table(
                {
                    "piece_id": pa.array([], type=pa.int32()),
                    "piece_val": pa.array([], type=pa.int32()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "simhash": pa.array([], type=pa.uint64()),
                }
            )
        sims = _simhash_vec(sel.column("text").combine_chunks())
        doc_ids = sel.column("doc_id").to_numpy(zero_copy_only=False)
        p = np.arange(SIMHASH_PIECES, dtype=np.uint64)
        pieces = ((sims[:, None] >> (np.uint64(16) * p[None, :])) & np.uint64(0xFFFF)).astype(
            np.int32
        )
        return pa.table(
            {
                "piece_id": pa.array(np.tile(p.astype(np.int32), sel.num_rows)),
                "piece_val": pa.array(pieces.reshape(-1)),
                "doc_id": pa.array(np.repeat(doc_ids, SIMHASH_PIECES)),
                "simhash": pa.array(np.repeat(sims, SIMHASH_PIECES)),
            }
        )


def doc_simhash_dups(sf_dir: str, max_hamming: int = 3, max_bucket: int = 64) -> pa.Table:
    """SimHash near-duplicate pairs with hamming distance ≤ ``max_hamming``."""
    return _simhash_pairs(
        _docs(sf_dir, columns=["doc_id", "text"]),
        max_hamming=max_hamming,
        max_bucket=max_bucket,
    )


def _simhash_pairs(ds: rd.Dataset, max_hamming: int = 3, max_bucket: int = 64) -> pa.Table:
    from ..state.pairreduce import cooccurrence_pairs

    # materialized: consumed twice (bucket pairs + candidate verification);
    # task fn, not actor pool — the stage is stateless (gotcha #4)
    pieces = ds.map_batches(SimHashStage(), batch_format="pyarrow").materialize()

    def composite_key(t: pa.Table) -> pa.Table:
        # (piece_id, piece_val) packed into one int64 — 8-byte shuffle key
        key = pc.add(
            pc.multiply(pc.cast(t.column("piece_id"), pa.int64()), pa.scalar(1 << 16, pa.int64())),
            pc.cast(t.column("piece_val"), pa.int64()),
        )
        return pa.table({"key": key, "doc_id": t.column("doc_id")})

    keyed = pieces.map_batches(composite_key, batch_format="pyarrow")
    cand = cooccurrence_pairs(keyed, "key", "doc_id", max_bucket=max_bucket)

    # verify candidates by exact hamming distance on the full simhashes —
    # fetched for CANDIDATE docs only (broadcast id-set filter; candidates
    # are assumed ≪ corpus, the LSH contract)
    if not len(cand):
        return pa.table(
            {
                "doc_id_a": pa.array([], type=pa.int64()),
                "doc_id_b": pa.array([], type=pa.int64()),
                "hamming": pa.array([], type=pa.int64()),
            }
        )
    need_arr = pa.array(
        np.unique(np.concatenate([cand["id_a"].to_numpy(), cand["id_b"].to_numpy()]))
    )

    def pick(t: pa.Table) -> pa.Table:
        # piece_id==0 → one row per doc (pieces emits 4 identical simhash
        # rows per doc)
        mask = pc.and_(
            pc.equal(t.column("piece_id"), 0),
            pc.fill_null(pc.is_in(t.column("doc_id"), value_set=need_arr), False),
        )
        sel = t.filter(mask)
        return pa.table({"doc_id": sel.column("doc_id"), "simhash": sel.column("simhash")})

    picked = _collect(pieces.map_batches(pick, batch_format="pyarrow"))
    pid = picked.column("doc_id").to_numpy(zero_copy_only=False)
    psim = picked.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(pid)
    pid, psim = pid[order], psim[order]
    # fully vectorized hamming verification (the per-pair Python loop was
    # the wall at 5M candidate pairs in the 500k-doc stress)
    from ..core.fuzzy import _popcount

    a = cand["id_a"].to_numpy()
    b = cand["id_b"].to_numpy()
    h = _popcount(psim[np.searchsorted(pid, a)] ^ psim[np.searchsorted(pid, b)])
    keep = h <= max_hamming
    a, b, h = a[keep], b[keep], h[keep]
    order = np.lexsort((b, a))  # matches the previous sorted(zip(a, b))
    return pa.table(
        {
            "doc_id_a": pa.array(a[order], type=pa.int64()),
            "doc_id_b": pa.array(b[order], type=pa.int64()),
            "hamming": pa.array(h[order].astype(np.int64)),
        }
    )


_SIMHASH_RECALL_SCHEMA = pa.schema(
    [
        ("n_truth_pairs", pa.int64()),
        ("n_truth_found", pa.int64()),
        ("recall", pa.float64()),
    ]
)


def _sorted_bags(texts: pa.Array) -> pa.Array:
    """Sorted word-multiset string per text: lower().split() words sorted and
    joined by ' ' — space-join is unambiguous because words cannot contain
    whitespace. One ``np.lexsort`` over (word, doc_index) sorts every doc's
    slice in place; no per-row loop."""
    words, off, flat, lens = _split_words(texts)
    flat_np = flat.to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    order = np.lexsort((flat_np, doc_idx))
    # large_list offsets: a block's flat word count can exceed int32 at scale
    sorted_list = pa.LargeListArray.from_arrays(
        pa.array(off, type=pa.int64()), pa.array(flat_np[order], type=pa.string())
    )
    return pc.binary_join(sorted_list, " ")


# permuted-twin plant for the simhash recall contract: every TWIN_MOD-th doc
# gains a twin whose text is its own sorted word bag — a REORDERING of the
# same multiset, so the twin's simhash is IDENTICAL (simhash is order-free)
# and the pigeonhole index must pair them. Both constants are reproduced
# verbatim in the SQL oracle.
SIMHASH_TWIN_MOD = 50
SIMHASH_TWIN_OFF = 1 << 40


def _with_permuted_twins(t: pa.Table) -> pa.Table:
    sel = t.filter(pc.is_valid(t.column("text")))
    base = pa.table({"doc_id": sel.column("doc_id"), "text": sel.column("text")})
    ids = sel.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    pick = sel.filter(pa.array(ids % SIMHASH_TWIN_MOD == 0))
    if pick.num_rows == 0:
        return base
    twins = pa.table(
        {
            "doc_id": pc.add(
                pc.cast(pick.column("doc_id"), pa.int64()),
                pa.scalar(SIMHASH_TWIN_OFF, pa.int64()),
            ),
            "text": pc.cast(
                _sorted_bags(pick.column("text").combine_chunks()), pa.string()
            ),
        }
    )
    return pa.concat_tables([base, twins])


def _bag_fp_rows(t: pa.Table) -> pa.Table:
    """(doc_id, bag_fp) per non-null-text row: md5 hex of the sorted word
    bag — the repo's exact-identity convention (``_fingerprint_col``), so
    equal fingerprints ARE equal bags; only 32 B/doc ever shuffles."""
    sel = t.filter(pc.is_valid(t.column("text")))
    if sel.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "bag_fp": pa.array([], type=pa.string()),
            }
        )
    bags = _sorted_bags(sel.column("text").combine_chunks())
    fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in bags.to_pylist()]
    return pa.table(
        {
            "doc_id": sel.column("doc_id"),
            "bag_fp": pa.array(fps, type=pa.string()),
        }
    )


def doc_simhash_recall(sf_dir: str, max_hamming: int = 3, max_bucket: int = 64) -> pa.Table:
    """Driver-checkable recall contract for the SimHash index: every pair of
    docs with IDENTICAL word multisets (lower().split() bags) has identical
    simhashes (hamming 0), so the 4-piece pigeonhole index MUST emit it —
    recall over bag-duplicate ground truth is exactly 1.0, and the truth-pair
    count is plain SQL (group docs by sorted word bag). Turns the
    probabilistic ``doc_simhash_dups`` family into an oracle-graded query the
    same way `knn_lsh`/`knn_ivf` recall rows did for approximate ANN.

    Ground truth is kept non-vacuous at every scale by a deterministic
    permuted-twin plant (every ``SIMHASH_TWIN_MOD``-th doc gains a twin whose
    text is its own sorted word bag — same multiset, different order, same
    simhash), mirrored verbatim in the SQL oracle like the planted family in
    ``seq_neardup_pairs``.

    Scale shape: truth pairs are COUNTED distributed, never materialized —
    per-doc bag fingerprints (md5 of the sorted bag, 32 B/row, the
    ``doc_exact_dup_groups`` convention) through a hash-partitioned groupby,
    then per-block Σ C(n,2) partials; a boilerplate corpus with 25M truth
    pairs costs the driver a handful of int64 partials. The found∩truth
    check recovers fingerprints for docs IN FOUND PAIRS only (broadcast
    id-set filter) and compares factorized codes vectorized. On such corpora
    ``max_bucket`` deliberately trades recall (every LSH cap does) and the
    reported recall honestly drops below 1.0 — the ==1.0 contract is for
    corpora whose dup-group piece-buckets stay under the cap (the fixture
    guarantee, like ``seq_neardup_pairs``' blocking assumption)."""
    aug = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_with_permuted_twins, batch_format="pyarrow")
        .materialize()
    )
    fps = aug.map_batches(_bag_fp_rows, batch_format="pyarrow").materialize()

    # n_truth_pairs = Σ_groups C(n,2), reduced distributed: groupby on the
    # 32 B fingerprint → per-block partial sums → tiny driver add
    agg = fps.groupby("bag_fp").aggregate(Count(alias_name="n"))

    def pair_partials(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"partial": pa.array([int((n * (n - 1) // 2).sum())])})

    parts = _collect(agg.map_batches(pair_partials, batch_format="pyarrow"))
    n_truth = int(pc.sum(parts.column("partial")).as_py() or 0)

    pairs = _simhash_pairs(aug, max_hamming=max_hamming, max_bucket=max_bucket)
    a = pairs.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = pairs.column("doc_id_b").to_numpy(zero_copy_only=False)
    n_found = 0
    if len(a):
        need_arr = pa.array(np.unique(np.concatenate([a, b])))

        def pick(t: pa.Table) -> pa.Table:
            mask = pc.fill_null(pc.is_in(t.column("doc_id"), value_set=need_arr), False)
            return t.filter(mask)

        cand = _collect(fps.map_batches(pick, batch_format="pyarrow"))
        cid = cand.column("doc_id").to_numpy(zero_copy_only=False)
        # factorize fingerprints → int codes; equal codes ⇔ equal bags
        _, codes = np.unique(
            cand.column("bag_fp").to_numpy(zero_copy_only=False), return_inverse=True
        )
        order = np.argsort(cid)
        cid, codes = cid[order], codes[order]
        n_found = int(
            (codes[np.searchsorted(cid, a)] == codes[np.searchsorted(cid, b)]).sum()
        )
    recall = _rha(n_found / n_truth, 6) if n_truth else 1.0
    return pa.table(
        {
            "n_truth_pairs": pa.array([n_truth], type=pa.int64()),
            "n_truth_found": pa.array([n_found], type=pa.int64()),
            "recall": pa.array([float(recall)], type=pa.float64()),
        }
    ).cast(_SIMHASH_RECALL_SCHEMA)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard near-dup (oracle-checkable variant)
# ---------------------------------------------------------------------------

NGRAM_N = 3


def _shingle_explode(t: pa.Table) -> pa.Table:
    """(doc_id, shingle, n) rows: distinct word 3-grams per doc (docs with
    fewer than NGRAM_N words emit none — spec shared with the SQL oracle);
    ``n`` repeats the doc's TOTAL distinct-shingle count on every row so the
    Jaccard denominator rides the pair exchange (no driver size dict)."""
    out_doc, out_sh, out_n = [], [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        words = (text or "").split(" ")
        if len(words) < NGRAM_N:
            continue
        seen = set()
        for i in range(len(words) - NGRAM_N + 1):
            seen.add(" ".join(words[i : i + NGRAM_N]))
        out_doc.extend([doc_id] * len(seen))
        out_sh.extend(sorted(seen))
        out_n.extend([len(seen)] * len(seen))
    return pa.table(
        {
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "shingle": pa.array(out_sh, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


NGRAM_HOT_CAP = 64


def doc_ngram_jaccard_pairs(
    sf_dir: str, threshold: float = 0.6, hot_cap: int = NGRAM_HOT_CAP
) -> pa.Table:
    """EXACT word-3-gram Jaccard similar pairs via a shingle inverted index.

    explode → groupby(shingle) emits co-occurring pairs → groupby(pair)
    counts shared shingles → |A∩B| / (|A|+|B|−|A∩B|). Shingles shared by
    more than ``hot_cap`` docs are stop-listed (DROPPED, not truncated —
    deterministic and SQL-reproducible, same contract as
    ``doc_overlap_pairs``): a boilerplate shingle with df=1000 alone yields
    500k pairs, and a 500k-doc small-vocab stress corpus measured 11.7
    BILLION under-1024-cap pairs vs 973k under this cap. Where no shingle is
    hot (the fixtures: max df 7 at sf0.01, 25 at sf0.1) the result is the
    exact Jaccard; on boilerplate corpora shared counts become a documented
    lower bound (union stays full), so pairs can be missed, never invented.

    Per-doc shingle counts ride each exploded row through the pair reduce
    (``size_col``) and come back as per-pair size_a/size_b — no driver-side
    doc→size dict, no second aggregate pass (VERDICT r2 finding #1: the old
    ``take_all`` dict was O(corpus) driver memory, serialized per task).
    """
    from ..state.pairreduce import cooccurrence_pairs

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    shingles = ds.map_batches(_shingle_explode, batch_format="pyarrow").materialize()

    shared_df = cooccurrence_pairs(
        shingles, "shingle", "doc_id", max_bucket=hot_cap, drop_hot=True, size_col="n"
    )
    shared_df = shared_df.rename(columns={"id_a": "a", "id_b": "b", "n_shared": "shared"})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id_a": pd.Series([], dtype=np.int64),
                    "doc_id_b": pd.Series([], dtype=np.int64),
                    "jaccard": pd.Series([], dtype=np.float64),
                }
            )
        na = df["size_a"].to_numpy(dtype=np.float64)
        nb = df["size_b"].to_numpy(dtype=np.float64)
        c = df["shared"].to_numpy(dtype=np.float64)
        j = _rha(c / (na + nb - c), 6)
        out = pd.DataFrame(
            {
                "doc_id_a": df["a"].astype(np.int64),
                "doc_id_b": df["b"].astype(np.int64),
                "jaccard": j,
            }
        )
        return out[out["jaccard"] >= threshold]

    out = finalize(shared_df).sort_values(["doc_id_a", "doc_id_b"])
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False).cast(
        pa.schema(
            [("doc_id_a", pa.int64()), ("doc_id_b", pa.int64()), ("jaccard", pa.float64())]
        )
    )


# ---------------------------------------------------------------------------
# Near-dup cluster merge + corpus cleaning composition
# ---------------------------------------------------------------------------


def _near_dup_label_refs(
    sf_dir: str, threshold: float, driver_cap: "int | None" = None
) -> list:
    """Component labels for the verified MinHash pairs, as ObjectRefs of
    (doc_id, cluster_id) tables — driver union-find under the pair cap,
    hash-partitioned label propagation above it (``state/components``,
    reference analog D4's greedy merge re-architected)."""
    from ..state.components import connected_component_refs

    pairs_tbl = doc_minhash_dups(sf_dir, threshold=threshold)
    a = pairs_tbl.column("doc_id_a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = pairs_tbl.column("doc_id_b").to_numpy(zero_copy_only=False).astype(np.int64)
    if a.size == 0:
        return []
    return connected_component_refs(a, b, driver_cap=driver_cap)


def doc_near_dup_clusters(
    sf_dir: str, threshold: float = 0.8, *, driver_cap: "int | None" = None
) -> pa.Table:
    """Near-duplicate clusters from verified MinHash pairs: (doc_id,
    cluster_id=min doc_id in component, is_keeper). ``driver_cap`` selects
    the union-find fast path vs distributed label propagation (identical
    output — pinned by the cap=0 path-equivalence test)."""
    refs = _near_dup_label_refs(sf_dir, threshold, driver_cap=driver_cap)
    if not refs:
        return pa.schema(
            [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("is_keeper", pa.bool_())]
        ).empty_table()
    comp = pa.concat_tables(ray.get(refs))
    comp = comp.take(pc.sort_indices(comp.column("doc_id")))
    return comp.append_column(
        "is_keeper", pc.equal(comp.column("doc_id"), comp.column("cluster_id"))
    )


def clean_documents(
    sf_dir: str,
    out_dir: str | None = None,
    *,
    near_dup_threshold: float | None = 0.8,
    min_words: int = 5,
    max_stopword_ratio: float = 0.9,
    driver_cap: "int | None" = None,
) -> rd.Dataset:
    """Composed training-data cleaning pipeline over documents:

      exact dedup (fingerprint groupby, min-id keeper)
      → near-dedup (MinHash+LSH clusters, keep cluster root)
      → quality filter (min length, stopword-ratio cap)

    ``near_dup_threshold=None`` skips the (approximate, non-SQL) near-dedup
    stage; that exact-only composition is fully SQL-expressible and is the
    oracle-checked driver query ``clean_documents_exact``.

    The drop set never lives on the driver (VERDICT r3 finding #1): exact
    losers stay a Dataset (``exact_loser_ids_ds``), near-dup non-keepers
    stay per-range label tables in the object store, and their union feeds
    the cap-aware broadcast-or-shuffle anti-join (``core/joins.semi_join``)
    — small drop sets broadcast exactly as before, a majority-duplicate
    corpus hash-joins instead of blowing up the driver. Quality predicates
    run vectorized in a fused follow-on pass over the same read. Writes
    partitioned parquet when ``out_dir`` is given (resumable output
    layout).
    """
    from ..core.joins import semi_join

    ds = _docs(sf_dir)

    # stage 1+2 losers (Datasets / object-store refs only)
    losers = exact_loser_ids_ds(_docs(sf_dir, columns=["doc_id", "text"]))
    if near_dup_threshold is not None:
        refs = _near_dup_label_refs(
            sf_dir, threshold=near_dup_threshold, driver_cap=driver_cap
        )
        if refs:

            def non_keepers(t: pa.Table) -> pa.Table:
                sel = t.filter(
                    pc.not_equal(t.column("doc_id"), t.column("cluster_id"))
                )
                return pa.table({"doc_id": sel.column("doc_id")})

            losers = losers.union(
                rd.from_arrow_refs(refs).map_batches(
                    non_keepers, batch_format="pyarrow"
                )
            )

    def quality_filter(t: pa.Table) -> pa.Table:
        n_words = np.asarray(
            _count_re(t.column("text"), WS_TOKEN_RE).to_numpy(zero_copy_only=False)
        )
        n_stop = np.asarray(
            _count_re(t.column("text"), STOPWORD_RE).to_numpy(zero_copy_only=False)
        )
        keep_mask = n_words >= min_words
        keep_mask &= (n_stop / np.maximum(n_words, 1)) <= max_stopword_ratio
        return t.filter(pa.array(keep_mask))

    cleaned = semi_join(ds, "doc_id", losers, "doc_id", anti=True).map_batches(
        quality_filter, batch_format="pyarrow"
    )
    if out_dir is not None:
        import json as _json
        import os as _os

        from ..core.collect import reset_incomplete_sink

        marker = _os.path.join(out_dir, "_CLEAN_SUCCESS.json")
        if reset_incomplete_sink(out_dir, marker):
            # resumable output contract: a completed clean corpus is not
            # rewritten (delete the marker to force); an incomplete one is
            # cleared first so the rewrite cannot append onto partial files
            return rd.read_parquet(out_dir)
        # partitioned by source: a failed run resumes by re-running (writes
        # are directory-partitioned, never one giant file), and downstream
        # readers can prune by source
        cleaned.write_parquet(out_dir, partition_cols=["source"])
        with open(marker, "w") as f:
            _json.dump({"params": {"near_dup_threshold": near_dup_threshold,
                                   "min_words": min_words,
                                   "max_stopword_ratio": max_stopword_ratio}}, f)
    return cleaned


def clean_full_state_ref(
    sf_dir: str, n: int, bench_mod: int, *, loser_cap: "int | None" = None
):
    """Broadcast state for the composed cleaning pass + the cap-aware
    loser routing decision. Returns ``(state_ref, losers_ds_or_None)``:

    - loser count ≤ cap (the common regime): the sorted loser-id ndarray
      rides the broadcast state exactly as before (ONE fused pass, zero
      extra reads) and the second element is None;
    - above the cap (majority-duplicate corpus): the broadcast drop array
      is EMPTY and the caller must anti-join the returned loser Dataset
      before its fused pass (``core/joins.semi_join`` key exchange) — the
      driver never holds the drop set (VERDICT r3 finding #1).
    """
    import ray as _ray

    from ..core import joins as _joins

    losers_ds = exact_loser_ids_ds(_docs(sf_dir, columns=["doc_id", "text"]))
    cap = _joins.BROADCAST_KEY_CAP if loser_cap is None else loser_cap
    keys = _joins.probe_keys(losers_ds, "doc_id", cap)
    if keys is not None:
        drop_sorted = np.sort(
            keys.drop_null().to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return (
            _ray.put((drop_sorted, *_decon_bench_state(sf_dir, n, bench_mod))),
            None,
        )
    return (
        _ray.put((np.zeros(0, dtype=np.int64), *_decon_bench_state(sf_dir, n, bench_mod))),
        losers_ds,
    )


def clean_full_filter_batch(
    t: pa.Table, state_ref, n: int, bench_mod: int, _cache: dict
) -> pa.Table:
    """One fused cleaning pass over a batch: dup-loser + benchmark-holdout
    id drops BEFORE the split, then Gopher keep and decontamination hits
    from ONE shared word split (gram hashing masked to Gopher keepers so
    rejected docs never pay for decontamination)."""
    import ray as _ray

    st = _cache.get("st")
    if st is None:
        st = _cache["st"] = _ray.get(state_ref)
    drop, bh, bset = st
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    pre = ids % bench_mod != 0
    if drop.size:
        at = np.clip(np.searchsorted(drop, ids), 0, drop.size - 1)
        pre &= drop[at] != ids
    t = t.filter(pa.array(pre))
    if t.num_rows == 0:
        return t
    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    _, off, flat, lens = _split_words(texts)
    keep = _gopher_flags_from_split(off, flat, lens)["keep"]
    hits = _decon_hits_from_split(off, flat, np.where(keep, lens, 0), bh, bset, n)
    return t.filter(pa.array(keep & (hits == 0)))


def clean_documents_full(
    sf_dir: str,
    out_dir: str | None = None,
    *,
    n: int = DECON_NGRAM,
    bench_mod: int = DECON_BENCH_MOD,
    loser_cap: "int | None" = None,
) -> rd.Dataset:
    """Flagship composed cleaning pipeline — the full LLM training-data
    preparation flow with every stage exact and SQL-expressible:

      exact dedup (candidate→recover fingerprint reduce, min-id keeper)
      → benchmark holdout (the eval slice ``doc_id % bench_mod == 0``
        never trains)
      → decontamination (drop docs sharing any benchmark word n-gram)
      → Gopher quality rules (the composed 5-rule keep verdict)

    The dedup drop-set and benchmark gram state are small-side broadcast
    (``ray.put`` once, fetched per worker); the corpus is then re-read ONCE
    and all predicates run in a single fused pass with ONE word split per
    batch — document payloads are never shuffled. Id-level drops (dup
    losers, benchmark holdout) filter the batch before the split; gram
    hashing is additionally masked to Gopher keepers so dropped docs never
    pay for decontamination. When the loser set exceeds the broadcast cap
    (majority-duplicate corpus) the drop moves into a shuffle anti-join in
    front of the fused pass instead of a driver broadcast — identical
    output, pinned by the path-equivalence test.
    """
    from ..core.joins import semi_join

    state_ref, losers_ds = clean_full_state_ref(
        sf_dir, n, bench_mod, loser_cap=loser_cap
    )

    def final_pass(t: pa.Table, _cache={}) -> pa.Table:
        return clean_full_filter_batch(t, state_ref, n, bench_mod, _cache)

    base = _docs(sf_dir)
    if losers_ds is not None:
        base = semi_join(base, "doc_id", losers_ds, "doc_id", anti=True)
    cleaned = base.map_batches(final_pass, batch_format="pyarrow")
    if out_dir is not None:
        import json as _json
        import os as _os

        from ..core.collect import reset_incomplete_sink

        marker = _os.path.join(out_dir, "_CLEAN_FULL_SUCCESS.json")
        if reset_incomplete_sink(out_dir, marker):
            return rd.read_parquet(out_dir)
        cleaned.write_parquet(out_dir, partition_cols=["source"])
        with open(marker, "w") as f:
            _json.dump({"params": {"n": n, "bench_mod": bench_mod}}, f)
    return cleaned


# ---------------------------------------------------------------------------
# Documents-table validation (the row-check engine generalized to documents)
# ---------------------------------------------------------------------------

# referential language allowlist (FIXTURES.md: the fixture corpus draws from
# these five); a lang outside it is a tagging bug, not a new language
DOC_LANG_ALLOWLIST = ("de", "en", "es", "fr", "zh")


def documents_validate(sf_dir: str) -> pa.Table:
    """Per-language validation verdicts over the documents table: counts of
    rows with a null doc_id / text / lang, an empty (zero-codepoint) text,
    a lang outside ``DOC_LANG_ALLOWLIST``, an ``n_chars`` that disagrees
    with the text's actual codepoint length (the documents analog of the
    sequences engine's ntok_mismatch cross-column pairing; nulls compare
    under a shared -1 sentinel so null text + null n_chars is consistent,
    not mismatched), or a negative n_chars — plus the violating-row total
    and a passed flag. Null langs fold into the ``~null~`` sentinel group.

    Same fused-kernel + per-batch-combiner + tiny-groupby shape as the
    sequences / embeddings / events validators: one streaming pass, document
    text never shuffles (only a dozen integers per (batch, lang) group).
    Arrow ``utf8_length`` and DuckDB ``length()`` both count codepoints, so
    the oracle replays the mismatch flag exactly.
    """
    from ray.data.aggregate import Sum as _Sum

    from ..core.batches import arrow_out as _aout

    ds = _docs(sf_dir)
    flags = (
        "null_id",
        "null_text",
        "empty_text",
        "null_lang",
        "bad_lang",
        "nchars_mismatch",
        "neg_nchars",
    )
    allowed = pa.array(list(DOC_LANG_ALLOWLIST), type=pa.string())

    def partial(t: pa.Table) -> pd.DataFrame:
        def _b(a):
            return np.asarray(a.to_numpy(zero_copy_only=False), dtype=bool)

        text = t.column("text")
        lang = t.column("lang")
        n_chars = t.column("n_chars")
        tlen = pc.cast(pc.utf8_length(text), pa.int64())
        null_id = _b(pc.is_null(t.column("doc_id")))
        null_text = _b(pc.is_null(text))
        empty_text = _b(pc.fill_null(pc.equal(tlen, 0), False))
        null_lang = _b(pc.is_null(lang))
        bad_lang = _b(
            pc.and_(pc.is_valid(lang), pc.invert(pc.is_in(lang, value_set=allowed)))
        )
        mismatch = _b(
            pc.not_equal(pc.fill_null(n_chars, -1), pc.fill_null(tlen, -1))
        )
        neg_nchars = _b(pc.fill_null(pc.less(n_chars, 0), False))
        viol = (
            null_id | null_text | empty_text | null_lang | bad_lang | mismatch | neg_nchars
        )
        df = pd.DataFrame(
            {
                "lang": pc.fill_null(lang, "~null~").to_pandas(),
                "n_rows": 1,
                "null_id": null_id.astype(np.int64),
                "null_text": null_text.astype(np.int64),
                "empty_text": empty_text.astype(np.int64),
                "null_lang": null_lang.astype(np.int64),
                "bad_lang": bad_lang.astype(np.int64),
                "nchars_mismatch": mismatch.astype(np.int64),
                "neg_nchars": neg_nchars.astype(np.int64),
                "viol_rows": viol.astype(np.int64),
            }
        )
        g = df.groupby("lang", as_index=False).sum()
        g["n_rows"] = g["n_rows"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pyarrow")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("lang")
        .aggregate(
            _Sum("n_rows", alias_name="n_rows"),
            *[_Sum(f, alias_name=f) for f in flags],
            _Sum("viol_rows", alias_name="viol_rows"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_rows", *flags, "viol_rows"):
            df[c] = df[c].astype(np.int64)
        df["passed"] = df["viol_rows"] == 0
        return df[["lang", "n_rows", *flags, "viol_rows", "passed"]]

    out = _collect(agg.map_batches(finalize, batch_format="pandas").sort("lang"))
    if out.num_rows == 0:
        # a 0-row documents table: the aggregate emits nothing, so finalize
        # never runs — return the typed empty verdict table, not a
        # schema-less one
        return pa.schema(
            [("lang", pa.string()), ("n_rows", pa.int64())]
            + [(f, pa.int64()) for f in flags]
            + [("viol_rows", pa.int64()), ("passed", pa.bool_())]
        ).empty_table()
    return out


# ---------------------------------------------------------------------------
# Per-language length-distribution outlier audit (documents table)
# ---------------------------------------------------------------------------
# The documents-table analog of the sequences engine's drift verdicts, with
# no reference corpus needed: each language's n_chars distribution is
# KS-compared against the REST of the corpus (its complement), flagging the
# language whose document-length profile deviates — a crawl/extraction
# pipeline that truncates or pads one language shows up here while
# per-language row counts stay plausible. The statistic is the engine-exact
# integer KS shared with seq_corpus_drift (max |cumA*nB − cumB*nA| in
# Python bigints / HUGEINT, one integer division to ppm), so no float
# threshold can disagree with the SQL oracle. One streaming pass over two
# thin columns; the driver sees langs × bins integers. Null langs fold to
# '~null~'; null/negative n_chars fold to bin -1. A lang that is the WHOLE
# corpus has an empty complement and reads maximal drift (the CDF gap
# supremum over an empty side is defined as 1), matching the two-corpus
# convention.

DOC_DRIFT_BIN = 64          # n_chars histogram bin width
DOC_LANG_KS_PPM = 120_000   # flag a lang whose length CDF gaps >12% vs rest


def documents_lang_drift(sf_dir: str, ks_ppm: int = DOC_LANG_KS_PPM) -> pa.Table:
    """Per-language n_chars-distribution KS vs the rest of the corpus
    (contract in the section comment above)."""
    from ..core.batches import arrow_out as _aout
    from .tokens import _ks_verdicts

    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(t: pa.Table) -> pd.DataFrame:
        lang = pc.fill_null(t.column("lang"), "~null~").to_pandas()
        nc = pc.fill_null(pc.cast(t.column("n_chars"), pa.int64()), -1).to_numpy(
            zero_copy_only=False
        )
        bins = np.where(nc < 0, -1, nc // DOC_DRIFT_BIN)
        df = pd.DataFrame(
            {"lang": lang, "bin": bins.astype(np.int64), "n": np.int64(1)}
        )
        g = df.groupby(["lang", "bin"], as_index=False).sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    ha: dict = {}
    for bt in ds.map_batches(_aout(partial), batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for l, b, n in zip(
            bt.column("lang").to_pylist(),
            bt.column("bin").to_pylist(),
            bt.column("n").to_pylist(),
        ):
            ha[(l, b)] = ha.get((l, b), 0) + int(n)
    tot: dict = {}
    for (_, b), n in ha.items():
        tot[b] = tot.get(b, 0) + n
    langs = sorted({l for l, _ in ha})
    hb = {
        (l, b): tot[b] - ha.get((l, b), 0)
        for l in langs
        for b in tot
    }
    return _ks_verdicts(
        ha, hb, ks_ppm, count_cols=("rows_lang", "rows_rest"), key_col="lang"
    )


# ---------------------------------------------------------------------------
# CCNet-style cross-document boilerplate removal
# ---------------------------------------------------------------------------

BOILERPLATE_MIN_DF = 2

_BOILERPLATE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("clean_text", pa.string()),
        ("n_kept", pa.int64()),
        ("n_removed", pa.int64()),
    ]
)


def _boilerplate_reassemble(
    doc_ids: np.ndarray, statements: pd.Series, is_bp: np.ndarray
) -> pa.Table:
    """Per-batch reassembly: docs are contiguous and segments in order, so a
    sort=False pandas groupby rebuilds each doc's cleaned text in one pass.
    Docs whose every segment was boilerplate stay in the output with
    ``clean_text=''`` (the CCNet contract: the doc row survives, emptied)."""
    df = pd.DataFrame({"doc_id": doc_ids, "statement": statements})
    totals = df.groupby("doc_id", sort=False).size()
    kept_g = df[~is_bp].groupby("doc_id", sort=False)
    clean = kept_g["statement"].agg(" ".join).reindex(totals.index, fill_value="")
    n_kept = kept_g.size().reindex(totals.index, fill_value=0)
    return pa.table(
        {
            "doc_id": pa.array(totals.index.to_numpy().astype(np.int64)),
            "clean_text": pa.array(clean.to_numpy(), type=pa.string()),
            "n_kept": pa.array(n_kept.to_numpy().astype(np.int64)),
            "n_removed": pa.array(
                (totals.to_numpy() - n_kept.to_numpy()).astype(np.int64)
            ),
        }
    )


def _boilerplate_set(
    docs: rd.Dataset, width: int, min_df: int
) -> "rd.Dataset | None":
    """The verified cross-doc boilerplate statement set (Dataset of
    statements with distinct-doc frequency ≥ min_df), or None when no
    duplicate hash exists anywhere.  Candidate→verify: hashes through the
    dupfinder tree reduce, exact-string groupby over per-batch-distinct
    (statement, doc_id) pairs derived from whole doc rows.  Materialized:
    callers probe AND consume it."""
    from ..core.hashing import hash_strings
    from ..state.dupfinder import find_dup_hash_values

    def seg_hash(t: pa.Table) -> pa.Table:
        seg = _window_segments(t, width)
        h = hash_strings(seg.column("statement").combine_chunks()).view(np.int64)
        return seg.append_column("h", pa.array(h, type=pa.int64()))

    dup_h = find_dup_hash_values(
        docs.map_batches(seg_hash, batch_format="pyarrow"), "h"
    )
    if not dup_h.size:
        return None
    dup_set = pa.array(np.asarray(dup_h, dtype=np.int64))

    def candidates(t: pa.Table) -> pa.Table:
        seg = seg_hash(t)
        mask = pc.fill_null(pc.is_in(seg.column("h"), value_set=dup_set), False)
        sel = seg.filter(mask).select(["statement", "doc_id"])
        # rows in this batch are whole docs → per-batch distinct
        # (statement, doc_id) pairs are globally distinct
        return sel.group_by(["statement", "doc_id"]).aggregate([])

    cand = docs.map_batches(candidates, batch_format="pyarrow").materialize()
    return (
        cand.groupby("statement")
        .aggregate(Count(alias_name="n_docs"))
        .filter(expr=f"n_docs >= {int(min_df)}")
        .materialize()
    )


def doc_boilerplate_strip(
    sf_dir: str,
    min_df: int = BOILERPLATE_MIN_DF,
    width: int = SEGMENT_WIDTH,
    cap: int | None = None,
    *,
    precomputed_bp: "rd.Dataset | None | str" = "auto",
) -> rd.Dataset:
    """Cross-document boilerplate removal (the CCNet line-dedup shape,
    Wenzek et al. 2020, arXiv:1911.00359 §3.1, applied at statement
    granularity): any W-word statement occurring in ≥ ``min_df`` DISTINCT
    documents is boilerplate (nav bars, cookie banners, license footers);
    every document is re-emitted with those statements removed —
    (doc_id, clean_text, n_kept, n_removed), one row per document that
    produced at least one statement. ``clean_text`` is the normalized
    rejoined segment stream (trim→lower→\\s+ split), the same
    normalization every statement-family oracle uses.

    Within-doc repeats are NOT boilerplate (df counts distinct docs):
    a chorus repeated inside one song survives; the same chorus pasted
    across ten lyric pages does not.

    Scale shape (candidate→verify, then cap-aware removal):
      1. statements travel as 64-bit hashes through the
         ``state/dupfinder`` hash-range tree reduce — only hashes seen ≥2
         times anywhere become candidates (no full-corpus string shuffle);
      2. candidate statements are verified by EXACT string groupby over
         per-batch-distinct (statement, doc_id) pairs — segments are
         derived from the doc ROWS inside each batch (Ray never splits a
         row), so local distinct == global distinct and the true
         distinct-doc frequency is exact; 64-bit collisions can only
         inflate the candidate set, never a verdict;
      3. the verified boilerplate set is removed via the
         ``core/joins`` policy: ≤cap distinct statements → ``ray.put``
         once + vectorized ``is_in`` per batch (row-derived segments keep
         reassembly batch-local); above cap → distributed anti-join + a
         doc_id hash-range reduce reassembly (the drop set never touches
         the driver — the clean_documents lesson, VERDICT r3 §What's
         wrong).

    Reference analog: cross-row segment dedupe (app.py:982 failed-row
    machinery composed with banningredients.py:170-183 bulk segment
    dedupe); oracle: DuckDB window-segment CTE + HAVING count(DISTINCT
    doc_id) (see __ray_entry__.oracle_sql).
    """
    from ..core.joins import BROADCAST_KEY_CAP, key_exchange, probe_keys, semi_join

    cap = BROADCAST_KEY_CAP if cap is None else cap
    docs = _docs(sf_dir, columns=["doc_id", "text"])

    # Every stage that needs doc-locality (distinct-doc counting, batch-local
    # reassembly) derives segments from the DOC ROWS inside its own batch:
    # Ray never splits a single row across blocks, so a doc's segments are
    # always complete within one batch.  A materialized SEGMENT stream does
    # not have that guarantee (dynamic block splitting can slice mid-doc at
    # scale), so it is used only where order/locality is irrelevant (the
    # dupfinder hash count, the distributed range reduce which re-groups by
    # doc_id globally).  Assumes unique doc_ids (the documents validator's
    # invariant).
    # callers that already ran _boilerplate_set (the select_training_docs
    # capstone's probe) pass it in so the candidate pipeline — two corpus
    # scans + a dupfinder reduce + a groupby exchange — never runs twice
    bp_ds = (
        _boilerplate_set(docs, width, min_df)
        if isinstance(precomputed_bp, str)
        else precomputed_bp
    )

    if bp_ds is None:
        # no duplicate hash anywhere → nothing to strip; reassemble directly
        def passthrough(t: pa.Table) -> pa.Table:
            seg = _window_segments(t, width)
            if seg.num_rows == 0:
                return _BOILERPLATE_SCHEMA.empty_table()
            return _boilerplate_reassemble(
                seg.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
                seg.column("statement").to_pandas(),
                np.zeros(seg.num_rows, dtype=bool),
            )

        return docs.map_batches(passthrough, batch_format="pyarrow")

    bp_keys = probe_keys(bp_ds, "statement", cap)
    if bp_keys is not None:
        bp_keys = bp_keys.drop_null()
        ref = ray.put(bp_keys)

        def strip(t: pa.Table, _cache={}) -> pa.Table:
            seg = _window_segments(t, width)
            if seg.num_rows == 0:
                return _BOILERPLATE_SCHEMA.empty_table()
            ks = _cache.get("ks")
            if ks is None:
                ks = _cache["ks"] = ray.get(ref)
            is_bp = pc.fill_null(
                pc.is_in(seg.column("statement"), value_set=ks), False
            ).to_numpy(zero_copy_only=False)
            return _boilerplate_reassemble(
                seg.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
                seg.column("statement").to_pandas(),
                np.asarray(is_bp, dtype=bool),
            )

        return docs.map_batches(strip, batch_format="pyarrow")

    # --- distributed path: the boilerplate set exceeds the broadcast cap ---
    # Reassembly is a raw-task hash-range reduce on doc_id
    # (``core/joins.key_exchange``), NOT groupby(doc_id).map_groups: per-doc
    # map_groups over millions of tiny groups is the documented pathology
    # (measured 167 s vs 11 s broadcast at 500k docs); one exchange + R
    # vectorized range reducers brings the fallback back to the same
    # complexity class.  The range reduce re-groups by doc_id globally, so
    # mid-doc block splits in this segment stream are harmless here.
    seg_stream = docs.map_batches(
        lambda t: _window_segments(t, width), batch_format="pyarrow"
    )
    kept = semi_join(
        seg_stream,
        "statement",
        bp_ds,
        "statement",
        anti=True,
        cap=cap,
    ).materialize()

    def totals(t: pa.Table) -> pa.Table:
        seg = _window_segments(t, width)
        vid = seg.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ids, counts = np.unique(vid, return_counts=True)
        return pa.table(
            {"doc_id": pa.array(ids), "n_seg": pa.array(counts.astype(np.int64))}
        )

    # one row per doc (rows are whole docs; the reducer's sum would also
    # tolerate splits)
    tot = docs.map_batches(totals, batch_format="pyarrow").materialize()
    doc_id = ("doc_id", pa.int64())
    tot_schema = pa.schema([doc_id, ("n_seg", pa.int64())])
    kept_schema = pa.schema([doc_id, ("seg_idx", pa.int64()), ("statement", pa.string())])
    return rd.from_arrow_refs(
        key_exchange(
            (tot, tot_schema, False), (kept, kept_schema, False), _bp_reduce_range
        )
    )


@ray.remote
def _bp_reduce_range(n_tot: int, *parts) -> pa.Table:
    """One doc_id-hash range: merge totals + kept segments, reassemble each
    doc's cleaned text with ONE vectorized sort + pandas groupby agg."""
    # a doc_id-hash range can receive zero totals rows (doc count small
    # relative to the range count, ADVICE r4)
    tot_parts = [p for p in parts[:n_tot] if p.num_rows]
    if not tot_parts:
        return _BOILERPLATE_SCHEMA.empty_table()
    kept_parts = [p for p in parts[n_tot:] if p.num_rows]
    tdf = (
        pa.concat_tables(tot_parts)
        .to_pandas()
        .groupby("doc_id", sort=True)["n_seg"]
        .sum()  # a doc lives in one block, but sum is harmless + robust
    )
    if kept_parts:
        kp = pa.concat_tables(kept_parts).to_pandas()
        kp = kp.sort_values(["doc_id", "seg_idx"], kind="mergesort")
        g = kp.groupby("doc_id", sort=True)
        clean = g["statement"].agg(" ".join).reindex(tdf.index, fill_value="")
        n_kept = g.size().reindex(tdf.index, fill_value=0)
    else:
        clean = pd.Series("", index=tdf.index)
        n_kept = pd.Series(0, index=tdf.index)
    return pa.table(
        {
            "doc_id": pa.array(tdf.index.to_numpy().astype(np.int64)),
            "clean_text": pa.array(clean.to_numpy(), type=pa.string()),
            "n_kept": pa.array(n_kept.to_numpy().astype(np.int64)),
            "n_removed": pa.array(
                (tdf.to_numpy() - n_kept.to_numpy()).astype(np.int64)
            ),
        }
    )


def boilerplate_oracle_sql(
    min_df: int = BOILERPLATE_MIN_DF, width: int = SEGMENT_WIDTH
) -> str:
    """DuckDB oracle for doc_boilerplate_strip: window-segment CTE, bp set
    by HAVING count(DISTINCT doc_id), ordered string_agg reassembly.  Also
    the boilerplate leg of the select_training_docs capstone oracle."""
    W = width
    return rf"""
            WITH w AS (
              SELECT doc_id, string_split_regex(trim(lower(text)), '\s+') AS ws
              FROM documents
            ),
            seg AS (
              SELECT doc_id, i::BIGINT AS seg_idx,
                     array_to_string(ws[(i*{W}+1):(i*{W}+{W})], ' ') AS statement
              FROM w, UNNEST(range((len(ws) + {W - 1}) // {W})) AS t(i)
              WHERE array_to_string(ws[(i*{W}+1):(i*{W}+{W})], ' ') <> ''
            ),
            bp AS (
              SELECT statement FROM seg GROUP BY statement
              HAVING count(DISTINCT doc_id) >= {min_df}
            ),
            marked AS (
              SELECT s.doc_id, s.seg_idx, s.statement,
                     s.statement IN (SELECT statement FROM bp) AS is_bp
              FROM seg s
            )
            SELECT doc_id,
                   coalesce(string_agg(statement, ' ' ORDER BY seg_idx)
                            FILTER (WHERE NOT is_bp), '') AS clean_text,
                   (count(*) FILTER (WHERE NOT is_bp))::BIGINT AS n_kept,
                   (count(*) FILTER (WHERE is_bp))::BIGINT AS n_removed
            FROM marked GROUP BY doc_id ORDER BY doc_id
    """
