"""Normalize → explode → dictionary-match spine over the documents table.

This reproduces the reference's core check shape (SURVEY.md §3.3) as
set-based Ray Data pipelines: text normalization (M2–M5), row→token
explosion with backrefs (M6/J4/D5), exact token-boundary dictionary
semi-join (J2), fuzzy dictionary semi-join (J3, char-set Jaccard — the
sandbox has no RapidFuzz, and set-similarity is the scalable scorer anyway),
and the best-per-(row, canonical) argmax reduce with the reference's
exact≻fuzzy, then score, then stable-id tie-break (G1,
``prompts/banningredients.py:211-234``).

The dictionary is a broadcast small side (built once per worker via module
cache — reference analog A1 module-global index); segments are deduped
before scoring (reference's cross-row segment dedupe G4,
``banningredients.py:170-183``) so fuzzy work is O(unique words × variants),
not O(rows × variants).
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..core import exchange
from ..core.collect import collect_table as _collect
from ..core.batches import arrow_out as _aout
from ..core.rounding import round_half_away as _rha
from .text import _docs

# Win-1252 mojibake fixes (reference analog M4, banningredients.py:74-81)
MOJIBAKE_FIXES: tuple[tuple[str, str], ...] = (
    ("â€™", "'"),
    ("â€œ", '"'),
    ("â€\x9d", '"'),
    ("â€“", "-"),
    ("â€”", "-"),
    ("Ã©", "é"),
)

# term dictionary with synonyms (reference analog: banned-ingredient
# dictionary {Canonical, Synonym}; data/banned_restricted_ingredients.csv)
TERM_DICT: tuple[dict, ...] = (
    {"canonical": "sorting", "variants": ("sort", "order")},
    {"canonical": "hash-join", "variants": ("hash", "join")},
    {"canonical": "streaming", "variants": ("stream", "batch")},
    {"canonical": "windowing", "variants": ("window",)},
    {"canonical": "scanning", "variants": ("scan", "scam")},
)
FUZZY_THRESHOLD = 0.8

# per-LANGUAGE phrase dictionary (reference analog: green_claims.py:6-32 —
# one phrase column per language, selected by the row's language; rows whose
# language has no column fall back to the default). Variants are drawn from
# the fixture vocabulary so every language's arm is non-vacuous.
LANG_TERM_DICT: tuple[dict, ...] = (
    {"canonical": "sorting", "variants": {
        "en": ("sort", "order"), "es": ("orden",), "fr": ("tri", "sort"),
        "de": ("sortier", "sort")}},
    {"canonical": "hash-join", "variants": {
        "en": ("hash", "join"), "es": ("hash",), "fr": ("join",),
        "de": ("hash", "join")}},
    {"canonical": "streaming", "variants": {
        "en": ("stream", "batch"), "es": ("stream",), "fr": ("flux", "stream"),
        "de": ("strom", "stream")}},
    {"canonical": "scanning", "variants": {
        "en": ("scan", "scam"), "es": ("scan",), "fr": ("scan",), "de": ("scan",)}},
)
DEFAULT_DICT_LANG = "en"
LANG_DICT_LANGS = tuple(
    sorted({lang for d in LANG_TERM_DICT for lang in d["variants"]})
)


def lang_dict_variants(lang: str) -> list[tuple[str, str]]:
    return [
        (v, d["canonical"])
        for d in LANG_TERM_DICT
        for v in d["variants"].get(lang, ())
    ]


def _nfkd_ascii(s: str) -> str:
    return "".join(
        c for c in unicodedata.normalize("NFKD", s) if not unicodedata.combining(c)
    )


def normalize_text_column(text: pa.ChunkedArray) -> pa.Array:
    """lower → mojibake fixes → strip HTML tags → accent fold → collapse ws.

    Vectorized Arrow kernels except the accent fold (per-row C-level
    unicodedata; a no-op passthrough on ASCII corpora). Matches the DuckDB
    oracle chain lower/replace/strip_accents/regexp_replace/trim.
    """
    out = pc.utf8_lower(text)
    for bad, good in MOJIBAKE_FIXES:
        out = pc.replace_substring(out, bad.lower(), good.lower())
    out = pc.replace_substring_regex(out, r"<[^>]*>", " ")
    # NFKD accent fold is the one per-row step; ASCII strings are fixpoints,
    # so an all-ASCII batch (the common corpus case) skips the to_pylist
    # round-trip entirely (r1 VERDICT minor: ascii fast path)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    all_ascii = bool(
        pc.all(pc.string_is_ascii(pc.fill_null(out, ""))).as_py()
    )
    if not all_ascii:
        py = [None if s is None else _nfkd_ascii(s) for s in out.to_pylist()]
        out = pa.array(py, type=pa.string())
    out = pc.utf8_trim_whitespace(pc.replace_substring_regex(out, r"\s+", " "))
    return out


def doc_normalized(sf_dir: str) -> rd.Dataset:
    """Per-doc normalized text (M2-M5 fused, one vectorized pass)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"), "norm_text": normalize_text_column(t.column("text"))}
        )

    return ds.map_batches(f, batch_format="pyarrow")


def doc_words(sf_dir: str, *, normalized: bool = False) -> rd.Dataset:
    """Explode documents into (doc_id, word_idx, word) rows.

    Row→segment explosion with row backref (reference analog M6/J4) as a
    vectorized list-flatten: split to a list column, then ListArray offsets
    give both the flat words and their per-row indices with zero Python
    loops. ``normalized=True`` explodes the M2–M5-normalized text (the form
    the dictionary-match spine consumes — the reference normalizes before
    matching, ``banningredients.py:87-118``).
    """
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        text = t.column("text")
        if normalized:
            text = normalize_text_column(text)
        words_list = pc.split_pattern(text, " ")
        arr = (
            words_list.combine_chunks()
            if isinstance(words_list, pa.ChunkedArray)
            else words_list
        )
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = offsets[1:] - offsets[:-1]
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        flat_doc = np.repeat(doc_ids, lens)
        word_idx = np.concatenate([np.arange(1, n + 1) for n in lens]) if len(lens) else np.empty(0, dtype=np.int64)
        values = arr.values
        lo = offsets[0]
        flat_words = values.slice(lo, offsets[-1] - lo)
        return pa.table(
            {
                "doc_id": pa.array(flat_doc, type=pa.int64()),
                "word_idx": pa.array(word_idx.astype(np.int64)),
                "word": flat_words,
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _char_jaccard_matrix(words: list[str], variants: list[str]) -> np.ndarray:
    """Char-set Jaccard of every (word, variant) pair via 64-bit bitmasks.

    Characters are mapped to bit positions lazily (shared alphabet); Jaccard
    reduces to popcount of AND/OR — fully vectorized, and exactly equal to
    DuckDB's ``jaccard()`` character-set semantics for any alphabet ≤ 64
    distinct chars per comparison set (falls back to Python sets beyond).
    """
    alphabet: dict[str, int] = {}

    def mask(s: str) -> int:
        m = 0
        for ch in set(s):
            b = alphabet.setdefault(ch, len(alphabet))
            if b >= 64:
                return -1
            m |= 1 << b
        return m

    wm = np.array([mask(w) for w in words], dtype=object)
    vm = np.array([mask(v) for v in variants], dtype=object)
    if len(alphabet) <= 64 and (np.asarray(wm) != -1).all() and (np.asarray(vm) != -1).all():
        wmu = np.array([int(x) for x in wm], dtype=np.uint64)
        vmu = np.array([int(x) for x in vm], dtype=np.uint64)
        inter = np.bitwise_and(wmu[:, None], vmu[None, :])
        union = np.bitwise_or(wmu[:, None], vmu[None, :])
        pop = np.vectorize(lambda x: int(x).bit_count(), otypes=[np.float64])
        return pop(inter) / np.maximum(pop(union), 1.0)
    out = np.zeros((len(words), len(variants)))
    wsets = [set(w) for w in words]
    vsets = [set(v) for v in variants]
    for i, ws in enumerate(wsets):
        for j, vs in enumerate(vsets):
            u = len(ws | vs)
            out[i, j] = len(ws & vs) / u if u else 0.0
    return out


class DictMatchStage:
    """Per-batch dictionary matcher (broadcast dict state, built per worker).

    exact = word equals a variant; fuzzy = char-set Jaccard ≥ threshold and
    not exact. Unique words are scored once per batch (G4 dedupe), then
    matches are scattered back to rows.
    """

    def __init__(
        self,
        threshold: float = FUZZY_THRESHOLD,
        scorer: str = "char_jaccard",
        variants: "list[tuple[str, str]] | None" = None,
    ):
        self.threshold = threshold
        self.scorer = scorer
        self.variants: list[tuple[str, str]] = (
            variants
            if variants is not None
            else [(v, d["canonical"]) for d in TERM_DICT for v in d["variants"]]
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        words = t.column("word").to_pylist()
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        uniq = sorted({w for w in words if w})
        if not uniq:
            return _empty_match_table()
        vnames = [v for v, _ in self.variants]
        if self.scorer == "token_set":
            # RapidFuzz token_set_ratio semantics (reference
            # banningredients.py:346-348), normalized to 0..1; the default
            # char-set Jaccard is kept for DuckDB oracle parity
            from ..core.fuzzy import token_set_ratio_matrix

            sim = token_set_ratio_matrix(uniq, vnames) / 100.0
        elif self.scorer == "partial":
            # RapidFuzz partial_ratio: best full-window alignment of the
            # shorter string inside the longer (reference
            # novel_check_utils.py:109-111 takes max(token_set, partial);
            # green_claims.py:72-94 gates on substring-or-partial)
            from ..core.fuzzy import partial_ratio_matrix

            sim = partial_ratio_matrix(uniq, vnames) / 100.0
        else:
            sim = _char_jaccard_matrix(uniq, vnames)
        uniq_idx = {w: i for i, w in enumerate(uniq)}
        rows = {"doc_id": [], "word": [], "matched_variant": [], "canonical": [], "score": [], "match_kind": []}
        hit_cols = [
            (j, v, canon)
            for j, (v, canon) in enumerate(self.variants)
        ]
        # per unique word, precompute its hits once
        word_hits: dict[str, list[tuple[str, str, float, str]]] = {}
        for w in uniq:
            i = uniq_idx[w]
            hits = []
            for j, v, canon in hit_cols:
                if w == v:
                    hits.append((v, canon, 1.0, "exact"))
                elif sim[i, j] >= self.threshold:
                    hits.append((v, canon, float(sim[i, j]), "fuzzy"))
            if hits:
                word_hits[w] = hits
        for doc_id, w in zip(doc_ids, words):
            for v, canon, score, kind in word_hits.get(w, ()):
                rows["doc_id"].append(int(doc_id))
                rows["word"].append(w)
                rows["matched_variant"].append(v)
                rows["canonical"].append(canon)
                rows["score"].append(score)
                rows["match_kind"].append(kind)
        return pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                "word": pa.array(rows["word"], type=pa.string()),
                "matched_variant": pa.array(rows["matched_variant"], type=pa.string()),
                "canonical": pa.array(rows["canonical"], type=pa.string()),
                "score": pa.array(_rha(np.array(rows["score"], dtype=np.float64), 6)),
                "match_kind": pa.array(rows["match_kind"], type=pa.string()),
            }
        )


def _empty_match_table() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "word": pa.array([], type=pa.string()),
            "matched_variant": pa.array([], type=pa.string()),
            "canonical": pa.array([], type=pa.string()),
            "score": pa.array([], type=pa.float64()),
            "match_kind": pa.array([], type=pa.string()),
        }
    )


_DICT_TASK_CACHE: dict = {}


def _dict_match_task(t):
    st = _DICT_TASK_CACHE.get("default")
    if st is None:
        st = _DICT_TASK_CACHE["default"] = DictMatchStage()
    return st(t)


def doc_dict_matches(sf_dir: str) -> rd.Dataset:
    """All (doc, word) × dictionary matches, exact + fuzzy (J2/J3), over the
    NORMALIZED word stream (mixed case / markup / mojibake text matches the
    lowercase dictionary — previously the spine matched raw words and its
    normalization stage was dead code)."""
    # task fn with per-worker cached stage — the dict state is tiny and a
    # dedicated actor pool pays multi-second startup (BASELINE.md gotcha #4)
    return doc_words(sf_dir, normalized=True).map_batches(
        _dict_match_task, batch_format="pyarrow"
    )


def doc_dict_matches_tsr(sf_dir: str, threshold: float = 0.8) -> rd.Dataset:
    """Dictionary matches scored with the RapidFuzz-equivalent
    token_set_ratio (``core.fuzzy``) instead of char-set Jaccard — the
    reference's actual fuzzy-join semantics. Rows-only driver check (the
    scorer has no SQL analog); differentially tested in tests/test_fuzzy.py.
    """
    def tsr_task(t, _cache={}):
        st = _cache.get("tsr")
        if st is None:
            st = _cache["tsr"] = DictMatchStage(threshold=threshold, scorer="token_set")
        return st(t)

    return doc_words(sf_dir, normalized=True).map_batches(tsr_task, batch_format="pyarrow")


def doc_dict_matches_partial(sf_dir: str, threshold: float = 0.75) -> rd.Dataset:
    """Dictionary matches scored with the RapidFuzz-equivalent partial_ratio
    (``core.fuzzy.partial_ratio_matrix``) — the reference's sliding-window
    best-substring scorer ("claim phrase inside a long description",
    ``novel_check_utils.py:109-111``, ``banningredients.py:346-348``).
    Oracle: the same bit-parallel LCS recursive CTE as doc_dict_matches_tsr,
    lifted over all full windows of the longer side."""

    def partial_task(t, _cache={}):
        st = _cache.get("partial")
        if st is None:
            st = _cache["partial"] = DictMatchStage(threshold=threshold, scorer="partial")
        return st(t)

    return doc_words(sf_dir, normalized=True).map_batches(
        partial_task, batch_format="pyarrow"
    )


def doc_dict_matches_lang(sf_dir: str, threshold: float = FUZZY_THRESHOLD) -> rd.Dataset:
    """Multi-language dictionary matching (reference J3 × green_claims):
    each document's words are matched against ONLY its language's variant
    column of ``LANG_TERM_DICT``; languages without a column fall back to
    ``DEFAULT_DICT_LANG`` (the reference defaults to the English phrase
    column when a language sheet is missing, green_claims.py:6-32).

    Fused per batch — language selection, normalization, word explosion and
    per-language scoring happen in one pass, so the per-doc language never
    needs a shuffle join against the exploded word stream."""

    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])

    def task(t: pa.Table, _cache={}) -> pa.Table:
        stages = _cache.get("st")
        if stages is None:
            stages = _cache["st"] = {
                lang: DictMatchStage(threshold, variants=lang_dict_variants(lang))
                for lang in LANG_DICT_LANGS
            }
        text = normalize_text_column(t.column("text"))
        words_list = pc.split_pattern(text, " ")
        arr = (
            words_list.combine_chunks()
            if isinstance(words_list, pa.ChunkedArray)
            else words_list
        )
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = offsets[1:] - offsets[:-1]
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        langs = np.asarray(
            pc.fill_null(t.column("lang"), DEFAULT_DICT_LANG).to_pylist(), dtype=object
        )
        known = np.isin(langs, np.asarray(LANG_DICT_LANGS, dtype=object))
        lang_sel = np.where(known, langs, DEFAULT_DICT_LANG)
        lo = offsets[0]
        exploded = pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, lens), type=pa.int64()),
                "lang": pa.array(np.repeat(lang_sel, lens), type=pa.string()),
                "word": arr.values.slice(lo, offsets[-1] - lo),
            }
        )
        parts = []
        for lang in np.unique(lang_sel):
            sub = exploded.filter(pc.equal(exploded.column("lang"), str(lang)))
            if sub.num_rows == 0:
                continue
            hits = stages[str(lang)](sub)
            parts.append(
                hits.add_column(
                    1, "lang", pa.array([str(lang)] * hits.num_rows, type=pa.string())
                )
            )
        if not parts:
            e = _empty_match_table()
            return e.add_column(1, "lang", pa.array([], type=pa.string()))
        return pa.concat_tables(parts)

    return ds.map_batches(task, batch_format="pyarrow")


def doc_best_dict_match(sf_dir: str) -> pa.Table:
    """Best match per (doc_id, canonical): exact ≻ fuzzy, then score desc,
    then (matched_variant, word) asc — the reference's deterministic argmax
    (G1) as per-batch local argmax + grouped final argmax."""
    matches = doc_dict_matches(sf_dir)

    def best(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.assign(_exact=(df["match_kind"] == "exact").astype(int))
        df = df.sort_values(
            ["doc_id", "canonical", "_exact", "score", "matched_variant", "word"],
            ascending=[True, True, False, False, True, True],
            kind="mergesort",
        )
        out = df.groupby(["doc_id", "canonical"], as_index=False).head(1)
        return out.drop(columns=["_exact"])

    # local argmax per batch, then exact argmax per hash range of doc_id:
    # ``best`` reduces per (doc_id, canonical) inside any frame holding
    # whole groups, and a range holds every row of its doc_ids
    schema = _empty_match_table().schema
    local = matches.map_batches(_aout(best), batch_format="pandas")
    final = exchange.group_apply(
        local, "doc_id", schema.names, _aout(lambda t: best(t.to_pandas())), schema
    )
    return _collect(final, schema=schema).sort_by(
        [("doc_id", "ascending"), ("canonical", "ascending")]
    )
