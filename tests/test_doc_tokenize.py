"""doc_tokenize — the text→tokens bridge (greedy longest-match against the
vocab dimension) and its composition into prepare_training_sequences."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _write_vocab(path, pieces_ids):
    pq.write_table(
        pa.table(
            {
                "token_id": pa.array([i for _, i in pieces_ids], type=pa.int32()),
                "piece": pa.array([p for p, _ in pieces_ids], type=pa.string()),
            }
        ),
        str(path),
    )
    return str(path)


def test_greedy_longest_match_semantics(ray_session, tmp_path):
    """Longest piece wins at each position; unmatched chars consume one and
    count as unk; tokens concatenate in word order; every doc emits a row."""
    from product_quality_check_ray.pipelines.textprep import doc_tokenize

    vocab = _write_vocab(
        tmp_path / "vocab.parquet",
        [("a", 1), ("b", 2), ("ab", 10), ("abc", 20), ("bc", 11)],
    )
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "abc ab a",  # abc→20, ab→10, a→1
                    "abz",  # ab→10, z unk
                    "xyz",  # all unk
                    "   ",  # zero words → empty row survives
                ]
            ),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["s1", "s1", "s2", "s2"]),
            "n_chars": pa.array([8, 3, 3, 3], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (
        doc_tokenize(str(tmp_path), vocab_path=vocab)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.loc[1, "tokens"]) == [20, 10, 1] and out.loc[1, "n_unk"] == 0
    assert list(out.loc[2, "tokens"]) == [10] and out.loc[2, "n_unk"] == 1
    assert list(out.loc[3, "tokens"]) == [] and out.loc[3, "n_unk"] == 3
    assert list(out.loc[4, "tokens"]) == [] and out.loc[4, "n_unk"] == 0
    assert (out["n_tok"] == out["tokens"].map(len)).all()
    assert list(out["source"]) == ["s1", "s1", "s2", "s2"]


def test_greedy_restarts_after_unk_and_mid_word(ray_session, tmp_path):
    """Greedy does NOT backtrack: 'ab' is consumed even when splitting 'a'
    + 'bc' would tokenize more chars; scanning resumes after an unk char."""
    from product_quality_check_ray.pipelines.textprep import doc_tokenize

    vocab = _write_vocab(
        tmp_path / "vocab.parquet", [("a", 1), ("ab", 10), ("bc", 11), ("c", 3)]
    )
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["abc", "aXbc"]),
            "lang": pa.array(["en"] * 2),
            "source": pa.array(["s"] * 2),
            "n_chars": pa.array([3, 4], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (
        doc_tokenize(str(tmp_path), vocab_path=vocab)
        .to_pandas()
        .set_index("doc_id")
    )
    # 'abc': greedy takes 'ab' (10) then 'c' (3) — not 'a'+'bc'
    assert list(out.loc[1, "tokens"]) == [10, 3]
    # 'aXbc' lowercases to 'axbc': 'a', unk 'x', then 'bc'
    assert list(out.loc[2, "tokens"]) == [1, 11] and out.loc[2, "n_unk"] == 1


def test_unk_consumes_one_character_not_one_byte(ray_session, tmp_path):
    """The byte-level scan must consume whole UTF-8 CHARACTERS on unk (a
    multibyte char counts one n_unk and scanning resumes at the next
    character), and multibyte PIECES must match exactly."""
    from product_quality_check_ray.pipelines.textprep import doc_tokenize

    vocab = _write_vocab(
        tmp_path / "vocab.parquet", [("a", 1), ("ñe", 7), ("€", 9)]
    )
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "aña",  # a, unk 'ñ' (2 bytes, ONE char), a
                    "ñea€",  # piece 'ñe' (3 bytes), a, piece '€' (3 bytes)
                    "日a",  # unk '日' (3 bytes, ONE char), a
                ]
            ),
            "lang": pa.array(["x"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([3, 4, 2], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (
        doc_tokenize(str(tmp_path), vocab_path=vocab)
        .to_pandas()
        .set_index("doc_id")
    )
    assert list(out.loc[1, "tokens"]) == [1, 1] and out.loc[1, "n_unk"] == 1
    assert list(out.loc[2, "tokens"]) == [7, 1, 9] and out.loc[2, "n_unk"] == 0
    assert list(out.loc[3, "tokens"]) == [1] and out.loc[3, "n_unk"] == 1


def test_doc_tokenize_matches_python_reference(ray_session):
    """Differential: the vectorized round scan equals a per-char Python
    greedy matcher over the real fixture vocab on every sf0.001 doc."""
    from product_quality_check_ray.pipelines.textprep import doc_tokenize
    from product_quality_check_ray.sources.dimensions import ensure_vocab_dim

    out = doc_tokenize(SF).to_pandas().set_index("doc_id").sort_index()
    vt = pq.read_table(ensure_vocab_dim())
    p2i = dict(zip(vt.column("piece").to_pylist(), vt.column("token_id").to_pylist()))
    max_l = max(len(p) for p in p2i)
    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    for _, r in docs.sample(60, random_state=7).iterrows():
        toks, unk = [], 0
        for w in r.text.lower().split():
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
        row = out.loc[r.doc_id]
        assert list(row.tokens) == toks
        assert row.n_unk == unk and row.n_tok == len(toks)


def test_docs_to_training_corpus_composition(ray_session, tmp_path):
    """The corpus loop closes: documents → tokenize → sequences-shaped
    fragments → prepare_training_sequences runs end-to-end, and the
    written corpus is a valid north-star table (string ids with digit
    suffixes, allowlisted sources, n_tok == len(tokens))."""
    from product_quality_check_ray.core.schema import ALLOWED_SOURCES
    from product_quality_check_ray.pipelines.textprep import (
        tokenize_documents_to_corpus,
    )
    from product_quality_check_ray.pipelines.tokens import (
        prepare_training_sequences,
    )

    out_dir = tokenize_documents_to_corpus(SF, str(tmp_path / "corpus"))
    t = pq.read_table(out_dir)
    assert t.num_rows == 500
    assert set(t.column("source").to_pylist()) <= set(ALLOWED_SOURCES)
    ids = t.column("doc_id").to_pylist()
    assert all(i.startswith("doc-") and i[-12:].isdigit() for i in ids)
    nt = np.asarray(t.column("n_tok").to_pylist())
    ln = np.asarray([len(x) for x in t.column("tokens").to_pylist()])
    assert (nt == ln).all()

    plan = prepare_training_sequences(out_dir).to_pandas()
    # the gate admits only 1 <= n_tok <= 2048 rows; the plan must cover a
    # non-trivial survivor set and reference only corpus doc_ids
    assert len(plan) > 100
    assert set(np.unique(plan["doc_id"])) <= set(ids)


def test_token_lists_per_batch_bound():
    """One batch's token lists are ``list<int32>``: offsets within 2^31 - 1
    build them; a synthetic offsets array past the bound raises ValueError
    (no overflowed or wrapped offsets)."""
    import pytest

    from product_quality_check_ray.pipelines.textprep import _token_lists

    tks = np.array([5, 6, 7], dtype=np.int64)
    got = _token_lists(np.array([0, 2, 2, 3], dtype=np.int64), tks)
    assert got.type == pa.list_(pa.int32())
    assert got.to_pylist() == [[5, 6], [], [7]]
    big = np.array([0, 3, 2**31], dtype=np.int64)
    with pytest.raises(ValueError, match="2\\^31 - 1"):
        _token_lists(big, tks)
