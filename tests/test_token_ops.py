"""Token-level north-star ops (pipelines/tokens.py): differential tests
against independent pure-Python re-implementations on the sf0.001 corpus."""

import glob
import os
import re

import numpy as np
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.datagen import ensure_sequences, sequences_glob
from product_quality_check_ray.pipelines import tokens as tk

SF = "/root/testdata/sf0.001"


def _load_rows():
    import glob

    ensure_sequences(SF)
    t = pq.read_table(sorted(glob.glob(sequences_glob(SF))))
    return t.to_pylist()


def _sfx(doc_id):
    return int(doc_id[-12:]) if doc_id is not None else -1


def _patched_prefix(tokens, sfx):
    if sfx >= 0 and sfx % tk.DECON_PATCH_MOD == tk.DECON_PATCH_RES:
        m = min(tk.CANARY_LEN, len(tokens))
        return list(tk.CANARY[:m]) + list(tokens[m:])
    return list(tokens)


@pytest.fixture(scope="module")
def rows():
    return _load_rows()


def test_seq_decontaminate_differential(ray_session, rows):
    k = tk.DECON_K
    hold_grams = set()
    for r in rows:
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.DECON_HOLD_MOD == 0:
            p = _patched_prefix(r["tokens"], s)
            for i in range(len(p) - k + 1):
                hold_grams.add(tuple(p[i : i + k]))
    expected = {}
    for r in rows:
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.DECON_HOLD_MOD == 0:
            continue
        p = _patched_prefix(r["tokens"], s)
        hits = sum(1 for i in range(len(p) - k + 1) if tuple(p[i : i + k]) in hold_grams)
        key = (r["doc_id"], r["source"], r["n_tok"])
        expected.setdefault(key, []).append((max(len(p) - k + 1, 0), hits))

    out = tk.seq_decontaminate(SF).to_pandas()
    assert len(out) == sum(len(v) for v in expected.values())
    got = {}
    for rec in out.itertuples(index=False):
        did = None if rec.doc_id is None else rec.doc_id
        got.setdefault((did, rec.source, rec.n_tok), []).append(
            (rec.n_grams, rec.hit_grams)
        )
        assert rec.contaminated == (rec.hit_grams > 0)
    assert {k: sorted(v) for k, v in got.items()} == {
        k: sorted(v) for k, v in expected.items()
    }
    # non-vacuous on the fixture
    assert (out["hit_grams"] > 0).sum() > 0


def test_seq_decontaminate_excludes_holdout(ray_session):
    out = tk.seq_decontaminate(SF).to_pandas()
    sfx = out["doc_id"].dropna().str[-12:].astype(np.int64)
    assert not (sfx % tk.DECON_HOLD_MOD == 0).any()


def test_seq_dup_token_arrays_differential(ray_session, rows):
    groups = {}
    for r in rows:
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.DUPSEQ_MOD == tk.DUPSEQ_RES:
            p = tuple(tk.CANARY[: tk.DUPSEQ_LEN_BASE + s % tk.DUPSEQ_LEN_CHOICES])
        else:
            p = tuple(r["tokens"])
        groups.setdefault(p, []).append(r)
    expected = []
    for p, members in groups.items():
        if len(members) < 2:
            continue
        named = [m["doc_id"] for m in members if m["doc_id"] is not None]
        rep = min(named) if named else None
        for m in members:
            expected.append(
                (m["doc_id"], m["source"], m["n_tok"], len(p), rep, len(members))
            )

    out = tk.seq_dup_token_arrays(SF).to_pandas()
    got = [
        (r.doc_id, r.source, r.n_tok, r.tlen, r.group_rep, r.group_size)
        for r in out.itertuples(index=False)
    ]
    key = lambda t: tuple("" if x is None else str(x) for x in t)  # noqa: E731
    assert sorted(got, key=key) == sorted(expected, key=key)
    assert len(expected) > 0  # non-vacuous: empty-tokens group + canary groups


def test_seq_chunk_windows_differential(ray_session, rows):
    W, S = tk.CHUNK_W, tk.CHUNK_S
    expected = []
    for r in rows:
        if r["doc_id"] is None or r["tokens"] is None:
            continue
        toks = [-1 if x is None else x for x in r["tokens"]]
        n = len(toks)
        if n == 0:
            continue
        nch = 1 + (max(n - W, 0) + S - 1) // S
        for i in range(nch):
            st, en = i * S, min(i * S + W, n)
            expected.append(
                (r["doc_id"], i, st, en - st, sum(toks[st:en]), toks[st], toks[en - 1])
            )
    out = tk.seq_chunk_windows(SF).to_pandas()
    got = [
        (r.doc_id, r.chunk_idx, r.tok_start, r.chunk_len, r.tok_sum, r.tok_first, r.tok_last)
        for r in out.itertuples(index=False)
    ]
    assert sorted(got) == sorted(expected)
    # non-vacuous: fixture has rows longer than one window
    assert (out["chunk_idx"] > 0).any()
    # coverage property: per doc, chunks tile [0, len) with stride S
    per_doc = out.groupby("doc_id")
    assert (per_doc["tok_start"].min() == 0).all()


def test_seq_chunk_windows_empty(ray_session, tmp_path, monkeypatch):
    from product_quality_check_ray import datagen as dg

    d = tmp_path / "sf_tokempty"
    d.mkdir()
    monkeypatch.setitem(dg.SF_ROWS, "sf_tokempty", 0)
    assert tk.seq_chunk_windows(str(d)).count() == 0
    t = tk.seq_length_batches(str(d))
    assert t.num_rows == 0 and t.schema == tk._LENBATCH_SCHEMA
    assert tk.seq_neardup_pairs(str(d)).num_rows == 0
    assert tk.seq_bigram_topk(str(d)).num_rows == 0
    assert tk.seq_prefix_dups(str(d)).num_rows == 0
    # zero-row corpora still have fragments: the footer audit reports them
    # (num_rows=0, one shared signature), the per-group stats have no groups
    audit = tk.seq_shard_schema_audit(str(d))
    assert audit.num_rows > 0 and set(audit.column("num_rows").to_pylist()) == {0}
    assert tk.seq_shard_stats(str(d)).num_rows == 0
    assert tk.seq_detokenize(str(d)).count() == 0
    assert tk.seq_unigram_lm_score(str(d)).count() == 0
    assert tk.prepare_training_sequences(str(d)).count() == 0
    # a zero-row plan with a sink dir leaves no marker and no shard dir
    out = tmp_path / "prep_out"
    assert tk.prepare_training_sequences(str(d), out_dir=str(out)).count() == 0
    assert not (out / "_PREP_SUCCESS.json").exists()
    assert not glob.glob(str(out / "shard=*"))
    from product_quality_check_ray.pipelines import textprep as tp

    assert tp.seq_pack_plan(str(d)).count() == 0
    assert tp.seq_pack_execute(str(d)).count() == 0


def test_seq_length_batches_differential(ray_session, rows):
    B = tk.LENBATCH_B
    valid = sorted(
        (
            (r["n_tok"], r["doc_id"])
            for r in rows
            if r["doc_id"] is not None
            and r["n_tok"] is not None
            and 1 <= r["n_tok"] <= 2048
        ),
    )
    expected = {}
    for rn, (nt, _d) in enumerate(valid):
        b = rn // B
        c, mn, mx, sm = expected.get(b, (0, 1 << 60, -1, 0))
        expected[b] = (c + 1, min(mn, nt), max(mx, nt), sm + nt)
    out = tk.seq_length_batches(SF).to_pandas().sort_values("batch_id")
    assert len(out) == len(expected)
    for r in out.itertuples(index=False):
        c, mn, mx, sm = expected[r.batch_id]
        assert (r.n_seqs, r.min_tok, r.max_tok, r.sum_tok) == (c, mn, mx, sm)
        assert r.pad_waste == c * mx - sm
    # batches are dense, full except the last
    assert set(out["batch_id"]) == set(range(len(out)))
    assert (out["n_seqs"].iloc[:-1] == B).all() if len(out) > 1 else True


def test_seq_length_batches_range_invariance(ray_session, monkeypatch):
    """Output must not depend on the range count (the cluster-size knob):
    2 and 37 n_tok intervals give the default's plan."""
    from product_quality_check_ray.core import exchange

    def plan():
        return tk.seq_length_batches(SF).to_pandas().sort_values("batch_id").reset_index(drop=True)

    base = plan()
    assert len(base) > 0
    for r in (2, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        assert base.equals(plan())


def test_seq_detokenize_differential(ray_session, rows):
    from product_quality_check_ray.core.schema import VOCAB
    from product_quality_check_ray.sources.dimensions import (
        VOCAB_DIM_DROP_MOD,
        VOCAB_DIM_DROP_RES,
        _vocab_piece,
    )

    def in_vocab(x):
        return (
            x is not None
            and 0 <= x < VOCAB
            and x % VOCAB_DIM_DROP_MOD != VOCAB_DIM_DROP_RES
        )

    def dec(x):
        return _vocab_piece(x) if in_vocab(x) else "<unk>"

    expected = []
    for r in rows:
        toks = r["tokens"]
        if toks is None:
            expected.append((r["doc_id"], None, None, None, None))
            continue
        txt = " ".join(dec(x) for x in toks)
        oov = sum(1 for x in toks if not in_vocab(x))
        expected.append((r["doc_id"], len(toks), oov, len(txt), txt[:64]))
    out = tk.seq_detokenize(SF).to_pandas()
    got = [
        (
            r.doc_id,
            None if r.tlen is None or r.tlen != r.tlen else int(r.tlen),
            None if r.n_oov is None or r.n_oov != r.n_oov else int(r.n_oov),
            None if r.text_len is None or r.text_len != r.text_len else int(r.text_len),
            r.text_prefix,
        )
        for r in out.itertuples(index=False)
    ]
    key = lambda t: tuple("" if x is None else str(x) for x in t)  # noqa: E731
    assert sorted(got, key=key) == sorted(expected, key=key)
    # non-vacuous: fixture injects oov and null-element rows
    assert (out["n_oov"].fillna(0) > 0).any()


def test_seq_detokenize_with_text_roundtrip(ray_session):
    out = tk.seq_detokenize(SF, with_text=True).to_pandas()
    ok = out["text"].notna()
    assert (out.loc[ok, "text"].str.len() == out.loc[ok, "text_len"]).all()
    assert (out.loc[ok, "text"].str[:64] == out.loc[ok, "text_prefix"]).all()


def test_seq_unigram_lm_score_differential(ray_session, rows):
    import math

    from product_quality_check_ray.core.schema import VOCAB

    cnt = {}
    total = 0
    for r in rows:
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.SEQLM_REF_MOD == 0 and r["tokens"] is not None:
            for x in r["tokens"]:
                total += 1
                if x is not None and 0 <= x < VOCAB:
                    cnt[x] = cnt.get(x, 0) + 1

    def mb(x):
        c = cnt.get(x, 0) if x is not None and 0 <= x < VOCAB else 0
        v = -math.log2((c + 1) * 1.0 / (total + VOCAB)) * 1000
        f = math.floor(v)
        return f + (1 if v - f >= 0.5 else 0)  # half-away for positive v

    expected = {}
    for r in rows:
        toks = r["tokens"]
        t = None if toks is None else sum(mb(x) for x in toks)
        n = None if toks is None else len(toks)
        expected.setdefault((r["doc_id"], r["source"], r["n_tok"]), []).append((n, t))
    out = tk.seq_unigram_lm_score(SF).to_pandas()
    got = {}
    for r in out.itertuples(index=False):
        n = None if r.n_scored != r.n_scored else int(r.n_scored)
        t = None if r.total_millibits != r.total_millibits else int(r.total_millibits)
        got.setdefault((r.doc_id, r.source, r.n_tok), []).append((n, t))
        if n and n > 0:
            assert abs(r.bits_per_tok - t / (1000.0 * n)) < 1e-12
    def norm(x):
        if x is None or x != x:
            return ""
        return x if isinstance(x, str) else str(int(x))

    def fix(d):
        return {
            tuple(norm(x) for x in k): sorted(
                v,
                key=lambda p: (
                    p[0] is None,
                    -1 if p[0] is None else p[0],
                    -1 if p[1] is None else p[1],
                ),
            )
            for k, v in d.items()
        }

    assert fix(got) == fix(expected)


def test_prepare_training_sequences_differential(ray_session, rows):
    from product_quality_check_ray.core.schema import SOURCES, VOCAB
    from product_quality_check_ray.pipelines.textprep import (
        SEQ_PACK_BUDGET,
        SEQ_PACK_SHARDS,
        SHARD_ADD2,
        SHARD_MULT1,
        SHARD_MULT2,
    )

    M32 = 1 << 32
    allowed = set(SOURCES)
    # stage 1: augmented view + validity + holdout exclusion
    pop = []
    n_raw = 0
    for r in rows:
        if r["doc_id"] is None or r["tokens"] is None:
            continue
        n_raw += 1
        s = _sfx(r["doc_id"])
        if s % tk.DUPSEQ_MOD == tk.DUPSEQ_RES:
            p = list(tk.CANARY[: tk.DUPSEQ_LEN_BASE + s % tk.DUPSEQ_LEN_CHOICES])
        elif s % tk.DECON_PATCH_MOD == tk.DECON_PATCH_RES:
            m = min(tk.CANARY_LEN, len(r["tokens"]))
            p = list(tk.CANARY[:m]) + list(r["tokens"][m:])
        else:
            p = list(r["tokens"])
        pop.append((r["doc_id"], r["source"], s, p))
    hold_grams = set()
    for _d, _src, s, p in pop:
        if s % tk.DECON_HOLD_MOD == 0:
            for i in range(len(p) - tk.DECON_K + 1):
                hold_grams.add(tuple(p[i : i + tk.DECON_K]))
    valid = [
        (d, s, p)
        for d, src, s, p in pop
        if 1 <= len(p) <= 2048
        and all(x is not None and 0 <= x < VOCAB for x in p)
        and src in allowed
        and s % tk.DECON_HOLD_MOD != 0
    ]
    assert len(valid) < n_raw  # validity/holdout non-vacuous
    # stage 2: keep-min dedup on full arrays
    reps = {}
    for d, s, p in valid:
        key = tuple(p)
        reps[key] = d if key not in reps else min(reps[key], d)
    ded = [(d, s, p) for d, s, p in valid if reps[tuple(p)] == d]
    assert len(ded) < len(valid)  # dedup non-vacuous (injected dups)
    # stage 3: decontamination
    surv = [
        (d, s, p)
        for d, s, p in ded
        if not any(
            tuple(p[i : i + tk.DECON_K]) in hold_grams
            for i in range(len(p) - tk.DECON_K + 1)
        )
    ]
    assert len(surv) < len(ded)  # decontamination non-vacuous (canary rows)
    # stage 4: pack walk per shard
    per_shard = {}
    for d, s, p in surv:
        k1 = (s * SHARD_MULT1) % M32
        key = (k1 * SHARD_MULT2 + SHARD_ADD2) % M32
        per_shard.setdefault(k1 % SEQ_PACK_SHARDS, []).append((key, s, len(p), d))
    expected = []
    for shard, members in per_shard.items():
        members.sort(key=lambda m: m[:3])
        pid, pos, acc = 0, 0, 0
        for key, s, nt, d in members:
            if acc and acc + nt > SEQ_PACK_BUDGET:
                pid, pos, acc = pid + 1, 0, 0
            expected.append((d, shard, pid, pos, acc, nt))
            pos, acc = pos + 1, acc + nt
    out = tk.prepare_training_sequences(SF).to_pandas()
    got = [
        (r.doc_id, r.shard, r.pack_id, r.pack_pos, r.tok_offset, r.n_tok)
        for r in out.itertuples(index=False)
    ]
    assert sorted(got) == sorted(expected)


def test_prepare_training_sequences_resumable_sink(ray_session, tmp_path, monkeypatch):
    import os

    out = str(tmp_path / "prep_out")
    a = tk.prepare_training_sequences(SF, out_dir=out).to_pandas()
    assert os.path.exists(os.path.join(out, "_PREP_SUCCESS.json"))
    mtimes = {
        f: os.path.getmtime(os.path.join(r, f))
        for r, _d, fs in os.walk(out)
        for f in fs
    }

    def boom(_t):
        raise AssertionError("resume must not recompute the pipeline")

    monkeypatch.setattr(tk, "_capstone_view", boom)
    b = tk.prepare_training_sequences(SF, out_dir=out).to_pandas()
    monkeypatch.undo()
    # rerun READ the finished sink (no rewrite), same rows
    assert {
        f: os.path.getmtime(os.path.join(r, f))
        for r, _d, fs in os.walk(out)
        for f in fs
    } == mtimes
    cols = ["doc_id", "shard", "pack_id", "pack_pos", "tok_offset", "n_tok"]
    sa = a[cols].astype(str).sort_values(cols).reset_index(drop=True)
    sb = b[cols].astype(str).sort_values(cols).reset_index(drop=True)
    assert sa.equals(sb)
    monkeypatch.undo()
    # a resume with DIFFERENT parameters must recompute, not reuse the sink
    c = tk.prepare_training_sequences(SF, budget=512, out_dir=out).to_pandas()
    assert c["pack_id"].max() > b["pack_id"].max()  # smaller budget → more packs
    import json

    with open(os.path.join(out, "_PREP_SUCCESS.json")) as f:
        assert json.load(f)["params"]["budget"] == 512


PLAN_COLS = ["doc_id", "shard", "pack_id", "pack_pos", "tok_offset", "n_tok"]


def _prep_oracle(monkeypatch, corpus):
    """The capstone's DuckDB oracle over ``corpus``'s fragments."""
    import duckdb

    import __ray_entry__ as e

    frag_glob = f"{corpus}/frag-*.parquet"
    with monkeypatch.context() as m:
        m.setattr(e, "_seq_glob_sql", lambda _sf: frag_glob)
        m.setattr(e, "_seq_v2_glob_sql", lambda _sf: frag_glob)
        sql = e.oracle_sql()["prepare_training_sequences"]
    con = duckdb.connect()
    try:
        con.sql("SET threads=2")
        return con.sql(sql).df()
    finally:
        con.close()


def _assert_plan_is_oracle(plan, oracle):
    from tools.check_queries import compare

    assert compare("prepare_training_sequences", plan.to_pandas(), oracle) == []


def _short_fixture_corpus(d, n_rows, num_fragments, seed):
    """A fixture corpus (augmented by default) with every token array cut
    to its first 24 tokens, so the oracle's gram unnest stays small; the
    canary prefix, DUPSEQ arrays and holdout grams all survive the cut."""
    import pyarrow.compute as pc

    from product_quality_check_ray.datagen import write_sequences

    write_sequences(d, n_rows, seed=seed, num_fragments=num_fragments)
    for f in sorted(glob.glob(f"{d}/frag-*.parquet")):
        t = pq.read_table(f)
        cut = pc.list_slice(t.column("tokens"), 0, 24)
        i = t.schema.get_field_index("tokens")
        pq.write_table(t.set_column(i, "tokens", cut.cast(t.schema.field(i).type)), f)
    return d


def _plain_corpus(d, n_rows, num_fragments, *, residues, dup_pairs, seed=0):
    """A hand-built corpus: distinct random arrays of 20–40 tokens (longer
    than the canary, so patched rows stay distinct), ``dup_pairs`` planted
    exact duplicates across fragments, and doc_id suffixes that never hit
    the DUPSEQ residue — nor, with ``residues=False``, the DECON patch or
    holdout ones, so the augmented view equals the plain one."""
    import pyarrow as pa

    from product_quality_check_ray.core.schema import SOURCES, VOCAB

    rng = np.random.default_rng(seed)
    sfx = [
        s
        for s in range(1, 20 * n_rows)
        if s % tk.DUPSEQ_MOD != tk.DUPSEQ_RES
        and (
            residues
            or (s % tk.DECON_PATCH_MOD != tk.DECON_PATCH_RES and s % tk.DECON_HOLD_MOD)
        )
    ][:n_rows]
    toks = [rng.integers(0, VOCAB, rng.integers(20, 41)).tolist() for _ in sfx]
    for i in range(dup_pairs):
        toks[n_rows - 1 - i] = toks[i]
    os.makedirs(d, exist_ok=True)
    bounds = np.linspace(0, n_rows, num_fragments + 1).astype(int)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([f"doc-{s:012d}" for s in sfx[lo:hi]]),
                    "tokens": pa.array(toks[lo:hi], type=pa.list_(pa.int32())),
                    "n_tok": pa.array([len(x) for x in toks[lo:hi]], type=pa.int32()),
                    "source": pa.array([SOURCES[s % len(SOURCES)] for s in sfx[lo:hi]]),
                }
            ),
            f"{d}/frag-{k:05d}.parquet",
        )
    return d


def test_prepare_training_sequences_range_invariant(ray_session, monkeypatch, tmp_path):
    """The capstone equals its DuckDB oracle at 2, 3 and 37 hash ranges
    (both exchange levels and the file grouping); at 37 some ranges get no
    grams, no hashes and no shards."""
    from product_quality_check_ray.core import exchange

    corpus = _short_fixture_corpus(str(tmp_path / "c"), 3000, 6, seed=3)
    oracle = _prep_oracle(monkeypatch, corpus)
    for r in (2, 3, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        _assert_plan_is_oracle(tk.prepare_training_sequences(corpus), oracle)
    assert len(oracle) > 0


@pytest.mark.parametrize("shape", ["big_fragment", "single_fragment"])
def test_prepare_training_sequences_fragment_shapes(ray_session, monkeypatch, tmp_path, shape):
    """One fragment larger than the 8192-row batch (every pass sees it in
    several batches), and a single small fragment (one map per level)."""
    n_rows = 9000 if shape == "big_fragment" else 700
    corpus = _short_fixture_corpus(str(tmp_path / shape), n_rows, 1, seed=5)
    _assert_plan_is_oracle(
        tk.prepare_training_sequences(corpus), _prep_oracle(monkeypatch, corpus)
    )


def test_prepare_training_sequences_no_duplicates(ray_session, monkeypatch, tmp_path):
    """A corpus with no duplicate arrays skips the candidate pass and still
    equals the oracle (holdout grams still decontaminate patched rows)."""

    class NoCandidates:
        def remote(self, *_a):
            raise AssertionError("candidate pass ran without duplicate hashes")

    corpus = _plain_corpus(str(tmp_path / "c"), 1500, 4, residues=True, dup_pairs=0)
    oracle = _prep_oracle(monkeypatch, corpus)
    monkeypatch.setattr(tk, "_prep_candidates", NoCandidates())
    plan = tk.prepare_training_sequences(corpus, augment=True)
    _assert_plan_is_oracle(plan, oracle)
    assert 0 < len(oracle) < 1500 - 1500 // tk.DECON_HOLD_MOD


def test_prepare_training_sequences_plain_empty_index(ray_session, monkeypatch, tmp_path):
    """``augment=False`` builds no grams (empty index) and still dedups: on
    a corpus whose suffixes hit no augmentation residue the oracle's view
    is the plain one, so both flags equal it."""
    corpus = _plain_corpus(str(tmp_path / "c"), 1200, 3, residues=False, dup_pairs=5)
    oracle = _prep_oracle(monkeypatch, corpus)
    assert len(oracle) == 1200 - 5
    for aug in (False, True):
        _assert_plan_is_oracle(tk.prepare_training_sequences(corpus, augment=aug), oracle)


def test_prepare_training_sequences_sink_contract(ray_session, tmp_path):
    """The cold return and the resume read-back have the same schema and
    rows (the read-back skips unrelated files such as ``notes.txt``);
    every plan file lies under ``out_dir/shard=<k>/``; a call with
    another budget first removes the finished sink's shard dirs and marker
    (and nothing else), and its read-back equals its direct return."""
    import pyarrow as pa

    out = str(tmp_path / "prep_out")
    os.makedirs(out)
    for name in ("_notes.txt", "notes.txt"):
        with open(os.path.join(out, name), "w") as f:
            f.write("unrelated")
    cold = tk.prepare_training_sequences(SF, out_dir=out)
    resumed = tk.prepare_training_sequences(SF, out_dir=out)
    assert cold.schema().names == resumed.schema().names == PLAN_COLS
    assert cold.schema().types == resumed.schema().types
    for c in PLAN_COLS[1:]:
        assert cold.schema().types[PLAN_COLS.index(c)] == pa.int64()
    a, b = cold.to_pandas(), resumed.to_pandas()
    assert len(a) > 0
    assert a.sort_values(PLAN_COLS).reset_index(drop=True).equals(
        b.sort_values(PLAN_COLS).reset_index(drop=True)
    )
    from product_quality_check_ray.pipelines.textprep import SEQ_PACK_SHARDS

    files = [
        os.path.relpath(os.path.join(r, f), out) for r, _d, fs in os.walk(out) for f in fs
    ]
    plan_files = sorted(set(files) - {"_PREP_SUCCESS.json", "_notes.txt", "notes.txt"})
    assert plan_files and all(
        re.fullmatch(r"shard=(\d+)/[^/]+\.parquet", p)
        and int(p.split("/")[0][6:]) < SEQ_PACK_SHARDS
        for p in plan_files
    )
    assert sorted({p.split("/")[0] for p in plan_files}) == sorted(
        f"shard={k}" for k in set(a["shard"])
    )

    stale = os.path.join(out, f"shard={SEQ_PACK_SHARDS + 1}")
    os.makedirs(stale)
    open(os.path.join(stale, "old.parquet"), "w").close()
    direct = tk.prepare_training_sequences(SF, budget=512, out_dir=out).to_pandas()
    assert not os.path.exists(stale)
    assert os.path.exists(os.path.join(out, "_notes.txt"))
    assert os.path.exists(os.path.join(out, "notes.txt"))
    back = tk.prepare_training_sequences(SF, budget=512, out_dir=out).to_pandas()
    assert direct["pack_id"].max() > a["pack_id"].max()
    assert direct.sort_values(PLAN_COLS).reset_index(drop=True).equals(
        back.sort_values(PLAN_COLS).reset_index(drop=True)
    )


def test_seq_neardup_pairs_differential(ray_session, rows):
    import math

    from product_quality_check_ray.core.schema import VOCAB

    K = tk.DECON_K

    def aug(r):
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.SEQND_MOD == tk.SEQND_RES:
            g = (s // (2 * tk.SEQND_MOD)) % VOCAB
            m = (s // tk.SEQND_MOD) % 2
            return [
                (
                    tk.SEQND_A * (g + 1)
                    + tk.SEQND_B * (j + 1)
                    + (tk.SEQND_C * (m + 1) if j >= tk.SEQND_L - tk.SEQND_TAIL else 0)
                )
                % VOCAB
                for j in range(tk.SEQND_L)
            ]
        return [-1 if x is None else x for x in r["tokens"]]

    pop = [
        (r["doc_id"], aug(r))
        for r in rows
        if r["doc_id"] is not None and r["tokens"] is not None
    ]
    pop = [(d, p) for d, p in pop if len(p) >= K]
    by_head = {}
    for i, (d, p) in enumerate(pop):
        by_head.setdefault(tuple(p[:K]), []).append(i)
    expected = []
    for members in by_head.values():
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                i, j = members[x], members[y]
                da, db = pop[i][0], pop[j][0]
                if da == db:
                    continue
                if da > db:
                    i, j, da, db = j, i, db, da
                sa = {tuple(pop[i][1][o : o + K]) for o in range(len(pop[i][1]) - K + 1)}
                sb = {tuple(pop[j][1][o : o + K]) for o in range(len(pop[j][1]) - K + 1)}
                s = len(sa & sb)
                u = len(sa | sb)
                jac = math.floor(s / u * 1e6 + 0.5) / 1e6
                if jac >= tk.SEQND_THRESHOLD:
                    expected.append((da, db, s, u, jac))
    out = tk.seq_neardup_pairs(SF).to_pandas()
    got = [
        (r.doc_id_a, r.doc_id_b, r.shared, r.n_union, r.jaccard)
        for r in out.itertuples(index=False)
    ]
    assert sorted(got) == sorted(expected)
    assert len(expected) > 0  # planted family non-vacuous
    # planted pairs carry the designed similarity
    assert all(abs(j - 55 / 59) < 1e-4 for *_x, j in expected)


def test_seq_bigram_topk_differential(ray_session, rows):
    from collections import Counter

    cnt = Counter()
    for r in rows:
        if r["doc_id"] is None or r["tokens"] is None:
            continue
        p = _patched_prefix([-1 if x is None else x for x in r["tokens"]], _sfx(r["doc_id"]))
        for x, y in zip(p, p[1:]):
            cnt[(x, y)] += 1
    expected = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[: tk.BIGRAM_TOPK]
    out = tk.seq_bigram_topk(SF).to_pandas()
    got = [((r.tok_a, r.tok_b), r.cnt) for r in out.itertuples(index=False)]
    assert got == expected
    # the canary prefix dominates the random floor (non-vacuous heavy hitters)
    canary_bigrams = set(zip(tk.CANARY, tk.CANARY[1:]))
    assert all(pair in canary_bigrams for pair, _c in got)


def test_seq_bigram_topk_oov_no_alias(ray_session, tmp_path):
    """Planted OOV right-tokens (datagen places them at VOCAB..VOCAB+99)
    must count as their OWN bigram, not alias onto a canonical one — the
    old (a+2)·(VOCAB+4)+(b+2) packing folded (4, VOCAB+48) onto (5, 44)."""
    import pyarrow as pa

    from product_quality_check_ray.core.schema import VOCAB

    rows = []
    # within-row repeats: the tiny file may split into 1-row blocks, and the
    # pass-1 candidate threshold is per block; 13 repeats also clears the
    # (CAND_MIN-1)*n_blocks exactness bound at any split of 2 rows
    for i, toks in enumerate([[5, 44] * 13, [4, VOCAB + 48] * 13]):
        rows.append((f"doc-{i}-{i + 1:012d}", "web", toks))  # sfx%13 != 5
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([r[2] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    d = tmp_path / "seq"
    d.mkdir()
    pq.write_table(t, str(d / "frag-000.parquet"))
    out = tk.seq_bigram_topk(str(d), k=2).to_pandas()
    got = [((r.tok_a, r.tok_b), r.cnt) for r in out.itertuples(index=False)]
    assert got == [((4, VOCAB + 48), 13), ((5, 44), 13)]


def test_seq_boundary_audit_planted(ray_session, tmp_path):
    """Planted corpus: modal ranking with (cnt DESC, token ASC) tie-break,
    out-of-vocab/negative/null boundary clamping to -1, the exact
    cross-multiplication anchored boundary (100 vs 105), NULL-source
    grouping, and no canary patch on a user (non-fixture) corpus."""
    import pyarrow as pa

    from product_quality_check_ray.core.schema import VOCAB

    rows = []
    # web: first anchored (21/21), last NOT (top1=1, 1*100 < 21*5)
    for i in range(21):
        rows.append((f"w{i}", "web", [7, 100 + i]))
    # tie: three last-tokens at cnt=2, one at cnt=1 -> top3 = 40,50,60
    for i, lt in enumerate([50, 50, 40, 40, 60, 60, 30]):
        rows.append((f"t{i}", "tie", [8, lt]))
    # clamp: oov first, negative last, null element first
    for i in range(3):
        rows.append((f"o{i}", "oov", [VOCAB + 3, -7]))
    rows.append(("o3", "oov", [None, 4]))
    # null source, single-token rows (first == last)
    rows.append(("n0", None, [5]))
    rows.append(("n1", None, [5]))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([r[2] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    d = tmp_path / "seq"
    d.mkdir()
    pq.write_table(t, str(d / "frag-000.parquet"))
    out = tk.seq_boundary_audit(str(d)).to_pandas()

    def grp(src, pos):
        m = (out["source"].astype(object).where(out["source"].notna(), None) == src) \
            if src is not None else out["source"].isna()
        g = out[m & (out["position"] == pos)].sort_values("rnk")
        return [(r.rnk, r.token, r.cnt, r.n_rows, r.anchored) for r in g.itertuples(index=False)]

    assert grp("web", "first") == [(1, 7, 21, 21, 1)]
    # cnt tie -> smallest token wins
    assert grp("web", "last") == [(1, 100, 1, 21, 0), (2, 101, 1, 21, 0), (3, 102, 1, 21, 0)]
    assert grp("tie", "last") == [(1, 40, 2, 7, 1), (2, 50, 2, 7, 1), (3, 60, 2, 7, 1)]
    assert grp("oov", "first") == [(1, -1, 4, 4, 1)]
    assert grp("oov", "last") == [(1, -1, 3, 4, 1), (2, 4, 1, 4, 1)]
    assert grp(None, "first") == [(1, 5, 2, 2, 1)]
    assert grp(None, "last") == [(1, 5, 2, 2, 1)]
    # user corpus: fixture canary patch must NOT apply even to a row whose
    # id shape matches the fixture patch residue
    rows2 = [(f"doc-p-{5 + 13 * i:012d}", "web", [9, 9]) for i in range(2)]
    t2 = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows2]),
            "tokens": pa.array([r[2] for r in rows2], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2, 2], type=pa.int32()),
            "source": pa.array([r[1] for r in rows2]),
        }
    )
    d2 = tmp_path / "seq2"
    d2.mkdir()
    pq.write_table(t2, str(d2 / "frag-000.parquet"))
    plain = tk.seq_boundary_audit(str(d2)).to_pandas()
    assert set(plain[plain["position"] == "first"]["token"]) == {9}
    patched = tk.seq_boundary_audit(str(d2), augment=True).to_pandas()
    assert set(patched[patched["position"] == "first"]["token"]) == {tk.CANARY[0]}


def test_token_ops_block_structure_invariance(ray_session, tmp_path, monkeypatch):
    """Identical outputs whether the SAME rows arrive as 8 parquet fragments
    or 1 merged file (different Ray block structures — the single-node
    stand-in for different cluster partitionings)."""
    import glob as g
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from product_quality_check_ray import datagen as dg
    from product_quality_check_ray.pipelines import textprep as tp

    da = tmp_path / "sf_blk8"
    db = tmp_path / "sf_blk1"
    da.mkdir()
    db.mkdir()
    monkeypatch.setitem(dg.SF_ROWS, "sf_blk8", 4000)
    monkeypatch.setitem(dg.SF_ROWS, "sf_blk1", 4000)
    src = dg.write_sequences(dg.sequences_dir_for(str(da)), 4000, num_fragments=8)
    # merged single-file copy with a spec-matching marker (content identical)
    dst = dg.sequences_dir_for(str(db))
    os.makedirs(dst, exist_ok=True)
    frags = sorted(g.glob(os.path.join(src, "frag-*.parquet")))
    assert len(frags) == 8
    merged = pa.concat_tables([pq_.read_table(f) for f in frags])
    pq_.write_table(merged, os.path.join(dst, "frag-00000.parquet"))
    for meta in ("_COMPLETE.json", "_injections.json"):
        with open(os.path.join(src, meta)) as f:
            blob = json.load(f)
        with open(os.path.join(dst, meta), "w") as f:
            json.dump(blob, f)

    def key(df):
        return (
            df.astype(str)
            .sort_values(list(df.columns))
            .reset_index(drop=True)
        )

    ops = [
        tk.seq_chunk_windows,
        tk.seq_length_batches,
        tk.seq_detokenize,
        tk.seq_unigram_lm_score,
        tk.seq_neardup_pairs,
        tk.prepare_training_sequences,
        tp.seq_pack_execute,
        tk.seq_split_assign,
        tk.seq_repetition_scores,
        tk.seq_cross_source_dups,
        tk.seq_vocab_coverage,
    ]
    for fn in ops:
        ra = fn(str(da))
        rb = fn(str(db))
        pda = ra.to_pandas() if not isinstance(ra, pa.Table) else ra.to_pandas()
        pdb_ = rb.to_pandas() if not isinstance(rb, pa.Table) else rb.to_pandas()
        assert key(pda).equals(key(pdb_)), fn.__name__


def _py_pack_execute(rows, budget, n_shards):
    """Pure-python re-implementation of seq_pack_execute's summary output."""
    from product_quality_check_ray.pipelines.textprep import (
        SHARD_ADD2,
        SHARD_MULT1,
        SHARD_MULT2,
    )

    M32 = 1 << 32
    per_shard = {}
    for r in rows:
        if (
            r["doc_id"] is None
            or r["n_tok"] is None
            or not (1 <= r["n_tok"] <= 2048)
            or r["tokens"] is None
            or len(r["tokens"]) != r["n_tok"]
        ):
            continue
        num = int(r["doc_id"][-12:])
        k1 = (num * SHARD_MULT1) % M32
        key = (k1 * SHARD_MULT2 + SHARD_ADD2) % M32
        toks = [-1 if x is None else x for x in r["tokens"]]
        per_shard.setdefault(k1 % n_shards, []).append((key, num, r["n_tok"], toks))
    expected = {}
    for shard, members in per_shard.items():
        members.sort()
        pid, acc = 0, 0
        for key, num, nt, toks in members:
            if acc and acc + nt > budget:
                pid, acc = pid + 1, 0
            acc += nt
            c, f, s, first, last = expected.get((shard, pid), (0, 0, 0, None, None))
            expected[(shard, pid)] = (
                c + 1,
                f + nt,
                s + sum(toks),
                toks[0] if first is None else first,
                toks[-1],
            )
    return expected


def test_seq_pack_execute_differential(ray_session, rows):
    from product_quality_check_ray.pipelines import textprep as tp

    expected = _py_pack_execute(rows, tp.SEQ_PACK_BUDGET, tp.SEQ_PACK_SHARDS)
    out = tp.seq_pack_execute(SF).to_pandas()
    assert len(out) == len(expected)
    for r in out.itertuples(index=False):
        c, f, s, first, last = expected[(r.shard, r.pack_id)]
        assert (r.n_seqs, r.fill, r.tok_sum, r.tok_first, r.tok_last) == (
            c,
            f,
            s,
            first,
            last,
        )
    assert ((out["fill"] <= tp.SEQ_PACK_BUDGET) | (out["n_seqs"] == 1)).all()


def test_seq_pack_execute_payload(ray_session):
    from product_quality_check_ray.pipelines import textprep as tp

    out = tp.seq_pack_execute(SF, with_payload=True).to_pandas()
    # payload concatenation is consistent with the summary scalars
    assert (out["tokens"].map(len) == out["fill"]).all()
    assert (out["tokens"].map(lambda t: int(np.sum(t))) == out["tok_sum"]).all()
    assert (out["tokens"].map(lambda t: t[0]) == out["tok_first"]).all()
    assert (out["tokens"].map(lambda t: t[-1]) == out["tok_last"]).all()


def test_seq_pack_execute_tie_resolution(ray_session, tmp_path, monkeypatch):
    """Duplicate (doc_id, n_tok) rows with DIFFERENT content must pack in
    token-array lexicographic order (the documented tiebreak)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from product_quality_check_ray import datagen as dg
    from product_quality_check_ray.pipelines import textprep as tp

    d = tmp_path / "sf_ties"
    d.mkdir()
    monkeypatch.setitem(dg.SF_ROWS, "sf_ties", 0)
    seq_dir = dg.ensure_sequences(str(d))
    # two rows, same doc_id and n_tok, contents differ only in the arrays; both in
    # one shard, budget fits exactly one per pack (n_tok=3, budget=4)
    t = pa.table(
        {
            "doc_id": ["seq-000000000001", "seq-000000000001"],
            "tokens": pa.array([[9, 9, 9], [1, 2, 3]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([3, 3], type=pa.int32()),
            "source": ["web", "web"],
        }
    )
    pq_.write_table(t, f"{seq_dir}/frag-99999.parquet")
    out = (
        tp.seq_pack_execute(str(d), budget=4, n_shards=4)
        .to_pandas()
        .sort_values("pack_id")
        .reset_index(drop=True)
    )
    assert len(out) == 2
    # lexicographically smaller array ([1,2,3]) packs first
    assert out.loc[0, "tok_first"] == 1 and out.loc[0, "tok_last"] == 3
    assert out.loc[1, "tok_first"] == 9 and out.loc[1, "tok_last"] == 9


def test_content_hash_properties():
    # permutation sensitivity + length sensitivity of the candidate hash
    offs = np.array([0, 3, 6, 8, 8], dtype=np.int64)
    vals = np.array([1, 2, 3, 3, 2, 1, 5, 5], dtype=np.int32)
    h = tk._content_hash(offs, vals)
    assert h[0] != h[1]  # [1,2,3] vs [3,2,1]
    assert h[2] != h[3]  # [5,5] vs []
    # equal content, equal hash — independent of buffer position
    offs2 = np.array([2, 5], dtype=np.int64)
    vals2 = np.array([9, 9, 1, 2, 3], dtype=np.int32)
    assert tk._content_hash(offs2, vals2)[0] == h[0]


def test_gram_index_distributed_build_matches_driver_build(ray_session):
    """The Dataset.sort-based index build is byte-equivalent to the driver
    argsort build: same sorted hash array, same bitmap, same membership."""
    from product_quality_check_ray.pipelines.tokens import (
        DECON_K,
        _key_hash64,
        holdout_gram_index,
    )
    import ray.data as rd

    ensure_sequences(SF)
    import glob as _glob

    files = sorted(_glob.glob(sequences_glob(SF)))
    ds = rd.read_parquet(files, columns=["doc_id", "tokens"])
    a = holdout_gram_index(ds, distributed=False)
    b = holdout_gram_index(
        rd.read_parquet(files, columns=["doc_id", "tokens"]), distributed=True
    )
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.bitmap, b.bitmap)
    assert int(a.mask) == int(b.mask)
    # membership parity on present and absent windows
    probe = a.keymat[:: max(1, len(a.keymat) // 64)]
    absent = np.full((5, DECON_K), -1234567, dtype=np.int32)
    win = np.vstack([probe, absent])
    h = _key_hash64(win)
    assert np.array_equal(a.member(h, win), b.member(h, win))
    assert a.member(h, win)[: len(probe)].all()
    assert not a.member(h, win)[len(probe):].any()


def test_seq_split_assign_differential(ray_session, rows):
    out = tk.seq_split_assign(SF).to_pandas()
    expected = {}
    for r in rows:
        sfx = _sfx(r["doc_id"])
        if sfx < 0:
            continue
        b = (sfx * tk.SPLIT_MULT) % tk.SPLIT_PRIME % 100
        s = (
            "test"
            if b < tk.SPLIT_TEST_PCT
            else ("val" if b < tk.SPLIT_VAL_PCT else "train")
        )
        key = (r["doc_id"], r["source"], s)
        expected[key] = expected.get(key, 0) + 1
    got = {}
    for t in out.itertuples(index=False):
        key = (t.doc_id, t.source, t.split)
        got[key] = got.get(key, 0) + 1
    assert got == expected
    # non-vacuous + stratified: every split present, and per-source test+val
    # fractions land near the 10% target (suffixes are uniform per source)
    assert set(out["split"]) == {"train", "val", "test"}
    frac = (
        out.assign(held=out["split"] != "train")
        .groupby("source")["held"]
        .mean()
    )
    big = out["source"].value_counts()
    assert ((frac[big[big > 500].index] - 0.10).abs() < 0.04).all()


def _naive_repetition(tokens):
    toks = [-1 if x is None else x for x in tokens]
    n = len(toks)
    nd = sum(1 for i in range(1, n) if toks[i] == toks[i - 1])
    dist = len(set(toks))if n else 0
    top = max((toks.count(x) for x in set(toks)), default=0)
    rep = (n > 1 and nd * 10 > (n - 1) * 3) or (n > 0 and top * 5 > n)
    return (n, nd, dist, top, rep)


def test_seq_repetition_scores_differential(ray_session, rows):
    out = tk.seq_repetition_scores(SF).to_pandas()
    expected = sorted(
        (r["doc_id"], r["source"]) + _naive_repetition(r["tokens"])
        for r in rows
        if r["doc_id"] is not None and r["tokens"] is not None
    )
    got = sorted(
        (t.doc_id, t.source, t.n_tok_actual, t.n_adj_dup, t.n_distinct, t.top_tok_n, t.repetitive)
        for t in out.itertuples(index=False)
    )
    assert got == expected
    # the fixture's random tokens produce adjacent dups but no flagged rows
    assert (out["n_adj_dup"] > 0).any()
    assert (out["n_distinct"] < out["n_tok_actual"]).any()


def test_seq_repetition_scores_planted(ray_session, tmp_path, monkeypatch):
    """The repetitive flag and every metric on hand-built pathological rows
    (all-same, alternating, heavy-tail, empty, null elements) routed through
    the real op via a direct-path corpus."""
    import pyarrow as pa

    rows = [
        ("doc-a-000000000001", "web", [7] * 100),            # all same
        ("doc-b-000000000002", "web", [1, 2] * 50),          # alternating, no adj dups
        ("doc-c-000000000003", "web", [5] * 30 + list(range(70))),  # heavy tail
        ("doc-d-000000000004", "web", []),                   # empty
        ("doc-e-000000000005", "web", [None, None, 3]),      # null elements -> -1
        ("doc-f-000000000006", "web", list(range(100))),     # all distinct
        # TRAILING empty row: lo == hi == v.size regression (12.8M corpus
        # batches ended on empty arrays and the cumsum index ran past c)
        ("doc-g-000000000007", "web", []),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([r[2] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    d = tmp_path / "seq"
    d.mkdir()
    pq.write_table(t, str(d / "frag-000.parquet"))
    out = tk.seq_repetition_scores(str(d)).to_pandas().set_index("doc_id")
    for doc_id, _, toks in rows:
        n, nd, dist, top, rep = _naive_repetition(toks)
        row = out.loc[doc_id]
        assert (row.n_tok_actual, row.n_adj_dup, row.n_distinct, row.top_tok_n, bool(row.repetitive)) == (n, nd, dist, top, rep), doc_id
    assert bool(out.loc["doc-a-000000000001", "repetitive"])
    # two-token alternation: no adjacent dups, but top-frequency 0.5 flags it
    assert bool(out.loc["doc-b-000000000002", "repetitive"])
    assert bool(out.loc["doc-c-000000000003", "repetitive"])
    assert not bool(out.loc["doc-f-000000000006", "repetitive"])


def test_seq_cross_source_dups_differential(ray_session, rows):
    groups = {}
    for r in rows:
        if r["source"] is None:
            continue
        sfx = _sfx(r["doc_id"])
        if sfx >= 0 and sfx % tk.DUPSEQ_MOD == tk.DUPSEQ_RES:
            content = tuple(tk.CANARY[: tk.DUPSEQ_LEN_BASE + sfx % tk.DUPSEQ_LEN_CHOICES])
        else:
            toks = r["tokens"] if r["tokens"] is not None else []
            content = tuple(-1 if x is None else x for x in toks)
        groups.setdefault(content, set()).add(r["source"])
    expected = {}
    for srcs in groups.values():
        ss = sorted(srcs)
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                expected[(ss[i], ss[j])] = expected.get((ss[i], ss[j]), 0) + 1
    out = tk.seq_cross_source_dups(SF).to_pandas()
    got = {(t.source_a, t.source_b): t.n_shared for t in out.itertuples(index=False)}
    assert got == expected
    # non-vacuous: the planted DUPSEQ canary groups span sources
    assert len(got) >= 3 and sum(got.values()) >= 5


def test_seq_vocab_coverage_differential(ray_session, rows):
    from product_quality_check_ray.core.schema import VOCAB

    expected = {}
    for r in rows:
        if r["source"] is None:
            continue
        toks = r["tokens"] if r["tokens"] is not None else []
        st = expected.setdefault(r["source"], [0, 0, 0, set()])
        st[0] += 1
        st[1] += len(toks)
        for x in toks:
            v = -1 if x is None else x
            if v < 0 or v >= VOCAB:
                st[2] += 1
            else:
                st[3].add(v)
    out = tk.seq_vocab_coverage(SF).to_pandas()
    got = {
        t.source: (t.n_rows, t.n_tokens, t.n_invalid_tokens, t.n_distinct_valid)
        for t in out.itertuples(index=False)
    }
    assert got == {k: (v[0], v[1], v[2], len(v[3])) for k, v in expected.items()}
    # non-vacuous: invalid tokens exist (oov/neg injections) and the big
    # sources cover most of the vocab while small ones do not
    assert (out["n_invalid_tokens"] > 0).any()
    assert out["n_distinct_valid"].max() == VOCAB
    assert out["n_distinct_valid"].min() < VOCAB


def test_seq_prefix_dups_differential(ray_session, rows):
    """Naive per-row reconstruction of the truncation-dup contract: augmented
    view, first-PREFIX_K anchor groups, hot-cap drop, strict-prefix pairs."""
    K, CAP = tk.PREFIX_K, tk.PREFIX_HOT_CAP
    recs = []
    for r in rows:
        s = _sfx(r["doc_id"])
        if s >= 0 and s % tk.DUPSEQ_MOD == tk.DUPSEQ_RES:
            p = tuple(tk.CANARY[: tk.DUPSEQ_LEN_BASE + s % tk.DUPSEQ_LEN_CHOICES])
        else:
            toks = r["tokens"] or []
            p = tuple(-1 if x is None else x for x in toks)
        if len(p) >= K:
            recs.append((r["doc_id"], r["source"], p))
    by_anchor = {}
    for rec in recs:
        by_anchor.setdefault(rec[2][:K], []).append(rec)
    expected = []
    for group in by_anchor.values():
        if not (2 <= len(group) <= CAP):
            continue
        for a in group:
            for b in group:
                if len(a[2]) < len(b[2]) and b[2][: len(a[2])] == a[2]:
                    expected.append((a[0], b[0], a[1], b[1], len(a[2]), len(b[2])))

    out = tk.seq_prefix_dups(SF).to_pandas()
    got = [tuple(r) for r in out.itertuples(index=False)]
    key = lambda t: tuple("" if x is None else str(x) for x in t)  # noqa: E731
    assert sorted(got, key=key) == sorted(expected, key=key)
    # non-vacuous: canary length families pair across groups
    assert len(expected) > 0


def test_seq_prefix_dups_planted(ray_session, tmp_path):
    """Direct-path (non-fixture → plain view) corpus covering: a true prefix
    family, anchor-equal-but-diverging rows (candidates that must verify
    false), null token elements (-1 sentinel), strictness (equal arrays are
    NOT pairs), and the PREFIX_HOT_CAP drop."""
    import pyarrow as pa

    rows = [
        ("a-short", "web", [10, 11, 12, 13]),
        ("a-long1", "web", [10, 11, 12, 13, 99]),
        ("a-long2", "web", [10, 11, 12, 13, 20, 21, 22]),
        ("b-x", "web", [1, 2, 3, 4, 5]),
        ("b-y", "web", [1, 2, 3, 4, 6, 7]),   # same anchor, diverges at 5th
        ("n-short", "web", [None, 2, 3, 4]),
        ("n-long", "web", [None, 2, 3, 4, 5]),
        ("e-1", "web", [8, 8, 8, 8]),
        ("e-2", "web", [8, 8, 8, 8]),          # equal arrays: exact dup, no pair
    ]
    # hot anchor: CAP+1 rows sharing [9,9,9,9] with mixed lengths — every
    # pair would qualify, the cap must drop them all
    for i in range(tk.PREFIX_HOT_CAP + 1):
        rows.append((f"hot-{i:05d}", "web", [9, 9, 9, 9] + [7] * (i % 3)))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([r[2] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[2]) for r in rows], type=pa.int32()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    d = tmp_path / "seq"
    d.mkdir()
    pq.write_table(t, str(d / "frag-000.parquet"))
    out = tk.seq_prefix_dups(str(d)).to_pandas()
    got = {(r.short_id, r.long_id) for r in out.itertuples(index=False)}
    assert got == {
        ("a-short", "a-long1"),
        ("a-short", "a-long2"),
        ("n-short", "n-long"),
    }
    lens = {
        (r.short_id, r.long_id): (r.short_len, r.long_len)
        for r in out.itertuples(index=False)
    }
    assert lens[("a-short", "a-long2")] == (4, 7)


def test_seq_shard_schema_audit_planted(ray_session, tmp_path):
    """A direct-path corpus where one shard was 'written by a different
    job': extra column + int64 tokens. The audit must fingerprint it apart
    and count signature populations correctly."""
    import pyarrow as pa

    d = tmp_path / "seq"
    d.mkdir()
    good = pa.table(
        {
            "doc_id": pa.array(["a-1", "a-2"]),
            "tokens": pa.array([[1, 2], [3]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    bad = pa.table(
        {
            "doc_id": pa.array(["b-1"]),
            "tokens": pa.array([[1]], type=pa.list_(pa.int64())),  # widened
            "n_tok": pa.array([1], type=pa.int32()),
            "source": pa.array(["web"]),
            "extra": pa.array([0.5], type=pa.float64()),           # stray col
        }
    )
    pq.write_table(good, str(d / "frag-000.parquet"))
    pq.write_table(good, str(d / "frag-001.parquet"))
    pq.write_table(bad, str(d / "frag-002.parquet"))
    out = tk.seq_shard_schema_audit(str(d)).to_pandas().set_index("fragment")
    assert out.loc["frag-000.parquet", "schema_sig"] == out.loc["frag-001.parquet", "schema_sig"]
    assert out.loc["frag-002.parquet", "schema_sig"] != out.loc["frag-000.parquet", "schema_sig"]
    assert out.loc["frag-000.parquet", "n_sig_fragments"] == 2
    assert out.loc["frag-002.parquet", "n_sig_fragments"] == 1
    assert out.loc["frag-002.parquet", "n_leaf_columns"] == 5
    assert out.loc["frag-000.parquet", "num_rows"] == 2
    assert "element:INT64" in out.loc["frag-002.parquet", "schema_sig"]


def test_seq_shard_stats_planted(ray_session, tmp_path):
    """A shard whose source-mean deviates >10% must flag; null n_tok and
    null source groups follow SQL aggregate semantics (ignored in sums,
    NULL min/max when all-null)."""
    import pyarrow as pa

    d = tmp_path / "seq"
    d.mkdir()

    def frag(name, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows]),
                "tokens": pa.array([[1]] * len(rows), type=pa.list_(pa.int32())),
                "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
                "source": pa.array([r[1] for r in rows]),
            }
        )
        pq.write_table(t, str(d / name))

    # web corpus mean = 100; frag-001's web mean = 150 (+50% -> flag);
    # books identical across frags (no flag); one all-null-n_tok source
    frag("frag-000.parquet", [("a", "web", 100)] * 8 + [("b", "books", 50)] * 2 + [("x", None, 10)])
    frag("frag-001.parquet", [("c", "web", 150)] * 2 + [("d", "books", 50)] * 2 + [("e", "nulls", None)])
    out = tk.seq_shard_stats(str(d)).to_pandas()
    out["source"] = out["source"].astype(object)
    key = out.set_index(["fragment", out["source"].map(lambda s: s if isinstance(s, str) else "~null~")])
    w0 = key.loc[("frag-000.parquet", "web")]
    w1 = key.loc[("frag-001.parquet", "web")]
    assert (w0.n_rows, w0.sum_ntok, bool(w0.length_outlier)) == (8, 800, False)
    # global web mean = (800+300)/10 = 110; frag-001 mean 150 -> +36% -> flag
    assert (w1.n_rows, w1.sum_ntok, bool(w1.length_outlier)) == (2, 300, True)
    # frag-000 web mean 100 vs 110 is -9.1% -> under the 10% bar -> no flag
    b0 = key.loc[("frag-000.parquet", "books")]
    assert not b0.length_outlier
    nl = key.loc[("frag-001.parquet", "nulls")]
    assert nl.n_ntok == 0 and not nl.length_outlier
    import pandas as pd
    assert pd.isna(nl.sum_ntok) and pd.isna(nl.min_ntok)
    ns = key.loc[("frag-000.parquet", "~null~")]
    assert ns.n_rows == 1 and ns.sum_ntok == 10


# --------------------------------------------------------------------------
# seq_mixture_sample — token-budget domain-mixture sampling
# --------------------------------------------------------------------------


def _naive_mixture_rates(totals, weights_ppm, ppm):
    """Independent reimplementation of the rate spec (test oracle)."""
    bind = [
        (totals[s] * ppm) // w for s, w in weights_ppm.items() if w > 0 and totals.get(s, 0) > 0
    ]
    if not bind:
        return {}
    c = min(bind)
    return {
        s: ((c * w) // ppm) * ppm // totals[s]
        for s, w in weights_ppm.items()
        if w > 0 and totals.get(s, 0) > 0
    }


def test_seq_mixture_sample_planted(ray_session, tmp_path):
    """Direct-path corpus: rates match the naive integer spec, the binding
    source is (near-)fully kept, zero-weight / unknown sources and invalid
    rows are dropped, and the keep set matches a per-row recomputation."""
    import pyarrow as pa

    rng = np.random.default_rng(7)
    rows = []
    # web: big pool so its rate is fractional; wiki: tiny pool -> binding
    for i in range(400):
        rows.append((f"w{i:04d}", "web", int(rng.integers(50, 150))))
    for i in range(20):
        rows.append((f"k{i:04d}", "wiki", int(rng.integers(50, 150))))
    for i in range(30):
        rows.append((f"s{i:04d}", "spam-0", 100))  # unweighted -> dropped
    rows.append((None, "web", 100))                # null doc_id -> dropped
    rows.append(("bad1", None, 100))               # null source -> dropped
    rows.append(("bad2", "web", None))             # null n_tok -> dropped
    rows.append(("bad3", "web", 0))                # non-positive -> dropped
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([[1, 2]] * len(rows), type=pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    d = tmp_path / "seq"
    d.mkdir()
    pq.write_table(t, str(d / "frag-000.parquet"))

    weights = {"web": 400_000, "wiki": 150_000, "forums": 50_000}  # forums absent
    totals, rates = tk.seq_mixture_rates(str(d), weights)
    valid = [r for r in rows if r[0] is not None and r[1] is not None and r[2]]
    exp_totals = {}
    for _, s, n in valid:
        exp_totals[s] = exp_totals.get(s, 0) + n
    assert totals == exp_totals
    assert rates == _naive_mixture_rates(exp_totals, weights, tk.MIXSEQ_PPM)
    # wiki binds (smallest T_s/W_s) -> floor rounding keeps it at ~100%
    assert rates["wiki"] >= tk.MIXSEQ_PPM - tk.MIXSEQ_PPM // exp_totals["wiki"] - 1
    assert 0 < rates["web"] < rates["wiki"]

    out = tk.seq_mixture_sample(str(d), weights).to_pandas()
    assert set(out["source"]) <= {"web", "wiki"}
    assert out["doc_id"].notna().all()
    # per-row recomputation with the engine's deterministic bucket
    ids = pa.array([r[0] for r in valid], type=pa.string())
    num = tk._doc_num(ids)
    bucket = (num * tk.MIXSEQ_MULT) % tk.MIXSEQ_PRIME % tk.MIXSEQ_PPM
    expect = {
        r[0]
        for r, b in zip(valid, bucket)
        if rates.get(r[1], 0) > b
    }
    assert set(out["doc_id"]) == expect
    # determinism across runs
    out2 = tk.seq_mixture_sample(str(d), weights).to_pandas()
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])


def test_seq_mixture_sample_fixture_shares(ray_session):
    """On the deterministic fixture, the achieved token mixture tracks the
    target shares (hash sampling is row-granular, so allow a loose band)
    and every weighted source present lands in the output."""
    sf = "/root/testdata/sf0.001"
    out = tk.seq_mixture_sample(sf).to_pandas()
    got = out.groupby("source")["n_tok"].sum()
    total = got.sum()
    w = tk.MIXSEQ_WEIGHTS_PPM
    wsum = sum(w[s] for s in got.index)
    for s in got.index:
        target = w[s] / wsum
        achieved = got[s] / total
        assert abs(achieved - target) < 0.05, (s, target, achieved)


def _write_frag(d, name, rows):
    """rows: list of (doc_id, tokens) — n_tok derived, source fixed."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(r[1]) if r[1] is not None else 0 for r in rows], type=pa.int32()
            ),
            "source": pa.array(["web"] * len(rows)),
        }
    )
    pq.write_table(t, str(d / name))


def test_seq_corpus_manifest_planted(ray_session, tmp_path):
    """Row-order permutation keeps the checksum (order-insensitive sum),
    a single-token mutation changes it, content-identical fragments are
    flagged as twins, and null-list / null-element / empty-list / null-id
    rows all checksum deterministically. 0-row fragments appear as
    (0, 0, 0)."""
    import pyarrow as pa

    d = tmp_path / "seq"
    d.mkdir()
    content = [
        ("a-000000000001", [1, 2, 3]),
        ("b-000000000002", []),
        (None, None),
        ("d-000000000004", [5, None, 7]),
    ]
    _write_frag(d, "frag-000.parquet", content)
    _write_frag(d, "frag-001.parquet", content[::-1])  # permuted copy → twin
    mutated = [(content[0][0], [1, 2, 4])] + content[1:]
    _write_frag(d, "frag-002.parquet", mutated)
    _write_frag(d, "frag-003.parquet", [])  # 0-row fragment

    out = tk.seq_corpus_manifest(str(d)).to_pandas().set_index("fragment")
    assert len(out) == 4
    f0, f1, f2, f3 = (out.loc[f"frag-00{i}.parquet"] for i in range(4))
    assert f0.content_sum == f1.content_sum and f0.n_tokens == f1.n_tokens == 6
    assert f0.n_rows == 4
    assert f0.n_twin_fragments == 2 and f1.n_twin_fragments == 2
    assert f2.content_sum != f0.content_sum and f2.n_twin_fragments == 1
    assert (f3.n_rows, f3.n_tokens, f3.content_sum, f3.n_twin_fragments) == (0, 0, 0, 1)
    assert 0 <= f0.content_sum < tk.MANIFEST_MOD


def test_seq_dup_id_conflicts_planted(ray_session, tmp_path):
    """Exact-copy duplicates are benign (n_contents=1); differing payloads
    conflict; tokens NULL vs [] count as DIFFERENT contents; unique ids and
    null ids never appear."""
    d = tmp_path / "seq"
    d.mkdir()
    _write_frag(
        d,
        "frag-000.parquet",
        [
            ("a-000000000001", [1, 2]),
            ("b-000000000002", [3, 4]),
            ("b-000000000002", [3, 5]),
            ("c-000000000003", [9]),
            (None, [7]),
            ("e-000000000005", None),
        ],
    )
    _write_frag(
        d,
        "frag-001.parquet",
        [
            ("a-000000000001", [1, 2]),
            ("b-000000000002", [3, 4]),
            (None, [8]),
            ("e-000000000005", []),
        ],
    )
    out = tk.seq_dup_id_conflicts(str(d)).to_pandas().set_index("doc_id")
    assert list(out.index) == ["a-000000000001", "b-000000000002", "e-000000000005"]
    a, b, e = out.loc["a-000000000001"], out.loc["b-000000000002"], out.loc["e-000000000005"]
    assert (a.n_rows, a.n_contents, a.conflicting) == (2, 1, False)
    assert (b.n_rows, b.n_contents, b.conflicting) == (3, 2, True)
    assert (e.n_rows, e.n_contents, e.conflicting) == (2, 2, True)  # NULL vs []


def test_seq_dup_id_conflicts_fixture(ray_session):
    """Fixture dups take a donor's id but keep their own tokens, so every
    duplicate id group must contain ≥2 distinct contents — and the id set
    must equal seq_dup_doc_ids' exactly."""
    from product_quality_check_ray.pipelines import seq_queries as sq

    sf = "sf0.001"
    out = tk.seq_dup_id_conflicts(sf).to_pandas()
    dup = sq.seq_dup_doc_ids(sf).to_pandas()
    assert sorted(out.doc_id) == sorted(dup.doc_id)
    assert (out.n_rows.to_numpy() == dup.sort_values("doc_id").n.to_numpy()).all()
    assert out.conflicting.all()


def _write_frag_src(d, name, rows):
    """rows: list of (doc_id, tokens, source) — n_tok derived."""
    import pyarrow as pa

    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(r[1]) if r[1] is not None else 0 for r in rows], type=pa.int32()
            ),
            "source": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )
    pq.write_table(t, str(d / name))


def test_seq_id_source_fd_planted(ray_session, tmp_path):
    """doc_id → source FD: a duplicate id under two sources fires even when
    payloads are byte-identical (invisible to seq_dup_id_conflicts); a null
    source CONFLICTS with a real one via the '~null~' sentinel; same-source
    duplicates, unique ids and null ids never appear; the sorted distinct
    source list is deterministic."""
    d = tmp_path / "seq"
    d.mkdir()
    _write_frag_src(
        d,
        "frag-000.parquet",
        [
            ("fd-000000000001", [1, 2], "web"),
            ("benign-000000000002", [3, 4], "code"),
            ("nullsrc-000000000003", [5], "wiki"),
            ("uniq-000000000004", [6], "web"),
            (None, [7], "web"),
        ],
    )
    _write_frag_src(
        d,
        "frag-001.parquet",
        [
            ("fd-000000000001", [1, 2], "code"),  # identical payload, new source
            ("benign-000000000002", [3, 4], "code"),
            ("nullsrc-000000000003", [5], None),
            (None, [8], "books"),
        ],
    )
    out = tk.seq_id_source_fd(str(d)).to_pandas().set_index("doc_id")
    assert list(out.index) == ["fd-000000000001", "nullsrc-000000000003"]
    fd, ns = out.loc["fd-000000000001"], out.loc["nullsrc-000000000003"]
    assert (fd.n_rows, fd.n_sources, fd.sources) == (2, 2, "code,web")
    assert (ns.n_rows, ns.n_sources, ns.sources) == (2, 2, "wiki,~null~")
    # the identical-payload FD violation is exactly the case the
    # content-keyed audit cannot see
    conf = tk.seq_dup_id_conflicts(str(d)).to_pandas().set_index("doc_id")
    assert not conf.loc["fd-000000000001", "conflicting"]


def test_seq_id_source_fd_fixture(ray_session):
    """FD-violating ids are a subset of the duplicate-id set, and every
    reported group's source list length equals n_sources > 1."""
    from product_quality_check_ray.pipelines import seq_queries as sq

    sf = "sf0.001"
    out = tk.seq_id_source_fd(sf).to_pandas()
    assert len(out) > 0  # non-vacuous on the fixture
    dup = set(sq.seq_dup_doc_ids(sf).to_pandas().doc_id)
    assert set(out.doc_id) <= dup
    assert (out.n_sources > 1).all()
    assert (out.sources.str.split(",").str.len() == out.n_sources).all()


def test_seq_corpus_diff_files_planted(ray_session, tmp_path):
    """Added / removed / changed classes; duplicate ids compare as BAGS of
    content md5s (a dropped duplicate is 'changed'); rows AFTER a null
    doc_id stay row-aligned (regression: the recover pass once hashed the
    unfiltered table, mis-classifying every post-null changed row as
    unchanged); NULL tokens vs [] is a change; equal corpora diff empty."""
    da, db = tmp_path / "A", tmp_path / "B"
    da.mkdir(), db.mkdir()
    _write_frag(
        da,
        "frag-000.parquet",
        [
            (None, [99]),  # null id first → misalignment trap
            ("chg-000000000001", [1, 2]),
            ("dup-000000000002", [3]),
            ("dup-000000000002", [3]),
            ("rem-000000000003", [4]),
            ("nul-000000000004", None),
            ("sam-000000000005", [6, 7]),
        ],
    )
    _write_frag(
        db,
        "frag-000.parquet",
        [
            (None, [98]),  # different content under null id must NOT count
            ("chg-000000000001", [1, 2, 17]),
            ("dup-000000000002", [3]),  # one duplicate dropped → changed
            ("nul-000000000004", []),  # NULL -> [] is a change
            ("add-000000000006", [8]),
            ("sam-000000000005", [6, 7]),
        ],
    )
    import glob as g

    fa = sorted(g.glob(str(da / "*.parquet")))
    fb = sorted(g.glob(str(db / "*.parquet")))
    out = tk.seq_corpus_diff_files(fa, fb).to_pandas()
    got = dict(zip(out.doc_id, out.status))
    assert got == {
        "add-000000000006": "added",
        "chg-000000000001": "changed",
        "dup-000000000002": "changed",
        "nul-000000000004": "changed",
        "rem-000000000003": "removed",
    }
    assert tk.seq_corpus_diff_files(fa, fa).num_rows == 0


def test_seq_corpus_diff_fixture_classes(ray_session):
    """Fixture v2 derivation: every addv2-* id is 'added'; removed ids hit
    the remove residue; changed ids hit the change residue (and not the
    remove residue); direct-path dirs are rejected."""
    from product_quality_check_ray.datagen import (
        DIFF_V2_CHANGE_MOD,
        DIFF_V2_CHANGE_RES,
        DIFF_V2_REMOVE_MOD,
        DIFF_V2_REMOVE_RES,
    )

    out = tk.seq_corpus_diff("sf0.001").to_pandas()
    assert set(out.status) == {"added", "removed", "changed"}
    for r in out.itertuples(index=False):
        if r.status == "added":
            assert r.doc_id.startswith("addv2-")
        else:
            sfx = int(r.doc_id[-12:])
            if r.status == "removed":
                assert sfx % DIFF_V2_REMOVE_MOD == DIFF_V2_REMOVE_RES
            else:
                assert sfx % DIFF_V2_CHANGE_MOD == DIFF_V2_CHANGE_RES
                assert sfx % DIFF_V2_REMOVE_MOD != DIFF_V2_REMOVE_RES
    with pytest.raises(ValueError, match="fixture tags"):
        tk.seq_corpus_diff("/tmp")


def test_seq_split_leakage_planted(ray_session, tmp_path):
    """Direct-path (augmentation off): contents shared across splits are
    reported with the exact split set and min-doc_id rep; same-split
    duplicates and unique contents stay out; null doc_ids are excluded."""
    import numpy as np

    # pick suffixes by split deterministically from the engine's own formula
    buckets = (np.arange(10_000, dtype=np.int64) * tk.SPLIT_MULT) % tk.SPLIT_PRIME % 100
    test_s = np.flatnonzero(buckets < tk.SPLIT_TEST_PCT)[:3]
    val_s = np.flatnonzero((buckets >= tk.SPLIT_TEST_PCT) & (buckets < tk.SPLIT_VAL_PCT))[:3]
    train_s = np.flatnonzero(buckets >= tk.SPLIT_VAL_PCT)[:3]

    def did(sfx):
        return f"d-{sfx:012d}"

    rows = [
        # leak A: same content in train+val+test
        (did(train_s[0]), [1, 2, 3]),
        (did(val_s[0]), [1, 2, 3]),
        (did(test_s[0]), [1, 2, 3]),
        # leak B: train+test only
        (did(train_s[1]), [7]),
        (did(test_s[1]), [7]),
        # same-split duplicate: NOT leakage
        (did(train_s[2]), [9, 9]),
        (did(int(train_s[2]) + 0), [9, 9]),  # same suffix → same split
        # unique content
        (did(val_s[1]), [5, 6]),
        # null doc_id with a leaking content: excluded (no split)
        (None, [7]),
    ]
    d = tmp_path / "seq"
    d.mkdir()
    _write_frag(d, "frag-000.parquet", rows)
    out = tk.seq_split_leakage(str(d)).to_pandas()
    got = {r.group_rep: (r.n_rows, r.n_splits, r.splits) for r in out.itertuples(index=False)}
    expect_a = min(did(train_s[0]), did(val_s[0]), did(test_s[0]))
    expect_b = min(did(train_s[1]), did(test_s[1]))
    assert got == {
        expect_a: (3, 3, "test,train,val"),
        expect_b: (2, 2, "test,train"),
    }


def test_seq_split_leakage_fixture(ray_session):
    """Fixture: every leaked group is a canary content (or the shared
    empty-tokens content) spanning all three splits at this scale, and
    group sizes sum to the DUPSEQ family plus empty rows."""
    out = tk.seq_split_leakage("sf0.001").to_pandas()
    assert len(out) >= 2
    assert (out.n_splits >= 2).all()
    # leaked groups must be consistent with seq_dup_token_arrays' groups
    dup = tk.seq_dup_token_arrays("sf0.001").to_pandas()
    by_rep = dup.groupby("group_rep").size()
    for r in out.itertuples(index=False):
        assert r.group_rep in by_rep.index
        assert by_rep[r.group_rep] == r.n_rows


def test_seq_partition_verdicts_planted(ray_session, tmp_path):
    """A clean fragment passes; a fragment with one row per violation class
    reports exact per-check counts and fails; counts are per-FRAGMENT, not
    corpus-merged."""
    import pyarrow as pa

    from product_quality_check_ray.core.schema import VOCAB

    d = tmp_path / "seq"
    d.mkdir()

    def frag(name, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
                "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
                "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
                "source": pa.array([r[3] for r in rows], type=pa.string()),
            }
        )
        pq.write_table(t, str(d / name))

    frag(
        "frag-000.parquet",
        [("a-000000000001", [1, 2], 2, "web"), ("b-000000000002", [3], 1, "books")],
    )
    frag(
        "frag-001.parquet",
        [
            (None, [1], 1, "web"),                      # null_doc_id
            ("c-000000000003", None, 1, "web"),          # null_tokens (+mismatch excluded)
            ("d-000000000004", [1, 2], 3, "web"),        # ntok_mismatch
            ("e-000000000005", [VOCAB + 1], 1, "web"),   # token_oov
            ("f-000000000006", [-5], 1, "web"),          # token_neg
            ("g-000000000007", [1], 1, "spam-zz"),       # bad_source
            ("h-000000000008", [1] * 3000, 3000, "web"), # ntok_range
            ("i-000000000009", [1, 2, 3], 3, "web"),     # clean row
        ],
    )
    out = tk.seq_partition_verdicts(str(d)).to_pandas().set_index("fragment")
    f0, f1 = out.loc["frag-000.parquet"], out.loc["frag-001.parquet"]
    assert bool(f0.passed) and f0.viol_rows == 0 and f0.n_rows == 2
    assert not bool(f1.passed) and f1.n_rows == 8 and f1.viol_rows == 7
    for check in ("null_doc_id", "null_tokens", "ntok_mismatch", "token_oov",
                  "token_neg", "bad_source"):
        assert f1[check] == 1, check
        assert f0[check] == 0, check
    assert f1.ntok_range == 1


def test_seq_rowgroup_audit_planted(ray_session, tmp_path):
    """Row-group counts/extremes are exact; the oversize flags fire on the
    engine's integer thresholds (passed small here to make a tiny corpus
    flag); 0-row fragments report zeros and never flag."""
    import pyarrow as pa

    d = tmp_path / "seq"
    d.mkdir()
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(100)]),
            "tokens": pa.array([[1, 2, 3]] * 100, type=pa.list_(pa.int32())),
            "n_tok": pa.array([3] * 100, type=pa.int32()),
            "source": pa.array(["web"] * 100),
        }
    )
    pq.write_table(t, str(d / "frag-000.parquet"), row_group_size=40)  # 40/40/20
    pq.write_table(t, str(d / "frag-001.parquet"))                      # one group
    _write_frag(d, "frag-002.parquet", [])                              # empty

    out = tk.seq_rowgroup_audit(str(d), max_rows=50, max_bytes=10**12)
    df = out.to_pandas().set_index("fragment")
    f0, f1, f2 = (df.loc[f"frag-00{i}.parquet"] for i in range(3))
    assert (f0.n_row_groups, f0.min_rg_rows, f0.max_rg_rows) == (3, 20, 40)
    assert not f0.oversized_rows
    assert (f1.n_row_groups, f1.max_rg_rows) == (1, 100) and bool(f1.oversized_rows)
    assert not f1.oversized_bytes and f1.compressed_bytes > 0
    # pyarrow writes ONE empty row group for an empty table (other writers
    # may emit zero groups — that path is covered by the union branch)
    assert (f2.n_row_groups, f2.min_rg_rows, f2.max_rg_rows) == (1, 0, 0)
    assert not f2.oversized_rows

    tiny = tk.seq_rowgroup_audit(str(d), max_bytes=1).to_pandas().set_index("fragment")
    assert bool(tiny.loc["frag-000.parquet"].oversized_bytes)


def test_seq_stats_prescreen_planted(ray_session, tmp_path):
    """Footer-stat proofs are SOUND and exactly as conservative as
    documented: clean single-source fragments prove everything except the
    (never footer-provable) ntok_mismatch; each violation class kills its
    proof; empty token lists kill the null/neg proofs but not the oov proof
    (stats min/max ignore nulls); multi-source and unknown-single-source
    fragments can't prove bad_source; 0-row fragments prove vacuously."""
    import pyarrow as pa

    from product_quality_check_ray.core.schema import VOCAB

    d = tmp_path / "seq"
    d.mkdir()

    def frag(name, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
                "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
                "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
                "source": pa.array([r[3] for r in rows], type=pa.string()),
            }
        )
        pq.write_table(t, str(d / name))

    frag("frag-000.parquet",  # clean, single allowlisted source
         [("a-000000000001", [1, 2], 2, "web"), ("b-000000000002", [3], 1, "web")])
    frag("frag-001.parquet",  # null doc_id
         [(None, [1], 1, "web")])
    frag("frag-002.parquet",  # OOV token
         [("c-000000000003", [VOCAB + 7], 1, "web")])
    frag("frag-003.parquet",  # negative token
         [("d-000000000004", [-5], 1, "web")])
    frag("frag-004.parquet",  # clean but multi-source: bad_source unprovable
         [("e-000000000005", [1], 1, "web"), ("f-000000000006", [2], 1, "books")])
    frag("frag-005.parquet",  # single UNKNOWN source: min==max but not allowlisted
         [("g-000000000007", [1], 1, "spam-zz")])
    frag("frag-006.parquet",  # empty token list: leaf null_count > 0
         [("h-000000000008", [], 0, "web"), ("i-000000000009", [4], 1, "web")])
    frag("frag-007.parquet",  # n_tok out of range (0 and > cap)
         [("j-000000000010", [1], 0, "web"), ("k-000000000011", [1], 4000, "web")])
    frag("frag-008.parquet", [])  # 0-row fragment: vacuous proofs

    out = tk.seq_stats_prescreen(str(d)).to_pandas().set_index("fragment")
    assert len(out) == 9 and (out.n_proven == out.filter(like="prove_").sum(axis=1)).all()

    f = out.loc["frag-000.parquet"]
    assert not f.prove_ntok_mismatch  # never provable on non-empty fragments
    assert (f.prove_null_doc_id and f.prove_null_tokens and f.prove_token_oov
            and f.prove_token_neg and f.prove_bad_source and f.prove_ntok_range)
    assert f.n_proven == 6 and f.n_rows == 2

    assert not out.loc["frag-001.parquet"].prove_null_doc_id
    assert not out.loc["frag-002.parquet"].prove_token_oov
    assert out.loc["frag-002.parquet"].prove_token_neg  # min stat is fine
    assert not out.loc["frag-003.parquet"].prove_token_neg
    assert out.loc["frag-003.parquet"].prove_token_oov  # max stat is fine
    assert not out.loc["frag-004.parquet"].prove_bad_source  # min != max
    assert not out.loc["frag-005.parquet"].prove_bad_source  # not allowlisted
    f6 = out.loc["frag-006.parquet"]
    assert not f6.prove_null_tokens and not f6.prove_token_neg  # leaf nulls
    assert f6.prove_token_oov  # min/max ignore nulls
    assert not out.loc["frag-007.parquet"].prove_ntok_range
    f8 = out.loc["frag-008.parquet"]
    assert f8.n_rows == 0 and f8.n_proven == 7 and bool(f8.prove_ntok_mismatch)


def test_seq_stats_prescreen_sound_vs_verdicts(ray_session):
    """Soundness against the row-level ground truth: on the fixture corpus
    (which plants every violation class), a check PROVEN clean by footer
    stats must have zero violations of that class in the partition-verdict
    table — for every fragment, every check."""
    ensure_sequences(SF)
    pre = tk.seq_stats_prescreen(SF).to_pandas().set_index("fragment")
    ver = tk.seq_partition_verdicts(SF).to_pandas().set_index("fragment")
    assert set(pre.index) == set(ver.index)
    checks = [c[len("prove_"):] for c in pre.columns if c.startswith("prove_")]
    for fragment, row in pre.iterrows():
        v = ver.loc[fragment]
        for c in checks:
            if row[f"prove_{c}"]:
                assert v[c] == 0, (fragment, c)
    # and the prescreen is not trivially all-false: the fixture's clean
    # fragments must prove at least the token-domain checks somewhere
    assert pre.prove_token_oov.any() or pre.prove_token_neg.any()


def test_seq_corpus_drift_planted(ray_session, tmp_path):
    """Integer-KS arithmetic pinned by hand: a half-mass bin shift is
    exactly 500,000 ppm; identical sources are 0; a source present on one
    side only is maximal (1,000,000, drifted); null source folds into
    '~null~' and null n_tok into bin -1 so sentinel rows compare equal."""
    import glob

    import pyarrow as pa

    da, db = tmp_path / "A", tmp_path / "B"
    da.mkdir(), db.mkdir()

    def frag(d, name, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
                "tokens": pa.array([[1]] * len(rows), type=pa.list_(pa.int32())),
                "n_tok": pa.array([r[1] for r in rows], type=pa.int32()),
                "source": pa.array([r[2] for r in rows], type=pa.string()),
            }
        )
        pq.write_table(t, str(d / name))

    frag(da, "frag-000.parquet", [
        ("a-000000000001", 10, "web"),
        ("a-000000000002", 40, "web"),
        ("a-000000000003", 7, "code"),
        ("a-000000000004", 1, "only-a"),
        ("a-000000000005", None, None),
    ])
    frag(db, "frag-000.parquet", [
        ("b-000000000001", 10, "web"),
        ("b-000000000002", 100, "web"),  # bin 1 → bin 3: half the mass moves
        ("b-000000000003", 7, "code"),
        ("b-000000000005", None, None),
    ])
    fa = sorted(glob.glob(str(da / "frag-*.parquet")))
    fb = sorted(glob.glob(str(db / "frag-*.parquet")))
    out = tk.seq_corpus_drift_files(fa, fb).to_pandas().set_index("source")
    assert list(out.index) == ["code", "only-a", "web", "~null~"]
    assert (out.loc["web", ["rows_a", "rows_b", "ks_ppm"]].tolist() == [2, 2, 500_000]
            and bool(out.loc["web", "drifted"]))
    assert out.loc["code", "ks_ppm"] == 0 and not out.loc["code", "drifted"]
    assert (out.loc["only-a", ["rows_a", "rows_b", "ks_ppm"]].tolist()
            == [1, 0, 1_000_000]) and bool(out.loc["only-a", "drifted"])
    assert out.loc["~null~", "ks_ppm"] == 0 and not out.loc["~null~", "drifted"]


def test_seq_corpus_drift_fixture(ray_session):
    """Fixture v1-vs-v2: row totals reconcile with both corpora; the KS
    values are non-vacuous (the v2 additions/removals shift every big
    source by a few hundred ppm)."""
    import glob
    import os

    import pyarrow.dataset as pds

    from product_quality_check_ray.datagen import (
        ensure_sequences_v2,
        resolve_sequences,
    )

    sf = "sf0.001"
    out = tk.seq_corpus_drift(sf).to_pandas()
    va = pds.dataset(resolve_sequences(sf)).count_rows()
    vb = pds.dataset(
        sorted(glob.glob(os.path.join(ensure_sequences_v2(sf), "frag-*.parquet")))
    ).count_rows()
    assert out.rows_a.sum() == va and out.rows_b.sum() == vb
    assert (out.ks_ppm >= 0).all() and out.ks_ppm.max() > 0


def test_seq_corpus_token_drift_planted(ray_session, tmp_path):
    """The re-tokenization detector: a source whose token IDS all moved to
    a different vocab region while sequence LENGTHS stayed identical is
    invisible to the length drift (0 ppm) and maximal here (1,000,000 ppm).
    Null elements fold into bin -1 and compare equal when planted on both
    sides; empty/null token lists contribute no tokens, so a source with
    only those rows is absent from the report entirely."""
    import glob

    import pyarrow as pa

    da, db = tmp_path / "A", tmp_path / "B"
    da.mkdir(), db.mkdir()

    def frag(d, name, rows):
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
                "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
                "n_tok": pa.array(
                    [len(r[1]) if r[1] is not None else 0 for r in rows],
                    type=pa.int32(),
                ),
                "source": pa.array([r[2] for r in rows], type=pa.string()),
            }
        )
        pq.write_table(t, str(d / name))

    frag(da, "frag-000.parquet", [
        ("a-000000000001", [0, 1], "retok"),
        ("a-000000000002", [2, 3], "retok"),
        ("a-000000000003", [None, 5], "nulls"),
        ("a-000000000004", [], "emptyonly"),
        ("a-000000000005", None, "emptyonly"),
    ])
    frag(db, "frag-000.parquet", [
        ("b-000000000001", [2048, 2049], "retok"),  # same lengths, new vocab region
        ("b-000000000002", [2050, 2051], "retok"),
        ("b-000000000003", [None, 5], "nulls"),
    ])
    fa = sorted(glob.glob(str(da / "frag-*.parquet")))
    fb = sorted(glob.glob(str(db / "frag-*.parquet")))

    tokd = tk.seq_corpus_token_drift_files(fa, fb).to_pandas().set_index("source")
    lend = tk.seq_corpus_drift_files(fa, fb).to_pandas().set_index("source")
    assert list(tokd.index) == ["nulls", "retok"]  # emptyonly carries no tokens
    assert (tokd.loc["retok", ["tokens_a", "tokens_b", "ks_ppm"]].tolist()
            == [4, 4, 1_000_000]) and bool(tokd.loc["retok", "drifted"])
    assert lend.loc["retok", "ks_ppm"] == 0 and not lend.loc["retok", "drifted"]
    assert tokd.loc["nulls", "ks_ppm"] == 0 and not tokd.loc["nulls", "drifted"]


# ---------------------------------------------------------------------------
# seq_minhash_recall (token-level MinHash banding, edit-anywhere complement)
# ---------------------------------------------------------------------------


def test_seqmh_planted_twins_identical_gram_sets():
    """The rotated-twin construction: members of a group have IDENTICAL
    distinct-8-gram sets (the 64 circular windows) but DIFFERENT heads —
    hand-checked arithmetic, no engine involved."""
    import numpy as np

    from product_quality_check_ray.pipelines import tokens as tk

    g = 3
    sfx0 = (2 * g) * tk.SEQMH_MOD + tk.SEQMH_RES          # member 0
    sfx1 = (2 * g + 1) * tk.SEQMH_MOD + tk.SEQMH_RES      # member 1
    arrs = tk._seqmh_tokens(np.array([sfx0, sfx1], dtype=np.int64))
    a, b = arrs[0], arrs[1]
    assert a.shape == (tk.SEQMH_GEN_LEN,) and not np.array_equal(a, b)
    # heads differ → head-anchor blocking misses this pair by construction
    assert not np.array_equal(a[: tk.DECON_K], b[: tk.DECON_K])

    def gram_set(x):
        k = tk.DECON_K
        return {tuple(x[i : i + k]) for i in range(len(x) - k + 1)}

    sa, sb = gram_set(a), gram_set(b)
    assert sa == sb and len(sa) == tk.SEQMH_L  # all 64 circular windows, distinct


def test_seq_minhash_recall_fixture(ray_session):
    from product_quality_check_ray.pipelines import tokens as tk

    t = tk.seq_minhash_recall("/root/testdata/sf0.001").to_pydict()
    assert t["n_truth_pairs"][0] > 0  # plant keeps the query non-vacuous
    assert t["n_truth_found"][0] == t["n_truth_pairs"][0]
    assert t["recall"] == [1.0]


def test_seq_minhash_recall_user_corpus_and_complement(ray_session, tmp_path):
    """On a user corpus (no plant): a hand-built rotated pair (identical
    gram sets, different heads) is truth and FOUND by minhash banding,
    while head-anchor blocking (seq_neardup_pairs) misses it — the
    documented complement. A mid-edit pair (different sets) is NOT truth."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines import tokens as tk

    d = str(tmp_path / "user")
    os.makedirs(d)
    rng = np.random.default_rng(3)
    core = rng.integers(0, 32000, size=64).astype(np.int32)
    while len(set(core.tolist())) < 64:  # distinct tokens → distinct windows
        core = rng.integers(0, 32000, size=64).astype(np.int32)
    m0 = np.concatenate([core, core[:7]])
    rot = np.roll(core, -32)
    m1 = np.concatenate([rot, rot[:7]])
    edit = m0.copy()
    edit[35] = (edit[35] + 1) % 32000  # mid-array edit → different gram set
    fillers = [
        rng.integers(0, 32000, size=int(rng.integers(20, 60))).astype(np.int32)
        for _ in range(40)
    ]
    toks = [m0, m1, edit, *fillers]
    ids = [f"u/rot_a", f"u/rot_b", f"u/edit"] + [f"u/f{i}" for i in range(40)]
    t = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.string()),
            "tokens": pa.array([x.tolist() for x in toks], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], type=pa.int32()),
            "source": pa.array(["web"] * len(ids), type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))

    rec = tk.seq_minhash_recall(d).to_pydict()
    # exactly the rotated pair is truth (the edit twin's set differs), found
    assert rec["n_truth_pairs"] == [1] and rec["n_truth_found"] == [1]
    assert rec["recall"] == [1.0]

    # head-anchor blocking misses the rotated pair (heads differ)
    nd = tk.seq_neardup_pairs(d)
    pairs = set(
        zip(nd.column("doc_id_a").to_pylist(), nd.column("doc_id_b").to_pylist())
    )
    assert ("u/rot_a", "u/rot_b") not in pairs


# ---------------------------------------------------------------------------
# seq_bpe_merges (BPE vocabulary induction)
# ---------------------------------------------------------------------------


def test_apply_bpe_merges_hand_cases():
    """Leftmost-greedy merge application pinned by hand: a==b runs take
    every other match, a!=b occurrences are disjoint, pairs never cross row
    boundaries, and rules cascade in order."""
    import numpy as np

    from product_quality_check_ray.pipelines.tokens import _apply_bpe_merges

    def run(rows, merges):
        lens = [len(r) for r in rows]
        offs = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        vals = np.array([t for r in rows for t in r], dtype=np.int32)
        o, v = _apply_bpe_merges(offs, vals, merges)
        return [v[o[i] : o[i + 1]].tolist() for i in range(len(o) - 1)]

    C = 900
    # a==b runs: aaaa → CC; aaa → Ca; aaaaa → CCa
    assert run([[7, 7, 7, 7]], [(7, 7, C)]) == [[C, C]]
    assert run([[7, 7, 7]], [(7, 7, C)]) == [[C, 7]]
    assert run([[7, 7, 7, 7, 7]], [(7, 7, C)]) == [[C, C, 7]]
    # a!=b: all disjoint occurrences replaced in one pass
    assert run([[1, 2, 1, 2, 3]], [(1, 2, C)]) == [[C, C, 3]]
    # no cross-row merging: row1 ends in 1, row2 starts with 2
    assert run([[3, 1], [2, 4]], [(1, 2, C)]) == [[3, 1], [2, 4]]
    # cascade: (1,2)→C then (C,3)→D
    assert run([[1, 2, 3, 1, 2]], [(1, 2, C), (C, 3, 901)]) == [[901, C]]
    # replacing (a,b) cannot create a new (a,b): a b b → C b (not C→ again)
    assert run([[1, 2, 2]], [(1, 2, C)]) == [[C, 2]]


def test_seq_bpe_merges_user_corpus(ray_session, tmp_path):
    """On a plant-free user corpus the induced merge table is exactly the
    hand-computed BPE trajectory of the repeated phrase."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines import tokens as tk

    d = str(tmp_path / "user")
    os.makedirs(d)
    # 50 copies of phrase [10, 11, 12] embedded in unique noise: merge 0
    # must be (10,11)→32000 cnt 50, merge 1 (32000,12)→32001 cnt 50
    rng = np.random.default_rng(9)
    toks = []
    for i in range(50):
        noise1 = rng.integers(2000, 31000, size=3).tolist()
        noise2 = rng.integers(2000, 31000, size=3).tolist()
        toks.append(noise1 + [10, 11, 12] + noise2)
    t = pa.table(
        {
            "doc_id": pa.array([f"u/{i}" for i in range(50)], type=pa.string()),
            "tokens": pa.array(toks, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], type=pa.int32()),
            "source": pa.array(["web"] * 50, type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    out = tk.seq_bpe_merges(d, n_merges=2).to_pandas()
    assert out.iloc[0][["tok_a", "tok_b", "new_id", "cnt"]].tolist() == [10, 11, 32000, 50]
    assert out.iloc[1][["tok_a", "tok_b", "new_id", "cnt"]].tolist() == [32000, 12, 32001, 50]


def test_seq_detokenize_vocab_dim_absent_slots(ray_session, tmp_path):
    """OOV counts against the vocab DIMENSION: an id inside [0, VOCAB) but
    absent from the vocab (dropped slot) decodes to <unk> — a range check
    would miss it. Also exercises a custom vocab_path."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.sources.dimensions import (
        VOCAB_DIM_DROP_MOD,
        VOCAB_DIM_DROP_RES,
        _vocab_piece,
    )

    dropped = VOCAB_DIM_DROP_RES  # id 7 ≡ RES (mod 1009) → absent
    assert dropped % VOCAB_DIM_DROP_MOD == VOCAB_DIM_DROP_RES
    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array(["x-000000000001"], type=pa.string()),
            "tokens": pa.array([[dropped, 8, 9]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([3], type=pa.int32()),
            "source": pa.array(["web"], type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    out = tk.seq_detokenize(d, with_text=True).to_pandas()
    assert int(out["n_oov"][0]) == 1
    assert out["text"][0] == f"<unk> {_vocab_piece(8)} {_vocab_piece(9)}"

    # custom vocab dim: only id 8 known → two <unk>
    vp = str(tmp_path / "v.parquet")
    pq.write_table(
        pa.table({"token_id": pa.array([8], type=pa.int32()),
                  "piece": pa.array(["EIGHT"], type=pa.string())}),
        vp,
    )
    out2 = tk.seq_detokenize(d, with_text=True, vocab_path=vp).to_pandas()
    assert int(out2["n_oov"][0]) == 2
    assert out2["text"][0] == "<unk> EIGHT <unk>"


def test_seq_neardup_clusters_paths_and_semantics(ray_session, tmp_path):
    """Cluster merge over head-anchor pairs: cluster_id = min STRING doc_id
    per component (hand-built chain A~B, B~C merges to one cluster rooted
    at the smallest id), and the distributed label-propagation path
    (driver_cap=0) matches the union-find path byte-for-byte."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path / "u")
    os.makedirs(d)
    rng = np.random.default_rng(4)
    head = rng.integers(0, 32000, size=8).astype(np.int32)
    # A and B share a 56-token body; B and C share the head + most grams —
    # one clique via the common head anchor
    body = rng.integers(0, 32000, size=56).astype(np.int32)
    a = np.concatenate([head, body])
    b = np.concatenate([head, body[:-2], rng.integers(0, 32000, 2).astype(np.int32)])
    c = np.concatenate([head, body[:-4], rng.integers(0, 32000, 4).astype(np.int32)])
    fillers = [rng.integers(0, 32000, size=30).astype(np.int32) for _ in range(10)]
    toks = [a, b, c, *fillers]
    ids = ["z/a", "m/b", "a/c"] + [f"f/{i}" for i in range(10)]
    t = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.string()),
            "tokens": pa.array([x.tolist() for x in toks], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], type=pa.int32()),
            "source": pa.array(["web"] * len(ids), type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))

    out = tk.seq_neardup_clusters(d).to_pandas().set_index("doc_id")
    assert set(out.index) == {"z/a", "m/b", "a/c"}
    assert (out["cluster_id"] == "a/c").all()  # min string id roots the cluster
    assert out.loc["a/c", "is_keeper"] and not out.loc["z/a", "is_keeper"]

    dist = tk.seq_neardup_clusters(d, driver_cap=0).to_pandas().set_index("doc_id")
    assert dist.equals(out)


def test_seq_neardup_clusters_long_chain_oracle_parity(ray_session, tmp_path):
    """A 12-row drifting chain in ONE head group (adjacent Jaccard ≥ 0.8,
    distant pairs below) has component diameter > 4 — the code-review
    scenario where a bounded 4-hop oracle closure mislabels the far
    endpoints. The oracle now takes the exact recursive transitive closure;
    engine and oracle must agree on arbitrary chain depth."""
    import os
    import re

    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e

    rng = np.random.default_rng(12)
    L, n_rows, spacing = 220, 12, 16
    base = rng.integers(0, 30000, size=L).astype(np.int32)
    rows = []
    for i in range(n_rows):
        cur = base.copy()
        for j in range(i):  # cumulative drift: rows d apart differ in d tokens
            cur[20 + spacing * j] = np.int32(31000 + j)
        rows.append(cur)
    # rows ≤2 apart share ≥0.86 Jaccard; 3 apart fall to ~0.797 (< 0.8)
    ids = [f"u/r{i:02d}" for i in range(n_rows)]
    d = str(tmp_path / "chain")
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.string()),
                "tokens": pa.array([r.tolist() for r in rows], type=pa.list_(pa.int32())),
                "n_tok": pa.array([L] * n_rows, type=pa.int32()),
                "source": pa.array(["web"] * n_rows, type=pa.string()),
            }
        ),
        os.path.join(d, "frag-00000.parquet"),
    )

    got = tk.seq_neardup_clusters(d).to_pandas()
    assert len(got) == n_rows  # the whole chain is one component...
    assert (got["cluster_id"] == "u/r00").all()  # ...rooted at the min id
    # sanity: pairs themselves stop at distance 2 (a genuine chain)
    pairs = tk.seq_neardup_pairs(d)
    dists = [
        abs(int(a[-2:]) - int(b[-2:]))
        for a, b in zip(pairs.column("doc_id_a").to_pylist(),
                        pairs.column("doc_id_b").to_pylist())
    ]
    assert max(dists) == 2 and len(dists) == 11 + 10

    # oracle parity on THIS corpus: rebind the fixture glob to the chain dir
    sql = e.oracle_sql()["seq_neardup_clusters"]
    sql = re.sub(r"read_parquet\('[^']*'\)", f"read_parquet('{d}/frag-*.parquet')", sql)
    con = duckdb.connect()
    want = con.sql(sql).df()
    merged = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    assert list(merged["doc_id"]) == list(want["doc_id"])
    assert list(merged["cluster_id"]) == list(want["cluster_id"])
    assert list(merged["is_keeper"]) == list(want["is_keeper"])


def test_seq_bpe_apply_compression(ray_session, tmp_path):
    """Applying the induced rules to the phrase corpus shrinks every
    phrase occurrence from 3 tokens to 1: hand-computable totals."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path / "user")
    os.makedirs(d)
    rng = np.random.default_rng(9)
    toks = []
    for i in range(50):
        noise1 = rng.integers(2000, 31000, size=3).tolist()
        noise2 = rng.integers(2000, 31000, size=3).tolist()
        toks.append(noise1 + [10, 11, 12] + noise2)
    t = pa.table(
        {
            "doc_id": pa.array([f"u/{i}" for i in range(50)], type=pa.string()),
            "tokens": pa.array(toks, type=pa.list_(pa.int32())),
            "n_tok": pa.array([9] * 50, type=pa.int32()),
            "source": pa.array(["web"] * 50, type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    out = tk.seq_bpe_apply(d, n_merges=2).to_pandas()
    assert len(out) == 1 and out["source"][0] == "web"
    assert out["rows"][0] == 50
    assert out["tok_before"][0] == 450
    # two merges collapse [10,11,12] → one token per row: 450 - 2*50 = 350
    assert out["tok_after"][0] == 350
    assert out["saved_ppm"][0] == (100 * 1_000_000) // 450


# ---------------------------------------------------------------------------
# seq_incremental_dedup (incremental-ingest content gate)
# ---------------------------------------------------------------------------


def test_seq_incremental_dedup_hand_corpus(ray_session, tmp_path):
    """Content decides, not ids: re-ided duplicates are rejected, new
    contents admitted (twice if the new batch repeats them), null list ≡ []
    and null element ≡ -1 under the sentinel view."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.tokens import (
        seq_incremental_dedup_files,
    )

    def corpus(d, rows):
        d.mkdir(parents=True, exist_ok=True)
        t = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
                "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
                "n_tok": pa.array(
                    [len(r[1]) if r[1] is not None else None for r in rows],
                    type=pa.int32(),
                ),
                "source": pa.array(["s"] * len(rows), type=pa.string()),
            }
        )
        f = str(d / "frag-000.parquet")
        pq.write_table(t, f)
        return [f]

    base = corpus(
        tmp_path / "base",
        [
            ("b0", [1, 2, 3]),
            ("b1", [4, None, 6]),  # sentinel: [4, -1, 6]
            ("b2", []),
        ],
    )
    new = corpus(
        tmp_path / "new",
        [
            ("n0", [1, 2, 3]),       # re-ided dup of b0 → rejected
            ("n1", [4, -1, 6]),      # equals b1 under the sentinel view → rejected
            ("n2", None),            # null list ≡ [] ≡ b2 → rejected
            ("n3", [7, 8]),          # new → admitted
            ("n4", [7, 8]),          # within-new repeat → ALSO admitted
            ("n5", [1, 2, 3, 4]),    # superset content is new → admitted
        ],
    )
    out = seq_incremental_dedup_files(base, new).to_pydict()
    assert out["doc_id"] == ["n3", "n4", "n5"]
    assert out["n_tok"] == [2, 2, 4]


def test_seq_incremental_dedup_fixture_vs_diff(ray_session):
    """Fixture invariant: every admitted row's doc_id must be an
    added/changed id in seq_corpus_diff (new content ⇒ new-or-changed id;
    the converse is false — a changed row may duplicate existing content)."""
    import product_quality_check_ray.pipelines.tokens as tk

    adm = tk.seq_incremental_dedup("/root/testdata/sf0.001")
    diff = tk.seq_corpus_diff("/root/testdata/sf0.001").to_pydict()
    changed = {
        d for d, s in zip(diff["doc_id"], diff["status"]) if s in ("added", "changed")
    }
    assert len(adm) > 0
    assert set(adm.column("doc_id").to_pylist()) <= changed


def test_seq_incremental_dedup_shuffle_path_equivalence(ray_session, monkeypatch):
    """cap=0 forces the distributed hash anti-join over the binary(16)
    content keys; must match the broadcast path exactly."""
    import product_quality_check_ray.core.joins as joins
    import product_quality_check_ray.pipelines.tokens as tk

    a = tk.seq_incremental_dedup("/root/testdata/sf0.001").to_pydict()
    monkeypatch.setattr(joins, "BROADCAST_KEY_CAP", 0)
    b = tk.seq_incremental_dedup("/root/testdata/sf0.001").to_pydict()
    assert a == b
