"""Tests for the training-data operator suite (dedup, similarity, text,
multimodal, dupfinder) on small deterministic fixtures."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_SMALL = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def fixture_dir(ray_session, tmp_path_factory):
    """A tiny sf-style dir with documents (injected near/exact dups) and
    clustered embeddings (so ANN recall is verifiable)."""
    d = tmp_path_factory.mktemp("opfix")
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    texts, ids = [], []
    base_docs = []
    for i in range(40):
        words = list(rng.choice(vocab, size=30))
        base_docs.append(words)
        texts.append(" ".join(words))
        ids.append(i)
    # exact dup of doc 3 (different doc_id)
    texts.append(texts[3])
    ids.append(100)
    # near dup of doc 5: change two words
    nd = list(base_docs[5])
    nd[0], nd[1] = "zzz", "yyy"
    texts.append(" ".join(nd))
    ids.append(101)
    # whitespace-variant dup of doc 7 (same fingerprint after normalize)
    texts.append("  " + texts[7].upper() + "  ")
    ids.append(102)
    docs = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(["src0"] * len(ids)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(d / "documents.parquet"))

    # clustered embeddings: 4 clusters of 50 vectors each, dim 16
    centers = rng.standard_normal((4, 16)) * 5
    vecs, labels = [], []
    for c in range(4):
        pts = centers[c] + rng.standard_normal((50, 16)) * 0.1
        vecs.extend(pts.astype(np.float32))
        labels.extend([c] * 50)
    emb = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
            "label": pa.array(labels, type=pa.int32()),
        }
    )
    pq.write_table(emb, str(d / "embeddings.parquet"))
    return str(d)


def test_exact_dup_groups(fixture_dir):
    from product_quality_check_ray.pipelines.text import doc_exact_dup_groups

    t = doc_exact_dup_groups(fixture_dir).to_pandas()
    # doc 3 == doc 100 (verbatim); doc 7 == doc 102 (case/ws-normalized)
    keepers = set(t["keeper_doc_id"])
    assert keepers == {3, 7}
    assert (t["n_docs"] == 2).all()


def test_dedup_exact_keeps_min_doc_id(fixture_dir, ray_session):
    import ray.data as rd

    from product_quality_check_ray.pipelines.text import dedup_exact

    ds = rd.read_parquet(f"{fixture_dir}/documents.parquet")
    kept = dedup_exact(ds).to_pandas()
    assert 3 in set(kept["doc_id"]) and 100 not in set(kept["doc_id"])
    assert 7 in set(kept["doc_id"]) and 102 not in set(kept["doc_id"])
    assert len(kept) == 43 - 2


def test_minhash_finds_near_dup(fixture_dir):
    from product_quality_check_ray.pipelines.text import doc_minhash_dups

    t = doc_minhash_dups(fixture_dir, threshold=0.6).to_pandas()
    pairs = set(zip(t["doc_id_a"], t["doc_id_b"]))
    assert (3, 100) in pairs  # exact dup → jaccard 1.0
    assert (5, 101) in pairs  # near dup
    assert (t["jaccard"] >= 0.6).all()


def test_simhash_finds_exact_dup(fixture_dir):
    from product_quality_check_ray.pipelines.text import doc_simhash_dups

    t = doc_simhash_dups(fixture_dir, max_hamming=3).to_pandas()
    pairs = set(zip(t["doc_id_a"], t["doc_id_b"]))
    assert (3, 100) in pairs
    assert (t["hamming"] <= 3).all()


def test_sorted_bags_matches_python():
    from product_quality_check_ray.pipelines.text import _sorted_bags

    texts = ["b a  c b", "  Hello WORLD  ", "one", "", "   "]
    got = _sorted_bags(pa.array(texts)).to_pylist()
    for t, g in zip(texts, got):
        words = t.lower().split()
        # _split_words maps empty/whitespace-only to the single token ""
        assert g == " ".join(sorted(words)) if words else g == ""


def test_simhash_recall_contract(fixture_dir):
    """The pigeonhole index must find EVERY bag-duplicate pair: the fixture
    plants an exact dup (3,100), a case/whitespace variant (7,102), and the
    permuted twins of ids 0 and 100 — group {3,100,twin100} contributes 3
    pairs, {0,twin0} and {7,102} one each → 5 truth pairs, recall 1.0."""
    from product_quality_check_ray.pipelines.text import doc_simhash_recall

    row = doc_simhash_recall(fixture_dir).to_pydict()
    assert row["n_truth_pairs"] == [5]
    assert row["n_truth_found"] == [5]
    assert row["recall"] == [1.0]


def test_knn_bruteforce_matches_numpy(fixture_dir):
    from product_quality_check_ray.pipelines.similarity import knn_bruteforce

    t = knn_bruteforce(fixture_dir, k=5, num_queries=4).to_pandas()
    emb = pq.read_table(f"{fixture_dir}/embeddings.parquet")
    m = np.array(emb.column("embedding").to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    for q in range(4):
        cos = (m @ m[q]) / (norms * norms[q])
        cos[q] = -np.inf
        expect = set(np.argsort(-cos)[:5])
        got = set(t[t["query_id"] == q]["neighbor_id"])
        assert got == expect


def test_knn_lsh_high_recall_on_clusters(fixture_dir):
    from product_quality_check_ray.pipelines.similarity import knn_bruteforce, knn_lsh

    bf = knn_bruteforce(fixture_dir, k=10, num_queries=4).to_pandas()
    ls = knn_lsh(fixture_dir, k=10, num_queries=4).to_pandas()
    recalls = []
    for q in bf["query_id"].unique():
        b = set(bf[bf["query_id"] == q]["neighbor_id"])
        l = set(ls[ls["query_id"] == q]["neighbor_id"])
        recalls.append(len(b & l) / len(b))
    # tight clusters → same-bucket neighbors; recall should be near-perfect
    assert np.mean(recalls) >= 0.9


def test_dupfinder_matches_dataset_groupby(ray_session, tmp_path):
    import ray.data as rd

    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import input_fragments
    from product_quality_check_ray.state import dupfinder

    seq = write_sequences(str(tmp_path / "seq"), 4000, seed=11, num_fragments=4)
    files = input_fragments(seq)
    via_tree = dupfinder.find_duplicates(files)
    counts = rd.read_parquet(files, columns=["doc_id"]).groupby("doc_id").count()
    via_ds = {
        r["doc_id"]: r["count()"]
        for r in counts.take_all()
        if r["doc_id"] is not None and r["count()"] > 1
    }
    assert via_tree == via_ds
    assert len(via_tree) > 0


def test_dupfinder_two_level_reduce_byte_equal(ray_session, tmp_path, monkeypatch):
    """Two-level reduce (fragment-wave partials → range partials via
    ``dupfinder._combine_range``): byte-equal to the one-level exchange for
    both the file-fed count reduce and the block-fed hash-value reduce,
    including the max_count hot-key drop. Waves of 1 combine EVERY map
    output (the degenerate worst case); 16 map outputs ≫ wave sizes
    exercises multi-wave merging."""
    import ray
    import ray.data as rd

    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import input_fragments
    from product_quality_check_ray.state import dupfinder

    seq = write_sequences(str(tmp_path / "seq"), 4000, seed=11, num_fragments=16)
    files = input_fragments(seq)
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 1)
    block_groups = exchange.block_groups(
        rd.read_parquet(files, columns=["n_tok"]).materialize()
    )
    assert len(block_groups) > 3
    ranges = 8
    cases = [
        (dupfinder._map_fragment, [[f] for f in files], (), None),
        (dupfinder._map_hash_blocks, block_groups, ("n_tok",), None),
        (dupfinder._map_hash_blocks, block_groups, ("n_tok",), 3),
    ]
    for map_task, inputs, map_args, max_count in cases:
        mapped = exchange.map_ranges(map_task, inputs, ranges, *map_args)
        one = np.concatenate(
            ray.get(
                exchange.reduce_ranges(mapped, dupfinder._reduce_range, ranges, max_count)
            )
        )
        assert one.size > 0
        for wave in (1, 3):
            combined = [
                [
                    dupfinder._combine_range.remote(*[m[r] for m in mapped[i : i + wave]])
                    for r in range(ranges)
                ]
                for i in range(0, len(mapped), wave)
            ]
            two = np.concatenate(
                ray.get(
                    exchange.reduce_ranges(
                        combined, dupfinder._reduce_range, ranges, max_count
                    )
                )
            )
            assert one.dtype == two.dtype and np.array_equal(one, two)


def test_multimodal_stub_contract(fixture_dir):
    from product_quality_check_ray.pipelines.multimodal import (
        FEATURE_SCHEMA,
        decode_payload,
        multimodal_features,
    )

    with pytest.raises(NotImplementedError):
        decode_payload(b"xyz", "image")
    out = multimodal_features(fixture_dir)
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    assert t.schema.equals(FEATURE_SCHEMA)
    assert t.num_rows == 43
    # deterministic fake: same payload → same features
    again = multimodal_features(fixture_dir)
    t2 = pa.concat_tables(list(again.iter_batches(batch_format="pyarrow", batch_size=None)))
    assert t.sort_by("media_id").equals(t2.sort_by("media_id"))


def test_best_dict_match_exact_beats_fuzzy(fixture_dir, tmp_path):
    from product_quality_check_ray.pipelines.textnorm import doc_best_dict_match

    d = tmp_path / "dictfix"
    d.mkdir()
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["sort sord window", "scam only here"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([16, 14], type=pa.int64()),
        }
    )
    pq.write_table(docs, str(d / "documents.parquet"))
    t = doc_best_dict_match(str(d)).to_pandas()
    row = t[(t["doc_id"] == 1) & (t["canonical"] == "sorting")].iloc[0]
    assert row["match_kind"] == "exact" and row["word"] == "sort"
    row2 = t[(t["doc_id"] == 2) & (t["canonical"] == "scanning")].iloc[0]
    assert row2["word"] == "scam" and row2["match_kind"] == "exact"


def test_quality_and_langid_run(ray_session):
    from product_quality_check_ray.pipelines.text import doc_lang_id, doc_quality_scores

    q = doc_quality_scores(SF_SMALL).to_pandas()
    assert (q["n_words"] > 0).all()
    lid = doc_lang_id(SF_SMALL).to_pandas()
    assert set(lid["lang_pred"].unique()) <= {"en", "es", "fr", "de", "und"}


def test_knn_ivf_high_recall_on_clusters(fixture_dir):
    from product_quality_check_ray.pipelines.similarity import (
        knn_bruteforce,
        knn_ivf,
        knn_ivf_kmeans,
    )

    bf = knn_bruteforce(fixture_dir, k=10, num_queries=4).to_pandas()
    for variant in (knn_ivf, knn_ivf_kmeans):
        iv = variant(fixture_dir, k=10, num_queries=4, nprobe=2, n_lists=8).to_pandas()
        recalls = []
        for q in bf["query_id"].unique():
            b = set(bf[bf["query_id"] == q]["neighbor_id"])
            l = set(iv[iv["query_id"] == q]["neighbor_id"])
            recalls.append(len(b & l) / len(b))
        assert np.mean(recalls) >= 0.9, variant.__name__


def test_embedding_near_dups_finds_twins(fixture_dir, tmp_path):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.similarity import embedding_near_dups

    # clone the fixture embeddings and add a near-identical twin of vec 0
    t = _pq.read_table(f"{fixture_dir}/embeddings.parquet")
    v0 = np.array(t.column("embedding")[0].as_py(), dtype=np.float32)
    twin = (v0 + 1e-4).tolist()
    import pyarrow as _pa

    extra = _pa.table(
        {
            "vec_id": _pa.array([9999], type=_pa.int64()),
            "embedding": _pa.array([twin], type=_pa.list_(_pa.float32())),
            "label": _pa.array([0], type=_pa.int32()),
        }
    )
    d = tmp_path / "twinfix"
    d.mkdir()
    _pq.write_table(_pa.concat_tables([t, extra]), str(d / "embeddings.parquet"))
    pairs = embedding_near_dups(str(d), threshold=0.999).to_pandas()
    assert ((pairs["vec_id_a"] == 0) & (pairs["vec_id_b"] == 9999)).any()

    # the LSH scale path must also find near-identical twins (they collide
    # in every hyperplane bucket)
    from product_quality_check_ray.pipelines.similarity import embedding_near_dups_lsh

    lsh_pairs = embedding_near_dups_lsh(str(d), threshold=0.999).to_pandas()
    assert ((lsh_pairs["vec_id_a"] == 0) & (lsh_pairs["vec_id_b"] == 9999)).any()


def test_embedding_near_dups_exact_matches_numpy(fixture_dir):
    """Differential: the block-pair operator equals an all-pairs numpy scan."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.core.rounding import round_half_away as rha
    from product_quality_check_ray.pipelines.similarity import embedding_near_dups

    # small chunk_rows forces multiple chunks → exercises cross-chunk tasks
    nd = embedding_near_dups(fixture_dir, threshold=0.3, chunk_rows=64).to_pandas()
    t = _pq.read_table(f"{fixture_dir}/embeddings.parquet")
    arr = t.column("embedding").combine_chunks()
    d = len(arr[0])
    m = arr.values.to_numpy().reshape(-1, d).astype(np.float64)
    ids = t.column("vec_id").to_numpy()
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1
    cos = rha((m / n[:, None]) @ (m / n[:, None]).T, 6)
    iu = np.triu_indices(len(ids), 1)
    mask = cos[iu] >= 0.3
    lo = np.minimum(ids[iu[0][mask]], ids[iu[1][mask]])
    hi = np.maximum(ids[iu[0][mask]], ids[iu[1][mask]])
    truth = set(zip(lo, hi))
    mine = set(zip(nd["vec_id_a"], nd["vec_id_b"]))
    assert mine == truth


def test_custom_check_pipeline(ray_session, tmp_path):
    import ray.data as rd

    from product_quality_check_ray.checks.base import RowCheck, register
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.custom import check_summary, run_checks

    seq = write_sequences(str(tmp_path / "seq"), 2000, seed=3, num_fragments=2)
    ds = rd.read_parquet(seq + "/frag-00000.parquet")

    def even_ntok(batch, ctx):
        import numpy as np
        import pyarrow.compute as pc

        nt = pc.fill_null(batch.column("n_tok"), 0).to_numpy(zero_copy_only=False)
        return (np.asarray(nt) % 2) == 0

    register(RowCheck(name="even_ntok", required_columns=("n_tok",), fn=even_ntok))
    annotated = run_checks(ds, ["even_ntok", "null_doc_id"])
    summary = check_summary(annotated).to_pandas().set_index("check")["n"].to_dict()
    import pyarrow.parquet as _pq

    frag = _pq.read_table(seq + "/frag-00000.parquet")
    nt = frag.column("n_tok").to_pandas().fillna(0)
    assert summary["even_ntok"] == int(((nt % 2) == 0).sum())


def test_enabled_checks_subset(ray_session, tmp_path):
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import run_validation

    seq = write_sequences(str(tmp_path / "seq2"), 2000, seed=4, num_fragments=2)
    rep = run_validation(
        seq,
        str(tmp_path / "out"),
        uniqueness=False,
        enabled_checks=["null_doc_id"],
    )
    counts = rep.check_counts()
    assert counts["null_doc_id"] > 0
    assert all(v == 0 for k, v in counts.items() if k not in ("null_doc_id", "dup_doc_id"))


def test_cli_validate(ray_session, tmp_path):
    import json as _json
    import subprocess
    import sys as _sys

    from product_quality_check_ray.datagen import write_sequences

    seq = write_sequences(str(tmp_path / "seq3"), 2000, seed=6, num_fragments=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_json.dumps({"enabled_checks": ["null_doc_id", "ntok_mismatch"]}))
    out = subprocess.run(
        [
            _sys.executable,
            "-m",
            "product_quality_check_ray",
            "validate",
            "--input",
            seq,
            "--out",
            str(tmp_path / "cliout"),
            "--config",
            str(cfg),
            "--num-cpus",
            "4",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=180,
    )
    # rc 2 = ran fine, validation findings exist (the fixture corpus has
    # injected corruptions); crashes would be rc 1
    assert out.returncode == 2, out.stderr[-2000:]
    summary = _json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["rows"] == 2000
    assert summary["check_counts"]["null_doc_id"] > 0
    assert summary["check_counts"]["token_oov"] == 0


def test_near_dup_clusters_and_clean(fixture_dir, tmp_path):
    from product_quality_check_ray.pipelines.text import (
        clean_documents,
        doc_near_dup_clusters,
    )

    cl = doc_near_dup_clusters(fixture_dir, threshold=0.6).to_pandas()
    by_doc = cl.set_index("doc_id")
    assert by_doc.loc[100, "cluster_id"] == 3 and not by_doc.loc[100, "is_keeper"]
    assert by_doc.loc[3, "is_keeper"]

    out = tmp_path / "cleaned"
    cleaned = clean_documents(fixture_dir, str(out), near_dup_threshold=0.6)
    kept = cleaned.to_pandas()
    # exact dup losers (100, 102) and near-dup loser (101) dropped; keepers stay
    assert {3, 5, 7} <= set(kept["doc_id"])
    assert not {100, 101, 102} & set(kept["doc_id"])
    import glob as _glob

    # partitioned-by-source layout + success marker (resumable contract)
    assert _glob.glob(str(out / "source=*/*.parquet"))
    assert (out / "_CLEAN_SUCCESS.json").exists()
    # second call resumes from the marker: reads the written corpus back
    again = clean_documents(fixture_dir, str(out), near_dup_threshold=0.6).to_pandas()
    assert set(again["doc_id"]) == set(kept["doc_id"])


def test_clean_documents_full_composition(ray_session, tmp_path):
    """The composed flagship pipeline equals the intersection of its
    independently-computed component verdicts (dedup ∪ holdout ∪
    contamination ∪ Gopher), and the resumable-output contract holds."""
    from product_quality_check_ray.pipelines.text import (
        DECON_BENCH_MOD,
        _docs,
        clean_documents_full,
        doc_decontaminate,
        doc_gopher_filter,
        exact_loser_ids,
    )

    sf = "/root/testdata/sf0.001"
    out = tmp_path / "clean_full"
    full = clean_documents_full(sf, str(out)).to_pandas()
    g = doc_gopher_filter(sf).to_pandas().set_index("doc_id")
    c = doc_decontaminate(sf).to_pandas().set_index("doc_id")
    losers = exact_loser_ids(_docs(sf, columns=["doc_id", "text"]))
    expect = {
        int(d)
        for d in g.index
        if g.loc[d, "keep"]
        and not c.loc[d, "contaminated"]
        and d % DECON_BENCH_MOD != 0
        and d not in losers
    }
    assert set(full["doc_id"]) == expect
    # non-vacuous: something survives AND something is dropped
    assert 0 < len(expect) < len(g)
    import glob as _glob

    assert _glob.glob(str(out / "source=*/*.parquet"))
    assert (out / "_CLEAN_FULL_SUCCESS.json").exists()
    again = clean_documents_full(sf, str(out)).to_pandas()
    assert set(again["doc_id"]) == expect


def test_route_and_adjudicate(ray_session, tmp_path):
    import ray.data as rd

    from product_quality_check_ray.datagen import load_injections, write_sequences
    from product_quality_check_ray.pipelines.escalate import route_and_adjudicate

    seq = write_sequences(str(tmp_path / "seqadj"), 3000, seed=9, num_fragments=3)
    inj = load_injections(seq)
    n_flagged_expected = sum(
        len(v) for k, v in inj.items() if k != "dup_doc_id"
    )
    import glob as _glob

    files = sorted(_glob.glob(seq + "/frag-*.parquet"))
    verdicts = route_and_adjudicate(rd.read_parquet(files)).to_pandas()
    # every adjudicated row is a flagged row; severity assignment holds
    assert len(verdicts) == n_flagged_expected
    assert set(verdicts["severity"].unique()) <= {"severe", "minor"}
    severe = verdicts[verdicts["severity"] == "severe"]
    assert len(severe) > 0
    assert (verdicts["token_entropy"] >= 0).all()


def test_dict_match_normalizes_before_matching(ray_session, tmp_path):
    """Mixed case / markup / mojibake text must match the lowercase
    dictionary (regression: the spine matched raw words)."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.textnorm import doc_best_dict_match

    d = tmp_path / "normfix"
    d.mkdir()
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["SORT <b>Window</b> now", "hashâ€” join"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([22, 12], type=pa.int64()),
        }
    )
    _pq.write_table(docs, str(d / "documents.parquet"))
    t = doc_best_dict_match(str(d)).to_pandas()
    got = set(zip(t["doc_id"], t["canonical"]))
    assert (1, "sorting") in got  # 'SORT' matched via lowercase
    assert (1, "windowing") in got  # '<b>Window</b>' matched via strip+lower
    assert (2, "hash-join") in got  # mojibake dash handled


def test_escalate_handles_null_token_elements(ray_session, tmp_path):
    """Rows with null ELEMENTS in tokens flow through adjudication
    (regression: TypeError in _row_stats)."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from product_quality_check_ray.pipelines.escalate import route_and_adjudicate

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b"], type=pa.string()),
            "tokens": pa.array([[1, None, 3], [1, 2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([3, 2], type=pa.int32()),
            "source": pa.array(["web", "web"], type=pa.string()),
        }
    )
    d = tmp_path / "nulltok"
    d.mkdir()
    _pq.write_table(t, str(d / "frag.parquet"))
    verdicts = route_and_adjudicate(rd.read_parquet(str(d / "frag.parquet"))).to_pandas()
    assert set(verdicts["doc_id"]) == {"a"}  # only the flagged row
    assert verdicts.iloc[0]["severity"] == "severe"


def test_custom_check_name_shadowing(ray_session, tmp_path):
    """A user check re-registered under a builtin name must run the USER fn
    (regression: name-keyed fast path served the builtin kernel)."""
    import numpy as _np
    import ray.data as rd

    from product_quality_check_ray.checks.base import ROW_CHECK_REGISTRY, RowCheck, register
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.custom import check_summary, run_checks

    seq = write_sequences(str(tmp_path / "seq"), 1000, seed=17, num_fragments=1)
    ds = rd.read_parquet(seq + "/frag-00000.parquet")
    original = ROW_CHECK_REGISTRY["token_oov"]
    try:
        register(
            RowCheck(
                name="token_oov",
                required_columns=("n_tok",),
                fn=lambda b, c: _np.ones(b.num_rows, dtype=bool),  # flag ALL
            )
        )
        annotated = run_checks(ds, ["token_oov"])
        summary = check_summary(annotated).to_pandas().set_index("check")["n"].to_dict()
        assert summary["token_oov"] == 1000  # user fn ran, not the builtin
    finally:
        register(original)


def test_semi_join_broadcast_and_shuffle_paths_agree(ray_session):
    """core.joins.semi_join: forcing the hash-join fallback (cap=1) must give
    the same rows as the broadcast is_in path, for both semi and anti."""
    import ray.data as rd

    from product_quality_check_ray.core.joins import semi_join

    orders = rd.read_parquet(f"{SF_SMALL}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(f"{SF_SMALL}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    keys = cust.filter(expr="c_mktsegment == 'BUILDING'")

    for anti in (False, True):
        a = (
            semi_join(orders, "o_custkey", keys, "c_custkey", anti=anti)
            .to_pandas()
            .sort_values(["o_orderkey"])
            .reset_index(drop=True)
        )
        b = (
            semi_join(orders, "o_custkey", keys, "c_custkey", anti=anti, cap=1)
            .to_pandas()
            .sort_values(["o_orderkey"])
            .reset_index(drop=True)
        )
        assert list(a.columns) == ["o_orderkey", "o_custkey"]
        assert a.equals(b[list(a.columns)]), f"anti={anti} paths disagree"
        assert len(a) > 0 or anti  # semi side must be non-trivial on the fixture


def test_lookup_join_broadcast_and_shuffle_paths_agree(ray_session):
    """core.joins.lookup_join: forcing the hash-join fallback (cap=1) must
    enrich identically to the broadcast per-batch Arrow join."""
    import ray.data as rd

    from product_quality_check_ray.core.joins import lookup_join

    orders = rd.read_parquet(
        f"{SF_SMALL}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def run(cap):
        cust = rd.read_parquet(
            f"{SF_SMALL}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
        return (
            lookup_join(orders, "o_custkey", cust, "c_custkey", ["c_mktsegment"], cap=cap)
            .to_pandas()
            .sort_values(["o_orderkey"])
            .reset_index(drop=True)
        )

    a, b = run(None), run(1)
    assert list(a.columns) == ["o_orderkey", "o_custkey", "c_mktsegment"]
    assert len(a) > 0 and a.equals(b[list(a.columns)])


def test_lookup_join_tiny_dim_cap0(ray_session):
    """ADVICE-r4 class regression for the enrichment path: cap=0 forces
    the range exchange with ranges ≫ keys (empty ranges on both sides) —
    must match the broadcast result exactly, null ds keys unenriched."""
    import pyarrow as pa
    import ray.data as rd

    from product_quality_check_ray.core.joins import lookup_join

    facts = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 2, None, 9], type=pa.int64()),
                  "v": pa.array(list("abcde"))})
    )
    dim = rd.from_arrow(
        pa.table({"dk": pa.array([1, 2, 3], type=pa.int64()),
                  "name": pa.array(["one", "two", "three"])})
    )

    def run(cap):
        return (
            lookup_join(facts, "k", dim, "dk", ["name"], cap=cap)
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )

    a, b = run(None), run(0)
    assert a.equals(b)
    assert sorted(a["name"]) == ["one", "two", "two"]  # inner: null + 9 drop


@pytest.mark.parametrize("cap", [0, None])
def test_join_key_type_families_must_agree(ray_session, cap):
    """Integer keys against string keys raise on every path (the exchange
    paths hash each family differently, so they used to return a silently
    empty match set); int32 against int64 still joins."""
    import pyarrow as pa
    import ray.data as rd

    from product_quality_check_ray.core.joins import lookup_join, semi_join

    facts = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, None], type=pa.int64()), "v": list("abcd")})
    )
    str_keys = rd.from_arrow(pa.table({"k": pa.array(["1", "2"])}))
    str_dim = rd.from_arrow(pa.table({"dk": pa.array(["1", "2"]), "name": ["one", "two"]}))
    for anti in (False, True):
        with pytest.raises(TypeError, match="int64.*string"):
            semi_join(facts, "k", str_keys, "k", anti=anti, cap=cap)
    with pytest.raises(TypeError, match="int64.*string"):
        lookup_join(facts, "k", str_dim, "dk", ["name"], cap=cap)
    # a ds whose schema is unknown until it runs: the broadcast path checks
    # per batch (Ray Data wraps the TypeError), the exchange path at entry
    lazy = facts.map_batches(lambda t: t, batch_format="pyarrow")
    with pytest.raises(Exception, match="join key types disagree.*int64.*string"):
        semi_join(lazy, "k", str_keys, "k", cap=cap).materialize()

    keys32 = rd.from_arrow(pa.table({"k": pa.array([1, 2], type=pa.int32())}))
    dim32 = rd.from_arrow(
        pa.table({"dk": pa.array([1, 2], type=pa.int32()), "name": ["one", "two"]})
    )

    def rows(ds):
        return sorted(ds.to_pandas().itertuples(index=False), key=repr)

    assert [r.v for r in rows(semi_join(facts, "k", keys32, "k", cap=cap))] == ["a", "b"]
    assert [r.v for r in rows(semi_join(facts, "k", keys32, "k", anti=True, cap=cap))] == [
        "c",
        "d",
    ]
    got = rows(lookup_join(facts, "k", dim32, "dk", ["name"], cap=cap))
    assert [(r.v, r.name) for r in got] == [("a", "one"), ("b", "two")]


def test_grouped_topk_orders_join_fallback_matches(ray_session, monkeypatch):
    from product_quality_check_ray.core import joins
    from product_quality_check_ray.pipelines import relational

    a = relational.grouped_topk_orders(SF_SMALL).to_pandas()
    monkeypatch.setattr(joins, "BROADCAST_KEY_CAP", 1)
    b = relational.grouped_topk_orders(SF_SMALL).to_pandas()
    assert len(a) > 0 and a.equals(b)


def test_region_revenue_join_fallback_matches_broadcast(ray_session, monkeypatch):
    from product_quality_check_ray.pipelines import relational

    a = relational.region_revenue(SF_SMALL).to_pandas()
    monkeypatch.setattr(relational, "BROADCAST_KEY_CAP", 1)
    b = relational.region_revenue(SF_SMALL).to_pandas()
    assert a.equals(b)


def test_image_header_parsers():
    import struct

    from product_quality_check_ray.pipelines.multimodal import (
        parse_image_header,
        png_header_bytes,
    )

    assert parse_image_header(png_header_bytes(640, 480)) == {
        "width": 640, "height": 480, "n_frames": 1,
    }
    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\x00" * 10
    assert parse_image_header(gif) == {"width": 320, "height": 200, "n_frames": 1}
    bmp = b"BM" + b"\x00" * 16 + struct.pack("<ii", 123, -77) + b"\x00" * 4
    assert parse_image_header(bmp) == {"width": 123, "height": 77, "n_frames": 1}
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
    sof = b"\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 240, 360) + b"\x01"
    m = parse_image_header(b"\xff\xd8" + app0 + sof)
    assert (m["width"], m["height"]) == (360, 240)
    assert parse_image_header(b"notanimage") is None
    assert parse_image_header(b"") is None


def test_multimodal_reports_true_png_dims(fixture_dir):
    from product_quality_check_ray.pipelines.multimodal import (
        MediaFeatureStage,
        media_dataset_from_documents,
    )

    feats = (
        media_dataset_from_documents(fixture_dir)
        .map_batches(
            MediaFeatureStage(allow_fake=True, target_width=0), batch_format="pyarrow"
        )
        .to_pandas()
    )
    img = feats[feats["media_type"] == "image"]
    assert len(img) > 0
    for _, r in img.iterrows():
        assert r["width"] == 100 + int(r["media_id"]) % 900
        assert r["height"] == 100 + (int(r["media_id"]) * 7) % 900


def test_npm_four_pass_rules(ray_session):
    """Protein-cap rule, drink/food thresholds, and imputation audit of the
    4-pass HFSS-style pipeline on crafted rows."""
    import ray.data as rd

    from product_quality_check_ray.pipelines.npm import seq_npm_scores

    rows = pa.table(
        {
            "doc_id": pa.array(["hi-a", "drink-b", "short-c", "nulltok-d"]),
            # nutrients derive from elements 0..5 (abs % mod):
            # hi-a: high A-points with high protein → protein must be capped
            "tokens": pa.array(
                [
                    [19, 49, 999, 10, 0, 14],   # satfat 19, sugars 49, sodium 999, fruit 10, fibre 0, protein 14
                    [0, 30, 0, 0, 0, 0],        # drink via source=web, sugars 30
                    [1, 2],                     # short list → imputed
                    [1, 2, None, 4, 5, 6],      # null element → imputed
                ],
                type=pa.list_(pa.int32()),
            ),
            "n_tok": pa.array([340, 10, 2, 6], type=pa.int32()),
            "source": pa.array(["books", "web", "books", "code"]),
        }
    )
    out = (
        seq_npm_scores(rd.from_arrow(rows))
        .to_pandas()
        .set_index("doc_id")
    )
    hi = out.loc["hi-a"]
    # energy 3400 → 10 pts; satfat 19→10; sugars 49→10; sodium 999→10 ⇒ A=40
    assert hi["a_points"] == 40
    # fruit 10% → 0 pts < 5 and A ≥ 11 ⇒ protein (14g → 5 pts) NOT counted
    assert hi["c_points"] == 0 and hi["npm_score"] == 40 and hi["hfss_class"] == "fail"
    drink = out.loc["drink-b"]
    assert drink["is_drink"] and drink["hfss_class"] == "fail"  # score ≥ 1 fails a drink
    assert out.loc["short-c", "audit_flag"] == "imputed"
    assert out.loc["nulltok-d", "audit_flag"] == "imputed"
    assert out.loc["hi-a", "audit_flag"] == "ok"


GROUP_APPLY_QUERIES = [
    "grouped_topk_orders",
    "customer_running_totals",
    "user_sessions",
    "events_asof_last_click",
    "events_range_counts",
    "doc_best_dict_match",
    "embedding_near_dups_lsh",
    "doc_pack_examples",
]


@pytest.mark.parametrize("name", GROUP_APPLY_QUERIES)
def test_group_apply_queries_match_oracle(ray_session, name):
    """Every query on ``exchange.group_apply`` equals its DuckDB oracle:
    exact values and dtype classes, as the query gate grades them."""
    import __ray_entry__ as e
    from tools.check_queries import compare, connect, to_pandas

    mine = to_pandas(e.queries()[name](SF_SMALL))
    con = connect(SF_SMALL)
    try:
        oracle = con.sql(e.oracle_sql()[name]).df()
    finally:
        con.close()
    assert len(mine) > 0
    assert compare(name, mine, oracle) == []


def test_exact_dedup_null_text_docs(ray_session, tmp_path):
    """Null-text docs share the None fingerprint and must dedupe as ONE
    group (second-review regression: pandas groupby dropna dropped them)."""
    import pyarrow.parquet as _pq

    import ray.data as rd

    from product_quality_check_ray.pipelines.text import dedup_exact, exact_loser_ids

    d = tmp_path / "nulltext"
    d.mkdir()
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(["hello world", None, None, "other text"]),
        }
    )
    _pq.write_table(t, str(d / "documents.parquet"))
    ds = rd.read_parquet(str(d / "documents.parquet"))
    losers = exact_loser_ids(ds)
    assert losers == {3}  # null-text group keeps min id 2, drops 3
    kept = dedup_exact(ds).to_pandas()
    assert set(kept["doc_id"]) == {1, 2, 4}


def test_hopping_windows_cover_each_event_twice(ray_session):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.relational import events_hopping_windows

    out = events_hopping_windows(SF_SMALL).to_pandas()
    n_events = _pq.read_metadata(f"{SF_SMALL}/events.parquet").num_rows
    # window = 2 × hop ⇒ every event is in exactly two windows
    assert out["n_events"].sum() == 2 * n_events
    assert (out["n_events"] > 0).all()


def test_knn_lsh_multi_table_improves_recall(ray_session):
    """Union over independent hash tables must raise recall on the hardest
    (random-vector) corpus; deterministic (seeded planes)."""
    from product_quality_check_ray.pipelines.similarity import knn_bruteforce, knn_lsh

    bf = knn_bruteforce(SF_SMALL, k=10, num_queries=8).to_pandas()

    def recall(n_tables):
        ls = knn_lsh(SF_SMALL, k=10, num_queries=8, n_tables=n_tables).to_pandas()
        rs = []
        for q in bf["query_id"].unique():
            b = set(bf[bf["query_id"] == q]["neighbor_id"])
            l = set(ls[ls["query_id"] == q]["neighbor_id"])
            rs.append(len(b & l) / len(b))
        return np.mean(rs)

    r1, r4 = recall(1), recall(4)
    assert r4 > r1
    assert r4 >= 0.4  # measured 0.438 with seeded planes


def test_embedding_near_dups_lsh_recall_multi_table(ray_session, tmp_path):
    """Multi-table bucketing must recall ~all ≥0.95-cosine twin pairs that
    the exact operator finds (measured: 87/100 at T=1, 100/100 at T=4)."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.similarity import (
        embedding_near_dups,
        embedding_near_dups_lsh,
    )

    rng = np.random.default_rng(5)
    base = rng.standard_normal((400, 32)).astype(np.float32)
    twins = base[:100] + rng.standard_normal((100, 32)).astype(np.float32) * 0.03
    m = np.vstack([base, twins])
    d = tmp_path / "twins2"
    d.mkdir()
    _pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(len(m), dtype=np.int64)),
                "embedding": pa.array([r.tolist() for r in m], type=pa.list_(pa.float32())),
                "label": pa.array(np.zeros(len(m), dtype=np.int32)),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    truth = set(
        zip(*(embedding_near_dups(str(d), threshold=0.95).to_pandas()[c] for c in ("vec_id_a", "vec_id_b")))
    )
    got = embedding_near_dups_lsh(str(d), threshold=0.95, n_tables=4).to_pandas()
    mine = set(zip(got["vec_id_a"], got["vec_id_b"]))
    assert len(truth) >= 100
    assert len(mine & truth) / len(truth) >= 0.99


def test_kmeans_fit_recovers_clusters(fixture_dir):
    """Distributed Lloyd's k-means on the 4-cluster fixture: converges to
    one centroid per true cluster (each true center's nearest centroid is
    distinct and close)."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.similarity import kmeans_fit

    cents, stats = kmeans_fit(fixture_dir, k=4, iters=15)
    assert cents.shape == (4, 16)
    assert stats["size"].sum() == 200  # every vector assigned
    # true cluster means from labels
    t = _pq.read_table(f"{fixture_dir}/embeddings.parquet")
    m = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    labels = t.column("label").to_numpy()
    owners = set()
    for c in range(4):
        mu = m[labels == c].mean(axis=0)
        d = ((cents - mu) ** 2).sum(axis=1)
        owners.add(int(d.argmin()))
        assert d.min() < 0.05  # centroid sits on the true mean (σ=0.1 noise)
    assert owners == {0, 1, 2, 3}  # bijection: no merged/split clusters


def test_knn_ivf_full_kmeans_build(fixture_dir, tmp_path, monkeypatch):
    """IVF built with the DISTRIBUTED k-means trainer still reaches ≥0.9
    recall on the cluster fixture (scale-path centroid training)."""
    import tempfile

    from product_quality_check_ray.pipelines import similarity as sim

    # isolate the index cache so the sample-trained index is not reused
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    root = sim.ivf_build(fixture_dir, n_lists=8, full_kmeans=True)
    assert (tmp_path / "pqcray_ivf").exists()
    bf = sim.knn_bruteforce(fixture_dir, k=10, num_queries=4).to_pandas()
    iv = sim.knn_ivf_kmeans(fixture_dir, k=10, num_queries=4, nprobe=3, n_lists=8).to_pandas()
    recalls = []
    for q in bf["query_id"].unique():
        b = set(bf[bf["query_id"] == q]["neighbor_id"])
        l = set(iv[iv["query_id"] == q]["neighbor_id"])
        recalls.append(len(b & l) / len(b))
    assert np.mean(recalls) >= 0.9


def _winnow_reference(text: str):
    """~15-line pure-Python MOSS winnowing (rightmost-min tie-break)."""
    import re

    from product_quality_check_ray.pipelines.text import (
        WINNOW_B as B,
        WINNOW_K as K,
        WINNOW_M as M,
        WINNOW_W as W,
    )

    s = re.sub(r"[^a-z0-9]", "", (text or "").lower())
    hs = [sum(ord(s[i + j]) * pow(B, K - 1 - j, M) for j in range(K)) % M for i in range(len(s) - K + 1)]
    sel = set()
    for end in range(W - 1, len(hs)):
        win = hs[end - W + 1 : end + 1]
        mn = min(win)
        j = max(i for i in range(W) if win[i] == mn)  # rightmost min
        sel.add((end - W + 1 + j, mn))
    return sorted(sel)


def test_winnow_matches_pure_python_reference(ray_session):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import _winnow_batch

    t = _pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    out = _winnow_batch(t)
    got: dict[int, list] = {}
    for d, p, f in zip(
        out.column("doc_id").to_pylist(), out.column("pos").to_pylist(), out.column("fp").to_pylist()
    ):
        got.setdefault(d, []).append((p, f))
    for i in range(min(25, t.num_rows)):
        doc_id = t.column("doc_id")[i].as_py()
        ref = _winnow_reference(t.column("text")[i].as_py())
        assert sorted(got.get(doc_id, [])) == ref, doc_id


def test_winnow_overlap_guarantee(ray_session, tmp_path):
    """Two docs sharing a long substring share ≥1 fingerprint (the winnowing
    guarantee for matches of length ≥ k+w−1); unrelated docs share none."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import _winnow_batch

    shared = "the quick brown fox jumps over the lazy dog again and again"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "alpha beta " + shared + " gamma delta",
                    "completely different prefix " + shared,
                    "zzz qqq xxx unrelated content entirely 000 111 222 333 444",
                ]
            ),
        }
    )
    out = _winnow_batch(docs)
    fps: dict[int, set] = {1: set(), 2: set(), 3: set()}
    for d, f in zip(out.column("doc_id").to_pylist(), out.column("fp").to_pylist()):
        fps[d].add(f)
    assert fps[1] & fps[2], "overlapping docs must share a fingerprint"
    assert not (fps[1] & fps[3])
    assert not (fps[2] & fps[3])


def test_overlap_pairs_detects_containment(ray_session, tmp_path):
    """A doc quoting a long passage from another is paired; unrelated is not."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import doc_overlap_pairs

    passage = (
        "data pipelines shuffle blocks through the object store with "
        "backpressure while actors hold per worker state for scoring stages"
    )
    filler = "unrelated words about gardening tulips soil watering cans "
    docs = pa.table(
        {
            "doc_id": pa.array([10, 20, 30], type=pa.int64()),
            "text": pa.array(
                [
                    "intro paragraph here. " + passage + " closing remarks.",
                    "a different document that quotes: " + passage,
                    filler * 6,
                ]
            ),
        }
    )
    d = tmp_path / "ov"
    d.mkdir()
    _pq.write_table(docs, str(d / "documents.parquet"))
    out = doc_overlap_pairs(str(d), min_shared=4)
    pairs = set(zip(out.column("doc_id_a").to_pylist(), out.column("doc_id_b").to_pylist()))
    assert (10, 20) in pairs
    assert all(30 not in p for p in pairs)


def test_statement_sentence_mode(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import doc_statements

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(
                [
                    "First sentence. Second one! A third? trailing fragment",
                    "   Only one here.   ",
                ]
            ),
        }
    )
    d = tmp_path / "sent"
    d.mkdir()
    _pq.write_table(docs, str(d / "documents.parquet"))
    out = doc_statements(str(d), mode="sentence").to_pandas().sort_values(["doc_id", "seg_idx"])
    got = list(zip(out["doc_id"], out["seg_idx"], out["statement"]))
    assert got == [
        (1, 0, "First sentence."),
        (1, 1, "Second one!"),
        (1, 2, "A third?"),
        (1, 3, "trailing fragment"),
        (2, 0, "Only one here."),
    ]


def test_segment_dedupe_finds_repeated_block(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import doc_segment_dedupe

    block = " ".join(f"w{i}" for i in range(12))
    docs = pa.table(
        {
            "doc_id": pa.array([5, 9, 7], type=pa.int64()),
            "text": pa.array([block + " tail words here", block, "totally different twelve word content " * 3]),
        }
    )
    d = tmp_path / "segdup"
    d.mkdir()
    _pq.write_table(docs, str(d / "documents.parquet"))
    out = doc_segment_dedupe(str(d))
    rows = list(
        zip(
            out.column("statement").to_pylist(),
            out.column("n_occurrences").to_pylist(),
            out.column("keeper_doc_id").to_pylist(),
        )
    )
    assert (block, 2, 5) in rows


def test_gopher_filter_flags_repetitive_doc(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import doc_gopher_filter

    good = (
        "the quick brown fox jumps over a lazy dog and that is for it "
        "while morning light spreads across quiet fields where farmers tend "
        "rows of green seedlings beside an old stone wall near the river"
    )
    repetitive = "spam ham " * 40  # dup_bigram_frac ≈ 1, no stopwords
    short = "too short"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array([good, repetitive, short]),
        }
    )
    d = tmp_path / "gopher"
    d.mkdir()
    _pq.write_table(docs, str(d / "documents.parquet"))
    df = doc_gopher_filter(str(d)).to_pandas().set_index("doc_id")
    assert bool(df.loc[1, "keep"])
    assert not bool(df.loc[2, "rep_ok"]) and not bool(df.loc[2, "keep"])
    assert not bool(df.loc[3, "wc_ok"]) and not bool(df.loc[3, "keep"])


def test_doc_ops_block_structure_invariance(ray_session, tmp_path):
    """The new doc operators give byte-identical results whether the corpus
    is one parquet file or eight (different Ray block structures — the
    single-node stand-in for different cluster partitionings)."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import (
        doc_gopher_filter,
        doc_overlap_pairs,
        doc_repetition_scores,
        doc_segment_dedupe,
        doc_winnow_fingerprints,
    )

    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(60)] + ["the", "and", "of", "a"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 80)))) for _ in range(160)]
    # seed some overlap so the pair/dedupe ops are non-vacuous
    texts[10] = texts[3] + " " + texts[4]
    texts[77] = texts[3]
    docs = pa.table(
        {
            "doc_id": pa.array(range(160), type=pa.int64()),
            "text": pa.array(texts),
            "source": pa.array([f"src{i % 6}" for i in range(160)]),
        }
    )
    one = tmp_path / "one"
    eight = tmp_path / "eight"
    one.mkdir()
    eight.mkdir()
    _pq.write_table(docs, str(one / "documents.parquet"))
    w = _pq.ParquetWriter(str(eight / "documents.parquet"), docs.schema)
    for i in range(8):
        w.write_table(docs.slice(i * 20, 20))
    w.close()

    def canon(res):
        t = res if isinstance(res, pa.Table) else pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))
        )
        df = t.to_pandas()
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    from product_quality_check_ray.pipelines.textprep import (
        corpus_mixture_sample,
        doc_chunks,
        doc_lm_score,
        doc_pii_redact,
        doc_shard_assign,
        doc_tfidf_topk,
    )

    from product_quality_check_ray.pipelines.substring import (
        doc_lcs_pairs,
        doc_strip_dup_spans,
    )
    from product_quality_check_ray.pipelines.textprep import doc_pack_examples

    for op in (
        doc_winnow_fingerprints,
        doc_overlap_pairs,
        doc_segment_dedupe,
        doc_repetition_scores,
        doc_gopher_filter,
        doc_chunks,
        doc_pii_redact,
        doc_shard_assign,
        doc_tfidf_topk,
        doc_lm_score,
        corpus_mixture_sample,
        doc_pack_examples,
        lambda d: doc_lcs_pairs(d, min_run=10),
        lambda d: doc_strip_dup_spans(d, min_run=10),
    ):
        a, b = canon(op(str(one))), canon(op(str(eight)))
        assert a.equals(b), op.__name__


def test_decontaminate_flags_benchmark_overlap(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines.text import doc_decontaminate

    bench_text = "alpha beta gamma delta epsilon zeta eta theta"
    docs = pa.table(
        {
            # doc 0 is the benchmark (0 % mod == 0); doc 1 quotes 4+ of its
            # words consecutively; doc 2 shares words but never 4 in a row
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(
                [
                    bench_text,
                    "intro words then beta gamma delta epsilon and more",
                    "alpha only beta alone gamma apart delta solo",
                ]
            ),
        }
    )
    d = tmp_path / "decon"
    d.mkdir()
    _pq.write_table(docs, str(d / "documents.parquet"))
    df = doc_decontaminate(str(d)).to_pandas().set_index("doc_id")
    assert bool(df.loc[0, "contaminated"])  # benchmark doc trivially flagged
    assert bool(df.loc[1, "contaminated"])
    assert int(df.loc[1, "n_contaminated_grams"]) == 1
    assert not bool(df.loc[2, "contaminated"])


# --------------------------------------------------------------------------
# textprep: chunk packing / PII / sharding / TF-IDF / range join
# --------------------------------------------------------------------------


def test_doc_chunks_matches_python_reference(ray_session):
    from product_quality_check_ray.pipelines.textprep import (
        CHUNK_STRIDE,
        CHUNK_WORDS,
        doc_chunks,
    )

    got = doc_chunks(SF_SMALL).to_pandas()
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    expect = []
    for _, r in docs.iterrows():
        ws = (r["text"] or "").lower().split() or [""]
        # windows are emitted until one REACHES the end — no trailing
        # window that is a strict subset of its predecessor
        j = 0
        while True:
            w = ws[j * CHUNK_STRIDE : j * CHUNK_STRIDE + CHUNK_WORDS]
            expect.append((int(r["doc_id"]), j, len(w), " ".join(w)))
            if j * CHUNK_STRIDE + CHUNK_WORDS >= len(ws):
                break
            j += 1
    exp = pd.DataFrame(expect, columns=["doc_id", "chunk_id", "n_words", "chunk_text"])
    key = ["doc_id", "chunk_id"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert got.equals(exp.astype(got.dtypes.to_dict()))
    # overlap contract: consecutive windows share chunk-stride words
    assert CHUNK_STRIDE < CHUNK_WORDS and (got.groupby("doc_id").size() > 1).any()


def test_pii_scrub_batch_unit(ray_session):
    from product_quality_check_ray.pipelines.textprep import pii_scrub_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "mail a.b-c_d@ex-ample.co.uk now",
                    "srv at 192.168.0.1 and 10.0.0.255",
                    "call 555-123-4567 or 555-000-9999 not 1234-555-1234567",
                    None,
                ]
            ),
        }
    )
    out = pii_scrub_batch(t).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_email"] == 1 and out.loc[1, "redacted_text"] == "mail <EMAIL> now"
    assert out.loc[2, "n_ip"] == 2 and out.loc[2, "redacted_text"] == "srv at <IP> and <IP>"
    assert out.loc[3, "n_phone"] == 2
    assert "<PHONE> or <PHONE>" in out.loc[3, "redacted_text"]
    assert out.loc[4, "redacted_text"] == ""


def test_shard_assign_and_corpus(ray_session, tmp_path):
    from product_quality_check_ray.pipelines.textprep import (
        N_SHARDS,
        doc_shard_assign,
        shard_corpus,
    )

    a = doc_shard_assign(SF_SMALL).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = doc_shard_assign(SF_SMALL).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # deterministic
    counts = a.shard.value_counts()
    assert len(counts) == N_SHARDS and counts.max() <= 2 * counts.min()  # balanced
    out = tmp_path / "shards"
    full = shard_corpus(SF_SMALL, str(out)).to_pandas()
    assert len(full) == len(a)
    import glob as _glob

    files = _glob.glob(str(out / "shard=*/*.parquet"))
    assert files and (out / "_SHARDS_SUCCESS.json").exists()
    # within-shard order: (shuffle_key, doc_id) ascending inside each file set
    for k in range(N_SHARDS):
        part = pd.concat(
            [pd.read_parquet(f) for f in sorted(_glob.glob(str(out / f"shard={k}/*.parquet")))]
        )
        keys = list(zip(part.shuffle_key, part.doc_id))
        assert keys == sorted(keys)
    # resume: marker short-circuits to a read-back with identical content
    again = shard_corpus(SF_SMALL, str(out)).to_pandas()
    assert set(again.doc_id) == set(full.doc_id)


def test_tfidf_matches_pandas_reference(ray_session):
    from product_quality_check_ray.core.rounding import round_half_away
    from product_quality_check_ray.pipelines.textprep import (
        TFIDF_K,
        TFIDF_MIN_DF,
        doc_tfidf_topk,
    )

    got = doc_tfidf_topk(SF_SMALL).to_pandas()
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    n_docs = len(docs)
    rows = []
    for _, r in docs.iterrows():
        ws = (r["text"] or "").lower().split() or [""]
        for w in ws:
            rows.append((int(r["doc_id"]), w, len(ws)))
    e = pd.DataFrame(rows, columns=["doc_id", "word", "nw"])
    df_tab = e.drop_duplicates(["doc_id", "word"]).groupby("word").size()
    df_tab = df_tab[df_tab >= TFIDF_MIN_DF]
    cnt = e.groupby(["doc_id", "word", "nw"]).size().reset_index(name="cnt")
    cnt = cnt[cnt.word.isin(df_tab.index)]
    idf = round_half_away(np.log(float(n_docs) / df_tab.to_numpy()), 9)
    idf = pd.Series(idf, index=df_tab.index)
    cnt["score"] = (cnt.cnt.to_numpy() / cnt.nw.to_numpy()) * idf[cnt.word].to_numpy()
    cnt = cnt.sort_values(["doc_id", "score", "word"], ascending=[True, False, True])
    cnt["rank"] = cnt.groupby("doc_id").cumcount() + 1
    exp = cnt[cnt["rank"] <= TFIDF_K][["doc_id", "word", "rank", "score"]].rename(
        columns={"word": "term"}
    )
    key = ["doc_id", "rank"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert got.doc_id.tolist() == exp.doc_id.tolist()
    assert got.term.tolist() == exp.term.tolist()
    assert (got.score.to_numpy() == exp.score.to_numpy()).all()  # bit-exact


def test_events_range_counts_bruteforce(ray_session):
    from product_quality_check_ray.pipelines.relational import (
        RANGE_WINDOW_MIN,
        events_range_counts,
    )

    got = events_range_counts(SF_SMALL).to_pandas().sort_values("event_id").reset_index(drop=True)
    ev = pd.read_parquet(f"{SF_SMALL}/events.parquet")
    win = pd.Timedelta(minutes=RANGE_WINDOW_MIN)
    rows = []
    for _, p in ev[ev.event_type == "purchase"].iterrows():
        m = ev[(ev.user_id == p.user_id) & (ev.ts >= p.ts - win) & (ev.ts < p.ts)]
        rows.append(
            (
                int(p.event_id),
                int(p.user_id),
                p.ts.strftime("%Y-%m-%d %H:%M:%S.%f"),
                len(m),
                int((m.event_type == "click").sum()),
            )
        )
    exp = pd.DataFrame(
        rows, columns=["event_id", "user_id", "ts", "n_prior", "n_clicks_prior"]
    ).sort_values("event_id").reset_index(drop=True)
    assert got.equals(exp.astype(got.dtypes.to_dict()))


def test_doc_lm_score_matches_python_reference(ray_session):
    from collections import Counter

    from product_quality_check_ray.core.rounding import round_half_away
    from product_quality_check_ray.pipelines.textprep import LM_REF_MOD, doc_lm_score

    got = doc_lm_score(SF_SMALL).to_pandas().set_index("doc_id").sort_index()
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    words = {
        int(r["doc_id"]): ((r["text"] or "").lower().split() or [""])
        for _, r in docs.iterrows()
    }
    ref_ids = [d for d in words if d % LM_REF_MOD == 0]
    c2, c1, vocab = Counter(), Counter(), set()
    for d in ref_ids:
        ws = words[d]
        vocab.update(ws)
        for a, b in zip(ws, ws[1:]):
            c2[(a, b)] += 1
            c1[a] += 1
    V = len(vocab)
    for d, ws in words.items():
        mbs = [
            int(round_half_away(-np.log2((c2[(a, b)] + 1) * 1.0 / (c1[a] + V)) * 1000, 0))
            for a, b in zip(ws, ws[1:])
        ]
        assert got.loc[d, "n_bigrams"] == len(mbs)
        assert got.loc[d, "total_millibits"] == sum(mbs)
        if mbs:
            assert got.loc[d, "bits_per_bigram"] == (sum(mbs) * 1.0) / (1000.0 * len(mbs))
        else:
            assert pd.isna(got.loc[d, "bits_per_bigram"])
    # non-vacuous: reference-slice docs score lower (they ARE the LM corpus)
    in_ref = got.loc[[d for d in words if d % LM_REF_MOD == 0], "bits_per_bigram"]
    out_ref = got.loc[[d for d in words if d % LM_REF_MOD != 0], "bits_per_bigram"]
    assert in_ref.mean() < out_ref.mean()


def test_corpus_mixture_sample_rates(ray_session):
    from product_quality_check_ray.pipelines.textprep import (
        MIXTURE_WEIGHTS,
        corpus_mixture_sample,
    )

    kept = corpus_mixture_sample(SF_SMALL).to_pandas()
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "source"])
    rates = kept.groupby("source").size() / docs.groupby("source").size()
    for s, w in MIXTURE_WEIGHTS.items():
        assert abs(rates.get(s, 0.0) - w) < 0.25  # small-sample tolerance
    # determinism
    again = corpus_mixture_sample(SF_SMALL).to_pandas()
    assert set(again.doc_id) == set(kept.doc_id)


def test_prepare_training_corpus_composition(ray_session, tmp_path):
    """Capstone composition equals its components: kept docs = clean_full ∩
    mixture; chunks = doc_chunks of kept docs with the doc's shard."""
    from product_quality_check_ray.pipelines.text import clean_documents_full
    from product_quality_check_ray.pipelines.textprep import (
        _shard_cols,
        N_SHARDS,
        corpus_mixture_sample,
        doc_chunks,
        prepare_training_corpus,
    )

    sf = SF_SMALL
    got = prepare_training_corpus(sf).to_pandas()
    kept = set(clean_documents_full(sf).to_pandas().doc_id) & set(
        corpus_mixture_sample(sf).to_pandas().doc_id
    )
    assert set(got.doc_id) == kept and len(kept) > 0
    chunks = doc_chunks(sf).to_pandas()
    chunks = chunks[chunks.doc_id.isin(kept)]
    key = ["doc_id", "chunk_id"]
    a = got[["doc_id", "chunk_id", "n_words", "chunk_text"]].sort_values(key).reset_index(drop=True)
    b = chunks.sort_values(key).reset_index(drop=True)
    assert a.equals(b)
    shard, _ = _shard_cols(got.doc_id.to_numpy().astype(np.int64), N_SHARDS)
    assert (got.shard.to_numpy() == shard).all()
    # resumable write contract
    out = tmp_path / "corpus"
    w = prepare_training_corpus(sf, str(out)).to_pandas()
    import glob as _glob

    assert _glob.glob(str(out / "shard=*/*.parquet")) and (out / "_CORPUS_SUCCESS.json").exists()
    assert len(w) == len(got)


def test_textprep_ops_empty_corpus(ray_session, tmp_path):
    """Every textprep operator handles a zero-row corpus without crashing."""
    import pyarrow.parquet as _pq

    from product_quality_check_ray.pipelines import textprep as tp

    d = tmp_path / "emptycorpus"
    d.mkdir()
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "text": pa.array([], type=pa.string()),
            "source": pa.array([], type=pa.string()),
        }
    )
    _pq.write_table(empty, str(d / "documents.parquet"))
    from product_quality_check_ray.pipelines import substring as sub

    for op in (tp.doc_chunks, tp.doc_pii_redact, tp.doc_shard_assign,
               tp.doc_tfidf_topk, tp.corpus_mixture_sample, tp.doc_pack_examples,
               sub.doc_strip_dup_spans):
        assert len(op(str(d)).to_pandas()) == 0, op.__name__
    assert sub.doc_lcs_pairs(str(d)).num_rows == 0
    with pytest.raises(ValueError):  # LM: empty reference slice is an error
        tp.doc_lm_score(str(d)).to_pandas()


def test_pack_plan_greedy_properties():
    from product_quality_check_ray.pipelines.textprep import _pack_plan

    rng = np.random.default_rng(7)
    lens = rng.integers(1, 90, size=400).astype(np.int64)
    lens[::37] = 250  # oversize docs must sit alone
    budget = 160
    pack_id, pack_pos, tok_offset = _pack_plan(lens, budget)
    df = pd.DataFrame({"len": lens, "pack": pack_id, "pos": pack_pos, "off": tok_offset})
    # packs are contiguous, ids dense from 0
    assert (np.diff(pack_id) >= 0).all() and pack_id[0] == 0
    assert set(np.unique(pack_id)) == set(range(pack_id.max() + 1))
    for _, g in df.groupby("pack"):
        assert list(g.pos) == list(range(len(g)))  # positions 0..k-1
        assert list(g.off) == list(np.concatenate(([0], np.cumsum(g.len)[:-1])))
        assert len(g) == 1 or g.len.sum() <= budget  # budget respected
    # greedy: first doc of every pack would NOT have fit in the previous pack
    totals = df.groupby("pack")["len"].sum().to_numpy()
    firsts = df[df.pos == 0]["len"].to_numpy()
    assert (totals[:-1] + firsts[1:] > budget).all()


def test_doc_pack_examples_matches_python_reference(ray_session):
    from product_quality_check_ray.pipelines.textprep import (
        N_SHARDS,
        PACK_BUDGET,
        _shard_cols,
        doc_pack_examples,
    )

    got = doc_pack_examples(SF_SMALL).to_pandas()
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.doc_id.to_numpy().astype(np.int64)
    shard, key = _shard_cols(ids, N_SHARDS)
    nw = np.array(
        [len((t or "").lower().split() or [""]) for t in docs.text], dtype=np.int64
    )
    expect = []
    ref = pd.DataFrame({"doc_id": ids, "shard": shard, "key": key, "nw": nw})
    for s, g in ref.sort_values(["key", "doc_id"]).groupby("shard"):
        pid = pos = off = acc = 0
        for _, r in g.iterrows():
            if acc and acc + r.nw > PACK_BUDGET:
                pid, pos, off, acc = pid + 1, 0, 0, 0
            expect.append((r.doc_id, s, pid, pos, off, r.nw))
            pos, off, acc = pos + 1, off + r.nw, acc + r.nw
    exp = pd.DataFrame(
        expect, columns=["doc_id", "shard", "pack_id", "pack_pos", "tok_offset", "n_words"]
    )
    got = got.sort_values("doc_id").reset_index(drop=True)
    exp = exp.sort_values("doc_id").reset_index(drop=True).astype(got.dtypes.to_dict())
    assert got.equals(exp)


def test_doc_lcs_pairs_matches_bruteforce(ray_session):
    """Engine vs brute-force python over the fixture corpus: identical pair
    set with exact max shared run, island count, and anchor count."""
    from collections import defaultdict

    from product_quality_check_ray.pipelines.substring import (
        LCS_GRAM,
        LCS_HOT_CAP,
        LCS_MIN_RUN,
        doc_lcs_pairs,
    )

    got = doc_lcs_pairs(SF_SMALL).to_pandas().reset_index(drop=True)
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    L, mr, cap = LCS_GRAM, LCS_MIN_RUN, LCS_HOT_CAP
    gram_map = defaultdict(list)
    for _, r in docs.iterrows():
        ws = (r.text or "").lower().split()
        for i in range(len(ws) - L + 1):
            gram_map[" ".join(ws[i : i + L])].append((int(r.doc_id), i))
    anchors = defaultdict(list)
    for occ in gram_map.values():
        if len(occ) > cap:
            continue
        for x in range(len(occ)):
            for y in range(x + 1, len(occ)):
                (d1, p1), (d2, p2) = occ[x], occ[y]
                if d1 == d2:
                    continue
                if d1 > d2:
                    d1, d2, p1, p2 = d2, d1, p2, p1
                anchors[(d1, d2)].append((p1 - p2, p1))
    rows = []
    for (a, b), an in anchors.items():
        an.sort()
        runs, prev = [], None
        for dg, p in an:
            if prev and prev[0] == dg and prev[1] == p - 1:
                runs[-1] += 1
            else:
                runs.append(1)
            prev = (dg, p)
        lens = [r + L - 1 for r in runs]
        if max(lens) >= mr:
            rows.append((a, b, max(lens), len(lens), sum(runs)))
    exp = (
        pd.DataFrame(rows, columns=list(got.columns))
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    assert len(got) > 0  # fixture near-dups share long runs — non-vacuous
    assert got.equals(exp.astype(got.dtypes.to_dict()))


def test_doc_strip_dup_spans_matches_bruteforce(ray_session):
    """Span-removal dedup vs a brute-force reference: identical stripped
    text, removed-word counts, and merged-interval counts per doc."""
    from collections import defaultdict

    from product_quality_check_ray.pipelines.substring import (
        LCS_GRAM,
        LCS_HOT_CAP,
        LCS_MIN_RUN,
        doc_strip_dup_spans,
    )

    got = (
        doc_strip_dup_spans(SF_SMALL)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = pd.read_parquet(f"{SF_SMALL}/documents.parquet", columns=["doc_id", "text"])
    L, mr, cap = LCS_GRAM, LCS_MIN_RUN, LCS_HOT_CAP
    words = {int(r.doc_id): ((r.text or "").lower().split() or [""]) for _, r in docs.iterrows()}
    gram_map = defaultdict(list)
    for d, ws in words.items():
        for i in range(len(ws) - L + 1):
            gram_map[" ".join(ws[i : i + L])].append((d, i))
    spans = defaultdict(list)
    for occ in gram_map.values():
        if len(occ) > cap:
            continue
        by_pair = defaultdict(list)
        for x in range(len(occ)):
            for y in range(x + 1, len(occ)):
                (d1, p1), (d2, p2) = occ[x], occ[y]
                if d1 == d2:
                    continue
                if d1 > d2:
                    d1, d2, p1, p2 = d2, d1, p2, p1
                by_pair[(d1, d2)].append((p1 - p2, p1))
        for k, v in by_pair.items():
            spans[k].extend(v)
    cut = defaultdict(list)
    for (a, b), an in spans.items():
        an.sort()
        runs, prev = [], None
        for dg, p in an:
            if prev and prev[0] == dg and prev[1] == p - 1:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append(((dg, p), 1))
            prev = (dg, p)
        for (dg, p0), n in runs:
            rl = n + L - 1
            if rl >= mr:
                cut[b].append((p0 - dg, p0 - dg + rl))
    rows = []
    for d, ws in words.items():
        merged = []
        for s, e in sorted(cut.get(d, [])):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        rm = set()
        for s, e in merged:
            rm.update(range(s, e))
        kept = [w for i, w in enumerate(ws) if i not in rm]
        rows.append((d, " ".join(kept), sum(e - s for s, e in merged), len(merged)))
    exp = (
        pd.DataFrame(rows, columns=["doc_id", "clean_text", "n_removed", "n_spans"])
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype(got.dtypes.to_dict())
    )
    assert (got.n_spans > 0).any()  # fixture near-dups make this non-vacuous
    assert got.equals(exp)


def test_seq_pack_plan_properties(ray_session):
    from product_quality_check_ray.pipelines.textprep import (
        SEQ_PACK_BUDGET,
        seq_pack_plan,
    )

    got = seq_pack_plan(SF_SMALL).to_pandas()
    seqs = pd.concat(
        [pd.read_parquet(f, columns=["doc_id", "n_tok"]) for f in
         sorted(__import__("glob").glob("/tmp/pqcray_data/sf0.001/sequences/*.parquet"))]
    )
    valid = seqs[seqs.doc_id.notna() & seqs.n_tok.notna()
                 & (seqs.n_tok >= 1) & (seqs.n_tok <= 2048)]
    assert len(got) == len(valid)  # exactly the valid rows are packed
    assert got.doc_id.notna().all()
    for (_, _), g in got.groupby(["shard", "pack_id"]):
        g = g.sort_values("pack_pos")
        assert list(g.pack_pos) == list(range(len(g)))
        assert list(g.tok_offset) == list(np.r_[0, np.cumsum(g.n_tok)[:-1]])
        assert len(g) == 1 or g.n_tok.sum() <= SEQ_PACK_BUDGET
    # determinism across runs
    a = got.sort_values(["shard", "pack_id", "pack_pos"]).reset_index(drop=True)
    b = (
        seq_pack_plan(SF_SMALL)
        .to_pandas()
        .sort_values(["shard", "pack_id", "pack_pos"])
        .reset_index(drop=True)
    )
    assert a.equals(b)


def test_substring_ops_invariant_to_range_count(ray_session, monkeypatch):
    """Hash-range parallelism (the per-cluster-size knob) must not change
    results: 2, 3 and 37 ranges, one block per map task, give the
    default's pairs and stripped corpus byte for byte — the single-node
    stand-in for the north rule's N vs 4N identical-output requirement on
    these operators."""
    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.pipelines.substring import (
        doc_lcs_pairs,
        doc_strip_dup_spans,
    )

    def canon(ds):
        df = ds.to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    a = doc_lcs_pairs(SF_SMALL).to_pandas()
    sa = canon(doc_strip_dup_spans(SF_SMALL))
    assert len(a) > 0 and (sa.n_spans > 0).any()
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 1)
    for r in (2, 3, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        assert a.equals(doc_lcs_pairs(SF_SMALL).to_pandas())
        assert sa.equals(canon(doc_strip_dup_spans(SF_SMALL)))


def test_verify_jaccard_pairs_matches_naive(ray_session, monkeypatch):
    """state/pairverify: the distributed lexsort-intersection verify must
    equal a per-pair numpy reference on random unique hash sets, at 2, 3
    and 37 ranges (37 leaves some ranges without pairs), one payload block
    per map task."""
    import numpy as _np
    import pyarrow as _pa
    import ray.data as _rd

    from product_quality_check_ray.core.rounding import round_half_away
    from product_quality_check_ray.state.pairverify import verify_jaccard_pairs

    rng = _np.random.default_rng(5)
    n_docs = 60
    sets = {
        i: _np.unique(rng.integers(0, 500, size=int(rng.integers(1, 80))).astype(_np.uint64))
        for i in range(n_docs)
    }
    payload = _pa.table(
        {
            "doc_id": _pa.array(list(sets), type=_pa.int64()),
            "hashes": _pa.array([v.tolist() for v in sets.values()], type=_pa.list_(_pa.uint64())),
        }
    )
    # split payload across several blocks to exercise block routing
    ds = _rd.from_arrow([payload.slice(0, 20), payload.slice(20, 20), payload.slice(40)])
    ia, ib = [], []
    for _ in range(300):
        a, b = rng.integers(0, n_docs, size=2)
        if a == b:
            continue
        ia.append(min(a, b))
        ib.append(max(a, b))
    ia, ib = _np.array(ia, dtype=_np.int64), _np.array(ib, dtype=_np.int64)
    exp_rows = []
    seen = set()
    for a, b in zip(ia, ib):
        if (a, b) in seen:
            continue
        seen.add((a, b))
        inter = _np.intersect1d(sets[a], sets[b], assume_unique=True).size
        union = sets[a].size + sets[b].size - inter
        j = float(round_half_away(_np.float64(inter / union if union else 1.0), 6))
        if j >= 0.1:
            exp_rows.append((a, b, inter, sets[a].size, sets[b].size, j))
    exp_rows.sort()
    assert exp_rows
    from product_quality_check_ray.core import exchange

    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 1)
    for r in (2, 3, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        got = verify_jaccard_pairs(ds, "doc_id", "hashes", ia, ib, threshold=0.1).to_pandas()
        # the distributed path verifies each DISTINCT pair once per
        # occurrence in the input arrays; dedupe it for comparison
        got_rows = sorted(
            set(
                (int(a), int(b), int(s), int(na), int(nb), float(j))
                for a, b, s, na, nb, j in zip(
                    got["doc_id_a"], got["doc_id_b"], got["shared"],
                    got["n_a"], got["n_b"], got["jaccard"],
                )
            )
        )
        assert got_rows == exp_rows


def test_cooccurrence_pairs_size_col(ray_session):
    """pairreduce size_col: per-pair size_a/size_b equal each id's constant
    per-row attribute, for every emitted pair."""
    import pyarrow as _pa
    import ray.data as _rd

    from product_quality_check_ray.state.pairreduce import cooccurrence_pairs

    rows = []
    sizes = {1: 3, 2: 5, 3: 2, 4: 7}
    shingle_sets = {1: ["x", "y", "z"], 2: ["x", "q", "r", "s", "t"], 3: ["y", "q"], 4: ["z"]}
    for did, shs in shingle_sets.items():
        for s in shs:
            rows.append((did, s, sizes[did]))
    t = _pa.table(
        {
            "doc_id": _pa.array([r[0] for r in rows], type=_pa.int64()),
            "shingle": _pa.array([r[1] for r in rows]),
            "n": _pa.array([r[2] for r in rows], type=_pa.int64()),
        }
    )
    df = cooccurrence_pairs(
        _rd.from_arrow(t), "shingle", "doc_id", size_col="n"
    ).sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert set(zip(df["id_a"], df["id_b"])) == {(1, 2), (1, 3), (1, 4), (2, 3)}
    for r in df.itertuples():
        assert r.size_a == sizes[r.id_a] and r.size_b == sizes[r.id_b]


def test_doc_safety_hints_patterns(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.text import doc_safety_hints

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "the hash join beats a big table scan for this query",
                    "window functions need a sort before group by",
                    "slow nested scan with dup rows",
                    "nothing matches here at all",
                ]
            ),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    rows = doc_safety_hints(str(tmp_path)).take_all()
    hits = {(r["doc_id"], r["pattern"]) for r in rows}
    assert (1, "hash_join_bigram") in hits
    assert (1, "sized_table") in hits
    assert (1, "ends_query") in hits
    assert (2, "starts_window") in hits
    assert (2, "sort_then_group") in hits
    assert (3, "slow_gap_scan") in hits
    assert (3, "dup_flag") in hits
    assert not any(p == "control_never" for _, p in hits)
    assert not any(d == 4 for d, _ in hits)


def test_part_measurements_parse_and_normalize(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.relational import (
        UNIT_CANON,
        UNIT_VARIANTS,
        part_measurements,
    )

    keys = list(range(16))  # two full passes over the 8 unit variants
    pq.write_table(
        pa.table({"p_partkey": pa.array(keys, type=pa.int64())}),
        tmp_path / "part.parquet",
    )
    rows = {r["p_partkey"]: r for r in part_measurements(str(tmp_path)).take_all()}
    assert len(rows) == 16
    for k in keys:
        r = rows[k]
        unit = UNIT_VARIANTS[k % len(UNIT_VARIANTS)]
        canon, dim, factor = UNIT_CANON[unit]
        assert r["unit_raw"] == unit
        assert r["unit_canon"] == canon and r["dimension"] == dim
        expect_val = (k % 997) / 10.0
        assert r["value_raw"] == expect_val
        assert abs(r["value_base"] - expect_val * factor) < 1e-9
        # comma-decimal labels must round-trip through the _num repair
        if k % 3 == 0:
            assert "," in r["label"]


def test_part_packsize_all_formats(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.relational import (
        PACK_KINDS,
        PACK_UNIT_BASE,
        PACK_UNITS,
        part_packsize,
    )

    keys = list(range(24))  # full kind x unit coverage (lcm(6,4)=12, twice)
    pq.write_table(
        pa.table({"p_partkey": pa.array(keys, type=pa.int64())}),
        tmp_path / "part.parquet",
    )
    rows = {r["p_partkey"]: r for r in part_packsize(str(tmp_path)).take_all()}
    assert {r["pack_kind"] for r in rows.values()} == set(PACK_KINDS)
    for k in keys:
        r = rows[k]
        kind = PACK_KINDS[k % len(PACK_KINDS)]
        assert r["pack_kind"] == kind
        qty, n = (k % 89) + 1, 2 + k % 11
        if kind == "count":
            assert r["n_units"] == n
            assert r["unit_qty"] is None and r["qty_base"] is None
            assert r["unit_raw"] is None and r["dimension"] is None
        else:
            u = PACK_UNITS[k % len(PACK_UNITS)]
            dim, factor = PACK_UNIT_BASE[u]
            expect_n = n if kind == "multipack" else 1
            assert r["n_units"] == expect_n and r["unit_qty"] == qty
            assert r["unit_raw"] == u and r["dimension"] == dim
            assert r["qty_base"] == expect_n * qty * factor
        assert r["e_mark"] == (kind == "e_marked")


def test_cli_validate_preaudit(ray_session, tmp_path):
    """--preaudit fails fast (exit 2, preaudit_failed JSON) on a schema-
    deviant shard without running the row-level pass; on a uniform corpus
    it proceeds to the normal validation summary."""
    import json as _json
    import os
    import subprocess
    import sys as _sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.datagen import write_sequences

    seq = write_sequences(str(tmp_path / "seqp"), 1000, seed=8, num_fragments=2)

    def run(inp, out):
        return subprocess.run(
            [_sys.executable, "-m", "product_quality_check_ray", "validate",
             "--input", inp, "--out", out, "--preaudit", "--num-cpus", "4"],
            capture_output=True, text=True, cwd="/root/repo", timeout=180,
        )

    r = run(seq, str(tmp_path / "outp"))
    summary = _json.loads(r.stdout.strip().splitlines()[-1])
    assert "preaudit_failed" not in summary and summary["rows"] == 1000

    bad = pa.table(
        {
            "doc_id": pa.array(["x"]),
            "tokens": pa.array([[1]], type=pa.list_(pa.int64())),
            "n_tok": pa.array([1], type=pa.int32()),
            "source": pa.array(["web"]),
        }
    )
    pq.write_table(bad, os.path.join(seq, "frag-zz.parquet"))
    r2 = run(seq, str(tmp_path / "outp2"))
    assert r2.returncode == 2, r2.stderr[-2000:]
    s2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["preaudit_failed"] and s2["schema_deviant_fragments"] == ["frag-zz.parquet"]
    assert not os.path.exists(os.path.join(str(tmp_path / "outp2"), "_RUN_SUCCESS.json"))


def _write_id_frag(d, name, ids, write_statistics=True):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.string()),
            "tokens": pa.array([[1, 2]] * len(ids), type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * len(ids), type=pa.int32()),
            "source": pa.array(["web"] * len(ids), type=pa.string()),
        }
    )
    pq.write_table(t, str(d / name), write_statistics=write_statistics)
    return str(d / name)


def test_keyrange_audit_planted(ray_session, tmp_path):
    """Disjoint fragments don't flag; an overlapping pair flags BOTH sides;
    a stats-less fragment reports stats_known=false and never joins the
    overlap computation; all-null and empty fragments are known with null
    bounds; a range that CONTAINS another (not just crosses its boundary)
    still flags — the prefix/suffix formulation must catch nesting."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = tmp_path / "seq"
    d.mkdir()
    _write_id_frag(d, "frag-000.parquet", ["a-1", "a-2", "a-9"])       # [a-1, a-9]
    _write_id_frag(d, "frag-001.parquet", ["b-1", "b-5"])              # [b-1, b-5]
    _write_id_frag(d, "frag-002.parquet", ["c-1", "c-9"])              # [c-1, c-9]
    _write_id_frag(d, "frag-003.parquet", ["c-2", "c-3"])              # nested in 002
    _write_id_frag(d, "frag-004.parquet", ["d-1"], write_statistics=False)
    _write_id_frag(d, "frag-005.parquet", [None, None])                # all-null ids
    _write_id_frag(d, "frag-006.parquet", [])                          # empty

    out = tk.seq_keyrange_audit(str(d)).to_pandas().set_index("fragment")
    assert not out.loc["frag-000.parquet"].overlaps_other
    assert not out.loc["frag-001.parquet"].overlaps_other
    assert bool(out.loc["frag-002.parquet"].overlaps_other)
    assert bool(out.loc["frag-003.parquet"].overlaps_other)
    f4 = out.loc["frag-004.parquet"]
    assert not f4.stats_known and not f4.overlaps_other
    f5 = out.loc["frag-005.parquet"]
    assert f5.stats_known and f5.id_min is None and not f5.overlaps_other
    f6 = out.loc["frag-006.parquet"]
    assert f6.stats_known and f6.id_min is None
    assert (out.loc[["frag-000.parquet", "frag-001.parquet", "frag-002.parquet"],
                    "stats_known"]).all()


def test_dupfinder_range_pruning(ray_session, tmp_path):
    """Disjoint fragment id ranges take the shuffle-free local path and
    return EXACTLY what the global hash-range reduce returns (within-
    fragment dups found, cross-fragment impossible by disjointness); an
    overlapping corpus falls back and still matches; the disjointness
    predicate itself is pinned on both corpora."""
    from product_quality_check_ray.state import dupfinder

    d = tmp_path / "sorted"
    d.mkdir()
    # sorted writer: fragment k owns ids k000..k999; plant within-frag dups
    files = []
    for k in range(4):
        ids = [f"id-{k:02d}-{i:04d}" for i in range(50)]
        ids += [f"id-{k:02d}-0007", f"id-{k:02d}-0007"]  # triple of -0007
        files.append(_write_id_frag(d, f"frag-{k:03d}.parquet", sorted(ids)))

    ranges = dupfinder.fragment_id_ranges(files)
    assert dupfinder.ranges_pairwise_disjoint(ranges)
    fast = dupfinder.find_duplicates(files)
    slow = dupfinder.find_duplicates(files, range_pruning=False)
    assert fast == slow
    assert fast == {f"id-{k:02d}-0007": 3 for k in range(4)}

    # overlapping corpus: duplicate id spans two fragments — the fast path
    # must NOT activate (disjointness false) and results still match
    d2 = tmp_path / "overlap"
    d2.mkdir()
    f_a = _write_id_frag(d2, "frag-000.parquet", ["m-1", "m-5", "x-dup"])
    f_b = _write_id_frag(d2, "frag-001.parquet", ["m-3", "x-dup"])
    files2 = [f_a, f_b]
    assert not dupfinder.ranges_pairwise_disjoint(
        dupfinder.fragment_id_ranges(files2)
    )
    assert (
        dupfinder.find_duplicates(files2)
        == dupfinder.find_duplicates(files2, range_pruning=False)
        == {"x-dup": 2}
    )

    # touching endpoints (equal boundary id) count as OVERLAP: the shared
    # id sits in both fragments, so the local path would undercount
    d3 = tmp_path / "touch"
    d3.mkdir()
    f_c = _write_id_frag(d3, "frag-000.parquet", ["p-1", "p-5"])
    f_d = _write_id_frag(d3, "frag-001.parquet", ["p-5", "p-9"])
    files3 = [f_c, f_d]
    assert not dupfinder.ranges_pairwise_disjoint(
        dupfinder.fragment_id_ranges(files3)
    )
    assert dupfinder.find_duplicates(files3) == {"p-5": 2}


def test_embedding_validate_planted(ray_session, tmp_path):
    """Each violation class fires exactly once where planted; null labels
    fold into the -1 sentinel group; a null ELEMENT counts as non-finite;
    the zero vector is zero_norm but not nonfinite; the engine agrees with
    the DuckDB oracle on the same file."""
    import duckdb
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.similarity import embedding_validate

    D = 64
    ok = [0.5] * D
    rows = {
        "vec_id": pa.array([None, 1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
        "embedding": pa.array(
            [
                ok,                      # label 0: null_id only
                None,                    # label 0: null_vec
                [0.1] * (D - 1),         # label 1: dim_mismatch
                [float("nan")] + ok[1:], # label 1: nonfinite (NaN)
                [float("inf")] + ok[1:], # label 2: nonfinite (Inf)
                [None] + ok[1:],         # label 2: nonfinite (null element)
                [0.0] * D,               # null label → -1 group: zero_norm
                ok,                      # label 3: clean
            ],
            type=pa.list_(pa.float32()),
        ),
        "label": pa.array([0, 0, 1, 1, 2, 2, None, 3], type=pa.int32()),
    }
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table(rows), str(d / "embeddings.parquet"))

    out = embedding_validate(str(d)).to_pandas().set_index("label")
    assert list(out.index) == [-1, 0, 1, 2, 3]
    assert out.loc[-1, ["zero_norm", "viol_rows"]].tolist() == [1, 1]
    assert out.loc[0, ["null_id", "null_vec", "viol_rows"]].tolist() == [1, 1, 2]
    assert out.loc[1, ["dim_mismatch", "nonfinite", "viol_rows"]].tolist() == [1, 1, 2]
    assert out.loc[2, ["nonfinite", "viol_rows"]].tolist() == [2, 2]
    assert not out.loc[2, "zero_norm"] and not out.loc[2, "dim_mismatch"]
    assert out.loc[3, "viol_rows"] == 0 and bool(out.loc[3, "passed"])
    assert not out.loc[:2, "passed"].any()

    import __ray_entry__ as e

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{d}/embeddings.parquet')"
    )
    oracle = con.sql(e.oracle_sql()["embedding_validate"]).df()
    mine = embedding_validate(str(d)).to_pandas()
    assert mine.astype(str).values.tolist() == oracle.astype(str).values.tolist()


def test_events_validate_planted(ray_session, tmp_path):
    """Each event violation class fires exactly once where planted; null
    event types fold into '~null~'; null props are ALLOWED (optional field)
    while a structurally-broken props string flags; engine matches the
    DuckDB oracle on the same file."""
    import datetime as dt

    import duckdb
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.relational import events_validate

    ok_ts = dt.datetime(2024, 1, 1)
    rows = pa.table(
        {
            "event_id": pa.array([None, 1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
            "ts": pa.array(
                [ok_ts, None, ok_ts, ok_ts, ok_ts,
                 dt.datetime(1999, 12, 31), dt.datetime(2100, 1, 1), ok_ts],
                type=pa.timestamp("us"),
            ),
            "user_id": pa.array([1, 2, None, 4, 5, 6, 7, 8], type=pa.int64()),
            "event_type": pa.array(
                ["click", "click", "view", "view", None, "error", "error", "click"],
                type=pa.string(),
            ),
            "value": pa.array([1.0, 2.0, 3.0, -0.5, 5.0, 6.0, 7.0, 8.0]),
            "props": pa.array(
                ['{"k": 1}', '{"k": 2}', '{"k": 3}', '{"k": 4}', "not-json",
                 None, '{"k": 7}', '{"k": 8}'],
                type=pa.string(),
            ),
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(rows, str(d / "events.parquet"))

    out = events_validate(str(d)).to_pandas().set_index("event_type")
    assert list(out.index) == ["click", "error", "view", "~null~"]
    assert out.loc["click", ["null_id", "null_ts", "viol_rows"]].tolist() == [1, 1, 2]
    assert out.loc["view", ["null_user", "neg_value", "viol_rows"]].tolist() == [1, 1, 2]
    assert out.loc["~null~", ["malformed_props", "viol_rows"]].tolist() == [1, 1]
    # both out-of-window timestamps flag; the NULL props row does NOT
    assert out.loc["error", ["ts_range", "malformed_props", "viol_rows"]].tolist() == [2, 0, 2]
    assert not out["passed"].any() and out.loc["click", "n_rows"] == 3

    import __ray_entry__ as e

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    oracle = con.sql(e.oracle_sql()["events_validate"]).df()
    mine = events_validate(str(d)).to_pandas()
    assert mine.astype(str).values.tolist() == oracle.astype(str).values.tolist()


def test_documents_validate_planted(ray_session, tmp_path):
    """Each documents violation class fires exactly once where planted; null
    langs fold into '~null~'; null text + null n_chars is CONSISTENT under
    the shared -1 sentinel (not a mismatch) while null text + n_chars=7 is a
    mismatch; n_chars=-1 with null text flags only neg_nchars; engine
    matches the DuckDB oracle on the same file."""
    import duckdb
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.text import documents_validate

    rows = pa.table(
        {
            "doc_id": pa.array([None, 1, 2, 3, 4, 5, 6, 7, 8], type=pa.int64()),
            "text": pa.array(
                ["ok one", None, "", "ok two", "héllo", "ok three", None, None, "ok"],
                type=pa.string(),
            ),
            "lang": pa.array(
                ["en", "en", "de", None, "xx", "fr", "fr", "zh", "es"],
                type=pa.string(),
            ),
            # héllo is 5 codepoints; row 4 claims 6 → mismatch. Row 6: null
            # text but n_chars=7 → mismatch. Row 7: null text + n_chars=-1 →
            # consistent under the sentinel, flags ONLY neg_nchars.
            "n_chars": pa.array([6, None, 0, 6, 6, 8, 7, -1, 2], type=pa.int64()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(rows, str(d / "documents.parquet"))

    out = documents_validate(str(d)).to_pandas().set_index("lang")
    assert list(out.index) == ["de", "en", "es", "fr", "xx", "zh", "~null~"]
    assert out.loc["en", ["null_id", "null_text", "viol_rows"]].tolist() == [1, 1, 2]
    # null text + null n_chars (row 1) is consistent → no mismatch in 'en'
    assert out.loc["en", "nchars_mismatch"] == 0
    assert out.loc["de", ["empty_text", "viol_rows"]].tolist() == [1, 1]
    assert out.loc["~null~", ["null_lang", "viol_rows"]].tolist() == [1, 1]
    assert out.loc["xx", ["bad_lang", "nchars_mismatch", "viol_rows"]].tolist() == [1, 1, 1]
    # row 5 ("ok three", n_chars=8) is consistent; row 6 (null text,
    # n_chars=7) is fr's one mismatch — and its null_text also flags
    assert out.loc["fr", ["nchars_mismatch", "null_text", "viol_rows"]].tolist() == [1, 1, 1]
    assert out.loc["zh", ["neg_nchars", "nchars_mismatch", "viol_rows"]].tolist() == [1, 0, 1]
    assert bool(out.loc["es", "passed"]) and not out.drop(index="es")["passed"].any()

    import __ray_entry__ as e

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    oracle = con.sql(e.oracle_sql()["documents_validate"]).df()
    mine = documents_validate(str(d)).to_pandas()
    assert mine.astype(str).values.tolist() == oracle.astype(str).values.tolist()


def test_sortedness_audit_planted(ray_session, tmp_path):
    """Planted order cases: a sorted fragment passes; an unsorted one
    reports the exact adjacent descending-step count; equal adjacent ids
    (duplicates) are NOT descending steps; a null id folds to '' so a null
    mid-file registers one step and n_null_ids counts it; a single-row
    fragment is vacuously sorted; a 0-row fragment emits nothing (the SQL
    group-by contract)."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = tmp_path / "seq"
    d.mkdir()
    _write_id_frag(d, "frag-000.parquet", ["a-1", "a-2", "a-2", "b-9"])   # sorted, dup adjacent
    _write_id_frag(d, "frag-001.parquet", ["b-2", "a-1", "c-3", "b-0"])   # steps at rows 1 and 3
    _write_id_frag(d, "frag-002.parquet", ["a-1", None, "a-5"])           # null mid-file
    _write_id_frag(d, "frag-003.parquet", ["z-9"])                        # single row
    _write_id_frag(d, "frag-004.parquet", [])                             # empty

    out = tk.seq_sortedness_audit(str(d)).to_pandas().set_index("fragment")
    assert "frag-004.parquet" not in out.index
    f0 = out.loc["frag-000.parquet"]
    assert f0.n_rows == 4 and f0.n_desc_steps == 0 and bool(f0.sorted_asc)
    f1 = out.loc["frag-001.parquet"]
    assert f1.n_desc_steps == 2 and not bool(f1.sorted_asc)
    f2 = out.loc["frag-002.parquet"]
    assert f2.n_null_ids == 1 and f2.n_desc_steps == 1 and not bool(f2.sorted_asc)
    f3 = out.loc["frag-003.parquet"]
    assert f3.n_rows == 1 and bool(f3.sorted_asc)


def test_locate_ids_pruning_planted(ray_session, tmp_path):
    """Footer-range pruning is sound and effective: on an id-sorted corpus
    only fragments whose stats range can contain a target are opened; the
    pruned lookup equals a full-scan lookup (duplicate rows counted, absent
    targets absent); stats-less fragments are always scanned; all-null-id
    fragments are skipped."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = tmp_path / "seq"
    d.mkdir()
    files = []
    for k in range(6):  # fragment k owns ids k-0000..k-0049, sorted
        ids = sorted(f"id-{k:02d}-{i:04d}" for i in range(50))
        if k == 2:
            ids += [f"id-{k:02d}-0049"]  # duplicate of the last id
        files.append(_write_id_frag(d, f"frag-{k:03d}.parquet", sorted(ids)))
    files.append(_write_id_frag(d, "frag-006.parquet", ["zz-1"], write_statistics=False))
    files.append(_write_id_frag(d, "frag-007.parquet", [None, None]))  # all-null

    targets = ["id-02-0049", "id-04-0000", "id-99-0000"]  # 2 hits + 1 absent
    scan, skip = tk.locate_prune(sorted(files), targets)
    # fragments 2 and 4 hold targets; the stats-less fragment must be
    # scanned too; everything else is provably empty
    assert [f.split("/")[-1] for f in scan] == [
        "frag-002.parquet", "frag-004.parquet", "frag-006.parquet"
    ]
    assert "frag-007.parquet" in {f.split("/")[-1] for f in skip}

    out = tk.seq_locate_ids(str(d), targets=targets).to_pylist()
    assert out == [
        {"doc_id": "id-02-0049", "fragment": "frag-002.parquet", "n_rows": 2},
        {"doc_id": "id-04-0000", "fragment": "frag-004.parquet", "n_rows": 1},
    ]
    # pruning OFF (scan everything) must give the identical table
    assert tk.seq_locate_ids(str(d), targets=targets, prune=False).to_pylist() == out
    full = tk.seq_locate_ids(str(d), targets=targets + ["zz-1"]).to_pylist()
    assert full[:2] == out and full[2] == {
        "doc_id": "zz-1", "fragment": "frag-006.parquet", "n_rows": 1
    }


def test_documents_lang_drift_planted(ray_session, tmp_path):
    """Exact integer-KS arithmetic pinned by hand on a 12-row corpus with
    three langs (bin width 64; null/negative n_chars fold to bin -1):
    aa = 4×bin0, bb = {0:2, 1:2}, cc = {-1:2, 0:2} → ks(aa vs rest) =
    250,000 ppm, ks(bb vs rest) = ks(cc vs rest) = 500,000 ppm. A lang that
    is the WHOLE corpus has an empty complement → maximal 1,000,000 ppm."""
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.text import documents_lang_drift

    d = tmp_path / "c"
    d.mkdir()
    langs = ["aa"] * 4 + ["bb"] * 4 + ["cc"] * 4
    n_chars = [1, 10, 20, 63, 10, 20, 70, 100, None, -5, 5, 15]
    t = pa.table(
        {
            "doc_id": pa.array(range(12), type=pa.int64()),
            "text": pa.array(["x"] * 12, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array(["web"] * 12, type=pa.string()),
            "n_chars": pa.array(n_chars, type=pa.int64()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    out = documents_lang_drift(str(d), ks_ppm=300_000).to_pandas().set_index("lang")
    assert out.loc["aa"].ks_ppm == 250_000 and not out.loc["aa"].drifted
    assert out.loc["bb"].ks_ppm == 500_000 and bool(out.loc["bb"].drifted)
    assert out.loc["cc"].ks_ppm == 500_000 and bool(out.loc["cc"].drifted)
    assert (out.rows_lang == 4).all() and (out.rows_rest == 8).all()

    d2 = tmp_path / "single"
    d2.mkdir()
    pq.write_table(t.set_column(2, "lang", pa.array(["zz"] * 12)), str(d2 / "documents.parquet"))
    solo = documents_lang_drift(str(d2)).to_pylist()
    assert solo == [
        {"lang": "zz", "rows_lang": 12, "rows_rest": 0, "ks_ppm": 1_000_000,
         "drifted": True}
    ]


def test_events_type_drift_planted(ray_session, tmp_path):
    """A type that stops emitting mid-window drifts maximally vs the rest;
    a type matching the others' temporal profile drifts less; exact KS
    arithmetic pinned by hand per row below; null ts folds to bin -1 and a
    null-only type reads maximal drift."""
    import datetime as dt

    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.relational import (
        EVENTS_DRIFT_BIN_US,
        events_type_drift,
    )

    d = tmp_path / "c"
    d.mkdir()
    base = dt.datetime(2024, 1, 1)
    bin1 = base + dt.timedelta(microseconds=EVENTS_DRIFT_BIN_US)
    ts = [base, base, bin1, bin1,        # steady: 2 per bucket
          base, base, base, base,       # stopped: all in bucket 0
          None]                          # null ts → bin -1 (own type)
    types = ["steady"] * 4 + ["stopped"] * 4 + ["nullts"]
    t = pa.table(
        {
            "event_id": pa.array(range(9), type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array([1] * 9, type=pa.int64()),
            "event_type": pa.array(types, type=pa.string()),
            "value": pa.array([1.0] * 9, type=pa.float64()),
            "props": pa.array(["{}"] * 9, type=pa.string()),
        }
    )
    pq.write_table(t, str(d / "events.parquet"))
    out = events_type_drift(str(d), ks_ppm=300_000).to_pandas().set_index("event_type")
    # stopped vs rest {(-1):1, 0:2, 1:2}: na=4 nb=5; bins -1,0,1:
    # cum gaps |0*4... compute: bin -1: |0*5-1*4|=4; bin 0: |4*5-3*4|=8;
    # bin 1: |20-20|=0 → m=8 → 8e6/20 = 400,000 ppm
    assert out.loc["stopped"].ks_ppm == 400_000 and bool(out.loc["stopped"].drifted)
    # steady vs rest {(-1):1, 0:4}: bin -1: |0*5-1*4|=4; bin 0: |2*5-5*4|=10;
    # bin 1: |20-20|=0 → m=10 → 10e6/20 = 500,000 ppm
    assert out.loc["steady"].ks_ppm == 500_000
    # nullts vs rest: na=1 nb=8; bin -1: |1*8-0|=8 → m=8 → 8e6/8 = 1,000,000
    assert out.loc["nullts"].ks_ppm == 1_000_000


def test_locate_ids_long_id_stats_dropped(ray_session, tmp_path):
    """pyarrow omits doc_id min/max stats entirely when values exceed the
    statistics size ceiling — the range is then UNKNOWN and pruning must
    scan the fragment (soundness), still finding the target."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = tmp_path / "seq"
    d.mkdir()
    long_ids = ["p" * 5000 + f"{i:04d}" for i in range(5)]
    _write_id_frag(d, "frag-000.parquet", long_ids)
    _write_id_frag(d, "frag-001.parquet", ["a-1", "a-2"])  # normal stats

    target = long_ids[3]
    scan, skip = tk.locate_prune(
        sorted(str(d / f"frag-00{k}.parquet") for k in range(2)), [target]
    )
    assert [f.split("/")[-1] for f in scan] == ["frag-000.parquet"]
    assert [f.split("/")[-1] for f in skip] == ["frag-001.parquet"]
    out = tk.seq_locate_ids(str(d), targets=[target]).to_pylist()
    assert out == [{"doc_id": target, "fragment": "frag-000.parquet", "n_rows": 1}]


def test_pairreduce_size_col_survives_empty_blocks(ray_session, monkeypatch):
    """An all-empty block bundle must not poison a size_col reduce (review
    finding: the empty sentinel carried None in the sizes slot and
    np.concatenate died in ranges mixing it with real parts)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.state.pairreduce import cooccurrence_pairs

    full = pa.table(
        {
            "key": pa.array(["k1", "k1", "k2", "k2"], type=pa.string()),
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "n": pa.array([10, 20, 30, 40], type=pa.int64()),
        }
    )
    empty = full.slice(0, 0)
    ds = rd.from_arrow([full, empty, empty]).materialize()
    monkeypatch.setattr(exchange, "BLOCKS_PER_TASK", 1)
    out = cooccurrence_pairs(ds, "key", "doc_id", size_col="n").sort_values(
        ["id_a"]
    ).reset_index(drop=True)
    assert out["id_a"].tolist() == [1, 3]
    assert out["id_b"].tolist() == [2, 4]
    assert out["size_a"].tolist() == [10, 30] and out["size_b"].tolist() == [20, 40]


def test_pairverify_offset_shifted_list_blocks(ray_session):
    """A payload block whose list column carries a LEADING offset (offsets
    buffer starting past 0 over an absolutely-indexed values buffer — the
    shape a sliced single-chunk array keeps through the object store) must
    route the correct hash windows (review finding: zero-rebased gather
    shifted every window by offsets[0])."""
    import numpy as np
    import pyarrow as pa
    import ray

    from product_quality_check_ray.state.pairverify import (
        _route_payloads,
        _verify_range,
    )

    # values buffer has 4 junk leading slots; rows index it ABSOLUTELY
    values = pa.array(
        [99, 98, 97, 96, 10, 11, 12, 13, 10, 11, 12, 14], type=pa.uint64()
    )
    hashes = pa.ListArray.from_arrays(pa.array([4, 8, 12], type=pa.int32()), values)
    assert hashes.offsets.to_pylist()[0] == 4  # genuinely offset-shifted
    t = pa.table(
        {"doc_id": pa.array([1, 2], type=pa.int64()), "hashes": hashes}
    )
    id_a = np.array([1], dtype=np.int64)
    id_b = np.array([2], dtype=np.int64)
    # jaccard(1,2) over {10,11,12,13} vs {10,11,12,14} = 3/5 = 0.6
    docs = np.array([1, 2], dtype=np.int64)
    off = np.array([0, 1, 2], dtype=np.int64)
    inc_ref = ray.put((docs, off, np.array([0, 0], dtype=np.int64)))
    (part,) = ray.get(
        _route_payloads.remote([ray.put(t)], 1, "doc_id", "hashes", inc_ref)
    )
    out = ray.get(_verify_range.remote(0.0, (id_a, id_b), part)).to_pylist()[0]
    assert out["shared"] == 3 and out["n_a"] == 4 and out["n_b"] == 4
    assert out["jaccard"] == 0.6
