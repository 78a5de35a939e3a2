"""Scale-safe documents cleaning (VERDICT r3 findings #1/#2).

The drop set of ``clean_documents``/``clean_documents_full`` and the
near-dup component merge must not live on the driver at corpus scale:
- exact losers flow as a Dataset through the cap-aware anti-join;
- near-dup components come from hash-partitioned label propagation above
  the pair cap (``state/components``), driver union-find below it.
Every distributed path must match its driver path byte-for-byte — pinned
here by forcing the distributed paths with cap=0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _sorted_df(t):
    df = t.to_pandas() if not hasattr(t, "columns") else t
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_connected_components_path_equivalence(ray_session, monkeypatch):
    """Distributed label propagation (driver_cap=0) == driver union-find on
    a graph mixing cliques, a long chain (pointer-jump work), isolated
    pairs, and duplicate/self-referencing edges, at 2, 3 and 37 hash
    ranges."""
    from product_quality_check_ray.core import exchange
    from product_quality_check_ray.state.components import (
        connected_components,
        union_find_labels,
    )

    rng = np.random.default_rng(5)
    edges = []
    # 30 cliques of 2..8 vertices over ids spread far apart
    base = 0
    for k in range(30):
        n = int(rng.integers(2, 9))
        ids = base + rng.permutation(1000)[:n]
        for i in range(1, n):
            edges.append((ids[i - 1], ids[i]))
        edges.append((ids[0], ids[n - 1]))  # cycle closure
        base += 10_000
    # a 400-vertex chain — worst case for plain min-propagation
    chain = 1_000_000 + np.arange(400, dtype=np.int64)
    rng.shuffle(chain)
    for i in range(1, 400):
        edges.append((chain[i - 1], chain[i]))
    # duplicate edges + both orientations
    edges += edges[:50]
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)

    want = union_find_labels(a, b)
    # every label is the true component min, at any range count
    for r in (2, 3, 37):
        monkeypatch.setattr(exchange, "range_count", lambda ranges=None, cap=None, r=r: r)
        assert connected_components(a, b, driver_cap=0).equals(want)


def test_doc_near_dup_clusters_distributed_matches(ray_session):
    from product_quality_check_ray.pipelines.text import doc_near_dup_clusters

    drv = doc_near_dup_clusters(SF, threshold=0.6)
    dist = doc_near_dup_clusters(SF, threshold=0.6, driver_cap=0)
    assert dist.equals(drv)
    assert drv.num_rows > 0  # fixture non-vacuity


def test_clean_documents_forced_shuffle_paths_match(ray_session, monkeypatch):
    """cap=0 on BOTH the loser anti-join (broadcast→hash join) and the
    component merge (union-find→label propagation) yields the same cleaned
    corpus as the all-broadcast default."""
    from product_quality_check_ray.core import joins
    from product_quality_check_ray.pipelines.text import clean_documents

    want = _sorted_df(clean_documents(SF, near_dup_threshold=0.6).to_pandas())
    assert len(want) > 0
    monkeypatch.setattr(joins, "BROADCAST_KEY_CAP", 0)
    got = _sorted_df(
        clean_documents(SF, near_dup_threshold=0.6, driver_cap=0).to_pandas()
    )
    assert got.equals(want)


def test_clean_documents_full_loser_cap0_matches(ray_session):
    from product_quality_check_ray.pipelines.text import clean_documents_full

    want = _sorted_df(clean_documents_full(SF).to_pandas())
    got = _sorted_df(clean_documents_full(SF, loser_cap=0).to_pandas())
    assert len(want) > 0
    assert got.equals(want)


def _write_dupheavy(dirpath, n_unique=400, replicas=4) -> int:
    """Majority-duplicate corpus: every unique doc appears `replicas` times
    verbatim (distinct ids) → loser fraction = 1 - 1/replicas (75%)."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    rng = np.random.default_rng(17)
    from product_quality_check_ray.pipelines.text import STOPWORDS

    # Gopher-passing vocabulary: 3-5 char words + ~14% stopwords, 30-80
    # words per doc (rules: ≥25 words, mean word length 3-10, ≥1% stopwords)
    words = np.concatenate(
        [np.array([f"w{i}" for i in range(100, 5000)]), np.array(STOPWORDS * 80)]
    )
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(30, 80))))
        for _ in range(n_unique)
    ]
    rows_text, rows_id = [], []
    for r in range(replicas):
        rows_text.extend(texts)
        rows_id.extend(range(r * n_unique, (r + 1) * n_unique))
    t = pa.table(
        {
            "doc_id": pa.array(rows_id, type=pa.int64()),
            "text": pa.array(rows_text, type=pa.string()),
            "lang": pa.array(["en"] * len(rows_id), type=pa.string()),
            "source": pa.array(["web"] * len(rows_id), type=pa.string()),
            "n_chars": pa.array([len(s) for s in rows_text], type=pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(dirpath, "documents.parquet"))
    return n_unique * replicas


def test_dupheavy_corpus_losers_never_on_driver(ray_session, tmp_path, monkeypatch):
    """Majority-duplicate corpus (75% losers): with the broadcast cap at 0
    the whole clean runs through the shuffle anti-join — the driver never
    holds the drop set — and keeps exactly one copy per unique text."""
    from product_quality_check_ray.core import joins
    from product_quality_check_ray.pipelines import text as tx

    d = str(tmp_path / "dupheavy")
    total = _write_dupheavy(d, n_unique=400, replicas=4)

    losers_ds = tx.exact_loser_ids_ds(tx._docs(d, columns=["doc_id", "text"]))
    n_losers = losers_ds.count()
    assert n_losers == total - 400  # every non-min replica is a loser

    monkeypatch.setattr(joins, "BROADCAST_KEY_CAP", 0)
    kept = tx.dedup_exact(tx._docs(d)).to_pandas()
    assert len(kept) == 400
    # keepers are each group's min id → the first replica block 0..399
    assert sorted(kept["doc_id"]) == list(range(400))

    # the full composed clean also survives with a zero broadcast budget
    full = tx.clean_documents_full(d, loser_cap=0).to_pandas()
    assert 0 < len(full) <= 400
    assert full["doc_id"].between(0, 399).all()


def test_loser_ds_keeper_id_duplicated_rows(ray_session, tmp_path):
    """A fingerprint group whose MIN doc_id appears twice (fully duplicated
    row — the multi-writer re-upload case) must keep the min id OUT of the
    loser set; both paths must match the driver-set reference (code-review
    finding: drop_min removed only the first row of the sorted group, so
    the keeper id itself became a loser and the anti-join dropped the whole
    group)."""
    import os

    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines import text as tx

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([5, 5, 9, 7], type=pa.int64()),
            "text": pa.array(["same text x", "same text x", "same text x", "unique y"]),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(["web"] * 4),
            "n_chars": pa.array([11, 11, 11, 8], type=pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    ref = tx.exact_loser_ids(tx._docs(d, columns=["doc_id", "text"]))
    assert ref == {9}
    got = sorted(
        tx.exact_loser_ids_ds(tx._docs(d, columns=["doc_id", "text"]))
        .to_pandas()["doc_id"]
    )
    assert got == [9]
    kept = sorted(tx.dedup_exact(tx._docs(d)).to_pandas()["doc_id"])
    assert kept == [5, 5, 7]  # both keeper rows survive, loser 9 dropped


def test_boilerplate_strip_path_equivalence(ray_session):
    """doc_boilerplate_strip: cap=0 forces the distributed anti-join +
    per-doc groupby reassembly; must match the broadcast path exactly."""
    from product_quality_check_ray.pipelines.text import doc_boilerplate_strip

    a = _sorted_df(doc_boilerplate_strip(SF).to_pandas())
    b = _sorted_df(doc_boilerplate_strip(SF, cap=0).to_pandas())
    assert a.equals(b), "distributed path diverges from broadcast path"
    # non-vacuous: the fixture has cross-doc duplicated statements
    assert (a["n_removed"] > 0).any()
    assert (a["n_kept"] > 0).any()


def test_boilerplate_strip_within_doc_repeats_survive(ray_session, tmp_path):
    """df counts DISTINCT docs: a statement repeated only inside one doc is
    kept; the same statement across two docs is stripped from both."""
    from product_quality_check_ray.pipelines.text import doc_boilerplate_strip

    w = 12
    chorus = " ".join(f"c{i}" for i in range(w))
    versea = " ".join(f"a{i}" for i in range(w))
    verseb = " ".join(f"b{i}" for i in range(w))
    footer = " ".join(f"f{i}" for i in range(w))
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    f"{chorus} {versea} {chorus}",  # within-doc repeat only
                    f"{verseb} {footer}",
                    f"{footer}",
                ]
            ),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (
        doc_boilerplate_strip(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # chorus repeats only within doc 1 → kept; footer is in docs 2+3 → stripped
    assert out.loc[1, "clean_text"] == f"{chorus} {versea} {chorus}"
    assert out.loc[1, "n_removed"] == 0
    assert out.loc[2, "clean_text"] == verseb
    assert out.loc[2, "n_removed"] == 1
    assert out.loc[3, "clean_text"] == ""  # fully boilerplate, row survives
    assert out.loc[3, "n_kept"] == 0 and out.loc[3, "n_removed"] == 1


def test_boilerplate_strip_tiny_corpus_cap0(ray_session, tmp_path):
    """ADVICE r4 regression: at tiny corpus scale the distributed (cap=0)
    path sees (a) zero-column empty blocks from empty groupby hash
    partitions feeding Dataset.join, and (b) doc_id-hash ranges that
    receive zero totals rows (ranges >> docs).  Both crashed; both must
    now match the broadcast path exactly."""
    from product_quality_check_ray.pipelines.text import doc_boilerplate_strip

    w = 12
    footer = " ".join(f"f{i}" for i in range(w))
    versea = " ".join(f"a{i}" for i in range(w))
    verseb = " ".join(f"b{i}" for i in range(w))
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [f"{versea} {footer}", f"{verseb} {footer}", footer]
            ),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    a = _sorted_df(doc_boilerplate_strip(str(tmp_path)).to_pandas())
    b = _sorted_df(doc_boilerplate_strip(str(tmp_path), cap=0).to_pandas())
    assert a.equals(b), "tiny-corpus distributed path diverges"
    assert (a["n_removed"] > 0).any()


def test_span_anchor_exchange_reuse_identical(ray_session):
    """VERDICT r4 item 7: seq_lcs_pairs + seq_strip_dup_spans fed one
    shared span_anchor_exchange must equal their independent runs."""
    from product_quality_check_ray.pipelines import tokspans as ts

    pre = ts.span_anchor_exchange(SF)
    pairs_shared = ts.seq_lcs_pairs(SF, precomputed_anchors=pre).to_pandas()
    strip_shared = _sorted_df(
        ts.seq_strip_dup_spans(SF, precomputed_anchors=pre).to_pandas()
    )
    pairs = ts.seq_lcs_pairs(SF).to_pandas()
    strip = _sorted_df(ts.seq_strip_dup_spans(SF).to_pandas())
    assert pairs_shared.equals(pairs) and len(pairs) > 0
    assert strip_shared.equals(strip)
    assert (strip["n_removed"] > 0).any()


def test_bigram_lm_distributed_merge_identical(ray_session):
    """VERDICT r4 item 5: the DSIR/CCNet bigram LM built via the
    distributed groupby-Sum merge (the >cap path a 100× reference slice
    takes) must be byte-identical to the driver-side Arrow group_by merge."""
    import numpy as np

    from product_quality_check_ray.pipelines.textprep import build_bigram_lm

    a = build_bigram_lm(SF, distributed=False)
    b = build_bigram_lm(SF, distributed=True)
    assert a[0] == b[0] and a[0] > 0
    for i in (1, 2, 3, 4):
        assert np.array_equal(a[i], b[i])


def test_select_training_docs_consistency_and_path_equivalence(ray_session):
    """The capstone's admitted set must equal the intersection of its three
    component verdicts, and the above-cap join path (cap=0) must match the
    fused broadcast path exactly."""
    from product_quality_check_ray.pipelines.text import doc_boilerplate_strip
    from product_quality_check_ray.pipelines.textprep import (
        doc_ccnet_buckets,
        doc_dsir_select,
        select_training_docs,
    )

    out = _sorted_df(select_training_docs(SF).to_pandas())
    dsir = doc_dsir_select(SF).to_pandas()
    ccnet = doc_ccnet_buckets(SF).to_pandas()
    strip = doc_boilerplate_strip(SF).to_pandas()
    expect = set(dsir[dsir.selected]["doc_id"]) \
        & set(ccnet[ccnet.bucket.isin(["head", "middle"])]["doc_id"]) \
        & set(strip[strip.n_kept >= 1]["doc_id"])
    assert set(out["doc_id"]) == expect
    assert len(out) > 0
    # field fidelity against the components
    m = out.merge(ccnet, on="doc_id")
    assert (m["bucket_x"] == m["bucket_y"]).all()
    m2 = out.merge(strip, on="doc_id")
    assert (m2["clean_text_x"] == m2["clean_text_y"]).all()
    m3 = out.merge(dsir, on="doc_id")
    assert (m3["weight_millibits_x"] == m3["weight_millibits_y"]).all()

    b = _sorted_df(select_training_docs(SF, cap=0).to_pandas())
    assert out.equals(b), "join path diverges from fused path"
