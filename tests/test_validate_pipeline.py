"""Golden end-to-end + differential oracle + parallelism invariance + resume
(SURVEY.md §5 plan #2-#4)."""

import glob
import os

import numpy as np
import pyarrow.dataset as pds
import pytest

from product_quality_check_ray.checks.oracle_pandas import (
    oracle_duplicates,
    oracle_row_checks,
    oracle_source_hist,
)
from product_quality_check_ray.core.schema import (
    HIST_BIN_WIDTH,
    HIST_NUM_BINS,
    SEQUENCE_SCHEMA,
)
from product_quality_check_ray.datagen import load_injections
from product_quality_check_ray.pipelines.validate import (
    run_validation,
    violations_dataset,
)
from product_quality_check_ray.state import lineage as lin


@pytest.fixture(scope="module")
def run(ray_session, small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("val") / "out")
    report = run_validation(small_corpus, out, resume=False, wave_files=4)
    return small_corpus, out, report


def corpus_df(small_corpus_table):
    df = small_corpus_table.to_pandas()
    return df


def test_counts_match_pandas_oracle(run, small_corpus_table):
    _, _, report = run
    df = corpus_df(small_corpus_table)
    oracle = oracle_row_checks(df)
    got = report.check_counts()
    for check in oracle.columns:
        if check == "ok":
            continue
        assert got[check] == int(oracle[check].sum()), check
    assert report.global_stats["ok_rows"] == int(oracle["ok"].sum())


def test_duplicates_match_oracle(run, small_corpus_table):
    _, _, report = run
    df = corpus_df(small_corpus_table)
    exp = oracle_duplicates(df)
    assert report.duplicates == exp
    assert report.global_stats["dup_rows"] == sum(exp.values())


def test_injected_corruptions_flagged(run, small_corpus_table):
    seq_dir, out, report = run
    inj = load_injections(seq_dir)
    df = corpus_df(small_corpus_table)
    v = violations_dataset(out).to_pandas()
    flagged = set()
    for _, r in v.iterrows():
        for c in r["checks_failed"]:
            flagged.add((r["doc_id"] if r["doc_id"] is not None else f"@{r.name}", c))
    viol_ids = {r["doc_id"] for _, r in v.iterrows() if r["doc_id"] is not None}
    expected_kind = {
        "empty_tokens": "ntok_mismatch",
        "ntok_mismatch": "ntok_mismatch",
        "oov_token": "token_oov",
        "neg_token": "token_neg",
        "dup_doc_id": "dup_doc_id",
        "bad_source": "bad_source",
    }
    for kind, check in expected_kind.items():
        for row_idx in inj[kind]:
            doc = df["doc_id"].iloc[row_idx]
            assert doc in viol_ids, (kind, row_idx)
            assert (doc, check) in flagged, (kind, row_idx, check)
    assert len(inj["null_doc_id"]) == report.check_counts()["null_doc_id"]


def test_violation_rows_token_equality(run, small_corpus_table):
    """The driver's invariant: violation rows carry the original token arrays
    byte-for-byte."""
    _, out, _ = run
    df = corpus_df(small_corpus_table).set_index("doc_id", drop=False)
    v = violations_dataset(out).to_pandas()
    v_nonnull = v[v["doc_id"].notna()]
    for _, r in v_nonnull.iterrows():
        orig = df.loc[r["doc_id"]]
        if isinstance(orig, type(df)):  # duplicated doc_id → compare to any match
            assert any(
                np.array_equal(np.asarray(r["tokens"]), np.asarray(t))
                for t in orig["tokens"]
            )
        else:
            assert np.array_equal(np.asarray(r["tokens"]), np.asarray(orig["tokens"]))


def test_histograms_match_oracle(run, small_corpus_table):
    _, _, report = run
    df = corpus_df(small_corpus_table)
    exp = oracle_source_hist(df, HIST_BIN_WIDTH, HIST_NUM_BINS)
    for src, hist in exp.items():
        got = report.per_source[src]["hist"]
        assert np.array_equal(np.asarray(got), hist), src


def test_drift_flags_only_drifted_source(run):
    _, _, report = run
    assert report.drift["forums"]["drifted"] is True
    for src in ("web", "books", "code", "wiki"):
        assert report.drift[src]["drifted"] is False, (src, report.drift[src])


def test_parallelism_invariance(ray_session, small_corpus, tmp_path):
    """Same verdicts at different wave sizes (partition-count invariance,
    SURVEY.md §5 plan #5)."""
    r1 = run_validation(small_corpus, str(tmp_path / "a"), resume=False, wave_files=1)
    r2 = run_validation(small_corpus, str(tmp_path / "b"), resume=False, wave_files=8)
    assert r1.check_counts() == r2.check_counts()
    assert r1.duplicates == r2.duplicates
    for src in r1.per_source:
        assert np.array_equal(
            np.asarray(r1.per_source[src]["hist"]), np.asarray(r2.per_source[src]["hist"])
        )
    assert {k: v["drifted"] for k, v in r1.drift.items()} == {
        k: v["drifted"] for k, v in r2.drift.items()
    }
    va = violations_dataset(str(tmp_path / "a")).to_pandas()
    vb = violations_dataset(str(tmp_path / "b")).to_pandas()
    ka = sorted(map(str, zip(va["doc_id"], va["n_tok"], va["checks_failed"].map(list))))
    kb = sorted(map(str, zip(vb["doc_id"], vb["n_tok"], vb["checks_failed"].map(list))))
    assert ka == kb


def test_resume_skips_completed_partitions(ray_session, small_corpus, tmp_path):
    """Kill after k waves → restart skips completed partitions and converges
    to the uninterrupted output (SURVEY.md §5 plan #4)."""
    out = str(tmp_path / "out")
    files = sorted(glob.glob(os.path.join(small_corpus, "frag-*.parquet")))

    # simulate a killed run: process only the first 4 fragments (one wave)
    run_partial = run_validation
    try:
        run_partial(
            os.path.join(small_corpus, "frag-0000[0-3].parquet"),
            out,
            resume=False,
            wave_files=4,
            uniqueness=False,
        )
    except RuntimeError:
        pass
    done_before = set(lin.all_lineage(out))
    assert len(done_before) == 4

    fingerprints = {
        pid: os.path.getmtime(lin.lineage_path(out, pid)) for pid in done_before
    }
    report = run_validation(small_corpus, out, resume=True, wave_files=4)
    # completed partitions were not re-validated (lineage files untouched)
    for pid, mtime in fingerprints.items():
        assert os.path.getmtime(lin.lineage_path(out, pid)) == mtime
    assert len(report.partitions) == len(files)

    # equals an uninterrupted run
    full = run_validation(small_corpus, str(tmp_path / "full"), resume=False)
    assert report.check_counts() == full.check_counts()
    assert report.duplicates == full.duplicates
    v1 = violations_dataset(out).to_pandas()
    v2 = violations_dataset(str(tmp_path / "full")).to_pandas()
    assert sorted(map(str, v1["doc_id"])) == sorted(map(str, v2["doc_id"]))


def test_violation_schema(run):
    _, out, _ = run
    v = violations_dataset(out)
    sch = v.schema()
    names = sch.names
    for col in SEQUENCE_SCHEMA.names:
        assert col in names
    assert "ok" in names and "checks_failed" in names


def test_prescreen_run_identical(ray_session, small_corpus, tmp_path):
    """prescreen=True skips footer-proven checks per fragment; because the
    proofs are sound, the report, per-partition verdicts and violation ROWS
    must be bit-identical to a full run on the same (corrupted) corpus."""
    import pandas as pd

    out_a = str(tmp_path / "full")
    out_b = str(tmp_path / "pre")
    rep_a = run_validation(small_corpus, out_a, resume=False, wave_files=4)
    rep_b = run_validation(
        small_corpus, out_b, resume=False, wave_files=4, prescreen=True
    )
    assert rep_a.check_counts() == rep_b.check_counts()
    assert rep_a.total_rows == rep_b.total_rows
    assert {p: v["pass"] for p, v in rep_a.partitions.items()} == {
        p: v["pass"] for p, v in rep_b.partitions.items()
    }
    assert rep_a.drift == rep_b.drift

    def viol_df(out):
        ds = violations_dataset(out)
        df = ds.to_pandas()
        df["tokens"] = df["tokens"].map(
            lambda v: None if v is None else tuple(int(x) for x in v)
        )
        return df.sort_values(
            ["doc_id", "tokens", "n_tok", "source"], na_position="first"
        ).reset_index(drop=True)

    a, b = viol_df(out_a), viol_df(out_b)
    pd.testing.assert_frame_equal(
        a.drop(columns=["checks_failed"]), b.drop(columns=["checks_failed"])
    )
    assert a["checks_failed"].map(tuple).tolist() == b["checks_failed"].map(tuple).tolist()


def test_incremental_revalidation_of_evolved_corpus(ray_session, tmp_path):
    """Resume against an EVOLVED corpus = incremental re-validation.

    Between two runs into the same out_dir the corpus gains a fragment,
    loses a fragment, and has one fragment rewritten in place. The rerun
    must (a) skip untouched fragments (lineage files untouched), (b) drop
    the removed fragment's ghost lineage + violation rows
    (``lineage.gc_stale_partitions``), and (c) converge to the exact output
    of a fresh full run on the evolved corpus — including the ``report``
    CLI's totals, which read the out_dir as truth."""
    import shutil

    import pyarrow.parquet as pq

    from product_quality_check_ray.datagen import write_sequences

    corpus = write_sequences(str(tmp_path / "seq"), 2_000, num_fragments=8)
    out = str(tmp_path / "out")
    run_validation(corpus, out, resume=False, wave_files=4, uniqueness=False)

    frags = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))
    removed, rewritten = frags[1], frags[3]
    added = os.path.join(corpus, "frag-99999.parquet")
    removed_pid = lin.part_id_for(removed)
    # evolve: drop one fragment, rewrite one (first half only — content AND
    # fingerprint change), add one (copy of an untouched fragment under a
    # new path = a brand-new partition id)
    shutil.copy(frags[5], added)
    t = pq.read_table(rewritten)
    os.remove(removed)
    pq.write_table(t.slice(0, len(t) // 2), rewritten)

    untouched = [f for f in frags if f not in (removed, rewritten)]
    mtimes = {
        f: os.path.getmtime(lin.lineage_path(out, lin.part_id_for(f)))
        for f in untouched
    }
    rep = run_validation(corpus, out, resume=True, wave_files=4, uniqueness=False)
    for f, m in mtimes.items():
        assert os.path.getmtime(lin.lineage_path(out, lin.part_id_for(f))) == m
    # ghost state of the removed fragment is gone everywhere
    assert removed_pid not in lin.all_lineage(out)
    assert not os.path.exists(lin.violations_dir(out, removed_pid))

    fresh = run_validation(
        corpus, str(tmp_path / "fresh"), resume=False, wave_files=4, uniqueness=False
    )
    assert rep.check_counts() == fresh.check_counts()
    assert rep.total_rows == fresh.total_rows
    assert set(rep.partitions) == set(fresh.partitions)
    v1 = violations_dataset(out).to_pandas()
    v2 = violations_dataset(str(tmp_path / "fresh")).to_pandas()
    assert sorted(map(str, v1["doc_id"])) == sorted(map(str, v2["doc_id"]))

    # the report CLI aggregates ALL recorded partitions — with GC its totals
    # now equal the evolved corpus's truth
    recs = lin.all_lineage(out)
    assert sum(r["processed_rows"] for r in recs.values()) == fresh.total_rows
    assert sum(r["viol_rows"] for r in recs.values()) == len(v2)


def test_fail_fast_budget(ray_session, tmp_path):
    """fail_fast_violations aborts between waves once recorded row
    violations exceed the budget: completed partitions keep their lineage,
    no run record is written, a rerun with the same budget aborts from the
    SEED (kept partitions' violations) without doing new work, and a rerun
    without the budget resumes to the exact full-run output."""
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import FailFastExceeded

    corpus = write_sequences(str(tmp_path / "seq"), 2_000, num_fragments=8)
    out = str(tmp_path / "out")
    with pytest.raises(FailFastExceeded) as ei:
        run_validation(
            corpus, out, resume=False, wave_files=1, uniqueness=False,
            fail_fast_violations=0,
        )
    assert ei.value.viol_rows > 0 and ei.value.budget == 0
    done = lin.all_lineage(out)
    assert 0 < len(done) < 8  # stopped early, lineage intact
    assert not os.path.exists(lin.run_success_path(out))

    # same budget on resume: the seed alone exceeds it — aborts before any
    # wave, so no new lineage appears
    with pytest.raises(FailFastExceeded):
        run_validation(
            corpus, out, resume=True, wave_files=1, uniqueness=False,
            fail_fast_violations=0,
        )
    assert set(lin.all_lineage(out)) == set(done)

    # rerun WITHOUT the budget: resumes the remainder, equals a fresh run
    rep = run_validation(corpus, out, resume=True, wave_files=4, uniqueness=False)
    full = run_validation(
        corpus, str(tmp_path / "full"), resume=False, uniqueness=False
    )
    assert rep.check_counts() == full.check_counts()
    assert rep.total_rows == full.total_rows
    v1 = violations_dataset(out).to_pandas()
    v2 = violations_dataset(str(tmp_path / "full")).to_pandas()
    assert sorted(map(str, v1["doc_id"])) == sorted(map(str, v2["doc_id"]))


def test_sampled_check_counts_matches_naive(ray_session, tmp_path):
    """The content-keyed sampled health probe equals a per-row naive replay:
    same md5(canon) sampling decision, same check predicates
    (oracle_row_checks), same per-source rollup — on a corrupted corpus.
    Also pins the expected ~15.6% rate within loose bounds (the sample is
    deterministic, so this can't flake)."""
    import hashlib

    import pandas as pd

    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.seq_queries import (
        SAMPLE_HEX_CUTOFF,
        seq_sampled_check_counts,
    )

    corpus = write_sequences(str(tmp_path / "seq"), 2_000, num_fragments=4)
    files = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))
    df = pds.dataset(files).to_table().to_pandas()

    def canon(row):
        did = row["doc_id"]
        did = "~N~" if did is None or (isinstance(did, float) and pd.isna(did)) else did
        toks = row["tokens"]
        if toks is None or (isinstance(toks, float) and pd.isna(toks)):
            tc = "~N~"
        else:
            tc = ",".join("-1" if pd.isna(x) else str(int(x)) for x in toks)
        return f"{did}|{tc}"

    keep = df.apply(
        lambda r: hashlib.md5(canon(r).encode()).hexdigest()[:2] < SAMPLE_HEX_CUTOFF,
        axis=1,
    )
    sampled = df[keep].reset_index(drop=True)
    assert 0.10 < len(sampled) / len(df) < 0.22  # deterministic, ~15.6%

    flags = oracle_row_checks(sampled)
    exp = pd.DataFrame({"source": sampled["source"]})
    for c in flags.columns:
        if c != "ok":
            exp[c] = flags[c].astype("int64")
    exp["rows"] = 1
    exp["viol_rows"] = (~flags["ok"]).astype("int64")
    exp = exp.groupby("source", dropna=False, as_index=False).sum().sort_values("source")

    got = seq_sampled_check_counts(corpus).to_pandas()
    assert list(got["source"]) == list(exp["source"])
    for c in exp.columns:
        if c == "source":
            continue
        assert got[c].tolist() == exp[c].tolist(), c


def test_warn_severity_demotion(ray_session, small_corpus, tmp_path):
    """warn_checks demotes named checks to advisory: per-check counts and
    checks_failed evidence are UNCHANGED, but warn-only rows pass — absent
    from the violations sink and viol_rows, present in the clean sink, and
    partition pass/fail reflects only fail-class checks. Empty warn set is
    bit-identical to the default; unknown names fail loudly."""
    base_out = str(tmp_path / "base")
    warn_out = str(tmp_path / "warn")
    base = run_validation(small_corpus, base_out, resume=False, write_clean=True)
    rep = run_validation(
        small_corpus, warn_out, resume=False, write_clean=True,
        warn_checks=["token_oov", "bad_source"],
    )
    # severity never changes WHAT fires, only what fails
    assert rep.check_counts() == base.check_counts()

    def _viol_rows(report):
        return sum(v["viol_rows"] for v in report.partitions.values())

    warn_only = 0
    vd = violations_dataset(base_out)
    for b in vd.iter_batches(batch_format="pandas"):
        warn_only += sum(
            1 for fl in b["checks_failed"]
            if set(fl) <= {"token_oov", "bad_source"}
        )
    assert warn_only > 0  # non-vacuous on the corrupted fixture
    assert _viol_rows(rep) == _viol_rows(base) - warn_only

    # the demoted rows' violation classes never reach the warn run's sink
    wv = violations_dataset(warn_out)
    for b in wv.iter_batches(batch_format="pandas"):
        for fl in b["checks_failed"]:
            assert not set(fl) <= {"token_oov", "bad_source"}
        # evidence still lists warn names on rows that fail a fail-class
        # check too — annotation is unchanged

    # clean + violations still partition the input exactly
    import glob as _g

    import pyarrow.dataset as _pds

    n_clean = _pds.dataset(
        _g.glob(os.path.join(warn_out, "clean", "part=*", "*.parquet"))
    ).count_rows()
    assert n_clean + _viol_rows(rep) == rep.total_rows

    with pytest.raises(ValueError, match="unknown checks"):
        run_validation(
            small_corpus, str(tmp_path / "bad"), resume=False,
            warn_checks=["nope"],
        )


def test_custom_reference_histogram_loop(ray_session, tmp_path):
    """The corpus-evolution drift loop: a run's observed histograms, saved
    and fed back as the next run's reference, yield zero drift against the
    same corpus; a corpus whose one source's lengths shift drifts against
    the first run's observed reference; save/load round-trips through the
    dimension file (CLI --export-hist / --ref-hist path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.sources.dimensions import (
        load_reference_histograms,
        save_reference_histograms,
    )

    def corpus(dirname, n_tok_web):
        d = tmp_path / dirname
        d.mkdir()
        rows = 600
        toks = [[1] * n_tok_web if i % 2 == 0 else [1] * 40 for i in range(rows)]
        t = pa.table(
            {
                "doc_id": pa.array([f"d-{i:012d}" for i in range(rows)]),
                "tokens": pa.array(toks, type=pa.list_(pa.int32())),
                "n_tok": pa.array([len(x) for x in toks], type=pa.int32()),
                "source": pa.array(
                    ["web" if i % 2 == 0 else "books" for i in range(rows)]
                ),
            }
        )
        pq.write_table(t, str(d / "frag-00000.parquet"))
        return str(d)

    c1 = corpus("v1", n_tok_web=100)
    rep1 = run_validation(c1, str(tmp_path / "o1"), resume=False)
    ref_path = str(tmp_path / "ref.parquet")
    save_reference_histograms(ref_path, rep1.observed_hists)
    loaded = load_reference_histograms(ref_path)

    # self-reference: identical distributions → no source drifts
    rep1b = run_validation(
        c1, str(tmp_path / "o1b"), resume=False, reference_hists=loaded
    )
    assert rep1b.drift and not any(v["drifted"] for v in rep1b.drift.values())

    # web lengths shift 100 → 900; books unchanged → only web drifts
    c2 = corpus("v2", n_tok_web=900)
    rep2 = run_validation(
        c2, str(tmp_path / "o2"), resume=False, reference_hists=loaded
    )
    assert rep2.drift["web"]["drifted"] and not rep2.drift["books"]["drifted"]


def test_resume_invalidates_on_config_change(ray_session, small_corpus, tmp_path):
    """A rerun of the SAME out_dir under a DIFFERENT check config must
    re-validate (old-config partitions would otherwise mix into the new
    report); an unchanged config still resumes (lineage untouched)."""
    import glob as _g
    import os as _os

    out = str(tmp_path / "out")
    rep1 = run_validation(small_corpus, out, resume=False)
    v1 = sum(v["viol_rows"] for v in rep1.partitions.values())
    lineage = sorted(_g.glob(_os.path.join(out, "lineage", "*.json")))
    mtimes = {p: _os.path.getmtime(p) for p in lineage}

    # unchanged config: resume keeps every partition (mtimes identical)
    rep2 = run_validation(small_corpus, out, resume=True)
    assert {p: _os.path.getmtime(p) for p in lineage} == mtimes
    assert sum(v["viol_rows"] for v in rep2.partitions.values()) == v1

    # severity change: resume must re-validate; verdicts equal a FRESH run
    rep3 = run_validation(
        small_corpus, out, resume=True, warn_checks=["token_oov", "bad_source"]
    )
    fresh = run_validation(
        small_corpus, str(tmp_path / "fresh"), resume=False,
        warn_checks=["token_oov", "bad_source"],
    )
    v3 = sum(v["viol_rows"] for v in rep3.partitions.values())
    vf = sum(v["viol_rows"] for v in fresh.partitions.values())
    assert v3 == vf < v1
    assert rep3.check_counts() == fresh.check_counts()

    # and switching BACK also re-validates (digest mismatch, not ordering)
    rep4 = run_validation(small_corpus, out, resume=True)
    assert sum(v["viol_rows"] for v in rep4.partitions.values()) == v1


def test_resume_clears_stale_duplicate_files(ray_session, tmp_path):
    """The duplicate phase is global-per-run: after a resumed run whose
    corpus no longer contains a duplicate, the KEPT partition's old dup-*
    files must not resurface phantom duplicate violations (review finding:
    violations_dataset / report read the out_dir as truth)."""
    import glob as _g
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.validate import (
        run_validation,
        violations_dataset,
    )

    def tbl(ids):
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.string()),
                "tokens": pa.array([[1, 2]] * len(ids), type=pa.list_(pa.int32())),
                "n_tok": pa.array([2] * len(ids), type=pa.int32()),
                "source": pa.array(["web"] * len(ids), type=pa.string()),
            }
        )

    d = str(tmp_path / "c")
    os.makedirs(d)
    fa, fb = os.path.join(d, "frag-00000.parquet"), os.path.join(d, "frag-00001.parquet")
    pq.write_table(tbl([f"a-{i:012d}" for i in range(8)] + ["x-000000000001"]), fa)
    pq.write_table(tbl([f"b-{i:012d}" for i in range(8)] + ["x-000000000001"]), fb)
    out = str(tmp_path / "out")
    rep1 = run_validation(d, out)
    assert rep1.duplicates == {"x-000000000001": 2}
    assert len(_g.glob(os.path.join(out, "violations", "part=*", "dup-*.parquet"))) == 2

    # rewrite B without the duplicate; A is untouched → kept on resume
    pq.write_table(tbl([f"b-{i:012d}" for i in range(8)]), fb)
    rep2 = run_validation(d, out)
    assert rep2.duplicates == {}
    assert _g.glob(os.path.join(out, "violations", "part=*", "dup-*.parquet")) == []
    v = violations_dataset(out)
    assert v is None or v.count() == 0


def test_duplicate_sink_conforms_schema(ray_session, tmp_path):
    """dup-* files share the rc- sink's declared schema: a corpus stored
    with int64 n_tok must still yield a readable violations dataset (review
    finding: mixed int32/int64 schemas broke the read)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from product_quality_check_ray.pipelines.validate import (
        run_validation,
        violations_dataset,
    )

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array(
                [f"d-{i:012d}" for i in range(8)] + ["x-000000000001", "x-000000000001"],
                type=pa.string(),
            ),
            # int64 n_tok + a null doc_id-free rc violation via mismatch
            "tokens": pa.array([[1, 2]] * 9 + [[1, 2, 3]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 9 + [9], type=pa.int64()),
            "source": pa.array(["web"] * 10, type=pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    out = str(tmp_path / "out")
    rep = run_validation(d, out)
    assert rep.duplicates == {"x-000000000001": 2}
    v = violations_dataset(out).to_pandas()  # must not raise on mixed schemas
    assert len(v) == 3  # 2 dup rows + 1 ntok_mismatch row
    checks = sorted(c for row in v["checks_failed"] for c in row)
    assert checks == ["dup_doc_id", "dup_doc_id", "ntok_mismatch"]
