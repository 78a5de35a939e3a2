"""Property/robustness tests: permutation invariance, bad inputs, CSV dims."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_permutation_invariance(ray_session, tmp_path):
    """Shuffled row placement across fragments ⇒ identical verdict sets
    (SURVEY.md §5 property tests; §7.4 'no order-dependent logic')."""
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import run_validation

    seq = write_sequences(str(tmp_path / "seq"), 3000, seed=21, num_fragments=4)
    files = sorted(__import__("glob").glob(seq + "/frag-*.parquet"))
    full = pa.concat_tables([pq.read_table(f) for f in files])
    rng = np.random.default_rng(0)
    perm = rng.permutation(full.num_rows)
    shuffled = full.take(pa.array(perm))
    d2 = tmp_path / "seq_perm"
    d2.mkdir()
    # different fragment count AND row order
    bounds = np.linspace(0, full.num_rows, 6).astype(int)
    for i in range(5):
        pq.write_table(shuffled.slice(bounds[i], bounds[i + 1] - bounds[i]), str(d2 / f"frag-{i:05d}.parquet"))

    r1 = run_validation(seq, str(tmp_path / "o1"))
    r2 = run_validation(str(d2), str(tmp_path / "o2"))
    assert r1.check_counts() == r2.check_counts()
    assert r1.duplicates == r2.duplicates
    assert {s: v["drifted"] for s, v in r1.drift.items()} == {
        s: v["drifted"] for s, v in r2.drift.items()
    }
    # violation doc_id multisets equal
    from product_quality_check_ray.pipelines.validate import violations_dataset

    v1 = sorted(violations_dataset(str(tmp_path / "o1")).to_pandas()["doc_id"].fillna("∅"))
    v2 = sorted(violations_dataset(str(tmp_path / "o2")).to_pandas()["doc_id"].fillna("∅"))
    assert v1 == v2


def test_empty_input_dir_raises(ray_session, tmp_path):
    from product_quality_check_ray.pipelines.validate import run_validation

    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        run_validation(str(empty), str(tmp_path / "out"))


def test_wrong_schema_raises(ray_session, tmp_path):
    from product_quality_check_ray.pipelines.validate import run_validation

    bad = pa.table({"doc_id": pa.array(["a", "b"]), "n_tok": pa.array([1, 2], type=pa.int32())})
    d = tmp_path / "bad"
    d.mkdir()
    pq.write_table(bad, str(d / "frag-00000.parquet"))
    with pytest.raises(Exception, match="missing required columns"):
        run_validation(str(d), str(tmp_path / "out"))


def test_allowlist_csv_loader(tmp_path):
    from product_quality_check_ray.sources.dimensions import (
        build_check_ctx,
        load_allowlist_csv,
    )

    p = tmp_path / "allow.csv"
    p.write_text("source,status,max_n_tok\nweb,allowed,2048\nbooks,allowed,1024\n")
    rows = load_allowlist_csv(str(p))
    ctx = build_check_ctx(rows)
    assert ctx["allowed_sources"] == frozenset({"web", "books"})
    assert ctx["max_n_tok"]["books"] == 1024

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing required columns"):
        load_allowlist_csv(str(bad))


def test_rounding_matches_duckdb_on_random_values():
    import duckdb

    from product_quality_check_ray.core.rounding import round_half_away

    rng = np.random.default_rng(33)
    vals = np.concatenate(
        [
            rng.uniform(-1e6, 1e6, 200),
            np.round(rng.uniform(-100, 100, 200), 3),  # many .xx5 boundaries
            np.array([2.675, 1.005, -2.675, 0.125, 2.5]),
        ]
    )
    con = duckdb.connect()
    for d in (0, 2, 4, 6):
        got = round_half_away(vals, d)
        want = np.array(
            [
                r[0]
                for r in con.execute(
                    "SELECT round(v, ?) FROM (SELECT unnest(?::DOUBLE[]) AS v)",
                    [d, list(map(float, vals))],
                ).fetchall()
            ]
        )
        assert np.array_equal(got, want), f"decimals={d}"


def test_reference_histogram_dimension_roundtrip(tmp_path):
    from product_quality_check_ray.checks.drift import drift_verdicts
    from product_quality_check_ray.sources.dimensions import (
        load_reference_histograms,
        reference_histograms_dim,
        save_reference_histograms,
    )

    p = str(tmp_path / "ref_hist.parquet")
    save_reference_histograms(p)
    loaded = load_reference_histograms(p)
    orig = reference_histograms_dim()
    assert set(loaded) == set(orig)
    for s in orig:
        assert np.array_equal(loaded[s], orig[s])
    # verdicts from the loaded dimension == from the in-memory one
    v1 = drift_verdicts(orig, orig)
    v2 = drift_verdicts(orig, loaded)
    assert v1 == v2
    with pytest.raises(ValueError, match="missing columns"):
        bad = tmp_path / "bad.parquet"
        pq.write_table(pa.table({"x": [1]}), str(bad))
        load_reference_histograms(str(bad))


def test_reference_histogram_dimension_is_cached_read_only():
    from product_quality_check_ray.datagen import reference_histograms
    from product_quality_check_ray.sources.dimensions import reference_histograms_dim

    a, b = reference_histograms_dim(), reference_histograms_dim()
    fresh = reference_histograms(0)
    assert a is not b and set(a) == set(b) == set(fresh)
    for s in fresh:
        assert np.array_equal(a[s], fresh[s]) and np.array_equal(b[s], fresh[s])
        with pytest.raises(ValueError, match="read-only"):
            a[s][0] += 1
    a.pop(next(iter(a)))  # the dict is the caller's own
    assert set(reference_histograms_dim()) == set(fresh)


def test_lineage_files_hold_json_dumps_bytes(tmp_path):
    import json

    from product_quality_check_ray.state import lineage as lin

    rec = {"engine_version": lin.ENGINE_VERSION, "x": [1, 2.5, None], "s": "\x00null é", "n": {"a": -3}}
    lin.write_lineage(str(tmp_path), "p-1", rec)
    lin.write_run_record(str(tmp_path), rec)
    want = json.dumps(rec).encode()
    assert open(lin.lineage_path(str(tmp_path), "p-1"), "rb").read() == want
    assert open(lin.run_success_path(str(tmp_path)), "rb").read() == want


def test_inner_null_token_flags_domain_check():
    """Null ELEMENT inside a token list → token_neg flags, OOV still exact
    (regression: NaN float64 path corrupted both domain checks)."""
    from product_quality_check_ray.checks.row_checks import (
        ROW_CHECK_NAMES,
        row_check_matrix,
    )
    from product_quality_check_ray.sources.dimensions import build_check_ctx

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c"], type=pa.string()),
            "tokens": pa.array(
                [[1, None, 2], [99999, None], [1, 2, 3]], type=pa.list_(pa.int32())
            ),
            "n_tok": pa.array([3, 2, 3], type=pa.int32()),
            "source": pa.array(["web", "web", "web"], type=pa.string()),
        }
    )
    mat = row_check_matrix(t, build_check_ctx())
    neg = ROW_CHECK_NAMES.index("token_neg")
    oov = ROW_CHECK_NAMES.index("token_oov")
    assert mat[0, neg] and mat[1, neg] and not mat[2, neg]
    assert mat[1, oov] and not mat[0, oov] and not mat[2, oov]


def test_chi2_counts_zero_expectation_tail():
    """Observed mass in zero-expected tail bins must register as drift
    (regression: the tail fold dropped it)."""
    from product_quality_check_ray.checks.drift import chi2_critical, chi2_stat

    observed = np.array([100.0, 100.0, 10.0])
    expected = np.array([0.5, 0.5, 0.0])
    stat, dof = chi2_stat(observed, expected)
    assert stat > chi2_critical(dof)


def test_part_id_distinct_for_same_basename(tmp_path):
    from product_quality_check_ray.state.lineage import part_id_for

    a = tmp_path / "a" / "part-0.parquet"
    b = tmp_path / "b" / "part-0.parquet"
    assert part_id_for(str(a)) != part_id_for(str(b))
    assert part_id_for(str(a)) == part_id_for(str(a))


def test_tdigest_weighted_add_filters_nonfinite_pairs():
    from product_quality_check_ray.state.sketches import TDigest

    td = TDigest().add(np.array([1.0, np.nan, 3.0]), np.array([2.0, 5.0, 1.0]))
    assert td.count == 3.0  # nan's weight 5 must NOT be counted
    q = td.quantile(0.5)
    assert 1.0 <= q <= 3.0


def test_minhash_signature_properties():
    """Identical texts → identical signatures; signatures have full 64-bit
    spread (regression: modular overflow + crc affinity)."""
    from product_quality_check_ray.pipelines.text import MinHashStage

    st = MinHashStage()
    s1 = st.signature("the quick brown fox jumps over the lazy dog again")
    s2 = st.signature("the quick brown fox jumps over the lazy dog again")
    s3 = st.signature("an entirely different document about sorting engines")
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert s1.dtype == np.uint64 and (s1 > np.uint64(1 << 40)).any()


def test_multidir_inputs_same_basenames(ray_session, tmp_path):
    """Fragments with identical basenames in different directories must all
    be validated and reported (regression: basename-keyed partition ids)."""
    import glob
    import shutil

    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import run_validation

    seq = write_sequences(str(tmp_path / "seq"), 2000, seed=8, num_fragments=4)
    files = sorted(glob.glob(seq + "/frag-*.parquet"))
    a = tmp_path / "multi" / "a"
    b = tmp_path / "multi" / "b"
    a.mkdir(parents=True)
    b.mkdir(parents=True)
    # same basenames on purpose: a/frag-0000{0,1}, b/frag-0000{0,1}
    shutil.copy(files[0], a / "frag-00000.parquet")
    shutil.copy(files[1], a / "frag-00001.parquet")
    shutil.copy(files[2], b / "frag-00000.parquet")
    shutil.copy(files[3], b / "frag-00001.parquet")

    rep = run_validation(str(tmp_path / "multi" / "*" / "*.parquet"), str(tmp_path / "out"))
    full = run_validation(seq, str(tmp_path / "out_ref"))
    assert rep.total_rows == 2000
    assert len(rep.partitions) == 4
    assert rep.check_counts() == full.check_counts()


def test_write_clean_sink(ray_session, tmp_path):
    """Validated-corpus sink: clean + row-check-violating rows partition the
    input exactly; resume does not duplicate clean output."""
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import (
        clean_dataset,
        run_validation,
        violations_dataset,
    )

    seq = write_sequences(str(tmp_path / "seq"), 2000, seed=14, num_fragments=4)
    out = str(tmp_path / "out")
    rep = run_validation(seq, out, write_clean=True, uniqueness=False)
    clean = clean_dataset(out)
    viol = violations_dataset(out)
    n_clean = clean.count()
    n_viol = viol.count()
    assert n_clean + n_viol == 2000
    assert rep.total_rows == 2000
    # clean rows preserve the input schema exactly (no verdict columns)
    assert set(clean.schema().names) == {"doc_id", "tokens", "n_tok", "source"}
    # resumed run: everything complete → no rewrite, same counts
    run_validation(seq, out, write_clean=True, uniqueness=False)
    assert clean_dataset(out).count() == n_clean


def test_resolve_sequences_direct_dir(ray_session, tmp_path):
    """A dir that already holds frag-*.parquet is used directly (user-facing
    path); an sf-tag dir goes through the fixture generator."""
    from product_quality_check_ray.datagen import resolve_sequences, write_sequences
    from product_quality_check_ray.pipelines import tokens as tk

    out = write_sequences(str(tmp_path / "corpus"), 1000, seed=3, num_fragments=2)
    files = resolve_sequences(out)
    assert len(files) == 2 and all(f.startswith(out) for f in files)
    # a token op runs against the direct dir end-to-end
    assert tk.seq_chunk_windows(out).count() > 0


def test_cli_prep_subcommand(tmp_path):
    import json as _json
    import subprocess
    import sys

    from product_quality_check_ray.datagen import write_sequences

    corpus = write_sequences(str(tmp_path / "c"), 1000, seed=4, num_fragments=2)
    out = str(tmp_path / "plan")
    r = subprocess.run(
        [
            sys.executable,
            "-m",
            "product_quality_check_ray",
            "prep",
            "--input",
            corpus,
            "--out",
            out,
            "--num-cpus",
            "4",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["rows_packed"] > 0 and line["packs"] > 0


def _write_user_corpus(dirpath, n=400):
    """A NON-fixture corpus in the north-star shape: arbitrary doc_id format
    (no 12-digit suffix), no _injections.json marker, one planted exact
    duplicate pair."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    rng = np.random.default_rng(7)
    rows = []
    for i in range(n):
        toks = rng.integers(0, 32000, size=int(rng.integers(4, 40))).tolist()
        rows.append((f"user/doc_{i}", toks, len(toks), "web"))
    rows.append(("user/dup_a", [1, 2, 3, 4, 5, 6, 7, 8], 8, "web"))
    rows.append(("user/dup_b", [1, 2, 3, 4, 5, 6, 7, 8], 8, "web"))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
            "source": pa.array([r[3] for r in rows]),
        }
    )
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), os.path.join(dirpath, "frag-00000.parquet"))
    pq.write_table(t.slice(half), os.path.join(dirpath, "frag-00001.parquet"))
    return t.num_rows


def test_resolve_sequences_rejects_nonfixture_dir(tmp_path):
    """An EXISTING directory without frag-*.parquet must raise, never fall
    back to generating a synthetic corpus (ADVICE r2, medium)."""
    from product_quality_check_ray.datagen import resolve_sequences

    d = tmp_path / "not_a_corpus"
    d.mkdir()
    with pytest.raises(FileNotFoundError):
        resolve_sequences(str(d))
    # a nested layout (shard=0/part.parquet) is equally rejected, not faked
    (d / "shard=0").mkdir()
    with pytest.raises(FileNotFoundError):
        resolve_sequences(str(d))


def test_prep_runs_plain_on_user_corpus(ray_session, tmp_path):
    """Fixture augmentations (canary splice / holdout slice / DECON patch)
    must NOT touch a user corpus (ADVICE r2, high): every valid row packs
    with its true n_tok; dedup reports only the planted duplicate pair."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = str(tmp_path / "user_corpus")
    n = _write_user_corpus(d)

    dup = tk.seq_dup_token_arrays(d)
    assert sorted(dup.column("doc_id").to_pylist()) == ["user/dup_a", "user/dup_b"]

    plan = tk.prepare_training_sequences(d).to_pandas()
    # exactly one row (the dup loser) removed; nobody holdout-dropped
    assert len(plan) == n - 1
    assert "user/dup_b" not in set(plan["doc_id"])
    # n_tok in the plan is the TRUE array length for every row (no canary)
    import pandas as pd

    truth = {}
    import glob as _g

    for f in _g.glob(d + "/frag-*.parquet"):
        tt = pq.read_table(f)
        for did, toks in zip(
            tt.column("doc_id").to_pylist(), tt.column("tokens").to_pylist()
        ):
            truth[did] = len(toks)
    assert all(int(r.n_tok) == truth[r.doc_id] for r in plan.itertuples())

    # decontamination: no synthetic holdout → all rows scanned, none flagged
    dec = tk.seq_decontaminate(d).to_pandas()
    assert len(dec) == n and not dec["contaminated"].any()

    # near-dup: no synthetic family planted → only true near-dups (none here
    # besides the exact pair, which shares its head anchor)
    nd = tk.seq_neardup_pairs(d)
    pairs = list(
        zip(nd.column("doc_id_a").to_pylist(), nd.column("doc_id_b").to_pylist())
    )
    assert pairs == [("user/dup_a", "user/dup_b")]


def test_fixture_augment_optin_flag(ray_session, tmp_path):
    """augment=True forces the fixture view even off-provenance; augment=False
    forces plain even on fixture corpora."""
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines import tokens as tk

    corpus = write_sequences(str(tmp_path / "c"), 1500, seed=11, num_fragments=2)
    # generator output carries _injections.json → augmented by default
    plan_aug = tk.prepare_training_sequences(corpus).to_pandas()
    plan_plain = tk.prepare_training_sequences(corpus, augment=False).to_pandas()
    # the plain run keeps the holdout slice (suffix % 97 == 0) that the
    # augmented run excludes
    assert len(plan_plain) > len(plan_aug)
    forced = tk.prepare_training_sequences(corpus, augment=True).to_pandas()
    assert forced.equals(plan_aug)


def test_new_token_ops_on_user_corpus(ray_session, tmp_path):
    """The round-3 ops must run PLAIN on a user corpus (arbitrary doc_id
    shapes, no fixture markers): split covers every row via the _doc_num
    hash fallback, repetition/vocab need no id at all, and cross-source
    dups finds only genuine duplicates (no canary phantom groups)."""
    from product_quality_check_ray.pipelines import tokens as tk

    d = str(tmp_path / "user_corpus2")
    n = _write_user_corpus(d)

    split = tk.seq_split_assign(d).to_pandas()
    assert len(split) == n  # nothing dropped despite non-12-digit ids
    assert set(split["split"]) <= {"train", "val", "test"}
    # deterministic under re-run
    split2 = tk.seq_split_assign(d).to_pandas()
    assert split.sort_values("doc_id").reset_index(drop=True).equals(
        split2.sort_values("doc_id").reset_index(drop=True)
    )

    rep = tk.seq_repetition_scores(d).to_pandas()
    assert len(rep) == n and (rep["n_tok_actual"] > 0).all()

    vocab = tk.seq_vocab_coverage(d).to_pandas()
    assert vocab["n_rows"].sum() == n and (vocab["n_invalid_tokens"] == 0).all()

    # both planted duplicates share source 'web' -> NO cross-source pair
    x = tk.seq_cross_source_dups(d)
    assert x.num_rows == 0


def test_cli_audit_subcommand(tmp_path):
    """Clean uniform corpus → exit 0; add a schema-deviant shard → exit 2
    with the shard named."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(64)]),
            "tokens": pa.array([[1, 2]] * 64, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    pq.write_table(t.slice(0, 32), os.path.join(d, "frag-00000.parquet"))
    pq.write_table(t.slice(32), os.path.join(d, "frag-00001.parquet"))

    def run():
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "audit",
             "--input", d, "--num-cpus", "4"],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    r = run()
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["fragments"] == 2 and line["distinct_schemas"] == 1
    assert line["total_rows"] == 64 and line["n_length_outliers"] == 0
    # clean single-source corpus: footer stats prove every check except the
    # row-wise n_tok==len(tokens) pairing, on both fragments
    assert line["fragments_proven_except_mismatch"] == 2
    assert line["checks_proven_by_stats"]["token_oov"] == 2
    assert line["checks_proven_by_stats"]["bad_source"] == 2
    assert line["checks_proven_by_stats"]["ntok_mismatch"] == 0

    bad = t.slice(0, 4).append_column("extra", pa.array([1.0] * 4))
    pq.write_table(bad, os.path.join(d, "frag-00002.parquet"))
    r2 = run()
    assert r2.returncode == 2, r2.stderr[-2000:]
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["distinct_schemas"] == 2
    assert line2["schema_deviant_fragments"] == ["frag-00002.parquet"]


def test_cli_diff_subcommand(tmp_path):
    """Identical corpora → exit 0 / identical true; a mutated shard → exit 2
    with the changed id reported and the full diff written to --out."""
    import json as _json
    import os
    import subprocess
    import sys

    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(da), os.makedirs(db)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)]),
            "tokens": pa.array([[1, i] for i in range(64)], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    pq.write_table(t, os.path.join(da, "frag-00000.parquet"))
    pq.write_table(t, os.path.join(db, "frag-00000.parquet"))

    def run(out=None, *extra):
        cmd = [sys.executable, "-m", "product_quality_check_ray", "diff",
               "--a", da, "--b", db, "--num-cpus", "4", *extra]
        if out:
            cmd += ["--out", out]
        return subprocess.run(
            cmd, capture_output=True, text=True, cwd="/root/repo", timeout=300
        )

    r = run(None, "--drift")
    assert r.returncode == 0, r.stderr[-2000:]
    line0 = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line0["identical"] is True
    # identical corpora: drift report present, every source at 0 ppm
    assert line0["n_drifted_sources"] == 0
    assert line0["drift"] == [
        {"source": "web", "rows_a": 64, "rows_b": 64, "ks_ppm": 0, "drifted": False}
    ]

    mut = t.set_column(
        t.schema.get_field_index("tokens"),
        "tokens",
        pa.array([[9, i] if i == 7 else [1, i] for i in range(64)], type=pa.list_(pa.int32())),
    )
    pq.write_table(mut, os.path.join(db, "frag-00000.parquet"))
    outp = str(tmp_path / "diff.parquet")
    r2 = run(out=outp)
    assert r2.returncode == 2, r2.stderr[-2000:]
    line = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line["changed"] == 1 and line["added"] == 0 and line["removed"] == 0
    assert line["sample"] == [{"doc_id": "d-000000000007", "status": "changed"}]
    got = pq.read_table(outp)
    assert got.to_pylist() == [{"doc_id": "d-000000000007", "status": "changed"}]


def test_cli_audit_manifest_and_rowgroups(tmp_path):
    """--manifest-out writes the content-checksum manifest alongside the
    audit summary; a duplicated shard shows up as manifest twins while the
    footer audits stay clean."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)]),
            "tokens": pa.array([[1, i] for i in range(64)], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    pq.write_table(t, os.path.join(d, "frag-00001.parquet"))  # duplicated shard
    mpath = str(tmp_path / "manifest.parquet")
    r = subprocess.run(
        [sys.executable, "-m", "product_quality_check_ray", "audit",
         "--input", d, "--manifest-out", mpath, "--sample-probe",
         "--sortedness", "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["n_oversized_rowgroups"] == 0
    assert line["manifest_out"] == mpath and line["n_twin_fragments"] == 2
    man = pq.read_table(mpath)
    assert man.column("content_sum").to_pylist()[0] == man.column("content_sum").to_pylist()[1]
    # clean corpus: the sampled probe estimates 0 violations everywhere
    probe = line["sample_probe"]
    assert probe and all(v["viol_rows"] == 0 and v["est_viol_ppm"] == 0 for v in probe.values())
    assert sum(v["sampled_rows"] for v in probe.values()) > 0
    # both fragments are internally id-sorted, but the duplicated shard
    # makes the footer ranges overlap — so the decisive corpus-sorted bit
    # (disjoint AND per-fragment sorted) is false with zero unsorted frags
    assert line["n_unsorted_fragments"] == 0 and line["unsorted_fragments"] == []
    assert line["id_ranges_disjoint"] is False
    assert line["corpus_id_sorted"] is False


def test_cli_report_subcommand(ray_session, tmp_path):
    """report reads verdicts back from lineage without Ray or re-validation:
    exit 0 on a clean completed run, 2 when violations were recorded, 3 when
    the run record is absent (killed mid-run) — with partitions still
    visible in that case."""
    import json as _json
    import os
    import subprocess
    import sys

    from product_quality_check_ray.pipelines.validate import run_validation
    from product_quality_check_ray.state import lineage as lin

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)]),
            "tokens": pa.array([[1, 2]] * 64, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    pq.write_table(t.slice(0, 32), os.path.join(d, "frag-00000.parquet"))
    pq.write_table(t.slice(32), os.path.join(d, "frag-00001.parquet"))
    out = str(tmp_path / "out")
    run_validation(d, out, resume=False)

    def report(*extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "report",
             "--out", out, *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=120,
        )

    r = report("--partitions")
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["run_complete"] and line["rows"] == 64 and line["viol_rows"] == 0
    assert len(line["partitions"]) == 2

    # violations → exit 2
    bad = pa.table(
        {
            "doc_id": pa.array([None, "x-000000000001"], type=pa.string()),
            "tokens": pa.array([[1], [2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    pq.write_table(bad, os.path.join(d, "frag-00002.parquet"))
    run_validation(d, out, resume=True)
    r2 = report()
    assert r2.returncode == 2
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["viol_rows"] == 1 and line2["n_failed_partitions"] == 1

    # --sample: example rows per check name straight from the sink (no Ray)
    r3 = report("--sample", "2")
    line3 = _json.loads(r3.stdout.strip().splitlines()[-1])
    samples = line3["violation_samples"]
    assert set(samples) == {"null_doc_id"}
    assert samples["null_doc_id"] == [
        {"doc_id": None, "n_tok": 1, "source": "web",
         "checks_failed": ["null_doc_id"]}
    ]

    # killed-before-completion look: run record gone, lineage intact → 3
    os.remove(lin.run_success_path(out))
    r3 = report()
    assert r3.returncode == 3
    line3 = _json.loads(r3.stdout.strip().splitlines()[-1])
    assert not line3["run_complete"] and line3["partitions_recorded"] == 3


def test_cli_audit_unreadable_shard(ray_session, tmp_path):
    """A truncated / garbage shard fails the audit AND validate --preaudit
    fast, with the shard NAMED — not as an opaque mid-task Arrow error."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(32)]),
            "tokens": pa.array([[1, 2]] * 32, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 32, type=pa.int32()),
            "source": pa.array(["web"] * 32),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    good = open(os.path.join(d, "frag-00000.parquet"), "rb").read()
    with open(os.path.join(d, "frag-00001.parquet"), "wb") as f:
        f.write(good[:-60])  # truncated footer

    def run(*cmd):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", *cmd,
             "--num-cpus", "4"],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    r = run("audit", "--input", d)
    assert r.returncode == 2, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["n_unreadable"] == 1
    assert line["unreadable_fragments"][0][0] == "frag-00001.parquet"

    out = str(tmp_path / "out")
    r2 = run("validate", "--input", d, "--out", out, "--preaudit")
    assert r2.returncode == 2, r2.stderr[-2000:]
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["preaudit_failed"] and line2["n_unreadable"] == 1


def test_cli_validate_fail_fast(ray_session, tmp_path):
    """validate --fail-fast N exits 4 with a JSON abort line once recorded
    violations exceed N, keeping completed lineage; a rerun WITHOUT the
    budget resumes and exits with the normal violation code 2."""
    import json as _json
    import os
    import subprocess
    import sys

    from product_quality_check_ray.state import lineage as lin

    d = str(tmp_path / "c")
    os.makedirs(d)
    good = pa.table(
        {
            "doc_id": pa.array([f"g-{i:012d}" for i in range(8)]),
            "tokens": pa.array([[1, 2]] * 8, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 8, type=pa.int32()),
            "source": pa.array(["web"] * 8),
        }
    )
    bad = pa.table(
        {
            "doc_id": pa.array([None, "x-000000000001"], type=pa.string()),
            "tokens": pa.array([[1], [2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 9], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    pq.write_table(bad, os.path.join(d, "frag-00000.parquet"))
    pq.write_table(good, os.path.join(d, "frag-00001.parquet"))
    out = str(tmp_path / "out")

    def validate(*extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "validate",
             "--input", d, "--out", out, "--num-cpus", "4", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as f:
        _json.dump({"wave_files": 1, "uniqueness": False}, f)
    r = validate("--fail-fast", "0", "--config", cfg)
    assert r.returncode == 4, (r.returncode, r.stderr[-2000:])
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["fail_fast"] and line["viol_rows"] == 2 and line["budget"] == 0
    assert line["partitions_done"] == 1
    assert len(lin.all_lineage(out)) == 1  # first wave's lineage kept
    assert not os.path.exists(lin.run_success_path(out))

    r2 = validate("--config", cfg)
    assert r2.returncode == 2, (r2.returncode, r2.stderr[-2000:])
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["rows"] == 10 and len(lin.all_lineage(out)) == 2


def test_cli_report_compare(ray_session, tmp_path):
    """report --compare diffs two runs' per-partition verdicts without Ray
    or re-validation: identical runs exit 0; after one fragment is
    rewritten with a violating row, the re-run's diff names exactly that
    partition as regressed (exit 2) with the viol_rows delta visible."""
    import json as _json
    import os
    import subprocess
    import sys

    from product_quality_check_ray.pipelines.validate import run_validation
    from product_quality_check_ray.state import lineage as lin

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)]),
            "tokens": pa.array([[1, 2]] * 64, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    f0, f1 = os.path.join(d, "frag-00000.parquet"), os.path.join(d, "frag-00001.parquet")
    pq.write_table(t.slice(0, 32), f0)
    pq.write_table(t.slice(32), f1)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_validation(d, out_a, resume=False)
    run_validation(d, out_b, resume=False)

    def compare(a, b):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "report",
             "--out", a, "--compare", b],
            capture_output=True, text=True, cwd="/root/repo", timeout=120,
        )

    r = compare(out_a, out_b)
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["identical_verdicts"] and line["n_changed"] == 0

    # rewrite fragment 1 with one violating row (ntok_mismatch) and re-run
    bad = t.slice(32).set_column(
        2, "n_tok", pa.array([2] * 31 + [99], type=pa.int32())
    )
    pq.write_table(bad, f1)
    out_c = str(tmp_path / "cc")
    run_validation(d, out_c, resume=False)
    r2 = compare(out_a, out_c)
    assert r2.returncode == 2
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["regressed"] == [lin.part_id_for(f1)]
    assert line2["fixed"] == [] and line2["only_in_a"] == []
    (chg,) = line2["changed"]
    assert chg["viol_rows_a"] == 0 and chg["viol_rows_b"] == 1


def test_cli_audit_baseline_manifest(tmp_path):
    """audit --baseline gates a copy/migration on the saved manifest: an
    unchanged corpus passes (exit 0, identical=true); mutating one token in
    one fragment flips exactly that fragment to changed and the exit to 2;
    adding a fragment reports it as added."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)]),
            "tokens": pa.array([[1, i] for i in range(64)], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 64, type=pa.int32()),
            "source": pa.array(["web"] * 64),
        }
    )
    pq.write_table(t.slice(0, 32), os.path.join(d, "frag-00000.parquet"))
    pq.write_table(t.slice(32), os.path.join(d, "frag-00001.parquet"))
    mpath = str(tmp_path / "manifest.parquet")

    def audit(*extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "audit",
             "--input", d, "--num-cpus", "4", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    r0 = audit("--manifest-out", mpath)
    assert r0.returncode == 0, r0.stderr[-2000:]
    r1 = audit("--baseline", mpath)
    assert r1.returncode == 0, r1.stderr[-2000:]
    b1 = _json.loads(r1.stdout.strip().splitlines()[-1])["baseline"]
    assert b1["identical"] and b1["n_changed"] == 0

    # mutate one token in fragment 0 (row count + token count unchanged —
    # only the content checksum can see this)
    mut = t.slice(0, 32).set_column(
        1, "tokens",
        pa.array([[9, i] if i == 7 else [1, i] for i in range(32)], type=pa.list_(pa.int32())),
    )
    pq.write_table(mut, os.path.join(d, "frag-00000.parquet"))
    r2 = audit("--baseline", mpath)
    assert r2.returncode == 2
    b2 = _json.loads(r2.stdout.strip().splitlines()[-1])["baseline"]
    assert b2["changed"] == ["frag-00000.parquet"] and not b2["identical"]
    assert b2["n_added"] == 0 and b2["n_removed"] == 0

    pq.write_table(t.slice(0, 8), os.path.join(d, "frag-00002.parquet"))
    r3 = audit("--baseline", mpath)
    b3 = _json.loads(r3.stdout.strip().splitlines()[-1])["baseline"]
    assert b3["added"] == ["frag-00002.parquet"] and r3.returncode == 2


def test_cli_ref_hist_export_and_use(ray_session, tmp_path):
    """validate --export-hist writes the observed reference dimension;
    --ref-hist drifts a rerun against it (same corpus → no drift flags)."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(128)]),
            "tokens": pa.array([[1] * 30] * 128, type=pa.list_(pa.int32())),
            "n_tok": pa.array([30] * 128, type=pa.int32()),
            "source": pa.array(["web"] * 128),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    hist = str(tmp_path / "ref.parquet")

    def validate(out, *extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "validate",
             "--input", d, "--out", out, "--num-cpus", "4", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    r1 = validate(str(tmp_path / "o1"), "--export-hist", hist)
    assert r1.returncode == 0, r1.stderr[-2000:]
    assert os.path.exists(hist)
    r2 = validate(str(tmp_path / "o2"), "--ref-hist", hist)
    assert r2.returncode == 0, r2.stderr[-2000:]
    line = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line["drift"] == {"web": False}


def test_cli_locate_subcommand(tmp_path):
    """locate finds ids across fragments (dup rows counted), reports
    missing ids, and exits 2 when any requested id is absent."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(64)] + ["d-000000000007"]),
            "tokens": pa.array([[1, 2]] * 65, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 65, type=pa.int32()),
            "source": pa.array(["web"] * 65),
        }
    )
    pq.write_table(t.slice(0, 33), os.path.join(d, "frag-00000.parquet"))
    pq.write_table(t.slice(33), os.path.join(d, "frag-00001.parquet"))

    r = subprocess.run(
        [sys.executable, "-m", "product_quality_check_ray", "locate",
         "--input", d, "--ids", "d-000000000007,zzz", "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 2, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["missing"] == ["zzz"] and line["found"] == 1
    # the duplicate of -0007 lives in fragment 1 (the 65th row)
    assert line["locations"] == [
        {"doc_id": "d-000000000007", "fragment": "frag-00000.parquet", "n_rows": 1},
        {"doc_id": "d-000000000007", "fragment": "frag-00001.parquet", "n_rows": 1},
    ]


def test_seq_check_counts_zero_row_corpus(ray_session, tmp_path):
    """A corpus whose fragments hold zero rows yields the typed empty
    per-source count table, not a KeyError from a column-less partials
    DataFrame (ADVICE r3)."""
    import os

    from product_quality_check_ray.pipelines.seq_queries import seq_check_counts

    d = str(tmp_path / "c")
    os.makedirs(d)
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.string()),
            "tokens": pa.array([], type=pa.list_(pa.int32())),
            "n_tok": pa.array([], type=pa.int32()),
            "source": pa.array([], type=pa.string()),
        }
    )
    pq.write_table(empty, os.path.join(d, "frag-00000.parquet"))
    out = seq_check_counts(d)
    assert out.num_rows == 0
    assert out.column("source").type == pa.string()
    assert out.column("rows").type == pa.int64()
    assert out.column("viol_rows").type == pa.int64()


def test_cli_warn_checks_whitespace_tokens(ray_session, tmp_path):
    """`--warn-checks "a, b"` and trailing commas parse cleanly (tokens are
    stripped, empties dropped) instead of failing with `unknown checks
    [' b']` (ADVICE r3)."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(16)]),
            "tokens": pa.array([[1, 2]] * 16, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 15 + [99], type=pa.int32()),
            "source": pa.array(["web"] * 16),
        }
    )
    pq.write_table(t, os.path.join(d, "frag-00000.parquet"))
    r = subprocess.run(
        [sys.executable, "-m", "product_quality_check_ray", "validate",
         "--input", d, "--out", str(tmp_path / "out"), "--num-cpus", "4",
         "--warn-checks", "ntok_mismatch, token_oov,"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    # the one mismatch row is WARN-severity → clean exit 0, still counted
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["check_counts"]["ntok_mismatch"] == 1
    assert line["failed_partitions"] == []


def test_cli_report_compare_unknown_verdict(ray_session, tmp_path):
    """A lineage record missing viol_rows (partially-written / legacy) is
    reported as unknown_verdict, not misclassified as regressed/fixed
    (ADVICE r3)."""
    import json as _json
    import os
    import subprocess
    import sys

    from product_quality_check_ray.pipelines.validate import run_validation
    from product_quality_check_ray.state import lineage as lin

    d = str(tmp_path / "c")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([f"d-{i:012d}" for i in range(32)]),
            "tokens": pa.array([[1, 2]] * 32, type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 32, type=pa.int32()),
            "source": pa.array(["web"] * 32),
        }
    )
    f0 = os.path.join(d, "frag-00000.parquet")
    pq.write_table(t, f0)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_validation(d, out_a, resume=False)
    run_validation(d, out_b, resume=False)
    # strip viol_rows from run B's record (simulate a legacy/partial write)
    pid = lin.part_id_for(f0)
    rec = lin.read_lineage(out_b, pid)
    rec.pop("viol_rows", None)
    lin.write_lineage(out_b, pid, rec)

    r = subprocess.run(
        [sys.executable, "-m", "product_quality_check_ray", "report",
         "--out", out_a, "--compare", out_b],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert r.returncode == 2, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line["unknown_verdict"] == [pid]
    assert line["regressed"] == [] and line["fixed"] == []
    assert not line["identical_verdicts"]


def test_cli_audit_gate_contract(tmp_path):
    """audit --gate: one invocation, documented exit contract (VERDICT r3
    item 7) — 0 accepted; 2 content findings (schema deviants / baseline
    drift); 3 unreadable shards; 5 layout violation (overlapping fragment
    key ranges from two writers). Precedence 3 > 2 > 5."""
    import json as _json
    import os
    import subprocess
    import sys

    d = str(tmp_path / "c")
    os.makedirs(d)

    def tbl(ids):
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.string()),
                "tokens": pa.array([[1, 2]] * len(ids), type=pa.list_(pa.int32())),
                "n_tok": pa.array([2] * len(ids), type=pa.int32()),
                "source": pa.array(["web"] * len(ids), type=pa.string()),
            }
        )

    ids = [f"d-{i:012d}" for i in range(64)]
    f0, f1 = os.path.join(d, "frag-00000.parquet"), os.path.join(d, "frag-00001.parquet")
    pq.write_table(tbl(ids[:32]), f0)
    pq.write_table(tbl(ids[32:]), f1)
    mpath = str(tmp_path / "manifest.parquet")

    def audit(*extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "audit",
             "--input", d, "--num-cpus", "4", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    # disjoint writer ranges, uniform schema → accepted (0)
    r0 = audit("--gate", "--manifest-out", mpath)
    assert r0.returncode == 0, r0.stderr[-2000:]
    line = _json.loads(r0.stdout.strip().splitlines()[-1])
    assert line["gate"] == {
        "exit": 0, "content_ok": True, "layout_ok": True, "baseline_checked": False,
    }

    # overlapping key ranges (a second writer re-emitted ids 16..47) → 5
    pq.write_table(tbl(ids[16:48]), f1)
    r5 = audit("--gate")
    assert r5.returncode == 5, r5.stderr[-2000:]
    line5 = _json.loads(r5.stdout.strip().splitlines()[-1])
    assert line5["gate"]["layout_ok"] is False and line5["gate"]["content_ok"]

    # content finding wins over layout: baseline drift → 2 even while
    # ranges overlap
    r2 = audit("--gate", "--baseline", mpath)
    assert r2.returncode == 2
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert not line2["gate"]["content_ok"] and line2["baseline"]["n_changed"] == 1

    # schema deviant → 2 as well
    pq.write_table(tbl(ids[32:]), f1)  # restore disjoint
    bad = tbl(ids[48:56]).append_column("extra", pa.array([1.0] * 8))
    f2 = os.path.join(d, "frag-00002.parquet")
    pq.write_table(bad, f2)
    r2b = audit("--gate")
    assert r2b.returncode == 2
    os.remove(f2)

    # unreadable shard → 3 under --gate (2 without, back-compat)
    good = open(f0, "rb").read()
    with open(f2, "wb") as f:
        f.write(good[:-50])
    assert audit("--gate").returncode == 3
    assert audit().returncode == 2


def _user_seq_dir(tmp_path, name, cols):
    import os

    d = str(tmp_path / name)
    os.makedirs(d)
    pq.write_table(pa.table(cols), os.path.join(d, "frag-00000.parquet"))
    return d


def test_marker_sinks_clear_partial_output(ray_session, tmp_path):
    """A killed sink run (files written, no success marker) must not leave
    rows that a rerun appends onto — every marker sink clears partial
    output first (review finding: Ray write_parquet appends UUID files)."""
    import os

    from product_quality_check_ray.pipelines.textprep import shard_corpus

    out = str(tmp_path / "shards")
    full = shard_corpus("/root/testdata/sf0.001", out)
    n = full.count()
    assert n > 0
    # simulate the kill: drop the marker, leave the parquet files behind
    os.remove(os.path.join(out, "_SHARDS_SUCCESS.json"))
    again = shard_corpus("/root/testdata/sf0.001", out)
    assert again.count() == n  # no duplicated rows from the stale partials


def test_seq_token_topk_reads_user_corpus(ray_session, tmp_path):
    """seq_token_topk must read a user directory directly — never fabricate
    a synthetic fixture corpus for it (review finding: it bypassed
    resolve_sequences)."""
    from product_quality_check_ray.pipelines.seq_queries import seq_token_topk

    d = _user_seq_dir(
        tmp_path, "c",
        {
            "doc_id": pa.array([f"u/{i}" for i in range(10)], type=pa.string()),
            "tokens": pa.array([[7, 7, 7, 9]] * 10, type=pa.list_(pa.int32())),
            "n_tok": pa.array([4] * 10, type=pa.int32()),
            "source": pa.array(["web"] * 10, type=pa.string()),
        },
    )
    top = seq_token_topk(d, k=2).to_pandas()
    assert top["token"].tolist() == [7, 9]
    assert top["n"].tolist() == [30, 10]


def test_null_ntok_stats_and_histogram_match_oracle(ray_session, tmp_path):
    """NULL n_tok rows: the histogram gets a NULL bin (not an int-cast
    garbage bin) and a source whose n_tok is ALL null reports NULL
    aggregates instead of crashing — both matching the SQL oracle on the
    same corpus (review findings)."""
    import re

    import duckdb

    import __ray_entry__ as e
    from product_quality_check_ray.pipelines.seq_queries import (
        seq_ntok_histogram,
        seq_source_stats,
    )

    d = _user_seq_dir(
        tmp_path, "c",
        {
            "doc_id": pa.array([f"u/{i}" for i in range(6)], type=pa.string()),
            "tokens": pa.array([[1, 2]] * 6, type=pa.list_(pa.int32())),
            "n_tok": pa.array([64, 64, None, 1, None, None], type=pa.int32()),
            # 'ghost' rows carry ONLY null n_tok → all-NULL aggregates
            "source": pa.array(
                ["web", "web", "web", "code", "ghost", "ghost"], type=pa.string()
            ),
        },
    )
    con = duckdb.connect()

    def oracle(name):
        sql = re.sub(
            r"read_parquet\('[^']*'\)",
            f"read_parquet('{d}/frag-*.parquet')",
            e.oracle_sql()[name],
        )
        return con.sql(sql).df()

    hist = seq_ntok_histogram(d).to_pandas()
    want_h = oracle("seq_ntok_histogram")
    assert hist["n"].tolist() == want_h["n"].tolist()
    assert [None if pd_isna(x) else int(x) for x in hist["bin"]] == [
        None if pd_isna(x) else int(x) for x in want_h["bin"]
    ]
    assert hist["n"].sum() == 6  # null rows counted in the NULL bin

    stats = seq_source_stats(d).to_pandas().set_index("source")
    want_s = oracle("seq_source_stats").set_index("source")
    assert stats.loc["ghost", "rows"] == 2
    for c in ("sum_n_tok", "min_n_tok", "max_n_tok", "mean_n_tok"):
        assert pd_isna(stats.loc["ghost", c]) and pd_isna(want_s.loc["ghost", c]), c
    assert stats.loc["web", "sum_n_tok"] == want_s.loc["web", "sum_n_tok"] == 128
    assert stats.loc["web", "min_n_tok"] == 64


def pd_isna(x):
    import pandas as pd

    return pd.isna(x)


def test_seq_pack_plan_single_shard(ray_session, tmp_path):
    """n_shards=1 must run (review finding: num_returns=1 returned a bare
    ObjectRef and the range indexing raised TypeError)."""
    from product_quality_check_ray.pipelines.textprep import seq_pack_plan

    out = seq_pack_plan("/root/testdata/sf0.001", n_shards=1).to_pandas()
    assert len(out) > 0 and (out["shard"] == 0).all()


def test_seq_dup_token_arrays_null_list_matches_oracle(ray_session, tmp_path):
    """NULL token lists dedupe with [] rows (the engine's sentinel view),
    and the oracle now coalesces identically (review finding)."""
    import re

    import duckdb

    import __ray_entry__ as e
    from product_quality_check_ray.pipelines.tokens import seq_dup_token_arrays

    d = _user_seq_dir(
        tmp_path, "c",
        {
            "doc_id": pa.array(["u/a", "u/b", "u/c", "u/d"], type=pa.string()),
            "tokens": pa.array([None, [], [], [5]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([0, 0, 0, 1], type=pa.int32()),
            "source": pa.array(["web"] * 4, type=pa.string()),
        },
    )
    got = seq_dup_token_arrays(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == ["u/a", "u/b", "u/c"]
    assert (got["group_size"] == 3).all() and (got["tlen"] == 0).all()
    sql = re.sub(
        r"read_parquet\('[^']*'\)",
        f"read_parquet('{d}/frag-*.parquet')",
        e.oracle_sql()["seq_dup_token_arrays"],
    )
    con = duckdb.connect()
    want = con.sql(sql).df().sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["group_size"].tolist() == want["group_size"].tolist()
    assert got["tlen"].tolist() == [int(x) for x in want["tlen"]]


def test_cli_ingest_subcommand(tmp_path):
    """Content gate e2e: duplicated-content rows rejected (even under fresh
    ids), new rows admitted and written verbatim via --out; an all-duplicate
    batch exits 2 (automation tripwire)."""
    import json as _json
    import os
    import subprocess
    import sys

    db, dn = str(tmp_path / "base"), str(tmp_path / "new")
    os.makedirs(db), os.makedirs(dn)
    base = pa.table(
        {
            "doc_id": pa.array([f"b-{i:012d}" for i in range(32)]),
            "tokens": pa.array([[1, i] for i in range(32)], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 32, type=pa.int32()),
            "source": pa.array(["web"] * 32),
        }
    )
    pq.write_table(base, os.path.join(db, "frag-00000.parquet"))
    new = pa.table(
        {
            "doc_id": pa.array(["n-000000000000", "n-000000000001", "n-000000000002"]),
            "tokens": pa.array([[1, 5], [7, 7, 7], [8]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2, 3, 1], type=pa.int32()),
            "source": pa.array(["web", "books", "web"]),
        }
    )
    pq.write_table(new, os.path.join(dn, "frag-00000.parquet"))

    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "product_quality_check_ray", "ingest",
             "--base", db, "--new", dn, "--num-cpus", "4", *extra],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )

    outd = str(tmp_path / "admitted")
    r = run("--out", outd)
    assert r.returncode == 0, r.stderr[-2000:]
    line = _json.loads(r.stdout.strip().splitlines()[-1])
    assert line == {
        "total_new_rows": 3,
        "admitted": 2,
        "duplicates": 1,
        "dup_rate_ppm": 333333,
        "out": outd,
    }
    import glob as _glob

    got = pa.concat_tables(
        [pq.read_table(f) for f in _glob.glob(os.path.join(outd, "*.parquet"))]
    ).sort_by("doc_id")
    assert got.column("doc_id").to_pylist() == ["n-000000000001", "n-000000000002"]
    assert got.column("tokens").to_pylist() == [[7, 7, 7], [8]]
    assert got.schema.field("n_tok").type == pa.int32()  # original dtype kept

    # an all-duplicate batch: the base itself re-submitted → exit 2
    r2 = subprocess.run(
        [sys.executable, "-m", "product_quality_check_ray", "ingest",
         "--base", db, "--new", db, "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert r2.returncode == 2, r2.stderr[-2000:]
    line2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["admitted"] == 0 and line2["duplicates"] == 32


def test_validate_config_rejects_unknown_keys(tmp_path):
    """A config key the job does not read (such as the removed
    ``batch_size``) fails before any work, naming every such key."""
    import json

    from product_quality_check_ray.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wave_files": 4, "batch_size": 128, "sketch_delta": 50}))
    with pytest.raises(ValueError, match=r"\['batch_size', 'sketch_delta'\]"):
        main(
            ["validate", "--input", str(tmp_path / "none"), "--out", str(tmp_path / "o"),
             "--config", str(cfg)]
        )
    assert not (tmp_path / "o").exists()
