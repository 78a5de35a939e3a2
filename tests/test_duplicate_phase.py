"""Duplicate phase: ``dupfinder.find_duplicates`` and the ``dup-`` violation
sink against the pandas oracle, on hand-built fragments that exercise the
row-group remap, null ids, empty fragments and ``large_string`` / int64
storage."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.checks.oracle_pandas import oracle_duplicates
from product_quality_check_ray.core.schema import SEQUENCE_SCHEMA
from product_quality_check_ray.pipelines.validate import run_validation
from product_quality_check_ray.state import dupfinder
from product_quality_check_ray.state import lineage as lin

WIDE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.large_string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int64()),
        ("source", pa.string()),
    ]
)


def _write(path, ids, seed, schema=SEQUENCE_SCHEMA, **write_kwargs):
    rng = np.random.default_rng(seed)
    toks = [rng.integers(0, 1000, rng.integers(1, 6)).tolist() for _ in ids]
    t = pa.table(
        {
            "doc_id": ids,
            "tokens": toks,
            "n_tok": [len(x) for x in toks],
            "source": ["web"] * len(ids),
        },
        schema=schema,
    )
    pq.write_table(t, path, **write_kwargs)
    return path


@pytest.fixture
def dup_corpus(tmp_path):
    """Four fragments: ``a`` has 10-row row groups with duplicates only in
    its 2nd and 3rd; ``b`` has none; ``c`` has null ids (two nulls are not a
    duplicate); ``d`` stores doc_id as large_string and n_tok as int64."""
    d = tmp_path / "seq"
    d.mkdir()
    a = [f"a-{i}" for i in range(50)]
    a[12] = a[13] = "x-1"  # row group 1, within-fragment pair
    a[17] = "x-2"  # row group 1
    a[25] = "x-3"  # row group 2
    _write(str(d / "frag-a.parquet"), a, 1, row_group_size=10)
    _write(str(d / "frag-b.parquet"), [f"b-{i}" for i in range(20)], 2)
    _write(str(d / "frag-c.parquet"), [None, "c-0", "x-2", None, "c-1", "c-1"], 3)
    _write(str(d / "frag-d.parquet"), ["d-0", "x-3", "d-1", "x-3"], 4, WIDE_SCHEMA)
    assert pq.ParquetFile(str(d / "frag-a.parquet")).num_row_groups == 5
    return str(d)


def _corpus_df(files):
    frames = []
    for f in files:
        df = pq.read_table(f).cast(SEQUENCE_SCHEMA).to_pandas()
        df["part_id"] = lin.part_id_for(f)
        frames.append(df)
    return pd.concat(frames, ignore_index=True)


def _row_key(r):
    return (
        r["part_id"],
        r["doc_id"],
        tuple(int(x) for x in r["tokens"]),
        int(r["n_tok"]),
        r["source"],
        bool(r["ok"]),
        tuple(r["checks_failed"]),
    )


def _dup_files(out):
    return sorted(glob.glob(os.path.join(out, "violations", "part=*", "dup-*.parquet")))


def test_dup_rows_equal_oracle_row_for_row(ray_session, dup_corpus, tmp_path):
    files = sorted(glob.glob(os.path.join(dup_corpus, "*.parquet")))
    out = str(tmp_path / "out")
    report = run_validation(dup_corpus, out, resume=False)
    df = _corpus_df(files)
    exp_dups = oracle_duplicates(df)
    assert exp_dups == {"x-1": 2, "x-2": 2, "x-3": 3, "c-1": 2}
    assert report.duplicates == exp_dups

    exp = df[df["doc_id"].isin(list(exp_dups))].assign(ok=False)
    exp["checks_failed"] = [("dup_doc_id",)] * len(exp)
    got = []
    declared = SEQUENCE_SCHEMA.append(pa.field("ok", pa.bool_())).append(
        pa.field("checks_failed", pa.list_(pa.string()))
    )
    for f in _dup_files(out):
        t = pq.ParquetFile(f).read()
        assert t.schema.remove_metadata() == declared, f
        part = os.path.basename(os.path.dirname(f))[len("part=") :]
        got.extend(_row_key({**r, "part_id": part}) for r in t.to_pylist())
    assert sorted(got) == sorted(_row_key(r) for _, r in exp.iterrows())
    # one file per fragment holding duplicates; fragment b holds none
    assert len(_dup_files(out)) == 3
    assert report.global_stats["dup_rows"] == len(exp)


def test_dup_sink_deterministic_across_resume(ray_session, tmp_path):
    """Cold run vs a resume after one fragment is rewritten (same rows, new
    fingerprint): identical dup- file names and bytes."""
    from product_quality_check_ray.datagen import write_sequences

    seq = write_sequences(str(tmp_path / "seq"), 2000, seed=7, num_fragments=8)
    out = str(tmp_path / "out")
    run_validation(seq, out, wave_files=2)

    def snapshot():
        return {os.path.relpath(p, out): open(p, "rb").read() for p in _dup_files(out)}

    cold = snapshot()
    assert cold
    # rewrite a fragment that holds duplicate rows
    part = os.path.dirname(sorted(cold)[0])[len("violations/part=") :]
    frag = next(
        f
        for f in sorted(glob.glob(os.path.join(seq, "frag-*.parquet")))
        if lin.part_id_for(f) == part
    )
    before = lin.file_fingerprint(frag)
    pq.write_table(pq.read_table(frag), frag, row_group_size=97)
    st = os.stat(frag)
    os.utime(frag, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert lin.file_fingerprint(frag) != before
    rerun = run_validation(seq, out, wave_files=2)
    assert rerun.global_stats["dup_rows"] == sum(rerun.duplicates.values())
    assert snapshot() == cold


def _ids_df(files):
    ids = [pq.read_table(f, columns=["doc_id"]).column("doc_id") for f in files]
    col = pa.chunked_array([c.cast(pa.string()) for c in ids], type=pa.string())
    return pd.DataFrame({"doc_id": col.to_pandas()})


def _check_all_paths(files, ranges=None):
    exp = oracle_duplicates(_ids_df(files))
    pruned = dupfinder.find_duplicates(files, ranges)
    full = dupfinder.find_duplicates(files, ranges, range_pruning=False)
    assert pruned == full == exp
    return exp


def test_find_duplicates_single_file(ray_session, tmp_path):
    f = _write(str(tmp_path / "one.parquet"), ["p", "q", "p", None, None, "r"], 1)
    assert _check_all_paths([f]) == {"p": 2}


def test_find_duplicates_empty_fragment_mixed_in(ray_session, tmp_path):
    files = [
        _write(str(tmp_path / "f0.parquet"), ["a", "b", "c"], 1),
        _write(str(tmp_path / "f1.parquet"), [], 2),
        _write(str(tmp_path / "f2.parquet"), ["b", "d"], 3, WIDE_SCHEMA),
        _write(str(tmp_path / "f3.parquet"), [], 4, WIDE_SCHEMA),
        _write(str(tmp_path / "f4.parquet"), ["e", "a", "a"], 5),
    ]
    assert _check_all_paths(files) == {"a": 3, "b": 2}


@pytest.mark.parametrize("n_files,ranges", [(11, 2), (13, 2), (17, 3)])
def test_find_duplicates_uneven_groups(ray_session, tmp_path, n_files, ranges):
    groups = dupfinder.file_groups([str(i) for i in range(n_files)], ranges)
    sizes = [len(g) for g in groups]
    assert sum(sizes) == n_files and sizes[-1] != sizes[0]  # last group short
    rng = np.random.default_rng(n_files)
    files = []
    for i in range(n_files):
        ids = [f"id-{v}" for v in rng.integers(0, 60, 12)]
        schema = WIDE_SCHEMA if i % 3 == 0 else SEQUENCE_SCHEMA
        files.append(_write(str(tmp_path / f"f{i:02d}.parquet"), ids, i, schema))
    assert _check_all_paths(files, ranges)
