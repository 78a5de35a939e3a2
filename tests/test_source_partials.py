"""The one-pass per-source partial (``validate.SourcePartials``) writes the
same lineage ``per_source`` entries as the per-source loop it replaced.

``loop_partials`` below is that loop, kept here as the oracle: one pandas
groupby per batch, then a ``take``, a doc_id hash and an HLL update per
source; ``loop_entries`` finishes its partials into lineage entries.
Entries are compared as ``json.dumps(sort_keys=True)`` strings."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.checks.row_checks import ROW_CHECK_NAMES, annotate_batch
from product_quality_check_ray.core.schema import HIST_BIN_WIDTH, HIST_NUM_BINS, SOURCE_ALLOWLIST
from product_quality_check_ray.pipelines.validate import (
    _SENTINEL_MIN,
    RowCheckStage,
    _finish_partial,
    dense_hist,
    run_validation,
)
from product_quality_check_ray.state import lineage as lin
from product_quality_check_ray.state.sketches import HyperLogLog


def loop_partials(ctx: dict, batches) -> dict[str, dict]:
    """{source: running partial} of a fragment's batches: dense ``hist``,
    ``HyperLogLog`` ``hll``, exact n_tok ``values``/``weights``, counts."""
    acc: dict[str, dict] = {}
    for b in batches:
        annotated, mat = annotate_batch(pa.table(b), ctx)
        ok = np.asarray(annotated.column("ok").to_numpy(zero_copy_only=False), dtype=bool)
        src = annotated.column("source").to_pandas().fillna("\x00null")
        n_tok = np.asarray(
            pc.fill_null(annotated.column("n_tok"), -1).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        doc_ids = annotated.column("doc_id")
        for s, idx in src.groupby(src).groups.items():
            ii = np.asarray(idx)
            if s not in acc:
                acc[s] = {
                    "rows": 0,
                    "ok_rows": 0,
                    "counts": np.zeros(len(ROW_CHECK_NAMES), dtype=np.int64),
                    "hist": np.zeros(HIST_NUM_BINS + 1, dtype=np.int64),
                    "sum_n_tok": 0,
                    "min_n_tok": _SENTINEL_MIN,
                    "max_n_tok": -1,
                    "values": np.empty(0, dtype=np.int64),
                    "weights": np.empty(0, dtype=np.float64),
                    "hll": HyperLogLog(),
                }
            a = acc[s]
            ntv = n_tok[ii]
            ntv = ntv[ntv >= 0]
            a["rows"] += len(ii)
            a["ok_rows"] += int(ok[ii].sum())
            a["counts"] += mat[ii].sum(axis=0)
            a["hist"] += np.bincount(
                np.minimum(ntv // HIST_BIN_WIDTH, HIST_NUM_BINS),
                minlength=HIST_NUM_BINS + 1,
            )
            if ntv.size:
                a["sum_n_tok"] += int(ntv.sum())
                a["min_n_tok"] = min(a["min_n_tok"], int(ntv.min()))
                a["max_n_tok"] = max(a["max_n_tok"], int(ntv.max()))
                uv, uc = np.unique(ntv, return_counts=True)
                a["values"], inv = np.unique(
                    np.concatenate([a["values"], uv]), return_inverse=True
                )
                a["weights"] = np.bincount(inv, weights=np.concatenate([a["weights"], uc]))
            ids = doc_ids.take(pa.array(ii)).combine_chunks().drop_null()
            if len(ids):
                a["hll"].add_strings(ids)
    return acc


def loop_entries(ctx: dict, batches) -> dict[str, dict]:
    acc = loop_partials(ctx, batches)
    return {s: _finish_partial(acc[s]) for s in sorted(acc)}


def batches_of(path: str, batch_size: int):
    return pq.ParquetFile(path).iter_batches(batch_size=batch_size)


def assert_same_entries(path: str, batch_size: int = 10) -> dict:
    stage = RowCheckStage()
    got = stage._check(path, batches_of(path, batch_size))
    want = loop_entries(stage.ctx, batches_of(path, batch_size))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    # pyarrow's default batches too (one batch per fragment here)
    assert json.dumps(stage.check_fragment(path)[0], sort_keys=True) == json.dumps(
        want, sort_keys=True
    )
    return got


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> pa.Table:
    """120 corrupted datagen rows (all five sources, some row violations)."""
    from product_quality_check_ray.datagen import write_sequences

    d = write_sequences(str(tmp_path_factory.mktemp("sp") / "seq"), 120, seed=3, num_fragments=1)
    return pq.read_table(glob.glob(os.path.join(d, "frag-*.parquet"))[0])


def write(tmp_path, t: pa.Table, name: str = "frag.parquet") -> str:
    p = str(tmp_path / name)
    pq.write_table(t, p, row_group_size=10)
    return p


def with_column(t: pa.Table, name: str, arr: pa.Array) -> pa.Table:
    return t.set_column(t.schema.get_field_index(name), name, arr)


def test_source_first_seen_in_a_later_batch(tmp_path, base):
    src = ["web"] * 30 + ["books", "wiki", None, "code", "forums", "bogus"] * 15
    t = with_column(base, "source", pa.array(src[: base.num_rows], pa.string()))
    p = write(tmp_path, t)
    assert pq.ParquetFile(p).num_row_groups == 12
    got = assert_same_entries(p)
    assert set(got) == {"web", "books", "wiki", "code", "forums", "bogus", "\x00null"}


def test_null_sources_and_doc_ids_and_an_all_null_id_batch(tmp_path, base):
    n = base.num_rows
    ids = base.column("doc_id").to_pylist()
    ids = [None] * 10 + [d if i % 3 else None for i, d in enumerate(ids[10:])]
    src = [s if i % 7 else None for i, s in enumerate(base.column("source").to_pylist())]
    t = with_column(base, "doc_id", pa.array(ids, pa.string()))
    t = with_column(t, "source", pa.array(src, pa.string()))
    assert t.num_rows == n
    got = assert_same_entries(write(tmp_path, t))
    assert got["\x00null"]["rows"] > 0


def test_null_and_negative_n_tok(tmp_path, base):
    nt = base.column("n_tok").to_pylist()
    nt = [None if i % 5 == 0 else (-abs(v or 0) - 1 if i % 5 == 1 else v) for i, v in enumerate(nt)]
    # a source whose every n_tok is null or negative: no value counts
    src = ["nolen" if i % 5 < 2 else s for i, s in enumerate(base.column("source").to_pylist())]
    t = with_column(base, "n_tok", pa.array(nt, pa.int32()))
    t = with_column(t, "source", pa.array(src, pa.string()))
    got = assert_same_entries(write(tmp_path, t))
    assert got["nolen"]["min_n_tok"] == _SENTINEL_MIN and got["nolen"]["max_n_tok"] == -1


def test_empty_fragment(tmp_path, base):
    got = assert_same_entries(write(tmp_path, base.slice(0, 0)))
    assert got == {}


def test_large_string_doc_ids(tmp_path, base):
    t = with_column(base, "doc_id", base.column("doc_id").cast(pa.large_string()))
    assert t.schema.field("doc_id").type == pa.large_string()
    assert_same_entries(write(tmp_path, t))


def test_datagen_fragments_many_batches(tmp_path):
    from product_quality_check_ray.datagen import write_sequences

    d = write_sequences(str(tmp_path / "seq"), 2000, seed=7, num_fragments=4)
    for p in sorted(glob.glob(os.path.join(d, "frag-*.parquet"))):
        assert_same_entries(p, batch_size=37)


def test_resume_keeps_partitions_written_by_the_loop(ray_session, tmp_path, report_fields):
    """Lineage whose per-source entries came from the replaced loop (same
    engine version) is kept whole by a resume, and gives the cold report."""
    from product_quality_check_ray.datagen import write_sequences

    assert lin.ENGINE_VERSION == 3
    seq = write_sequences(str(tmp_path / "seq"), 1000, seed=11, num_fragments=4)
    out = str(tmp_path / "out")
    cold = run_validation(seq, out, uniqueness=False)
    ctx = RowCheckStage(allowlist_rows=SOURCE_ALLOWLIST).ctx
    for f in sorted(glob.glob(os.path.join(seq, "frag-*.parquet"))):
        pid = lin.part_id_for(f)
        rec = lin.read_lineage(out, pid)
        loop = loop_entries(ctx, pq.ParquetFile(f).iter_batches())
        assert json.dumps(rec["per_source"]) == json.dumps(loop)
        rec["per_source"] = loop
        lin.write_lineage(out, pid, rec)
    before = {p: os.stat(p).st_mtime_ns for p in glob.glob(os.path.join(out, "lineage", "*.json"))}
    resumed = run_validation(seq, out, uniqueness=False)
    after = {p: os.stat(p).st_mtime_ns for p in glob.glob(os.path.join(out, "lineage", "*.json"))}
    assert len(before) == 4 and after == before
    assert report_fields(resumed) == report_fields(cold)


def test_lineage_sketches_decode_to_the_loops_registers_and_hist(ray_session, tmp_path):
    """Each lineage entry's encoded HLL and sparse histogram decode to the
    registers and dense histogram the loop builds from the fragment's raw
    rows; small per-fragment sketches take the sparse form."""
    from product_quality_check_ray.datagen import write_sequences

    seq = write_sequences(str(tmp_path / "seq"), 1000, seed=11, num_fragments=4)
    out = str(tmp_path / "out")
    run_validation(seq, out, uniqueness=False)
    ctx = RowCheckStage(allowlist_rows=SOURCE_ALLOWLIST).ctx
    for f in sorted(glob.glob(os.path.join(seq, "frag-*.parquet"))):
        rec = lin.read_lineage(out, lin.part_id_for(f))
        want = loop_partials(ctx, pq.ParquetFile(f).iter_batches())
        assert sorted(rec["per_source"]) == sorted(want)
        for s, a in rec["per_source"].items():
            raw = lin.unb64(a["hll"])
            assert raw[:2] == bytes((12, 1)), s  # p=12, sparse
            regs = HyperLogLog.from_bytes(raw).registers
            assert np.array_equal(regs, want[s]["hll"].registers), s
            assert np.array_equal(dense_hist(a["hist"]), want[s]["hist"]), s
            assert 0 not in a["hist"]["counts"], s
