"""A validate partition's partial depends only on its fragment's rows: the
report (quantiles included) and the violation sink are the same whatever
the wave size, the row-group layout or the resume history."""

import glob
import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from product_quality_check_ray.pipelines.validate import (
    _check_group,
    _publish_wave,
    run_validation,
)
from product_quality_check_ray.state import lineage as lin


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """8000 rows in 32 fragments: enough rows per fragment that a block
    split of the input could show in the t-digest quantiles."""
    from product_quality_check_ray.datagen import write_sequences

    return write_sequences(
        str(tmp_path_factory.mktemp("det") / "seq"), 8000, seed=5, num_fragments=32
    )


def sink_files(out: str) -> dict[str, str]:
    """{path under out_dir: sha1 of the bytes} of every violation file."""
    return {
        os.path.relpath(f, out): hashlib.sha1(open(f, "rb").read()).hexdigest()
        for f in sorted(glob.glob(os.path.join(out, "violations", "part=*", "*.parquet")))
    }


def test_cold_equals_resumed_after_rewrite(
    ray_session, corpus, tmp_path, report_fields
):
    seq = str(tmp_path / "seq")
    shutil.copytree(corpus, seq)
    out = str(tmp_path / "out")
    run_validation(seq, out)
    # same rows, new fingerprint: only this partition re-validates
    frag = sorted(glob.glob(os.path.join(seq, "frag-*.parquet")))[5]
    pq.write_table(pq.read_table(frag), frag)
    resumed = run_validation(seq, out, resume=True)
    cold = run_validation(seq, str(tmp_path / "cold"), resume=False)
    assert resumed.global_stats["p50_n_tok"] == cold.global_stats["p50_n_tok"]
    assert report_fields(resumed) == report_fields(cold)
    assert sink_files(out) == sink_files(str(tmp_path / "cold"))


def test_wave_files_identical_reports_and_sinks(
    ray_session, corpus, tmp_path, report_fields
):
    outs = {w: str(tmp_path / f"w{w}") for w in (1, 8, 128)}
    reps = {w: run_validation(corpus, o, resume=False, wave_files=w) for w, o in outs.items()}
    sinks = {w: sink_files(o) for w, o in outs.items()}
    assert sinks[1], "the fixture has violations"
    for w in (8, 128):
        assert report_fields(reps[w]) == report_fields(reps[1]), w
        assert sinks[w] == sinks[1], w


def test_row_group_layout_does_not_change_report(
    ray_session, corpus, tmp_path, report_fields
):
    frags = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))[:4]
    t = pa.concat_tables([pq.read_table(f) for f in frags])
    for name, rg in (("one", t.num_rows), ("tiny", 10)):
        os.makedirs(tmp_path / name)
        pq.write_table(t, str(tmp_path / name / "frag-00000.parquet"), row_group_size=rg)
    assert pq.ParquetFile(str(tmp_path / "tiny" / "frag-00000.parquet")).num_row_groups > 1
    one = run_validation(str(tmp_path / "one"), str(tmp_path / "o1"), resume=False)
    tiny = run_validation(str(tmp_path / "tiny"), str(tmp_path / "o2"), resume=False)
    assert report_fields(one) == report_fields(tiny)


def test_empty_fragment_in_wave_publishes_lineage(ray_session, corpus, tmp_path):
    seq = str(tmp_path / "seq")
    os.makedirs(seq)
    frags = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))[:3]
    for f in frags:
        shutil.copy(f, seq)
    empty = os.path.join(seq, "frag-00001.parquet")
    pq.write_table(pq.read_table(empty).slice(0, 0), empty)
    out = str(tmp_path / "out")
    rep = run_validation(seq, out, wave_files=3)
    rec = lin.read_lineage(out, lin.part_id_for(empty))
    assert rec is not None
    assert rec["file_rows"] == rec["processed_rows"] == 0
    assert rec["per_source"] == {}
    assert rep.partitions[lin.part_id_for(empty)]["pass"] is True
    assert rep.total_rows == sum(pq.read_metadata(f).num_rows for f in frags[::2])


def test_old_engine_version_lineage_is_revalidated(ray_session, corpus, tmp_path):
    seq = str(tmp_path / "seq")
    os.makedirs(seq)
    frags = sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))[:2]
    for f in frags:
        shutil.copy(f, seq)
    out = str(tmp_path / "out")
    run_validation(seq, out, uniqueness=False)
    stale, kept = (lin.part_id_for(os.path.join(seq, os.path.basename(f))) for f in frags)
    p = lin.lineage_path(out, stale)
    rec = json.load(open(p))
    rec["engine_version"] = 1
    rec["wall_s"] = -1.0  # a marker a re-validation overwrites
    with open(p, "w") as f:
        json.dump(rec, f)
    mtime_kept = os.path.getmtime(lin.lineage_path(out, kept))
    run_validation(seq, out, resume=True, uniqueness=False)
    rec = lin.read_lineage(out, stale)
    assert rec["engine_version"] == lin.ENGINE_VERSION == 3
    assert rec["wall_s"] >= 0
    assert os.path.getmtime(lin.lineage_path(out, kept)) == mtime_kept


def test_partition_wall_is_its_fragments_own(ray_session, tmp_path):
    """Each lineage record carries its own fragment's check wall, not the
    wave's: in one wave a 40k-row fragment's wall_s exceeds a 10-row one's."""
    from product_quality_check_ray.datagen import write_sequences

    src = write_sequences(str(tmp_path / "src"), 40000, seed=9, num_fragments=1)
    big = glob.glob(os.path.join(src, "frag-*.parquet"))[0]
    seq = str(tmp_path / "seq")
    os.makedirs(seq)
    shutil.copy(big, os.path.join(seq, "frag-000.parquet"))
    pq.write_table(pq.read_table(big).slice(0, 10), os.path.join(seq, "frag-001.parquet"))
    rep = run_validation(seq, str(tmp_path / "out"), uniqueness=False)
    walls = {p["file_rows"]: p["wall_s"] for p in rep.partitions.values()}
    assert walls[40000] > walls[10]


def test_fragment_rewritten_after_its_check_is_not_complete(
    ray_session, corpus, tmp_path, report_fields
):
    """A lineage record carries the fingerprint of the file its task read:
    a fragment rewritten (same row count, different rows) between its check
    and the publish is not complete, and the next run re-validates it."""
    import ray

    seq = str(tmp_path / "seq")
    os.makedirs(seq)
    frag = os.path.join(seq, "frag-00000.parquet")
    shutil.copy(sorted(glob.glob(os.path.join(corpus, "frag-*.parquet")))[0], frag)
    before = lin.file_fingerprint(frag)
    checked = ray.get(_check_group.remote([frag]))
    t = pq.read_table(frag)
    ids = t.column("doc_id")
    t = t.set_column(
        t.schema.get_field_index("doc_id"),
        "doc_id",
        pa.array([None if d is None else d + "-v2" for d in ids.to_pylist()], ids.type),
    )
    pq.write_table(t, frag)
    assert lin.file_fingerprint(frag) != before
    assert pq.read_metadata(frag).num_rows == checked[frag][3]
    out = str(tmp_path / "out")
    _publish_wave(out, [frag], checked)
    rec = lin.read_lineage(out, lin.part_id_for(frag))
    assert rec["input_fingerprint"] == before
    assert rec["processed_rows"] == rec["file_rows"]
    assert not lin.partition_complete(out, frag)

    resumed = run_validation(seq, out, uniqueness=False)
    cold = run_validation(seq, str(tmp_path / "cold"), uniqueness=False)
    assert lin.partition_complete(out, frag)
    assert report_fields(resumed) == report_fields(cold)


def test_report_merges_equal_the_serialized_round_trip(ray_session, corpus, tmp_path):
    """``_assemble_report`` merges each source's t-digest and HLL into the
    global ones directly; that gives the same quantiles and distinct
    estimates as merging ``from_bytes(to_bytes())`` copies of them."""
    from product_quality_check_ray.state.sketches import HyperLogLog, TDigest

    out = str(tmp_path / "out")
    rep = run_validation(corpus, out, uniqueness=False)
    recs = lin.all_lineage(out)
    per: dict[str, tuple] = {}
    for pid in sorted(recs):
        for s, a in recs[pid]["per_source"].items():
            td, hll = per.setdefault(s, (TDigest(), HyperLogLog()))
            td.merge(TDigest.from_bytes(lin.unb64(a["td"])))
            hll.merge(HyperLogLog.from_bytes(lin.unb64(a["hll"])))
    g_td, g_hll = TDigest(), HyperLogLog()
    for td, hll in per.values():
        g_td.merge(TDigest.from_bytes(td.to_bytes()))
        g_hll.merge(HyperLogLog.from_bytes(hll.to_bytes()))
    for q in (50, 90, 99):
        assert rep.global_stats[f"p{q}_n_tok"] == g_td.quantile(q / 100), q
    assert rep.global_stats["distinct_doc_est"] == g_hll.estimate()
    for s, (td, hll) in per.items():
        assert rep.per_source[s]["p50_n_tok"] == td.quantile(0.5), s
        assert rep.per_source[s]["p99_n_tok"] == td.quantile(0.99), s
        assert rep.per_source[s]["distinct_doc_est"] == hll.estimate(), s
