"""Hard-kill durability: SIGKILL mid-run, resume, identical final output
(SURVEY.md §5 test plan item 4; north-rule checkpoint/lineage contract)."""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

# the checkout these tests sit in: child processes import its package
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import ray, sys
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from product_quality_check_ray.pipelines.validate import run_validation
# tiny waves + slow artificial pace so the parent can kill us mid-run
run_validation(sys.argv[1], sys.argv[2], wave_files=1, uniqueness=False)
print("CHILD_DONE")
"""


@pytest.mark.timeout(300)
def test_sigkill_then_resume(ray_session, tmp_path, report_fields):
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.validate import run_validation
    from product_quality_check_ray.state import lineage as lin

    seq = write_sequences(str(tmp_path / "seq"), 6000, seed=5, num_fragments=12)
    out = str(tmp_path / "out")

    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, seq, out],
        cwd=REPO,
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            done = glob.glob(os.path.join(out, "lineage", "part=*.json"))
            if len(done) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.2)
        else:
            pytest.skip("child never published a partition in time")
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)

    completed = sorted(glob.glob(os.path.join(out, "lineage", "part=*.json")))
    assert completed, "no partitions completed before the kill"
    assert not os.path.exists(os.path.join(out, "_RUN_SUCCESS.json"))
    mtimes_before = {p: os.path.getmtime(p) for p in completed}

    # resume in-process: completed partitions must be skipped untouched
    rep = run_validation(seq, out, resume=True, uniqueness=False)
    for p, m in mtimes_before.items():
        if json.load(open(p)).get("processed_rows") is not None:
            assert os.path.getmtime(p) == m, f"completed partition rewritten: {p}"
    assert os.path.exists(os.path.join(out, "_RUN_SUCCESS.json"))

    # the resumed run's report equals an uninterrupted fresh run's in every
    # field, t-digest quantiles included
    fresh = run_validation(seq, str(tmp_path / "out_fresh"), uniqueness=False)
    assert rep.total_rows == fresh.total_rows == 6000
    assert report_fields(rep) == report_fields(fresh)


PREP_CHILD = """
import ray, sys
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from product_quality_check_ray.pipelines.tokens import prepare_training_sequences
prepare_training_sequences(sys.argv[1], out_dir=sys.argv[2])
print("CHILD_DONE")
"""


@pytest.mark.timeout(300)
def test_prep_sigkill_then_rerun(ray_session, tmp_path):
    """The capstone's all-or-nothing sink contract under a hard kill: a
    SIGKILL mid-write leaves no success marker; the rerun REMOVES the
    partial shard files and produces output identical to an uninterrupted
    fresh run (no partial-file contamination)."""
    from product_quality_check_ray.datagen import write_sequences
    from product_quality_check_ray.pipelines.tokens import prepare_training_sequences

    seq = write_sequences(str(tmp_path / "seq"), 6000, seed=6, num_fragments=12)
    out = str(tmp_path / "prep_out")

    proc = subprocess.Popen(
        [sys.executable, "-c", PREP_CHILD, seq, out],
        cwd=REPO,
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    killed_mid_write = False
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if glob.glob(os.path.join(out, "shard=*")):
                killed_mid_write = True
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)

    # whether we caught it mid-write or pre-write, no success marker may
    # exist unless the child actually finished
    child_done = proc.stdout is not None and b"CHILD_DONE" in (proc.stdout.read() or b"")
    if child_done:
        pytest.skip("child finished before the kill; nothing to test")
    assert not os.path.exists(os.path.join(out, "_PREP_SUCCESS.json"))

    got = prepare_training_sequences(seq, out_dir=out).to_pandas()
    assert os.path.exists(os.path.join(out, "_PREP_SUCCESS.json"))
    fresh = prepare_training_sequences(
        seq, out_dir=str(tmp_path / "prep_fresh")
    ).to_pandas()
    cols = ["doc_id", "shard", "pack_id", "pack_pos", "tok_offset", "n_tok"]
    ga = got[cols].astype(str).sort_values(cols).reset_index(drop=True)
    fa = fresh[cols].astype(str).sort_values(cols).reset_index(drop=True)
    assert ga.equals(fa)
    del killed_mid_write  # mid-write kills are the interesting case, but a
    # pre-write kill still exercises the no-marker → full-rerun path
