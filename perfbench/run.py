"""Benchmark of the validation engine: validate_full, validate_incremental and
prep_capstone over one seeded synthetic corpus, on `nproc` CPUs.

    python3 perfbench/run.py --workload validate_full --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see README.md).
Everything the run writes (corpus, outputs, Ray session, traces) stays under
``perfbench/_run/``.
"""

import time

_T0 = time.perf_counter()  # setup_s is measured from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import oracle  # noqa: E402
from layers import Tracer, kernel_replay  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(BENCH_DIR, "_run")

ROWS = 8000
NUM_FRAGMENTS = 32
SETUP_ROUNDS = 3
MIN_CALLS = 3
STEAL_SLACK = 0.01
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes; Ray nests its sockets up to
# 64 bytes deep under its temp dir (session_<date>_<time>_<pid>/sockets/...)
MAX_RAY_TEMP_DIR = 43


def nproc() -> int:
    """CPU count as the ``nproc`` command reports it (OMP_NUM_THREADS and the
    affinity mask included)."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# process-level measurements
# --------------------------------------------------------------------------


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_since(ticks: tuple[int, int]) -> float:
    """Share of all CPU time since ``ticks`` that the hypervisor gave to other
    guests while this one wanted to run."""
    steal, total = cpu_ticks()
    return (steal - ticks[0]) / max(1, total - ticks[1])


def least_disturbed(calls: list[dict]) -> list[dict]:
    """The calls with no more hypervisor steal than the least-disturbed half
    of ``calls`` (rounded up), plus ``STEAL_SLACK``.

    On a 4-vCPU VM sharing its host, steal moved from near 0 to over 20%
    within minutes, and a call's wall followed it (validate_full: 1.9 s at
    0.9% steal, 2.9 s at 14.8%). Ranking by steal, which the program cannot
    influence, keeps the program's own call-to-call variation in the sample;
    on a calm host every call stays in it."""
    ranked = sorted(calls, key=lambda c: c["steal"])
    if not ranked:
        return []
    limit = ranked[(len(ranked) - 1) // 2]["steal"] + STEAL_SLACK
    return [c for c in ranked if c["steal"] <= limit]


def file_state(d: str) -> dict[str, tuple]:
    out = {}
    for base, _, files in os.walk(d):
        for name in files:
            p = os.path.join(base, name)
            st = os.stat(p)
            out[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def bytes_written(before: dict[str, tuple], d: str) -> int:
    """Bytes of files under ``d`` created or rewritten since ``before``."""
    return sum(sig[1] for p, sig in file_state(d).items() if before.get(p) != sig)


# --------------------------------------------------------------------------
# processes this run starts
# --------------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts: a Ray worker
    or helper whose parent exits is re-parented here rather than to init, so
    ``stop_descendants`` can still find it and wait for it."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def descendants() -> list[int]:
    parent = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            with contextlib.suppress(OSError, IndexError, ValueError):
                with open(f"/proc/{pid}/stat") as f:
                    # the command name may hold spaces; fields resume after ")"
                    parent[int(pid)] = int(f.read().rsplit(")", 1)[1].split()[1])
    me, found = os.getpid(), set()
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if pid not in found and (ppid == me or ppid in found):
                found.add(pid)
                grew = True
    return sorted(found)


def reap() -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass


def stop_descendants(grace_s: float = 10.0) -> None:
    """End every process this run started and wait until each has ended:
    SIGTERM, then SIGKILL after ``grace_s``, then reap until no child is left.
    Orphans come back here (``adopt_orphans``), so no child left means no
    descendant left."""
    from multiprocessing import resource_tracker

    # the tracker the oracle's process pool started ignores SIGTERM and
    # exits once its pipe closes
    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    left = descendants()
    if left:
        names = []
        for pid in left:
            with contextlib.suppress(OSError):
                with open(f"/proc/{pid}/comm") as f:
                    names.append(f.read().strip())
        print(f"perfbench: stopping processes left after shutdown: {names}", file=sys.stderr)
    t = time.perf_counter()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in descendants():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            reap()
            if not descendants():
                if left:
                    print(f"perfbench: they ended after {time.perf_counter() - t:.2f}s", file=sys.stderr)
                return
            time.sleep(0.05)
    with contextlib.suppress(ChildProcessError):
        while True:
            os.waitpid(-1, 0)


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------


def ray_processes_running() -> bool:
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            with contextlib.suppress(OSError):
                with open(f"/proc/{pid}/comm") as f:
                    if f.read().strip() in ("raylet", "gcs_server"):
                        return True
    return False


def start_ray(cpus: int) -> None:
    if ray_processes_running():
        # a session left behind by a killed run would compete for the CPUs
        subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                       capture_output=True, check=False, timeout=60)

    import logging

    import ray

    temp_dir = os.path.join(RUN_DIR, "r")
    kwargs = {}
    if len(temp_dir) <= MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
    else:
        kwargs["_temp_dir"] = os.path.join("/tmp", "ray")
        print(f"perfbench: {temp_dir} is too long for Ray's sockets; "
              f"using {kwargs['_temp_dir']}", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        # keep warmed workers: Ray's default reaps idle workers after 1 s,
        # and on a 1-CPU session every reap costs the next call a Python
        # worker start (measured: bimodal 0.7 s / 1.8 s duplicate phase)
        _system_config={"idle_worker_killing_time_threshold_ms": 3_600_000},
        **kwargs,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One benchmark workload over the seeded corpus.

    ``setup_round`` is one full set-up (corpus + whatever the first timed call
    needs); ``before``/``call``/``observe`` bracket one timed call; ``check``
    compares the observations with the oracle after the timed part."""

    root_span = "validate"

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.corpus = ""
        self.out = os.path.join(work, "out")

    def fragments(self) -> list[str]:
        import glob

        return sorted(glob.glob(os.path.join(self.corpus, "frag-*.parquet")))

    def setup_round(self, k: int) -> None:
        from product_quality_check_ray import datagen

        if self.corpus:
            shutil.rmtree(self.corpus)
        self.corpus = os.path.join(self.work, f"corpus-{k}")
        datagen.write_sequences(self.corpus, ROWS, self.seed, num_fragments=NUM_FRAGMENTS)
        self.prepare()

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.call()

    def before(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def revalidated_fragments(self) -> list[str]:
        return self.fragments()

    def check(self, observations: list) -> list[list[str]]:
        expected = oracle.validate_expectation(self.corpus)
        return [self.mismatches(obs, expected) for obs in observations]

    def mismatches(self, obs, expected) -> list[str]:
        problems = list(obs["problems"])
        if obs["counts"] != expected["check_counts"]:
            problems.append(f"check_counts {obs['counts']} != oracle {expected['check_counts']}")
        if obs["duplicates"] != expected["duplicates"]:
            problems.append("duplicate doc_ids differ from the oracle")
        if obs["violation_rows"] != expected["violation_rows"]:
            problems.append(
                f"violation rows {obs['violation_rows']} != oracle {expected['violation_rows']}"
            )
        return problems + oracle.quantile_problems(obs["quantiles"], expected["quantile_bounds"])

    def observe_report(self, summary: dict, problems: list[str]) -> dict:
        return {
            "counts": summary["check_counts"],
            "duplicates": summary["duplicates"],
            "violation_rows": oracle.violation_rows(self.out),
            "quantiles": oracle.quantile_values(summary),
            "problems": problems,
        }


class ValidateFull(Workload):
    """Cold ``run_validation(corpus, out, resume=False)`` into an empty out dir."""

    def call(self):
        from product_quality_check_ray.pipelines.validate import run_validation

        return run_validation(self.corpus, self.out, resume=False)

    def observe(self, rep) -> dict:
        return self.observe_report(oracle.report_summary(rep), [])


class ValidateIncremental(Workload):
    """Resume over the out dir of a completed cold run after the first
    fragment was rewritten (same rows, new fingerprint)."""

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.cold = oracle.report_summary(self.call())  # resume over nothing: a cold run

    def before(self) -> None:
        import pyarrow.parquet as pq

        path = self.fragments()[0]
        pq.write_table(pq.read_table(path), path)

    def revalidated_fragments(self) -> list[str]:
        return self.fragments()[:1]

    def call(self):
        from product_quality_check_ray.pipelines.validate import run_validation

        return run_validation(self.corpus, self.out, resume=True)

    def observe(self, rep) -> dict:
        summary = oracle.report_summary(rep)
        diff = oracle.summary_differences(summary, self.cold)
        return self.observe_report(summary, [f"differs from the cold report at {d}" for d in diff])


class PrepCapstone(Workload):
    """``tokens.prepare_training_sequences(corpus, out_dir=...)`` into an
    empty out dir, result Dataset drained."""

    root_span = "tokens"

    def call(self):
        import pyarrow as pa

        from product_quality_check_ray.pipelines import tokens

        ds = tokens.prepare_training_sequences(self.corpus, out_dir=self.out)
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))

    def revalidated_fragments(self) -> list[str]:
        return []

    def observe(self, table):
        return oracle.canonical_plan(table)

    def check(self, observations: list) -> list[list[str]]:
        expected = oracle.prep_expectation(self.corpus)
        return [
            [] if t.equals(expected) else [f"plan ({t.num_rows} rows) != DuckDB oracle ({expected.num_rows} rows)"]
            for t in observations
        ]


WORKLOAD_CLASSES = {
    "validate_full": ValidateFull,
    "validate_incremental": ValidateIncremental,
    "prep_capstone": PrepCapstone,
}


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


def run(args, work: str) -> dict:
    import pyarrow.parquet as pq

    cpus = nproc()
    start_ray(cpus)
    wl = WORKLOAD_CLASSES[args.workload](work, args.seed)
    pre_s = time.perf_counter() - _T0
    rounds = []
    for k in range(SETUP_ROUNDS):
        t = time.perf_counter()
        wl.setup_round(k)
        rounds.append(time.perf_counter() - t)
    setup_s = pre_s + median(rounds)
    corpus_bytes = sum(os.path.getsize(p) for p in wl.fragments())
    total_rows = sum(pq.read_metadata(p).num_rows for p in wl.fragments())

    tracer = Tracer()
    calls, observations, failed_calls, replay_paths = [], [], set(), set()
    min_calls = MIN_CALLS + 1 if args.trace else MIN_CALLS
    reset_peak_rss()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_calls or time.perf_counter() < deadline:
        traced = bool(args.trace) and i % 2 == 1
        wl.before()
        state = file_state(wl.out) if os.path.isdir(wl.out) else {}
        try:
            cm = tracer.call(wl.root_span) if traced else contextlib.nullcontext()
            ticks = cpu_ticks()
            t = time.perf_counter()
            with cm:
                result = wl.call()
            wall = time.perf_counter() - t
            steal = steal_since(ticks)
            observation = wl.observe(result)
        except Exception:
            traceback.print_exc()
            failed_calls.add(i)
            observations.append(None)
        else:
            observations.append(observation)
            call = {"wall": wall, "steal": steal, "written": bytes_written(state, wl.out)}
            if traced:
                frags = wl.revalidated_fragments()
                replay_paths.update(frags)
                call["trace"] = len(tracer.counts) - 1
                call["rows"] = sum(pq.read_metadata(p).num_rows for p in frags)
            calls.append(call)
        i += 1
    rss_mb = peak_rss_mb()
    loop_end = time.perf_counter()

    checked = wl.check([o for o in observations if o is not None])
    it = iter(checked)
    for j, obs in enumerate(observations):
        if obs is not None:
            problems = next(it)
            if problems:
                print(f"perfbench: call {j} output mismatch: {problems}", file=sys.stderr)
                failed_calls.add(j)
    attempted, failed = i, len(failed_calls)
    walls = " ".join("%.3f@%.1f%%" % (c["wall"], 100 * c["steal"]) for c in calls)
    print(f"perfbench: {args.workload} on {cpus} CPUs, pre {pre_s:.1f}s, "
          f"set-up rounds {[round(r, 2) for r in rounds]}, {i} calls (wall s @ steal) "
          f"{walls}, "
          f"check {time.perf_counter() - loop_end:.1f}s", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}

    untraced = least_disturbed([c for c in calls if "trace" not in c])
    wall = median([c["wall"] for c in untraced])
    if not args.trace:
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "seq_per_s": (total_rows / wall if wall else 0.0, "seq/s"),
            "driver_peak_rss_mb": (rss_mb, "MB"),
            "write_bytes_per_in_byte": (median([c["written"] for c in calls]) / corpus_bytes, "ratio"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
        return result

    trace_path = os.path.join(RUN_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    traced = least_disturbed([c for c in calls if "trace" in c])
    per_call = [tracer.call_breakdown(c["trace"]) for c in traced]
    counts = [tracer.counts[c["trace"]] for c in traced]

    def span_s(name):
        return median([b.get(name, 0.0) for b in per_call])

    def count(name):
        return median([c.get(name, 0) for c in counts])

    replay_set = sorted(replay_paths) or wl.fragments()
    rates = kernel_replay(replay_set, os.path.join(work, "replay"))
    validate_self = span_s("validate.self")
    replay_s = median([c["rows"] for c in traced]) * (1 / rates["read"] + 1 / rates["stage"])
    result["metrics"] = {
        "validate.self_s": (validate_self, "s"),
        "validate.materialize_duplicates_s": (span_s("validate.materialize_duplicates"), "s"),
        "validate.materialize_duplicates.useful_ratio": (
            count("validate.materialize_duplicates.rows_kept") / total_rows, "ratio"),
        "dupfinder.find_duplicates_s": (span_s("dupfinder.find_duplicates"), "s"),
        "dupfinder.dup_ids": (count("dupfinder.dup_ids"), "count"),
        "dupfinder.find_dup_hash_values_s": (span_s("dupfinder.find_dup_hash_values"), "s"),
        "lineage.partition_complete_s": (span_s("lineage.partition_complete"), "s"),
        "lineage.partitions_skipped": (count("lineage.partitions_skipped"), "count"),
        "drift.drift_verdicts_s": (span_s("drift.drift_verdicts"), "s"),
        "tokens.self_s": (span_s("tokens.self"), "s"),
        "tokens.gram_index_from_ds_s": (span_s("tokens.gram_index_from_ds"), "s"),
        "read.files_opened": (count("read.files_opened"), "count"),
        "row_checks.annotate_batch.rows_per_s": (rates["annotate"], "rows/s"),
        "validate.RowCheckStage.rows_per_s": (rates["stage"], "rows/s"),
        "parquet.read.rows_per_s": (rates["read"], "rows/s"),
        "hashing.hash_strings.rows_per_s": (rates["hash"], "rows/s"),
        # workloads without row-check waves have no validate self time to share
        "validate.framework_share": (1 - replay_s / validate_self if validate_self else 0.0, "ratio"),
        "trace.overhead_frac": (median([c["wall"] for c in traced]) / wall - 1, "ratio"),
    }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOAD_CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "product_quality_check_ray", "__init__.py")):
        print(f"perfbench: no product_quality_check_ray package under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    adopt_orphans()
    # a run stopped with SIGTERM (e.g. on a timeout) cleans up as on any exit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(RUN_DIR, f"w{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # everything the package, Ray workers and DuckDB write stays in RUN_DIR
    os.environ["TMPDIR"] = work
    os.environ["PQCRAY_DATA_ROOT"] = os.path.join(work, "data")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, BENCH_DIR] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
    )
    sys.path[:0] = [ROOT, BENCH_DIR]

    # library and Ray output goes to stderr; stdout carries only the result
    real_stdout = os.dup(1)
    sys.stdout.flush()
    os.dup2(2, 1)
    try:
        result = run(args, work)
    except Exception as e:
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        with contextlib.suppress(Exception):
            import ray

            ray.shutdown()
        stop_descendants()
        for d in (work, os.path.join(RUN_DIR, "r")):
            shutil.rmtree(d, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)

    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
