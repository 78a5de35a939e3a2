"""Flagship pipeline: streaming validation of a sequences Parquet corpus.

Dataflow (SURVEY.md §3.1 "our engine's equivalent plan")::

    waves of fragments → one plain task per file group (dupfinder.file_groups)
      └ RowCheckStage.check_fragment(path)              # ONE fused pass:
           • each fragment read once, batch by batch (ParquetFile.iter_batches)
           • schema conformance + all row checks (vectorized, zero-copy)
           • violation rows → partition-local parquet (side sink, no shuffle)
           • per-(fragment, source) partial, every source in one pass per
             batch (SourcePartials): one source encode, bincounts over the
             code for counts and n_tok histogram, one np.unique for exact
             n_tok value counts (→ one t-digest per source at the end), one
             doc_id hash into a [sources, 2^p] HLL register array
                                              ← the ONLY data leaving the task
      └ driver: one partial per (fragment, source) → per-partition lineage
    uniqueness phase: doc_id-only reads → hash-range tree reduce
      (state/dupfinder) → dup set → broadcast to one plain task per file
      group → only the row groups holding duplicates are read in full
    drift phase: merged per-source histograms vs reference dimension (no rows)

Scale notes (100 TB / 256 nodes):
- The full-row pass never shuffles: token payloads stay inside their input
  fragment's task; only O(fragments × sources) partials move, and a worker
  holds one read batch at a time, not a whole fragment. A partial is a few
  hundred bytes to a few KB: its HLL is stored sparse (the nonzero registers
  only) while it holds under m/3 of them, and its histogram as the nonzero
  bins only; its t-digest holds at most ~delta/2 centroids.
- A partition's partial is a function of its fragment's rows only — not of
  the batching, the wave size or the file grouping — so a resumed report
  equals a cold one in every field, quantiles included.
- The uniqueness reduce ships ONLY (hash, count) pairs — never tokens
  (SURVEY.md §7.4) — and hash ranges spread the key volume evenly whatever
  the doc_id skew; the final dup set is tiny.
- Duplicate-row materialization reads each fragment's doc_id column, then
  only the row groups holding duplicate rows — token payloads of the rest
  of the corpus are never read. This assumes |duplicates| ≪ |corpus|, which
  holds for training-data QA; if it ever doesn't, the dup set itself should
  become a Dataset and the materialization a hash join on doc_id.
- Waves of input files bound the checkpoint granularity: lineage records are
  published per wave, so a killed job re-validates at most one wave.

Reference analogs: candidate→verdict per-row loop (``app.py:986-1448``),
failed-rows CSV (``app.py:1516-1521``), durability/resume
(``utils/durability.py:5-31``) — re-architected as above, not ported.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..checks.drift import drift_verdicts
from ..checks.row_checks import ROW_CHECK_NAMES, annotate_batch, conform_schema
from ..core.schema import HIST_BIN_WIDTH, HIST_NUM_BINS, SOURCE_ALLOWLIST
from ..sources.dimensions import build_check_ctx, reference_histograms_dim
from ..state import dupfinder
from ..state import lineage as lin
from ..state.sketches import HyperLogLog, TDigest, add_strings_grouped

_SENTINEL_MIN = 2**62


def _table_digest(pid: str, t: pa.Table) -> str:
    """Content digest over the FULL serialized table for side-sink filenames.

    Task retries rewrite byte-identical content to the same name (idempotent
    overwrite, never append-duplicates); two DIFFERENT batches collide only
    if their entire violation tables are byte-identical — impossible for
    rows with distinct token payloads. (A doc_id-only digest was measured
    collision-prone: two batches each holding one null-doc_id row hashed
    identically and silently overwrote each other.)"""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    h = hashlib.sha1(pid.encode())
    h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()[:16]


def _sink_write(d: str, prefix: str, pid: str, t: pa.Table) -> None:
    """Content-addressed side-sink file ``<d>/<prefix>-<digest>.parquet``."""
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, f"{prefix}-{_table_digest(pid, t)}.parquet"))


def _phase_log(name: str, t0: float) -> None:
    """Per-phase wall-time telemetry (stderr) when PQCRAY_TIMING is set."""
    if os.environ.get("PQCRAY_TIMING"):
        import sys

        print(f"[pqcray] {name}: {time.time() - t0:.2f}s", file=sys.stderr, flush=True)


class RowCheckStage:
    """Fused row checks + violation side-sink + per-(fragment, source)
    partials.

    Each batch's rows are checked, their violations written, and then added
    to the fragment's ``SourcePartials`` in one vectorized pass over all
    sources (no per-source Python loop); the lineage entries are built from
    it once, at the end of the fragment.

    Dimension state (allowlist, caps, vocab) is built in ``__init__``, once
    per file-group task (``_check_group``) — the Ray-native version of the
    reference's module-global dictionary indexes (``banningredients.py:25``).
    """

    def __init__(
        self,
        allowlist_rows: list[dict] | None = None,
        out_dir: str | None = None,
        write_violations: bool = True,
        enabled_checks: list[str] | None = None,
        write_clean: bool = False,
        schema_repair: bool = False,
        prescreen: "dict[str, frozenset] | None" = None,
        warn_checks: list[str] | None = None,
    ):
        self.ctx = build_check_ctx(
            allowlist_rows,
            enabled_checks=enabled_checks,
            schema_repair=schema_repair,
            warn_checks=warn_checks,
        )
        self.out_dir = out_dir
        self.write_violations = write_violations and out_dir is not None
        self.write_clean = write_clean and out_dir is not None
        # footer-statistics prescreen: {absolute path: frozenset of check
        # names PROVEN clean for that fragment}
        self.prescreen = prescreen or {}

    def __call__(self, batch: pa.Table) -> dict[str, dict]:
        """Partials of one fragment's rows, given as a table with a ``path``
        column (the entry for replaying the stage without Ray)."""
        paths = pc.unique(batch.column("path")).to_pylist()
        if len(paths) > 1:
            raise ValueError(f"RowCheckStage takes one fragment's rows, got {len(paths)} paths")
        return self._check(paths[0], [batch.drop_columns(["path"])]) if paths else {}

    def check_fragment(self, path: str) -> tuple[dict[str, dict], dict, int]:
        """Check one fragment, read once in pyarrow's default batches:
        (per-source entries, fingerprint, Parquet row count), the last two
        of the open file the rows came from. A fragment rewritten after the
        open keeps the old fingerprint, so a resume re-validates it."""
        with open(path, "rb") as f:
            fingerprint = lin.file_fingerprint(f.fileno())
            pf = pq.ParquetFile(f)
            return self._check(path, pf.iter_batches()), fingerprint, pf.metadata.num_rows

    def _check(self, path: str, batches: Iterable) -> dict[str, dict]:
        """{source: lineage per-source entry} for one fragment. Every field
        adds up exactly across batches, and the t-digest is built once from
        the fragment's exact n_tok value counts, so the result depends on
        the fragment's rows only, not on how they were batched."""
        ctx = self.ctx
        proven = self.prescreen.get(os.path.abspath(path))
        if proven:
            # drop footer-proven checks for this fragment; proofs are SOUND
            # (a proven check cannot fire on any row here), so the output is
            # bit-identical to the full pass — the kernels just never run
            base = ctx.get("enabled_checks")
            base_set = set(ROW_CHECK_NAMES) if base is None else set(base)
            ctx = dict(ctx)
            ctx["enabled_checks"] = frozenset(base_set - proven)
        pid = lin.part_id_for(path)
        acc = SourcePartials()
        for b in batches:
            self._check_batch(pid, pa.table(b), ctx, acc)
        return acc.entries()

    def _check_batch(self, pid: str, t: pa.Table, ctx: dict, acc: SourcePartials) -> None:
        annotated, mat = annotate_batch(t, ctx)
        ok = np.asarray(annotated.column("ok").to_numpy(zero_copy_only=False), dtype=bool)
        if self.write_violations and not ok.all():
            viol = annotated.filter(pa.array(~ok))
            _sink_write(lin.violations_dir(self.out_dir, pid), "rc", pid, viol)
        if self.write_clean:
            # validated-corpus sink: passing rows, ORIGINAL columns only,
            # partition-local content-addressed parquet (same idempotent
            # layout/reset semantics as violations — row-check dedup checks
            # never hide here; only doc_id uniqueness is a later global pass)
            clean = t.filter(pa.array(ok))
            if clean.num_rows:
                _sink_write(lin.clean_dir(self.out_dir, pid), "ok", pid, clean)
        acc.add(annotated, ok, mat)


def source_codes(column: pa.ChunkedArray, index: dict[str, int]) -> np.ndarray:
    """int64 code of each row's source, null folded to the ``"\\x00null"``
    group. Sources not yet in ``index`` (source → code) are appended in
    order of first appearance, so one map keeps codes stable across the
    batches of a fragment."""
    enc = pc.dictionary_encode(pc.fill_null(column, "\x00null")).combine_chunks()
    lut = np.array(
        [index.setdefault(s, len(index)) for s in enc.dictionary.to_pylist()],
        dtype=np.int64,
    )
    return lut[enc.indices.to_numpy(zero_copy_only=False)]


def ntok_keys(codes: np.ndarray, n_tok: np.ndarray) -> np.ndarray:
    """``code << 32 | n_tok`` per row: one int64 key that sorts by source
    code, then n_tok. ``n_tok`` must lie in [0, 2^32)."""
    if n_tok.size and n_tok.max() >> 32:
        raise ValueError(f"n_tok {int(n_tok.max())} does not fit 32 bits")
    return (codes << 32) | n_tok


class SourcePartials:
    """One fragment's running per-source partials, as arrays indexed by a
    source code (``source_codes``, one map per fragment). Each batch adds in
    one vectorized pass, whatever its number of sources: ``bincount`` over
    the code for the row, ok and per-check counts and the histogram, one
    ``np.unique`` over ``ntok_keys`` for the exact n_tok value counts (sum,
    min and max follow from them exactly), and one doc_id hash feeding a
    ``[sources, 2^p]`` HLL register array."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.rows = np.zeros(0, dtype=np.int64)
        self.ok_rows = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros((0, len(ROW_CHECK_NAMES)), dtype=np.int64)
        self.hist = np.zeros((0, HIST_NUM_BINS + 1), dtype=np.int64)
        self.hll = np.zeros((0, HyperLogLog().m), dtype=np.uint8)
        # sorted distinct ntok_keys of the fragment's valid rows, and counts
        self.keys = np.empty(0, dtype=np.int64)
        self.key_counts = np.empty(0, dtype=np.int64)

    def add(self, t: pa.Table, ok: np.ndarray, mat: np.ndarray) -> None:
        """Add one annotated batch (``annotate_batch``'s table and matrix)."""
        code = source_codes(t.column("source"), self.index)
        n = len(self.index)
        if n > len(self.rows):
            for name in ("rows", "ok_rows", "counts", "hist", "hll"):
                a = getattr(self, name)
                pad = np.zeros((n - len(a),) + a.shape[1:], dtype=a.dtype)
                setattr(self, name, np.concatenate([a, pad]))
        self.rows += np.bincount(code, minlength=n)
        self.ok_rows += np.bincount(code[ok], minlength=n)
        k = len(ROW_CHECK_NAMES)
        r, j = np.nonzero(mat)
        self.counts += np.bincount(code[r] * k + j, minlength=n * k).reshape(n, k)

        n_tok = np.asarray(
            pc.fill_null(t.column("n_tok"), -1).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        valid = n_tok >= 0
        vc, vt = code[valid], n_tok[valid]
        nb = HIST_NUM_BINS + 1
        self.hist += np.bincount(
            vc * nb + np.minimum(vt // HIST_BIN_WIDTH, HIST_NUM_BINS), minlength=n * nb
        ).reshape(n, nb)
        # n_tok's domain is small-integer: keep exact value counts, so the
        # digest costs O(distinct values), not O(rows)
        keys, counts = np.unique(ntok_keys(vc, vt), return_counts=True)
        if self.keys.size:
            keys, inv = np.unique(np.concatenate([self.keys, keys]), return_inverse=True)
            merged = np.zeros(len(keys), dtype=np.int64)
            np.add.at(merged, inv, np.concatenate([self.key_counts, counts]))
            counts = merged
        self.keys, self.key_counts = keys, counts

        ids = t.column("doc_id")
        if ids.null_count < len(ids):
            if ids.null_count:
                code = code[np.asarray(pc.is_valid(ids))]
            add_strings_grouped(self.hll, code, ids.drop_null())

    def entries(self) -> dict[str, dict]:
        """{source: lineage per-source entry}, sources sorted."""
        codes = self.keys >> 32
        values = self.keys & 0xFFFFFFFF
        sums = np.zeros(len(self.index), dtype=np.int64)
        np.add.at(sums, codes, values * self.key_counts)
        bounds = np.searchsorted(codes, np.arange(len(self.index) + 1))
        out = {}
        for s in sorted(self.index):
            c = self.index[s]
            lo, hi = bounds[c], bounds[c + 1]
            out[s] = _finish_partial(
                {
                    "rows": int(self.rows[c]),
                    "ok_rows": int(self.ok_rows[c]),
                    "counts": self.counts[c],
                    "hist": self.hist[c],
                    "sum_n_tok": int(sums[c]),
                    "min_n_tok": int(values[lo]) if hi > lo else _SENTINEL_MIN,
                    "max_n_tok": int(values[hi - 1]) if hi > lo else -1,
                    "values": values[lo:hi],
                    "weights": self.key_counts[lo:hi].astype(np.float64),
                    "hll": HyperLogLog.from_registers(self.hll[c]),
                }
            )
        return out


def _finish_partial(a: dict) -> dict:
    """A running partial as its lineage per-source entry."""
    td = TDigest().add(a["values"].astype(np.float64), a["weights"])
    bins = np.flatnonzero(a["hist"])
    return {
        "rows": a["rows"],
        "ok_rows": a["ok_rows"],
        "viol_rows": a["rows"] - a["ok_rows"],
        "check_counts": {n: int(c) for n, c in zip(ROW_CHECK_NAMES, a["counts"])},
        "hist": {"bins": bins.tolist(), "counts": a["hist"][bins].tolist()},
        "sum_n_tok": a["sum_n_tok"],
        "min_n_tok": a["min_n_tok"],
        "max_n_tok": a["max_n_tok"],
        "td": lin.b64(td.to_bytes()),
        "hll": lin.b64(a["hll"].to_bytes()),
    }


def dense_hist(h: dict) -> np.ndarray:
    """A lineage entry's ``hist`` (nonzero bins and their counts) as the
    dense ``HIST_NUM_BINS + 1`` counts."""
    out = np.zeros(HIST_NUM_BINS + 1, dtype=np.int64)
    out[np.asarray(h["bins"], dtype=np.int64)] = h["counts"]
    return out


@ray.remote
def _check_group(paths: list[str], **stage_kwargs) -> dict[str, tuple[dict, float, dict, int]]:
    """Row-check one file group with one stage: {path: (per-source
    partials, the fragment's check wall in seconds, the fingerprint and
    Parquet row count of the file read)}."""
    stage = RowCheckStage(**stage_kwargs)
    out = {}
    for p in paths:
        t0 = time.perf_counter()
        per_source, fingerprint, file_rows = stage.check_fragment(p)
        out[p] = (per_source, time.perf_counter() - t0, fingerprint, file_rows)
    return out


@dataclass
class ValidationReport:
    partitions: dict[str, dict] = field(default_factory=dict)
    per_source: dict[str, dict] = field(default_factory=dict)
    drift: dict[str, dict] = field(default_factory=dict)
    duplicates: dict[str, int] = field(default_factory=dict)  # doc_id → count
    global_stats: dict[str, Any] = field(default_factory=dict)
    # observed per-source n_tok histograms (drift's left-hand side) — save
    # via sources.dimensions.save_reference_histograms to make THIS corpus
    # the drift reference for the next run (validate --export-hist)
    observed_hists: dict[str, Any] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(p["processed_rows"] for p in self.partitions.values())

    def check_counts(self) -> dict[str, int]:
        out = {n: 0 for n in ROW_CHECK_NAMES}
        for p in self.partitions.values():
            for n in ROW_CHECK_NAMES:
                out[n] += p["check_counts"][n]
        out["dup_doc_id"] = self.global_stats.get("dup_rows", 0)
        return out


class FailFastExceeded(RuntimeError):
    """Raised by ``run_validation(fail_fast_violations=N)`` when recorded
    row violations exceed the budget. The run stops between waves with all
    completed partitions' lineage intact and NO run-success record, so a
    later resume (without the budget, or with a higher one) finishes the
    remaining partitions instead of restarting."""

    def __init__(self, viol_rows: int, budget: int, partitions_done: int):
        self.viol_rows = viol_rows
        self.budget = budget
        self.partitions_done = partitions_done
        super().__init__(
            f"fail-fast: {viol_rows} violation rows recorded > budget {budget} "
            f"after {partitions_done} partitions"
        )


def input_fragments(input_path: str) -> list[str]:
    if os.path.isdir(input_path):
        return sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    return sorted(glob.glob(input_path))


def _chunks(xs: list, k: int):
    for i in range(0, len(xs), k):
        yield xs[i : i + k]


def run_validation(
    input_path: str,
    out_dir: str,
    *,
    allowlist_rows: list[dict] | None = None,
    resume: bool = True,
    wave_files: int = 128,
    write_violations: bool = True,
    uniqueness: bool = True,
    enabled_checks: list[str] | None = None,
    write_clean: bool = False,
    schema_repair: bool = False,
    prescreen: bool = False,
    fail_fast_violations: int | None = None,
    warn_checks: list[str] | None = None,
    reference_hists: "dict[str, np.ndarray] | None" = None,
) -> ValidationReport:
    """Run the full validation suite; resumable at wave granularity.

    ``prescreen=True`` first runs the footer-statistics proof scan
    (``tokens.stats_prescreen_files`` — KBs of footer per fragment, no data
    pages) against THIS run's dimension state and skips every proven check
    per fragment. Proofs are sound, so the report, violation rows and
    lineage are bit-identical to a full run; on a mostly-clean corpus (the
    steady state at 100 TB) the row pass drops the token min/max kernel —
    its single biggest cost — on every proven-clean shard.

    ``fail_fast_violations=N`` aborts the run (``FailFastExceeded``) as soon
    as recorded row violations exceed N — between waves, with completed
    partitions' lineage intact and no run-success record, so a 100 TB run
    on a systematically-broken corpus stops after one wave instead of
    burning the full pass, and a later resume finishes the remainder. A
    resumed run seeds the budget with the violations already recorded for
    the partitions it keeps. (Duplicate-id violations are global and
    counted only by the final uniqueness phase — the budget covers row
    checks.)

    ``warn_checks=[...]`` demotes named row checks to WARN severity
    (reference analog: advisory vs blocking verdicts in the reviewer UI):
    they still run, still count per check in ``check_counts()`` and still
    appear in ``checks_failed`` evidence, but a warn-only row passes — it
    stays out of the violations sink, out of ``viol_rows`` / per-partition
    pass-fail / the fail-fast budget, and goes INTO the clean sink. With
    ``warn_checks=None`` (default) behavior is bit-identical to before.

    ``reference_hists={source: bin_counts}`` drifts against a CUSTOM
    reference instead of the built-in dimension (load a saved one with
    ``sources.dimensions.load_reference_histograms``). The report exposes
    ``observed_hists`` — save them with ``save_reference_histograms`` to
    make THIS corpus the reference for the next run, closing the
    corpus-evolution loop (CLI: ``--ref-hist`` / ``--export-hist``).

    The fused row checks run as one plain task per file group
    (``dupfinder.file_groups``, the duplicate phase's grouping), each with
    one ``RowCheckStage`` that reads every fragment of its group once, in
    pyarrow's default read batches; a worker holds one batch at a time.
    Each (fragment, source) partial depends only on the fragment's rows, so
    reports and violation sinks are identical at any ``wave_files`` and
    across resumes.
    """
    files = input_fragments(input_path)
    if not files:
        raise FileNotFoundError(f"no parquet fragments under {input_path}")
    os.makedirs(out_dir, exist_ok=True)
    lin.clear_run_record(out_dir)
    # the out_dir must describe THIS corpus exactly: drop ghost state for
    # fragments removed/renamed since a prior run against the same out_dir
    # (resume + input fingerprints already cover modified/added fragments,
    # making a rerun a true incremental re-validation of an evolved corpus)
    lin.gc_stale_partitions(out_dir, files)
    allow = allowlist_rows if allowlist_rows is not None else SOURCE_ALLOWLIST
    # validate dimension + check-name config EAGERLY on the driver: a typo'd
    # check name or malformed allowlist fails here as a bare ValueError, not
    # minutes later wrapped in a RayTaskError from inside the first wave
    build_check_ctx(
        allow,
        enabled_checks=enabled_checks,
        schema_repair=schema_repair,
        warn_checks=warn_checks,
    )
    cfg_digest = _config_digest(
        allow, enabled_checks, warn_checks, schema_repair,
        write_violations, write_clean,
    )

    todo = []
    for f in files:
        if resume and lin.partition_complete(out_dir, f, config_digest=cfg_digest):
            continue
        lin.reset_partition(out_dir, lin.part_id_for(f))
        todo.append(f)

    # fail-fast budget: seed with violations already recorded for the
    # completed partitions a resume is keeping — the budget is a statement
    # about the corpus, not about this process's share of the work
    viol_so_far = 0
    parts_done = len(files) - len(todo)
    if fail_fast_violations is not None and parts_done:
        recs = lin.all_lineage(out_dir)
        todo_set = set(todo)  # hoisted: rebuilding this per file is O(n²)
        viol_so_far = sum(
            recs[pid]["viol_rows"]
            for pid in (lin.part_id_for(f) for f in files if f not in todo_set)
            if pid in recs
        )
        if viol_so_far > fail_fast_violations:
            raise FailFastExceeded(viol_so_far, fail_fast_violations, parts_done)

    proven_map: dict[str, frozenset] = {}
    if prescreen and todo:
        from .tokens import _PRESCREEN_CHECKS, stats_prescreen_files

        t0 = time.time()
        scan = stats_prescreen_files(todo, allowlist_rows=allow)
        # keyed by absolute path, as the stage looks fragments up
        proven_map = {
            os.path.abspath(p): frozenset(
                name[len("prove_") :]
                for name, flag in zip(_PRESCREEN_CHECKS, flags)
                if flag
            )
            for p, (_, flags) in scan.items()
        }
        proven_map = {p: s for p, s in proven_map.items() if s}
        _phase_log(f"stats prescreen ({len(proven_map)} provable fragments)", t0)

    stage_kwargs = {
        "allowlist_rows": allow,
        "out_dir": out_dir,
        "write_violations": write_violations,
        "enabled_checks": enabled_checks,
        "write_clean": write_clean,
        "schema_repair": schema_repair,
        # shipped once to the object store, not once per task
        "prescreen": ray.put(proven_map) if proven_map else None,
        "warn_checks": warn_checks,
    }
    for wave in _chunks(todo, max(1, wave_files)):
        t0 = time.time()
        checked: dict[str, tuple[dict, float, dict, int]] = {}
        for r in ray.get(
            [_check_group.remote(g, **stage_kwargs) for g in dupfinder.file_groups(wave)]
        ):
            checked.update(r)
        _phase_log(f"rowcheck wave({len(wave)} files)", t0)
        t1 = time.time()
        wave_viol, wave_parts = _publish_wave(
            out_dir, wave, checked, config_digest=cfg_digest
        )
        lin.heartbeat(out_dir)
        _phase_log("publish wave", t1)
        if fail_fast_violations is not None:
            viol_so_far += wave_viol
            parts_done += wave_parts
            if viol_so_far > fail_fast_violations:
                raise FailFastExceeded(viol_so_far, fail_fast_violations, parts_done)

    t0 = time.time()
    report = _assemble_report(out_dir, files, reference_hists=reference_hists)
    _phase_log("assemble report", t0)
    if uniqueness:
        t0 = time.time()
        # hash-range tree reduce over a projected doc_id read (always covers
        # ALL files, so resume semantics are automatically global); see
        # state/dupfinder.py for why this beats a Dataset groupby here
        dups = dupfinder.find_duplicates(files)
        _phase_log("uniqueness reduce", t0)
        t0 = time.time()
        dup_rows = 0
        if write_violations:
            # the duplicate phase is GLOBAL and recomputed from scratch each
            # run, but its files live in per-partition dirs that resume
            # keeps — clear every dup-* sink first or a kept partition would
            # resurface duplicate rows that no longer exist in the corpus
            # (and re-runs with different block splits would accumulate
            # differently-digested dup files alongside the old ones)
            for p in glob.glob(
                os.path.join(lin.violations_dir(out_dir), "part=*", "dup-*.parquet")
            ):
                os.remove(p)
        if dups:
            dup_rows = materialize_duplicates(
                files, dups, out_dir, write_violations=write_violations
            )
        _phase_log("materialize duplicates", t0)
        report.duplicates = dups
        report.global_stats["dup_doc_ids"] = len(dups)
        report.global_stats["dup_rows"] = dup_rows
    lin.write_run_record(
        out_dir,
        {
            "engine_version": lin.ENGINE_VERSION,
            "input": input_path,
            "partitions": len(files),
            "rows": report.total_rows,
            "check_counts": report.check_counts(),
            "drift": report.drift,
            "global": {
                k: v for k, v in report.global_stats.items() if not isinstance(v, bytes)
            },
        },
    )
    return report


def _config_digest(
    allow: list[dict],
    enabled_checks: "list[str] | None",
    warn_checks: "list[str] | None",
    schema_repair: bool,
    write_violations: bool,
    write_clean: bool,
) -> str:
    """Stable digest of everything that shapes a partition's recorded
    verdicts and side outputs. Stamped into each lineage record and
    required to match on resume — so a rerun with a different check
    config / severity map / allowlist / sink set re-validates instead of
    silently mixing old-config partitions into the new run's report.
    (Prescreen is excluded: its proofs are sound, output bit-identical.)"""
    canon = json.dumps(
        {
            "allow": sorted(
                ({k: r[k] for k in sorted(r)} for r in allow),
                key=lambda r: str(r.get("source")),
            ),
            "enabled": sorted(enabled_checks) if enabled_checks is not None else None,
            "warn": sorted(warn_checks) if warn_checks else [],
            "schema_repair": bool(schema_repair),
            "write_violations": bool(write_violations),
            "write_clean": bool(write_clean),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha1(canon.encode()).hexdigest()


def _publish_wave(
    out_dir: str,
    wave: list[str],
    checked: dict[str, tuple[dict, float, dict, int]],
    config_digest: "str | None" = None,
) -> tuple[int, int]:
    """Publish lineage for every fully-covered partition of this wave from
    its one partial per source, its own check wall, and the fingerprint and
    row count of the file its task read (never a fresh stat here: a
    fragment rewritten since would stamp the old rows' partial with the new
    file's fingerprint). Returns (published violation rows, published
    partitions) so the caller can enforce a fail-fast budget."""
    pub_viol = pub_parts = 0
    for fpath in wave:
        per_source, wall_s, fingerprint, file_rows = checked[fpath]
        processed = sum(a["rows"] for a in per_source.values())
        if processed != file_rows:
            # incomplete coverage — do not publish lineage; rerun will redo it
            continue
        pid = lin.part_id_for(fpath)
        record = {
            "engine_version": lin.ENGINE_VERSION,
            "part_id": pid,
            "input_path": fpath,
            "input_fingerprint": fingerprint,
            "file_rows": file_rows,
            "processed_rows": processed,
            "ok_rows": sum(a["ok_rows"] for a in per_source.values()),
            "viol_rows": sum(a["viol_rows"] for a in per_source.values()),
            "check_counts": {
                n: sum(a["check_counts"][n] for a in per_source.values())
                for n in ROW_CHECK_NAMES
            },
            "per_source": per_source,
            "wall_s": round(wall_s, 3),
            "config_digest": config_digest,
        }
        lin.write_lineage(out_dir, pid, record)
        pub_viol += record["viol_rows"]
        pub_parts += 1
    return pub_viol, pub_parts


def _assemble_report(
    out_dir: str,
    files: list[str],
    reference_hists: "dict[str, np.ndarray] | None" = None,
) -> ValidationReport:
    report = ValidationReport()
    records = lin.all_lineage(out_dir)
    expected_pids = {lin.part_id_for(f) for f in files}
    missing = expected_pids - set(records)
    if missing:
        raise RuntimeError(f"partitions incomplete after run: {sorted(missing)[:5]} ...")
    per_source: dict[str, dict] = {}
    g_td = TDigest()
    g_hll = HyperLogLog()
    for pid in sorted(expected_pids):
        rec = records[pid]
        report.partitions[pid] = {
            k: rec[k]
            for k in (
                "input_path",
                "file_rows",
                "processed_rows",
                "ok_rows",
                "viol_rows",
                "check_counts",
                "wall_s",
            )
        }
        report.partitions[pid]["pass"] = rec["viol_rows"] == 0
        for s, a in rec["per_source"].items():
            agg = per_source.setdefault(
                s,
                {
                    "rows": 0,
                    "viol_rows": 0,
                    "hist": np.zeros(HIST_NUM_BINS + 1, dtype=np.int64),
                    "sum_n_tok": 0,
                    "min_n_tok": _SENTINEL_MIN,
                    "max_n_tok": -1,
                    "_td": TDigest(),
                    "_hll": HyperLogLog(),
                },
            )
            agg["rows"] += a["rows"]
            agg["viol_rows"] += a["viol_rows"]
            agg["hist"] += dense_hist(a["hist"])
            agg["sum_n_tok"] += a["sum_n_tok"]
            agg["min_n_tok"] = min(agg["min_n_tok"], a["min_n_tok"])
            agg["max_n_tok"] = max(agg["max_n_tok"], a["max_n_tok"])
            agg["_td"].merge(TDigest.from_bytes(lin.unb64(a["td"])))
            agg["_hll"].merge(HyperLogLog.from_bytes(lin.unb64(a["hll"])))
    for s, a in per_source.items():
        g_td.merge(a["_td"])
        g_hll.merge(a["_hll"])
        report.per_source[s] = {
            "rows": a["rows"],
            "viol_rows": a["viol_rows"],
            "mean_n_tok": a["sum_n_tok"] / max(a["rows"], 1),
            "min_n_tok": None if a["min_n_tok"] == _SENTINEL_MIN else a["min_n_tok"],
            "max_n_tok": None if a["max_n_tok"] < 0 else a["max_n_tok"],
            "p50_n_tok": a["_td"].quantile(0.5),
            "p99_n_tok": a["_td"].quantile(0.99),
            "distinct_doc_est": a["_hll"].estimate(),
            "hist": a["hist"],
        }
    observed = {s: a["hist"] for s, a in per_source.items() if not s.startswith("\x00")}
    report.observed_hists = {s: np.asarray(h, dtype=np.int64) for s, h in observed.items()}
    report.drift = drift_verdicts(
        observed,
        reference_hists if reference_hists is not None else reference_histograms_dim(),
    )
    report.global_stats = {
        "rows": report.total_rows,
        "ok_rows": sum(p["ok_rows"] for p in report.partitions.values()),
        "viol_rows": sum(p["viol_rows"] for p in report.partitions.values()),
        "p50_n_tok": g_td.quantile(0.5),
        "p90_n_tok": g_td.quantile(0.9),
        "p99_n_tok": g_td.quantile(0.99),
        "distinct_doc_est": g_hll.estimate(),
        "sources_observed": sorted(s for s in per_source if not s.startswith("\x00")),
    }
    return report


# ---------------------------------------------------------------------------
# Uniqueness phase (SURVEY.md §7.2 step 5)
# ---------------------------------------------------------------------------


@ray.remote
def _materialize_dup_group(paths: list[str], dup_ids: pa.Array, out_dir: str) -> int:
    """Write one file group's duplicate-id rows, one ``dup-`` file per
    fragment; returns the row count. Only the ``doc_id`` column and the row
    groups holding matched rows are read."""
    n_rows = 0
    for path in paths:
        hit = pc.is_in(dupfinder.read_doc_ids(path), value_set=dup_ids)
        rows = np.flatnonzero(hit.to_numpy(zero_copy_only=False))
        if rows.size == 0:
            continue
        pf = pq.ParquetFile(path)
        sizes = [pf.metadata.row_group(i).num_rows for i in range(pf.num_row_groups)]
        start = np.cumsum([0] + sizes)
        rg = np.searchsorted(start, rows, side="right") - 1
        kept = np.unique(rg)
        # rows skipped before each kept row group in the read of kept groups
        kept_sizes = start[kept + 1] - start[kept]
        skipped = start[kept] - (np.cumsum(kept_sizes) - kept_sizes)
        local = rows - skipped[np.searchsorted(kept, rg)]
        # conform like the rc- sink, so violations/ holds ONE schema
        t = conform_schema(pf.read_row_groups(kept.tolist()).take(pa.array(local)))
        t = t.append_column("ok", pa.array(np.zeros(t.num_rows, dtype=bool)))
        t = t.append_column(
            "checks_failed",
            pa.array([["dup_doc_id"]] * t.num_rows, type=pa.list_(pa.string())),
        )
        pid = lin.part_id_for(path)
        _sink_write(lin.violations_dir(out_dir, pid), "dup", pid, t)
        n_rows += t.num_rows
    return n_rows


def materialize_duplicates(
    files: list[str],
    dups: dict[str, int],
    out_dir: str,
    *,
    write_violations: bool = True,
) -> int:
    """Materialize the original rows of duplicated doc_ids as violation rows.

    The dup-id set is broadcast once via ``ray.put`` to one plain task per
    file group (``dupfinder.file_groups``, the uniqueness pass's grouping).
    Each fragment's ``doc_id`` column alone decides which rows match; only
    the row groups holding them are read in full, so the cost tracks the
    duplicates, not the corpus. Each fragment writes ONE
    ``dup-<digest>.parquet`` whose name and bytes depend only on its rows.
    Rows keep their input columns byte-identical (token-array invariant)
    modulo the same declared-schema cast the rc- sink applies
    (``conform_schema``) — so every file under ``violations/`` shares ONE
    schema and ``violations_dataset()`` always reads.
    """
    if not write_violations:
        # no rows to materialize — the exact counts are already known
        return int(sum(dups.values()))
    dup_ref = ray.put(pa.array(sorted(dups), type=pa.string()))
    return int(
        sum(
            ray.get(
                [
                    _materialize_dup_group.remote(g, dup_ref, out_dir)
                    for g in dupfinder.file_groups(files)
                ]
            )
        )
    )


def violations_dataset(out_dir: str) -> "rd.Dataset | None":
    """All materialized violation rows (row checks + duplicates) as a Dataset."""
    files = sorted(glob.glob(os.path.join(lin.violations_dir(out_dir), "part=*", "*.parquet")))
    if not files:
        return None
    return rd.read_parquet(files)


def clean_dataset(out_dir: str) -> "rd.Dataset | None":
    """The validated corpus (rows passing every row check, original columns)
    written by ``run_validation(..., write_clean=True)`` — partitioned per
    input fragment, so downstream consumers inherit the resume layout."""
    files = sorted(glob.glob(os.path.join(lin.clean_dir(out_dir), "part=*", "*.parquet")))
    if not files:
        return None
    ds = rd.read_parquet(files)
    # the hive-style part=<pid> layout makes Ray infer a 'part' column —
    # drop it so consumers see exactly the input schema
    if "part" in ds.schema().names:
        ds = ds.drop_columns(["part"])
    return ds
