"""Per-layer measurement from outside the package.

Two instruments, both living in the benchmark so the package stays untouched:

* ``Tracer`` wraps the package's public functions as module attributes for
  the duration of one traced call, records a span per wrapped call (name,
  start, end, parent) and a few counts, and keeps everything in memory until
  the benchmark writes it out at the end.
* ``kernel_replay`` re-runs the row-check kernels on the driver, one core, no
  Ray, over the fragments a workload validates, to give per-core rates that
  can be compared across boxes.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq


def _paths_handed(args, kwargs) -> int:
    paths = kwargs.get("paths", args[0] if args else None)
    return len(paths) if isinstance(paths, (list, tuple)) else 1


def _wrap_targets() -> list[tuple]:
    """(module, attribute, span name or None, on_result) for every wrapped
    function. A span name of None only counts (the read is lazy planning; its
    work runs inside the spans that drain it)."""
    import ray.data

    from product_quality_check_ray.pipelines import tokens, validate
    from product_quality_check_ray.state import dupfinder, lineage

    return [
        (ray.data, "read_parquet", None,
         lambda tr, a, k, r: tr.count("read.files_opened", _paths_handed(a, k))),
        (validate, "materialize_duplicates", "validate.materialize_duplicates",
         lambda tr, a, k, r: tr.count("validate.materialize_duplicates.rows_kept", r)),
        (dupfinder, "find_duplicates", "dupfinder.find_duplicates",
         lambda tr, a, k, r: tr.count("dupfinder.dup_ids", len(r))),
        (dupfinder, "find_dup_hash_values", "dupfinder.find_dup_hash_values", None),
        (lineage, "partition_complete", "lineage.partition_complete",
         lambda tr, a, k, r: tr.count("lineage.partitions_skipped", int(bool(r)))),
        # run_validation reaches drift through validate's own binding
        (validate, "drift_verdicts", "drift.drift_verdicts", None),
        (tokens, "gram_index_from_ds", "tokens.gram_index_from_ds", None),
    ]


class Tracer:
    """In-memory spans and counts for traced calls; one call id per call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "call": len(self.counts) - 1,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[-1][name] += int(n)

    def _wrapper(self, fn, span_name, on_result):
        def traced(*args, **kwargs):
            cm = self.span(span_name) if span_name else contextlib.nullcontext()
            with cm:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def call(self, root: str):
        """Trace one workload call: install the wrappers, open the root span,
        and restore the original functions afterwards."""
        self.counts.append(Counter())
        originals = []
        try:
            for module, attr, span_name, on_result in _wrap_targets():
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, span_name, on_result))
            with self.span(root):
                yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def call_breakdown(self, call: int) -> dict[str, float]:
        """Per span name: summed wall of that call's spans, plus ``<root>.self``
        (root wall minus its direct children)."""
        spans = [s for s in self.spans if s["call"] == call]
        out: dict[str, float] = Counter()
        child_sum: dict[int, float] = Counter()
        for s in spans:
            dur = s["end"] - s["start"]
            out[s["name"]] += dur
            if s["parent"] is not None:
                child_sum[s["parent"]] += dur
        for s in spans:
            if s["parent"] is None:
                out[f"{s['name']}.self"] = (s["end"] - s["start"]) - child_sum[s["id"]]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "wall_s": s["end"] - s["start"]}) + "\n")
            for call, c in enumerate(self.counts):
                f.write(json.dumps({"call": call, "counts": dict(c)}) + "\n")


def kernel_replay(paths: list[str], out_dir: str, passes: int = 3) -> dict[str, float]:
    """Rows per second of the pyarrow read, ``annotate_batch``,
    ``RowCheckStage`` (violation sink included) and ``hash_strings`` over
    ``paths``, run in this process (one core, no Ray); median of ``passes``."""
    from product_quality_check_ray.checks.row_checks import annotate_batch
    from product_quality_check_ray.core.hashing import hash_strings
    from product_quality_check_ray.core.schema import SOURCE_ALLOWLIST
    from product_quality_check_ray.pipelines.validate import RowCheckStage
    from product_quality_check_ray.sources.dimensions import build_check_ctx

    ctx = build_check_ctx(SOURCE_ALLOWLIST)
    stage = RowCheckStage(allowlist_rows=SOURCE_ALLOWLIST, out_dir=out_dir)
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    secs: dict[str, list[float]] = {"read": [], "annotate": [], "stage": [], "hash": []}
    for _ in range(passes):
        t = time.perf_counter()
        tables = [pq.read_table(p) for p in paths]
        secs["read"].append(time.perf_counter() - t)
        t = time.perf_counter()
        for tb in tables:
            annotate_batch(tb, ctx)
        secs["annotate"].append(time.perf_counter() - t)
        with_paths = [
            tb.append_column("path", pa.array([os.path.abspath(p)] * tb.num_rows))
            for p, tb in zip(paths, tables)
        ]
        t = time.perf_counter()
        for tb in with_paths:
            stage(tb)
        secs["stage"].append(time.perf_counter() - t)
        t = time.perf_counter()
        for tb in tables:
            hash_strings(tb.column("doc_id"))
        secs["hash"].append(time.perf_counter() - t)
    return {k: rows / statistics.median(v) for k, v in secs.items()}
