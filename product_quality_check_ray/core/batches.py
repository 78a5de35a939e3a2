"""Batch-format helpers.

``arrow_out`` wraps a pandas-returning batch/group function so its output is
converted to an Arrow table before Ray stores the block. This matters
whenever the output feeds a shuffle (`groupby` / `sort`):
Ray's shuffle over pandas-format blocks takes a path measured ~12× slower
than over Arrow blocks (15.5 s vs 1.3 s for a 53k-row groupby at 8 CPUs), so
every combiner in this repo emits Arrow even when the UDF itself is pandas.

Companion pattern (the "core/batches.py note" referenced at call sites):
``<combiner>.materialize().groupby(...)`` — Ray's hash-aggregate operator
pays a measured ~8 s stall when fed by a STREAMING upstream operator
(ReadParquet→MapBatches fused) but runs in ~1 s over materialized blocks.
Combiner outputs are tiny by construction (O(batches × groups) rows, never
payloads), so materializing them is cheap at any scale and turns the
aggregate into a pure shuffle of pre-reduced rows.
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa


def strip_schema_metadata(ds):
    """Zero-copy per-batch ``replace_schema_metadata(None)`` stage.

    Parquet files written by pandas carry a pandas-metadata dict in the Arrow
    schema; Ray's hash-shuffle aggregators hash block schemas to deduplicate
    state and fall back to re-shipping the schema per block when the metadata
    dict is unhashable ("Failed to hash the schemas" warning). Feed JOIN
    inputs through this when they come straight from ``read_parquet``.
    """
    import pyarrow as _pa

    def f(t: _pa.Table) -> _pa.Table:
        return t.replace_schema_metadata(None)

    return ds.map_batches(f, batch_format="pyarrow")


def arrow_out(fn):
    @functools.wraps(fn)
    def wrapped(batch, *args, **kwargs):
        out = fn(batch, *args, **kwargs)
        if isinstance(out, pd.DataFrame):
            # strip the pandas schema metadata: Ray's shuffle hashes block
            # schemas to deduplicate aggregator state, and the metadata dict
            # is unhashable — leaving it on silently disables that dedup
            # (seen as "Failed to hash the schemas" + multi-second stalls)
            return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)
        return out

    return wrapped


def doc_id_partial_counts(b, column: str = "doc_id"):
    """Per-batch (value, n) partial counts for a string key column — the
    combiner in front of the uniqueness groupby (shared by
    pipelines/validate.py and pipelines/seq_queries.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    vc = pc.value_counts(b.column(column).drop_null().combine_chunks())
    return pa.table(
        {column: vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
    )


def read_parquet_fanout(path: str, columns=None):
    """Projected single-file parquet read with size-aware read-task
    fan-out. Ray's default plan for ONE large file issues a single
    streaming read task whose block generator is paced by downstream
    backpressure, capping effective map parallelism at ~8× regardless of
    cluster CPUs (measured: doc_tokenize over a 500k-doc file 17.3 s →
    8.4 s at 32 CPUs with the fan-out). Multi-file corpora — the 100 TB
    layout — already parallelize per file; small fixture files keep the
    default plan."""
    import os

    import ray
    import ray.data as rd

    kwargs = {}
    try:
        sz = os.path.getsize(path)
        if sz > 16 * (1 << 20):
            cpus = int(ray.cluster_resources().get("CPU", 8))
            # one block per CPU, grown for big files toward ~4 MB
            # (compressed) per block: measured sweet spot — fast
            # bandwidth-bound UDFs lose 2.7× to per-task overhead at 1 MB
            # blocks, while slow UDFs still get a full-width task wave
            kwargs["override_num_blocks"] = int(max(cpus, sz // (4 << 20)))
    except Exception:  # pragma: no cover - cluster/file probing best-effort
        pass
    return rd.read_parquet(path, columns=columns, **kwargs)
