"""The hash-range exchange shared by the tree-reduce operators.

Every exact reduce over a key column (duplicate counts, co-occurrence
pairs, corpus diffs, content-membership tests) has the same dataflow:

1. **map** (one task per input group — a group of Dataset block refs or of
   parquet files): hash the keys, sort by hash, and return one partial per
   uniform hash range (``num_returns=ranges``), so partials flow
   worker→worker through the object store and the driver holds only refs;
2. **reduce** (one task per range): receive that range's partial from every
   map task and aggregate them — equal keys share a hash, so they co-locate.

``run`` issues both levels (``map_ranges`` then ``reduce_ranges``; a
reduce over two map families — the two sides of a diff — issues each
family's maps and routes them together); ``split`` cuts a hash-sorted map
output into the per-range partials; ``block_groups`` / ``fetch_table`` feed
a map from a Dataset's blocks. ``group_apply`` is the keyed
one-call-per-range apply built from those pieces: the engine's grouped
apply, in place of Ray Data's ``groupby().map_groups``.

This module is the only one that knows the hash-range rule
(``range_count``, ``hashing.range_edges``) or routes partials
(``num_returns``); a map input need not be a block group (pair chunks, one
label state per range).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .hashing import hash_keys, range_edges

BLOCKS_PER_TASK = 8  # Dataset blocks per map task


def range_count(ranges: "int | None" = None, cap: "int | None" = None) -> int:
    """Hash-range count: the caller's, else one per cluster CPU (at least
    8); at most ``cap``; never below 2 — ``num_returns=1`` hands back a bare
    ObjectRef instead of a list, and ``range_edges`` needs two ranges."""
    if ranges is None:
        try:
            ranges = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            ranges = 8
    if cap is not None:
        ranges = min(ranges, cap)
    return max(2, int(ranges))


def block_groups(ds) -> list[list]:
    """The Dataset's block refs in groups of ``BLOCKS_PER_TASK`` (one map
    task each); the blocks stay in the object store."""
    refs = [ref for b in ds.iter_internal_ref_bundles() for ref in b.block_refs]
    return [refs[i : i + BLOCKS_PER_TASK] for i in range(0, len(refs), BLOCKS_PER_TASK)]


def fetch_table(refs: list, columns: list[str]) -> "pa.Table | None":
    """``columns`` of a block group as one table; None when it has no rows.

    Refs nested in a list are not dereferenced by Ray, hence the
    ``ray.get``. Empty splits surface as zero-column blocks, which are
    dropped with the other empty ones. Columns are concatenated one by one
    (cast to the first block's type), because block schema metadata can
    differ between provenances and that fails ``pa.concat_tables``."""
    tables = []
    for b in ray.get(list(refs)):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        if t.num_rows and t.num_columns:
            tables.append(t)
    if not tables:
        return None
    out = {}
    for c in columns:
        typ = tables[0].schema.field(c).type
        out[c] = pa.chunked_array(
            [ch for t in tables for ch in t.column(c).cast(typ).chunks], type=typ
        )
    return pa.table(out)


def split(h_sorted: np.ndarray, ranges: int, *cols) -> list[tuple]:
    """Per-range slices of ``cols`` (numpy arrays or Arrow tables/arrays,
    row-aligned with ``h_sorted``, the ascending uint64 hashes). A hash
    equal to an edge of ``range_edges`` opens the next range."""
    cuts = np.searchsorted(h_sorted, range_edges(ranges)).tolist()
    bounds = list(zip([0, *cuts], [*cuts, len(h_sorted)]))
    return [tuple(c[lo:hi] for c in cols) for lo, hi in bounds]


def segment_sum(keys_sorted: np.ndarray, counts: np.ndarray) -> tuple:
    """(distinct keys, summed counts) of ascending ``keys_sorted``."""
    if keys_sorted.size == 0:
        return keys_sorted, counts
    change = np.empty(keys_sorted.size, dtype=bool)
    change[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return keys_sorted[starts], np.add.reduceat(counts, starts)


def merge_counts(parts) -> tuple:
    """One range's (key, count) partials merged into sorted distinct keys
    and their totals."""
    keys = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    order = np.argsort(keys, kind="stable")
    return segment_sum(keys[order], counts[order])


def map_ranges(map_task, inputs: list, ranges: int, *args) -> list:
    """``map_task(input, ranges, *args)`` per input, with
    ``num_returns=ranges``: one list of per-range partial refs per input."""
    assert ranges >= 2
    return [
        map_task.options(num_returns=ranges).remote(x, ranges, *args) for x in inputs
    ]


def reduce_ranges(
    mapped: list, reduce_task, ranges: int, *args, returns: int = 1
) -> list:
    """One ObjectRef per hash range: ``reduce_task(*args, *parts)``, where
    ``parts`` holds the range's partial from each map in ``mapped`` order.
    The refs (not the data) are routed, so Ray dereferences them
    worker-side. A per-range argument (a label state, a range's own pairs)
    rides as the first list of ``mapped``, so it reaches each reduce
    first. ``returns > 1`` gives each range a list of that many refs
    (``num_returns=returns``)."""
    if returns > 1:
        reduce_task = reduce_task.options(num_returns=returns)
    return [
        reduce_task.remote(*args, *[m[r] for m in mapped]) for r in range(ranges)
    ]


def run(
    map_task,
    inputs: list,
    reduce_task,
    ranges: int,
    *,
    map_args: tuple = (),
    reduce_args: tuple = (),
    reduce_returns: int = 1,
) -> list:
    """``reduce_ranges(map_ranges(...))``: one ObjectRef per hash range (a
    list of ``reduce_returns`` refs when that is above 1)."""
    mapped = map_ranges(map_task, inputs, ranges, *map_args)
    return reduce_ranges(
        mapped, reduce_task, ranges, *reduce_args, returns=reduce_returns
    )


def group_apply(ds, key: str, columns: list[str], fn, schema: pa.Schema):
    """``fn(pa.Table) -> pa.Table`` called once per hash range of ``key``
    over the ``columns`` of ``ds``; a Dataset of the per-range results,
    each cast to ``schema``.

    A range holds every row of its keys (rows with a null key all go to
    range 0), so ``fn`` may reduce per key over whatever keys its table
    holds, in any row order. An empty range yields ``schema.empty_table()``
    without calling ``fn``."""
    import ray.data as rd

    refs = run(
        _group_split,
        block_groups(ds),
        _group_reduce,
        range_count(),
        map_args=(key, columns),
        reduce_args=(fn, schema),
    )
    return rd.from_arrow_refs(refs)


@ray.remote
def _group_split(block_refs: list, ranges: int, key: str, columns: list[str]) -> tuple:
    """The map of ``group_apply``: a block group's rows, one table per
    ``hash_keys`` range of ``key`` (None for every range when it has no
    rows)."""
    t = fetch_table(block_refs, columns)
    if t is None:
        return (None,) * ranges
    k = t.column(key)
    if k.null_count:
        valid = pc.is_valid(k)
        h = np.zeros(t.num_rows, dtype=np.uint64)  # hash 0: range 0
        h[valid.to_numpy(zero_copy_only=False)] = hash_keys(k.filter(valid))
    else:
        h = hash_keys(k)
    order = np.argsort(h, kind="stable")
    return tuple(p for (p,) in split(h[order], ranges, t.take(order)))


@ray.remote
def _group_reduce(fn, schema: pa.Schema, *parts) -> pa.Table:
    """One range of ``group_apply``: its parts concatenated, ``fn`` called
    once, the result cast to ``schema``."""
    parts = [p for p in parts if p is not None and p.num_rows]
    if not parts:
        return schema.empty_table()
    out = fn(pa.concat_tables(parts, promote_options="permissive"))
    return out.select(schema.names).cast(schema)
