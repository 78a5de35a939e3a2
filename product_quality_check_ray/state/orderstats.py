"""Distributed exact order statistics over integer columns (radix select).

``grouped_kth`` is the one exact path: for every group of a Dataset it
returns the values at the ranks a caller asks for (quantiles, percentile
neighbours, top-k thresholds), at any corpus size, without shipping a group
or a value list anywhere. The approximate, mergeable path is the t-digest
(``seq_sketch_report``).

Radix refinement: each wanted (group, rank) keeps a value interval
``[lo, hi]`` known to hold its value, plus the rank within it. A round
histograms the in-interval values into ≤ 2^bits equal-width buckets and
descends into the bucket holding the rank. int64's full range needs ≤ 4
rounds at bits=16; realistic spans (token counts, millibit scores) finish
in 1–2. (Selection by distribution counting, Knuth TAOCP vol 3 §5.3.3.)

Dataflow, per ``exchange.block_groups`` group of the Dataset's blocks:

1. a stats pass: one task per group returns per-group (min, max, count),
   so the driver folds O(block groups × groups) rows; groups whose column
   is all NULL come back with ``n = 0``;
2. each round: (group, rank) pairs with equal intervals share one
   histogram plan; one map task per block group counts its values per
   key ``plan·2^bits + bucket`` and splits the counts by the key's
   ``hash_keys`` hash; ``exchange.run`` sums each hash range's partials
   with ``exchange.merge_counts`` (a ``segment_sum``). The driver
   receives each (plan, bucket) key once: at most plans × 2^bits rows,
   whatever the block count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..core import exchange
from ..core.hashing import hash_keys


@dataclass(frozen=True)
class KthStats:
    """kth order statistic plus the tie bookkeeping selection needs."""

    value: int
    n_less: int  # values strictly below `value` (whole group)
    n_equal: int  # values exactly equal to `value`
    n_total: int  # non-null values


_BIAS = 1 << 63  # int64 → biased uint64 (x ^ 2^63), order-isomorphic
_EMPTY_U64 = np.empty(0, dtype=np.uint64)


def _columns(group_col: "str | None", col: str) -> list[str]:
    return [col] if group_col is None else [group_col, col]


@ray.remote
def _stats_task(refs: list, group_col: "str | None", col: str) -> "pa.Table | None":
    """Per-group min, max and non-null count of one block group (Arrow
    aggregates: no float64 round trip above 2^53; a NULL group is a group)."""
    t = exchange.fetch_table(refs, _columns(group_col, col))
    if t is None:
        return None
    keys = [] if group_col is None else [group_col]
    return t.group_by(keys, use_threads=False).aggregate(
        [(col, "min"), (col, "max"), (col, "count")]
    )


@ray.remote
def _hist_task(
    refs: list, ranges: int, group_col, col: str, gvals: list, plans: list, bits: int
) -> tuple:
    """One round's map: (keys, counts) per hash range, key = plan·2^bits +
    bucket of every in-interval value. Buckets are cut in the biased uint64
    domain, where ``v - lo`` cannot overflow on a full-int64 span. Rows are
    sorted by (group, value) once, so each plan is two binary searches."""
    t = exchange.fetch_table(refs, _columns(group_col, col))
    keys, counts = _EMPTY_U64, np.empty(0, dtype=np.int64)
    if t is not None:
        t = t.filter(pc.is_valid(t.column(col)))
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        vu = v.view(np.uint64) ^ np.uint64(_BIAS)
        if group_col is None:
            code = np.zeros(len(vu), dtype=np.int64)
        else:
            gset = pa.array(gvals, type=t.schema.field(group_col).type)
            code = pc.fill_null(
                pc.index_in(t.column(group_col), value_set=gset, skip_nulls=False), -1
            ).to_numpy(zero_copy_only=False)
        order = np.lexsort((vu, code))
        code, vu = code[order], vu[order]
        parts = []
        for p, (gi, lo, hi, shift) in enumerate(plans):
            g = vu[np.searchsorted(code, gi, "left") : np.searchsorted(code, gi, "right")]
            ulo, uhi = np.uint64(lo + _BIAS), np.uint64(hi + _BIAS)
            g = g[np.searchsorted(g, ulo, "left") : np.searchsorted(g, uhi, "right")]
            parts.append((np.uint64(p) << np.uint64(bits)) + ((g - ulo) >> np.uint64(shift)))
        keys, counts = np.unique(np.concatenate(parts), return_counts=True)
    h = hash_keys(pa.array(keys))
    order = np.argsort(h, kind="stable")
    return tuple(exchange.split(h[order], ranges, keys[order], counts[order]))


@ray.remote
def _sum_range(*parts) -> tuple:
    return exchange.merge_counts(parts)


def _histogram_round(
    groups: list, group_col, col: str, gvals: list, plans: list, bits: int
) -> "tuple[np.ndarray, np.ndarray]":
    """One round's (key, count) arrays, summed worker-side, in key order."""
    parts = ray.get(
        exchange.run(
            _hist_task, groups, _sum_range, exchange.range_count(cap=len(groups)),
            map_args=(group_col, col, gvals, plans, bits),
        )
    )
    return exchange.merge_counts(parts)  # ranges hold disjoint keys


class _Select:
    """One (group, rank) refinement: the interval holding the rank, the rank
    within it and the values below the interval."""

    __slots__ = ("lo", "hi", "k_rem", "n_less", "result")

    def __init__(self, lo: int, hi: int, k: int):
        self.lo, self.hi, self.k_rem, self.n_less, self.result = lo, hi, k, 0, None


def grouped_kth(
    ds: rd.Dataset,
    group_col: "str | None",
    col: str,
    ranks: "Callable[[int], Sequence[int]]",
    *,
    bits: int = 16,
) -> "dict[object, tuple[int, list[KthStats]]]":
    """Exact order statistics of ``ds[col]`` per group of ``group_col``
    (``None``: the whole column is one group, keyed ``None``).

    ``ranks(n)`` gives the 1-based ranks wanted from a group of ``n``
    non-null values. Returns ``{group: (n, stats)}``, ``stats`` aligned
    with ``ranks(n)``; a group whose column is all NULL maps to ``(0, [])``
    and ``ranks`` is not called for it. NULL values are excluded; a NULL
    group is its own group, keyed ``None`` (SQL GROUP BY). Raises
    ValueError on a rank outside ``1..n``."""
    groups = exchange.block_groups(ds)
    acc: dict = {}  # group → [min, max, n]
    for t in ray.get([_stats_task.remote(g, group_col, col) for g in groups]):
        if t is None:
            continue
        gs = [None] * t.num_rows if group_col is None else t.column(group_col).to_pylist()
        for g, mn, mx, n in zip(
            gs,
            t.column(f"{col}_min").to_pylist(),
            t.column(f"{col}_max").to_pylist(),
            t.column(f"{col}_count").to_pylist(),
        ):
            cur = acc.setdefault(g, [mn, mx, 0])
            if n:
                cur[0] = mn if not cur[2] else min(cur[0], mn)
                cur[1] = mx if not cur[2] else max(cur[1], mx)
                cur[2] += n

    gvals = list(acc)
    wanted: dict = {}  # group → (n, ranks)
    sel: dict = {}  # (group index, rank) → _Select
    for gi, g in enumerate(gvals):
        lo, hi, n = acc[g]
        rs = [int(r) for r in ranks(n)] if n else []
        for r in rs:
            if not 1 <= r <= n:
                raise ValueError(f"rank {r} outside 1..{n} for group {g!r}")
            sel.setdefault((gi, r), _Select(lo, hi, r))
        wanted[g] = (n, rs)

    while True:
        active = [(gi, s) for (gi, _), s in sel.items() if s.result is None]
        if not active:
            break
        plan_of: dict = {}  # (group index, lo, hi) → plan index
        for gi, s in active:
            plan_of.setdefault((gi, s.lo, s.hi), len(plan_of))
        plans = [
            (gi, lo, hi, max(0, (hi - lo).bit_length() - bits)) for gi, lo, hi in plan_of
        ]
        keys, counts = _histogram_round(groups, group_col, col, gvals, plans, bits)
        cut = np.searchsorted(
            keys >> np.uint64(bits), np.arange(len(plans) + 1, dtype=np.uint64)
        )
        buckets = (keys & np.uint64((1 << bits) - 1)).astype(np.int64)
        cums = [np.cumsum(counts[a:z]) for a, z in zip(cut[:-1], cut[1:])]
        for gi, s in active:
            p = plan_of[(gi, s.lo, s.hi)]
            _, lo, hi, shift = plans[p]
            cum = cums[p]
            i = int(np.searchsorted(cum, s.k_rem))
            before = int(cum[i - 1]) if i else 0
            b = int(buckets[cut[p] + i])
            if shift == 0:
                s.result = KthStats(
                    value=lo + b,
                    n_less=s.n_less + before,
                    n_equal=int(counts[cut[p] + i]),
                    n_total=acc[gvals[gi]][2],
                )
            else:
                s.n_less += before
                s.k_rem -= before
                s.lo = lo + (b << shift)
                s.hi = min(hi, s.lo + (1 << shift) - 1)

    return {
        g: (n, [sel[(gi, r)].result for r in rs])
        for gi, (g, (n, rs)) in enumerate(wanted.items())
    }


def kth_stats(
    ds: rd.Dataset, col: str, k: int, *, descending: bool = False, bits: int = 16
) -> KthStats:
    """Exact kth-smallest (1-based; kth-largest when ``descending``) non-null
    value of ``ds[col]`` plus tie counts, via ``grouped_kth`` over one group.
    ``ds`` should be a cheap projection (ideally materialized when the
    caller runs several selections).  ``n_less``/``n_equal`` always count
    from the ASCENDING side (callers get n_greater = n_total - n_less -
    n_equal).

    Raises ValueError on an empty column or out-of-range k.
    """
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")

    def rank(n: int) -> list[int]:
        if k > n:
            raise ValueError(f"k={k} exceeds non-null count {n}")
        return [n - k + 1 if descending else k]  # kth largest == (n-k+1)th smallest

    n, stats = grouped_kth(ds, None, col, rank, bits=bits).get(None, (0, []))
    if n == 0:
        raise ValueError(f"column {col!r} has no non-null values")
    return stats[0]


def kth_with_tiecut(
    ds: rd.Dataset,
    col: str,
    k: int,
    *,
    id_col: str = "doc_id",
    descending: bool = False,
    bits: int = 16,
) -> "tuple[int, int]":
    """The top-k selection idiom in one place: the kth value of ``col``
    (the admission threshold) plus the ``id_col`` tie cutoff — among rows
    whose value EQUALS the threshold, the id of the last admitted row
    (ids ascending).  A row is selected iff its value beats the threshold,
    or equals it with id ≤ the cutoff.  Shared by ``doc_dsir_select``,
    ``doc_ccnet_buckets`` and ``select_training_docs`` so the tie
    semantics can never drift between a component and the capstone that
    composes it."""
    st = kth_stats(ds, col, k, descending=descending, bits=bits)
    n_beats = (st.n_total - st.n_less - st.n_equal) if descending else st.n_less
    cut = kth_stats(
        ds.filter(expr=f"{col} == {st.value}"), id_col, k - n_beats, bits=bits
    ).value
    return st.value, cut
