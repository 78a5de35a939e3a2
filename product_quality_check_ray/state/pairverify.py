"""Distributed exact-Jaccard verification of candidate pairs.

The LSH dedup family (MinHash bands, shingle inverted index, piece buckets)
produces CANDIDATE id pairs that must be verified by exact set Jaccard over
each doc's hash set. Round 2 verified on the driver: every candidate doc's
hash set was pulled into a Python dict and pairs were scored in a per-pair
loop — O(candidates) driver memory and Python-speed verification (VERDICT r2
finding #2). This module distributes that step on the ``core/exchange``
map/reduce shared by ``state/dupfinder`` / ``state/pairreduce``:

- the driver holds only the candidate PAIR ids (the same object the caller
  already materialized to know what to verify) and a doc→ranges incidence
  built from them (both bounded by the pair caps, never by the corpus);
- **map** (one task per payload block group): each candidate doc's hash
  set is routed — duplicated where needed — to every range that owns one
  of its pairs; non-candidate rows never leave the block;
- **reduce** (one task per range): receives its own pairs (one object per
  range, routed as the first partial) and its pairs' two sides, and
  computes ALL intersections in one vectorized lexsort pass (sort by
  (pair, value); adjacent equal values within a pair are intersections —
  exact because each doc's hash array is a unique set), then per-pair
  Jaccard.

Partitioning assumption: pairs are assigned to ranges round-robin, so range
load is uniform in PAIR count; a doc appearing in many pairs is duplicated
to at most R ranges (R ≈ CPU count), which bounds the fan-out at
``R × |candidate docs|`` hash-set shipments worst case.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..core import exchange

PAIRS_PER_RANGE = 200_000  # one verify range per this many pairs, up to range_count()

_OUT_SCHEMA = pa.schema(
    [
        ("doc_id_a", pa.int64()),
        ("doc_id_b", pa.int64()),
        ("shared", pa.int64()),
        ("n_a", pa.int64()),
        ("n_b", pa.int64()),
        ("jaccard", pa.float64()),
    ]
)


@ray.remote
def _route_payloads(block_refs: list, ranges: int, id_col: str, hash_col: str, inc) -> tuple:
    """Split one block group's candidate payload rows into the ranges that
    need them: per range (ids, offsets, flat hash values). ``inc`` is the
    broadcast incidence tuple (top-level ObjectRef args are
    plasma-resolved zero-copy by Ray before the task body runs)."""
    docs_sorted, off, rgs_flat = inc
    t = exchange.fetch_table(block_refs, [id_col, hash_col])
    empty = (
        np.empty(0, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.uint64),
    )
    if t is None:
        return (empty,) * ranges
    ids = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False), dtype=np.int64)
    col = t.column(hash_col).combine_chunks()
    # ABSOLUTE offsets throughout: a sliced ListArray has offs[0] > 0 while
    # its values buffer stays absolutely indexed, so gathering with
    # zero-rebased offsets would read the NEXT row's window (the
    # row_checks._list_min_max convention)
    offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.asarray(
        col.values.to_numpy(zero_copy_only=False), dtype=np.uint64
    )[: offs[-1]]
    lens = offs[1:] - offs[:-1]
    pos = np.searchsorted(docs_sorted, ids)
    pos = np.minimum(pos, max(docs_sorted.size - 1, 0))
    present = docs_sorted.size > 0
    hit = (docs_sorted[pos] == ids) if present else np.zeros(ids.size, dtype=bool)
    # vectorized routing: explode each hit row to its ranges
    hit_rows = np.flatnonzero(hit)
    if hit_rows.size == 0:
        return (empty,) * ranges
    p = pos[hit_rows]
    counts = off[p + 1] - off[p]
    total = int(counts.sum())
    intra = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    row_rep = np.repeat(hit_rows, counts)
    rg_rep = rgs_flat[np.repeat(off[p], counts) + intra]
    order = np.argsort(rg_rep, kind="stable")
    rg_rep, row_rep = rg_rep[order], row_rep[order]
    bounds = np.searchsorted(rg_rep, np.arange(1, ranges))
    parts = []
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, rg_rep.size]):
        rows = row_rep[lo:hi]
        if rows.size == 0:
            parts.append(empty)
            continue
        lr = lens[rows]
        tot = int(lr.sum())
        gather = np.repeat(offs[:-1][rows], lr) + (
            np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(lr) - lr, lr)
        )
        parts.append(
            (ids[rows], np.concatenate(([0], np.cumsum(lr))), vals[gather])
        )
    return tuple(parts)


@ray.remote
def _verify_range(threshold: float, pairs: tuple, *parts) -> pa.Table:
    """Exact Jaccard for one range's ``pairs`` (id_a, id_b) over its routed
    payloads."""
    from ..core.rounding import round_half_away as _rha

    pa_ids, pb_ids = pairs
    if pa_ids.size == 0:
        return _OUT_SCHEMA.empty_table()
    ids = np.concatenate([p[0] for p in parts])
    if ids.size == 0:
        return _OUT_SCHEMA.empty_table()
    lens = np.concatenate([p[1][1:] - p[1][:-1] for p in parts])
    vals = np.concatenate([p[2] for p in parts])
    order = np.argsort(ids, kind="stable")
    ids_s, lens_s = ids[order], lens[order]
    starts_unordered = np.concatenate(([0], np.cumsum(lens)))[:-1]
    starts_s = starts_unordered[order]

    def locate(q: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(ids_s, q)
        pos = np.minimum(pos, max(ids_s.size - 1, 0))
        ok = ids_s[pos] == q
        if not ok.all():
            missing = q[~ok][:5]
            raise ValueError(f"payload rows missing for candidate ids {missing}")
        return pos

    ia, ib = locate(pa_ids), locate(pb_ids)
    na, nb = lens_s[ia].astype(np.int64), lens_s[ib].astype(np.int64)
    npairs = pa_ids.size

    def flat_side(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lr = lens_s[rows]
        tot = int(lr.sum())
        gather = np.repeat(starts_s[rows], lr) + (
            np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(lr) - lr, lr)
        )
        pidx = np.repeat(np.arange(npairs, dtype=np.int64), lr)
        return vals[gather], pidx

    va, pia = flat_side(ia)
    vb, pib = flat_side(ib)
    v = np.concatenate([va, vb])
    p = np.concatenate([pia, pib])
    o = np.lexsort((v, p))
    v, p = v[o], p[o]
    dup = np.zeros(v.size, dtype=bool)
    if v.size > 1:
        dup[1:] = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
    shared = np.bincount(p[dup], minlength=npairs).astype(np.int64)
    union = na + nb - shared
    jac = _rha(
        np.where(union > 0, shared / np.maximum(union, 1), 1.0), 6
    )
    keep = jac >= threshold
    return pa.table(
        {
            "doc_id_a": pa.array(pa_ids[keep]),
            "doc_id_b": pa.array(pb_ids[keep]),
            "shared": pa.array(shared[keep]),
            "n_a": pa.array(na[keep]),
            "n_b": pa.array(nb[keep]),
            "jaccard": pa.array(jac[keep]),
        }
    )


def verify_jaccard_pairs(
    payload_ds: rd.Dataset,
    id_col: str,
    hash_col: str,
    id_a: np.ndarray,
    id_b: np.ndarray,
    *,
    threshold: float = 0.0,
) -> pa.Table:
    """Exact set-Jaccard for candidate id pairs, computed in range tasks.

    ``payload_ds`` holds one row per CANDIDATE doc: (id_col:int64,
    hash_col:list<uint64> of the doc's unique hash set). Returns
    (doc_id_a, doc_id_b, shared, n_a, n_b, jaccard) for pairs whose
    half-away-6-rounded Jaccard ≥ ``threshold``, unordered.
    """
    n = int(len(id_a))
    if n == 0:
        return _OUT_SCHEMA.empty_table()
    ranges = exchange.range_count(cap=-(-n // PAIRS_PER_RANGE))
    id_a = np.asarray(id_a, dtype=np.int64)
    id_b = np.asarray(id_b, dtype=np.int64)
    rg = np.arange(n, dtype=np.int64) % ranges
    # doc → ranges incidence (CSR over unique (doc, range) pairs)
    docs = np.concatenate([id_a, id_b])
    drg = np.concatenate([rg, rg])
    key = np.stack([docs, drg], axis=1)
    uniq = np.unique(key, axis=0)
    docs_sorted, first = np.unique(uniq[:, 0], return_index=True)
    off = np.concatenate([first, [uniq.shape[0]]]).astype(np.int64)
    inc_ref = ray.put((docs_sorted, off, uniq[:, 1].astype(np.int64)))
    # pairs are dealt round-robin, so range r owns pairs r, r + ranges, …
    pair_refs = [ray.put((id_a[r::ranges], id_b[r::ranges])) for r in range(ranges)]

    groups = exchange.block_groups(payload_ds)
    if not groups:
        raise ValueError("payload dataset produced no blocks for candidate pairs")
    mapped = exchange.map_ranges(_route_payloads, groups, ranges, id_col, hash_col, inc_ref)
    verified = ray.get(
        exchange.reduce_ranges([pair_refs, *mapped], _verify_range, ranges, threshold)
    )
    return pa.concat_tables(verified)
