"""Connected components over near-dup pair edges — driver union-find under a
pair cap, hash-partitioned label propagation above it.

``doc_near_dup_clusters`` merges verified MinHash pairs into clusters
(cluster id = min doc_id in the component). Round 3 did this with a driver
union-find over ``to_pylist()``-ed pairs — fine while LSH hot-bucket caps
bound the pair count, but a boilerplate-heavy corpus at 100× still yields
O(10⁸⁺) verified pairs (VERDICT r3 finding #2). This module keeps the exact
driver path for small pair sets and adds the scale path:

**Distributed min-label propagation with pointer jumping**, on the
``core/exchange`` hash-range map/reduce shared by ``state/dupfinder`` /
``state/pairreduce``:

- vertices are partitioned into R contiguous ranges of their 64-bit hash;
  each range holds (verts_sorted, labels) ndarrays in the object store;
- edges are stored once, both directions, partitioned by source vertex's
  range (driver holds only ObjectRefs after setup);
- each iteration runs two vectorized exchanges:
  1. *neighbor-min*: every range looks up its sources' labels locally and
     mails (dst, label[src]) messages to the destination ranges; each range
     folds incoming messages with ``np.minimum.at``;
  2. *pointer jump*: every vertex whose label is not itself asks the label
     vertex's range for ``label[label[v]]`` and takes the min — compressing
     label chains so convergence is O(log diameter) exchanges, not
     O(diameter);
- convergence = no label changed in any range (per-range bools, OR-reduced
  on the driver — the only thing the driver ever sees per iteration).

Labels decrease monotonically and are bounded below by the component min,
so the loop terminates; at the fixpoint every vertex's label IS the
component min (any non-min fixpoint would have a neighbor or label pointer
with a smaller label, contradiction). The result therefore matches the
driver union-find byte-for-byte — pinned by a cap=0 path-equivalence test.

Partitioning assumption: ranges are uniform under the vertex hash (always
true — it's a hash); a hot vertex (one doc near-dup to everything) costs
its degree in messages, which upstream LSH bucket caps already bound.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..core import exchange
from ..core.hashing import hash_ints

COMP_SEED = 23
DRIVER_PAIR_CAP = 2_000_000
PAIRS_PER_SETUP = 4_000_000  # pairs per edge-setup map task

_EMPTY = np.empty(0, dtype=np.int64)


def _split(v: np.ndarray, ranges: int, *arrays: np.ndarray) -> tuple:
    """Parallel arrays split into the hash ranges of the vertex ids ``v``."""
    h = hash_ints(v.astype(np.uint64, copy=False), seed=COMP_SEED)
    order = np.argsort(h, kind="stable")
    return tuple(exchange.split(h[order], ranges, *(a[order] for a in arrays)))


def union_find_labels(id_a: np.ndarray, id_b: np.ndarray) -> pa.Table:
    """Driver union-find → (doc_id, cluster_id=min id in component), sorted
    by doc_id. Exact; O(pairs α(pairs)); the small-pair-count path."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(id_a.tolist(), id_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    items = sorted((x, find(x)) for x in parent)
    return pa.table(
        {
            "doc_id": pa.array([x for x, _ in items], type=pa.int64()),
            "cluster_id": pa.array([r for _, r in items], type=pa.int64()),
        }
    )


@ray.remote
def _setup_edges(pairs: tuple, ranges: int) -> tuple:
    """Directed both ways, split by source range → per-range (src, dst)."""
    a, b = pairs
    src = np.concatenate([a, b])
    return _split(src, ranges, src, np.concatenate([b, a]))


@ray.remote
def _init_labels(*edge_parts):
    """Range's vertex set (every vertex appears as a source — both edge
    directions are stored) + identity labels."""
    srcs = [p[0] for p in edge_parts if p[0].size]
    if not srcs:
        return _EMPTY, _EMPTY
    verts = np.unique(np.concatenate(srcs))
    return verts, verts.copy()


@ray.remote
def _neighbor_messages(ranges: int, state, *edge_parts) -> tuple:
    """(dst, label[src]) messages for this range's edges, split by dst
    range."""
    verts, labels = state
    srcs = [p[0] for p in edge_parts if p[0].size]
    if not srcs:
        return ((_EMPTY, _EMPTY),) * ranges
    src = np.concatenate(srcs)
    dst = np.concatenate([p[1] for p in edge_parts if p[0].size])
    return _split(dst, ranges, dst, labels[np.searchsorted(verts, src)])


@ray.remote
def _combine_min(state, *msg_parts):
    """Fold (vertex, candidate_label) messages into this range's labels via
    ``np.minimum.at``; returns (new_state, changed)."""
    verts, labels = state
    ds = [m[0] for m in msg_parts if m[0].size]
    if verts.size == 0 or not ds:
        return (verts, labels), False
    d = np.concatenate(ds)
    l = np.concatenate([m[1] for m in msg_parts if m[0].size])
    new = labels.copy()
    np.minimum.at(new, np.searchsorted(verts, d), l)
    return (verts, new), bool((new < labels).any())


@ray.remote
def _jump_requests(state, ranges: int) -> tuple:
    """(requester_vertex, label) for every vertex whose label ≠ itself,
    split by the LABEL vertex's range (pointer-jumping ask)."""
    verts, labels = state
    need = labels != verts
    if not need.any():
        return ((_EMPTY, _EMPTY),) * ranges
    v, l = verts[need], labels[need]
    return _split(l, ranges, v, l)


@ray.remote
def _jump_answers(ranges: int, state, *req_parts) -> tuple:
    """Answer (requester, label[label_vertex]) for requests landing in this
    range, split by the REQUESTER's range. Labels are always existing
    vertex ids (they start as ids and only copy), so every lookup hits."""
    verts, labels = state
    vs = [r[0] for r in req_parts if r[0].size]
    if not vs:
        return ((_EMPTY, _EMPTY),) * ranges
    req_v = np.concatenate(vs)
    req_l = np.concatenate([r[1] for r in req_parts if r[0].size])
    return _split(req_v, ranges, req_v, labels[np.searchsorted(verts, req_l)])


@ray.remote
def _labels_table(state) -> pa.Table:
    verts, labels = state
    return pa.table(
        {
            "doc_id": pa.array(verts, type=pa.int64()),
            "cluster_id": pa.array(labels, type=pa.int64()),
        }
    )


def connected_component_refs(
    id_a: np.ndarray,
    id_b: np.ndarray,
    *,
    driver_cap: int | None = None,
) -> "list[ray.ObjectRef]":
    """Component labels for every vertex in the pair list, as ObjectRefs of
    disjoint (doc_id, cluster_id) Arrow tables — the driver never holds the
    label set on the distributed path. ``driver_cap`` (default 2M pairs)
    selects the exact union-find fast path; both paths produce identical
    labels."""
    id_a = np.asarray(id_a, dtype=np.int64)
    id_b = np.asarray(id_b, dtype=np.int64)
    cap = DRIVER_PAIR_CAP if driver_cap is None else driver_cap
    if id_a.size <= cap:
        return [ray.put(union_find_labels(id_a, id_b))]
    ranges = exchange.range_count()

    # setup: edges both ways, range-partitioned; driver keeps refs only
    chunks = [
        (id_a[i : i + PAIRS_PER_SETUP], id_b[i : i + PAIRS_PER_SETUP])
        for i in range(0, id_a.size, PAIRS_PER_SETUP)
    ]
    edge_refs = exchange.map_ranges(_setup_edges, chunks, ranges)
    states = exchange.reduce_ranges(edge_refs, _init_labels, ranges)

    # each reduce below gets its own range's state as the first partial
    while True:
        # phase 1: neighbor-min exchange along edges
        msgs = exchange.reduce_ranges(
            [states, *edge_refs], _neighbor_messages, ranges, ranges, returns=ranges
        )
        out = exchange.reduce_ranges([states, *msgs], _combine_min, ranges, returns=2)
        states = [o[0] for o in out]
        changed_nbr = ray.get([o[1] for o in out])

        # phase 2: pointer jump (label[v] ← label[label[v]])
        reqs = exchange.map_ranges(_jump_requests, states, ranges)
        answers = exchange.reduce_ranges(
            [states, *reqs], _jump_answers, ranges, ranges, returns=ranges
        )
        out = exchange.reduce_ranges([states, *answers], _combine_min, ranges, returns=2)
        states = [o[0] for o in out]
        changed_jmp = ray.get([o[1] for o in out])
        if not (any(changed_nbr) or any(changed_jmp)):
            return [_labels_table.remote(s) for s in states]


def connected_components(
    id_a: np.ndarray,
    id_b: np.ndarray,
    *,
    driver_cap: int | None = None,
) -> pa.Table:
    """(doc_id, cluster_id=min id in component) for every vertex in the
    pairs, sorted by doc_id. Collects the per-range label tables — callers
    at corpus scale should use ``connected_component_refs`` and keep the
    labels as a Dataset instead."""
    t = pa.concat_tables(ray.get(connected_component_refs(id_a, id_b, driver_cap=driver_cap)))
    return t.take(pa.compute.sort_indices(t.column("doc_id")))
