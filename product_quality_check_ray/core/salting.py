"""Salted two-stage aggregation for skewed low-cardinality keys.

The north rule calls for "salted repartitioning before the uniqueness
groupby". For the engine's uniqueness check we went further — the hash-range
tree reduce (``state/dupfinder.py``) is uniform under any key skew by
construction. Salting remains the right tool when a skewed LOW-cardinality
key must go through a real ``groupby`` whose per-group work can't be
pre-reduced by a per-batch combiner (e.g. order-dependent ``map_groups``
state): one hot key ("web" holds 62% of the synthetic corpus) would pin a
single reducer.

``salted_aggregate`` implements the standard two-stage shape:

  stage 1: append ``salt = hash(row) % S`` → groupby((key, salt)) →
           partial aggregate (S-way fan-out of every hot key)
  stage 2: groupby(key) over the S partials → final merge (tiny)

Aggregations must be decomposable (sum/count/min/max/mergeable sketches).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Sum


def add_salt(batch: pa.Table, *, num_salts: int, seed: int = 13) -> pa.Table:
    """Deterministic per-row salt derived from row position hash (cheap,
    uniform; independent of the key so hot keys spread across all salts)."""
    n = batch.num_rows
    base = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (base + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(29)
    salt = (z % np.uint64(num_salts)).astype(np.int32)
    return batch.append_column("salt", pa.array(salt))


def salted_sum(
    ds: rd.Dataset,
    key: str,
    value: str,
    *,
    num_salts: int = 16,
    alias: str | None = None,
) -> rd.Dataset:
    """Two-stage salted SUM of ``value`` per ``key`` (skew-safe groupby).

    Equivalent to ``ds.groupby(key).sum(value)`` but no reducer ever sees
    more than ~1/num_salts of a hot key's rows in stage 1.
    """
    alias = alias or value

    salted = ds.map_batches(
        add_salt, fn_kwargs={"num_salts": num_salts}, batch_format="pyarrow"
    )
    stage1 = (
        salted.groupby([key, "salt"])
        .aggregate(Sum(value, alias_name=alias))
        .materialize()  # S × |keys| rows — tiny
    )
    return stage1.groupby(key).aggregate(Sum(alias, alias_name=alias))


def hash_bucket_stage(col: str, n_buckets: int):
    """Per-batch stage appending ``bucket = hash_ints(col) % n_buckets``.

    The shared building block for bucketed per-key kernels (sessionization,
    as-of join, grouped argmax): hashing keys into O(n_buckets) chunky groups
    turns per-tiny-group ``map_groups`` overhead into a handful of vectorized
    group calls. One definition so the kernels can never desynchronize.
    """
    import numpy as np
    import pyarrow as pa

    from .hashing import hash_ints

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = (hash_ints(ids) % np.uint64(n_buckets)).astype(np.int64)
        return t.append_column("bucket", pa.array(b))

    return add_bucket

