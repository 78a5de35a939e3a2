"""Stable, vectorized 64-bit hashing for hot paths.

Python's builtin ``hash()`` is salted per process and therefore unusable in a
distributed engine (two workers would disagree). We use polars' seeded xxhash
(Rust, vectorized, deterministic for a given polars version) for string
columns, with a numpy splitmix64 finalizer for integer mixing. Used by the
HyperLogLog sketch, MinHash/SimHash dedup, and hash-partitioned exact dedup —
never by anything an SQL oracle must reproduce.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 ndarray."""
    z = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def hash_strings(arr: "pa.Array | pa.ChunkedArray | list[str]", seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hashes of a string array → uint64 ndarray.

    Nulls hash to a fixed sentinel (splitmix64(seed) of 0) so callers can mask
    them explicitly if needed.
    """
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(arr)
        if isinstance(s, pl.DataFrame):  # pragma: no cover - defensive
            s = s.to_series()
    else:
        s = pl.Series(arr, dtype=pl.Utf8)
    h = s.hash(seed=seed).to_numpy().astype(_U64, copy=False)
    return splitmix64(h)


def hash_ints(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hashes of an integer ndarray → uint64."""
    with np.errstate(over="ignore"):
        z = x.astype(_U64, copy=False) + _U64(seed) * _U64(0x9E3779B97F4A7C15)
    return splitmix64(z)


def hash_keys(arr: "pa.Array | pa.ChunkedArray", seed: int = 0) -> np.ndarray:
    """The exchange key hash → uint64 ndarray. Integer keys hash by value
    at any width (int32 and int64 keys route alike); every other key type
    hashes as strings (string and large_string alike). Callers drop null
    keys first."""
    if pa.types.is_integer(arr.type):
        vals = arr.to_numpy(zero_copy_only=False)
        return hash_ints(vals.astype(_U64, copy=False), seed=seed)
    return hash_strings(arr, seed=seed)


def range_edges(ranges: int) -> np.ndarray:
    """Split points of the uint64 hash space into ``ranges`` uniform ranges:
    the partitioner of ``core/exchange.split``, through which every hash
    exchange of the engine routes; no other module imports it."""
    # ranges is clamped >= 2 by exchange.range_count: ranges=1 would evaluate
    # np.uint64(2**64) (OverflowError) and break num_returns plumbing
    assert ranges >= 2
    return np.arange(1, ranges, dtype=_U64) * _U64((2**64) // ranges)
