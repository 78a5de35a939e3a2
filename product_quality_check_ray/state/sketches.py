"""Mergeable sketches: t-digest (quantiles) and HyperLogLog (distinct counts).

The reference has no sketch machinery (SURVEY.md §2.5 "absent in reference");
the north rule requires t-digest quantiles on ``n_tok`` and HLL distinct
counts on ``doc_id``/``source``. Both are implemented from their published
papers (Dunning & Ertl, "Computing Extremely Accurate Quantiles Using
t-Digests", 2019; Flajolet et al., "HyperLogLog", 2007) as numpy-vectorized,
serializable, mergeable partials: each validate task emits one serialized
sketch per (fragment, source), and a tiny driver-side reduce merges them (the
pattern SURVEY.md §4.2 calls "sketch merge protocol").

Serialization: ``HyperLogLog.to_bytes`` is a plain binary codec — a
``[p, form]`` header, then either the sorted nonzero registers (HLL++'s
sparse idea: a fragment's sketch of a few hundred ids fills a few dozen of
4096 registers) or the dense register array — and ``from_bytes`` validates
it and never unpickles, since the bytes are read back from lineage files on
disk. ``TDigest.to_bytes`` stays a pickle of its centroid arrays: callers
order merges by those bytes (``seq_queries._merge_sketch_partials``), so a
new layout could reorder order-sensitive digest merges.

Determinism note (SURVEY.md §7.4): HLL merge is exactly order-insensitive
(register-wise max). t-digest merges are deterministic given merge order, not
otherwise; validate therefore builds each fragment's digest once, from the
fragment's exact value counts, and merges the digests in partition-id order,
so its quantiles are fixed by the fragments' rows.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..core.hashing import hash_ints, hash_strings


class TDigest:
    """Merging-buffer t-digest with the k1 (arcsin) scale function.

    Holds at most ~`2*delta` centroids; `add`/`merge` buffer inputs and
    compress lazily. Quantile estimation interpolates between centroid means.
    """

    __slots__ = ("delta", "means", "weights", "_buf_m", "_buf_w", "count", "_min", "_max")

    def __init__(self, delta: int = 100):
        self.delta = delta
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf_m: list[np.ndarray] = []
        self._buf_w: list[np.ndarray] = []
        self.count = 0.0
        self._min = np.inf
        self._max = -np.inf

    def add(self, values: np.ndarray, weights: np.ndarray | None = None) -> "TDigest":
        v = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(v)
        v = v[finite]
        if v.size == 0:
            return self
        if weights is None:
            w = np.ones_like(v)
        else:
            # keep weights aligned with the finite-value filter
            w = np.asarray(weights, dtype=np.float64)[finite]
        self._buf_m.append(v)
        self._buf_w.append(w)
        self.count += float(w.sum())
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        if sum(b.size for b in self._buf_m) > 8 * self.delta:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        if other.count == 0:
            return self
        other._compress()
        self._buf_m.append(other.means)
        self._buf_w.append(other.weights)
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    @staticmethod
    def _k1(q: np.ndarray, delta: int) -> np.ndarray:
        return (delta / (2 * np.pi)) * np.arcsin(2 * np.clip(q, 0.0, 1.0) - 1)

    def _compress(self) -> None:
        if not self._buf_m and self.means.size <= 2 * self.delta:
            return
        m = np.concatenate([self.means, *self._buf_m]) if self._buf_m else self.means
        w = np.concatenate([self.weights, *self._buf_w]) if self._buf_w else self.weights
        self._buf_m, self._buf_w = [], []
        if m.size == 0:
            return
        order = np.argsort(m, kind="stable")
        m, w = m[order], w[order]
        total = w.sum()
        # vectorized k-scale bucketing (the textbook variant of Dunning's
        # merging pass): cluster consecutive points whose k1(q) falls in the
        # same unit bucket; one reduceat per buffer instead of a Python loop
        q = (np.cumsum(w) - w) / total
        bucket = np.floor(self._k1(q, self.delta)).astype(np.int64)
        change = np.empty(m.size, dtype=bool)
        change[0] = True
        np.not_equal(bucket[1:], bucket[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        wsum = np.add.reduceat(w, starts)
        msum = np.add.reduceat(m * w, starts) / wsum
        self.means = msum
        self.weights = wsum

    def quantile(self, q: float) -> float:
        self._compress()
        if self.means.size == 0:
            return float("nan")
        if self.means.size == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2.0
        target = q * self.count
        if target <= cum[0]:
            return float(self._min + (self.means[0] - self._min) * max(target, 0) / max(cum[0], 1e-12)) if np.isfinite(self._min) else float(self.means[0])
        if target >= cum[-1]:
            return float(self._max)
        i = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[i]) / max(cum[i + 1] - cum[i], 1e-12)
        return float(self.means[i] + frac * (self.means[i + 1] - self.means[i]))

    def to_bytes(self) -> bytes:
        self._compress()
        return pickle.dumps(
            (self.delta, self.means, self.weights, self.count, self._min, self._max)
        )

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        delta, means, weights, count, mn, mx = pickle.loads(b)
        t = cls(delta)
        t.means, t.weights, t.count, t._min, t._max = means, weights, count, mn, mx
        return t


# HyperLogLog.to_bytes forms, and the precisions its <u2 sparse indices hold
_DENSE, _SPARSE = 0, 1
_MIN_P, _MAX_P = 4, 16


def _index_rank(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) of each uint64 hash for a 2^p-register HLL."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    # rank = position of leftmost 1-bit in remaining 64-p bits, in [1, 64-p+1]
    nz = rest != 0
    lz = np.full(h.shape, 64 - p, dtype=np.int64)
    r = rest[nz]
    # count leading zeros of 64-bit ints via float64 exponent is lossy;
    # do it with a 4-step binary reduction instead.
    shift = np.zeros(r.shape, dtype=np.uint64)
    cur = r.copy()
    for s in (np.uint64(32), np.uint64(16), np.uint64(8), np.uint64(4), np.uint64(2), np.uint64(1)):
        mask = cur < (np.uint64(1) << (np.uint64(64) - s))
        shift[mask] += s
        cur[mask] = cur[mask] << s
    lz[nz] = shift.astype(np.int64)
    return idx, np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)


def add_strings_grouped(registers: np.ndarray, groups: np.ndarray, arr, seed: int = 0) -> None:
    """``HyperLogLog.add_strings`` for one sketch per group in one hash pass:
    element i of ``arr`` goes into row ``groups[i]`` of ``registers``, a
    ``[groups, 2^p]`` uint8 array of HyperLogLog registers. Row g ends up
    equal to the registers of a sketch fed only group g's strings."""
    idx, rank = _index_rank(hash_strings(arr, seed=seed), registers.shape[1].bit_length() - 1)
    np.maximum.at(registers, (groups, idx), rank)


class HyperLogLog:
    """HLL with 2^p registers, 64-bit stable hashes, bias-corrected estimate.

    Merge = register-wise max (exactly order-insensitive). Uses the classic
    HLL estimator with small-range (linear counting) correction — adequate
    for the distinct-count checks here; swap in HLL++ bias tables if tighter
    mid-range error is ever needed.
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    @classmethod
    def from_registers(cls, registers: np.ndarray) -> "HyperLogLog":
        """The sketch holding ``registers`` (2^p uint8), e.g. one row of an
        ``add_strings_grouped`` register array."""
        h = cls(int(registers.size).bit_length() - 1)
        h.registers = registers
        return h

    def _observe_hashes(self, h: np.ndarray) -> None:
        idx, rank = _index_rank(h, self.p)
        np.maximum.at(self.registers, idx, rank)

    def add_strings(self, arr, seed: int = 0) -> "HyperLogLog":
        self._observe_hashes(hash_strings(arr, seed=seed))
        return self

    def add_ints(self, x: np.ndarray, seed: int = 0) -> "HyperLogLog":
        self._observe_hashes(hash_ints(np.asarray(x), seed=seed))
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        e = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        if e <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                e = m * np.log(m / zeros)
        return float(e)

    def to_bytes(self) -> bytes:
        """``[p, form]`` then the registers: sparse (``_SPARSE``) while
        ``3·nnz < m`` — the sorted nonzero register indices as ``<u2``, then
        their ranks as ``u8`` — else dense, the ``m`` raw registers. At most
        ``2 + min(3·nnz, m)`` bytes."""
        idx = np.flatnonzero(self.registers)
        if 3 * idx.size < self.m:
            body = idx.astype("<u2").tobytes() + self.registers[idx].tobytes()
            return bytes((self.p, _SPARSE)) + body
        return bytes((self.p, _DENSE)) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        """The sketch ``to_bytes`` encoded; ``ValueError`` on malformed bytes."""
        if len(b) < 2 or not _MIN_P <= b[0] <= _MAX_P:
            raise ValueError(f"HyperLogLog bytes: bad header {bytes(b[:2])!r}")
        h = cls(b[0])
        body = np.frombuffer(b, dtype=np.uint8, offset=2)
        if b[1] == _DENSE:
            if body.size != h.m:
                raise ValueError(f"HyperLogLog bytes: {body.size} dense registers, want {h.m}")
            ranks = h.registers = body.copy()
        elif b[1] == _SPARSE:
            nnz, rem = divmod(body.size, 3)
            if rem or 3 * nnz >= h.m:
                raise ValueError(f"HyperLogLog bytes: sparse body of {body.size} bytes at p={h.p}")
            idx, ranks = body[: 2 * nnz].view("<u2"), body[2 * nnz :]
            if nnz and (idx[-1] >= h.m or (idx[1:] <= idx[:-1]).any() or ranks.min() == 0):
                raise ValueError(
                    "HyperLogLog bytes: sparse entries not increasing, in range and nonzero"
                )
            h.registers[idx] = ranks
        else:
            raise ValueError(f"HyperLogLog bytes: unknown form {b[1]}")
        if ranks.size and ranks.max() > 64 - h.p + 1:
            raise ValueError(f"HyperLogLog bytes: rank {ranks.max()} above {64 - h.p + 1}")
        return h
