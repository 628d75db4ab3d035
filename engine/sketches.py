"""Mergeable sketches in pure numpy: HyperLogLog, t-digest, Bloom filter.

No sketch library ships in this environment (SURVEY.md §4 sandbox facts), and
all three are small mergeable algorithms, so they are implemented here from
their published descriptions (Flajolet et al. 2007 HLL with the standard bias
corrections; Dunning & Ertl t-digest via the merging variant; classic Bloom
with double hashing). Mergeability is what makes them Ray-friendly: each
``map_batches`` task sketches its batch, partials are unioned in a tiny
reduce — no shuffle of the data itself.

Hashing: ``pandas.util.hash_array`` (deterministic, vectorized, 64-bit) with
seed-derived hash keys.
"""

from __future__ import annotations

import numpy as np


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(h: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 finalizer; decorrelates seeds (pandas hash_array ignores
    its hash_key for numeric dtypes, so seeding must happen here)."""
    h = h ^ np.uint64((seed * _GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    h = (h ^ (h >> np.uint64(30))) * _M1
    h = (h ^ (h >> np.uint64(27))) * _M2
    return h ^ (h >> np.uint64(31))


def hash64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized deterministic 64-bit hash of an array of scalars.

    Float arrays hash INTEGRAL elements as their int64 value (decided
    PER ELEMENT, so the choice never depends on what else shares the
    batch): Arrow->pandas degrades an int64-with-NULL column to float64,
    so the same key can arrive as int64 in one batch and float64 in
    another — without canonicalization the two spellings hash to
    different partitions and every coarse-partition operator would split
    that key (verified: hash_array(int64 2) != hash_array(float64 2.0)).
    Non-integral / non-finite / out-of-int64-range floats keep the plain
    float hash; int64 and string inputs are bit-identical to before.
    """
    import pandas as pd

    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "USm":
        h = pd.util.hash_array(arr.astype(object))
    elif arr.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            intq = (np.isfinite(arr) & (arr == np.floor(arr))
                    & (np.abs(arr) < 2.0 ** 63))
        h = np.empty(len(arr), dtype=np.uint64)
        if intq.any():
            h[intq] = pd.util.hash_array(arr[intq].astype(np.int64))
        rest = ~intq
        if rest.any():
            h[rest] = pd.util.hash_array(np.ascontiguousarray(arr[rest]))
    else:
        h = pd.util.hash_array(arr)
    with np.errstate(over="ignore"):
        return _splitmix(h.astype(np.uint64), seed)


def _hash_set(values: np.ndarray) -> np.ndarray:
    """:func:`hash64` of values whose registers only see the value set.

    ``hash_array(categorize=True)`` factorizes an object array and hashes
    each distinct value with ``categorize=False``, every NULL spelling
    mapping to ``2**64-1``; hashing without the factorize and then
    setting the NULLs gives the same hashes for values Arrow already made
    distinct (``pc.unique``), without the factorize's cost. Values equal
    only under Python equality (``1`` and ``1.0``) may hash apart."""
    import pandas as pd

    arr = np.asarray(values)
    if not (arr.dtype == object or arr.dtype.kind in "USm"):
        return hash64(arr)
    arr = arr.astype(object)
    h = pd.util.hash_array(arr, categorize=False)
    h[pd.isna(arr)] = np.iinfo(np.uint64).max
    with np.errstate(over="ignore"):
        return _splitmix(h, 0)


# ---------------------------------------------------------------------------
# HyperLogLog


class HLL:
    """HyperLogLog distinct-count sketch; registers merge by max."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (registers if registers is not None
                          else np.zeros(self.m, dtype=np.uint8))

    def update(self, values: np.ndarray) -> "HLL":
        if len(values) == 0:
            return self
        h = _hash_set(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = (h << np.uint64(self.p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        # rank = leading zeros of w within (64-p) bits, + 1
        nz = w != 0
        msb = np.zeros(len(w), dtype=np.int64)
        wf = w[nz].astype(np.float64)
        msb[nz] = np.floor(np.log2(wf)).astype(np.int64)
        rank = np.where(nz, 64 - msb, (64 - self.p) + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        regs = self.registers.astype(np.float64)
        est = alpha * m * m / np.sum(np.exp2(-regs))
        if est <= 2.5 * m:
            zeros = float(np.count_nonzero(self.registers == 0))
            if zeros > 0:
                est = m * np.log(m / zeros)  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HLL":
        p = b[0]
        return cls(p, np.frombuffer(b[1:], dtype=np.uint8).copy())


# ---------------------------------------------------------------------------
# t-digest (merging variant, k1-ish size bound via q(1-q))


class TDigest:
    """Mergeable quantile sketch: centroids (mean, weight) kept in mean order,
    cluster sizes bounded by ``4 * n * q(1-q) / delta``."""

    def __init__(self, delta: int = 100,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None):
        self.delta = delta
        self.means = means if means is not None else np.empty(0, np.float64)
        self.weights = (weights if weights is not None
                        else np.empty(0, np.float64))

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def update(self, values: np.ndarray) -> "TDigest":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self.means = np.concatenate([self.means, v])
        self.weights = np.concatenate([self.weights, np.ones(len(v))])
        self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        if len(other.means):
            self.means = np.concatenate([self.means, other.means])
            self.weights = np.concatenate([self.weights, other.weights])
            self._compress()
        return self

    def _compress(self) -> None:
        """Vectorized k1-scale clustering: centroids grouped by
        ``floor(delta/2pi * asin(2q-1))`` — cluster sizes bounded ~q(1-q),
        fully numpy (no per-centroid python loop in the batch hot path)."""
        if len(self.means) <= self.delta:
            order = np.argsort(self.means, kind="stable")
            self.means, self.weights = self.means[order], self.weights[order]
            return
        order = np.argsort(self.means, kind="stable")
        m, w = self.means[order], self.weights[order]
        n = w.sum()
        q = (np.cumsum(w) - w / 2.0) / n
        k = (self.delta / (2.0 * np.pi)) * np.arcsin(2.0 * q - 1.0)
        cluster = np.floor(k).astype(np.int64)
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(cluster))[0] + 1])
        wsum = np.add.reduceat(w, starts)
        msum = np.add.reduceat(m * w, starts)
        self.means = msum / wsum
        self.weights = wsum

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2.0
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """ECDF approximation at points ``x``."""
        if len(self.means) == 0:
            return np.full(len(np.atleast_1d(x)), np.nan)
        cum = np.cumsum(self.weights) - self.weights / 2.0
        return np.interp(np.atleast_1d(x), self.means,
                         cum / self.weights.sum(), left=0.0, right=1.0)

    def to_bytes(self) -> bytes:
        self._compress()
        import struct
        head = struct.pack("<iq", self.delta, len(self.means))
        return head + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        import struct
        delta, n = struct.unpack_from("<iq", b, 0)
        off = struct.calcsize("<iq")
        means = np.frombuffer(b, np.float64, n, off).copy()
        weights = np.frombuffer(b, np.float64, n, off + 8 * n).copy()
        return cls(delta, means, weights)


# ---------------------------------------------------------------------------
# Bloom filter


class Bloom:
    """Bloom filter with double hashing; bitwise-OR mergeable.

    False-positive rate ~= (1 - e^{-k n/m})^k; ``for_capacity`` sizes m, k for
    a target fpr. No false negatives — a "miss" is definitely dangling.
    """

    def __init__(self, n_bits: int, k: int, bits: np.ndarray | None = None):
        self.n_bits = int(n_bits)
        self.k = int(k)
        self.words = (bits if bits is not None
                      else np.zeros((self.n_bits + 63) // 64, dtype=np.uint64))

    @classmethod
    def for_capacity(cls, n: int, fpr: float = 0.01) -> "Bloom":
        n = max(n, 1)
        m = int(np.ceil(-n * np.log(fpr) / (np.log(2) ** 2)))
        k = max(1, int(round(m / n * np.log(2))))
        return cls(m, k)

    def _positions(self, values: np.ndarray) -> np.ndarray:
        h1 = hash64(values, seed=1)
        h2 = hash64(values, seed=2) | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + ks * h2[None, :])
                % np.uint64(self.n_bits)).astype(np.int64)

    def add(self, values: np.ndarray) -> "Bloom":
        if len(values) == 0:
            return self
        pos = self._positions(values).ravel()
        np.bitwise_or.at(self.words, pos >> 6,
                         np.uint64(1) << (pos.astype(np.uint64) & np.uint64(63)))
        return self

    def contains(self, values: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(values)
        bits = (self.words[pos >> 6] >>
                (pos.astype(np.uint64) & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=0)

    def merge(self, other: "Bloom") -> "Bloom":
        assert self.n_bits == other.n_bits and self.k == other.k
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def to_bytes(self) -> bytes:
        import struct
        return struct.pack("<qi", self.n_bits, self.k) + self.words.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "Bloom":
        import struct
        n_bits, k = struct.unpack_from("<qi", b, 0)
        off = struct.calcsize("<qi")
        return cls(n_bits, k, np.frombuffer(b[off:], dtype=np.uint64).copy())


class SpaceSaving:
    """Misra-Gries / SpaceSaving heavy-hitters sketch (Metwally et al.,
    ICDT'05 — public algorithm): tracks at most ``capacity`` counters;
    guarantees every item with true frequency > N / capacity is present,
    and each reported count overestimates the true count by at most the
    counter's ``error`` field. MERGEABLE (Agarwal et al. mergeable
    summaries): merging sums matching counters, inherits max error for
    survivors — so per-batch partials combine without a shuffle.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.counts: dict = {}
        self.errors: dict = {}

    def update(self, values, counts=None) -> "SpaceSaving":
        if counts is None:
            import collections
            items = collections.Counter(values).items()
        else:
            items = zip(values, counts)
        for v, c in items:
            c = int(c)
            if v in self.counts:
                self.counts[v] += c
            elif len(self.counts) < self.capacity:
                self.counts[v] = c
                self.errors[v] = 0
            else:
                mv = min(self.counts, key=self.counts.get)
                mc = self.counts.pop(mv)
                me = self.errors.pop(mv)
                self.counts[v] = mc + c
                self.errors[v] = mc  # may overcount by the evicted count
                del me
        return self

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        for v, c in other.counts.items():
            e = other.errors[v]
            if v in self.counts:
                self.counts[v] += c
                self.errors[v] += e
            elif len(self.counts) < self.capacity:
                self.counts[v] = c
                self.errors[v] = e
            else:
                mv = min(self.counts, key=self.counts.get)
                mc = self.counts.pop(mv)
                self.errors.pop(mv)
                self.counts[v] = mc + c
                self.errors[v] = mc + e
        return self

    def top(self, k: int) -> list:
        """[(value, est_count, max_error)] by est desc, value asc."""
        items = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(v, c, self.errors[v]) for v, c in items[:k]]

    def to_bytes(self) -> bytes:
        import json as _json
        return _json.dumps({"capacity": self.capacity,
                            "counts": list(self.counts.items()),
                            "errors": list(self.errors.items())}).encode()

    @classmethod
    def from_bytes(cls, b: bytes) -> "SpaceSaving":
        import json as _json
        d = _json.loads(b.decode())
        out = cls(d["capacity"])
        out.counts = dict((k, v) for k, v in d["counts"])
        out.errors = dict((k, v) for k, v in d["errors"])
        return out
