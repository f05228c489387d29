"""Linear codes over a ring table: enumeration, duals, self-duality, distance.

A linear code is the row span of a generator matrix G (a k x n uint8 array
of element values) over one of the ring records of `ring`: R = Z4+uZ4 (the
default), or Z4 and F2+uF2, where the Gray images and projections live.
R is not a chain ring, so there is no standard generating form in general;
for every ring, cardinality is size^k only when G is literally [I_k | A].
Every other count over C comes from all size^k messages.  The encoding map
x -> xG is a module homomorphism, so every codeword has exactly |K|
preimages, K = {x : xG = 0}: a count over all messages, divided by the
number of messages that give the zero word, is the count over C.  So no
codeword store exists: |C| and the Lee census come from the census sweep
(hist[0] = |K|), the complete enumerator from compositions counted over
all messages, and membership from one pass over the message space (in
standard form, from one product: the message is the first k coordinates).

Enumeration kernels are table-driven numpy.  Messages x in ring^j run in
odometer order (last coordinate fastest), and a whole message space is
never written out as digits: `span_table` builds the products x.rows for
every x directly, one broadcast gather ADD[t, MUL[:, r]] per row r, so the
table for j digits costs about size/(size-1) gathers of its own size.
`span_blocks` splits a large space into blocks of at most 2^20 rows (5
digits over R, 10 over a 4-element ring): the low-digit table is built
once, each high prefix comes from a second, small span table, and a block
is one ADD of the two.  Membership, the complete enumerator and the
brute-force dual (the span of G^T, keeping the indices whose product is
zero) all run on it.

The sweep kernel uses the same layout: a low-digit table of parity products
and information weights, and an outer loop over the high-digit prefixes, so
each step is one fancy-indexed gather plus a row sum over a (2^20, n-k)
array.  One kernel serves two reducers: the minimum nonzero weight (with
information-weight pruning in standard form) and the Lee census.  Message
digits are decoded from the flat odometer index only where they are
reported: the witness and the kept dual vectors.  Work shards by the first
message coordinate; shard results merge by an order-free minimum or sum, so
thread count never changes any reported value or witness.  Explicit message
lists (encoding, low-weight and sampled messages) go through `ring_matmul`.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ZeroCode
from .ring import R, RingTable, parse_matrix_text

#: Default enumeration budget (message count); the slow lane raises it 16x.
DEFAULT_BUDGET = 16 ** 7
SLOW_BUDGET = 16 ** 8

#: Seed for sampled upper-bound messages; fixed so reports are replayable.
SAMPLE_SEED = 0x5EED
DEFAULT_SAMPLE_COUNT = 50_000

_LO_DIGITS = 5              # low-block width over R: 16^5 rows per gather
_LO_BITS = 4 * _LO_DIGITS   # other rings take as many digits as fill 2^20 rows
_BIG = 1 << 30


def as_matrix(rows: Sequence[Sequence[int]] | np.ndarray, ring: RingTable = R) -> np.ndarray:
    """Validate and return a k x n uint8 matrix of ring element values."""
    m = np.array(rows, dtype=np.uint8)  # a copy: LinearCode freezes it
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"generator matrix must be 2-D and nonempty, got shape {m.shape}")
    if m.max(initial=0) >= ring.size:
        raise ValueError(f"matrix entries must be {ring.name} element values 0..{ring.size - 1}")
    return m


def identity(k: int, ring: RingTable = R) -> np.ndarray:
    m = np.zeros((k, k), dtype=np.uint8)
    np.fill_diagonal(m, ring.ONE)
    return m


def ring_matmul(x: np.ndarray, g: np.ndarray, ring: RingTable = R) -> np.ndarray:
    """(B, k) x (k, n) -> (B, n) product over the ring, via lookup tables."""
    acc = np.zeros((x.shape[0], g.shape[1]), dtype=np.uint8)
    for i in range(x.shape[1]):
        acc = ring.ADD[acc, ring.MUL[x[:, i]][:, g[i]]]
    return acc


def inner(x: Sequence[int], y: Sequence[int], ring: RingTable = R) -> int:
    """Euclidean inner product sum(x_i * y_i) in the ring."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    acc = 0
    for a, b in zip(x, y):
        acc = ring.ADD[acc, ring.MUL[int(a), int(b)]]
    return int(acc)


def lee_weight_vector(v: Sequence[int], ring: RingTable = R) -> int:
    return int(ring.LEE[np.asarray(v, dtype=np.uint8)].sum())


# ---------------------------------------------------------------------------
# Message enumeration
# ---------------------------------------------------------------------------

def span_table(rows: np.ndarray, ring: RingTable = R) -> np.ndarray:
    """(size^j, m) products x.rows for every x in ring^j, odometer order.

    Built one row at a time: the table for the first i rows, taken as a
    column of prefixes, plus every multiple of row i.
    """
    m = rows.shape[1]
    t = np.zeros((1, m), dtype=np.uint8)
    for r in rows:
        t = ring.ADD[t[:, None, :], ring.MUL[:, r][None, :, :]].reshape(len(t) * ring.size, m)
    return t


def _info_weights(j: int, ring: RingTable = R) -> np.ndarray:
    """Lee weight of every message in ring^j, odometer order (int64)."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(j):
        w = (w[:, None] + ring.LEE[None, :]).ravel()
    return w


def _high_digits(j: int, ring: RingTable) -> int:
    """Digits left over when the low digits fill at most 2^20 rows."""
    return max(0, j - _LO_BITS // ring.bits)


def span_blocks(rows: np.ndarray, ring: RingTable = R) -> Iterator[tuple[int, np.ndarray]]:
    """The span table of `rows` in (first index, products) blocks of <= 2^20 rows."""
    khi = _high_digits(rows.shape[0], ring)
    tl = span_table(rows[khi:], ring)
    for h, prefix in enumerate(span_table(rows[:khi], ring)):
        yield h * len(tl), ring.ADD[tl, prefix]


def _digits(index: np.ndarray, j: int, ring: RingTable = R) -> np.ndarray:
    """Odometer indices as (len, j) message digit rows."""
    out = np.empty((len(index), j), dtype=np.uint8)
    mask = ring.size - 1
    for d in range(j):
        out[:, j - 1 - d] = (index >> (ring.bits * d)) & mask
    return out


@functools.lru_cache(maxsize=None)
def low_weight_messages(k: int, max_hamming: int = 2, ring: RingTable = R) -> np.ndarray:
    """All messages of Hamming weight 1..max_hamming over ring^k, fixed order.

    Cached per argument tuple; the array is read-only.
    """
    rows: list[np.ndarray] = []
    nz = np.arange(1, ring.size, dtype=np.uint8)
    for i in range(k):
        m = np.zeros((nz.shape[0], k), dtype=np.uint8)
        m[:, i] = nz
        rows.append(m)
    if max_hamming >= 2:
        first, second = np.repeat(nz, len(nz)), np.tile(nz, len(nz))
        for i in range(k):
            for j in range(i + 1, k):
                m = np.zeros((first.shape[0], k), dtype=np.uint8)
                m[:, i] = first
                m[:, j] = second
                rows.append(m)
    out = np.concatenate(rows, axis=0) if rows else np.zeros((0, k), dtype=np.uint8)
    out.flags.writeable = False
    return out


def sampled_messages(k: int, count: int, seed: int = SAMPLE_SEED,
                     ring: RingTable = R) -> Iterator[np.ndarray]:
    rng = np.random.default_rng(seed)
    done = 0
    while done < count:
        b = min(1 << 16, count - done)
        x = rng.integers(0, ring.size, size=(b, k), dtype=np.uint8)
        yield x[(x != 0).any(axis=1)]
        done += b


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class SelfDuality(Enum):
    SELF_DUAL = "self-dual"
    SELF_ORTHOGONAL_ONLY = "self-orthogonal"
    NEITHER = "neither"


@dataclass(frozen=True)
class DistanceResult:
    """Minimum Lee distance, with an honest exact/upper-bound flag."""

    value: int
    exact: bool
    witness_message: tuple[int, ...]

    def label(self) -> str:
        return "exact" if self.exact else "upper-bound"


# ---------------------------------------------------------------------------
# The code object
# ---------------------------------------------------------------------------

class LinearCode:
    """Row span of a generator matrix over a ring table (default R = Z4+uZ4).

    `cardinality`, when given, is the caller's exact |C| (for instance the
    size of a code whose isometric image this is); it saves the census sweep.
    """

    def __init__(self, gen: Sequence[Sequence[int]] | np.ndarray, ring: RingTable = R,
                 cardinality: int | None = None):
        self.ring = ring
        self.gen = as_matrix(gen, ring)
        self.gen.flags.writeable = False
        k, n = self.gen.shape
        self.standard_form = n >= k and bool(np.array_equal(self.gen[:, :k], identity(k, ring)))
        self._cardinality = cardinality

    @classmethod
    def from_text(cls, text: str, ring: RingTable = R) -> "LinearCode":
        return cls(parse_matrix_text(text, ring), ring)

    @classmethod
    def from_file(cls, path, ring: RingTable = R) -> "LinearCode":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), ring)

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    @property
    def n(self) -> int:
        return self.gen.shape[1]

    @property
    def is_zero(self) -> bool:
        return not self.gen.any()

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        x = np.asarray(message, dtype=np.uint8).reshape(1, -1)
        if x.shape[1] != self.k:
            raise ValueError(f"message length {x.shape[1]} != k = {self.k}")
        return tuple(int(v) for v in ring_matmul(x, self.gen, self.ring)[0])

    # -- enumeration ------------------------------------------------------

    def codeword_blocks(self, budget: int = DEFAULT_BUDGET) -> Iterator[tuple[int, np.ndarray]]:
        """`span_blocks` of G: the codeword of every message, so each
        codeword appears |K| times; raises BudgetExceeded past the budget."""
        total = self.ring.size ** self.k
        if total > budget:
            raise BudgetExceeded(total, budget, "codeword enumeration")
        return span_blocks(self.gen, self.ring)

    def contains(self, words, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """One bool per row of the (N, n) `words`: is it a codeword?

        In standard form [I_k | A] the first k coordinates are the message,
        so w is a codeword iff w[k:] = w[:k] A: one product, no sweep.
        Otherwise one sweep over the message space for all rows together;
        rows are compared as n-byte keys.
        """
        q = np.asarray(words, dtype=np.uint8)
        if q.ndim != 2 or q.shape[1] != self.n:
            raise ValueError(f"expected an (N, {self.n}) array of words, got shape {q.shape}")
        if self.standard_form:
            k = self.k
            return (ring_matmul(q[:, :k], self.gen[:, k:], self.ring) == q[:, k:]).all(axis=1)
        key = np.dtype((np.void, self.n))
        qv = np.ascontiguousarray(q).view(key).ravel()
        found = np.zeros(len(qv), dtype=bool)
        for _, blk in self.codeword_blocks(budget):
            bv = np.ascontiguousarray(blk).view(key).ravel()
            found |= np.isin(qv, bv[np.isin(bv, qv)])
        return found

    def same_code(self, other: "LinearCode", budget: int = DEFAULT_BUDGET) -> bool:
        """Equal codeword sets: same ring and length, and each code holds
        every generator row of the other (at most one sweep of each, none
        for a code in standard form)."""
        return (self.ring is other.ring and self.n == other.n
                and bool(other.contains(self.gen, budget).all())
                and bool(self.contains(other.gen, budget).all()))

    def cardinality(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact |C|: size^k in standard form, else from the Lee census."""
        if self._cardinality is None:
            if self.standard_form:
                self._cardinality = self.ring.size ** self.k
            else:
                self.lee_census(budget)
        assert self._cardinality is not None
        return self._cardinality

    # -- duality ----------------------------------------------------------

    def is_self_orthogonal(self) -> bool:
        """C subseteq C-perp: the Gram matrix G G^T is zero."""
        return not ring_matmul(self.gen, self.gen.T, self.ring).any()

    def dual_blocks(self, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
        """The vectors orthogonal to every generator row (size^n sweep), as
        (B, n) uint8 blocks in odometer order, which is lexicographic.

        x is in the dual iff x G^T = 0: each block holds the x whose row of
        a `span_blocks` block of G^T is zero, so memory follows the block,
        not the dual.  Raises BudgetExceeded past the budget.
        """
        total = self.ring.size ** self.n
        if total > budget:
            raise BudgetExceeded(total, budget, "dual enumeration")
        return (_digits(start + np.flatnonzero(~blk.any(axis=1)), self.n, self.ring)
                for start, blk in span_blocks(self.gen.T, self.ring))

    def dual_bruteforce(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Every `dual_blocks` vector in one read-only, sorted (N, n) array."""
        vectors = np.concatenate(list(self.dual_blocks(budget)))
        vectors.flags.writeable = False
        return vectors

    def self_duality(self, budget: int = DEFAULT_BUDGET) -> SelfDuality:
        if not self.is_self_orthogonal():
            return SelfDuality.NEITHER
        size = self.cardinality(budget)
        return SelfDuality.SELF_DUAL if size * size == self.ring.size ** self.n \
            else SelfDuality.SELF_ORTHOGONAL_ONLY

    # -- minimum distance --------------------------------------------------

    def min_lee_distance(self, budget: int = DEFAULT_BUDGET,
                         sample_count: int = DEFAULT_SAMPLE_COUNT,
                         threads: int = 1) -> DistanceResult:
        """Minimum Lee weight of a nonzero codeword.

        Exact when size^k fits the budget, otherwise an upper bound from all
        Hamming-weight-<=2 messages plus `sample_count` seeded random
        messages.
        """
        if self.is_zero:
            raise ZeroCode("minimum distance of the zero code is undefined")
        best = best_in_block(self, low_weight_messages(self.k, ring=self.ring))
        if best is None:
            # every Hamming-weight-<=2 codeword is zero; fall back to max bound
            best = self.ring.max_lee * self.n + 1, ()
        if self.ring.size ** self.k <= budget:
            value, witness = _sweep(self, threads, best)
            return DistanceResult(value, True, witness)
        for blk in sampled_messages(self.k, sample_count, ring=self.ring):
            cand = best_in_block(self, blk)
            if cand is not None and cand[0] < best[0]:
                best = cand
        return DistanceResult(best[0], False, best[1])

    # -- weight census -------------------------------------------------------

    def lee_census(self, budget: int = DEFAULT_BUDGET, threads: int = 1) -> np.ndarray:
        """Counts of codewords per Lee weight 0..max_lee*n (each codeword once).

        The sweep counts messages; only the zero word has weight 0, so
        hist[0] = |K| divides every count exactly.  Records |C| as well.
        """
        total = self.ring.size ** self.k
        if total > budget:
            raise BudgetExceeded(total, budget, "weight census")
        hist = _sweep(self, threads)
        self._cardinality = total // int(hist[0])
        return hist // hist[0]

    def __repr__(self) -> str:
        return (f"LinearCode(k={self.k}, n={self.n}, ring={self.ring.name}, "
                f"standard_form={self.standard_form})")


def dual_of_standard_form(code: LinearCode) -> LinearCode:
    """For C = <[I_n | A]>, the dual is generated by [-A^T | I_n]."""
    k, n = code.k, code.n
    if not code.standard_form or n != 2 * k:
        raise ValueError("dual_of_standard_form needs a [I_k | A] generator with n = 2k")
    neg_at = code.ring.NEG[code.gen[:, k:].T]
    return LinearCode(np.hstack([neg_at, identity(k, code.ring)]), code.ring)


# ---------------------------------------------------------------------------
# Distance and census kernel
# ---------------------------------------------------------------------------

_Best = tuple[int, tuple[int, ...]]  # (weight, witness message)


def best_in_block(code: LinearCode, blk: np.ndarray) -> _Best | None:
    """Min (nonzero codeword weight, first witness message) over a uint8
    block of explicit messages; None when every codeword is zero."""
    if blk.shape[0] == 0:
        return None
    ring, k = code.ring, code.k
    if code.standard_form:
        w = ring.LEE[blk].sum(axis=1, dtype=np.int64) + \
            ring.LEE[ring_matmul(blk, code.gen[:, k:], ring)].sum(axis=1, dtype=np.int64)
    else:
        w = ring.LEE[ring_matmul(blk, code.gen, ring)].sum(axis=1, dtype=np.int64)
    w[w == 0] = _BIG
    i = int(w.argmin())
    if w[i] >= _BIG:
        return None
    return int(w[i]), tuple(int(v) for v in blk[i])


def _sweep(code: LinearCode, threads: int = 1, seed: _Best | None = None):
    """Full size^k sweep: the minimum reducer when seeded, else the census."""
    shard = _Shard(code.gen, code.ring, code.standard_form)
    shards = [(s, seed) for s in range(code.ring.size if shard.khi else 1)]
    if threads > 1 and len(shards) > 1:
        with multiprocessing.get_context("fork").Pool(min(threads, len(shards))) as pool:
            results = pool.starmap(shard, shards)
    else:
        results = [shard(s, b) for s, b in shards]
    return np.sum(results, axis=0) if seed is None else min(results)


class _Shard:
    """Picklable sweep worker: messages whose first coordinate is fixed.

    The last `klo` message digits form a low span table of products and
    information weights; the loop runs over this shard's high-digit
    prefixes, whose products and weights come from a small span table.
    With no high digits there is one shard and the low table is the whole
    message space.  The reducer is the Lee census when no seed is given,
    else the minimum nonzero weight, improving on the seed (weight,
    witness) and pruned by information weight in standard form.
    """

    def __init__(self, gen: np.ndarray, ring: RingTable, standard: bool):
        self.gen = gen
        self.ring = ring
        self.standard = standard
        self.khi = _high_digits(gen.shape[0], ring)

    def __call__(self, shard: int, seed: _Best | None):
        gen, ring, standard, khi = self.gen, self.ring, self.standard, self.khi
        k, n = gen.shape
        rows, m = (gen[:, k:], n - k) if standard else (gen, n)
        tl = span_table(rows[khi:], ring)
        wlo = _info_weights(k - khi, ring) if standard else 0
        if khi:
            idx = tl.astype(np.int32) * m + np.arange(m, dtype=np.int32)[None, :]
        per_shard = ring.size ** (khi - 1) if khi else 1
        first = shard * per_shard
        tails_hi = span_table(rows[:khi], ring)[first:first + per_shard]
        whis = _info_weights(khi, ring)[first:first + per_shard]
        order = np.argsort(whis, kind="stable") if standard else np.arange(len(whis))

        hist = np.zeros(ring.max_lee * n + 1, dtype=np.int64)
        census = seed is None
        best_w, best_msg = (_BIG, ()) if census else seed
        for hi_i in order:
            whi = int(whis[hi_i])
            if standard and not census and whi >= best_w:
                break
            if khi:
                lflat = ring.LEE[ring.ADD[:, tails_hi[hi_i]]].ravel()
                w = lflat[idx].sum(axis=1, dtype=np.int64)
            else:
                w = ring.LEE[tl].sum(axis=1, dtype=np.int64)
            if standard:
                w += wlo + whi
            if census:
                hist += np.bincount(w, minlength=hist.shape[0])
                continue
            if standard:
                if whi == 0:
                    w[0] = _BIG  # the all-zero message
            else:
                w[w == 0] = _BIG  # any message mapping to the zero word
            i = int(w.argmin())
            if w[i] < best_w:
                best_w = int(w[i])
                index = (first + int(hi_i)) * len(tl) + i
                best_msg = tuple(_digits(np.array([index]), k, ring)[0].tolist())
        return hist if census else (best_w, best_msg)
