"""Linear codes over a ring table: enumeration, duals, self-duality, distance.

A linear code is the row span of a generator matrix G (a k x n uint8 array
of element values) over one of the ring records of `ring`: R = Z4+uZ4 (the
default), or Z4 and F2+uF2, where the Gray images and projections live.
R is not a chain ring, so the rows need not be a free basis.  Each code
makes G systematic once, on the first of its information sets (below), P
of r columns: r free rows F, the identity on P, and k - r torsion rows,
zero on P, that span T.  The encoding map x -> xG is a module
homomorphism, so every codeword has exactly |K| preimages,
K = {x : xG = 0}: a count over all messages, divided by the number of
messages that give the zero word, is the count over C.  So no codeword
store exists: the Lee census comes from the census join (hist[0] = |K|)
and the complete enumerator from compositions counted over all messages.
A codeword's restriction to P is the free part of its message, so K lies
among the size^(k-r) torsion messages, and one sweep of them gives
|C| = size^k / |K|; w is a codeword iff w - w[P].F lies in T, one product
and the same sweep.  A free code (r = k) sweeps the zero word alone.

Enumeration kernels are table-driven numpy.  Messages x in ring^j run in
odometer order (last coordinate fastest), and a whole message space is
never written out as digits: `span_table` builds the products x.rows for
every x directly, as rows of packed Gray words (`pack_rows`: element c in
word c // per at bit bits*(c % per), per = 64 // bits, so 16 elements to a
word over R and 32 over Z4 and F2+uF2).  It adds one row at a time: the
table so far, as a column of prefixes, plus every multiple of the row, a
field-wise packed sum (`ring.packed_split`; the Gray packing is additive),
so the table for j digits costs about size/(size-1) passes of its own
size.  `span_blocks` splits a large space into blocks of the most rows, a
power of the ring size, that fit `SCRATCH_BYTES`: each high prefix comes
from a small span table, and a block is the low-digit span table grown
from that prefix.  Membership, the size count, the torsion sweep and the complete
enumerator read the words as they are; element values are unpacked
(`unpack_rows`) only where they are read one by one.  The dual, the x with
x G^T = 0, is a meet-in-the-middle join of two span tables of G^T, one per
half of x's coordinates, on their packed words (`_null_blocks`), which
hands each solution on as the odometer indices of its two halves.  Message
digits are decoded from those only where they are reported, the dual's
vectors; the dual's complete enumerator adds the halves' composition keys
instead (`wenum.dual_cwe`).  Explicit message lists (encoding,
membership's product, the Gram matrix) go through `ring_matmul`.

The minimum distance comes from the Lee-level kernel (Brouwer-Zimmermann)
alone.  `information_sets` finds one or two disjoint sets of r columns
whose unit patterns are independent over F2, r the F2 rank of G's unit
pattern (partial sets, after White and Grassl, when r < k).  On each set,
Gauss-Jordan with unit pivots gives r free rows, the identity there, and
k - r torsion rows, zero there: a codeword's restriction to the set is
the free part x of its message.  The messages are scanned by the Lee
weight t of x, C(4r, t) Gray bit patterns over R, each with every torsion
message; each is a high half's message of weight w joined with a low
half's of weight t - w, their parity products held as packed Gray words
(`ring.packed_split`, `ring.packed_weight`), in steps that fit `SCRATCH_BYTES`.  Once
level t_i is scanned on each set S_i, every codeword not yet seen weighs
at least the sum of the (t_i + 1), and the kernel stops when its best
word meets that bound.  The budget caps the messages scanned on each set;
one set's levels add up to size^k, so a code whose size^k fits the budget
is always exact.  The Lee census is the full join on the first set, every
level of one half against every level of the other: one chunked join
(`_InfoSet.join`), reduced by argmin for the scan and by bincount for the
census.

The kernel works on batches: `lee_levels` takes a stack of generators of
one ring, k and n that hold the same information sets, and every array of
the kernel has a leading batch axis (a level holds each code's packed
words in turn).  Gauss-Jordan runs on the stacked generators, each code
taking its own pivot rows; the half tables and the join blocks are
stacked, and each block is reduced by a per-code argmin.  A witness is
the codeword itself, its message times its own code's systematic rows,
so no layer tracks the row operations.  The level schedule and the cap
depend on the sets alone, so the whole batch scans the same levels, and
a code leaves it once its best word meets the bound.  `min_lee_distance`
is a batch of one; `construct.search` passes its orbit representatives
grouped by information sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ZeroCode
from .ring import R, RingTable, packed_split, packed_weight, parse_matrix_text

#: Default enumeration budget (message count).
DEFAULT_BUDGET = 16 ** 7

#: Scratch bound of a step of every streamed loop: `_per_step(bytes of an item)`
#: items, as many as fit, one at the least.
SCRATCH_BYTES = 1 << 20
_BIG = 1 << 30


def _per_step(item_bytes: int) -> int:
    return max(1, SCRATCH_BYTES // item_bytes)


def _elements(rows, ring: RingTable) -> np.ndarray:
    """`rows` as a new uint8 array; ValueError for an entry that is not one
    of the element values 0..size-1 (negative, fractional or too large)."""
    m = np.asarray(rows)
    out = m.astype(np.uint8)
    if (out != m).any() or out.max(initial=0) >= ring.size:
        raise ValueError(f"entries must be {ring.name} element values 0..{ring.size - 1}")
    return out


def as_matrix(rows: Sequence[Sequence[int]] | np.ndarray, ring: RingTable = R) -> np.ndarray:
    """Validate and return a k x n uint8 matrix of ring element values."""
    m = _elements(rows, ring)  # a copy: LinearCode freezes it
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"generator matrix must be 2-D and nonempty, got shape {m.shape}")
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

def pack_rows(v: np.ndarray, ring: RingTable = R) -> np.ndarray:
    """(..., N, m) element vectors -> (..., N, W) uint64 words of their Gray
    images (`ring.PACK`): element c in word c // per at bit bits*(c % per),
    per = 64 // bits, and zero past the last element."""
    per, each = 64 // ring.bits, 8 // ring.bits  # elements per word and per byte
    m = v.shape[-1]
    fields = np.zeros((*v.shape[:-1], per * -(-m // per)), np.uint8)
    fields[..., :m] = ring.PACK[v]
    fields = fields.reshape(-1, each)  # one long strided pass per place in a byte
    out = fields[:, 0].copy()
    for i in range(1, each):
        out |= fields[:, i] << (ring.bits * i)
    return out.reshape(*v.shape[:-1], 8 * -(-m // per)).view("<u8")


def unpack_rows(words: np.ndarray, m: int, ring: RingTable = R) -> np.ndarray:
    """(..., N, W) packed words -> (..., N, m) element values (uint8): the
    first m elements of each row, `pack_rows` inverted."""
    each = 8 // ring.bits
    b = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    out = np.empty((*b.shape[:-1], m), np.uint8)
    for i in range(each):
        out[..., i::each] = (b[..., :-(-(m - i) // each)] >> (ring.bits * i)) & (ring.size - 1)
    return ring.UNPACK[out]


def span_table(rows: np.ndarray, ring: RingTable = R, base: np.ndarray | None = None) -> np.ndarray:
    """(size^j, W) packed words (`pack_rows`) of base + x.rows for every x
    in ring^j, odometer order (base, a row of packed words, zero when None).

    Built one row at a time: the table for the first i rows, taken as a
    column of prefixes, plus every multiple of row i, field by field
    (`ring.packed_split`).
    """
    low = ring.low_mask
    t = np.zeros((1, -(-rows.shape[1] // (64 // ring.bits))), np.uint64) if base is None \
        else base[None]
    for mult in pack_rows(ring.MUL[:, rows].swapaxes(0, 1), ring):  # (size, W): e * row
        (tl, th), (ml, mh) = packed_split(t, low), packed_split(mult, low)
        s = tl[:, None] + ml
        s ^= th[:, None]
        s ^= mh
        t = s.reshape(len(t) * ring.size, t.shape[1])
    return t


def span_blocks(rows: np.ndarray, ring: RingTable = R) -> Iterator[tuple[int, np.ndarray]]:
    """The span table of `rows` in (first index, packed words) blocks of
    the most rows, a power of the ring size, that fit `SCRATCH_BYTES`: the
    codewords of every message, and the high half of the dual's join."""
    # a row: its packed words, and as many bytes again of keys or counts read off them
    fit = _per_step(16 * max(1, -(-rows.shape[1] // (64 // ring.bits))))
    khi = max(0, len(rows) - (fit.bit_length() - 1) // ring.bits)  # the digits past the block
    for h, prefix in enumerate(span_table(rows[:khi], ring)):
        yield h * ring.size ** (len(rows) - khi), span_table(rows[khi:], ring, prefix)


def _keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of the (N, W) packed `words`, equal iff
    the rows are: the word itself, or one void of all W."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1]))).ravel()


def dual_split(n: int) -> int:
    """Coordinates in the high half of the dual's join: ceil(n / 2)."""
    return (n + 1) // 2


def _null_blocks(cols: np.ndarray, ring: RingTable = R) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The x in ring^m with x.cols = 0, cols an (m, k) matrix, by meet in
    the middle, as blocks of (high, low) index pairs in odometer order: x
    is high index i of ring^h, h = `dual_split(m)`, followed by low index j
    of ring^(m - h).

    x.cols = 0 iff x_hi.cols_hi = -x_lo.cols_lo.  The keys (`_keys`) of the
    low span table of -cols_lo are sorted once, stably, and each
    `span_blocks` block of high products finds its partners by
    searchsorted: size^h products and one pair per solution, not a size^m
    sweep.  High keys run in odometer order and equal low keys keep theirs,
    so the solutions come out in odometer order.  A yielded block holds the
    solutions of a run of high keys whose first solution falls in one
    stretch of as many pairs as fit `SCRATCH_BYTES`, so it has fewer than
    that stretch plus size^(m - h) pairs.
    """
    h = dual_split(len(cols))
    low = _keys(span_table(ring.NEG[cols[h:]], ring))
    order = np.argsort(low, kind="stable")
    low = low[order]
    stretch = _per_step(16)  # a solution: its (high, low) int64 index pair
    for start, blk in span_blocks(cols[:h], ring):
        keys = _keys(blk)
        first = np.searchsorted(low, keys, "left")
        count = np.searchsorted(low, keys, "right") - first
        hit = np.flatnonzero(count)
        offset = np.cumsum(count[hit]) - count[hit]
        for part in np.split(hit, np.flatnonzero(np.diff(offset // stretch)) + 1):
            c = count[part]
            pos = np.repeat(first[part] - (np.cumsum(c) - c), c)
            pos += np.arange(len(pos))
            yield np.repeat(start + part, c), order[pos]


def _digits(index: np.ndarray, j: int, ring: RingTable = R) -> np.ndarray:
    """Odometer indices as (len, j) message digit rows."""
    out = np.empty((len(index), j), dtype=np.uint8)
    mask = ring.size - 1
    for d in range(j):
        out[:, j - 1 - d] = (index >> (ring.bits * d)) & mask
    return out


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class SelfDuality(Enum):
    SELF_DUAL = "self-dual"
    SELF_ORTHOGONAL_ONLY = "self-orthogonal"
    NEITHER = "neither"


@dataclass(frozen=True)
class DistanceResult:
    """Minimum Lee distance d, with lower_bound <= d <= value.

    `witness` is a codeword of Lee weight `value`.  The value is exact
    when the two bounds meet.  `certificate` names the Lee levels scanned:
    "levels t1/t2" on two information sets or "levels t1" on one, with
    lower bound the sum of the (t_i + 1), and at least 1.  A partial set
    (rows no free basis) starts at level -1, below its torsion code.
    """

    value: int
    lower_bound: int
    witness: tuple[int, ...]
    certificate: str

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.value

    def label(self) -> str:
        return "exact" if self.exact else "upper-bound"


# ---------------------------------------------------------------------------
# The code object
# ---------------------------------------------------------------------------

class LinearCode:
    """Row span of a generator matrix over a ring table (default R = Z4+uZ4)."""

    def __init__(self, gen: Sequence[Sequence[int]] | np.ndarray, ring: RingTable = R):
        self.ring = ring
        self.gen = as_matrix(gen, ring)
        self.gen.flags.writeable = False
        k, n = self.gen.shape
        self.standard_form = n >= k and bool(np.array_equal(self.gen[:, :k], identity(k, ring)))

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
        """`span_blocks` of G: the packed codeword of every message, so
        each codeword appears |K| times; raises BudgetExceeded past the
        budget."""
        total = self.ring.size ** self.k
        if total > budget:
            raise BudgetExceeded(total, budget, "codeword enumeration")
        return span_blocks(self.gen, self.ring)

    @cached_property
    def _reduced(self) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
        """`information_sets` of G, and G made systematic on the first, P:
        the free rows F, then the torsion rows (module docstring)."""
        sets = information_sets(self.gen, self.ring)
        return sets, systematic(self.gen[None], sets[0], self.ring)[0]

    def _torsion_blocks(self, budget: int, what: str) -> Iterator[np.ndarray]:
        """The packed words of all size^(k-r) torsion messages, as
        `span_blocks` blocks; raises BudgetExceeded past the budget."""
        (cols, *_), g = self._reduced
        total = self.ring.size ** (self.k - len(cols))
        if total > budget:
            raise BudgetExceeded(total, budget, what)
        return (blk for _, blk in span_blocks(g[len(cols):], self.ring))

    def contains(self, words, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """One bool per row of the (N, n) `words`: is it a codeword?

        w is a codeword iff w - w[P].F lies in T: one product, then one
        sweep of the torsion messages for all rows together (the zero word
        alone for a free code), rows compared by their packed words
        (`pack_rows`, `_keys`).  Raises ValueError for an entry that is no
        element value.
        """
        q = _elements(words, self.ring)
        if q.ndim != 2 or q.shape[1] != self.n:
            raise ValueError(f"expected an (N, {self.n}) array of words, got shape {q.shape}")
        (cols, *_), g = self._reduced
        rest = self.ring.ADD[q, self.ring.NEG[ring_matmul(q[:, cols], g[:len(cols)], self.ring)]]
        qv = _keys(pack_rows(rest, self.ring))
        found = np.zeros(len(qv), dtype=bool)
        for blk in self._torsion_blocks(budget, "torsion sweep"):
            bv = _keys(blk)
            found |= np.isin(qv, bv[np.isin(bv, qv)])
        return found

    def same_code(self, other: "LinearCode", budget: int = DEFAULT_BUDGET) -> bool:
        """Equal codeword sets: same ring and length, and each code holds
        every generator row of the other (`contains`: one product and one
        torsion sweep on each code)."""
        return (self.ring is other.ring and self.n == other.n
                and bool(other.contains(self.gen, budget).all())
                and bool(self.contains(other.gen, budget).all()))

    def cardinality(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact |C| = size^k / |K|, K the messages that give the zero word:
        on the systematic form (same code, same |K|) they are torsion
        messages, so one sweep of those counts them."""
        zero = sum(int(np.count_nonzero(~blk.any(axis=1)))
                   for blk in self._torsion_blocks(budget, "torsion census"))
        return self.ring.size ** self.k // zero

    # -- duality ----------------------------------------------------------

    def is_self_orthogonal(self) -> bool:
        """C subseteq C-perp: the Gram matrix G G^T is zero."""
        return not ring_matmul(self.gen, self.gen.T, self.ring).any()

    def dual_pairs(self, budget: int = DEFAULT_BUDGET) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The vectors orthogonal to every generator row, as blocks of
        (high, low) odometer index pairs of their first `dual_split(n)`
        coordinates and the rest, in odometer order (`_null_blocks`).
        Raises BudgetExceeded when size^n, the vectors of the space the
        dual lies in, passes the budget.
        """
        total = self.ring.size ** self.n
        if total > budget:
            raise BudgetExceeded(total, budget, "dual enumeration")
        return _null_blocks(self.gen.T, self.ring)

    def dual_blocks(self, budget: int = DEFAULT_BUDGET) -> Iterator[np.ndarray]:
        """`dual_pairs` decoded: (B, n) uint8 blocks of the dual's vectors
        in odometer order, which is lexicographic."""
        width = self.ring.size ** (self.n - dual_split(self.n))
        return (_digits(hi * width + lo, self.n, self.ring) for hi, lo in self.dual_pairs(budget))

    def self_duality(self, budget: int = DEFAULT_BUDGET) -> SelfDuality:
        if not self.is_self_orthogonal():
            return SelfDuality.NEITHER
        size = self.cardinality(budget)
        return SelfDuality.SELF_DUAL if size * size == self.ring.size ** self.n \
            else SelfDuality.SELF_ORTHOGONAL_ONLY

    # -- minimum distance --------------------------------------------------

    def min_lee_distance(self, budget: int = DEFAULT_BUDGET) -> DistanceResult:
        """Minimum Lee weight of a nonzero codeword, by the Lee-level kernel
        on the information sets of the generator (two or one), each set
        capped at `budget` messages.

        Each set's levels sum to size^k messages, so while size^k fits the
        budget one set is always scanned through and the value is exact.
        Past it the result is exact when the levels meet the best word,
        else an upper bound with the lower bound those levels prove.
        """
        if self.is_zero:
            raise ZeroCode("minimum distance of the zero code is undefined")
        return lee_levels(self.gen[None], self.ring, self._reduced[0], budget)[0]

    # -- weight census -------------------------------------------------------

    def lee_census(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Counts of codewords per Lee weight 0..max_lee*n (each codeword once).

        Row operations keep the code, so the count runs on the generator
        made systematic on its first information set: the full join of all
        size^k messages (`_InfoSet.census`).  The join counts messages; only
        the zero word has weight 0, so hist[0] = |K| divides every count
        exactly.
        """
        total = self.ring.size ** self.k
        if total > budget:
            raise BudgetExceeded(total, budget, "weight census")
        (cols, *_), g = self._reduced
        hist = _InfoSet(g[None], cols, self.ring).census()
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
# Lee-level kernel: Brouwer-Zimmermann over two information sets
# ---------------------------------------------------------------------------


def _rank(cols: Sequence[int]) -> int:
    """F2 rank of column vectors (ints, bit i = row i)."""
    basis: dict[int, int] = {}
    for c in cols:
        while c:
            top = c.bit_length() - 1
            if top not in basis:
                basis[top] = c
                break
            c ^= basis[top]
    return len(basis)


def _independent(cols: Sequence[int]) -> bool:
    """Are these F2 column vectors (ints, bit i = row i) independent?"""
    return _rank(cols) == len(cols)


def information_sets(gen: np.ndarray, ring: RingTable = R) -> tuple[tuple[int, ...], ...]:
    """Disjoint sets of r columns of `gen` with unit patterns independent
    over F2, r the rank of G's unit pattern (G modulo the maximal ideal):
    two when the columns hold such a pair, else one (greedy: the identity
    columns in standard form).  r = k proves the rows a free basis; below
    it `systematic` leaves k - r torsion rows in the maximal ideal.

    The sets depend only on that pattern, G modulo the maximal ideal (<2, u>
    over R): generators with the same pattern get the same sets, which lets
    `construct.search` find them once per pattern.
    """
    vec = _unit_columns(gen, ring)
    r = _rank(vec)
    pair = _partition(vec, r)
    if pair is not None:
        return pair
    one: list[int] = []
    for j in range(len(vec)):
        if len(one) < r and _independent([vec[z] for z in one] + [vec[j]]):
            one.append(j)
    return (tuple(one),)


def _unit_columns(gen: np.ndarray, ring: RingTable) -> list[int]:
    """Each column's unit pattern over F2 as an int, bit i = row i."""
    unit = ring.INV[gen] != 0
    return [sum(1 << i for i in range(gen.shape[0]) if unit[i, j]) for j in range(gen.shape[1])]


def _partition(vec: list[int], r: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two disjoint bases among the F2 columns `vec` of rank r, or None.

    Columns join the two sets in order, each through a shortest exchange
    path (Edmonds), so the two halves of [I | A] are taken whenever A is
    invertible, and a column that finds no path proves that n = 2r columns
    have no partition.
    """
    n = len(vec)
    if n < 2 * r:
        return None
    if n == 2 * r and (0 in vec or max(map(vec.count, vec)) > 2):
        # every column is needed, and a basis takes no zero column and at
        # most one of equal columns (so no all-unit circulant with k >= 3)
        return None
    sets: tuple[list[int], list[int]] = ([], [])
    owner: dict[int, int] = {}
    for s in range(n):
        parent: dict[int, tuple[int, int] | None] = {s: None}
        queue, sink = [s], None
        for y in queue:
            sides = [i for i in (0, 1) if owner.get(y) != i]
            sink = next(((y, i) for i in sides
                         if _independent([vec[z] for z in sets[i]] + [vec[y]])), None)
            if sink is not None:
                break
            for i in sides:
                for x in sets[i]:
                    if x not in parent and _independent(
                            [vec[z] for z in sets[i] if z != x] + [vec[y]]):
                        parent[x] = (y, i)
                        queue.append(x)
        if sink is None:
            if n == 2 * r:
                return None
            continue
        y, i = sink
        while True:  # y joins set i; the column it displaced moves on
            if y in owner:
                sets[owner[y]].remove(y)
            sets[i].append(y)
            owner[y] = i
            step = parent[y]
            if step is None:
                break
            y, i = step
        if len(sets[0]) == len(sets[1]) == r:
            return tuple(sorted(sets[0])), tuple(sorted(sets[1]))
    return None


def systematic(gen: np.ndarray, cols: Sequence[int], ring: RingTable = R) -> np.ndarray:
    """Gauss-Jordan with unit pivots on a stack (B, k, m) of generators:
    generators of the same codes whose `cols` block is the identity over
    zero rows (the columns' unit patterns must be independent over F2 in
    every code).  Each code takes its own pivot row, by index."""
    g = gen.copy()
    if (g[:, :, cols] == identity(g.shape[1], ring)[:, :len(cols)]).all():
        return g
    b = np.arange(len(g))
    for i, j in enumerate(cols):
        p = i + ring.INV[g[:, i:, j]].argmax(axis=1)  # each code's first unit row
        pivot = g[b, p]
        g[b, p] = g[:, i]
        g[:, i] = ring.MUL[ring.INV[pivot[:, j]][:, None], pivot]
        f = ring.NEG[g[:, :, j]]
        f[:, i] = 0
        g = ring.ADD[g, ring.MUL[f[:, :, None], g[:, i, None, :]]]
    return g


class _Half:
    """Messages on a run of rows of a stack of B systematic generators, by
    the weight of their restriction to the set (a torsion row's elements
    add 0), as the packed products with the parity blocks.  A level is one
    (B*W, N) array: code b's W packed words are rows b*W .. b*W + W - 1,
    so a stack of one has the layout of a single code.  The messages of a
    level, and their order, are the same in every code.  Built on demand,
    one row at a time: the messages of weight w from row j on are an
    element of weight l at row j followed by the messages of weight w - l
    from row j + 1 on, in that order, so an entry's digits are decoded from
    its index alone (`message`)."""

    def __init__(self, parity: np.ndarray, free: Sequence[bool], ring: RingTable):
        batch, self.h, m = parity.shape
        self.top = ring.max_lee * sum(free)  # the heaviest message's weight
        self.low = ring.low_mask
        self.words = -(-m // (64 // ring.bits))
        rows = batch * self.words
        self.empty = np.zeros((rows, 0), np.uint64)
        self.zero = np.zeros((rows, 1), np.uint64)  # the zero word
        # per row and weight l, its elements e of weight l and, (B*W, count, 1)
        # each, the split packed products e * row.  Free rows come first, and
        # their elements are put in the order of the weight classes, so each
        # class is a slice.
        self.classes = [ring.by_lee if f else (np.arange(ring.size, dtype=np.uint8),)
                        for f in free]
        words = pack_rows(ring.MUL[:, parity].transpose(2, 1, 0, 3), ring).swapaxes(
            -1, -2).reshape(self.h, rows, ring.size, 1)
        nfree = sum(free)
        words[:nfree] = words[:nfree, :, np.concatenate(ring.by_lee)]
        low, high = packed_split(words, self.low)
        self.mult = []
        for j, classes in enumerate(self.classes):
            ends = list(accumulate(len(els) for els in classes))
            self.mult.append([(low[j, :, e - len(els):e], high[j, :, e - len(els):e])
                              for els, e in zip(classes, ends)])
        self.memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def level(self, w: int, j: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Packed parities (B*W, N) of the messages of weight w from row j,
        split (`ring.packed_split`): a level joins many levels of the rows
        above it, or of the other half, so it is split once."""
        key = (j, w)
        if key not in self.memo:
            if j == self.h:
                out = (self.zero, self.zero) if w == 0 else (self.empty, self.empty)
            elif j == self.h - 1:  # the last row: its products alone
                ml, mh = self.mult[j][w] if w < len(self.mult[j]) else (self.empty[..., None],) * 2
                out = ml[:, :, 0], mh[:, :, 0]
            else:
                parts = []
                for lw, (ml, mh) in enumerate(self.mult[j][:w + 1]):
                    sl, sh = self.level(w - lw, j + 1)
                    if sl.shape[1]:
                        parts.append(((ml + sl[:, None]) ^ mh ^ sh[:, None])
                                     .reshape(len(sl), ml.shape[1] * sl.shape[1]))
                words = np.concatenate(parts, axis=1) if parts else self.empty
                out = packed_split(words, self.low)
            self.memo[key] = out
        return self.memo[key]

    def message(self, w: int, i: int, j: int = 0) -> list[int]:
        """Digits of entry i of level(w, j)."""
        if j == self.h:
            return []
        for lw, els in enumerate(self.classes[j][:w + 1]):
            count = self.level(w - lw, j + 1)[0].shape[1]
            if i < len(els) * count:
                e, rest = divmod(i, count)
                return [int(els[e])] + self.message(w - lw, rest, j + 1)
            i -= len(els) * count
        raise IndexError(i)


class _InfoSet:
    """A stack of B generators made systematic on one shared information
    set P of r columns: r free rows, the identity on P, and k - r torsion
    rows, zero on P.  A message (x, y) on them weighs x's weight plus its
    parity word's.  Its messages with x of weight t are a high half's of
    weight w joined with a low half's of weight t - w; each half takes half
    the free rows and half the torsion rows, so neither holds every torsion
    message.  `rows` holds the systematic generators, their rows in the
    halves' order, so a message's codeword is the message times them."""

    def __init__(self, gens: np.ndarray, cols: Sequence[int], ring: RingTable):
        (batch, k, n), r = gens.shape, len(cols)
        # the high half: free rows 0..hf-1 and torsion rows r..ht-1
        hf, ht = r // 2, r + (k - r) // 2
        order = [*range(hf), *range(r, ht), *range(hf, r), *range(ht, k)]
        self.rows = systematic(gens, cols, ring)[:, order]
        parity = self.rows[:, :, [j for j in range(n) if j not in cols]]
        free = [i < r for i in order]
        h = hf + ht - r
        self.halves = (_Half(parity[:, :h], free[:h], ring),
                       _Half(parity[:, h:], free[h:], ring))
        self.low = ring.low_mask
        self.bins = ring.max_lee * n + 1  # codeword Lee weights 0..max_lee*n
        self.every = np.arange(batch)  # each code's index
        # messages with x of weight t: t-subsets of x's Gray bits, any y
        self.counts = [comb(ring.bits * r, t) * ring.size ** (k - r)
                       for t in range(ring.bits * r + 1)]

    def join(self, wh: int, wl: int, act: np.ndarray | None = None
             ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Lee weights of the parity words of the high half's messages of
        weight wh joined with the low half's of weight wl, for the codes
        `act` (default: all), in blocks of the pairs that fit SCRATCH_BYTES
        (one high message of one code when its row alone is more).  Yields
        (c, a, weights): weights[z, r, q] is the pair (a + r, q) of code
        act[c + z]."""
        (ph_low, ph_high), (pl_low, pl_high) = self.halves[0].level(wh), self.halves[1].level(wl)
        nh, nl = ph_low.shape[1], pl_low.shape[1]
        if not nh or not nl:
            return
        words = self.halves[0].words
        if act is not None and len(act) < len(self.every):
            pick = (act[:, None] * words + np.arange(words)).ravel()
            ph_low, ph_high, pl_low, pl_high = (
                p[pick] for p in (ph_low, ph_high, pl_low, pl_high))
        batch, low = len(self.every if act is None else act), self.low
        pair = 16 * max(1, words)  # a pair: its packed sum and the weights read off it, per word
        codes = _per_step(pair * nl)
        rows = _per_step(pair * min(codes, batch) * nl)
        for c in range(0, batch, codes):
            span = slice(c * words, (c + codes) * words)  # the rows of codes c, c + 1, ..
            ll, lh = pl_low[span, None], pl_high[span, None]
            for a in range(0, nh, rows):
                x = ph_low[span, a:a + rows, None] + ll
                x ^= ph_high[span, a:a + rows, None]
                x ^= lh
                cnt = packed_weight(x, low)
                # summed over each code's words; none without parity columns
                wt = cnt if words == 1 else cnt.reshape(
                    min(codes, batch - c), words, *cnt.shape[1:]).sum(axis=1, dtype=np.uint16)
                yield c, a, wt

    def scan(self, t: int, best: np.ndarray, stop: int, act: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each code act[c], the lightest nonzero codeword below best[c]
        among its messages with x of Lee weight t.  Returns the new bests,
        and the positions c that improved with their messages on the set.
        Stops early once every best is <= `stop`.

        A block no code improves on is passed over by its minimum alone.  In
        the others, a code's witness is recorded where its best strictly
        drops: the last drop is its first entry at the final best.
        """
        hi, lo = self.halves
        best = best.copy()
        beat = int(best[best.argmax()]) - t  # no parity weight from it on improves a code
        found = np.full((2, len(act)), -1, np.intp)  # per code: wh and entry of its witness
        for wh in range(max(0, t - lo.top), min(t, hi.top) + 1):
            for c, a, wt in self.join(wh, t - wh, act):
                if not t:  # the torsion code: a message may encode to the zero word
                    wt = np.where(wt == 0, np.int64(_BIG), wt)
                if int(wt.flat[wt.argmin()]) >= beat:  # argmin: on small blocks min costs more
                    continue
                flat = wt.reshape(len(wt), -1)
                i = flat.argmin(axis=1)
                w = flat[self.every[:len(i)], i] + t
                seg = best[c:c + len(w)]
                drop = w < seg
                np.copyto(found[0, c:c + len(w)], wh, where=drop)
                np.copyto(found[1, c:c + len(w)], i + a * wt.shape[2], where=drop)
                np.minimum(seg, w, out=seg)
                beat = int(best[best.argmax()]) - t
                if beat <= stop - t:
                    break
            else:
                continue
            break
        up = (found[0] >= 0).nonzero()[0]
        msgs = []
        for wh, e in found[:, up].T.tolist():
            r, q = divmod(e, lo.level(t - wh)[0].shape[1])
            msgs.append(hi.message(wh, r) + lo.message(t - wh, q))
        return best, up, np.array(msgs, np.uint8)

    def census(self) -> np.ndarray:
        """Messages per codeword Lee weight, over all size^k messages of a
        stack of one code: every level of one half joined with every level
        of the other.  A codeword weighs its parity word plus its
        restriction to the set, wh + wl."""
        hist = np.zeros(self.bins, dtype=np.int64)
        hi, lo = self.halves
        for wh in range(hi.top + 1):
            for wl in range(lo.top + 1):
                for _, _, wt in self.join(wh, wl):
                    hist[wh + wl:] += np.bincount(wt.ravel(), minlength=self.bins - wh - wl)
        return hist


def lee_levels(gens: np.ndarray, ring: RingTable, sets: Sequence[Sequence[int]],
               cap: int) -> list[DistanceResult]:
    """Minimum distances of the codes of a (B, k, n) stack of generators
    over `ring`, by Lee levels on disjoint information sets S_i that every
    generator holds (Brouwer-Zimmermann, on partial sets after White and
    Grassl when the rows are no free basis).

    A codeword's restriction to S_i is the free part x of its message, so
    once level t_i is scanned on every S_i, every codeword not yet seen has
    Lee weight at least the sum of the (t_i + 1), and at least 1.  Level 0,
    the torsion code, is the zero word alone on a set of k columns, so such
    a set starts at level 0 and a partial one at -1.  The lowest level rises
    next, first set first on a tie, until a code's best word found (at
    first its lightest nonzero generator row) meets the bound; then the
    code leaves the batch.  The schedule and the cap depend on the sets
    alone, so every code in the batch scans the same levels, each level in
    one pass of stacked joins.  A level runs only if the messages scanned
    on its set, itself included, still fit in `cap`; otherwise the results
    left are upper bounds.  Scanning every message on a set makes a result
    exact, so a cap of size^k always does.  A batch runs in parts of as
    many codes as their half tables fit `SCRATCH_BYTES`.
    """
    k, words = gens.shape[1], -(-gens.shape[2] // (64 // ring.bits))
    # a code: the entries of one set's two half tables, split in two uint64 per word
    step = _per_step(16 * words * (ring.size ** (k // 2) + ring.size ** -(-k // 2)))
    if len(gens) > step:
        return [d for i in range(0, len(gens), step)
                for d in lee_levels(gens[i:i + step], ring, sets, cap)]
    sides = [_InfoSet(gens, s, ring) for s in sets]
    row_weights = ring.LEE[gens].sum(axis=2, dtype=np.int64)
    row_weights[row_weights == 0] = _BIG
    first = row_weights.argmin(axis=1)
    best = row_weights[np.arange(len(gens)), first]
    where = gens[np.arange(len(gens)), first]  # each code's best word
    levels, spent = [-int(len(s) < k) for s in sets], [0] * len(sides)
    lower = max(1, sum(levels) + len(sets))
    out: list[DistanceResult] = [None] * len(gens)  # type: ignore[list-item]
    act = np.arange(len(gens))  # the codes in the batch, and their best weights

    def leave(upto: int, bound: int) -> None:
        """Record the results of the codes whose best weight is <= upto;
        they leave the batch."""
        nonlocal act, best
        if not best.size or best[best.argmin()] > upto:
            return
        gone = best <= upto
        cert = "levels " + "/".join(map(str, levels))
        for b, w in zip(act[gone].tolist(), best[gone].tolist()):
            out[b] = DistanceResult(w, min(bound, w), tuple(where[b].tolist()), cert)
        act, best = act[~gone], best[~gone]

    leave(lower, lower)
    while act.size:
        s = levels.index(min(levels))
        t = levels[s] + 1
        if t == len(sides[s].counts):  # every message on S_s scanned: all seen
            leave(_BIG, _BIG)
        elif spent[s] + sides[s].counts[t] > cap:
            leave(_BIG, lower)
        else:
            spent[s] += sides[s].counts[t]
            best, up, msgs = sides[s].scan(t, best, lower, act)
            if up.size:  # each message times its own code's systematic rows
                rows, words = sides[s].rows[act[up]], 0
                for i in range(k):
                    words = ring.ADD[words, ring.MUL[msgs[:, i, None], rows[:, i]]]
                where[act[up]] = words
                leave(lower, lower)
            levels[s] = t
            lower = max(1, sum(levels) + len(sets))
            leave(lower, lower)
    return out
