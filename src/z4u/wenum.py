"""Complete, symmetrized, and Lee weight enumerators and their transforms.

For a code C of length n:

  * the complete enumerator (CWE) counts, per codeword, how often each of
    the 16 ring elements appears: a sparse homogeneous degree-n polynomial
    in 16 variables indexed by the canonical element order, held as arrays
    of exponent rows and counts.  It is counted on composition keys: the
    16 counts as fields of uint64 words, element 0's the most significant,
    so a key is the sum of its coordinates' keys, read four coordinates at
    a time from the packed span words (`code.span_table`) with one lookup
    per 16-bit chunk;
  * the symmetrized enumerator (SWE) merges variables by Lee weight class
    into (X, Y, Z, W, S) = weights (0, 4, 3, 1, 2);
  * the Lee enumerator collects codewords by total Lee weight w into
    W^(D-w) X^w, a dense length-(D+1) coefficient vector, where D is the
    ring's maximum Lee weight times n (4n over R, 2n over Z4 and F2+uF2).

Each enumerator has an exact dual transform scaled by 1/|C|:

  * CWE: substitute T.(X_1..X_16), T the 16x16 character table.  Kept
    evaluation-only (16-variable symbolic expansion is combinatorial);
    equality of the two sides is certified at random Gaussian points.  A
    batch of points is evaluated at once, exactly: residues modulo 2^64
    (wrapping uint64 arithmetic) and, for values too large for that, odd
    primes below 2^31, each term a chain of Gaussian products over its
    elements in ascending order, combined by the Chinese remainder theorem.
    A pass covers as many points as keep all its temporaries together
    within `code.SCRATCH_BYTES`; past one point's worth of terms, a pass is
    one point of a range of terms.  A rational point is scaled to a
    Gaussian-integer one, the CWE being homogeneous.
  * SWE: substitute five linear forms, obtained here by summing the
    columns of T over weight classes (the row sums are constant on each
    class, which is what makes the symmetrization well defined).  No
    product of forms is expanded: the form matrix factors into four
    Hadamard pairs (v_i, v_j) -> (v_i+v_j, v_i-v_j), a shear-and-scale
    step and an exponent swap, each one pass over the sparse exponent dict.
  * Lee: substitute (W+X, W-X), a binomial convolution, over any of the
    three rings.

All division by |C| is exact integer division; a remainder raises
NonExactDivision, which almost always means the supplied cardinality was
not the true |C|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import ring
from .code import DEFAULT_BUDGET, LinearCode, _per_step, dual_split, pack_rows
from .errors import ExpansionTooLarge, NonExactDivision
from .ring import R, RingTable
from .scalars import GaussianInt, GaussianRational

#: Lee weight of the element class behind each SWE variable.
SWE_CLASS_WEIGHT = (0, 4, 3, 1, 2)

#: SWE class of each ring element (index into (X, Y, Z, W, S)), by Lee weight.
ELEMENT_CLASS = tuple({0: 0, 4: 1, 3: 2, 1: 3, 2: 4}[ring.lee_weight(x)]
                      for x in ring.ELEMENTS)

_EXPANSION_GUARD = 24
#: terms x points arrays that such a pass holds at once: real and imaginary
#: parts, two gathered coordinates, a product, and the gathers' index casts
_EVAL_ARRAYS = 6


@dataclass(frozen=True, eq=False)
class CWE:
    """Sparse 16-variable composition census: the distinct compositions
    (16 element counts per word) as the rows of `comps`, in the order
    `_compositions` gives them, and how many codewords have each."""

    length: int
    comps: np.ndarray   # (N, 16) unsigned counts, distinct rows
    counts: np.ndarray  # (N,) int64

    @classmethod
    def of_words(cls, words, length: int) -> "CWE":
        """Composition census of the rows of an (N, length) array of R
        words (element values 0..15), each row counted once."""
        packed = pack_rows(np.asarray(words, dtype=np.uint8))
        return cls(length, *_compositions([_composition_keys(packed, length, length)], length))

    @functools.cached_property
    def terms(self) -> dict[tuple[int, ...], int]:
        """Exponent vector -> count, as a dict of Python ints."""
        return dict(zip(map(tuple, self.comps.tolist()), self.counts.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CWE) and self.length == other.length \
            and self.terms == other.terms

    @functools.cached_property
    def _chain(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each term's monomial as its n elements in ascending order, with
        shared prefixes: level j has one node per run of consecutive terms
        whose first j + 1 elements agree, as (element, parent node on level
        j - 1).  The last level's nodes are the terms, in order.

        A term's element j is the number of elements whose running count
        (the cumulative sum of its row of `comps`) is at most j, so each
        level is one uint8 column, read off the running sums.
        """
        ends = np.cumsum(self.comps, axis=1, dtype=self.comps.dtype)
        new = np.zeros(len(ends), dtype=bool)
        new[:1] = True
        node = np.zeros(len(ends), dtype=np.intp)
        levels = []
        for j in range(self.length):
            col = (ends <= j).sum(axis=1, dtype=np.uint8)
            new[1:] |= col[1:] != col[:-1]
            first = np.flatnonzero(new)
            levels.append((col[first], node[first]))
            np.cumsum(new, out=node)
            node -= 1
        return levels

    def _ranges(self, width: int) -> list[list[slice]]:
        """The terms in ranges of `width`, each as its nodes on every level
        of `_chain`, one slice per level: parent indices never decrease
        along a level, so a range's ancestors are contiguous."""
        out = []
        for lo in range(0, len(self.counts), width):
            levels = [slice(lo, min(lo + width, len(self.counts)))]
            for _, parent in self._chain[:0:-1]:
                at = levels[-1]
                levels.append(slice(int(parent[at.start]), int(parent[at.stop - 1]) + 1))
            out.append(levels[::-1])
        return out

    def evaluate(self, points: Sequence):
        """Values at a batch of points of 16 Gaussian integers or
        rationals, exact: a GaussianInt at a point of GaussianInts, else a
        GaussianRational.  A single point gives a single value.

        The CWE is homogeneous of degree n, so at a point p with common
        denominator D it is CWE(D p) / D^n, and D p is a Gaussian-integer
        point (`_values`).
        """
        batch, single = _as_batch(points)
        dens, ints = _integral(batch)
        out = []
        for p, d, a, b in zip(batch, dens, *self._values(ints)):
            if all(isinstance(x, GaussianInt) for x in p):
                out.append(GaussianInt(a, b))
            else:
                out.append(GaussianRational(Fraction(a, d ** self.length),
                                            Fraction(b, d ** self.length)))
        return out[0] if single else out

    def _values(self, point: np.ndarray) -> tuple[list[int], list[int]]:
        """Real and imaginary parts at P Gaussian-integer points, a
        (2, 16, P) object array of Python ints: exact, by residues.

        A term's value has absolute value at most L^n, L the largest
        |re| + |im| of any coordinate, so both parts of the sum lie in
        [-B, B], B = L^n times the sum of |count|.  They are computed
        modulo 2^64 first, in wrapping uint64 arithmetic (an unsigned
        overflow is the reduction), then modulo odd primes below 2^31 only
        while the product M of the moduli is at most 2B; the residues are
        combined by the Chinese remainder theorem and read in (-M/2, M/2].
        Modulo a prime p every value is below 2^31, so a product of two and
        the sum ac - bd or ad + bc fit int64 before reduction.  A term costs
        at most n - 1 Gaussian products along `_chain`, fewer where it
        shares a prefix with the term before it.  The products run in
        place, so a pass holds `_EVAL_ARRAYS` arrays of terms x points, of the
        points that fit `code.SCRATCH_BYTES`, or of one point and a range of
        terms (`_ranges`) past one point's worth.
        """
        count, terms = point.shape[2], len(self.counts)
        span = int(np.abs(point).sum(axis=0).max(initial=0))
        bound = int(np.abs(self.counts).sum()) * span ** self.length
        # a term at one point: its _EVAL_ARRAYS cells, the coordinates gathered before
        # the last ones, its parent index and its count
        width = min(terms, _per_step(8 * (_EVAL_ARRAYS + 4)))
        step = _per_step(8 * _EVAL_ARRAYS * max(width, 1))  # points per pass
        (first, _), *chain = self._chain
        moduli = [1 << 64]
        for p in _residue_primes(-(-((2 * bound) >> 64).bit_length() // 30)):
            if math.prod(moduli) <= 2 * bound:
                moduli.append(p)
        modulus, total = 1, np.zeros((2, count), dtype=object)
        for p in moduli:
            dtype, red = ((np.uint64, lambda v: v) if p == 1 << 64 else
                          (np.int64, lambda v: np.remainder(v, p, out=v)))
            acc = np.zeros((2, count), dtype=dtype)
            for levels in self._ranges(width):
                c = red(self.counts[levels[-1]].astype(dtype))[:, None]
                for s in range(0, count, step):
                    a, b = (point[:, :, s:s + step] % p).astype(dtype)
                    re, im = a[first[levels[0]]], b[first[levels[0]]]
                    for (elem, parent), up, at in zip(chain, levels, levels[1:]):
                        index = parent[at] - up.start if up.start else parent[at]
                        re = re[index]
                        im = im[index]
                        x, y = a[elem[at]], b[elem[at]]
                        t = re * y
                        re *= x
                        y *= im
                        re -= y  # re x - im y
                        im *= x
                        im += t  # im x + re y
                        red(re)
                        red(im)
                    re *= c
                    im *= c
                    part = acc[:, s:s + step]
                    part += [red(red(re).sum(axis=0)), red(red(im).sum(axis=0))]
                    red(part)
            # CRT: the residue modulo modulus * p that agrees with both
            total = total + modulus * ((acc.astype(object) - total) * pow(modulus, -1, p) % p)
            modulus *= p
        total = np.where(total > modulus // 2, total - modulus, total)
        return total[0].tolist(), total[1].tolist()

    def format_lines(self) -> list[str]:
        return [f"{','.join(map(str, exps))} : {self.terms[exps]}"
                for exps in sorted(self.terms)]


def _as_batch(points: Sequence) -> tuple[list, bool]:
    """(list of points, whether `points` was one point): a point is a
    sequence of 16 scalars, a batch a sequence of points."""
    single = len(points) > 0 and not isinstance(points[0], Sequence)
    return ([points] if single else list(points)), single


def _integral(batch: list) -> tuple[list[int], np.ndarray]:
    """Each point's least common denominator D (1 on GaussianInts), and
    the points times their D as a (2, 16, P) object array of real and
    imaginary parts (Python ints)."""
    dens, rows = [], []
    for point in batch:
        vals = [p if isinstance(p, GaussianInt) else GaussianRational.of(p) for p in point]
        d = math.lcm(*(x.denominator for v in vals for x in (v.re, v.im)))
        dens.append(d)
        rows.append([(int(v.re * d), int(v.im * d)) for v in vals])
    return dens, np.array(rows, dtype=object).reshape(len(batch), 16, 2).transpose(2, 1, 0)


@functools.lru_cache(maxsize=None)
def _residue_primes(count: int) -> tuple[int, ...]:
    """The `count` largest odd primes below 2^31, descending, each above 2^30:
    trial division by every prime up to 46341 > sqrt(2^31)."""
    sieve = np.ones(46342, dtype=bool)
    sieve[:2] = False
    for i in range(2, 216):
        if sieve[i]:
            sieve[i * i::i] = False
    small = np.flatnonzero(sieve)
    out, p = [], (1 << 31) - 1
    while len(out) < count:
        if (p % small).all():
            out.append(p)
        p -= 2
    return tuple(out)


@dataclass(frozen=True)
class SWE:
    """Sparse 5-variable enumerator in (X, Y, Z, W, S)."""

    length: int
    terms: dict[tuple[int, int, int, int, int], int]

    def format_lines(self) -> list[str]:
        return [f"{','.join(map(str, exps))} : {self.terms[exps]}"
                for exps in sorted(self.terms)]


@dataclass(frozen=True)
class LeePoly:
    """Dense Lee enumerator: coeffs[w] counts codewords of Lee weight w."""

    length: int
    coeffs: tuple[int, ...]  # index 0..degree
    ring: RingTable = R

    def __post_init__(self):
        assert len(self.coeffs) == self.degree + 1

    @property
    def degree(self) -> int:
        """Maximum Lee weight of a length-n word: max_lee * n."""
        return self.ring.max_lee * self.length

    def total(self) -> int:
        return sum(self.coeffs)

    def format_lines(self) -> list[str]:
        n4 = self.degree
        return [f"{n4 - w},{w} : {c}" for w, c in enumerate(self.coeffs) if c]


# ---------------------------------------------------------------------------
# Building enumerators from codes
# ---------------------------------------------------------------------------

def _field_bits(n: int) -> int:
    """Bits per count in the composition key of a length-n word: 4 while
    n <= 15, else the width of np.min_scalar_type(n)."""
    return 4 if n <= 15 else 8 * np.min_scalar_type(n).itemsize


@functools.cache
def _count_units(bits: int) -> np.ndarray:
    """(16, bits // 4) uint64: the key of element v alone, a one in field v
    of `bits` bits, fields from the most significant bits of word 0 on, so
    keys sort as their 16 counts do."""
    per = 64 // bits  # fields per word
    units = np.zeros((16, bits // 4), np.uint64)
    for v in range(16):
        units[v, v // per] = 1 << bits * (per - 1 - v % per)
    return units


def _word_keys(units: np.ndarray, width: int) -> np.ndarray:
    """(16^width, K) uint64: the composition key of every word of `width`
    digits in odometer order (the first digit the most significant), digit
    v keyed by row v of the (16, K) `units`.  A composition adds over the
    digits, so this is the outer sum of `units` over the digits, added in
    place by broadcasting: no temporary past the result."""
    keys = np.zeros((16,) * width + units.shape[1:], np.uint64)
    for j in range(width):
        keys += units.reshape((16,) + (1,) * (width - 1 - j) + units.shape[1:])
    return keys.reshape(-1, units.shape[1])


@functools.cache
def _chunk_keys(bits: int) -> np.ndarray:
    """(2^16, bits // 4) uint64: the key of each 16-bit chunk of a packed R
    word, the four elements whose Gray images it holds, each 4-bit field
    a digit keyed by its element's unit.  Built on first use (512 KB while
    n <= 15), never at import."""
    return _word_keys(_count_units(bits)[R.UNPACK], 4)


def _composition_keys(words: np.ndarray, length: int, n: int) -> np.ndarray:
    """(N, K) composition keys of the first `length` coordinates of (N, W)
    packed R words, with fields for words of length n: one lookup per
    16-bit chunk, four coordinates.

    The zero fields of a last chunk past `length` read as element 0, and
    one unit of element 0 per such field comes off at the end.  Element 0's
    field is the most significant of its word, so a count that overflows
    it on the way wraps modulo 2^64 and comes back exact.
    """
    table = _chunk_keys(_field_bits(n))
    chunks = np.ascontiguousarray(words, dtype="<u8").view("<u2")  # chunk j: coordinates 4j..
    keys = np.zeros((len(words), table.shape[1]), np.uint64)
    for j in range(-(-length // 4)):
        keys += table[chunks[:, j]]
    keys -= np.uint64(-length % 4) * _count_units(_field_bits(n))[0]
    return keys


def _compositions(key_blocks: Iterable[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct compositions (16 element counts per word, of dtype
    np.min_scalar_type(n)) among a stream of (B, K) composition key blocks
    of length-n words (`_composition_keys`), with how many words have each,
    in the byte order of the 16 counts.

    Keys sort as their counts do, so while a count fits one byte the key
    order is the byte order; wider counts are put in the order of their
    bytes at the end.  Each sort pass covers the keys that fit
    `code.SCRATCH_BYTES`; the distinct keys of each pass wait until they
    outnumber both the running totals and a pass, then all merge in one sort: memory
    follows the distinct compositions, a stream of many small blocks does
    not re-sort the totals per block, and a stream of one pass needs no
    merge.
    """
    bits, dtype = _field_bits(n), np.min_scalar_type(n)
    step = _per_step(16 * (bits // 4))  # a key: its uint64 words, then their sorted copy
    found, total = np.zeros((0, bits // 4), np.uint64), np.zeros(0, np.int64)
    keys, counts, pending = [], [], 0
    for blk in key_blocks:
        for s in range(0, len(blk), step):
            u, c = _merge_counts(blk[s:s + step])
            keys.append(u)
            counts.append(c)
            pending += len(u)
            if pending >= max(len(found), step):
                found, total = _merge_counts(np.concatenate([found, *keys]),
                                             np.concatenate([total, *counts]))
                keys, counts, pending = [], [], 0
    if len(found) or len(keys) > 1:
        found, total = _merge_counts(np.concatenate([found, *keys]), np.concatenate([total, *counts]))
    elif keys:
        (found,), (total,) = keys, counts
    shifts = (bits * np.arange(64 // bits - 1, -1, -1)).astype(np.uint64)
    comps = ((found[:, :, None] >> shifts) & np.uint64((1 << bits) - 1)).reshape(-1, 16)
    comps = comps.astype(dtype)
    if dtype.itemsize > 1:
        order = np.lexsort(comps.view(np.uint8).T[::-1])
        comps, total = comps[order], total[order]
    return comps, total


def _merge_counts(keys: np.ndarray, counts: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (N, K) integer `keys` in lexicographic order,
    each with the sum of its `counts` (one per row when None): one sort,
    then np.add.reduceat.  One-column keys without counts go to np.unique,
    which sorts the values themselves, not an index."""
    if keys.shape[1] == 1 and counts is None:
        found, total = np.unique(keys[:, 0], return_counts=True)
        return found[:, None], total
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    return keys[first], np.add.reduceat(
        np.ones(len(keys), np.int64) if counts is None else counts[order], first)


def _check_r(code: LinearCode) -> None:
    """The 16 CWE variables are R's elements: ValueError for another ring."""
    if code.ring is not R:
        raise ValueError(f"complete enumerators count the 16 elements of R, not {code.ring.name}")


def cwe(code: LinearCode, budget: int = DEFAULT_BUDGET) -> CWE:
    """Exact composition census over every codeword (each counted once).

    Counted over all messages, then divided by the count of the zero word's
    composition (n, 0, ..., 0): every codeword has that many messages.
    """
    _check_r(code)
    n = code.n
    comps, counts = _compositions((_composition_keys(blk, n, n)
                                   for _, blk in code.codeword_blocks(budget)), n)
    zero = int(counts[comps[:, 0] == n][0])
    return CWE(n, comps, counts // zero)


def dual_cwe(code: LinearCode, budget: int = DEFAULT_BUDGET) -> CWE:
    """Exact composition census of the dual code (each word once), from the
    dual join's index pairs (`LinearCode.dual_pairs`), no word decoded.

    A composition adds over disjoint coordinates, so a dual word's key is
    its high half's plus its low half's, and a half's key is the sum of its
    digits' units (`_count_units`): each half's keys, in odometer order as
    the pairs index them, are `_word_keys` of the units.
    """
    _check_r(code)
    n = code.n
    h = dual_split(n)
    pairs = code.dual_pairs(budget)  # the budget check, before the tables
    units = _count_units(_field_bits(n))
    high, low = _word_keys(units, h), _word_keys(units, n - h)
    return CWE(n, *_compositions((high[a] + low[b] for a, b in pairs), n))


def cwe_to_swe(e: CWE) -> SWE:
    """Merge the CWE's variables by weight class: each composition's class
    key, the counts of Y, Z, W and S in base n + 1 (X's is n minus them), is
    accumulated in one int64 column, one column of `comps` at a time."""
    base = e.length + 1
    if base ** 4 > np.iinfo(np.int64).max:
        raise ValueError(f"length {e.length} overflows the 64-bit symmetrized key")
    key = np.zeros(len(e.comps), np.int64)
    for c in range(1, 5):
        key *= base
        for v in range(16):
            if ELEMENT_CLASS[v] == c:
                key += e.comps[:, v]
    keys, total = _merge_counts(key[:, None], e.counts)
    rest = (keys // base ** np.arange(3, -1, -1, dtype=np.int64) % base).tolist()
    return SWE(e.length, {(e.length - sum(r), *r): c for r, c in zip(rest, total.tolist())})


def swe(code: LinearCode, budget: int = DEFAULT_BUDGET) -> SWE:
    return cwe_to_swe(cwe(code, budget))


def swe_to_lee(e: SWE) -> LeePoly:
    coeffs = [0] * (4 * e.length + 1)
    for exps, coeff in e.terms.items():
        w = sum(cw * ex for cw, ex in zip(SWE_CLASS_WEIGHT, exps))
        coeffs[w] += coeff
    return LeePoly(e.length, tuple(coeffs))


def lee(code: LinearCode, budget: int = DEFAULT_BUDGET) -> LeePoly:
    """Lee enumerator straight from the weight census kernel."""
    hist = code.lee_census(budget)
    return LeePoly(code.n, tuple(int(c) for c in hist), code.ring)


# ---------------------------------------------------------------------------
# MacWilliams transforms
# ---------------------------------------------------------------------------

def macwilliams_cwe_eval(e: CWE, size: int, points: Sequence):
    """Dual CWE at a batch of points: (1/size) * cwe(T . point), exact, one
    GaussianRational per point (a single point gives a single value).

    T . (D point) is a Gaussian-integer point for the point's common
    denominator D (T's entries are powers of i), so the value is
    CWE(T . D point) / (size D^n).  At a point of GaussianInts the dual
    enumerator's value is a Gaussian integer, so the 1/size scaling must
    divide exactly; a remainder raises NonExactDivision (the supplied size
    was not |C|).
    """
    batch, single = _as_batch(points)
    dens, (re, im) = _integral(batch)
    tr, ti = np.array([[(t.re, t.im) for t in row] for row in ring.character_table()],
                      dtype=object).transpose(2, 0, 1)
    out = []
    for p, d, a, b in zip(batch, dens, *e._values(np.stack([tr @ re - ti @ im,
                                                             tr @ im + ti @ re]))):
        if all(isinstance(x, GaussianInt) for x in p):
            (qr, rr), (qi, ri) = divmod(a, size), divmod(b, size)
            if rr or ri:
                raise NonExactDivision(f"CWE transform value {GaussianInt(a, b)} "
                                       f"not divisible by {size}")
            out.append(GaussianRational.of(GaussianInt(qr, qi)))
        else:
            den = size * d ** e.length
            out.append(GaussianRational(Fraction(a, den), Fraction(b, den)))
    return out[0] if single else out


def swe_transform_forms() -> tuple[tuple[int, ...], ...]:
    """5x5 integer matrix F with row c giving the linear form that replaces
    SWE variable c in the dual transform: F[c][c'] = sum of T(i_c, j) over
    j in class c', for any representative i_c of class c.

    Derived from the character table; constancy across representatives and
    vanishing imaginary parts are asserted, not assumed.
    """
    table = ring.character_table()
    forms: list[tuple[int, ...] | None] = [None] * 5
    for i in range(16):
        sums = [GaussianInt(0, 0)] * 5
        for j in range(16):
            sums[ELEMENT_CLASS[j]] = sums[ELEMENT_CLASS[j]] + table[i][j]
        if any(s.im != 0 for s in sums):
            raise AssertionError("class sums of the character table must be real")
        row = tuple(s.re for s in sums)
        c = ELEMENT_CLASS[i]
        if forms[c] is None:
            forms[c] = row
        elif forms[c] != row:
            raise AssertionError("character class sums differ within a weight class")
    return tuple(forms)  # type: ignore[arg-type]


def _hadamard(terms: dict, i: int, j: int) -> dict:
    """Substitute (v_i + v_j, v_i - v_j) for (v_i, v_j) in a sparse
    exponent dict: v_i^p v_j^q expands by row q of the Krawtchouk table of
    degree p + q, the same table as the Lee transform's."""
    out: dict = {}
    for exps, coeff in terms.items():
        p, q = exps[i], exps[j]
        e = list(exps)
        for v, k in enumerate(_lee_transform_matrix(p + q)[q]):
            if k:
                e[i], e[j] = p + q - v, v
                key = tuple(e)
                out[key] = out.get(key, 0) + coeff * k
    return {key: c for key, c in out.items() if c}


def _shear(terms: dict) -> dict:
    """Substitute (v0 + 2 v4, v1, 4 v2, 2 v3, 4 v4) for (v0, .., v4)."""
    out: dict = {}
    for (a, b, c, d, e), coeff in terms.items():
        scaled = coeff << (2 * c + d + 2 * e)
        for t in range(a + 1):
            key = (a - t, b, c, d, e + t)
            out[key] = out.get(key, 0) + (scaled * math.comb(a, t) << t)
    return out


def _swe_substitute(terms: dict) -> dict:
    """sum_e c_e * prod_v F_v(X, Y, Z, W, S)^e_v, F = swe_transform_forms(),
    without expanding a product of forms.

    With P = X+Y, M = X-Y, Q = Z+W, D = Z-W and T = P+2S the forms are
    X', Y' = (T+4S) +- 4Q, Z', W' = M +- 2D and S' = T-4S.  Read from the
    outside in, each step is one substitution into the previous result:
    reorder (X', Y', Z', W', S') as (X', Z', Y', W', S'); Hadamard pairs
    (0, 2) and (1, 3) leave (T+4S, M, 4Q, 2D, S'), pair (0, 4) leaves
    (T, M, 4Q, 2D, 4S); the shear leaves (P, M, Q, D, S); pairs (0, 1) and
    (2, 3) leave (X, Y, Z, W, S).
    """
    t = {(a, c, b, d, e): k for (a, b, c, d, e), k in terms.items()}
    for i, j in ((0, 2), (1, 3), (0, 4)):
        t = _hadamard(t, i, j)
    t = _shear(t)
    for i, j in ((0, 1), (2, 3)):
        t = _hadamard(t, i, j)
    return t


@functools.lru_cache(maxsize=None)
def _check_swe_substitution() -> None:
    """The step chain sends each variable to its row of the derived form
    matrix (asserted once, not assumed)."""
    unit = [tuple(int(c == v) for c in range(5)) for v in range(5)]
    for v, form in enumerate(swe_transform_forms()):
        want = {unit[c]: f for c, f in enumerate(form) if f}
        if _swe_substitute({unit[v]: 1}) != want:
            raise AssertionError(f"SWE step chain differs from transform form {v}")


def guard_expansion(length: int) -> None:
    """ExpansionTooLarge for a code longer than the SWE transform expands."""
    if length > _EXPANSION_GUARD:
        raise ExpansionTooLarge(f"SWE transform expansion guarded at n <= {_EXPANSION_GUARD}")


def macwilliams_swe(e: SWE, size: int) -> SWE:
    """Dual SWE: (1/size) * swe(five substituted forms), by the step chain
    of `_swe_substitute`."""
    guard_expansion(e.length)
    _check_swe_substitution()
    out: dict = {}
    for key, v in _swe_substitute(e.terms).items():
        q, r = divmod(v, size)
        if r:
            raise NonExactDivision(f"SWE transform coefficient {v} not divisible by {size}")
        out[key] = q
    return SWE(e.length, out)


@functools.lru_cache(maxsize=None)
def _lee_transform_matrix(degree: int) -> tuple[tuple[int, ...], ...]:
    """K[w][v]: coefficient of W^(D-v) X^v in (W+X)^(D-w) (W-X)^w, D = degree.

    K[w][v] = sum_j (-1)^j C(w, j) C(D-w, v-j), exact Python ints (the
    entries outgrow int64 at the degrees of long codes over R).
    """
    return tuple(
        tuple(sum((-1) ** j * math.comb(w, j) * math.comb(degree - w, v - j)
                  for j in range(max(0, v - (degree - w)), min(w, v) + 1))
              for v in range(degree + 1))
        for w in range(degree + 1))


def macwilliams_lee(p: LeePoly, size: int) -> LeePoly:
    """Dual Lee enumerator: (1/size) * p(W+X, W-X), exact."""
    kmat = _lee_transform_matrix(p.degree)
    out = [0] * (p.degree + 1)
    for c, row in zip(p.coeffs, kmat):
        if c:
            out = [o + c * x for o, x in zip(out, row)]
    coeffs = []
    for v, val in enumerate(out):
        q, r = divmod(val, size)
        if r:
            raise NonExactDivision(f"Lee transform coefficient {val} not divisible by {size}")
        coeffs.append(q)
    return LeePoly(p.length, tuple(coeffs), p.ring)


def is_formally_self_dual(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Lee enumerator equals its own dual transform (Lee-level equality).

    This is the Lee-enumerator notion; CWE/SWE-level equality is strictly
    stronger and not what the dual-transform fixed point asks for here.
    """
    p = lee(code, budget)
    return macwilliams_lee(p, code.cardinality(budget)) == p
