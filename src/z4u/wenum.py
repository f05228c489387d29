"""Complete, symmetrized, and Lee weight enumerators and their transforms.

For a code C of length n:

  * the complete enumerator (CWE) counts, per codeword, how often each of
    the 16 ring elements appears: a sparse homogeneous degree-n polynomial
    in 16 variables indexed by the canonical element order;
  * the symmetrized enumerator (SWE) merges variables by Lee weight class
    into (X, Y, Z, W, S) = weights (0, 4, 3, 1, 2);
  * the Lee enumerator collects codewords by total Lee weight w into
    W^(D-w) X^w, a dense length-(D+1) coefficient vector, where D is the
    ring's maximum Lee weight times n (4n over R, 2n over Z4 and F2+uF2).

Each enumerator has an exact dual transform scaled by 1/|C|:

  * CWE: substitute T.(X_1..X_16), T the 16x16 character table.  Kept
    evaluation-only (16-variable symbolic expansion is combinatorial);
    equality of the two sides is certified at random Gaussian points,
    multiplying (re, im) pairs over each term's nonzero exponents.
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
from .code import DEFAULT_BUDGET, LinearCode
from .errors import ExpansionTooLarge, NonExactDivision
from .ring import R, RingTable
from .scalars import GaussianInt, GaussianRational

SWE_VARS = ("X", "Y", "Z", "W", "S")

#: Lee weight of the element class behind each SWE variable.
SWE_CLASS_WEIGHT = (0, 4, 3, 1, 2)

#: SWE class of each ring element (index into SWE_VARS), by Lee weight.
ELEMENT_CLASS = tuple({0: 0, 4: 1, 3: 2, 1: 3, 2: 4}[ring.lee_weight(x)]
                      for x in ring.ELEMENTS)

_EXPANSION_GUARD = 24
_COMPOSITION_ROWS = 1 << 16   # words per key pass: a (rows * 16) int64 bincount at most
_MERGE_KEYS = 1 << 18         # pending distinct keys that trigger a merge at the least
_PACKED_MAX_N = 15            # longest word whose 16 counts fit 4 bits each
#: element v's count sits in bits 4*(15-v) and up of a packed key
_NIBBLE_SHIFT = np.arange(60, -1, -4, dtype=np.uint64)
_NIBBLE_UNIT = np.left_shift(np.uint64(1), _NIBBLE_SHIFT)


def _coerce_point(point: Sequence) -> tuple[list, object]:
    """Return (values, one) in GaussianInt when every entry is one, else
    in GaussianRational; both types share +, * and .scale(int)."""
    vals = list(point)
    if all(isinstance(p, GaussianInt) for p in vals):
        return vals, GaussianInt(1, 0)
    return [GaussianRational.of(p) for p in vals], GaussianRational.of(1)


@dataclass(frozen=True)
class CWE:
    """Sparse 16-variable composition census: exponent vector -> count."""

    length: int
    terms: dict[tuple[int, ...], int]

    @classmethod
    def of_words(cls, words, length: int) -> "CWE":
        """Composition census of the rows of an (N, length) array of R
        words (element values 0..15), each row counted once."""
        return cls.of_blocks([np.asarray(words, dtype=np.uint8)], length)

    @classmethod
    def of_blocks(cls, blocks: Iterable[np.ndarray], length: int) -> "CWE":
        """`of_words` over the rows of a stream of (B, length) uint8
        blocks; memory follows one block, not the stream."""
        comps, counts = _compositions(blocks, length)
        return cls(length, dict(zip(map(tuple, comps.tolist()), counts.tolist())))

    @functools.cached_property
    def _sparse(self) -> tuple[tuple, list[int]]:
        """(coefficient, nonzero (variable, exponent) pairs) per term, and
        the largest exponent of each variable."""
        rows = tuple((c, tuple((i, x) for i, x in enumerate(exps) if x))
                     for exps, c in self.terms.items())
        return rows, [max((e[i] for e in self.terms), default=0) for i in range(16)]

    def evaluate(self, point: Sequence):
        """Value at a 16-tuple of Gaussian integers or rationals.

        Works on plain (re, im) pairs: ints when every entry is a
        GaussianInt, so the result is exact integer arithmetic, else
        Fractions.
        """
        vals, one = _coerce_point(point)
        rows, maxima = self._sparse
        pows = []
        for p, m in zip(vals, maxima, strict=True):
            col = [(1, 0)]
            for _ in range(m):
                a, b = col[-1]
                col.append((a * p.re - b * p.im, a * p.im + b * p.re))
            pows.append(col)
        sre = sim = 0
        for coeff, factors in rows:
            re, im = coeff, 0
            for i, x in factors:
                a, b = pows[i][x]
                re, im = re * a - im * b, re * b + im * a
            sre += re
            sim += im
        if isinstance(one, GaussianInt):
            return GaussianInt(sre, sim)
        return GaussianRational(Fraction(sre), Fraction(sim))

    def format_lines(self) -> list[str]:
        return [f"{','.join(map(str, exps))} : {self.terms[exps]}"
                for exps in sorted(self.terms)]


@dataclass(frozen=True)
class SWE:
    """Sparse 5-variable enumerator in (X, Y, Z, W, S)."""

    length: int
    terms: dict[tuple[int, int, int, int, int], int]

    def format_lines(self) -> list[str]:
        return [f"{','.join(map(str, exps))} : {self.terms[exps]}"
                for exps in sorted(self.terms)]

    def format_polynomial(self) -> str:
        parts = []
        for exps in sorted(self.terms):
            factors = [] if self.terms[exps] == 1 and any(exps) else [str(self.terms[exps])]
            for var, e in zip(SWE_VARS, exps):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


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

    def format_polynomial(self) -> str:
        n4 = self.degree
        parts = []
        for w, c in enumerate(self.coeffs):
            if not c:
                continue
            factors = [] if c == 1 else [str(c)]
            if n4 - w:
                factors.append(f"W^{n4 - w}" if n4 - w > 1 else "W")
            if w:
                factors.append(f"X^{w}" if w > 1 else "X")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Building enumerators from codes
# ---------------------------------------------------------------------------

def _compositions(blocks: Iterable[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct compositions (16 element counts per word) among the rows of
    (B, n) word blocks, with how many rows have each, in the byte order of
    the 16 counts.

    While n <= _PACKED_MAX_N a composition is one uint64 key: the count of
    element v in bits 4*(15-v) and up, so numeric order is byte order, and a
    word's key is the sum of its elements' nibble units.  Longer words use
    16-count byte keys from a bincount.  Each key pass covers at most
    _COMPOSITION_ROWS words, so a bincount's int64 output is 8 MB where a
    whole 2^20-word block would need 128 MB.  The distinct keys of each
    pass wait until they outnumber both the running totals and _MERGE_KEYS,
    then all merge in one sort: memory follows the distinct compositions,
    and a stream of many small blocks does not re-sort the totals per block.
    """
    dtype = np.min_scalar_type(n)  # a count is at most n: no wraparound
    if n <= _PACKED_MAX_N:
        key = np.dtype(np.uint64)

        def keys_of(part):
            return _NIBBLE_UNIT[part].sum(axis=1, dtype=np.uint64)
    else:
        key = np.dtype((np.void, 16 * dtype.itemsize))

        def keys_of(part):
            flat = (np.arange(len(part))[:, None] * 16 + part).ravel(order="K")
            return np.bincount(flat, minlength=16 * len(part)).astype(dtype).view(key)
    found, total = np.empty(0, key), np.empty(0, np.int64)
    keys, counts, pending = [], [], 0
    for blk in blocks:
        for s in range(0, len(blk), _COMPOSITION_ROWS):
            u, c = np.unique(keys_of(blk[s:s + _COMPOSITION_ROWS]), return_counts=True)
            keys.append(u)
            counts.append(c)
            pending += len(u)
            if pending >= max(len(found), _MERGE_KEYS):
                found, total = _merge_counts([found, *keys], [total, *counts])
                keys, counts, pending = [], [], 0
    found, total = _merge_counts([found, *keys], [total, *counts])
    if n <= _PACKED_MAX_N:
        return ((found[:, None] >> _NIBBLE_SHIFT) & np.uint64(15)).astype(dtype), total
    return found.view(dtype).reshape(-1, 16), total


def _merge_counts(keys: list[np.ndarray], counts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys among `keys`, each with the sum of its counts."""
    found, inv = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(len(found), dtype=np.int64)
    np.add.at(total, inv, np.concatenate(counts))
    return found, total


def cwe(code: LinearCode, budget: int = DEFAULT_BUDGET) -> CWE:
    """Exact composition census over every codeword (each counted once).

    Counted over all messages, then divided by the count of the zero word's
    composition (n, 0, ..., 0): every codeword has that many messages.
    The 16 variables are R's elements, so only codes over R are accepted.
    """
    if code.ring is not R:
        raise ValueError(f"complete enumerators count the 16 elements of R, not {code.ring.name}")
    comps, counts = _compositions((blk for _, blk in code.codeword_blocks(budget)), code.n)
    zero = int(counts[comps[:, 0] == code.n][0])
    return CWE(code.n, dict(zip(map(tuple, comps.tolist()), (counts // zero).tolist())))


def cwe_to_swe(e: CWE) -> SWE:
    terms: dict[tuple[int, int, int, int, int], int] = {}
    for exps, coeff in e.terms.items():
        merged = [0, 0, 0, 0, 0]
        for x, cnt in enumerate(exps):
            merged[ELEMENT_CLASS[x]] += cnt
        key = tuple(merged)
        terms[key] = terms.get(key, 0) + coeff
    return SWE(e.length, terms)


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


def swe_of_words(words, length: int) -> SWE:
    """SWE of the rows of an (N, length) array of R words."""
    return cwe_to_swe(CWE.of_words(words, length))


# ---------------------------------------------------------------------------
# MacWilliams transforms
# ---------------------------------------------------------------------------

def macwilliams_cwe_eval(e: CWE, size: int,
                         point: Sequence) -> GaussianRational:
    """Dual CWE evaluated at `point`: (1/size) * cwe(T . point), exact.

    For a Gaussian-integer point the value of the dual enumerator is a
    Gaussian integer, so the 1/size scaling must divide exactly; a
    remainder raises NonExactDivision (the supplied size was not |C|).
    """
    table = ring.character_table()
    pts, one = _coerce_point(point)
    image = []
    for i in range(16):
        acc = one.scale(0)
        for j in range(16):
            acc = acc + pts[j] * table[i][j]
        image.append(acc)
    val = e.evaluate(image)
    if isinstance(val, GaussianInt):
        qr, rr = divmod(val.re, size)
        qi, ri = divmod(val.im, size)
        if rr or ri:
            raise NonExactDivision(f"CWE transform value {val} not divisible by {size}")
        return GaussianRational.of(GaussianInt(qr, qi))
    return val / GaussianRational.of(size)


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


def macwilliams_swe(e: SWE, size: int) -> SWE:
    """Dual SWE: (1/size) * swe(five substituted forms), by the step chain
    of `_swe_substitute`."""
    if e.length > _EXPANSION_GUARD:
        raise ExpansionTooLarge(f"SWE transform expansion guarded at n <= {_EXPANSION_GUARD}")
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
