"""The 16-element ring R = Z4 + uZ4 with u^2 = 0.

An element a + ub (a, b in Z4) is packed into the int ``4*a + b``; the
resulting natural order 0, u, 2u, 3u, 1, 1+u, ..., 3+3u is exactly the
canonical element order g_1..g_16 used to index complete weight
enumerators, so canonical index i corresponds to packed value i-1.

Multiplication follows from u^2 = 0:

    (a1 + u b1)(a2 + u b2) = a1 a2 + u (a1 b2 + a2 b1)   (mod 4)

The record `R` holds the 16x16 operation tables, precomputed once from
the scalar functions below as numpy uint8 arrays, with the Lee weights
and the element token syntax; `Z4` and `F2U` are the same record for the
two 4-element rings the projections and the Gray map land in, so one code
core serves all three.

Units are the 8 elements with a odd.  They split into two types by their
square: type-1 units square to 1, type-2 units square to 1+2u, and every
non-unit squares to 0.

The Lee weight is pulled back through the Gray map: w(a+ub) is the Z4 Lee
weight of the pair (b, a+b).  Each ring record also carries that map as a
packing: `PACK` sends an element to its Gray image, stored as 2-bit Z4
fields (R, Z4) or single F2 bits (F2+uF2).  The packing is additive, so a
vector packed into a uint64 adds field by field (`packed_split`, with
the oracle `tests/oracles.py::packed_add` as the reference), and its Lee
weight is the popcount of the binary Gray code of its fields
(`packed_weight`): the double Gray map R -> Z4^2 -> F2^4.

The additive character x = a+ub -> i^(a+b) is nontrivial on every nonzero
ideal (a generating character), which is what makes the MacWilliams
transforms in `wenum` exact.  The 16x16 character table is always generated
from the formula; a hand-transcribed copy of the same table from an
external source is kept only so `self-check` can report where the two
disagree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .scalars import (GaussianInt, I_POWERS, f2u_add, f2u_format, f2u_lee_weight,
                      f2u_mul, f2u_neg, f2u_parse, z4_add, z4_lee_weight, z4_mul,
                      z4_neg, z4_parse)

SIZE = 16

ELEMENTS = tuple(range(SIZE))


def make(a: int, b: int) -> int:
    """Pack a + ub into an element value."""
    return ((a & 3) << 2) | (b & 3)


def a_part(x: int) -> int:
    """Coefficient of 1."""
    return (x >> 2) & 3


def b_part(x: int) -> int:
    """Coefficient of u."""
    return x & 3


ZERO = make(0, 0)
ONE = make(1, 0)
U = make(0, 1)
TWO_U = make(0, 2)


def add(x: int, y: int) -> int:
    return make(a_part(x) + a_part(y), b_part(x) + b_part(y))


def neg(x: int) -> int:
    return make(-a_part(x), -b_part(x))


def mul(x: int, y: int) -> int:
    a1, b1 = a_part(x), b_part(x)
    a2, b2 = a_part(y), b_part(y)
    return make(a1 * a2, a1 * b2 + a2 * b1)


def lee_weight(x: int) -> int:
    """Lee weight of a + ub: Z4 Lee weight of b plus that of a + b."""
    a, b = a_part(x), b_part(x)
    return z4_lee_weight(b) + z4_lee_weight((a + b) & 3)


# ---------------------------------------------------------------------------
# Units and squares
# ---------------------------------------------------------------------------

class UnitType(Enum):
    NON_UNIT = 0
    TYPE1 = 1  # squares to 1
    TYPE2 = 2  # squares to 1+2u


def is_unit(x: int) -> bool:
    """x is invertible iff its 1-coefficient is odd."""
    return a_part(x) & 1 == 1


def unit_type(x: int) -> UnitType:
    if not is_unit(x):
        return UnitType.NON_UNIT
    return UnitType.TYPE1 if b_part(x) & 1 == 0 else UnitType.TYPE2


UNITS = frozenset(x for x in ELEMENTS if is_unit(x))
UNITS_TYPE1 = frozenset(x for x in ELEMENTS if unit_type(x) is UnitType.TYPE1)
UNITS_TYPE2 = frozenset(x for x in ELEMENTS if unit_type(x) is UnitType.TYPE2)

#: unit_type(x).value per element, for vectorized census checks.
UNIT_TYPE_CODE = np.array([unit_type(x).value for x in ELEMENTS], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Ideal lattice
# ---------------------------------------------------------------------------

def _principal(g: int) -> frozenset[int]:
    return frozenset(mul(g, x) for x in ELEMENTS)


#: The six proper ideals plus R itself, keyed by a display label.
IDEALS: dict[str, frozenset[int]] = {
    "0": frozenset({ZERO}),
    "2u": _principal(TWO_U),
    "u": _principal(U),
    "2": _principal(make(2, 0)),
    "2+u": _principal(make(2, 1)),
    "2,u": frozenset({ZERO, make(2, 0), U, TWO_U, make(0, 3),
                      make(2, 1), make(2, 2), make(2, 3)}),
    "1": frozenset(ELEMENTS),
}

#: Proper nonzero ideals, smallest first (the chain 2u is inside all of them).
PROPER_NONZERO_IDEALS = ("2u", "u", "2", "2+u", "2,u")

MAXIMAL_IDEAL = IDEALS["2,u"]


# ---------------------------------------------------------------------------
# Additive character and its 16x16 table
# ---------------------------------------------------------------------------

def character(x: int) -> GaussianInt:
    """Generating additive character: a + ub -> i^(a+b)."""
    return I_POWERS[(a_part(x) + b_part(x)) & 3]


@functools.lru_cache(maxsize=None)
def character_table() -> tuple[tuple[GaussianInt, ...], ...]:
    """16x16 table chi(g_i * g_j), generated from the character formula.

    Indexed 0-based by packed element value (= canonical index - 1).
    Built once: the entries are immutable constants.
    """
    return tuple(tuple(character(mul(x, y)) for y in ELEMENTS) for x in ELEMENTS)


_GI_TOKEN = {"1": GaussianInt(1, 0), "-1": GaussianInt(-1, 0),
             "i": GaussianInt(0, 1), "-i": GaussianInt(0, -1)}

# Hand-transcribed copy of the character table from an external typeset
# source; retained solely for the discrepancy report below.  The generated
# table is authoritative.
_TRANSCRIBED_TABLE_TEXT = """
1  1  1  1  1  1  1  1  1  1  1  1  1  1  1  1
1  1  1  1  i  i  i  i -1 -1 -1 -1 -i -i -i -i
1  1  1  1 -1 -1 -1 -1  1  1  1  1 -1 -1 -1 -1
1  1  1  1 -i -i -i -i -1 -1 -1 -1  i  i  i  i
1  i -1 -i  i -1 -i  1 -1 -i  1  i -i  1  i -1
1  i -1 -i -1 -i  1  i  1  i -1 -i -1 -i  1  i
1  i -1 -i -i  1  i -1 -1 -i  1  i  i -1  i  1
1  i -1 -i  1  i -1 -i  1  i -1 -i  1  i -1  i
1 -1  1 -1 -1  1 -1  1  1 -1  1 -1 -1  1 -1  1
1 -1  1 -1 -i  i -i  i -1  1 -1  1  i -i  i -i
1 -1  1 -1  1 -1  1 -1  1 -1  1 -1  1 -1  1 -1
1 -1  1 -1  i -i  i -i -1  1 -1  1 -i  i -i  i
1 -i -1  i -i -1  i  1 -1  i  1 -i  i  1 -i -1
1 -i -1  i  1 -i -1  i  1 -i -1  i  1 -i -1  i
1 -i -1  i  i  1  i -1 -1  i  1 -i -i -1  i  1
1 -i -1  i -1  i  1 -i  1 -i -1  i -1  i  1 -i
"""


def transcribed_character_table() -> tuple[tuple[GaussianInt, ...], ...]:
    rows = [ln.split() for ln in _TRANSCRIBED_TABLE_TEXT.strip().splitlines()]
    return tuple(tuple(_GI_TOKEN[tok] for tok in row) for row in rows)


def character_table_discrepancies() -> list[tuple[int, int, GaussianInt, GaussianInt]]:
    """Entries where the generated table differs from the transcribed copy.

    Returns (row, col, generated, transcribed) with 1-based indices.  The
    report only states where they differ; it does not pick a winner beyond
    the generated table being the one used everywhere.
    """
    gen = character_table()
    ref = transcribed_character_table()
    return [(i + 1, j + 1, gen[i][j], ref[i][j])
            for i in range(SIZE) for j in range(SIZE)
            if gen[i][j] != ref[i][j]]


# ---------------------------------------------------------------------------
# Element / vector / matrix text syntax
# ---------------------------------------------------------------------------
# An element of R prints as the two-digit token "ab" meaning a + ub ("12" =
# 1+2u); Z4 elements as single digits 0-3; F2+uF2 elements as 0, 1, u, 1+u.
# Matrix files are line-oriented: one row per line, tokens separated by
# spaces, blank lines and '#' comment lines ignored.

def parse_element(token: str) -> int:
    if len(token) != 2 or token[0] not in "0123" or token[1] not in "0123":
        raise ValueError(f"bad element token {token!r}, expected two digits 0-3")
    return make(int(token[0]), int(token[1]))


def format_element(x: int) -> str:
    return f"{a_part(x)}{b_part(x)}"


# ---------------------------------------------------------------------------
# Ring table records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RingTable:
    """A finite ring as lookup tables: what the code core needs to know.

    Elements are the ints 0..size-1, with 0 the zero element; ADD, MUL, NEG
    and LEE are uint8 tables indexed by element values.  INV holds the
    inverse of each unit and 0 for every non-unit: each ring here is local
    with residue field F2, so a square matrix is invertible iff its unit
    pattern is invertible over F2.  PACK is the Gray image of each element
    in `bits` bits (UNPACK inverts it), and LOW marks the low bit of each 2-bit Z4 field in it
    (0 when the image is F2 bits).  `name` is the module-level name of the
    instance, so a record pickles by reference (pool workers) and compares
    by identity.
    """

    name: str
    size: int
    ONE: int
    ADD: np.ndarray
    MUL: np.ndarray
    NEG: np.ndarray
    LEE: np.ndarray
    INV: np.ndarray
    PACK: np.ndarray
    LOW: int
    max_lee: int
    parse: Callable[[str], int]
    format: Callable[[int], str]

    @property
    def bits(self) -> int:
        """Bits per element (every size here is a power of two)."""
        return self.size.bit_length() - 1

    @functools.cached_property
    def low_mask(self) -> np.uint64:
        """LOW repeated over all 64 bits of a packed word."""
        return np.uint64(sum(self.LOW << s for s in range(0, 64, self.bits)))

    @functools.cached_property
    def UNPACK(self) -> np.ndarray:
        """The element with each Gray image: PACK inverted (uint8)."""
        return np.argsort(self.PACK).astype(np.uint8)

    @functools.cached_property
    def by_lee(self) -> tuple[np.ndarray, ...]:
        """The elements of each Lee weight 0..max_lee, ascending (uint8)."""
        return tuple(np.flatnonzero(self.LEE == w).astype(np.uint8)
                     for w in range(self.max_lee + 1))

    def __reduce__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


def _ring_table(name, size, one, add_, mul_, neg_, lee, pack, low, parse, fmt) -> RingTable:
    els = range(size)
    lee_np = np.array([lee(x) for x in els], dtype=np.uint8)
    inv = np.array([next((y for y in els if mul_(x, y) == one), 0) for x in els], dtype=np.uint8)
    return RingTable(name, size, one,
                     np.array([[add_(x, y) for y in els] for x in els], dtype=np.uint8),
                     np.array([[mul_(x, y) for y in els] for x in els], dtype=np.uint8),
                     np.array([neg_(x) for x in els], dtype=np.uint8),
                     lee_np, inv, np.array([pack(x) for x in els], dtype=np.uint8), low,
                     int(lee_np.max()), parse, fmt)


# Gray images as packed bits: a + ub -> Z4 fields (b, a+b); Z4 is its own
# field; F2+uF2 (a + 2b for a + ub) -> F2 bits (b, a+b).
R = _ring_table("R", SIZE, ONE, add, mul, neg, lee_weight,
                lambda x: (b_part(x) << 2) | ((a_part(x) + b_part(x)) & 3), 0b0101,
                parse_element, format_element)
Z4 = _ring_table("Z4", 4, 1, z4_add, z4_mul, z4_neg, z4_lee_weight, lambda x: x, 0b01,
                 z4_parse, str)
F2U = _ring_table("F2U", 4, 1, f2u_add, f2u_mul, f2u_neg, f2u_lee_weight,
                  lambda x: ((x >> 1) << 1) | ((x ^ (x >> 1)) & 1), 0,
                  f2u_parse, f2u_format)


def packed_split(x: np.ndarray, low: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Packed words as their bits in `low` and their other bits: with
    x = (xl, xh) and y = (yl, yh), (xl + yl) ^ xh ^ yh is the field-wise
    sum, Z4 addition in each 2-bit field with a low bit in `low` (its carry
    stays inside the field) and XOR elsewhere (the oracle
    `tests/oracles.py::packed_add`)."""
    xl = x & low
    return xl, x ^ xl


def packed_weight(x: np.ndarray, low: np.uint64) -> np.ndarray:
    """Lee weight of each packed word: popcount of the binary Gray code
    (z1, z1 ^ z0) of every Z4 field; F2 bits count as they are."""
    return np.bitwise_count(x ^ ((x >> 1) & low))


def parse_vector(text: str, ring: RingTable = R) -> tuple[int, ...]:
    return tuple(ring.parse(tok) for tok in text.split())


def format_vector(v: Iterable[int], ring: RingTable = R) -> str:
    return " ".join(ring.format(int(x)) for x in v)


def parse_matrix_text(text: str, ring: RingTable = R) -> np.ndarray:
    """Parse the generator-matrix file grammar into a (k, n) uint8 array."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append(parse_vector(ln, ring))
    if not rows:
        raise ValueError("no matrix rows found")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix: rows have differing lengths")
    return np.array(rows, dtype=np.uint8)
