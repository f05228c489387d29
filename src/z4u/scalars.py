"""Exact scalar arithmetic for Z4, F2+uF2, and Gaussian integers/rationals.

Z4 elements are the ints 0..3.  F2+uF2 elements are packed into the ints
0..3 as ``a + 2b`` for ``a + ub`` (so 0, 1, u, 1+u encode as 0, 1, 2, 3);
addition is XOR since the characteristic is 2.  Gaussian values are kept
exact: integer pairs for character arithmetic, Fraction pairs once a 1/|C|
scaling enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# Z4
# ---------------------------------------------------------------------------

def z4_add(x: int, y: int) -> int:
    return (x + y) & 3


def z4_mul(x: int, y: int) -> int:
    return (x * y) & 3


def z4_neg(x: int) -> int:
    return -x & 3


def z4_lee_weight(x: int) -> int:
    """Lee weight min(x, 4-x) of a Z4 residue."""
    x &= 3
    return min(x, 4 - x)


def z4_parse(token: str) -> int:
    if len(token) != 1 or token not in "0123":
        raise ValueError(f"bad Z4 token {token!r}, expected a single digit 0-3")
    return int(token)


# ---------------------------------------------------------------------------
# F2 + uF2  (u^2 = 0, characteristic 2)
# ---------------------------------------------------------------------------

F2U_TOKENS = ("0", "1", "u", "1+u")

#: Lee weight on F2+uF2: w(0)=0, w(1)=w(1+u)=1, w(u)=2.
F2U_LEE = (0, 1, 2, 1)


def f2u_add(x: int, y: int) -> int:
    return x ^ y


def f2u_neg(x: int) -> int:
    return x


def f2u_mul(x: int, y: int) -> int:
    a1, b1 = x & 1, x >> 1
    a2, b2 = y & 1, y >> 1
    return (a1 & a2) | ((((a1 & b2) ^ (a2 & b1)) & 1) << 1)


def f2u_lee_weight(x: int) -> int:
    return F2U_LEE[x & 3]


def f2u_parse(token: str) -> int:
    try:
        return F2U_TOKENS.index(token)
    except ValueError:
        raise ValueError(f"bad F2+uF2 token {token!r}, expected one of {F2U_TOKENS}") from None


def f2u_format(x: int) -> str:
    return F2U_TOKENS[x & 3]


# ---------------------------------------------------------------------------
# Gaussian integers and rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GaussianInt:
    """Exact complex integer re + im*i."""

    re: int
    im: int

    def __add__(self, o: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def scale(self, k: int) -> "GaussianInt":
        return GaussianInt(self.re * k, self.im * k)

    def __pow__(self, n: int) -> "GaussianInt":
        if n < 0:
            raise ValueError("negative power of a GaussianInt")
        out = GI_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{istr}"


GI_ONE = GaussianInt(1, 0)
GI_I = GaussianInt(0, 1)

#: i^k for k = 0..3; every character value lives here.
I_POWERS = (GI_ONE, GI_I, GaussianInt(-1, 0), GaussianInt(0, -1))


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex rational; components are Fractions (always normalized)."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x: "GaussianRational | GaussianInt | int | Fraction") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, GaussianInt):
            return GaussianRational(Fraction(x.re), Fraction(x.im))
        return GaussianRational(Fraction(x), Fraction(0))

    def __add__(self, o) -> "GaussianRational":
        o = GaussianRational.of(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o) -> "GaussianRational":
        o = GaussianRational.of(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, o) -> "GaussianRational":
        o = GaussianRational.of(o)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    def __truediv__(self, o) -> "GaussianRational":
        o = GaussianRational.of(o)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by Gaussian zero")
        return GaussianRational((self.re * o.re + self.im * o.im) / den,
                                (self.im * o.re - self.re * o.im) / den)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def scale(self, k) -> "GaussianRational":
        return GaussianRational(self.re * k, self.im * k)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

