"""Projections to Z4 and F2+uF2, lifts, and self-dual image reports.

Three componentwise maps leave the ring:

  * constant part: mu(a + ub) = a                   (to Z4)
  * u-coefficient: nu(a + ub) = b                   (to Z4)
  * mod-2 reduction: alpha(a + ub) = (a%2) + u(b%2)  (to F2+uF2)

Each projected code is built from generators read off G alone, and those
generators are exact: they span the projected code, not just a superset or
a subset of it.  Let C be spanned by rows g_i = ga_i + u gb_i (ga_i, gb_i
over Z4), so a codeword is c = sum r_i g_i with free r_i = a_i + u b_i.

  * mu is a ring homomorphism R -> Z4 ((a1+ub1)(a2+ub2) has constant part
    a1 a2), so mu(c) = sum a_i ga_i.  Every such word is in the Z4-span of
    the ga_i, and every Z4-combination sum a_i ga_i is mu of the codeword
    with r_i = a_i.  So mu(C) = <ga_i>.
  * nu is additive with nu(r g) = a gb + b ga for r = a + ub, so
    nu(c) = sum (a_i gb_i + b_i ga_i).  The pairs (a_i, b_i) range over all
    of Z4^2 independently, so nu(C) is exactly the Z4-span of the ga_i and
    the gb_i together.
  * alpha is a surjective ring homomorphism R -> F2+uF2 (reducing both
    coefficients mod 2 commutes with the product rule above), so
    alpha(c) = sum alpha(r_i) alpha(g_i) with alpha(r_i) ranging over all
    of F2+uF2.  So alpha(C) is the F2+uF2-span of the reduced rows.

The test suite checks these against projecting every codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ring
from .code import DEFAULT_BUDGET, DistanceResult, LinearCode, SelfDuality, unpack_rows
from .errors import BudgetExceeded, NotSelfDual, ZeroCode
from .gray import gray_image
from .wenum import is_formally_self_dual


# ---------------------------------------------------------------------------
# The three projections
# ---------------------------------------------------------------------------

def project_constant(code: LinearCode) -> LinearCode:
    """Z4 code of the constant parts (a of a + ub), componentwise."""
    return LinearCode((code.gen >> 2) & 3, ring.Z4)


def project_u_coeff(code: LinearCode) -> LinearCode:
    """Z4 code of the u-coefficients (b of a + ub), componentwise."""
    return LinearCode(np.vstack([(code.gen >> 2) & 3, code.gen & 3]), ring.Z4)


def project_mod2(code: LinearCode) -> LinearCode:
    """F2+uF2 code from reducing both coordinates mod 2."""
    gen = code.gen
    return LinearCode(((gen >> 2) & 1) | ((gen & 1) << 1), ring.F2U)


# ---------------------------------------------------------------------------
# Lifts and the distance bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftTriple:
    """A code over the big ring with prescribed Z4 and F2+uF2 projections."""

    code: LinearCode
    z4: LinearCode
    f2u: LinearCode

    def verify_projections(self, budget: int = DEFAULT_BUDGET) -> bool:
        """The projected codes equal the prescribed codes as codeword sets."""
        return project_constant(self.code).same_code(self.z4, budget) and \
            project_mod2(self.code).same_code(self.f2u, budget)


@dataclass(frozen=True)
class LiftBoundReport:
    d: DistanceResult
    d_z4: DistanceResult
    d_f2u: DistanceResult
    holds: bool

    def format_lines(self) -> list[str]:
        return [
            f"d  (ring code)  = {self.d.value} ({self.d.label()})",
            f"d' (Z4 code)    = {self.d_z4.value} ({self.d_z4.label()})",
            f"d'' (F2+uF2)    = {self.d_f2u.value} ({self.d_f2u.label()})",
            f"bound d <= 2*min(d', d'') : {'holds' if self.holds else 'VIOLATED'}",
        ]


def lift_bound_check(t: LiftTriple, budget: int = DEFAULT_BUDGET) -> LiftBoundReport:
    """Check d <= 2d' and d <= 2d'' on a lift triple.

    An upper bound for d is enough to confirm the inequality holds (the
    true distance can only be smaller), but d' and d'' must be exact: an
    upper bound on them cannot confirm anything, so they raise
    BudgetExceeded when their distance is not exact within the budget.
    """
    if t.z4.is_zero or t.f2u.is_zero:
        raise ZeroCode("lift bound needs nonzero projected codes")
    exact = []
    for proj in (t.z4, t.f2u):
        exact.append(proj.min_lee_distance(budget))
        if not exact[-1].exact:
            raise BudgetExceeded(proj.ring.size ** proj.k, budget,
                                 f"exact {proj.ring.name} distance")
    d_z4, d_f2u = exact
    res = t.code.min_lee_distance(budget)
    holds = res.value <= 2 * d_z4.value and res.value <= 2 * d_f2u.value
    return LiftBoundReport(res, d_z4, d_f2u, holds)


# ---------------------------------------------------------------------------
# Self-dual image report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfDualImageReport:
    gray_formally_self_dual: bool
    z4_projection_self_orthogonal: bool
    f2u_projection_self_orthogonal: bool
    u_coeff_projection_self_orthogonal: bool
    gray_self_dual: bool | None      # asserted only when the line above is True
    projections_self_dual: tuple[bool, bool] | None  # [I|A] case: (Z4, F2+uF2)
    all_2u_vector_present: bool
    unit_counts_even: bool

    def format_lines(self) -> list[str]:
        yes = lambda b: "yes" if b else "NO"
        lines = [
            f"gray image formally self-dual over Z4 : {yes(self.gray_formally_self_dual)}",
            f"constant-part projection self-orthogonal over Z4 : {yes(self.z4_projection_self_orthogonal)}",
            f"mod-2 projection self-orthogonal over F2+uF2 : {yes(self.f2u_projection_self_orthogonal)}",
            f"u-coefficient projection self-orthogonal : {yes(self.u_coeff_projection_self_orthogonal)}",
        ]
        if self.gray_self_dual is None:
            lines.append("gray image self-dual over Z4 : not implied (u-coefficient projection not self-orthogonal)")
        else:
            lines.append(f"gray image self-dual over Z4 : {yes(self.gray_self_dual)}")
        if self.projections_self_dual is not None:
            z4sd, f2usd = self.projections_self_dual
            lines.append(f"[I|A] form: projections self-dual (Z4, F2+uF2) : {yes(z4sd)}, {yes(f2usd)}")
        lines.append(f"all-2u vector is a codeword : {yes(self.all_2u_vector_present)}")
        lines.append(f"type-1/type-2 unit counts even in every codeword : {yes(self.unit_counts_even)}")
        return lines


def self_dual_image_report(code: LinearCode, budget: int = DEFAULT_BUDGET) -> SelfDualImageReport:
    """Image properties guaranteed for self-dual codes, checked explicitly."""
    def self_dual(c: LinearCode) -> bool:
        return c.self_duality(budget) is SelfDuality.SELF_DUAL

    if not self_dual(code):
        raise NotSelfDual("report requires a self-dual input code")
    img = gray_image(code)
    fsd = is_formally_self_dual(img, budget)
    d = project_constant(code)
    e = project_mod2(code)
    nu_so = project_u_coeff(code).is_self_orthogonal()
    gray_sd = self_dual(img) if nu_so else None
    proj_sd = None
    if code.standard_form and code.n == 2 * code.k:
        proj_sd = (self_dual(d), self_dual(e))
    all2u, even = False, True
    for _, words in code.codeword_blocks(budget):
        blk = unpack_rows(words, code.n)
        all2u |= bool((blk == ring.TWO_U).all(axis=1).any())
        if even:
            types = ring.UNIT_TYPE_CODE[blk]
            even = not (((types == 1).sum(axis=1) % 2).any()
                        or ((types == 2).sum(axis=1) % 2).any())
        if all2u and not even:
            break
    return SelfDualImageReport(fsd, d.is_self_orthogonal(), e.is_self_orthogonal(),
                               nu_so, gray_sd, proj_sd, all2u, even)

