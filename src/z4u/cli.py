"""Command-line surface.

Every command is non-interactive, reads files and flags, and writes a
line-oriented report with stable field order to stdout, so runs are
byte-for-byte reproducible (worker count included).  Budgets are given as
exponents: --budget 7 means 16^7 enumerated messages.

Exit status: 0 on success, 1 on parse/budget problems (a usage error
included: the usage and the message go to stderr), 2 when a verification
verdict is FAIL.  `main(argv)` returns the status, so it can be called
again and again in one process; the parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import construct, gray, project, ring, wenum
from .code import DistanceResult, LinearCode, _per_step, dual_of_standard_form
from .errors import BudgetExceeded, ExpansionTooLarge, ZeroCode
from .ring import F2U, R, RingTable, Z4
from .scalars import GaussianInt, GaussianRational

_ENUM_PRINT_CAP = 16 ** 6
#: `dual` lists the dual's vectors only up to this many; past it, the count.
_DUAL_PRINT_CAP = 4096


class _Fail(Exception):
    """Raised internally to signal exit status 2 (a FAIL verdict)."""


def _print_block(header: str, lines) -> None:
    """`header`, then each line indented by two spaces."""
    print(header)
    for ln in lines:
        print(f"  {ln}")


def _budget_from(args) -> int:
    return 16 ** args.budget


def _dist_line(res: DistanceResult) -> str:
    return f"{res.value} ({res.label()})"


def _load_code(path: str, ring: RingTable = R) -> LinearCode:
    try:
        return LinearCode.from_file(path, ring)
    except FileNotFoundError:
        raise ValueError(f"cannot read generator file {path!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> None:
    code = _load_code(args.gen)
    budget = _budget_from(args)
    print(f"length: {code.n}")
    print(f"generator rows: {code.k}")
    print(f"standard-form: {'yes' if code.standard_form else 'no'}")
    card = code.cardinality(budget)
    print(f"cardinality: {card}")
    res = code.min_lee_distance(budget)
    print(f"min-lee-distance: {_dist_line(res)}")
    print(f"self-duality: {code.self_duality(budget).value}")
    if 16 ** code.k <= min(budget, _ENUM_PRINT_CAP):
        e = wenum.cwe(code, budget)
        _print_block("cwe:", e.format_lines())
        s = wenum.cwe_to_swe(e)
        _print_block("swe:", s.format_lines())
        _print_block("lee:", wenum.swe_to_lee(s).format_lines())
    else:
        for name in ("cwe", "swe", "lee"):
            print(f"{name}: out of budget ({16 ** code.k} messages > {min(budget, _ENUM_PRINT_CAP)})")


def cmd_gray(args) -> None:
    code = _load_code(args.gen)
    budget = _budget_from(args)
    img = gray.gray_image(code)
    print(f"z4-image length: {img.n}")
    print(f"z4-image cardinality: {img.cardinality(budget)}")
    _print_block("z4-image generator:", (ring.format_vector(row, Z4) for row in img.gen))
    res = code.min_lee_distance(budget)
    print(f"z4-image min-lee-distance: {_dist_line(res)}  "
          f"(equals the source distance; the map is a Lee isometry)")


def cmd_dual(args) -> None:
    code = _load_code(args.gen)
    budget = _budget_from(args)
    if code.standard_form and code.n == 2 * code.k:
        dual_code = dual_of_standard_form(code)
        _print_block("dual generator ([-A^T | I]):", map(ring.format_vector, dual_code.gen))
    if 16 ** code.n <= budget:
        count, kept = 0, []
        for blk in code.dual_blocks(budget):
            count += len(blk)
            if count <= _DUAL_PRINT_CAP:
                kept.append(blk)
        print(f"dual cardinality: {count}")
        print(f"size product |C|*|dual|: {code.cardinality(budget) * count}"
              f" (16^n = {16 ** code.n})")
        if count <= _DUAL_PRINT_CAP:
            print("dual codewords:")
            for blk in kept:
                for w in blk:
                    print("  " + ring.format_vector(w))
    else:
        print(f"dual codewords: out of budget (16^{code.n} vectors)")


def cmd_macwilliams(args) -> None:
    code = _load_code(args.gen)
    budget = _budget_from(args)
    wenum.guard_expansion(code.n)  # before the enumeration, not after it
    card = code.cardinality(budget)
    e = wenum.cwe(code, budget)
    s = wenum.cwe_to_swe(e)
    p = wenum.swe_to_lee(s)
    ts = wenum.macwilliams_swe(s, card)
    tp = wenum.macwilliams_lee(p, card)
    _print_block("swe transform (dual swe):", ts.format_lines())
    _print_block("lee transform (dual lee):", tp.format_lines())
    fsd = tp == p
    print(f"lee transform fixed point (formally self-dual): {'yes' if fsd else 'no'}")
    failures = []
    if 16 ** code.n <= budget:
        dcwe = wenum.dual_cwe(code, budget)
        ds = wenum.cwe_to_swe(dcwe)
        dp = wenum.swe_to_lee(ds)
        ok_s = ds.terms == ts.terms
        ok_p = dp == tp
        print(f"swe transform equals brute-force dual swe: {'yes' if ok_s else 'NO'}")
        print(f"lee transform equals brute-force dual lee: {'yes' if ok_p else 'NO'}")
        ok_c = _cwe_points_agree(e, dcwe, card, args.points, args.seed)
        print(f"cwe transform evaluations match brute-force dual at {args.points} points: "
              f"{'yes' if ok_c else 'NO'}")
        failures = [name for name, ok in
                    (("swe", ok_s), ("lee", ok_p), ("cwe", ok_c)) if not ok]
    else:
        print("brute-force dual comparison: out of budget")
    if failures:
        raise _Fail(f"transform mismatch: {', '.join(failures)}")


def _cwe_points_agree(e: wenum.CWE, dual: wenum.CWE, card: int, count: int, seed: int) -> bool:
    """The CWE's transform equals the dual's CWE at `count` Gaussian points
    with parts in -3..3, all drawn from one random.Random(seed) stream and
    drawn, evaluated and compared as many points at a time as fit
    `code.SCRATCH_BYTES`, so memory does not grow with `count`."""
    rng = random.Random(seed)
    step = _per_step(4096)  # a point: its drawn parts, GaussianInts and both sides' values
    for s in range(0, count, step):
        width = min(step, count - s)
        parts = rng.choices(range(-3, 4), k=32 * width)
        pts = [[GaussianInt(parts[j], parts[j + 1]) for j in range(32 * i, 32 * i + 32, 2)]
               for i in range(width)]
        if wenum.macwilliams_cwe_eval(e, card, pts) != \
                [GaussianRational.of(v) for v in dual.evaluate(pts)]:
            return False
    return True


def cmd_project(args) -> None:
    code = _load_code(args.gen)
    for label, target, proj in (("constant-part", "Z4", project.project_constant(code)),
                                ("u-coefficient", "Z4", project.project_u_coeff(code)),
                                ("mod-2", "F2+uF2", project.project_mod2(code))):
        _print_block(f"{label} projection ({target}) generator:",
                     (ring.format_vector(row, proj.ring) for row in proj.gen))
        print(f"{label} self-orthogonal: {'yes' if proj.is_self_orthogonal() else 'no'}")


def cmd_lift_check(args) -> None:
    code = _load_code(args.ring_gen)
    d = _load_code(args.z4_gen, Z4)
    e = _load_code(args.f2u_gen, F2U)
    budget = _budget_from(args)
    triple = project.LiftTriple(code, d, e)
    ok = triple.verify_projections(budget)
    print(f"projections match the prescribed codes: {'yes' if ok else 'NO'}")
    report = project.lift_bound_check(triple, budget)
    for ln in report.format_lines():
        print(ln)
    print(f"witness codeword of weight {report.d.value}: {ring.format_vector(report.d.witness)}")
    if not ok or not report.holds:
        raise _Fail("lift check failed")


def cmd_search(args) -> None:
    alphabet = None
    if args.alphabet is not None:
        alphabet = [ring.parse_element(t) for t in args.alphabet.split(",")]
    out = construct.search(args.kind, args.n, alphabet, _budget_from(args),
                           args.threshold, args.threads)
    print(f"kind: {out.kind}")
    print(f"candidates: {out.candidates}")
    print(f"exhaustive over full alphabet: {'yes' if out.exhaustive else 'no'}")
    print(f"best distance: {out.best_distance}")
    print(f"best witness: {out.best_spec.describe()}")
    print(f"results with d >= {args.threshold}: {len(out.results)}")
    for r in out.results:
        print(f"  d={r.distance.value} ({r.distance.label()}) fsd=verified  {r.spec.describe()}")


def cmd_verify_tables(args) -> None:
    reports = construct.verify_tables(args.table, args.max_length,
                                      _budget_from(args))
    bad = 0
    for rep in reports:
        print(rep.format_line())
        bad += 0 if rep.ok else 1
    print(f"rows: {len(reports)}  pass: {len(reports) - bad}  fail: {bad}")
    if bad:
        raise _Fail(f"{bad} table rows failed")


def cmd_self_check(args) -> None:
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    # square classification census
    sq_ok = True
    for x in ring.ELEMENTS:
        expect = {ring.UnitType.NON_UNIT: ring.ZERO,
                  ring.UnitType.TYPE1: ring.ONE,
                  ring.UnitType.TYPE2: ring.make(1, 2)}[ring.unit_type(x)]
        sq_ok &= ring.mul(x, x) == expect
    check("square of every element matches its unit class", sq_ok)

    lee_table = {ring.make(0, 0): 0, ring.make(0, 1): 2, ring.make(0, 2): 4,
                 ring.make(0, 3): 2, ring.make(1, 0): 1, ring.make(1, 1): 3,
                 ring.make(1, 2): 3, ring.make(1, 3): 1, ring.make(2, 0): 2,
                 ring.make(2, 1): 2, ring.make(2, 2): 2, ring.make(2, 3): 2,
                 ring.make(3, 0): 1, ring.make(3, 1): 1, ring.make(3, 2): 3,
                 ring.make(3, 3): 3}
    check("Lee weights of all 16 elements",
          all(ring.lee_weight(x) == w for x, w in lee_table.items()))

    check("unit partition (4 type-1, 4 type-2, 8 non-units)",
          ring.UNITS_TYPE1 == frozenset({ring.make(1, 0), ring.make(3, 0),
                                         ring.make(1, 2), ring.make(3, 2)})
          and ring.UNITS_TYPE2 == frozenset({ring.make(1, 1), ring.make(3, 1),
                                             ring.make(1, 3), ring.make(3, 3)})
          and len(ring.UNITS) == 8)

    gen_char = all(any(ring.character(y) != GaussianInt(1, 0) for y in ring.IDEALS[name])
                   for name in ring.PROPER_NONZERO_IDEALS)
    check("character is nontrivial on all 5 nonzero proper ideals", gen_char)

    table = ring.character_table()
    check("character table is symmetric",
          all(table[i][j] == table[j][i] for i in range(16) for j in range(16)))

    orth = True
    for i in range(16):
        for j in range(16):
            acc = GaussianInt(0, 0)
            for k in range(16):
                acc = acc + table[i][k] * table[j][k].conj()
            orth &= acc == (GaussianInt(16, 0) if i == j else GaussianInt(0, 0))
    check("character table orthogonality T.conj(T)^T = 16 I", orth)

    diffs = ring.character_table_discrepancies()
    print(f"INFO  generated character table vs transcribed copy: "
          f"{len(diffs)} differing entries")
    for i, j, g, t in diffs:
        print(f"INFO    row {i} col {j}: generated {g}, transcribed {t}")

    if failures:
        raise _Fail(f"{len(failures)} self-checks failed")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=7,
                   help="enumeration budget exponent: 16^BUDGET messages (default 7)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for `search` (results are thread-count independent)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it unchanged and
    returns a new namespace on every call."""
    ap = argparse.ArgumentParser(
        prog="z4u",
        description="Linear codes over Z4+uZ4: analysis, transforms, projections, search.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="length, cardinality, distance, duality class, enumerators")
    p.add_argument("--gen", required=True, help="generator matrix file (two-digit tokens)")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gray", help="Z4 image generator and distance")
    p.add_argument("--gen", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gray)

    p = sub.add_parser("dual", help="standard-form and brute-force duals")
    p.add_argument("--gen", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("macwilliams", help="transform outputs and equality verdicts")
    p.add_argument("--gen", required=True)
    p.add_argument("--points", type=int, default=20, help="Gaussian evaluation points")
    p.add_argument("--seed", type=int, default=20120521,
                   help="seed of the Python random.Random that draws the points (earlier "
                        "versions drew them with numpy.random: other points for a seed)")
    _add_common(p)
    p.set_defaults(func=cmd_macwilliams)

    p = sub.add_parser("project", help="the three projections and self-orthogonality")
    p.add_argument("--gen", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("lift-check", help="projection identity and the 2d' / 2d'' bound")
    p.add_argument("--ring-gen", required=True, help="generator over Z4+uZ4")
    p.add_argument("--z4-gen", required=True, help="generator over Z4 (single digits)")
    p.add_argument("--f2u-gen", required=True, help="generator over F2+uF2 (0,1,u,1+u)")
    _add_common(p)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("search", help="sweep dc/bdc codes for high minimum distance")
    p.add_argument("--kind", choices=("dc", "bdc"), required=True)
    p.add_argument("--n", type=int, required=True, help="circulant block order (length is 2n)")
    p.add_argument("--alphabet", default=None,
                   help="comma-separated element tokens restricting first rows")
    p.add_argument("--threshold", type=int, default=0, help="keep results with d >= this")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-tables", help="reproduce the catalogued dc/bdc codes")
    p.add_argument("--table", type=int, choices=(2, 3), required=True)
    p.add_argument("--max-length", type=int, default=26)
    _add_common(p)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("self-check", help="ring and character invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_self_check)

    return ap


def _check_numbers(args) -> None:
    """Reject out-of-range numeric flags (exit 1, like any other bad input),
    before any work: 16^BUDGET is a number of BUDGET / 2 bytes."""
    for flag, low in (("threads", 1), ("points", 0), ("budget", 0), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ValueError(f"--{flag} must be >= {low}, got {value}")
    if args.budget > 64:
        raise ValueError(f"--budget must be <= 64, got {args.budget}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # a usage error: argparse printed the usage and the message to stderr
    try:
        _check_numbers(args)
        args.func(args)
    except _Fail as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceeded, ExpansionTooLarge, ZeroCode, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
