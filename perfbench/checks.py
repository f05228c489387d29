"""Output checks, one per command kind.

Each check reads a command's stdout and returns a list of problems; an
empty list means the output is correct.  Where the answer can be derived
cheaply from the generated inputs (projection generators, Gray image rows,
self-orthogonality of small generators, the distances of small dc codes)
the check recomputes it here rather than trusting the program.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

import inputs

_ROW = re.compile(r"^length\s+(\d+)\s+d=\s*(\d+) \((exact|upper-bound)\)\s+recorded\s+(\d+)"
                  r"\s+(PASS|FAIL)\s+fsd=(\S+)")
_RESULT = re.compile(r"^\s+d=(\d+) \((exact|upper-bound)\) fsd=(\S+)\s+dc first_row=\(([^)]*)\)")
_F2U_TOKENS = ("0", "1", "u", "1+u")


def _field(lines: list[str], prefix: str) -> str | None:
    for ln in lines:
        if ln.startswith(prefix):
            return ln[len(prefix):].strip()
    return None


def _block(lines: list[str], header: str) -> list[str]:
    """Indented lines following a header line."""
    out: list[str] = []
    try:
        i = lines.index(header)
    except ValueError:
        return out
    for ln in lines[i + 1:]:
        if not ln.startswith("  "):
            break
        out.append(ln.strip())
    return out


def _expect(problems: list[str], lines: list[str], prefix: str, want: str) -> None:
    got = _field(lines, prefix)
    if got != want:
        problems.append(f"{prefix!r}: expected {want!r}, got {got!r}")


def verify_tables(out: str, ctx: dict, _done: dict) -> list[str]:
    lines = out.splitlines()
    problems = []
    rows = [m for m in map(_ROW.match, lines) if m]
    if len(rows) != ctx["rows"]:
        problems.append(f"expected {ctx['rows']} table rows, got {len(rows)}")
    for m in rows:
        length, d, flag, recorded, verdict, fsd = m.groups()
        if (flag, verdict, fsd) != ("exact", "PASS", "yes") or d != recorded:
            problems.append(f"row length {length}: d={d} ({flag}) recorded {recorded} "
                            f"{verdict} fsd={fsd}")
    if not lines or not lines[-1].endswith("fail: 0"):
        problems.append(f"summary line is {lines[-1] if lines else None!r}, want '... fail: 0'")
    return problems


def _lee_min_weight(lines: list[str]) -> int | None:
    """Smallest nonzero X-exponent of a printed Lee enumerator block."""
    weights = []
    for ln in _block(lines, "lee transform (dual lee):"):
        exps, _, coeff = ln.partition(" : ")
        x = int(exps.split(",")[1])
        if x and int(coeff):
            weights.append(x)
    return min(weights, default=None)


def macwilliams_dc(out: str, ctx: dict, _done: dict) -> list[str]:
    lines = out.splitlines()
    problems = []
    _expect(problems, lines, "lee transform fixed point (formally self-dual):", "yes")
    # |dual| = 16^n / |C| = 16^(n-k); the dual SWE must count every dual word
    total = sum(int(ln.partition(" : ")[2]) for ln in _block(lines, "swe transform (dual swe):"))
    if total != 16 ** (ctx["n"] - ctx["k"]):
        problems.append(f"dual SWE counts {total} words, expected 16^{ctx['n'] - ctx['k']}")
    return problems


def macwilliams_bruteforce(out: str, _ctx: dict, _done: dict) -> list[str]:
    lines = out.splitlines()
    problems = []
    _expect(problems, lines, "swe transform equals brute-force dual swe:", "yes")
    _expect(problems, lines, "lee transform equals brute-force dual lee:", "yes")
    _expect(problems, lines, "cwe transform evaluations match brute-force dual at 20 points:",
            "yes")
    return problems


def _z4_self_orthogonal(rows: list[list[int]]) -> bool:
    return all(sum(x * y for x, y in zip(r, s)) % 4 == 0 for r in rows for s in rows)


def _f2u_self_orthogonal(rows: list[list[int]]) -> bool:
    # c + ud packed as c | d << 1; (c1 + u d1)(c2 + u d2) = c1 c2 + u (c1 d2 + c2 d1)
    for r in rows:
        for s in rows:
            c = sum((x & 1) * (y & 1) for x, y in zip(r, s)) % 2
            d = sum((x & 1) * (y >> 1) + (y & 1) * (x >> 1) for x, y in zip(r, s)) % 2
            if c or d:
                return False
    return True


def project(out: str, ctx: dict, _done: dict) -> list[str]:
    gen = ctx["gen"]
    a = [[x >> 2 for x in row] for row in gen]
    b = [[x & 3 for x in row] for row in gen]
    mod2 = [[(x >> 2 & 1) | ((x & 1) << 1) for x in row] for row in gen]
    yes = lambda ok: "yes" if ok else "no"
    lines = out.splitlines()
    problems = []
    for label, header, rows, fmt, ok in (
            ("constant-part", "constant-part projection (Z4) generator:", a, str,
             _z4_self_orthogonal(a)),
            ("u-coefficient", "u-coefficient projection (Z4) generator:", a + b, str,
             _z4_self_orthogonal(a + b)),
            ("mod-2", "mod-2 projection (F2+uF2) generator:", mod2,
             lambda x: _F2U_TOKENS[x], _f2u_self_orthogonal(mod2))):
        want = [" ".join(fmt(x) for x in row) for row in rows]
        if _block(lines, header) != want:
            problems.append(f"{label} projection generator differs from the input's")
        _expect(problems, lines, f"{label} self-orthogonal:", yes(ok))
    return problems


def _gray(row: list[int]) -> list[int]:
    """a + ub -> (b_1..b_n, (a+b)_1..(a+b)_n)."""
    return [x & 3 for x in row] + [((x >> 2) + (x & 3)) & 3 for x in row]


def gray(out: str, ctx: dict, done: dict) -> list[str]:
    gen = ctx["gen"]
    n = len(gen[0])
    lines = out.splitlines()
    problems = []
    _expect(problems, lines, "z4-image length:", str(2 * n))
    _expect(problems, lines, "z4-image cardinality:", str(16 ** len(gen)))
    # rows are the images of g and u*g; u(a + ub) = au
    want = []
    for row in gen:
        want.append(" ".join(map(str, _gray(row))))
        want.append(" ".join(map(str, _gray([(x >> 2) for x in row]))))
    if _block(lines, "z4-image generator:") != want:
        problems.append("Z4 image generator differs from the Gray images of the rows")
    got = _field(lines, "z4-image min-lee-distance:")
    # the Lee enumerator printed by macwilliams on the same (isodual) code
    # fixes the minimum distance independently of the distance kernel
    ref = done.get(ctx["distance_from"])
    d = _lee_min_weight(ref.splitlines()) if ref is not None else None
    if got is None or not got.startswith(f"{d} (exact)"):
        problems.append(f"distance line {got!r}, expected {d} (exact) from the Lee enumerator")
    return problems


def lift_check(out: str, _ctx: dict, _done: dict) -> list[str]:
    lines = out.splitlines()
    problems = []
    _expect(problems, lines, "projections match the prescribed codes:", "yes")
    _expect(problems, lines, "d' (Z4 code)    =", "8 (exact)")
    _expect(problems, lines, "d'' (F2+uF2)    =", "8 (exact)")
    _expect(problems, lines, "bound d <= 2*min(d', d'') :", "holds")
    return problems


_ELEMENTS = range(16)
_ADD = np.array([[inputs.add(x, y) for y in _ELEMENTS] for x in _ELEMENTS], dtype=np.uint8)
_MUL = np.array([[inputs.mul(x, y) for y in _ELEMENTS] for x in _ELEMENTS], dtype=np.uint8)
# Lee weight of a + ub is that of its Gray image (b, a + b) over Z4
_LEE = np.array([min(b, 4 - b) + min((a + b) % 4, 4 - (a + b) % 4)
                 for a in range(4) for b in range(4)], dtype=np.int64)


def dc_distances(n: int, alphabet: list[int]) -> dict[tuple[int, ...], int]:
    """Minimum Lee distance of [I | circulant(row)] for every first row.

    A plain sweep over all 16^n messages, with ring tables built from
    inputs.add and inputs.mul, independent of the program's kernel.
    """
    msgs = np.array(list(itertools.product(_ELEMENTS, repeat=n)), dtype=np.uint8)[1:]
    info_weight = _LEE[msgs].sum(axis=1)
    out = {}
    for row in itertools.product(alphabet, repeat=n):
        a = inputs.circulant(list(row))
        weight = info_weight.copy()
        for j in range(n):
            acc = np.zeros(len(msgs), dtype=np.uint8)
            for i in range(n):
                acc = _ADD[acc, _MUL[msgs[:, i], a[i][j]]]
            weight += _LEE[acc]
        out[row] = int(weight.min())
    return out


def search(out: str, ctx: dict, _done: dict) -> list[str]:
    lines = out.splitlines()
    problems = []
    _expect(problems, lines, "candidates:", str(ctx["candidates"]))
    dist = dc_distances(ctx["n"], ctx["alphabet"])
    best = max(dist.values())
    _expect(problems, lines, "best distance:", str(best))
    witness = _field(lines, "best witness:") or ""
    if not any(witness == f"dc first_row=({' '.join(map(inputs.token, row))})"
               for row, d in dist.items() if d == best):
        problems.append(f"best witness {witness!r} does not reach distance {best}")
    kept = [m for m in map(_RESULT.match, lines) if m]
    want = {(" ".join(map(inputs.token, row)), d) for row, d in dist.items()
            if d >= ctx["threshold"]}
    got = {(m.group(4), int(m.group(1))) for m in kept}
    announced = _field(lines, f"results with d >= {ctx['threshold']}:")
    if announced != str(len(want)) or len(kept) != len(want) or got != want:
        problems.append(f"announced {announced} results, listed {len(kept)}; a plain sweep "
                        f"keeps {len(want)}, and {len(got ^ want)} differ")
    for m in kept:
        d, flag, fsd, _row = m.groups()
        if flag != "exact" or fsd != "verified":
            problems.append(f"kept result d={d} ({flag}) fsd={fsd}")
    return problems


CHECKS = {f.__name__: f for f in (verify_tables, macwilliams_dc, macwilliams_bruteforce,
                                  project, gray, lift_check, search)}
