"""Seeded workload inputs: generator files and the argv of every command.

The program only ever sees what this module writes: generator files in the
run's work directory and the argument vectors built here.  The same
(workload, seed) pair always gives byte-identical files and argv.  The ring
product, circulant and token format are written out here rather than taken
from z4u, so neither the inputs nor the checks depend on the code under test.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

#: Seed used when --seed is not given, and the held-out seed for checking a
#: claimed gain on inputs that were not used while the change was written.
DEFAULT_SEED = 20130712
HELD_OUT_SEED = 1307304

WORKLOADS = ("kernel", "enumerators")

#: Every CLI call runs single-threaded; --threads 2 on a shared 2-core box
#: would measure the scheduler.
THREADS = ("--threads", "1")

#: Order of the random circulant block (dc code length 8, 16^4 codewords).
DC_ORDER = 4
#: Size of the Z4 row span of the u-parts of the circulant block: the full
#: 4^4, so the dc code's u-coefficient projection has 4^4 * 256 = 2^16 words
#: for every seed and `project` does the same work whatever the seed.
DC_U_SPAN = 256
#: Shape of the random non-free, non-standard-form generator, and its code
#: size: 16 * 16 from the two free rows, 4 * 4 from the rows scaled by u and
#: by 2.  Fixing it fixes the brute-force dual at 16^5 / 4096 words for every
#: seed.
NONFREE_K, NONFREE_N = 4, 5
NONFREE_SIZE = 4096
#: Search alphabet sizes, drawn from the units: all 8 for the n=3 sweep
#: (8^3 candidates at k=3, 144 of them kept and fsd-checked) and a seeded 2
#: for the n=4 sweep (2^4 candidates at k=4, none reaching the threshold), so
#: the number of fsd checks, and with it the cost, is the same for every seed.
SEARCH_SIZES = {3: 8, 4: 2}

#: The 8 units (a odd).  Seeded first rows and alphabets are drawn from them:
#: codes built from units have rich weight distributions whatever the seed,
#: so the enumerator and transform costs vary little from seed to seed.
UNITS = tuple(x for x in range(16) if (x >> 2) & 1)

_U = 1      # packed value of u
_TWO = 8    # packed value of 2


@dataclass(frozen=True)
class Command:
    name: str               # stable label used in reports and checks
    argv: tuple[str, ...]   # arguments passed to z4u.cli.main
    check: str              # key into checks.CHECKS
    context: dict           # what the check needs to know about the inputs


def token(x: int) -> str:
    """Two-digit element token 'ab' for the packed value 4a + b."""
    return f"{x >> 2}{x & 3}"


def add(x: int, y: int) -> int:
    return ((((x >> 2) + (y >> 2)) & 3) << 2) | ((x + y) & 3)


def mul(x: int, y: int) -> int:
    """Ring product (a1 + u b1)(a2 + u b2) on packed values."""
    a1, b1, a2, b2 = x >> 2, x & 3, y >> 2, y & 3
    return (((a1 * a2) & 3) << 2) | ((a1 * b2 + a2 * b1) & 3)


def circulant(row: list[int]) -> list[list[int]]:
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def dc_generator(first_row: list[int]) -> list[list[int]]:
    """[I | A] with A the circulant of first_row (packed values)."""
    n = len(first_row)
    a = circulant(first_row)
    return [[4 if i == j else 0 for j in range(n)] + a[i] for i in range(n)]


def z4_span_size(rows: list[list[int]]) -> int:
    span = {(0,) * len(rows[0])}
    for r in rows:
        span = {tuple((x + c * y) & 3 for x, y in zip(v, r)) for v in span for c in range(4)}
    return len(span)


def ring_span_size(rows: list[list[int]]) -> int:
    span = {(0,) * len(rows[0])}
    for r in rows:
        span = {tuple(add(x, mul(c, y)) for x, y in zip(v, r)) for v in span for c in range(16)}
    return len(span)


def dc_first_row(rng: random.Random) -> list[int]:
    """Random unit first row whose circulant has u-parts spanning DC_U_SPAN words."""
    while True:
        row = [rng.choice(UNITS) for _ in range(DC_ORDER)]
        if z4_span_size(circulant([x & 3 for x in row])) == DC_U_SPAN:
            return row


def nonfree_generator(rng: random.Random) -> list[list[int]]:
    """Random 4x5 generator of NONFREE_SIZE words, one row times u, one times 2.

    Every row keeps a unit entry before scaling, so neither scaled row is
    zero; the scaled rows also rule out an identity left block.
    """
    while True:
        rows = []
        for _ in range(NONFREE_K):
            row = [rng.randrange(16) for _ in range(NONFREE_N)]
            row[rng.randrange(NONFREE_N)] = rng.choice(UNITS)
            rows.append(row)
        i_u, i_2 = rng.sample(range(NONFREE_K), 2)
        rows[i_u] = [mul(_U, x) for x in rows[i_u]]
        rows[i_2] = [mul(_TWO, x) for x in rows[i_2]]
        if ring_span_size(rows) == NONFREE_SIZE:
            return rows


def matrix_text(rows: list[list[int]], comment: str) -> str:
    body = "\n".join(" ".join(token(x) for x in row) for row in rows)
    return f"# {comment}\n{body}\n"


def _write(path: str, text: str, hashes: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    hashes[os.path.basename(path)] = hashlib.sha256(text.encode()).hexdigest()
    return path


def build(workload: str, seed: int, workdir: str, data_dir: str) -> tuple[list[Command], dict]:
    """Write the workload's inputs under workdir; return commands and input hashes.

    data_dir holds the program's own fixtures (the length-16 lift example).
    """
    rng = random.Random(f"{workload}:{seed}")
    hashes: dict[str, str] = {}
    if workload == "kernel":
        cmds = [Command(f"verify-tables-{t}",
                        ("verify-tables", "--table", str(t), "--max-length", "10") + THREADS,
                        "verify_tables", {"rows": 4})
                for t in (2, 3)]
        for n, threshold in ((3, 6), (4, 8)):
            alphabet = sorted(rng.sample(UNITS, SEARCH_SIZES[n]))
            alpha_arg = ",".join(token(x) for x in alphabet)
            hashes[f"alphabet-n{n}"] = hashlib.sha256(alpha_arg.encode()).hexdigest()
            cmds.append(Command(f"search-dc{n}",
                                ("search", "--kind", "dc", "--n", str(n), "--alphabet",
                                 alpha_arg, "--threshold", str(threshold)) + THREADS,
                                "search", {"n": n, "alphabet": alphabet,
                                           "candidates": len(alphabet) ** n,
                                           "threshold": threshold}))
    elif workload == "enumerators":
        first_row = dc_first_row(rng)
        dc = dc_generator(first_row)
        nf = nonfree_generator(rng)
        dc_path = _write(os.path.join(workdir, "dc8.gen"),
                         matrix_text(dc, "double circulant [I4|A], first row "
                                     + " ".join(token(x) for x in first_row)), hashes)
        nf_path = _write(os.path.join(workdir, "nonfree4x5.gen"),
                         matrix_text(nf, "non-free 4x5 generator (rows scaled by u and 2)"),
                         hashes)
        lift = {f"--{kind}-gen": os.path.join(data_dir, f"lift16_{name}.gen")
                for kind, name in (("ring", "r"), ("z4", "z4"), ("f2u", "f2u"))}
        for path in lift.values():
            with open(path, encoding="utf-8") as fh:
                hashes[os.path.basename(path)] = hashlib.sha256(fh.read().encode()).hexdigest()
        cmds = [
            Command("macwilliams-dc8", ("macwilliams", "--gen", dc_path) + THREADS,
                    "macwilliams_dc", {"n": 2 * DC_ORDER, "k": DC_ORDER}),
            Command("macwilliams-nonfree", ("macwilliams", "--gen", nf_path) + THREADS,
                    "macwilliams_bruteforce", {}),
            Command("project-dc8", ("project", "--gen", dc_path) + THREADS,
                    "project", {"gen": dc}),
            Command("project-nonfree", ("project", "--gen", nf_path) + THREADS,
                    "project", {"gen": nf}),
            Command("gray-dc8", ("gray", "--gen", dc_path) + THREADS,
                    "gray", {"gen": dc, "distance_from": "macwilliams-dc8"}),
            Command("lift-check-16", ("lift-check",) + tuple(
                x for kv in lift.items() for x in kv) + THREADS, "lift_check", {}),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cmds, hashes
