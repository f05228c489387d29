"""CLI stdout against recorded files.

The files under tests/golden/ hold the full stdout of each command as the
CLI printed it before the deduplicated codeword store was replaced by
counts over all messages.  The two search files were recorded from the
per-candidate search, before it evaluated one candidate per isometry
orbit: every result line, and the best witness, must come out the same
when members carry their representative's result.  `analyze_nonfree8` was
recorded once codes whose rows are no free basis were sized and bounded on
partial information sets; before that, the command exited 1 on it (a full
16^8-message census past the budget).  `search_bdc3` (8192 bdc candidates
over the 8 units, 1728 orbit representatives) was recorded from the search
that evaluated one representative per distance call, before
representatives were batched.  `macwilliams_nonfree4x5` and
`dual_nonfree4x5` (the benchmark's non-free 4x5 generator, 256 dual words
listed in order) were recorded from the size^n dual sweep and the
per-term Gaussian evaluation, before the dual became a meet-in-the-middle
join and the evaluation a batched residue computation.  `verify_tables2`
and `verify_tables3` (both tables to length 26), `search_dc4_open` and
`search_dc4_open_budget3` (dc n = 4 over `11,31`, whose orbits leave the
alphabet, at the default budget and at 16^3 messages) and `search_dc4`
(dc n = 4 over all 16 elements, 65536 candidates; about 11 s then, under
2 s since the batched kernel and the stacked search, and CI also compares
it with `cmp`) were recorded from
the search that listed one spec object per candidate and certified each
representative by a dual-membership product, before candidates, orbits
and certificates moved onto stacked arrays.  `search_bdc4_open` (bdc
n = 4 over `02,11,20,22`, 1280 candidates: three self-negating betas, one
gamma row each, and -11 = 33 outside the alphabet, so orbits leave it)
was recorded from the search that looked images up by sorted row keys,
before their indices became arithmetic on alphabet places; CI also
compares it with `cmp`.  Faster paths may change how results are
computed, never what is printed; a change that means to alter stdout
updates the files on purpose.
"""

import os

import pytest

from test_cli import gen_path, run_cli
from z4u import code as code_module

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

LIFT16 = ("--ring-gen", gen_path("lift16_r.gen"), "--z4-gen", gen_path("lift16_z4.gen"),
          "--f2u-gen", gen_path("lift16_f2u.gen"))

CASES = [(f"{cmd}_u", (cmd, "--gen", gen_path("u.gen")))
         for cmd in ("analyze", "dual", "macwilliams", "gray", "project")]
CASES += [(f"{cmd}_nonfree4x5", (cmd, "--gen", gen_path("nonfree4x5.gen")))
          for cmd in ("macwilliams", "dual")]
CASES.append(("analyze_nonfree8", ("analyze", "--gen", gen_path("nonfree8.gen"))))
CASES.append(("lift_check_lift16", ("lift-check",) + LIFT16))
CASES.append(("search_dc3", ("search", "--kind", "dc", "--n", "3", "--threshold", "6")))
CASES.append(("search_bdc2", ("search", "--kind", "bdc", "--n", "2", "--threshold", "4")))
CASES.append(("search_bdc3", ("search", "--kind", "bdc", "--n", "3", "--alphabet",
                              "01,03,11,13,21,23,31,33", "--threshold", "6")))
CASES += [(f"verify_tables{t}", ("verify-tables", "--table", str(t), "--max-length", "26"))
          for t in (2, 3)]
OPEN_DC4 = ("search", "--kind", "dc", "--n", "4", "--alphabet", "11,31", "--threshold", "8")
CASES.append(("search_dc4_open", OPEN_DC4))
CASES.append(("search_dc4_open_budget3", OPEN_DC4 + ("--budget", "3")))
CASES.append(("search_dc4", ("search", "--kind", "dc", "--n", "4", "--threshold", "8")))
CASES.append(("search_bdc4_open", ("search", "--kind", "bdc", "--n", "4", "--alphabet",
                                   "02,11,20,22", "--threshold", "6")))


def _golden(name):
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, argv):
    status, out = run_cli(*argv)
    assert status == 0
    assert out == _golden(name)


#: The goldens of about a second at the default scratch bound.
SMALL_STEPS = {name for name, _ in CASES if name.endswith(("_u", "_nonfree4x5"))} | {
    "lift_check_lift16", "search_dc3", "search_bdc2", "search_dc4_open",
    "search_dc4_open_budget3"}


def test_stdout_independent_of_scratch_bound(monkeypatch):
    # every streamed loop in steps of 4 KB: span blocks of 16^2 rows, joins
    # of 256 pairs, kernel parts of one code, sort passes of 256 keys,
    # evaluations of 85 terms at a point, one MacWilliams point at a time
    # and orbit slices of a few dozen candidates print the same bytes
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 4096)
    cases = [(name, argv) for name, argv in CASES if name in SMALL_STEPS]
    assert len(cases) == len(SMALL_STEPS) == 12
    for name, argv in cases:
        assert run_cli(*argv) == (0, _golden(name)), name
