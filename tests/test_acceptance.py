"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The 16^8-scale items (exact distances at length 16, the exact
lift distance and the distance of a non-free 8 x 16 code) are marked slow;
enable with --runslow or Z4U_SLOW=1.  They read the distance off the full
Lee census, not the Lee-level kernel, as its oracle.
"""

import time
from itertools import product

import numpy as np
import pytest

from z4u import ring
from oracles import dual_bruteforce, swe_of_words, sweep_distance
from z4u.code import LinearCode, lee_weight_vector
from z4u.construct import (BDC_TABLE, DC_TABLE, CirculantSpec, BorderSpec,
                           search, symmetric_code, table_specs, verify_tables)
from z4u.gray import gray_image, gray_map, gray_map_inverse
from z4u.project import LiftTriple, lift_bound_check, self_dual_image_report
from z4u.ring import F2U, Z4
from z4u.scalars import GaussianInt, GaussianRational
from z4u.wenum import (CWE, cwe, cwe_to_swe, is_formally_self_dual, lee,
                       macwilliams_cwe_eval, macwilliams_lee, macwilliams_swe,
                       swe_to_lee)

EVAL_POINT_SEED = 20120521

#: Lee weight of every element, the frozen 16-entry reference.
LEE_REFERENCE = {
    "00": 0, "01": 2, "02": 4, "03": 2, "10": 1, "11": 3, "12": 3, "13": 1,
    "20": 2, "21": 2, "22": 2, "23": 2, "30": 1, "31": 1, "32": 3, "33": 3,
}


def R(tok):
    return ring.parse_element(tok)


def z4_lee_weight_vector(v):
    return lee_weight_vector(v, Z4)


def _report(num, started, detail):
    print(f"CRITERION {num} PASS ({time.time() - started:.1f}s): {detail}")


def data_file(name):
    import importlib.resources as res
    return (res.files("z4u") / "data" / name).read_text()


def test_criterion_01_ring_census():
    t0 = time.time()
    for x in ring.ELEMENTS:
        sq = ring.mul(x, x)
        t = ring.unit_type(x)
        if t is ring.UnitType.NON_UNIT:
            assert sq == ring.ZERO
        elif t is ring.UnitType.TYPE1:
            assert sq == ring.ONE
        else:
            assert sq == ring.make(1, 2)
    for tok, w in LEE_REFERENCE.items():
        assert ring.lee_weight(R(tok)) == w
    assert ring.UNITS_TYPE1 == {R("10"), R("30"), R("12"), R("32")}
    assert ring.UNITS_TYPE2 == {R("11"), R("31"), R("13"), R("33")}
    assert len(ring.UNITS) == 8 and ring.UNITS == ring.UNITS_TYPE1 | ring.UNITS_TYPE2
    assert time.time() - t0 < 1.0
    _report(1, t0, "square classification, Lee weight table, unit partition")


def test_criterion_02_character_suite():
    t0 = time.time()
    one = GaussianInt(1, 0)
    for name in ring.PROPER_NONZERO_IDEALS:
        assert any(ring.character(y) != one for y in ring.IDEALS[name])
    t = ring.character_table()
    for i in range(16):
        for j in range(16):
            assert t[i][j] == t[j][i]
            acc = GaussianInt(0, 0)
            for k in range(16):
                acc = acc + t[i][k] * t[j][k].conj()
            assert acc == (GaussianInt(16, 0) if i == j else GaussianInt(0, 0))
    diffs = ring.character_table_discrepancies()
    assert {(i, j) for i, j, _, _ in diffs} == {(7, 15), (8, 16), (15, 7)}
    assert time.time() - t0 < 1.0
    _report(2, t0, "generating character, T symmetric/orthogonal, "
                   f"{len(diffs)} transcription discrepancies reported")


def _macwilliams_family():
    for r in ring.ELEMENTS:
        yield LinearCode([[r]])
    for r1 in ring.ELEMENTS:
        for r2 in ring.ELEMENTS:
            yield LinearCode([[r1, r2]])
    yield LinearCode([[ring.U]])
    yield LinearCode([[ring.U, ring.ZERO], [ring.ZERO, ring.U]])
    rng = np.random.default_rng(EVAL_POINT_SEED)
    for _ in range(50):
        yield LinearCode(rng.integers(0, 16, size=(2, 3), dtype=np.uint8))


def test_criterion_03_macwilliams_suite():
    t0 = time.time()
    rng = np.random.default_rng(EVAL_POINT_SEED)
    points = [[GaussianInt(int(a), int(b))
               for a, b in rng.integers(-3, 4, size=(16, 2))]
              for _ in range(20)]
    count = 0
    for c in _macwilliams_family():
        size = c.cardinality()
        dual = dual_bruteforce(c)
        assert size * len(dual) == 16 ** c.n
        e = cwe(c)
        for pt in points:
            assert macwilliams_cwe_eval(e, size, pt) == \
                GaussianRational.of(CWE.of_words(dual, c.n).evaluate(pt))
        dual_swe = swe_of_words(dual, c.n)
        assert macwilliams_swe(cwe_to_swe(e), size).terms == dual_swe.terms
        assert macwilliams_lee(lee(c), size) == swe_to_lee(dual_swe)
        count += 1
    assert count == 16 + 256 + 2 + 50
    assert time.time() - t0 < 60.0
    _report(3, t0, f"all 3 transforms equal brute-force dual enumerators on {count} codes")


def test_criterion_04_gray_suite():
    t0 = time.time()
    for x in ring.ELEMENTS:
        w = gray_map([x])
        assert z4_lee_weight_vector(w) == ring.lee_weight(x)
        assert gray_map_inverse(w) == (x,)
    rng = np.random.default_rng(4)
    for n in range(2, 9):
        vs = rng.integers(0, 16, size=(10_000 // 7 + 1, n), dtype=np.uint8)
        for v in vs:
            w = gray_map(v)
            assert z4_lee_weight_vector(w) == lee_weight_vector(v)
            assert gray_map_inverse(w) == tuple(int(x) for x in v)
    suite = [LinearCode([[ring.U]]),
             LinearCode([[ring.U, ring.ZERO], [ring.ZERO, ring.U]]),
             LinearCode([[ring.ONE, R("21")]]),
             CirculantSpec((R("20"), R("12"))).build()]
    for c in suite:
        img = gray_image(c)
        assert lee(img).coeffs == lee(c).coeffs
    assert time.time() - t0 < 60.0
    _report(4, t0, "isometry exhaustive at n=1 + 10^4 random vectors over n<=8; "
                   "image Lee enumerators match")


def test_criterion_05_self_dual_image_suite():
    t0 = time.time()
    for k in (1, 2, 3):
        gen = np.full((k, k), ring.ZERO, dtype=np.uint8)
        np.fill_diagonal(gen, ring.U)
        c = LinearCode(gen)
        rep = self_dual_image_report(c)
        assert rep.gray_formally_self_dual
        assert rep.z4_projection_self_orthogonal
        assert rep.f2u_projection_self_orthogonal
        assert rep.all_2u_vector_present
        assert rep.unit_counts_even
    assert time.time() - t0 < 10.0
    _report(5, t0, "direct sums of <u>: image formal duality, projection "
                   "self-orthogonality, all-2u vector, unit parity")


def test_criterion_06_lift_example():
    t0 = time.time()
    c = LinearCode.from_text(data_file("lift16_r.gen"))
    d = LinearCode.from_text(data_file("lift16_z4.gen"), Z4)
    e = LinearCode.from_text(data_file("lift16_f2u.gen"), F2U)
    for proj in (d, e):                    # Lee levels, within 4^8 messages
        dp = proj.min_lee_distance()
        assert dp.exact and dp.value == 8
        assert proj.contains([dp.witness]).all()
        assert lee_weight_vector(dp.witness, proj.ring) == 8
    res = c.min_lee_distance()             # Lee levels 5/5, not 16^8 messages
    assert res.exact and res.value == 12 and res.lower_bound == 12
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness) == 12
    rep = lift_bound_check(LiftTriple(c, d, e))
    assert rep.holds and rep.d == res and rep.d_z4.value == 8 and rep.d_f2u.value == 8
    _report(6, t0, "d(D)=8 and d(E)=8 exact, d=12 exact with a weight-12 codeword, "
                   "12 <= 16 bound holds")


@pytest.mark.slow
def test_criterion_06_slow_exact_lift_distance():
    t0 = time.time()
    c = LinearCode.from_text(data_file("lift16_r.gen"))
    value = sweep_distance(c, threads=2)
    assert value == 12 == c.min_lee_distance().value
    _report(6, t0, "slow lane: lift distance 12 is exact over all 16^8 messages")


@pytest.mark.slow
def test_slow_nonfree8_distance_matches_census():
    # rows no free basis: the partial information sets certify d = 8 within
    # the default budget; the oracle sweeps all 16^8 messages
    t0 = time.time()
    c = LinearCode.from_text(data_file("nonfree8.gen"))
    res = c.min_lee_distance()
    assert res.exact and res.value == 8
    assert sweep_distance(c, threads=2) == 8
    print(f"SLOW PASS ({time.time() - t0:.1f}s): non-free 8 x 16 distance 8 "
          "equals the 16^8-message census")


def _check_table(num, table, expect_exact, t0):
    reports = verify_tables(table, max_length=26)  # raises if an isodual map fails
    by_len = {r.length: r for r in reports}
    assert sorted(by_len) == sorted(expect_exact)
    for length, d in expect_exact.items():
        r = by_len[length]
        assert r.got.exact and r.got.lower_bound == r.got.value == d and r.ok, (length, r)
    _report(num, t0, f"table {table}: lengths {sorted(expect_exact)} exact, "
                     "all match recorded d; every row certified isodual")


def test_criterion_07_table2_reproduction():
    t0 = time.time()
    _check_table(7, 2,
                 expect_exact={4: 4, 6: 6, 8: 8, 10: 8, 12: 10, 14: 11,
                               16: 12, 18: 12, 20: 14, 22: 14, 24: 14, 26: 15},
                 t0=t0)


@pytest.mark.slow
def test_criterion_07_slow_table2_length16():
    t0 = time.time()
    c = next(CirculantSpec(row) for ln, row, d in DC_TABLE if ln == 16).build()
    value = sweep_distance(c, threads=2)
    assert value == 12 == c.min_lee_distance().value
    _report(7, t0, "slow lane: table 2 length 16 exact d=12")


def test_criterion_08_table3_reproduction():
    t0 = time.time()
    _check_table(8, 3,
                 expect_exact={4: 4, 6: 6, 8: 8, 10: 8, 12: 10, 14: 10,
                               16: 11, 18: 12, 20: 12, 22: 14, 24: 14},
                 t0=t0)


@pytest.mark.slow
def test_criterion_08_slow_table3_length16():
    t0 = time.time()
    length, row, abg, d = next(r for r in BDC_TABLE if r[0] == 16)
    c = BorderSpec(row, *abg).build()
    value = sweep_distance(c, threads=2)
    assert value == 11 == c.min_lee_distance().value
    _report(8, t0, "slow lane: table 3 length 16 exact d=11")


def test_criterion_09_formal_self_duality_of_constructions():
    t0 = time.time()
    checked = 0
    for table in (2, 3):
        for length, spec, _ in table_specs(table):
            if length > 12:
                continue
            c = spec.build()
            assert is_formally_self_dual(c), spec
            checked += 1
            if length <= 8:
                assert is_formally_self_dual(gray_image(c)), spec
    sym = symmetric_code([[ring.U]])
    assert is_formally_self_dual(sym)
    assert is_formally_self_dual(gray_image(sym))
    sym2 = symmetric_code([[ring.ZERO, R("11")], [R("11"), R("20")]])
    assert is_formally_self_dual(sym2)
    assert is_formally_self_dual(gray_image(sym2))
    checked += 2
    negative = LinearCode([[R("20"), ring.ZERO]])
    assert not is_formally_self_dual(negative)
    assert time.time() - t0 < 60.0
    _report(9, t0, f"{checked} constructed codes pass the transform fixed point; "
                   "gray images pass at length <= 8; negative control fails")


def test_criterion_10_search_sanity():
    t0 = time.time()
    out1 = search("dc", 2, threshold=4, threads=1)
    out2 = search("dc", 2, threshold=4, threads=2)
    assert out1 == out2
    assert out1.exhaustive and out1.candidates == 256
    assert out1.best_distance == 4
    # the catalogued first row attains the optimum (lexicographic tie allowed)
    assert any(r.spec.first_row == (R("20"), R("12")) and r.distance.value == 4
               for r in out1.results)
    # oracle: the witness is the first row in lexicographic order reaching 4
    oracle = next(rw for rw in product(ring.ELEMENTS, repeat=2)
                  if CirculantSpec(rw).build().min_lee_distance().value == 4)
    assert out1.best_spec.first_row == oracle
    _report(10, t0, "exhaustive dc n=2 search: best d=4, lex-smallest witness, "
                    "thread-count independent")
