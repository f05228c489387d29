import importlib.resources as res
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (chain_levels, chunk_keys, compositions, cwe_value, dual_bruteforce,
                     span_blocks, swe_of_words, swe_substitution)
from z4u import code as code_module
from z4u import ring, wenum
from z4u.code import LinearCode, identity, pack_rows
from z4u.errors import ExpansionTooLarge, NonExactDivision
from z4u.scalars import GaussianInt, GaussianRational
from z4u.wenum import (CWE, SWE, LeePoly, cwe, cwe_to_swe,
                       is_formally_self_dual, lee, macwilliams_cwe_eval,
                       macwilliams_lee, macwilliams_swe, swe_to_lee,
                       swe_transform_forms)


def R(tok):
    return ring.parse_element(tok)


def u_code():
    return LinearCode([[ring.U]])


# ---------------------------------------------------------------------------
# Construction and the specialization tower
# ---------------------------------------------------------------------------

def test_cwe_of_u():
    e = cwe(u_code())
    # codewords 0, u, 2u, 3u occupy the first four canonical variables
    def mono(i):
        v = [0] * 16
        v[i] = 1
        return tuple(v)
    assert e.terms == {mono(0): 1, mono(1): 1, mono(2): 1, mono(3): 1}


def test_cwe_zero_code_has_x1_power_n():
    c = LinearCode([[ring.ZERO] * 3])
    e = cwe(c)
    assert e.terms == {(3,) + (0,) * 15: 1}


def test_cwe_counts_past_255_do_not_wrap():
    # four codewords, each the image of four messages, of length 300
    e = cwe(LinearCode([[ring.U] * 300]))
    assert e.terms == {(0,) * i + (300,) + (0,) * (15 - i): 1 for i in range(4)}
    words = np.array([[0] * 300, [ring.U] * 300], dtype=np.uint8)
    assert CWE.of_words(words, 300).terms == {(300,) + (0,) * 15: 1,
                                              (0, 300) + (0,) * 14: 1}


@pytest.mark.parametrize("n", [1, 7, 13, 15, 16, 20, 300])
def test_composition_keys_match_counter(n, monkeypatch):
    # one uint64 key while n <= 15 (13 and 15 leave a last chunk of 1 and 3
    # coordinates), two past it, four past 255: the compositions, counts
    # and order of a Counter, also when small passes make the stream merge
    # many times
    rng = np.random.default_rng(n)
    words = rng.integers(0, 16, size=(3000, n), dtype=np.uint8)
    words[:16] = np.arange(16, dtype=np.uint8)[:, None]  # count n of each element
    words[16:40, :n // 2] = 0
    # passes of 256 keys of 16 bytes per uint64 word
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 256 * 16 * (wenum._field_bits(n) // 4))
    blocks = [wenum._composition_keys(pack_rows(part), n, n) for part in np.split(words, [1000])]
    got, want = wenum._compositions(blocks, n), compositions(words, n)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert got[1].sum() == len(words)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_chunk_keys_match_gather_oracle(bits):
    # count fields of 4 bits (n <= 15), 8 (n <= 255) and 16: the table built
    # in place by broadcasting against four gathers summed
    got, want = wenum._chunk_keys.__wrapped__(bits), chunk_keys(bits)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [5, 16, 300])
def test_chain_matches_repeat_oracle(n):
    # counts of one byte (n = 5, 16) and two (300); terms of one element
    # repeated n times, and many terms sharing a prefix of zeros
    rng = np.random.default_rng(300 + n)
    words = rng.integers(0, 16, size=(400, n), dtype=np.uint8)
    words[:16] = np.arange(16, dtype=np.uint8)[:, None]
    words[16:200, :n - 2] = 0
    e = CWE.of_words(words, n)
    got, want = e._chain, chain_levels(e.comps, n)
    assert len(got) == len(want) == n
    for (g_elem, g_parent), (w_elem, w_parent) in zip(got, want):
        assert np.array_equal(g_elem, w_elem) and np.array_equal(g_parent, w_parent)


def _free_or_scaled(k, n, free, seed):
    """A random [I_k | A] generator, or random rows with the first two times
    u and 2, so they are no free basis."""
    rng = np.random.default_rng(seed)
    if free:
        return np.hstack([identity(k), rng.integers(0, 16, size=(k, n - k), dtype=np.uint8)])
    gen = rng.integers(0, 16, size=(k, n), dtype=np.uint8)
    gen[0], gen[1] = ring.R.MUL[ring.U, gen[0]], ring.R.MUL[ring.make(2, 0), gen[1]]
    return gen


@pytest.mark.parametrize("free", [True, False], ids=["free", "nonfree"])
@pytest.mark.parametrize("n", [5, 15, 16, 20])
def test_cwe_matches_counter_oracle(n, free):
    # the composition census of every message's codeword (byte-table span),
    # each divided by the zero word's count, terms in the same order
    c = LinearCode(_free_or_scaled(3, n, free, n))
    words = np.concatenate([blk for _, blk in span_blocks(c.gen)])
    comps, counts = compositions(words, n)
    e = cwe(c)
    assert e.comps.dtype == comps.dtype and np.array_equal(e.comps, comps)
    assert np.array_equal(e.counts, counts // counts[comps[:, 0] == n][0])
    assert e.counts.sum() == c.cardinality()


@pytest.mark.parametrize("table", [ring.Z4, ring.F2U])
def test_cwe_rejects_rings_other_than_r(table):
    # the 16 CWE variables are R's elements: Z4 or F2+uF2 values would be
    # read as 0, u, 2u, 3u and give a wrong Lee enumerator
    with pytest.raises(ValueError):
        cwe(LinearCode([[1, 1]], table))


def test_cwe_all_ones_evaluation_is_cardinality():
    for gen in ([[ring.U]], [[ring.ONE, R("21")]], [[R("20"), R("12")]]):
        c = LinearCode(gen)
        e = cwe(c)
        ones = [GaussianInt(1, 0)] * 16
        assert e.evaluate(ones) == GaussianInt(c.cardinality(), 0)


def test_cwe_homogeneous_and_zero_term():
    c = LinearCode([[ring.ONE, R("13")]])
    e = cwe(c)
    for exps, coeff in e.terms.items():
        assert sum(exps) == 2
        assert coeff > 0
    assert e.terms[(2,) + (0,) * 15] >= 1


def test_cwe_to_swe_of_u():
    s = cwe_to_swe(cwe(u_code()))
    # X + 2S + Y
    assert s.terms == {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 2, (0, 1, 0, 0, 0): 1}


def test_cwe_to_swe_full_space():
    s = cwe_to_swe(cwe(LinearCode([[ring.ONE]])))
    # X + Y + 4W + 4Z + 6S
    assert s.terms == {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 1,
                       (0, 0, 1, 0, 0): 4, (0, 0, 0, 1, 0): 4,
                       (0, 0, 0, 0, 1): 6}


def test_swe_to_lee_of_u():
    p = swe_to_lee(cwe_to_swe(cwe(u_code())))
    assert p.coeffs == (1, 0, 2, 0, 1)  # W^4 + 2 W^2 X^2 + X^4


def test_swe_to_lee_zero_code():
    p = swe_to_lee(SWE(2, {(2, 0, 0, 0, 0): 1}))
    assert p.coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 0)  # W^8


def test_swe_to_lee_full_space_is_binomial():
    p = swe_to_lee(cwe_to_swe(cwe(LinearCode([[ring.ONE]]))))
    # direct census oracle over all 16 elements
    census = [0] * 5
    for x in ring.ELEMENTS:
        census[ring.lee_weight(x)] += 1
    assert p.coeffs == tuple(census) == (1, 4, 6, 4, 1)


def test_lee_census_path_matches_tower():
    rng = np.random.default_rng(61)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
        c = LinearCode(gen)
        assert lee(c) == swe_to_lee(cwe_to_swe(cwe(c)))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_element_class_assignment():
    # canonical indices (1-based) -> variables: 1 -> X; 3 -> Y;
    # 6,7,15,16 -> Z; 5,8,13,14 -> W; 2,4,9,10,11,12 -> S
    from z4u.wenum import ELEMENT_CLASS
    groups = {0: [1], 1: [3], 2: [6, 7, 15, 16], 3: [5, 8, 13, 14],
              4: [2, 4, 9, 10, 11, 12]}
    for cls, indices in groups.items():
        for i in indices:
            assert ELEMENT_CLASS[i - 1] == cls


def test_lee_poly_total_is_cardinality():
    rng = np.random.default_rng(103)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 2), dtype=np.uint8)
        c = LinearCode(gen)
        p = lee(c)
        assert p.total() == c.cardinality()
        assert all(v >= 0 for v in p.coeffs)


def test_swe_transform_forms_values():
    # rows are the images of X, Y, Z, W, S in variable order (X, Y, Z, W, S)
    assert swe_transform_forms() == (
        (1, 1, 4, 4, 6),
        (1, 1, -4, -4, 6),
        (1, -1, 2, -2, 0),
        (1, -1, -2, 2, 0),
        (1, 1, 0, 0, -2),
    )


def test_swe_forms_at_all_ones():
    forms = swe_transform_forms()
    assert tuple(sum(f) for f in forms) == (16, 0, 0, 0, 0)


def test_cwe_eval_at_ones_gives_dual_size():
    for gen in ([[ring.U]], [[R("20"), R("12")]]):
        c = LinearCode(gen)
        e = cwe(c)
        ones = [GaussianInt(1, 0)] * 16
        val = macwilliams_cwe_eval(e, c.cardinality(), ones)
        dual_size = 16 ** c.n // c.cardinality()
        assert val == GaussianRational.of(dual_size)


def test_cwe_eval_matches_dual_at_random_points():
    rng = np.random.default_rng(20120521)
    for gen in ([[ring.U]], [[ring.ONE, R("12")]], [[R("20"), R("01")]]):
        c = LinearCode(gen)
        e = cwe(c)
        dual = dual_bruteforce(c)
        dual_cwe = CWE.of_words(dual, c.n)
        for _ in range(20):
            pt = [GaussianInt(int(a), int(b))
                  for a, b in rng.integers(-3, 4, size=(16, 2))]
            assert macwilliams_cwe_eval(e, c.cardinality(), pt) == \
                GaussianRational.of(dual_cwe.evaluate(pt))


def test_cwe_eval_rational_points():
    c = u_code()
    e = cwe(c)
    pt = [GaussianRational(Fraction(1, 2), Fraction(k, 3)) for k in range(16)]
    dual_cwe = CWE.of_words(dual_bruteforce(c), 1)
    assert macwilliams_cwe_eval(e, 4, pt) == \
        dual_cwe.evaluate(pt) / GaussianRational.of(1)


def test_cwe_eval_non_exact_division():
    e = cwe(u_code())
    pt = [GaussianInt(1, 0)] * 16
    with pytest.raises(NonExactDivision):
        macwilliams_cwe_eval(e, 3, pt)  # wrong size


def test_macwilliams_swe_zero_code():
    s = SWE(1, {(1, 0, 0, 0, 0): 1})  # zero code of length 1, size 1
    t = macwilliams_swe(s, 1)
    # dual is the full space: X + Y + 4W + 4Z + 6S
    assert t.terms == {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 1,
                       (0, 0, 1, 0, 0): 4, (0, 0, 0, 1, 0): 4,
                       (0, 0, 0, 0, 1): 6}


def test_macwilliams_swe_self_dual_fixed_point():
    s = cwe_to_swe(cwe(u_code()))
    assert macwilliams_swe(s, 4).terms == s.terms


def test_macwilliams_swe_matches_dual_census():
    rng = np.random.default_rng(67)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(1, 2), dtype=np.uint8)
        c = LinearCode(gen)
        t = macwilliams_swe(cwe_to_swe(cwe(c)), c.cardinality())
        dual = dual_bruteforce(c)
        assert t.terms == swe_of_words(dual, c.n).terms


def _random_swe(rng, n, terms):
    out = {}
    for _ in range(terms):
        cuts = np.sort(rng.integers(0, n + 1, size=4))
        exps = tuple(int(x) for x in np.diff(np.concatenate(([0], cuts, [n]))))
        out[exps] = out.get(exps, 0) + int(rng.integers(-50, 51))
    return SWE(n, {e: c for e, c in out.items() if c})


def test_macwilliams_swe_matches_substitution_oracle():
    # the step chain against the five forms substituted and fully expanded
    rng = np.random.default_rng(83)
    forms = swe_transform_forms()
    for n in range(1, 9):
        for _ in range(3):
            s = _random_swe(rng, n, int(rng.integers(1, 9)))
            assert macwilliams_swe(s, 1).terms == swe_substitution(s.terms, forms)


def test_macwilliams_swe_involution_at_length_16():
    # F F = 16 I, so transforming twice scales by 16^n
    rng = np.random.default_rng(89)
    s = _random_swe(rng, 16, 40)
    assert macwilliams_swe(macwilliams_swe(s, 1), 16 ** 16).terms == s.terms


def test_swe_step_chain_composes_to_transform_forms(monkeypatch):
    # each variable goes to its row of the form matrix derived from the
    # character table, and the check refuses a matrix the chain does not give
    forms = swe_transform_forms()
    unit = [tuple(int(c == v) for c in range(5)) for v in range(5)]
    for v in range(5):
        assert macwilliams_swe(SWE(1, {unit[v]: 1}), 1).terms == \
            {unit[c]: f for c, f in enumerate(forms[v]) if f}
    wrong = tuple(row if v != 4 else (1, 1, 0, 0, 2) for v, row in enumerate(forms))
    monkeypatch.setattr(wenum, "swe_transform_forms", lambda: wrong)
    with pytest.raises(AssertionError):
        wenum._check_swe_substitution.__wrapped__()


def test_cwe_evaluate_matches_gaussian_oracle():
    rng = np.random.default_rng(97)
    for _ in range(6):
        gen = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
        e = cwe(LinearCode(gen))
        for _ in range(3):
            pt = [GaussianInt(int(a), int(b)) for a, b in rng.integers(-5, 6, size=(16, 2))]
            val = e.evaluate(pt)
            assert isinstance(val, GaussianInt) and val == cwe_value(e.terms, pt)
            qt = [GaussianRational(Fraction(int(a), int(c)), Fraction(int(b), int(c)))
                  for a, b, c in rng.integers(1, 7, size=(16, 3))]
            assert e.evaluate(qt) == cwe_value(e.terms, qt)
            assert e.evaluate(pt[:8] + qt[8:]) == cwe_value(e.terms, pt[:8] + qt[8:])


def _huge_points(rng, magnitude):
    """Random Gaussian points with parts up to `magnitude`, and points of
    16 equal coordinates M, -M and iM, where a CWE's value is the bound
    |C| M^n its evaluation is sized by (negative for -M at odd n)."""
    pts = [[GaussianInt(int(a), int(b)) for a, b in rng.integers(-magnitude, magnitude + 1,
                                                                  size=(16, 2))]
           for _ in range(3)]
    for m in (magnitude, magnitude - 1, 3 ** 13, 2 ** 31 - 1):
        pts += [[GaussianInt(m, 0)] * 16, [GaussianInt(-m, 0)] * 16, [GaussianInt(0, m)] * 16]
    return pts


@pytest.mark.parametrize("n", range(1, 8))
def test_batched_evaluate_matches_oracle_at_huge_points(n, monkeypatch):
    # at n = 7 and parts up to 10^6 the values pass 2^62, so the residues
    # take at least three primes; one point per pass must give the same
    rng = np.random.default_rng(200 + n)
    e = cwe(LinearCode(rng.integers(0, 16, size=(2, n), dtype=np.uint8)))
    pts = _huge_points(rng, 10 ** 6)
    got = e.evaluate(pts)
    assert got == [cwe_value(e.terms, pt) for pt in pts]
    assert all(isinstance(v, GaussianInt) for v in got)
    assert got[3] == GaussianInt(sum(e.terms.values()) * 10 ** (6 * n), 0)
    if n == 7:
        assert max(abs(v.re) + abs(v.im) for v in got) > 2 ** 62
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 8 * wenum._EVAL_ARRAYS * len(e.counts))
    assert e.evaluate(pts) == got


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_evaluate_at_bound_around_2_63(above, monkeypatch):
    # a bound B just below 2^63 reads back from the residues modulo 2^64
    # alone; at 2^63 and past it one odd prime joins them by the CRT.  The
    # reference is Gaussian arithmetic on Python ints.  A one-term CWE at
    # one point keeps the wrapping chain on arrays (numpy warns on scalar
    # wraparound).
    used = []
    primes = wenum._residue_primes
    monkeypatch.setattr(wenum, "_residue_primes", lambda count: used.append(count) or primes(count))
    one = CWE(3, np.array([[0] * 15 + [3]], np.uint8), np.array([1], np.int64))
    side = 2 ** 21 - 1 + above  # the bound is side^3, and (2^21)^3 = 2^63
    for pt in ([GaussianInt(0, 0)] * 15 + [GaussianInt(side - 1, -1)],
               [GaussianInt(0, 0)] * 15 + [GaussianInt(-side, 0)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one.evaluate(pt) == cwe_value(one.terms, pt)
    e = cwe(LinearCode(np.random.default_rng(5).integers(0, 16, size=(2, 3), dtype=np.uint8)))
    size = sum(e.terms.values())
    # |C| L^3 just below or just above 2^63, with coordinates of both signs
    side = round((2 ** 63 / size) ** (1 / 3))
    while size * side ** 3 >= 2 ** 63:
        side -= 1
    while size * (side + 1) ** 3 < 2 ** 63:
        side += 1
    side += above
    rng = np.random.default_rng(7)
    pts = [[GaussianInt(side, 0)] * 16, [GaussianInt(0, -side)] * 16,
           [GaussianInt(int(a), side - abs(int(a))) for a in rng.integers(-side, side, 16)]]
    assert e.evaluate(pts) == [cwe_value(e.terms, pt) for pt in pts]
    assert (max(used) > 0) == above


def test_batched_evaluate_matches_oracle_at_rational_points():
    rng = np.random.default_rng(211)
    for n in (1, 4, 7):
        e = cwe(LinearCode(rng.integers(0, 16, size=(2, n), dtype=np.uint8)))
        pts = [[GaussianRational(Fraction(int(a), int(d)), Fraction(int(b), int(d)))
                for a, b, d in zip(*rng.integers(-10 ** 6, 10 ** 6, size=(2, 16)),
                                   rng.integers(1, 10 ** 4, size=16))]
               for _ in range(4)]
        pts.append([GaussianInt(1, -2)] * 15 + [GaussianRational(Fraction(1, 3), Fraction(0))])
        got = e.evaluate(pts)
        assert got == [cwe_value(e.terms, pt) for pt in pts]
        assert all(isinstance(v, GaussianRational) for v in got)


def test_batched_transform_matches_dual_and_single_points():
    rng = np.random.default_rng(223)
    c = LinearCode([[R("22"), R("02"), R("22"), R("00"), R("22")],
                    [R("03"), R("01"), R("02"), R("02"), R("03")],
                    [R("11"), R("33"), R("13"), R("23"), R("21")]])
    e, size = cwe(c), c.cardinality()
    dual_cwe = CWE.of_words(dual_bruteforce(c), c.n)
    pts = _huge_points(rng, 10 ** 5)
    got = macwilliams_cwe_eval(e, size, pts)
    assert got == [GaussianRational.of(v) for v in dual_cwe.evaluate(pts)]
    assert got[:4] == [macwilliams_cwe_eval(e, size, pt) for pt in pts[:4]]
    assert macwilliams_cwe_eval(e, size, []) == [] and dual_cwe.evaluate([]) == []
    with pytest.raises(NonExactDivision):
        macwilliams_cwe_eval(e, size + 1, pts)


def _nonfree4x5():
    c = LinearCode.from_file(str(res.files("z4u") / "data" / "nonfree4x5.gen"))
    return c, cwe(c), c.cardinality()


def test_evaluation_passes_do_not_change_values(monkeypatch):
    # 2,424 terms take a few points per pass by default, and both small and
    # huge points (several prime residues); one point per pass must give
    # the same values
    c, e, size = _nonfree4x5()
    dual = wenum.dual_cwe(c)
    pts = _huge_points(np.random.default_rng(229), 10 ** 5)
    pts += [[GaussianInt(int(a), int(b)) for a, b in row]
            for row in np.random.default_rng(233).integers(-3, 4, size=(30, 16, 2))]
    assert len(e.counts) == 2424
    assert 1 < code_module._per_step(8 * wenum._EVAL_ARRAYS * len(e.counts)) < len(pts)
    want = e.evaluate(pts), dual.evaluate(pts), macwilliams_cwe_eval(e, size, pts)
    assert want[2] == [GaussianRational.of(v) for v in want[1]]

    def one_point(f, cwe, *args):
        """f(*args) under the bound of one point of all of `cwe`'s terms."""
        monkeypatch.setattr(code_module, "SCRATCH_BYTES", 8 * wenum._EVAL_ARRAYS * len(cwe.counts))
        return f(*args)

    assert (one_point(e.evaluate, e, pts), one_point(dual.evaluate, dual, pts),
            one_point(macwilliams_cwe_eval, e, e, size, pts)) == want


def test_evaluation_pass_stays_within_eval_cells():
    # every temporary of a pass together, not each one, within
    # SCRATCH_BYTES: 40 points of 2,424 terms, the chain built beforehand
    _, e, _ = _nonfree4x5()
    pts = [[GaussianInt(int(a), int(b)) for a, b in row]
           for row in np.random.default_rng(239).integers(-3, 4, size=(40, 16, 2))]
    ints = wenum._integral(pts)[1]
    e._chain
    tracemalloc.start()
    try:
        e._values(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= code_module.SCRATCH_BYTES + (64 << 10)


def random_cwe(terms, n):
    """A CWE of `terms` distinct random compositions of length-n words, in
    byte order, with random counts: built straight from its arrays."""
    rng = np.random.default_rng(terms)
    comps = np.zeros((0, 16), np.uint8)
    while len(comps) < terms:
        words = rng.integers(0, 16, size=(terms, n))
        more = np.zeros((terms, 16), np.uint8)
        np.add.at(more, (np.arange(terms)[:, None], words), 1)
        comps = np.unique(np.concatenate([comps, more]), axis=0)
    comps = comps[np.sort(rng.choice(len(comps), terms, replace=False))]
    return CWE(n, comps, rng.integers(1, 100, size=terms))


def test_evaluation_in_term_ranges_matches_one_range(monkeypatch):
    # 30,000 terms are more than one point's pass holds: three ranges of
    # 13,107 terms (ten 64-bit cells a term), one point a pass, whose sums
    # modulo 2^64 and the primes equal those of one range of all terms, and
    # every pass, not only each array, stays within SCRATCH_BYTES
    e = random_cwe(30000, 12)
    pts = _huge_points(np.random.default_rng(241), 10 ** 5)[:4] + [
        [GaussianInt(int(a), int(b)) for a, b in row]
        for row in np.random.default_rng(251).integers(-3, 4, size=(2, 16, 2))]
    ints = wenum._integral(pts)[1]
    assert len(e._ranges(code_module._per_step(8 * (wenum._EVAL_ARRAYS + 4)))) == 3
    e._chain
    tracemalloc.start()
    try:
        e._values(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= code_module.SCRATCH_BYTES + (64 << 10)
    got = e.evaluate(pts)
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 1 << 40)
    assert len(e._ranges(code_module._per_step(8 * (wenum._EVAL_ARRAYS + 4)))) == 1
    assert e.evaluate(pts) == got


def test_cwe_to_swe_matches_term_loop():
    # the class merge as a loop over the CWE's terms
    rng = np.random.default_rng(227)
    codes = [LinearCode(rng.integers(0, 16, size=(2, n), dtype=np.uint8)) for n in range(1, 9)]
    for e in [cwe(c) for c in codes] + [cwe(LinearCode([[ring.U] * 300, [ring.ONE] * 300]))]:
        want = {}
        for exps, coeff in e.terms.items():
            key = tuple(sum(x for v, x in enumerate(exps) if wenum.ELEMENT_CLASS[v] == cls)
                        for cls in range(5))
            want[key] = want.get(key, 0) + coeff
        assert cwe_to_swe(e).terms == want


def test_cwe_to_swe_refuses_keys_past_int64():
    # (n + 1)^4 must stay below 2^63 for the packed class counts
    def one_term(n):
        return CWE(n, np.array([[n] + [0] * 15], dtype=np.uint32), np.array([1]))
    assert cwe_to_swe(one_term(55107)).terms == {(55107, 0, 0, 0, 0): 1}
    with pytest.raises(ValueError):
        cwe_to_swe(one_term(55108))


def test_macwilliams_swe_guard():
    with pytest.raises(ExpansionTooLarge):
        macwilliams_swe(SWE(25, {(25, 0, 0, 0, 0): 1}), 1)


def test_macwilliams_swe_non_exact():
    with pytest.raises(NonExactDivision):
        macwilliams_swe(cwe_to_swe(cwe(u_code())), 3)


def test_macwilliams_lee_example():
    p = LeePoly(1, (1, 0, 2, 0, 1))
    assert macwilliams_lee(p, 4) == p


def test_macwilliams_lee_symbolic_oracle():
    # (1/4)[(W+X)^4 + 2 (W+X)^2 (W-X)^2 + (W-X)^4] via explicit convolution
    def binom_product_coeffs(a, b, n4):
        # coefficients of X^v in (W+X)^a (W-X)^b
        import math
        return [sum((-1) ** j * math.comb(b, j) * math.comb(a, v - j)
                    for j in range(max(0, v - a), min(b, v) + 1))
                for v in range(n4 + 1)]
    parts = [binom_product_coeffs(4, 0, 4), binom_product_coeffs(2, 2, 4),
             binom_product_coeffs(2, 2, 4), binom_product_coeffs(0, 4, 4)]
    expect = tuple(sum(p[v] for p in parts) // 4 for v in range(5))
    assert macwilliams_lee(LeePoly(1, (1, 0, 2, 0, 1)), 4).coeffs == expect == (1, 0, 2, 0, 1)


def test_macwilliams_lee_zero_code():
    assert macwilliams_lee(LeePoly(1, (1, 0, 0, 0, 0)), 1).coeffs == (1, 4, 6, 4, 1)


def test_macwilliams_lee_involution():
    rng = np.random.default_rng(71)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(1, 2), dtype=np.uint8)
        c = LinearCode(gen)
        p = lee(c)
        size = c.cardinality()
        dual_size = 16 ** c.n // size
        assert macwilliams_lee(macwilliams_lee(p, size), dual_size) == p


def test_macwilliams_lee_matches_dual_census():
    rng = np.random.default_rng(73)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
        c = LinearCode(gen)
        t = macwilliams_lee(lee(c), c.cardinality())
        dual = dual_bruteforce(c)
        assert t == swe_to_lee(swe_of_words(dual, c.n))


def test_transform_identities_of_the_lee_proof():
    # substituting the weight monomials W^4, X^4, WX^3, W^3X, W^2X^2 for
    # (X, Y, Z, W, S) in each of the five transform forms must reproduce
    # (W+X)^a (W-X)^b exactly: the binomial identities behind the Lee
    # transform, checked against the engine's derived form matrix
    import math

    def wpm_power(a, b):
        # coefficients of X^v in (W+X)^a (W-X)^b, v = 0..4
        return [sum((-1) ** j * math.comb(b, j) * math.comb(a, v - j)
                    for j in range(max(0, v - a), min(b, v) + 1))
                for v in range(5)]

    # X-degree of the weight monomial behind each SWE variable
    class_xdeg = (0, 4, 3, 1, 2)
    expected = {0: wpm_power(4, 0), 1: wpm_power(0, 4), 2: wpm_power(1, 3),
                3: wpm_power(3, 1), 4: wpm_power(2, 2)}
    forms = swe_transform_forms()
    for c in range(5):
        lhs = [0] * 5
        for c2, coeff in enumerate(forms[c]):
            lhs[class_xdeg[c2]] += coeff
        assert lhs == expected[c], f"form {c}"


def test_is_formally_self_dual():
    assert is_formally_self_dual(u_code())
    dc = LinearCode(np.hstack([np.diag([ring.ONE] * 2).astype(np.uint8),
                               np.array([[R("20"), R("12")], [R("12"), R("20")]],
                                        dtype=np.uint8)]))
    assert is_formally_self_dual(dc)
    assert not is_formally_self_dual(LinearCode([[R("20"), ring.ZERO]]))


def test_transform_outputs_nonnegative():
    rng = np.random.default_rng(79)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(1, 2), dtype=np.uint8)
        c = LinearCode(gen)
        t = macwilliams_swe(cwe_to_swe(cwe(c)), c.cardinality())
        assert all(v > 0 for v in t.terms.values())
        tp = macwilliams_lee(lee(c), c.cardinality())
        assert all(v >= 0 for v in tp.coeffs)


def test_enumerator_output_format():
    e = cwe(u_code())
    lines = e.format_lines()
    assert lines[0] == "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0 : 1"
    assert lines == sorted(lines)
    p = lee(u_code())
    assert p.format_lines() == ["4,0 : 1", "2,2 : 2", "0,4 : 1"]
