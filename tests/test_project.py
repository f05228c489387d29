import numpy as np
import pytest

from z4u import ring
from z4u.code import LinearCode, inner
from z4u.errors import BudgetExceeded, NotSelfDual, ZeroCode
from z4u.project import (LiftTriple, lift_bound_check, project_constant,
                         project_mod2, project_u_coeff, self_dual_image_report)
from z4u.ring import F2U, Z4
from z4u.scalars import f2u_parse

from oracles import dual_bruteforce, members, span, span_blocks


def R(tok):
    return ring.parse_element(tok)


def test_projections_of_u_code():
    c = LinearCode([[ring.U]])
    assert members(project_constant(c)) == {(0,)}
    assert members(project_u_coeff(c)) == {(0,), (1,), (2,), (3,)}
    assert members(project_mod2(c)) == {(0,), (f2u_parse("u"),)}
    assert (project_constant(c).ring, project_u_coeff(c).ring,
            project_mod2(c).ring) == (Z4, Z4, F2U)


def test_projection_of_zero_code():
    c = LinearCode([[ring.ZERO, ring.ZERO]])
    assert members(project_mod2(c)) == {(0, 0)}


def test_set_and_span_paths_agree():
    # zero-divisor-heavy generators are where span shortcuts could go wrong;
    # the set side projects every codeword of c (a scalar-oracle span) one by one
    rng = np.random.default_rng(83)
    gens = [rng.integers(0, 16, size=(2, 3), dtype=np.uint8) for _ in range(15)]
    gens += [np.array([[ring.TWO_U, R("20")], [R("21"), ring.U]], dtype=np.uint8),
             np.array([[R("22"), R("02")]], dtype=np.uint8)]

    def mod2(x):
        return (ring.a_part(x) & 1) | ((ring.b_part(x) & 1) << 1)

    for gen in gens:
        c = LinearCode(gen)
        words = span(gen.tolist(), 16, ring.add, ring.mul)
        for project, pick in ((project_constant, ring.a_part),
                              (project_u_coeff, ring.b_part),
                              (project_mod2, mod2)):
            assert members(project(c)) == {tuple(pick(x) for x in w) for w in words}


def test_projected_codes_are_linear():
    rng = np.random.default_rng(89)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 2), dtype=np.uint8)
        c = LinearCode(gen)
        for proj, scalars, addf, mulf in (
                (project_constant(c), range(4), lambda x, y: (x + y) % 4,
                 lambda s, x: (s * x) % 4),
                (project_u_coeff(c), range(4), lambda x, y: (x + y) % 4,
                 lambda s, x: (s * x) % 4),
        ):
            words = members(proj)
            for w1 in words:
                for s in scalars:
                    assert tuple(mulf(s, x) for x in w1) in words
                for w2 in words:
                    assert tuple(addf(a, b) for a, b in zip(w1, w2)) in words


def test_mod2_projection_linear_over_f2u():
    from z4u.scalars import f2u_add, f2u_mul
    rng = np.random.default_rng(97)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 2), dtype=np.uint8)
        words = members(project_mod2(LinearCode(gen)))
        for w1 in words:
            for s in range(4):
                assert tuple(f2u_mul(s, x) for x in w1) in words
            for w2 in words:
                assert tuple(f2u_add(a, b) for a, b in zip(w1, w2)) in words


def test_f2u_code_basics():
    e = LinearCode([[f2u_parse("u")]], F2U)
    assert members(e) == {(0,), (f2u_parse("u"),)}
    assert e.cardinality() == 2
    res = e.min_lee_distance()
    assert res.value == 2 and res.exact
    dual = dual_bruteforce(e)
    assert e.cardinality() * len(dual) == 4
    assert e.is_self_orthogonal()


def test_f2u_inner():
    u = f2u_parse("u")
    one_u = f2u_parse("1+u")
    assert inner((u,), (u,), F2U) == 0
    assert inner((one_u,), (one_u,), F2U) == f2u_parse("1")
    with pytest.raises(ValueError):
        inner((u,), (u, u), F2U)


def test_f2u_matrix_parsing():
    m = ring.parse_matrix_text("# c\n0 1 u 1+u\n1 0 u u\n", F2U)
    assert m.tolist() == [[0, 1, 2, 3], [1, 0, 2, 2]]
    for bad in ("0 2\n", "0 1\n1\n", "# only a comment\n"):
        with pytest.raises(ValueError):
            ring.parse_matrix_text(bad, F2U)


def test_lift_bound_simple():
    c = LinearCode([[ring.ONE]])
    d = project_constant(c)      # all of Z4
    e = project_mod2(c)
    t = LiftTriple(c, d, e)
    assert t.verify_projections()
    rep = lift_bound_check(t)
    assert rep.d.value == 1 and rep.d_z4.value == 1 and rep.holds
    assert rep.d.exact and rep.d_z4.exact and rep.d_f2u.exact
    assert rep.format_lines()[:3] == ["d  (ring code)  = 1 (exact)",
                                      "d' (Z4 code)    = 1 (exact)",
                                      "d'' (F2+uF2)    = 1 (exact)"]


def test_lift_bound_needs_exact_projection_distances():
    # an upper bound on d' cannot confirm d <= 2d', so it is refused
    import importlib.resources as res
    data = res.files("z4u") / "data"
    c = LinearCode.from_text((data / "lift16_r.gen").read_text())
    d = LinearCode.from_text((data / "lift16_z4.gen").read_text(), Z4)
    e = LinearCode.from_text((data / "lift16_f2u.gen").read_text(), F2U)
    # 4^4 messages per information set reach levels 2/2 on the Z4 code
    # (16 + 120 each), lower bound 6: d' = 8 needs 3/3 (696 each)
    assert d.min_lee_distance(4 ** 4).certificate == "levels 2/2"
    with pytest.raises(BudgetExceeded):
        lift_bound_check(LiftTriple(c, d, e), budget=4 ** 4)


def test_lift_bound_zero_projection_rejected():
    c = LinearCode([[ring.U]])
    d = project_constant(c)  # zero code over Z4
    e = project_mod2(c)
    with pytest.raises(ZeroCode):
        lift_bound_check(LiftTriple(c, d, e))


def test_lift_bound_randomized():
    rng = np.random.default_rng(101)
    tried = 0
    for _ in range(40):
        gen = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
        c = LinearCode(gen)
        d = project_constant(c)
        e = project_mod2(c)
        if d.is_zero or e.is_zero or c.is_zero:
            continue
        rep = lift_bound_check(LiftTriple(c, d, e))
        assert rep.holds
        tried += 1
    assert tried >= 10


def test_self_dual_image_report_u():
    rep = self_dual_image_report(LinearCode([[ring.U]]))
    assert rep.gray_formally_self_dual
    assert rep.z4_projection_self_orthogonal
    assert rep.f2u_projection_self_orthogonal
    # u-coefficient projection is all of Z4: not self-orthogonal, so the
    # gray-image self-duality clause is vacuous; and indeed the image is
    # not self-dual ((1,1).(1,1) = 2 mod 4)
    assert not rep.u_coeff_projection_self_orthogonal
    assert rep.gray_self_dual is None
    from z4u.gray import gray_image
    from z4u.code import SelfDuality
    assert gray_image(LinearCode([[ring.U]])).self_duality() is not SelfDuality.SELF_DUAL
    assert rep.all_2u_vector_present
    assert rep.unit_counts_even


def test_self_dual_image_report_direct_sum():
    c = LinearCode([[ring.U, ring.ZERO], [ring.ZERO, ring.U]])
    rep = self_dual_image_report(c)
    assert rep.gray_formally_self_dual
    assert rep.all_2u_vector_present


def test_self_dual_image_report_rejects_non_self_dual():
    with pytest.raises(NotSelfDual):
        self_dual_image_report(LinearCode([[ring.ONE]]))


def test_fixture_lift_triple():
    import importlib.resources as res
    data = res.files("z4u") / "data"
    c = LinearCode.from_text((data / "lift16_r.gen").read_text())
    d = LinearCode.from_text((data / "lift16_z4.gen").read_text(), Z4)
    e = LinearCode.from_text((data / "lift16_f2u.gen").read_text(), F2U)
    # generator-level identity: projecting the ring generator gives the
    # prescribed generators entrywise
    assert np.array_equal((c.gen >> 2) & 3, d.gen)
    mod2 = (((c.gen >> 2) & 1) | ((c.gen & 1) << 1)).astype(np.uint8)
    assert np.array_equal(mod2, e.gen)
    # span-level: projected codeword sets equal the prescribed codes'
    def words(code):
        return {tuple(w) for _, blk in span_blocks(code.gen, code.ring) for w in blk.tolist()}

    mu = project_constant(c)
    al = project_mod2(c)
    assert words(mu) == words(d) and mu.same_code(d)
    assert words(al) == words(e) and al.same_code(e)
