from fractions import Fraction

from z4u.scalars import (F2U_LEE, GaussianInt, GaussianRational, I_POWERS,
                         f2u_add, f2u_format, f2u_lee_weight, f2u_mul,
                         f2u_parse, z4_lee_weight)


def z4_lee_oracle(x):
    """Shortest path from 0 to x on the 4-cycle, stepping +-1."""
    dist = 0
    fwd = bwd = 0
    while fwd != x and bwd != x:
        fwd = (fwd + 1) % 4
        bwd = (bwd - 1) % 4
        dist += 1
    return dist


def test_z4_lee_weight_against_cycle_oracle():
    for x in range(4):
        assert z4_lee_weight(x) == z4_lee_oracle(x)
    assert z4_lee_weight(0) == 0
    assert z4_lee_weight(2) == 2
    assert z4_lee_weight(3) == 1


def test_z4_lee_symmetry():
    for x in range(4):
        assert z4_lee_weight(x) == z4_lee_weight((-x) % 4)


def test_z4_ring_axioms_exhaustive():
    els = range(4)
    for x in els:
        for y in els:
            assert (x + y) % 4 == (y + x) % 4
            assert (x * y) % 4 == (y * x) % 4
            for z in els:
                assert ((x + y) + z) % 4 == (x + (y + z)) % 4
                assert ((x * y) * z) % 4 == (x * (y * z)) % 4
                assert (x * (y + z)) % 4 == (x * y + x * z) % 4


def test_f2u_lee_weights():
    assert f2u_lee_weight(f2u_parse("0")) == 0
    assert f2u_lee_weight(f2u_parse("1")) == 1
    assert f2u_lee_weight(f2u_parse("u")) == 2
    assert f2u_lee_weight(f2u_parse("1+u")) == 1
    assert tuple(f2u_lee_weight(x) for x in range(4)) == F2U_LEE


def test_f2u_ring_axioms_exhaustive():
    els = range(4)
    for x in els:
        assert f2u_add(x, x) == 0  # characteristic 2
        for y in els:
            assert f2u_add(x, y) == f2u_add(y, x)
            assert f2u_mul(x, y) == f2u_mul(y, x)
            for z in els:
                assert f2u_add(f2u_add(x, y), z) == f2u_add(x, f2u_add(y, z))
                assert f2u_mul(f2u_mul(x, y), z) == f2u_mul(x, f2u_mul(y, z))
                assert f2u_mul(x, f2u_add(y, z)) == f2u_add(f2u_mul(x, y), f2u_mul(x, z))


def test_f2u_unit_squares():
    u = f2u_parse("u")
    one_u = f2u_parse("1+u")
    assert f2u_mul(u, u) == 0
    assert f2u_mul(one_u, one_u) == f2u_parse("1")


def test_f2u_tokens_roundtrip():
    for x in range(4):
        assert f2u_parse(f2u_format(x)) == x


def test_gaussian_int_arithmetic():
    i = GaussianInt(0, 1)
    assert i * i == GaussianInt(-1, 0)
    assert GaussianInt(2, 3).conj() == GaussianInt(2, -3)
    assert GaussianInt(1, 1) + GaussianInt(1, -1) == GaussianInt(2, 0)
    assert i ** 4 == GaussianInt(1, 0)
    assert I_POWERS == (GaussianInt(1, 0), i, GaussianInt(-1, 0), GaussianInt(0, -1))


def test_gaussian_rational_roundtrip():
    a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    b = GaussianRational(Fraction(1, 3), Fraction(4, 9))
    assert (a / b) * b == a
    assert (a * b) / b == a
