import numpy as np
import pytest

from z4u import ring
from z4u.code import LinearCode, lee_weight_vector
from z4u.gray import gray_image, gray_map, gray_map_inverse
from z4u.ring import Z4
from z4u.wenum import is_formally_self_dual, lee, macwilliams_lee

from oracles import dual_bruteforce, members, span


def z4_lee_weight_vector(v):
    return lee_weight_vector(v, Z4)


def R(tok):
    return ring.parse_element(tok)


def test_gray_map_examples():
    assert gray_map([R("12")]) == (2, 3)
    assert gray_map([ring.U]) == (1, 1)
    assert gray_map([ring.TWO_U, ring.ZERO]) == (2, 0, 2, 0)


def test_gray_inverse_examples():
    assert gray_map_inverse((2, 3)) == (R("12"),)
    assert gray_map_inverse((0, 0)) == (ring.ZERO,)
    assert gray_map_inverse((1, 0)) == (R("31"),)
    assert gray_map((R("31"),)) == (1, 0)
    with pytest.raises(ValueError):
        gray_map_inverse((1, 2, 3))


def test_bijection_exhaustive_n1():
    images = set()
    for x in ring.ELEMENTS:
        w = gray_map([x])
        assert gray_map_inverse(w) == (x,)
        images.add(w)
    assert len(images) == 16


def test_bijection_randomized():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        v = rng.integers(0, 16, size=(100, n), dtype=np.uint8)
        for row in v:
            w = gray_map(row)
            assert gray_map_inverse(w) == tuple(int(x) for x in row)


def test_isometry_exhaustive_n1():
    for x in ring.ELEMENTS:
        assert ring.lee_weight(x) == z4_lee_weight_vector(gray_map([x]))


def test_isometry_randomized():
    rng = np.random.default_rng(43)
    for n in range(1, 9):
        v = rng.integers(0, 16, size=(1000, n), dtype=np.uint8)
        for row in v:
            assert lee_weight_vector(row) == z4_lee_weight_vector(gray_map(row))


def test_additivity_and_scalar_compat():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        v = rng.integers(0, 16, size=n, dtype=np.uint8)
        w = rng.integers(0, 16, size=n, dtype=np.uint8)
        lhs = gray_map([ring.add(int(a), int(b)) for a, b in zip(v, w)])
        rhs = tuple((np.array(gray_map(v)) + np.array(gray_map(w))) & 3)
        assert lhs == tuple(int(x) for x in rhs)
        # scalar c in 0..3 acts as c*1 in the ring and as c over Z4
        for c in range(4):
            cv = [ring.mul(ring.make(c, 0), int(a)) for a in v]
            assert gray_map(cv) == tuple((c * np.array(gray_map(v))) & 3)


def test_gray_image_of_u():
    img = gray_image(LinearCode([[ring.U]]))
    assert img.ring is Z4
    assert members(img) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert img.cardinality() == 4


def test_gray_image_equals_pointwise_image():
    rng = np.random.default_rng(53)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 2), dtype=np.uint8)
        c = LinearCode(gen)
        img = gray_image(c)
        pointwise = {gray_map(w) for w in span(gen.tolist(), 16, ring.add, ring.mul)}
        assert members(img) == pointwise
        assert img.cardinality() == c.cardinality()


def test_gray_image_size_from_its_own_information_set():
    # the image is a Z4 code of 2k rows, free or not, sized by its own
    # partial information set: no size is passed in from the source
    rng = np.random.default_rng(61)
    nonfree = 0
    for trial in range(12):
        gen = rng.integers(0, 16, size=(3, 3), dtype=np.uint8)
        if trial % 2:  # a row times 2 or u: the rows are no free basis
            gen[0] = ring.R.MUL[(R("20"), R("01"))[trial % 4 // 2], gen[0]]
        c = LinearCode(gen)
        size = len(span(gen.tolist(), 16, ring.add, ring.mul))
        nonfree += size < 16 ** 3
        assert gray_image(c).cardinality() == c.cardinality() == size
    assert nonfree >= 6


def test_gray_image_lee_enumerator_matches_source():
    for gen in ([[ring.U]], [[ring.U, ring.ZERO], [ring.ZERO, ring.U]],
                [[ring.ONE, R("21")]]):
        c = LinearCode(gen)
        img = gray_image(c)
        assert lee(img).coeffs == lee(c).coeffs


def test_z4_formal_duality_positive():
    # every nonzero word as a generator row: a non-free generator
    d = LinearCode([[1, 1], [2, 2], [3, 3]], Z4)
    assert members(d) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert is_formally_self_dual(d)


def test_z4_formal_duality_full_space():
    # the full space is NOT a transform fixed point: its enumerator is
    # (W+X)^4 while its dual (the zero code) has W^4; the transform maps
    # one to the other exactly
    d = LinearCode([[1, 0], [0, 1]], Z4)
    assert d.cardinality() == 16
    assert not is_formally_self_dual(d)
    assert macwilliams_lee(lee(d), 16).coeffs == (1, 0, 0, 0, 0)


def test_z4_formal_duality_negative():
    d = LinearCode([[2, 0]], Z4)
    assert d.cardinality() == 2
    dual = dual_bruteforce(d)
    assert len(dual) == 8
    # enumerators genuinely differ
    assert not is_formally_self_dual(d)


def test_z4_lee_transform_against_dual_census():
    rng = np.random.default_rng(59)
    for _ in range(10):
        gen = rng.integers(0, 4, size=(2, 3), dtype=np.uint8)
        d = LinearCode(gen, Z4)
        p = lee(d)
        t = macwilliams_lee(p, d.cardinality())
        dual = dual_bruteforce(d)
        census = [0] * (2 * d.n + 1)
        for w in dual:
            census[z4_lee_weight_vector(w)] += 1
        assert t.coeffs == tuple(census)
        assert d.cardinality() * len(dual) == 4 ** d.n


def test_z4_matrix_parsing():
    m = ring.parse_matrix_text("# c\n1 0 2\n3 1 0\n", Z4)
    assert m.tolist() == [[1, 0, 2], [3, 1, 0]]
    for bad in ("12 3\n", "1 4\n", "1 0\n2\n"):
        with pytest.raises(ValueError):
            ring.parse_matrix_text(bad, Z4)


def test_z4_self_duality():
    d = LinearCode([[1, 1], [2, 2], [3, 3]], Z4)
    assert d.is_self_orthogonal() is False  # (1,1).(1,1) = 2 != 0 mod 4
    k8 = LinearCode([[2, 0], [0, 2]], Z4)
    assert k8.is_self_orthogonal()
