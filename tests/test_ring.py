import pytest

from z4u import ring
from z4u.scalars import GaussianInt

from oracles import format_matrix

ONE_GI = GaussianInt(1, 0)

#: Lee weight of each element, keyed by (a, b) of a + ub.
LEE_FIXED = {
    (0, 0): 0, (0, 1): 2, (0, 2): 4, (0, 3): 2,
    (1, 0): 1, (1, 1): 3, (1, 2): 3, (1, 3): 1,
    (2, 0): 2, (2, 1): 2, (2, 2): 2, (2, 3): 2,
    (3, 0): 1, (3, 1): 1, (3, 2): 3, (3, 3): 3,
}


def test_arithmetic_examples():
    one_u = ring.make(1, 1)
    assert ring.mul(one_u, one_u) == ring.make(1, 2)
    two_u = ring.make(2, 1)
    assert ring.mul(two_u, two_u) == ring.ZERO
    assert ring.add(ring.make(2, 3), ring.make(3, 1)) == ring.ONE


def test_ring_axioms_exhaustive():
    els = ring.ELEMENTS
    for x in els:
        assert ring.add(x, ring.neg(x)) == ring.ZERO
        assert ring.mul(x, ring.ONE) == x
        for y in els:
            assert ring.add(x, y) == ring.add(y, x)
            assert ring.mul(x, y) == ring.mul(y, x)
            for z in els:
                assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
                assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
                assert ring.mul(x, ring.add(y, z)) == \
                    ring.add(ring.mul(x, y), ring.mul(x, z))


def test_characteristic_four_and_u_square():
    u = ring.U
    assert ring.mul(u, u) == ring.ZERO
    x = ring.ONE
    total = ring.ZERO
    for _ in range(4):
        total = ring.add(total, x)
    assert total == ring.ZERO


def test_square_classification_exhaustive():
    for x in ring.ELEMENTS:
        sq = ring.mul(x, x)
        t = ring.unit_type(x)
        if t is ring.UnitType.NON_UNIT:
            assert sq == ring.ZERO
        elif t is ring.UnitType.TYPE1:
            assert sq == ring.ONE
        else:
            assert sq == ring.make(1, 2)


def test_unit_partition():
    assert ring.UNITS_TYPE1 == frozenset(
        {ring.make(1, 0), ring.make(3, 0), ring.make(1, 2), ring.make(3, 2)})
    assert ring.UNITS_TYPE2 == frozenset(
        {ring.make(1, 1), ring.make(3, 1), ring.make(1, 3), ring.make(3, 3)})
    assert ring.UNITS == ring.UNITS_TYPE1 | ring.UNITS_TYPE2
    assert len(ring.UNITS) == 8
    for x in ring.ELEMENTS:
        assert ring.is_unit(x) == (ring.a_part(x) % 2 == 1)
    assert ring.unit_type(ring.make(3, 2)) is ring.UnitType.TYPE1
    assert ring.unit_type(ring.make(1, 3)) is ring.UnitType.TYPE2
    assert ring.unit_type(ring.make(2, 1)) is ring.UnitType.NON_UNIT


def test_lee_weight_table_and_symmetry():
    for (a, b), w in LEE_FIXED.items():
        assert ring.lee_weight(ring.make(a, b)) == w
    for x in ring.ELEMENTS:
        assert ring.lee_weight(x) == ring.lee_weight(ring.neg(x))


def test_ideals():
    assert ring.IDEALS["u"] == frozenset({ring.ZERO, ring.U, ring.TWO_U, ring.make(0, 3)})
    assert ring.IDEALS["2"] == frozenset(
        {ring.ZERO, ring.make(2, 0), ring.TWO_U, ring.make(2, 2)})
    assert ring.IDEALS["2+u"] == frozenset(
        {ring.ZERO, ring.make(2, 1), ring.TWO_U, ring.make(2, 3)})
    assert ring.IDEALS["2u"] == frozenset({ring.ZERO, ring.TWO_U})
    # inclusion chain: 0 <= 2u <= each middle ideal <= maximal
    for name in ("u", "2", "2+u"):
        assert ring.IDEALS["2u"] <= ring.IDEALS[name] <= ring.MAXIMAL_IDEAL
    assert ring.MAXIMAL_IDEAL == frozenset(ring.ELEMENTS) - ring.UNITS
    # each ideal really is closed under addition and ring action
    for name, ideal in ring.IDEALS.items():
        for x in ideal:
            for y in ideal:
                assert ring.add(x, y) in ideal
            for r in ring.ELEMENTS:
                assert ring.mul(r, x) in ideal


def test_character_values():
    assert ring.character(ring.ZERO) == ONE_GI
    assert ring.character(ring.U) == GaussianInt(0, 1)
    assert ring.character(ring.make(3, 3)) == GaussianInt(-1, 0)
    for x in ring.ELEMENTS:
        val = ring.character(x)
        assert val ** 4 == ONE_GI  # fourth root of unity


def test_character_generating_property():
    for name in ring.PROPER_NONZERO_IDEALS:
        assert any(ring.character(y) != ONE_GI for y in ring.IDEALS[name])


def test_character_sums_vanish():
    for a in ring.ELEMENTS:
        total = GaussianInt(0, 0)
        for x in ring.ELEMENTS:
            total = total + ring.character(ring.mul(a, x))
        assert total == (GaussianInt(16, 0) if a == ring.ZERO else GaussianInt(0, 0))


def test_character_table_rows():
    t = ring.character_table()
    assert all(v == ONE_GI for v in t[0])
    i = GaussianInt(0, 1)
    m1, mi = GaussianInt(-1, 0), GaussianInt(0, -1)
    assert t[1] == (ONE_GI, ONE_GI, ONE_GI, ONE_GI, i, i, i, i,
                    m1, m1, m1, m1, mi, mi, mi, mi)


def test_character_table_symmetric_and_orthogonal():
    t = ring.character_table()
    for i in range(16):
        for j in range(16):
            assert t[i][j] == t[j][i]
    # brute-force product oracle: T . conj(T)^T = 16 I
    for i in range(16):
        for j in range(16):
            acc = GaussianInt(0, 0)
            for k in range(16):
                acc = acc + t[i][k] * t[j][k].conj()
            assert acc == (GaussianInt(16, 0) if i == j else GaussianInt(0, 0))


def test_transcribed_table_discrepancies_reported():
    diffs = ring.character_table_discrepancies()
    cells = {(i, j) for i, j, _, _ in diffs}
    # the transcription's known suspect entries; the report must surface
    # them, and nothing else differs
    assert cells == {(7, 15), (8, 16), (15, 7)}
    for _, _, generated, transcribed in diffs:
        assert generated != transcribed


def test_element_tokens():
    assert ring.parse_element("12") == ring.make(1, 2)
    assert ring.parse_element("00") == ring.ZERO
    assert ring.parse_element("01") == ring.U
    for x in ring.ELEMENTS:
        assert ring.parse_element(ring.format_element(x)) == x
    with pytest.raises(ValueError):
        ring.parse_element("4")
    with pytest.raises(ValueError):
        ring.parse_element("44")


def test_matrix_text_grammar():
    text = "# comment\n\n10 01\n00 12\n"
    m = ring.parse_matrix_text(text)
    assert m.shape == (2, 2)
    assert m[0, 0] == ring.ONE and m[1, 1] == ring.make(1, 2)
    assert ring.parse_matrix_text(format_matrix(m)).tolist() == m.tolist()
    with pytest.raises(ValueError):
        ring.parse_matrix_text("10 01\n00\n")
    with pytest.raises(ValueError):
        ring.parse_matrix_text("# nothing\n")


def test_numpy_tables_match_scalar_ops():
    for x in ring.ELEMENTS:
        assert ring.R.NEG[x] == ring.neg(x)
        assert ring.R.LEE[x] == ring.lee_weight(x)
        for y in ring.ELEMENTS:
            assert ring.R.ADD[x, y] == ring.add(x, y)
            assert ring.R.MUL[x, y] == ring.mul(x, y)


def test_canonical_order_is_packed_value_order():
    # g_1..g_16 = 0, u, 2u, 3u, 1, 1+u, ..., 3+3u: index i-1 == packed value
    expect = [ring.make(a, b) for a in range(4) for b in range(4)]
    assert expect == list(range(16))
    assert expect[0] == ring.ZERO and expect[1] == ring.U
