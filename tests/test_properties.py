"""Property tests of the ring-generic code core against scalar oracles.

For each ring record (R, Z4, F2+uF2), random small generators, non-free
and standard-form ones included, are checked against brute force written
from the ring's scalar functions: codeword set (read back through
`contains`), |C|, Lee census, minimum distance and self-orthogonality;
membership of random vectors and code equality under row permutation,
row duplication and a changed row; membership (one product on an
information set, then a sweep of the torsion span alone) against a sweep
over every message, on drawn generators and on free ones not in standard
form (T.[I | A] with permuted columns), within a budget of the size^(k-r)
torsion messages and refused below it; over R, the complete enumerator;
|C| * |C-perp| = size^n; the Lee MacWilliams transform against the
brute-force dual's Lee census; and the meet-in-the-middle dual against
the size^n sweep, row for row, on zero rows, non-free generators, k > n
(keys of more than one word included), n = 1, odd n and small blocks.
The Lee-level distance kernel is checked against the minimum of the full
Lee census on codes with k <= 5: standard form codes whose right half is
singular but which hold two disjoint information sets, codes with one, and runs cut short by the budget; on
standard, non-standard free (T.[I | A] with permuted columns) and non-free
generators, exact whenever size^k fits the budget, and bounded past it;
batches of codes that share their information sets, against the same
codes one at a time and the census; every witness a codeword (read back
through `contains`) of Lee weight `value`, on both generator shapes, at
size^k messages and at a cap that may leave an upper bound; the Gray
packing, its field-wise sum (`oracles.packed_add`) and `packed_weight`
against the ring tables; and the packed span blocks against the
byte-table span of `oracles`, block for block.
"""

from collections import Counter
from functools import reduce
from itertools import product

import numpy as np
import pytest
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from z4u import code as code_module
from z4u import construct, ring
from z4u.code import (LinearCode, _independent, identity, information_sets,
                      lee_levels, lee_weight_vector, pack_rows, ring_matmul,
                      span_blocks, unpack_rows)
from z4u.errors import BudgetExceeded, ZeroCode
from z4u.ring import F2U, R, Z4, packed_weight
from z4u.scalars import (f2u_add, f2u_lee_weight, f2u_mul, z4_add, z4_lee_weight,
                         z4_mul)
from z4u.wenum import cwe, lee, macwilliams_lee

import oracles
from oracles import (dual_bruteforce, members, packed_add, span, sweep_contains,
                     sweep_distance)

#: ring -> (table, add, mul, lee weight, max k, max n).  Over R the sizes stay
#: at 16^3 messages and dual vectors so each example runs in milliseconds.
SCALARS = {
    "R": (R, ring.add, ring.mul, ring.lee_weight, 3, 3),
    "Z4": (Z4, z4_add, z4_mul, z4_lee_weight, 4, 5),
    "F2U": (F2U, f2u_add, f2u_mul, f2u_lee_weight, 4, 5),
}
RINGS = sorted(SCALARS)


@st.composite
def generators(draw, name, shape=None):
    """(k, n) generator rows: [I_k | A] ("standard"), or random rows each
    scaled by a random element ("scaled"), so zero divisors make non-free
    generators common; either one when `shape` is None."""
    table, _add, mul, _lee, kmax, nmax = SCALARS[name]
    elem = st.integers(0, table.size - 1)
    k = draw(st.integers(1, kmax))
    standard = draw(st.booleans()) if shape is None else shape == "standard"
    if standard and k <= nmax:
        n = draw(st.integers(k, nmax))
        a = draw(st.lists(st.lists(elem, min_size=n - k, max_size=n - k),
                          min_size=k, max_size=k))
        return [[table.ONE if i == j else 0 for j in range(k)] + a[i] for i in range(k)]
    n = draw(st.integers(1, nmax))
    rows = draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=k, max_size=k))
    scales = draw(st.lists(elem, min_size=k, max_size=k))
    return [[mul(s, x) for x in row] for s, row in zip(scales, rows)]


def dot(x, y, add, mul):
    return reduce(add, (mul(a, b) for a, b in zip(x, y)), 0)


def census(words, lee_w, degree):
    out = [0] * (degree + 1)
    for w in words:
        out[sum(lee_w(x) for x in w)] += 1
    return out


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_code_matches_scalar_oracle(name, data):
    table, add, mul, lee_w, _, _ = SCALARS[name]
    rows = data.draw(generators(name))
    c = LinearCode(rows, table)
    words = span(rows, table.size, add, mul)
    assert members(c) == words
    assert c.cardinality() == len(words)
    assert c.lee_census().tolist() == census(words, lee_w, table.max_lee * c.n)
    nonzero = [sum(lee_w(x) for x in w) for w in words if any(w)]
    if nonzero:
        res = c.min_lee_distance()
        assert res.exact and res.value == min(nonzero)
        assert c.contains([res.witness]).all()
        assert lee_weight_vector(res.witness, table) == res.value
    else:
        with pytest.raises(ZeroCode):
            c.min_lee_distance()
    gram_zero = all(dot(r, s, add, mul) == 0 for r in rows for s in rows)
    assert c.is_self_orthogonal() == gram_zero
    if table is R:
        compositions = Counter(tuple(w.count(x) for x in range(16)) for w in words)
        assert cwe(c).terms == dict(compositions)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_membership_and_equality(name, data):
    table, add, mul, _, _, _ = SCALARS[name]
    rows = data.draw(generators(name))
    c = LinearCode(rows, table)
    words = span(rows, table.size, add, mul)
    n, elem = len(rows[0]), st.integers(0, table.size - 1)
    vectors = data.draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=1,
                                 max_size=8))
    vectors.append(data.draw(st.sampled_from(sorted(words))))
    assert c.contains(vectors).tolist() == [tuple(v) in words for v in vectors]
    permuted = data.draw(st.permutations(rows))
    assert LinearCode(permuted, table).same_code(c)
    i = data.draw(st.integers(0, len(rows) - 1))
    assert LinearCode(rows + [rows[i]], table).same_code(c)
    changed = list(rows)
    changed[i] = data.draw(st.lists(elem, min_size=n, max_size=n))
    other = LinearCode(changed, table)
    assert other.same_code(c) == c.same_code(other) == \
        (span(changed, table.size, add, mul) == words)


@pytest.mark.parametrize("shape", ["drawn", "permuted"])
@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contains_matches_sweep(name, shape, data):
    table, _add, _mul, _, kmax, nmax = SCALARS[name]
    elem = st.integers(0, table.size - 1)
    if shape == "drawn":  # [I | A], or rows scaled by random elements
        gen = np.array(data.draw(generators(name)), dtype=np.uint8)
    else:  # T.[I | A] with permuted columns: free, not in standard form
        k = data.draw(st.integers(1, kmax))
        n = data.draw(st.integers(k, nmax))
        a = np.array(data.draw(st.lists(st.lists(elem, min_size=n - k, max_size=n - k),
                                        min_size=k, max_size=k)), dtype=np.uint8)
        gen = ring_matmul(_invertible(data, table, k),
                          np.hstack([identity(k, table), a.reshape(k, n - k)]), table)
        gen = gen[:, data.draw(st.permutations(range(n)))]
    c = LinearCode(gen, table)
    k, n = c.k, c.n
    r = len(information_sets(c.gen, table)[0])
    assert shape == "drawn" or r == k
    vectors = data.draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=1,
                                 max_size=8))
    codewords = [list(c.encode(m)) for m in
                 data.draw(st.lists(st.lists(elem, min_size=k, max_size=k), min_size=1,
                                    max_size=4))]
    changed = []  # each codeword changed in one coordinate
    for w in codewords:
        j = data.draw(st.integers(0, n - 1))
        w = list(w)
        w[j] = table.ADD[w[j], data.draw(st.integers(1, table.size - 1))]
        changed.append(w)
    words = vectors + codewords + changed
    budget = table.size ** (k - r)  # the torsion messages: 1 for a free code
    got = c.contains(words, budget).tolist()
    assert got == sweep_contains(c, words).tolist()
    assert got[len(vectors):len(vectors) + len(codewords)] == [True] * len(codewords)
    with pytest.raises(BudgetExceeded):
        c.contains(words, budget - 1)
    if r == k:
        assert c.cardinality(1) == table.size ** k


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dual_size_and_lee_transform(name, data):
    table, add, mul, lee_w, _, _ = SCALARS[name]
    rows = data.draw(generators(name))
    c = LinearCode(rows, table)
    n = c.n
    dual = dual_bruteforce(c)
    oracle = {v for v in product(range(table.size), repeat=n)
              if all(dot(v, r, add, mul) == 0 for r in rows)}
    assert dual.tolist() == sorted(map(list, oracle))
    assert not dual.flags.writeable
    assert c.cardinality() * len(dual) == table.size ** n
    t = macwilliams_lee(lee(c), c.cardinality())
    assert list(t.coeffs) == census(oracle, lee_w, table.max_lee * n)


#: ring -> (largest k, largest n) of the dual join examples: more rows than
#: fit one 64-bit key (16 over R, 32 over a 4-element ring), and up to 16^4
#: or 4^7 vectors per sweep
DUAL_SHAPES = {"R": (18, 4), "Z4": (34, 7), "F2U": (34, 7)}


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_join_matches_sweep(name, data):
    table = SCALARS[name][0]
    kmax, nmax = DUAL_SHAPES[name]
    k, n = data.draw(st.integers(1, kmax)), data.draw(st.integers(1, nmax))
    # scaling by non-units alone keeps the code small and the dual large
    scales = st.sampled_from(_nonunits(table)) if data.draw(st.booleans()) \
        else st.integers(0, table.size - 1)
    elem = st.integers(0, table.size - 1)
    rows = [[table.MUL[s, x] for x in row] for s, row in zip(
        data.draw(st.lists(scales, min_size=k, max_size=k)),
        data.draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=k, max_size=k)))]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, k - 1))] = [0] * n
    c = LinearCode(rows, table)
    lo_bits = data.draw(st.sampled_from([oracles._LO_BITS, 2 * table.bits]))
    # a block of pairs starts within 2^lo_bits solutions, 16 bytes each
    with mock.patch.object(code_module, "SCRATCH_BYTES", 16 << lo_bits):
        blocks = list(c.dual_blocks())
        oracle = dual_bruteforce(c)
    assert all(b.dtype == np.uint8 and b.shape[1] == n for b in blocks)
    assert np.array_equal(np.concatenate(blocks), oracle)
    width = table.size ** (n - (n + 1) // 2)
    assert max(map(len, blocks)) < (1 << lo_bits) + width


# ---------------------------------------------------------------------------
# Lee-level kernel against the census minimum
# ---------------------------------------------------------------------------

#: Largest k in the kernel tests; over R, 16^5 messages per census.
KERNEL_KMAX = 5


def _nonunits(table):
    return [x for x in range(table.size) if table.INV[x] == 0]


def _units(table):
    return [x for x in range(table.size) if table.INV[x]]


def _standard(table, a):
    k = len(a)
    return LinearCode(np.hstack([identity(k, table), np.array(a, dtype=np.uint8)]), table)


def _residue_invertible(table, block):
    cols = [sum(1 << i for i in range(block.shape[0]) if table.INV[block[i, j]])
            for j in range(block.shape[1])]
    return _independent(cols)


def _check_against_sweep(c, res):
    d = sweep_distance(c)
    assert c.contains([res.witness]).all()
    assert lee_weight_vector(res.witness, c.ring) == res.value
    assert res.lower_bound <= d <= res.value
    if res.exact:
        assert res.value == d
    return d


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_levels_match_sweep_with_singular_right_half(name, data):
    table = SCALARS[name][0]
    elem = st.integers(0, table.size - 1)
    k = data.draw(st.integers(2, KERNEL_KMAX))
    a = np.array(data.draw(st.lists(st.lists(elem, min_size=k, max_size=k),
                                    min_size=k, max_size=k)), dtype=np.uint8)
    # two disjoint information sets built in: a unit on top of column 0 of A
    # makes it and e_1 .. e_(k-1) one set; below row 0, columns 0, 2, ..,
    # k-1 of A invertible make them and e_0 the other
    a[0, 0] = data.draw(st.sampled_from(_units(table)))
    a[1:, [0, *range(2, k)]] = _invertible(data, table, k - 1)
    # column 1 gets column 0's unit pattern, so A is singular over F2
    shift = np.array(data.draw(st.lists(st.sampled_from(_nonunits(table)),
                                        min_size=k, max_size=k)), dtype=np.uint8)
    a[:, 1] = table.ADD[a[:, 0], shift]
    c = _standard(table, a)
    sets = information_sets(c.gen, table)
    assert len(sets) == 2
    assert not _residue_invertible(table, a) and sets[0] != tuple(range(k))
    res, = lee_levels(c.gen[None], table, sets, table.size ** k)
    d = _check_against_sweep(c, res)
    routed = c.min_lee_distance()
    assert routed.exact and routed.value == d
    assert c.contains([routed.witness]).all()
    assert lee_weight_vector(routed.witness, table) == d


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_no_partition_takes_one_set(name, data):
    table = SCALARS[name][0]
    k = data.draw(st.integers(1, KERNEL_KMAX))
    a = np.array(data.draw(st.lists(st.lists(st.integers(0, table.size - 1), min_size=k,
                                             max_size=k), min_size=k, max_size=k)),
                 dtype=np.uint8)
    # a parity column of non-units is in no information set, and the other
    # 2k - 1 columns cannot hold two disjoint ones: one set, the identity
    j = data.draw(st.integers(0, k - 1))
    a[:, j] = data.draw(st.lists(st.sampled_from(_nonunits(table)), min_size=k, max_size=k))
    c = _standard(table, a)
    assert information_sets(c.gen, table) == (tuple(range(k)),)
    res = c.min_lee_distance()
    assert res.exact and res.certificate.startswith("levels ") and "/" not in res.certificate
    _check_against_sweep(c, res)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_levels_on_random_codes_and_truncated_runs(name, data):
    table = SCALARS[name][0]
    k = data.draw(st.integers(1, KERNEL_KMAX))
    extra = data.draw(st.integers(0, 2))
    a = np.array(data.draw(st.lists(st.lists(st.integers(0, table.size - 1),
                                             min_size=k + extra, max_size=k + extra),
                                    min_size=k, max_size=k)), dtype=np.uint8)
    c = _standard(table, a)
    sets = information_sets(c.gen, table)
    full, = lee_levels(c.gen[None], table, sets, table.size ** k)
    d = _check_against_sweep(c, full)
    cap = data.draw(st.integers(0, 4 * table.bits * k * k))
    cut, = lee_levels(c.gen[None], table, sets, cap)
    _check_against_sweep(c, cut)
    if cap <= table.size ** k:  # fewer levels scanned: no better bounds
        assert cut.lower_bound <= full.lower_bound and cut.value >= full.value


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batched_levels_match_single_codes(name, data):
    # a batch of [I | A_b] with rows r.. scaled by nonzero non-units (partial
    # sets when r < k): A_b = U_b * A + N_b, entry by entry, with units U_b
    # and non-units N_b, keeps A's unit pattern and so its information sets,
    # while the distances, and the levels where each code leaves, differ
    table = SCALARS[name][0]
    units, nonunits = _units(table), _nonunits(table)
    k = data.draw(st.integers(1, KERNEL_KMAX - 1))
    r = data.draw(st.integers(0, k))
    m = k + data.draw(st.integers(0, 2))
    a = np.array(data.draw(st.lists(st.lists(st.integers(0, table.size - 1), min_size=m,
                                             max_size=m), min_size=k, max_size=k)), np.uint8)
    codes = []
    for _ in range(data.draw(st.integers(2, 6))):
        u, z = (np.array(data.draw(st.lists(st.sampled_from(pool), min_size=k * m,
                                            max_size=k * m)), np.uint8).reshape(k, m)
                for pool in (units, nonunits))
        gen = np.hstack([identity(k, table), table.ADD[table.MUL[u, a], z]])
        for i in range(r, k):
            gen[i] = table.MUL[data.draw(st.sampled_from(nonunits[1:])), gen[i]]
        codes.append(LinearCode(gen, table))
    sets = information_sets(codes[0].gen, table)
    assert all(information_sets(c.gen, table) == sets for c in codes)
    assert len(sets[0]) == r
    cap = data.draw(st.integers(0, table.size ** k - 1))
    batch = lee_levels(np.array([c.gen for c in codes]), table, sets, cap)
    for c, got in zip(codes, batch):
        assert got == lee_levels(c.gen[None], table, sets, cap)[0]
        _check_against_sweep(c, got)
    if name == "R":
        _check_evaluate(data, [c.gen for c in codes], r, cap)


def _check_evaluate(data, gens, r, cap):
    """The search's `construct._evaluate`, which finds information sets once
    per unit pattern, on a shuffled stack against `lee_levels` on one code
    at a time, field by field.  The stack holds `gens` (one unit pattern,
    rows r.. non-free), each again with a free row added to another row
    (E.G: the same code, another unit pattern, and the same sets, since E
    keeps every F2 dependence among the columns), and two copies of the
    first with the last row drawn apart (most often other sets).  The sets
    are found once per distinct unit pattern."""
    k, n = gens[0].shape
    stack = list(gens)
    if r and k > 1:
        i = data.draw(st.integers(0, r - 1))
        j = data.draw(st.sampled_from([x for x in range(k) if x != i]))
        c = data.draw(st.sampled_from(_units(R)))
        for g in gens:
            moved = g.copy()
            moved[j] = R.ADD[moved[j], R.MUL[c, g[i]]]
            assert information_sets(moved, R) == information_sets(g, R)
            assert not np.array_equal(R.INV[moved] != 0, R.INV[g] != 0)
            stack.append(moved)
    for _ in range(2):
        drawn = gens[0].copy()
        drawn[-1] = data.draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        stack.append(drawn)
    order = data.draw(st.permutations(range(len(stack))))
    stack = np.array([stack[i] for i in order])
    with mock.patch.object(construct, "information_sets", wraps=information_sets) as sets:
        got = construct._evaluate(stack, cap)
    assert sets.call_count == len(np.unique(R.INV[stack] != 0, axis=0))
    assert len(got) == len(stack)
    for g, d in zip(stack, got):
        want, = lee_levels(g[None], R, information_sets(g, R), cap)
        assert (d.value, d.lower_bound, d.witness, d.certificate) == \
            (want.value, want.lower_bound, want.witness, want.certificate)


def _invertible(data, table, k):
    """L.U with unit diagonals: an invertible k x k matrix."""
    elem, unit = st.integers(0, table.size - 1), st.sampled_from(
        [x for x in range(table.size) if table.INV[x]])
    tri = []
    for lower in (True, False):
        m = np.zeros((k, k), dtype=np.uint8)
        for i in range(k):
            for j in range(k):
                if i == j or (i > j) == lower:
                    m[i, j] = data.draw(unit if i == j else elem)
        tri.append(m)
    return ring_matmul(tri[0], tri[1], table)


def _routed_generator(data, table, kind):
    """A generator over `table` with k <= KERNEL_KMAX of one of four kinds:
    [I | A] ("standard"), [I | A] with a parity column of non-units, so one
    information set ("one-set"), T.[I | A] with permuted columns
    ("non-standard"), or one whose rows are no free basis, so its sets are
    partial, of fewer than k columns ("no-set")."""
    elem = st.integers(0, table.size - 1)
    k = data.draw(st.integers(1, KERNEL_KMAX))
    extra = 0 if kind == "one-set" else data.draw(st.integers(0, 2))
    a = np.array(data.draw(st.lists(st.lists(elem, min_size=k + extra, max_size=k + extra),
                                    min_size=k, max_size=k)), dtype=np.uint8)
    if kind == "one-set":  # as in test_no_partition_takes_one_set
        a[:, 0] = data.draw(st.lists(st.sampled_from(_nonunits(table)), min_size=k,
                                     max_size=k))
    gen = np.hstack([identity(k, table), a])
    if kind == "non-standard":  # T.[I | A], columns permuted
        gen = ring_matmul(_invertible(data, table, k), gen, table)
    elif kind == "no-set":  # a row scaled by a nonzero non-unit, or a repeated row
        i = data.draw(st.integers(0, k - 1))
        if k > 1 and data.draw(st.booleans()):
            gen[i] = gen[(i + 1) % k]
        else:
            scale = data.draw(st.sampled_from([x for x in _nonunits(table) if x]))
            gen[i] = table.MUL[scale, gen[i]]
    if kind in ("non-standard", "no-set"):
        gen = gen[:, data.draw(st.permutations(range(gen.shape[1])))]
    c = LinearCode(gen, table)
    sets = information_sets(c.gen, table)
    if kind == "one-set":
        assert sets == (tuple(range(k)),)
    assert (len(sets[0]) < k) == (kind == "no-set")
    return c, sets


@pytest.mark.parametrize("kind", ["one-set", "non-standard", "no-set"])
@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_over_budget_routes_match_sweep(name, kind, data):
    table = SCALARS[name][0]
    c, sets = _routed_generator(data, table, kind)
    budget = data.draw(st.integers(0, table.size ** c.k - 1))
    res = c.min_lee_distance(budget)
    d = sweep_distance(c)
    assert c.contains([res.witness]).all()
    assert any(res.witness) and lee_weight_vector(res.witness, table) == res.value
    assert res.lower_bound <= d <= res.value
    assert res.certificate.startswith("levels ")
    # level 1 on the first set fits, after level 0 (the torsion code) on a
    # partial one
    r = len(sets[0])
    if budget >= table.size ** (c.k - r) * (table.bits * r + (r < c.k)):
        assert res.exact or res.lower_bound >= 2


@pytest.mark.parametrize("kind", ["standard", "non-standard", "no-set"])
@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fitting_budget_is_exact(name, kind, data):
    # once size^k messages fit the budget, the levels of one set always
    # run to the end, whatever the sets: the value is the census minimum
    table = SCALARS[name][0]
    c, sets = _routed_generator(data, table, kind)
    total = table.size ** c.k
    budget = data.draw(st.integers(total, 2 * total))
    res = c.min_lee_distance(budget)
    assert res.exact and res.value == sweep_distance(c)
    assert c.contains([res.witness]).all()
    assert any(res.witness) and lee_weight_vector(res.witness, table) == res.value
    assert res.certificate.startswith("levels ")


@pytest.mark.parametrize("shape", ["standard", "scaled"])
@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_witness_is_a_codeword_of_its_weight(name, shape, data):
    # at the full budget, and at a cap below size^k that may leave an
    # upper bound, the witness is a codeword of Lee weight `value`
    table = SCALARS[name][0]
    c = LinearCode(data.draw(generators(name, shape)), table)
    assume(not c.is_zero)
    for budget in (table.size ** c.k, data.draw(st.integers(0, table.size ** c.k - 1))):
        res = c.min_lee_distance(budget)
        assert c.contains([res.witness]).all()
        assert lee_weight_vector(res.witness, table) == res.value


@pytest.mark.parametrize("table", [R, Z4, F2U], ids=str)
def test_packed_add_and_weight_match_tables(table):
    rng = np.random.default_rng(table.size + table.LOW)
    for m in (1, 7, 16, 33, 70):
        x = rng.integers(0, table.size, size=(200, m), dtype=np.uint8)
        y = rng.integers(0, table.size, size=(200, m), dtype=np.uint8)
        px, py, low = pack_rows(x, table).T, pack_rows(y, table).T, table.low_mask
        assert px.shape == (-(-m * table.bits // 64), 200)
        assert (packed_add(px, py, low) == pack_rows(table.ADD[x, y], table).T).all()
        assert (packed_weight(px, low).sum(axis=0) == table.LEE[x].sum(axis=1)).all()


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_span_blocks_match_byte_tables(name, data):
    # the packed words, unpacked, are the oracle's digit rows block for
    # block: rows of one word and of several, and blocks cut after one or
    # two digits as well as at 2^20 rows
    table, *_, kmax, _ = SCALARS[name]
    k, m = data.draw(st.integers(0, kmax + 1)), data.draw(st.integers(0, 70))
    rows = np.array(data.draw(st.lists(st.integers(0, table.size - 1),
                                       min_size=k * m, max_size=k * m)), np.uint8).reshape(k, m)
    lo_bits = data.draw(st.sampled_from([oracles._LO_BITS, table.bits, 2 * table.bits]))
    words = max(1, -(-m // (64 // table.bits)))  # a row: 16 bytes per packed word
    with mock.patch.object(code_module, "SCRATCH_BYTES", 16 * words << lo_bits), \
            mock.patch.object(oracles, "_LO_BITS", lo_bits):
        got, want = list(span_blocks(rows, table)), list(oracles.span_blocks(rows, table))
    assert [start for start, _ in got] == [start for start, _ in want]
    for (_, words), (_, digits) in zip(got, want):
        assert words.dtype == np.uint64
        assert words.shape == (len(digits), -(-m * table.bits // 64))
        assert np.array_equal(unpack_rows(words, m, table), digits)
        assert np.array_equal(words, pack_rows(digits, table))
