import json
import os
from itertools import product
from math import comb

import numpy as np
import pytest

from z4u import code as code_module
from z4u import ring
from z4u.code import (DEFAULT_BUDGET, LinearCode, SelfDuality, _InfoSet, dual_of_standard_form,
                      identity, information_sets, inner, lee_levels, lee_weight_vector,
                      pack_rows, ring_matmul, span_blocks, unpack_rows)
from z4u.construct import circulant
from z4u.errors import BudgetExceeded, ZeroCode
from z4u.ring import F2U, Z4

from oracles import (dual_bruteforce, is_linear, members, sweep_census, sweep_contains,
                     sweep_distance, unit_columns)


def R(tok):
    return ring.parse_element(tok)


def direct_span(gen):
    """Oracle: deduplicated span via plain scalar arithmetic."""
    k = len(gen)
    n = len(gen[0])
    words = set()
    msgs = [[]]
    for _ in range(k):
        msgs = [m + [v] for m in msgs for v in range(16)]
    for msg in msgs:
        w = [ring.ZERO] * n
        for c, row in zip(msg, gen):
            for j in range(n):
                w[j] = ring.add(w[j], ring.mul(c, row[j]))
        words.add(tuple(w))
    return words


def test_codewords_of_u():
    c = LinearCode([[ring.U]])
    assert direct_span([[ring.U]]) == members(c) == {(0,), (1,), (2,), (3,)}
    assert c.cardinality() == 4


def test_codewords_of_unit_row():
    c = LinearCode([[ring.ONE]])
    assert members(c) == {(x,) for x in ring.ELEMENTS}


def test_standard_form_cardinality_matches_dedup_oracle():
    gen = np.hstack([np.array([[ring.ONE, ring.ZERO], [ring.ZERO, ring.ONE]],
                              dtype=np.uint8),
                     circulant([R("20"), R("12")])])
    c = LinearCode(gen)
    assert c.standard_form
    assert c.cardinality() == 256
    assert direct_span(gen.tolist()) == members(c)
    assert len(members(c)) == 256


def test_iter_codewords_no_duplicates_and_odometer_order():
    # the codeword blocks of a standard-form code: one word per message
    c = LinearCode(np.hstack([np.eye(1, dtype=np.uint8) * ring.ONE,
                              np.array([[ring.U]], dtype=np.uint8)]))
    words = [tuple(w) for _, blk in c.codeword_blocks() for w in unpack_rows(blk, 2).tolist()]
    assert len(words) == len(set(words)) == 16
    assert words[0] == (0, 0)
    # messages iterate 0..15, so first coordinate of word i is i
    assert [w[0] for w in words] == list(range(16))


def test_enumeration_budget():
    c = LinearCode([[ring.U] * 2] * 8)
    with pytest.raises(BudgetExceeded):
        c.cardinality(budget=16 ** 3)
    with pytest.raises(BudgetExceeded):
        c.contains([[0, 0]], budget=16 ** 3)


def test_contains_rejects_entries_out_of_range():
    # the same answer for a code in standard form and one that is not
    for gen in ([[1, 2]], [[2, 1]]):
        c = LinearCode(gen, Z4)
        for word in ([5, 2], [4, 0], [-1, 2], [1.5, 2], [257, 2]):
            with pytest.raises(ValueError):
                c.contains([word])
    for gen in ([[-1, 2]], [[1.5, 2]]):
        with pytest.raises(ValueError):
            LinearCode(gen, Z4)


@pytest.mark.parametrize("kind", ["standard", "nonfree"])
def test_one_reduction_per_code(monkeypatch, kind):
    # information sets and the systematic form are found once per code and
    # shared by every count over it
    calls = []
    found = code_module.information_sets
    monkeypatch.setattr(code_module, "information_sets",
                        lambda g, table: calls.append(g) or found(g, table))
    c = LinearCode(np.hstack([identity(3), circulant([R("13"), R("20"), R("01")])])
                   if kind == "standard" else _scaled_rows(ring.R, 4, 6, 31))
    assert (len(found(c.gen, ring.R)[0]) < c.k) == (kind == "nonfree")
    c.cardinality()
    c.contains(c.gen)
    assert c.same_code(c)
    c.self_duality()
    c.min_lee_distance()
    c.lee_census()
    assert len(calls) == 1


def test_census_past_former_storage_cap():
    # 4^13 messages, more than the 16^6 a deduplicated store allowed: the
    # census counts them all and divides by the zero word's 4^11 preimages
    c = LinearCode(np.vstack([identity(2, Z4), np.full((11, 2), 2, dtype=np.uint8)]), Z4)
    assert not c.standard_form
    assert c.lee_census().tolist() == [1, 4, 6, 4, 1]
    assert c.cardinality() == 16


def test_inner_product():
    assert inner((ring.ONE, ring.ONE), (ring.ONE, R("30"))) == ring.ZERO
    v = (ring.U, R("21"))
    assert inner(v, v) == ring.ZERO
    assert inner((ring.TWO_U,), (R("30"),)) == ring.TWO_U
    with pytest.raises(ValueError):
        inner((ring.ONE,), (ring.ONE, ring.ONE))


def test_dual_bruteforce_u():
    c = LinearCode([[ring.U]])
    d = dual_bruteforce(c)
    assert d.tolist() == [[0], [1], [2], [3]]
    assert is_linear(set(map(tuple, d.tolist())), 16, ring.add, ring.mul)


def test_dual_of_zero_row_is_everything():
    c = LinearCode([[ring.ZERO]])
    assert dual_bruteforce(c).tolist() == [[x] for x in ring.ELEMENTS]


def test_dual_bruteforce_two_zero():
    c = LinearCode([[R("20"), ring.ZERO]])
    d = dual_bruteforce(c)
    assert len(d) == 64
    assert c.cardinality() * len(d) == 16 ** 2
    for x, y in d.tolist():
        assert ring.mul(R("20"), x) == ring.ZERO


def test_dual_join_two_word_keys_in_small_blocks(monkeypatch):
    # 18 rows over R pack into two 64-bit key words; rows times 2u leave a
    # dual of thousands of words, cut into many blocks when a 16-byte bound
    # (one index pair) starts a block of high keys at every solution
    rng = np.random.default_rng(5)
    c = LinearCode(ring.R.MUL[ring.TWO_U, rng.integers(0, 16, size=(18, 4))])
    oracle = dual_bruteforce(c)
    assert len(oracle) > 1000
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 16)
    blocks = list(c.dual_blocks())
    assert len(blocks) > 16 and max(map(len, blocks)) < 16 + 16 ** 2
    assert np.array_equal(np.concatenate(blocks), oracle)


def test_dual_blocks_budget():
    with pytest.raises(BudgetExceeded):
        LinearCode([[ring.U] * 3]).dual_blocks(16 ** 3 - 1)


def test_size_product_on_random_codes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gen = rng.integers(0, 16, size=(2, 2), dtype=np.uint8)
        c = LinearCode(gen)
        d = dual_bruteforce(c)
        assert c.cardinality() * len(d) == 16 ** 2


def test_double_dual_contains_code():
    rng = np.random.default_rng(11)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(1, 2), dtype=np.uint8)
        c = LinearCode(gen)
        dual = dual_bruteforce(c)
        dual_rows = dual[dual.any(axis=1)] if dual.any() else dual
        ddual = dual_bruteforce(LinearCode(dual_rows))
        assert direct_span(gen.tolist()) <= set(map(tuple, ddual.tolist()))
        assert len(ddual) == c.cardinality()


def test_dual_standard_form():
    c = LinearCode([[ring.ONE, ring.U]])
    d = dual_of_standard_form(c)
    assert d.gen.tolist() == [[ring.neg(ring.U), ring.ONE]]
    assert ring.neg(ring.U) == R("03")
    # matches brute force as a codeword set
    assert members(d) == set(map(tuple, dual_bruteforce(c).tolist()))


def test_dual_standard_vs_bruteforce_small_circulants():
    rng = np.random.default_rng(13)
    for n in (2, 3):
        for _ in range(5):
            a = rng.integers(0, 16, size=(n, n), dtype=np.uint8)
            gen = np.hstack([np.diag([ring.ONE] * n).astype(np.uint8), a])
            c = LinearCode(gen)
            d = dual_of_standard_form(c)
            dual = dual_bruteforce(c)
            assert direct_span(d.gen.tolist()) == set(map(tuple, dual.tolist()))
            assert d.contains(dual).all() and d.cardinality() == len(dual)


def test_dual_standard_symmetric_matrix():
    a = np.array([[ring.ZERO, R("11")], [R("11"), R("20")]], dtype=np.uint8)
    c = LinearCode(np.hstack([np.diag([ring.ONE, ring.ONE]).astype(np.uint8), a]))
    d = dual_of_standard_form(c)
    assert np.array_equal(d.gen[:, :2], ring.R.NEG[a])


def test_self_duality_classes():
    assert LinearCode([[ring.U]]).self_duality() is SelfDuality.SELF_DUAL
    two = LinearCode([[ring.U, ring.ZERO], [ring.ZERO, ring.U]])
    assert two.self_duality() is SelfDuality.SELF_DUAL
    assert LinearCode([[ring.ONE]]).self_duality() is SelfDuality.NEITHER
    assert LinearCode([[ring.TWO_U]]).self_duality() is SelfDuality.SELF_ORTHOGONAL_ONLY


def test_self_orthogonal_unit_count_parity():
    # every codeword of a self-orthogonal code has even type-1/type-2 counts
    for gen in ([[ring.U]], [[ring.U, ring.ZERO], [ring.ZERO, ring.U]],
                [[R("11"), R("11")]]):
        c = LinearCode(gen)
        if not c.is_self_orthogonal():
            continue
        for w in direct_span(gen):
            types = [ring.unit_type(x) for x in w]
            assert types.count(ring.UnitType.TYPE1) % 2 == 0
            assert types.count(ring.UnitType.TYPE2) % 2 == 0


def test_all_2u_vector_in_self_dual_codes():
    two = LinearCode([[ring.U, ring.ZERO], [ring.ZERO, ring.U]])
    assert two.contains([[ring.TWO_U, ring.TWO_U]]).tolist() == [True]


def test_min_distance_u():
    c = LinearCode([[ring.U]])
    res = c.min_lee_distance()
    assert res.value == 2 and res.exact
    # the witness really is a weight-2 codeword
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness) == 2


def test_min_distance_matches_set_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        gen = rng.integers(0, 16, size=(2, 3), dtype=np.uint8)
        c = LinearCode(gen)
        if c.is_zero:
            continue
        weights = sorted(lee_weight_vector(w) for w in direct_span(gen.tolist())
                         if any(w))
        if not weights:
            continue
        assert c.min_lee_distance().value == weights[0]


def test_min_distance_zero_code():
    with pytest.raises(ZeroCode):
        LinearCode([[ring.ZERO, ring.ZERO]]).min_lee_distance()


def test_min_distance_upper_bound_flag():
    gen = np.hstack([np.diag([ring.ONE] * 2).astype(np.uint8),
                     circulant([R("20"), R("12")])])
    # level 1 holds 8 messages on each of the two information sets: at
    # budget 7 neither runs, so the bound stays at 0 + 0 + 2 and the best
    # word is the lighter generator row (weight 6)
    res = LinearCode(gen).min_lee_distance(budget=7)
    assert not res.exact
    assert res.value == 6 and res.lower_bound == 2 and res.certificate == "levels 0/0"
    # the cap counts each set on its own: at budget 8 both sets scan level
    # 1, lower bound 4 (a cap on the total stopped at levels 1/0, bound 3)
    res = LinearCode(gen).min_lee_distance(budget=8)
    assert not res.exact
    assert res.value == 6 and res.lower_bound == 4 and res.certificate == "levels 1/1"
    # level 2 (28 more messages on the first set) finds the weight-4 word
    res = LinearCode(gen).min_lee_distance(budget=36)
    assert res.exact and res.value == 4
    # all-unit circulant: three equal unit columns, no two disjoint
    # information sets, so over budget it takes the levels on the identity
    # columns alone: 16 messages scan level 1 (12 messages), lower bound 2
    unit_block = np.hstack([identity(3), circulant([R("10"), R("30"), R("12")])])
    res = LinearCode(unit_block).min_lee_distance(budget=16)
    assert not res.exact and res.certificate == "levels 1" and res.lower_bound == 2
    assert res.value >= LinearCode(unit_block).min_lee_distance().value


def test_budget_of_size_k_is_exact_per_information_set():
    # the repetition code of length 10: 16 messages, and budget 16.  Each
    # set's levels 1..4 hold 4 + 6 + 4 + 1 = 15 of them, so levels 4/4 meet
    # d = 10 (30 in total, which a cap on the total would refuse)
    res = LinearCode([[ring.ONE] * 10]).min_lee_distance(budget=16)
    assert res.exact and res.value == 10 and res.certificate == "levels 4/4"
    # the Z4 code [1 1 1 2]: the levels alone make d = 5 exact, with no
    # second pass over the message space
    res = LinearCode([[1, 1, 1, 2]], Z4).min_lee_distance()
    assert res.exact and res.value == 5 and res.certificate == "levels 2/1"


def test_all_unit_double_circulant_past_budget_is_exact():
    # k = 8: 16^8 messages exceed the default budget, and the eight equal
    # all-unit columns leave no two disjoint information sets, so the levels
    # run on the identity columns alone; level 7 meets the weight-8 word
    # (random messages had only found weight 14)
    row = np.random.default_rng(1008).choice(sorted(ring.UNITS), size=8).astype(np.uint8)
    c = LinearCode(np.hstack([identity(8), circulant(row)]))
    res = c.min_lee_distance()
    assert res.exact and res.value == 8 and res.certificate == "levels 7"
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness) == 8


def test_low_weight_message_count():
    # messages of Lee weight t on an information set of k coordinates are
    # the t-subsets of its Gray bits, and each half table lists exactly
    # the messages of its weight, for each set of the stack (oracle: every
    # message of ring^h, times that entry's parity rows)
    for table, k in ((ring.R, 5), (Z4, 6), (F2U, 6)):
        a = np.triu(np.random.default_rng(k).integers(0, table.size, (k, k), np.uint8), 1)
        np.fill_diagonal(a, table.ONE)  # a unit pattern invertible over F2
        gen = np.hstack([identity(k, table), a])
        sets = (tuple(range(k)), tuple(range(k, 2 * k)))
        info = _InfoSet(gen[None], sets, table)  # one code, stacked on two sets
        bits = table.bits * k
        assert info.counts == [comb(bits, t) for t in range(bits + 1)]
        for e, cols in enumerate(sets):
            assert (info.rows[e][:, cols] == identity(k, table)).all()
            parity = info.rows[e][:, [j for j in range(2 * k) if j not in cols]]
            for half, rows in zip(info.halves, (parity[:k // 2], parity[k // 2:])):
                every = np.array(list(product(range(table.size), repeat=half.h)), np.uint8)
                weights = table.LEE[every].sum(axis=1)
                for t in range(table.max_lee * half.h + 1):
                    words = np.bitwise_or(*half.level(t))  # its low-bit and other-bit parts
                    assert words.dtype == np.uint32  # k parity elements fit 32 bits
                    digits = np.array([half.message(t, i) for i in range(words.shape[1])],
                                      np.uint8).reshape(-1, half.h)
                    assert sorted(map(tuple, digits.tolist())) == \
                        sorted(map(tuple, every[weights == t].tolist()))
                    assert (words[e] == pack_rows(ring_matmul(digits, rows, table), table).T).all()


@pytest.mark.parametrize("table", [ring.R, Z4, F2U], ids=str)
def test_unit_columns_match_oracle(table, monkeypatch):
    # the packed unit patterns equal the bit-by-bit oracle, past 64 rows too,
    # and give the same information sets on random and scaled generators
    rng = np.random.default_rng(table.size)
    gens = [rng.integers(0, table.size, size=shape, dtype=np.uint8)
            for shape in ((1, 1), (3, 7), (6, 12), (9, 20), (70, 3))]
    gens += [_scaled_rows(table, k, n, seed) for k, n, seed in ((4, 8, 1), (6, 13, 2), (9, 18, 3))]
    sets = [information_sets(g, table) for g in gens]
    for g in gens:
        assert code_module._unit_columns(g, table) == unit_columns(g, table)
    monkeypatch.setattr(code_module, "_unit_columns", unit_columns)
    assert [information_sets(g, table) for g in gens] == sets


@pytest.mark.parametrize("table,m,word", [(ring.R, 8, np.uint32), (ring.R, 9, np.uint64),
                                          (Z4, 16, np.uint32), (Z4, 17, np.uint64),
                                          (F2U, 16, np.uint32), (F2U, 17, np.uint64)], ids=str)
def test_parity_words_no_wider_than_parity(table, m, word):
    # one uint32 holds a parity of up to 32 bits, and the join's weights are
    # the parity words' Lee weights (oracle: the products' weights)
    gen = np.hstack([identity(2, table), np.random.default_rng(m).integers(
        0, table.size, (2, m), np.uint8)])
    info = _InfoSet(gen[None], (range(2),), table)
    hi, lo = info.halves
    for wh in range(hi.top + 1):
        for wl in range(lo.top + 1):
            msgs = np.array([hi.message(wh, i) + lo.message(wl, j)
                             for i in range(hi.level(wh)[0].shape[1])
                             for j in range(lo.level(wl)[0].shape[1])], np.uint8)
            (_, _, wt), = info.join(wh, wl)
            assert hi.level(wh)[0].dtype == word
            assert wt.ravel().tolist() == table.LEE[ring_matmul(msgs, gen[:, 2:], table)].sum(
                axis=1).tolist()


def test_exact_kernel_crosses_block_split():
    # k = 6: the oracle census runs in 16 shards of the two-level layout,
    # and its least nonzero weight is the oracle for the Lee levels
    rng = np.random.default_rng(3)
    row = rng.integers(0, 16, size=6, dtype=np.uint8)
    gen = np.hstack([np.diag([ring.ONE] * 6).astype(np.uint8), circulant(row)])
    c = LinearCode(gen)
    res = c.min_lee_distance()
    hist = sweep_census(c)
    first = next(w for w in range(1, len(hist)) if hist[w])
    assert res.value == first


def test_census_total_and_zero_bin():
    c = LinearCode(np.hstack([np.diag([ring.ONE] * 2).astype(np.uint8),
                              circulant([R("20"), R("12")])]))
    hist = c.lee_census()
    assert hist.sum() == 256
    assert hist[0] == 1


def _scaled_rows(table, k, n, seed):
    """A random k x n generator with rows 0 and 1 times nonzero non-units
    (2 and u over R): its unit pattern has rank below k, so the rows are no
    free basis and its information sets are partial."""
    gen = np.random.default_rng(seed).integers(0, table.size, size=(k, n), dtype=np.uint8)
    non_units = [x for x in range(1, table.size) if not table.INV[x]]
    scale = (R("20"), R("01")) if table is ring.R else (non_units[0], non_units[-1])
    gen[0], gen[1] = table.MUL[scale[0], gen[0]], table.MUL[scale[1], gen[1]]
    return gen


def _dc6():
    row = np.random.default_rng(5).integers(0, 16, size=6, dtype=np.uint8)
    return np.hstack([identity(6), circulant(row)])


CENSUS_CASES = {
    # two information sets; 16^6 message pairs are 256 join steps of 2^16
    # pairs at the default SCRATCH_BYTES
    "R-dc-k6": (ring.R, _dc6, 2, None),
    # rows scaled by 2 and by u: two partial information sets and |K| > 1
    "R-nonfree-k6-n8": (ring.R, lambda: _scaled_rows(ring.R, 6, 8, 11), 2, None),
    "F2U-nonfree-k5-n6": (F2U, lambda: _scaled_rows(F2U, 5, 6, 12), 2, None),
    # not in standard form; 38 parity columns fill two packed words
    "Z4-free-k5-n43": (Z4, lambda: np.random.default_rng(13).integers(
        0, 4, size=(5, 43), dtype=np.uint8), 2, None),
    # 16^6 messages past a budget of 16^6 - 1
    "R-over-budget": (ring.R, _dc6, 2, 16 ** 6 - 1),
}


@pytest.mark.parametrize("case", CENSUS_CASES)
def test_census_matches_oracle(case):
    table, make, n_sets, budget = CENSUS_CASES[case]
    c = LinearCode(make(), table)
    sets = information_sets(c.gen, table)
    assert len(sets) == n_sets
    if budget is not None:
        with pytest.raises(BudgetExceeded):
            c.lee_census(budget)
        return
    messages = sweep_census(c)
    kernel = int(messages[0])
    assert (kernel > 1) == (len(sets[0]) < c.k)
    assert c.lee_census().tolist() == (messages // kernel).tolist()
    assert c.cardinality() == table.size ** c.k // kernel


@pytest.mark.parametrize("table,k,n,seed", [(ring.R, 4, 6, 21), (ring.R, 5, 5, 22),
                                            (Z4, 7, 9, 23), (F2U, 8, 8, 24)], ids=str)
def test_nonfree_cardinality_below_size_k_budget(table, k, n, seed):
    # |C| = size^k / |K| takes a sweep of the size^(k-r) torsion messages
    # alone, so a budget below size^k is enough (the full census is refused)
    c = LinearCode(_scaled_rows(table, k, n, seed), table)
    r = len(information_sets(c.gen, table)[0])
    assert r < k
    budget = table.size ** k - 1
    with pytest.raises(BudgetExceeded):
        c.lee_census(budget)
    messages = sweep_census(c)
    assert c.cardinality(budget) == table.size ** k // int(messages[0])
    assert c.cardinality(table.size ** (k - r)) == c.cardinality()
    with pytest.raises(BudgetExceeded):
        c.cardinality(table.size ** (k - r) - 1)
    # membership sweeps the same torsion messages
    words = np.vstack([c.gen, table.ADD[c.gen[:1], c.gen[1:2]], np.ones((1, n), np.uint8)])
    assert c.contains(words, table.size ** (k - r)).tolist() == \
        sweep_contains(c, words).tolist()
    with pytest.raises(BudgetExceeded):
        c.contains(words, table.size ** (k - r) - 1)


def test_nonfree_k6_past_budget_is_exact():
    # 16^6 messages, budget 16^6 // 50: the partial sets' levels 1/0 meet
    # the weight-3 word
    c = LinearCode(_scaled_rows(ring.R, 6, 8, 11))
    res = c.min_lee_distance(16 ** 6 // 50)
    assert res.exact and res.certificate.startswith("levels ")
    assert res.value == sweep_distance(c)
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness) == res.value


def test_codeword_set_linearity():
    c = LinearCode([[ring.U, R("21")]])
    assert is_linear(members(c), 16, ring.add, ring.mul)


def test_sharded_kernel_over_z4():
    # k = 11 exceeds the 10 low digits of a 4-element ring: the Z4 census
    # and distance, checked against a plain sweep over all 4^11 messages
    k = 11
    a = np.random.default_rng(17).integers(0, 4, size=(k, 2), dtype=np.uint8)
    c = LinearCode(np.hstack([identity(k, Z4), a]), Z4)
    idx = np.arange(4 ** k, dtype=np.int64)
    weights = np.zeros(4 ** k, dtype=np.int64)
    tails = np.zeros((4 ** k, 2), dtype=np.uint8)
    for i in range(k):
        digit = ((idx >> (2 * (k - 1 - i))) & 3).astype(np.uint8)
        weights += Z4.LEE[digit]
        tails = (tails + digit[:, None] * a[i]) & 3
    weights += Z4.LEE[tails].sum(axis=1, dtype=np.int64)
    expected = np.bincount(weights, minlength=2 * c.n + 1).tolist()
    assert c.lee_census().tolist() == expected
    res = c.min_lee_distance()
    assert res.exact and res.value == int(weights[1:].min())
    assert c.contains([res.witness]).all()
    assert lee_weight_vector(res.witness, Z4) == res.value


@pytest.mark.parametrize("table", [ring.R, Z4, F2U], ids=str)
def test_square_free_generator_has_no_parity_columns(table):
    # n = k and not the identity: the information set is every column, so
    # the levels join messages with no parity words.  x is nilpotent, so
    # [[1, x], [x, 1]] is invertible and the code is ring^2
    x = next(x for x in range(1, table.size) if not table.INV[x])
    c = LinearCode([[table.ONE, x], [x, table.ONE]], table)
    assert not c.standard_form
    res = c.min_lee_distance(budget=2 * table.bits)
    assert res.exact and res.value == 1
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness, table) == 1


def test_generator_is_copied_not_frozen_in_place():
    a = np.zeros((1, 2), np.uint8)
    LinearCode(a)
    a[0, 1] = 1
    assert a[0, 1] == 1


def all_messages(k, table):
    """Every message of ring^k as digit rows, odometer order (last fastest)."""
    idx = np.arange(table.size ** k, dtype=np.int32)
    return np.stack([(idx >> (table.bits * (k - 1 - i))) & (table.size - 1)
                     for i in range(k)], axis=1).astype(np.uint8)


@pytest.mark.parametrize("table,k,m", [(ring.R, 3, 4), (ring.R, 2, 0), (Z4, 5, 3),
                                       (F2U, 4, 0), (Z4, 11, 2), (F2U, 11, 3)])
def test_span_blocks_equal_ring_matmul(table, k, m, monkeypatch):
    # k = 11 over a 4-element ring has one high digit past blocks of 2^20
    # rows of one packed word, 16 bytes each: four blocks
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 16 << 20)
    rows = np.random.default_rng(k * 10 + m).integers(0, table.size, size=(k, m),
                                                        dtype=np.uint8)
    blocks = list(span_blocks(rows, table))
    assert [start for start, _ in blocks] == [i * len(blocks[0][1])
                                              for i in range(len(blocks))]
    assert len(blocks) == (4 if k == 11 else 1)
    got = unpack_rows(np.concatenate([blk for _, blk in blocks], axis=0), m, table)
    assert got.shape == (table.size ** k, m)
    assert np.array_equal(got, ring_matmul(all_messages(k, table), rows, table))


@pytest.mark.parametrize("table,k", [(ring.R, 3), (Z4, 11), (F2U, 11)])
def test_identity_code_has_empty_parity_block(table, k):
    # standard form with k = n: the parity block has 0 columns
    c = LinearCode(identity(k, table), table)
    assert c.standard_form and c.n == k
    per_digit = np.bincount(table.LEE, minlength=table.max_lee + 1)
    expected = np.array([1], dtype=np.int64)
    for _ in range(k):
        expected = np.convolve(expected, per_digit)
    assert c.lee_census().tolist() == expected.tolist()
    res = c.min_lee_distance()
    assert res.exact and res.value == 1
    assert c.contains([res.witness]).all() and lee_weight_vector(res.witness, table) == 1
    assert dual_bruteforce(c).tolist() == [[0] * k]


def test_batch_in_parts_and_small_blocks_matches_single_codes(monkeypatch):
    # dc codes of length 6 and 8 over three units and 20, grouped by their
    # information sets: the same results when each batch runs in parts of two
    # codes of length 8 on two sets (a bound of two codes' two sets' two half
    # tables of 16^2 split uint32 entries, 8 bytes each; four codes on one
    # set) and when every join runs in blocks of at most 16 pairs (a bound of
    # 16 pairs of 8 bytes), so blocks split the codes and the high messages
    alphabet = [R("10"), R("13"), R("31"), R("20")]
    codes = [LinearCode(np.hstack([identity(len(row)), circulant(row)]))
             for n in (3, 4) for row in product(alphabet, repeat=n) if row[0] != R("20")]
    groups = {}
    for c in codes:
        groups.setdefault(information_sets(c.gen), []).append(c)
    assert len(groups) > 2 and max(map(len, groups.values())) > 8
    want = {sets: [c.min_lee_distance() for c in group] for sets, group in groups.items()}
    for bound in (2 * 2 * 2 * 16 ** 2 * 8, 16 * 8):
        monkeypatch.setattr(code_module, "SCRATCH_BYTES", bound)
        for sets, group in groups.items():
            assert lee_levels(np.array([c.gen for c in group]), ring.R, sets,
                              DEFAULT_BUDGET) == want[sets]


KERNEL_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "kernel.json")


def _largest_group(table, gens, count):
    """The `count` information sets most of the generators hold, and those
    generators stacked in order."""
    groups = {}
    for g in gens:
        sets = information_sets(g, table)
        if len(sets) == count:
            groups.setdefault(sets, []).append(g)
    sets = max(groups, key=lambda s: len(groups[s]))
    return sets, np.array(groups[sets])


def _systematic_stack(table, k, parity, count, seed, units=False):
    """`count` random [I | A] generators, A k x parity (over the units only
    when `units`)."""
    rng = np.random.default_rng(seed)
    pool = np.array([x for x in range(table.size) if table.INV[x] or not units], np.uint8)
    a = pool[rng.integers(0, len(pool), size=(count, k, parity))]
    return np.concatenate([np.broadcast_to(identity(k, table), (count, k, k)), a], axis=2)


def _scaled_stack(table, k, n, count, seed):
    return [_scaled_rows(table, k, n, seed + i) for i in range(count)]


#: name: (ring, generators, information sets, cap, SCRATCH_BYTES or None for
#: the default); the generators are grouped by their information sets, and
#: the largest group with that many sets is the batch
KERNEL_CASES = {
    # free dc codes of length 8 on two information sets, exact; then the
    # same batch in parts of two codes, and in joins of at most 16 pairs
    "R-dc4-two-sets": (ring.R, lambda: _systematic_stack(ring.R, 4, 4, 200, 31), 2,
                       DEFAULT_BUDGET, None),
    "R-dc4-parts": (ring.R, lambda: _systematic_stack(ring.R, 4, 4, 200, 31), 2,
                    DEFAULT_BUDGET, 2 * 2 * 2 * 16 ** 2 * 16),
    "R-dc4-small-joins": (ring.R, lambda: _systematic_stack(ring.R, 4, 4, 200, 31), 2,
                          DEFAULT_BUDGET, 8 * 16),
    # one information set
    "R-dc4-one-set": (ring.R, lambda: _systematic_stack(ring.R, 4, 4, 60, 32, units=True), 1,
                      DEFAULT_BUDGET, None),
    # capped below 16^5: upper bounds, on two sets and on one
    "R-k5-capped": (ring.R, lambda: _systematic_stack(ring.R, 5, 5, 120, 33), 2, 16 ** 3, None),
    "R-k5-one-set-capped": (ring.R, lambda: _systematic_stack(ring.R, 5, 5, 120, 33), 1,
                            16 ** 3, None),
    # parities of 8 R elements (32 bits) and of 9 (36 bits); 16^8 messages
    # pass the cap, and 16^3 leaves upper bounds
    "R-k8-parity8": (ring.R, lambda: _systematic_stack(ring.R, 8, 8, 40, 34), 2,
                     DEFAULT_BUDGET, None),
    "R-k8-parity9": (ring.R, lambda: _systematic_stack(ring.R, 8, 9, 30, 35), 2,
                     DEFAULT_BUDGET, None),
    "R-k8-parity8-capped": (ring.R, lambda: _systematic_stack(ring.R, 8, 8, 40, 34), 2,
                            16 ** 3, None),
    "R-k8-parity9-capped": (ring.R, lambda: _systematic_stack(ring.R, 8, 9, 30, 35), 2,
                            16 ** 3, None),
    # rows scaled by 2 and by u: partial sets, exact and capped
    "R-nonfree-k5-n7": (ring.R, lambda: _scaled_stack(ring.R, 5, 7, 80, 36), 2,
                        DEFAULT_BUDGET, None),
    "R-nonfree-k6-n9-capped": (ring.R, lambda: _scaled_stack(ring.R, 6, 9, 60, 37), 2,
                               16 ** 4, None),
    # Z4 and F2+uF2 parities of 16 elements (32 bits) and of 17
    "Z4-k6-parity16": (Z4, lambda: _systematic_stack(Z4, 6, 16, 40, 38), 2, DEFAULT_BUDGET, None),
    "Z4-k6-parity17": (Z4, lambda: _systematic_stack(Z4, 6, 17, 40, 39), 2, DEFAULT_BUDGET, None),
    "F2U-k8-parity16": (F2U, lambda: _systematic_stack(F2U, 8, 16, 40, 40), 2,
                        DEFAULT_BUDGET, None),
    "F2U-k8-parity17-capped": (F2U, lambda: _systematic_stack(F2U, 8, 17, 40, 41), 2,
                               4 ** 5, None),
    "Z4-nonfree-k7-n9": (Z4, lambda: _scaled_stack(Z4, 7, 9, 30, 42), 1, DEFAULT_BUDGET, None),
    "Z4-nonfree-k5-n12": (Z4, lambda: _scaled_stack(Z4, 5, 12, 30, 44), 2, DEFAULT_BUDGET, None),
    "F2U-nonfree-k6-n8-capped": (F2U, lambda: _scaled_stack(F2U, 6, 8, 30, 43), 1, 4 ** 4, None),
    "F2U-nonfree-k6-n14-capped": (F2U, lambda: _scaled_stack(F2U, 6, 14, 30, 45), 2,
                                  4 ** 4, None),
}


def kernel_results(case):
    """(sets, [value, lower_bound, witness, certificate] per code) of one
    `KERNEL_CASES` batch; the caller sets SCRATCH_BYTES."""
    table, make, count, cap, _ = KERNEL_CASES[case]
    sets, gens = _largest_group(table, make(), count)
    return sets, [[d.value, d.lower_bound, list(d.witness), d.certificate]
                  for d in lee_levels(gens, table, sets, cap)]


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_golden(case, monkeypatch):
    # recorded from the kernel that scanned one information set at a time
    # on uint64 parity words; every field must come out the same
    with open(KERNEL_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[case]
    bound = KERNEL_CASES[case][4]
    if bound is not None:
        monkeypatch.setattr(code_module, "SCRATCH_BYTES", bound)
    sets, results = kernel_results(case)
    assert [list(s) for s in sets] == golden["sets"]
    assert results == golden["results"]
