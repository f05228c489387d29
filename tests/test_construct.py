import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import candidate_specs, isodual_map, maps_dual_into, search_unreduced
from z4u import code as code_module
from z4u import construct, ring
from z4u.code import DEFAULT_BUDGET, LinearCode, identity, lee_weight_vector
from z4u.construct import (BDC_TABLE, DC_TABLE, BorderSpec, CirculantSpec,
                           _candidates, _check, _isodual_q, _Move, _moved, _moves,
                           _orbits, _transposed, bordered_block, bordered_code,
                           circulant, double_circulant_code, search, symmetric_code,
                           table_specs, verify_tables)
from z4u.errors import BadBorder, BudgetExceeded, NotSymmetric
from z4u.wenum import is_formally_self_dual


def R(tok):
    return ring.parse_element(tok)


def test_circulant_structure():
    row = [R("10"), R("21"), R("03")]
    m = circulant(row)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == row[(j - i) % 3]


def test_symmetric_code():
    c = symmetric_code([[ring.U]])
    assert c.gen.tolist() == [[ring.ONE, ring.U]]
    assert is_formally_self_dual(c)
    a = np.array([[ring.ZERO, R("11")], [R("11"), R("20")]], dtype=np.uint8)
    c2 = symmetric_code(a)
    assert c2.n == 4 and c2.standard_form
    assert is_formally_self_dual(c2)
    with pytest.raises(NotSymmetric):
        symmetric_code([[ring.ZERO, ring.ONE], [R("30"), ring.ZERO]])


def test_double_circulant_code_shape():
    c = double_circulant_code([R("20"), R("12")])
    assert c.n == 4 and c.k == 2 and c.standard_form
    assert c.cardinality() == 16 ** 2


def test_bordered_code():
    c = bordered_code([ring.ZERO], R("00"), R("12"), R("12"))
    assert c.n == 4 and c.k == 2
    assert c.min_lee_distance().value == 4
    # gamma = -beta accepted
    bordered_code([ring.ZERO], R("00"), R("12"), ring.neg(R("12")))
    with pytest.raises(BadBorder):
        bordered_code([ring.ZERO], R("00"), R("10"), R("20"))


def test_bordered_block_layout():
    from z4u.construct import bordered_block
    b = bordered_block([R("02"), R("10")], R("33"), R("13"), R("13"))
    assert b[0, 0] == R("33")
    assert all(b[0, j] == R("13") for j in (1, 2))
    assert all(b[i, 0] == R("13") for i in (1, 2))
    assert b[1, 1] == R("02") and b[1, 2] == R("10")
    assert b[2, 1] == R("10") and b[2, 2] == R("02")


def test_table_rows_small_lengths_exact():
    for table, expect in ((2, {4: 4, 6: 6, 8: 8}), (3, {4: 4, 6: 6, 8: 8})):
        for length, spec, recorded in table_specs(table):
            if length not in expect:
                continue
            assert recorded == expect[length]
            got = spec.build().min_lee_distance()
            assert got.exact and got.value == recorded


def test_constructed_codes_formally_self_dual():
    specs = [CirculantSpec((R("20"), R("12"))),
             CirculantSpec((R("20"), R("10"), R("03"))),
             BorderSpec((ring.ZERO,), R("00"), R("12"), R("12")),
             BorderSpec((R("02"), R("10")), R("33"), R("13"), R("13"))]
    for spec in specs:
        assert is_formally_self_dual(spec.build())


def test_gray_images_formally_self_dual():
    from z4u.gray import gray_image
    for spec in (CirculantSpec((R("20"), R("12"))),
                 BorderSpec((ring.ZERO,), R("00"), R("12"), R("12"))):
        assert is_formally_self_dual(gray_image(spec.build()))


def test_search_dc_n1():
    out = search("dc", 1)
    # oracle: exhaustive scalar sweep over the 16 possible first rows
    per_row = {}
    for r in ring.ELEMENTS:
        per_row[r] = min(lee_weight_vector((x, ring.mul(x, r)))
                         for x in ring.ELEMENTS if x != ring.ZERO)
    best = max(per_row.values())
    assert out.best_distance == best == 4
    assert per_row[R("12")] == per_row[R("32")] == 4
    assert out.best_spec.first_row == (R("12"),)  # lex-smallest optimum
    assert out.exhaustive
    assert out.candidates == 16


def test_search_dc_n2_recovers_table():
    out = search("dc", 2, threshold=4)
    assert out.best_distance == 4
    assert out.exhaustive and out.candidates == 256
    # the catalogued first row attains the optimum
    catalogued = CirculantSpec((R("20"), R("12")))
    assert any(r.spec == catalogued and r.distance.value == 4 for r in out.results)
    # witness is the lexicographically smallest optimal row (oracle sweep)
    oracle_best = None
    for spec in (CirculantSpec(rw) for rw in
                 __import__("itertools").product(ring.ELEMENTS, repeat=2)):
        d = spec.build().min_lee_distance().value
        if d == 4:
            oracle_best = spec
            break
    assert out.best_spec == oracle_best
    # every retained dc result is formally self-dual (the enumerator oracle)
    assert all(is_formally_self_dual(r.spec.build()) for r in out.results)


def test_search_bdc_n2():
    out = search("bdc", 2, threshold=4)
    assert out.best_distance == 4
    # catalogued border triple attains it
    catalogued = BorderSpec((ring.ZERO,), R("00"), R("12"), R("12"))
    assert any(r.spec == catalogued and r.distance.value == 4 for r in out.results)


def test_search_deterministic_across_threads():
    a = search("dc", 2, threshold=4, threads=1)
    b = search("dc", 2, threshold=4, threads=2)
    assert a == b


class _SerialPool:
    """Stands in for a process pool: records its size, runs work in order."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(x) for x in items]


def _serial_pools(monkeypatch, cores):
    """The sizes of the pools `search` asks for, on a machine of `cores`
    cores, with no process started."""
    import multiprocessing

    sizes = []

    class _Context:
        def Pool(self, processes):
            return _SerialPool(sizes, processes)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _Context())
    monkeypatch.setattr(construct.os, "cpu_count", lambda: cores)
    return sizes


def test_worker_pools_capped_at_their_work(monkeypatch):
    # the 16 dc candidates for n = 1 fall into 10 negation orbits, one
    # evaluation each
    expected = search("dc", 1, threshold=2, threads=1)
    sizes = _serial_pools(monkeypatch, 64)
    assert search("dc", 1, threshold=2, threads=64) == expected
    assert sizes == [10]


def test_worker_pools_capped_at_cpu_count(monkeypatch):
    # --threads 5000 on the 60 orbits of the 8 units at n = 3 asks for one
    # worker per core, and none on a machine that reports no count
    expected = search("dc", 3, UNITS, threshold=6, threads=1)
    sizes = _serial_pools(monkeypatch, 3)
    assert search("dc", 3, UNITS, threshold=6, threads=5000) == expected
    assert sizes == [3]
    _serial_pools(monkeypatch, None)
    assert search("dc", 3, UNITS, threshold=6, threads=5000) == expected
    assert sizes == [3]


# ---------------------------------------------------------------------------
# Isometry orbits against the per-candidate search
# ---------------------------------------------------------------------------

UNITS = sorted(ring.UNITS)

ORBIT_CASES = [
    ("dc", 1, None), ("dc", 2, None), ("dc", 3, None),
    # alphabets that negation does not close
    ("dc", 3, [ring.ZERO, R("12")]), ("dc", 4, [ring.ZERO, R("12")]),
    ("dc", 4, [R("11"), R("31")]),
    ("bdc", 2, None),
    # 11 and 33 are each other's negatives; -12 is outside, so is gamma = -12
    ("bdc", 3, [ring.ZERO, R("11"), R("12"), R("33")]),
]
# 17 coordinates per bdc candidate: row keys of more than one word, and
# distances bounded at 16^2 messages per information set
CAPPED_CASES = [("bdc", 15, [R("11")], 16 ** 2)]


@pytest.mark.parametrize("kind,n,alphabet,budget",
                         [c + (DEFAULT_BUDGET,) for c in ORBIT_CASES] + CAPPED_CASES,
                         ids=[f"{k}{n}-{'all' if a is None else len(a)}"
                              for k, n, a, *_ in ORBIT_CASES + CAPPED_CASES])
def test_orbit_search_matches_unreduced(kind, n, alphabet, budget):
    want = search_unreduced(kind, n, alphabet, budget)
    witnesses = []
    for threads in (1, 2):
        got = search(kind, n, alphabet, budget, threads=threads)
        assert (got.kind, got.candidates, got.best_distance, got.best_spec, got.exhaustive) == \
            (want.kind, want.candidates, want.best_distance, want.best_spec, want.exhaustive)
        assert [(r.spec, r.distance.value, r.distance.exact) for r in got.results] == \
            [(r.spec, r.distance.value, r.distance.exact) for r in want.results]
        witnesses.append([r.distance.witness for r in got.results])
    assert witnesses[0] == witnesses[1]
    # orbit members carry their representative's witness, moved: each is a
    # codeword of weight `value`, checked for every result at once
    if got.results:
        words = np.array([r.distance.witness for r in got.results], dtype=np.uint8)
        assert _codewords_of_results(got.results, words).all()
        assert (ring.R.LEE[words].sum(axis=1, dtype=np.int64)
                == [r.distance.value for r in got.results]).all()


def _codewords_of_results(results, words: np.ndarray) -> np.ndarray:
    """Whether words[i] lies in the code of results[i].  Every result's
    generator is [I | B], so w is a codeword iff w[k:] = w[:k].B: `contains`
    for these codes, on the stacked blocks."""
    specs = [r.spec for r in results]
    if isinstance(specs[0], CirculantSpec):
        blocks = circulant(np.array([s.first_row for s in specs], dtype=np.uint8))
    else:
        blocks = bordered_block(np.array([s.first_row for s in specs], dtype=np.uint8),
                                *np.array([(s.alpha, s.beta, s.gamma) for s in specs]).T)
    k = blocks.shape[-1]
    right = np.zeros((len(words), k), dtype=np.uint8)
    for i in range(k):
        right = ring.R.ADD[right, ring.R.MUL[words[:, i, None], blocks[:, i]]]
    return (right == words[:, k:]).all(axis=1)


def test_stacked_membership_matches_contains():
    # the stacked check of the test above against `contains`, on codewords
    # and on words with one entry changed, dc and bdc
    rng = np.random.default_rng(7)
    for kind, n in (("dc", 3), ("bdc", 3)):
        results = search(kind, n, sorted(ring.UNITS), threshold=0).results[::37]
        words = np.array([r.distance.witness for r in results], dtype=np.uint8)
        at = rng.integers(0, words.shape[1], len(words))
        bent = words.copy()
        bent[np.arange(len(words)), at] ^= rng.integers(1, 16, len(words)).astype(np.uint8)
        for w in (words, bent):
            assert _codewords_of_results(results, w).tolist() == \
                [bool(r.spec.build().contains([x])[0]) for r, x in zip(results, w)]
        assert _codewords_of_results(results, words).all()
        assert not _codewords_of_results(results, bent).any()


def _count_calls(monkeypatch, n, alphabet):
    """A dc search at threshold 2n, with the codes sent to the distance
    kernel, the candidates orbit-checked and isodual-certified, and the
    `information_sets` calls counted."""
    calls = {"distance": 0, "orbit": 0, "isodual": 0, "sets": 0}
    batched, check, sets = construct.lee_levels, construct._check, construct.information_sets

    def counted(moves, index, source, block_of, fail):
        calls[fail(0).split()[0]] += len(index)  # "orbit ..." or "isodual ..."
        return check(moves, index, source, block_of, fail)

    def distance(gens, *args):
        calls["distance"] += len(gens)
        return batched(gens, *args)

    def information_sets(gen, table):
        calls["sets"] += 1
        return sets(gen, table)

    monkeypatch.setattr(construct, "lee_levels", distance)
    monkeypatch.setattr(construct, "_check", counted)
    monkeypatch.setattr(construct, "information_sets", information_sets)
    out = search("dc", n, alphabet, threshold=2 * n)
    assert out.results and all(r.distance.exact for r in out.results)
    return out, calls


def test_one_sweep_and_certificate_per_orbit(monkeypatch):
    # the benchmark's n = 3 search: 8^3 first rows in 60 orbits, each code
    # passed once to the batched distance kernel, and every candidate's
    # move and isodual block identity checked; every unit is 1 modulo
    # <2, u>, so one unit pattern and one search for information sets
    out, calls = _count_calls(monkeypatch, 3, UNITS)
    assert out.candidates == 512 and len(out.results) == 144
    assert calls == {"distance": 60, "orbit": 512, "isodual": 512, "sets": 1}


def test_information_sets_once_per_unit_pattern(monkeypatch):
    # all 16 elements at n = 4: 16^4 first rows in 4756 orbits, whose
    # circulants take 16 unit patterns
    out, calls = _count_calls(monkeypatch, 4, None)
    assert out.candidates == 65536
    assert calls == {"distance": 4756, "orbit": 65536, "isodual": 65536, "sets": 16}


@pytest.mark.parametrize("kind,n", [("dc", 3), ("bdc", 2)])
def test_search_independent_of_slice(monkeypatch, kind, n):
    # 4096 dc and 7168 bdc candidates: owners, moves and both checks cut
    # into slices of one candidate, of 7 owners (two int64 place gathers of
    # each candidate's columns; partial last slices) and of the default
    # size give the same outcome, witnesses included
    want = search(kind, n, threshold=2 * n)
    assert want.results
    columns = n + 3 * (kind == "bdc") - (kind == "bdc")
    for bound in (1, 7 * 16 * columns):
        monkeypatch.setattr(code_module, "SCRATCH_BYTES", bound)
        assert search(kind, n, threshold=2 * n) == want  # DistanceResult == compares witnesses


def test_corrupted_move_in_last_partial_slice_raises(monkeypatch):
    # the last candidate (33 33 33) is the negation of (11 11 11); its move
    # swapped for the same shift without the negation, and it falls in the
    # partial last slice of that move's members: slices of 7 candidates,
    # four 3 x 3 blocks of each
    orbits = construct._orbits
    monkeypatch.setattr(code_module, "SCRATCH_BYTES", 7 * 4 * 3 * 3)

    def corrupted(*args):
        owner, index = orbits(*args)
        index[-1] ^= 1
        assert np.count_nonzero(index == index[-1]) % 7 != 0
        return owner, index

    monkeypatch.setattr(construct, "_orbits", corrupted)
    with pytest.raises(AssertionError, match=r"orbit move does not send dc first_row=\(11 11 11\) "
                                             r"to dc first_row=\(33 33 33\)"):
        search("dc", 3, UNITS)


def _image(spec, rev, perm, negated):
    """A spec's image under one group element: the first row permuted,
    beta and gamma swapped by the reversal, every entry negated."""
    vals = tuple(spec.first_row[i] for i in perm)
    if isinstance(spec, BorderSpec):
        vals += (spec.alpha,) + ((spec.gamma, spec.beta) if rev else (spec.beta, spec.gamma))
    if negated:
        vals = tuple(ring.neg(x) for x in vals)
    m = len(perm)
    return BorderSpec(vals[:m], *vals[m:]) if isinstance(spec, BorderSpec) else CirculantSpec(vals)


def test_orbit_moves_send_block_to_image():
    for spec in (CirculantSpec((R("10"), R("21"), R("03"), R("20"))),
                 BorderSpec((R("02"), R("10"), R("33")), R("31"), R("13"), R("13")),
                 BorderSpec((R("02"), R("10"), R("33")), R("31"), R("13"), R("31"))):
        bordered = isinstance(spec, BorderSpec)
        group = _moves(len(spec.first_row), bordered, bordered and spec.gamma != spec.beta)
        assert len(group) == 4 * len(spec.first_row)
        assert _image(spec, *group[0][:3]) == spec
        for rev, perm, negated, move in group:
            assert np.array_equal(move.block(spec.block()),
                                  _image(spec, rev, perm, negated).block())


@pytest.mark.parametrize("kind,n,alphabet", [
    ("dc", 3, None), ("dc", 4, [ring.ZERO, R("12")]), ("dc", 4, [R("11"), R("31")]),
    ("bdc", 2, None), ("bdc", 3, [ring.ZERO, R("11"), R("12"), R("33")]),
    # 02, 20 and 22 are self-negating betas; -11 = 33 is outside
    ("bdc", 4, [R("02"), R("11"), R("20"), R("22")])])
def test_orbits_match_first_images(kind, n, alphabet):
    # per candidate, in candidate order: the owner is the first candidate
    # whose images reach it, the move the first group element that does
    alphabet = tuple(alphabet or ring.ELEMENTS)
    specs = candidate_specs(kind, n, alphabet)
    cands = _candidates(kind, n, alphabet)
    signed = [kind == "bdc" and s.gamma != s.beta for s in specs]
    index = {spec: i for i, spec in enumerate(specs)}
    want = [None] * len(specs)
    for i, spec in enumerate(specs):
        if want[i] is None:
            for rev, perm, negated, move in _moves(len(spec.first_row), kind == "bdc", signed[i]):
                j = index.get(_image(spec, rev, perm, negated))
                if j is not None and want[j] is None:
                    want[j] = (i, move)
    owner, index = _orbits(kind, cands, np.array(signed), alphabet)
    m = len(specs[0].first_row)
    table = [move for s in (False, True) for *_, move in _moves(m, kind == "bdc", s)]
    assert [construct._spec(kind, row) for row in cands] == specs
    assert owner.tolist() == [i for i, _ in want]
    assert all(table[g] is move for g, (_, move) in zip(index.tolist(), want))


@pytest.mark.parametrize("kind,n,alphabet", [
    ("dc", 1, None), ("dc", 3, None), ("dc", 4, [R("11"), R("31")]),
    ("bdc", 2, None), ("bdc", 3, [ring.ZERO, R("11"), R("12"), R("33")]),
    ("bdc", 4, [R("02"), R("11"), R("20"), R("22")]), ("bdc", 15, [R("11")])])
def test_candidate_count_matches_candidates(monkeypatch, kind, n, alphabet):
    # the count `search` refuses past its cap, before any candidate is built
    monkeypatch.setattr(construct, "_MAX_CANDIDATES", 0)
    with pytest.raises(BudgetExceeded) as exc:
        search(kind, n, alphabet)
    assert exc.value.needed == len(_candidates(kind, n, tuple(sorted(alphabet or ring.ELEMENTS))))


@pytest.mark.parametrize("kind,n", [("dc", 4), ("bdc", 3)])
def test_candidates_allocate_only_their_rows(kind, n):
    # digit by digit in place: no index grid, repeated rows or mask beside
    # the result (over all 16 elements, 64 KB and 112 KB of rows)
    tracemalloc.start()
    try:
        rows = _candidates(kind, n, ring.ELEMENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.flags.f_contiguous and rows.dtype == np.uint8
    assert peak <= rows.nbytes + (4 << 10)


def test_corrupted_orbit_move_raises():
    spec = BorderSpec((R("02"), R("10"), R("33")), R("31"), R("13"), R("31"))
    reversed_spec = BorderSpec((R("02"), R("33"), R("10")), R("31"), R("31"), R("13"))
    rep = spec.build().min_lee_distance()
    blocks = np.stack([spec.block(), reversed_spec.block()])
    identity_move = _moves(3, True, True)[0][3]

    def carry(move):
        # candidate 0 is its own representative, candidate 1 its image
        _check([identity_move, move], np.array([0, 1]), np.array([0, 0]), blocks.__getitem__,
               lambda i: f"orbit move does not send {spec.describe()} to {reversed_spec.describe()}")
        return _moved(rep, move)

    move = next(move for rev, perm, negated, move in _moves(3, True, True)
                if rev and not negated and perm.tolist() == [0, 2, 1])
    good = carry(move)
    assert good.value == rep.value and good.exact
    assert reversed_spec.build().contains([good.witness]).all()
    assert lee_weight_vector(good.witness) == good.value
    # the same reversal without the sign on the border coordinate
    unsigned = next(move for rev, perm, negated, move in _moves(3, True, False)
                    if rev and not negated and perm.tolist() == [0, 2, 1])
    swapped = move.take.copy()
    swapped[1, [1, 2]] = swapped[1, [2, 1]]
    for bad in (unsigned, _Move(move.coords, swapped)):
        with pytest.raises(AssertionError, match="orbit move does not send bdc"):
            carry(bad)


def test_search_alphabet_restriction():
    out = search("dc", 2, alphabet=[ring.ZERO, R("12")])
    assert out.candidates == 4
    assert not out.exhaustive
    assert search("dc", 2, alphabet=None).candidates == 256


@pytest.mark.parametrize("alphabet,match", [([], "empty"), ([R("12"), 16], "0..15"),
                                            ([-1], "0..15")],
                         ids=["empty", "past-15", "negative"])
def test_search_alphabet_validated(alphabet, match):
    with pytest.raises(ValueError, match=match):
        search("dc", 2, alphabet)


def test_verify_tables_small():
    for table in (2, 3):
        reports = verify_tables(table, max_length=8)
        assert len(reports) == 3
        assert all(r.ok and r.got.exact for r in reports)


def test_verify_tables_upper_bound_rows():
    reports = verify_tables(2, max_length=26, budget=16 ** 5)
    by_len = {r.length: r for r in reports}
    # length 18 is certified at levels 5/5 (887406 messages)
    assert by_len[18].ok and by_len[18].got.exact
    assert by_len[18].got.certificate == "levels 5/5"
    # length 26 finds its weight-15 word by levels 4/4, but certifying it
    # takes levels 7/6, past the budget
    got = by_len[26].got
    assert by_len[26].ok and not got.exact
    assert got.value == 15 and got.lower_bound < 15


def test_table_data_shapes():
    assert [ln for ln, _, _ in DC_TABLE] == list(range(4, 28, 2))
    assert [ln for ln, _, _, _ in BDC_TABLE] == list(range(4, 26, 2))
    for length, row, _ in DC_TABLE:
        assert length == 2 * len(row)
    for length, row, (a, b, g), _ in BDC_TABLE:
        assert length == 2 * (len(row) + 1)
        assert g == b or g == ring.neg(b)


# ---------------------------------------------------------------------------
# Isodual certificates against the enumerator fixed point
# ---------------------------------------------------------------------------

ELEMENT = st.sampled_from(ring.ELEMENTS)
#: beta with -beta != beta, so gamma = -beta is a second border
SIGNED_BETA = st.sampled_from([x for x in ring.ELEMENTS if ring.neg(x) != x])


def test_isodual_map_keeps_lee_weight():
    for table in (ring.R, ring.Z4, ring.F2U):
        assert (table.LEE[table.NEG] == table.LEE).all()


def _certify(spec, signed):
    # the isodual block identity on one block, as `verify_tables` checks it
    block = spec.block()[None]
    _check(_isodual_q(block.shape[-1], isinstance(spec, BorderSpec)), np.array([signed]),
           np.zeros(1, dtype=np.intp), lambda _: block, str)


@settings(max_examples=40, deadline=None)
@given(row=st.lists(ELEMENT, min_size=1, max_size=4))
def test_dc_certificate_agrees_with_fixed_point(row):
    spec = CirculantSpec(tuple(row))
    c = spec.build()
    _certify(spec, False)
    assert maps_dual_into(c, *isodual_map(spec))
    assert is_formally_self_dual(c)


@pytest.mark.parametrize("negated", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bdc_certificate_agrees_with_fixed_point(negated, data):
    row = data.draw(st.lists(ELEMENT, min_size=1, max_size=3))
    alpha = data.draw(ELEMENT)
    beta = data.draw(SIGNED_BETA if negated else ELEMENT)
    spec = BorderSpec(tuple(row), alpha, beta, ring.neg(beta) if negated else beta)
    c = spec.build()
    _certify(spec, negated)
    assert maps_dual_into(c, *isodual_map(spec))
    assert is_formally_self_dual(c)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_symmetric_certificate_agrees_with_fixed_point(data):
    k = data.draw(st.integers(1, 4))
    upper = data.draw(st.lists(ELEMENT, min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2))
    a = np.zeros((k, k), dtype=np.uint8)
    a[np.triu_indices(k)] = upper
    c = symmetric_code(np.maximum(a, a.T))
    assert maps_dual_into(c, np.arange(k), np.zeros(k, dtype=bool))
    assert is_formally_self_dual(c)


def _is_circulant(a):
    return all(a[i][j] == a[0][(j - i) % len(a)] for i in range(len(a)) for j in range(len(a)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_map_check_on_random_standard_form(data):
    k = data.draw(st.integers(2, 4))
    a = np.array(data.draw(st.lists(st.lists(ELEMENT, min_size=k, max_size=k),
                                    min_size=k, max_size=k)), dtype=np.uint8)
    c = LinearCode(np.hstack([identity(k), a]))
    # (x, y) -> (yQ, -xQ) sends the dual <[-A^T | I]> onto <[I | Q^-1 A^T Q]>,
    # so the check holds iff A[i][j] = s_i s_j A[perm j][perm i]
    perm = np.array(data.draw(st.permutations(range(k))))
    neg = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    moved = a.T[perm][:, perm]
    flip = neg[:, None] ^ neg[None, :]
    moved[flip] = ring.R.NEG[moved[flip]]
    holds = maps_dual_into(c, perm, neg)
    assert holds == np.array_equal(moved, a)
    # the block identity the search and the tables check
    assert holds == np.array_equal(_transposed(perm, neg).block(a), a)
    if not _is_circulant(a) and not np.array_equal(a, a.T):
        # the symmetric construction's map (Q = I) fails, and so does the
        # dc map unless A is fixed by it
        assert not maps_dual_into(c, np.arange(k), np.zeros(k, dtype=bool))
        reversal = -np.arange(k) % k
        assert maps_dual_into(c, reversal, np.zeros(k, dtype=bool)) == \
            np.array_equal(a.T[reversal][:, reversal], a)


def test_failed_certificate_raises(monkeypatch):
    # wrong maps Q: the identity, which only fits symmetric blocks, and the
    # bdc map without its border sign, which only fits gamma = beta
    right = construct._isodual_q
    monkeypatch.setattr(construct, "_isodual_q",
                        lambda k, bordered: (_transposed(np.arange(k), np.zeros(k, bool)),) * 2)
    with pytest.raises(AssertionError,
                       match=r"isodual map does not hold for dc first_row=\(20 10 03\)"):
        verify_tables(2, max_length=6)
    with pytest.raises(AssertionError, match="isodual map does not hold for dc"):
        search("dc", 3, [ring.ZERO, R("10"), R("20")])
    monkeypatch.setattr(construct, "_isodual_q",
                        lambda k, bordered: (right(k, bordered)[0],) * 2)
    with pytest.raises(AssertionError, match=r"does not hold for bdc first_row=\(11\) "
                                             r"border=\(11,11,33\)"):
        search("bdc", 2, [R("11")])
    verify_tables(3, max_length=8)
