"""Brute-force helpers shared by the tests.

`span` builds a code's codeword set from a ring's scalar functions alone;
`members` reads the codeword set back from `LinearCode.contains` by asking
about every vector of ring^n, so the two can be compared as sets.
`span_table` and `span_blocks` are the message span as digit rows, built
by byte-table gathers ADD[t, MUL[:, r]]: the reference for the packed span
words of `z4u.code`, and what the sweeps below read, so none of them
shares code with the packed path.
`sweep_contains` is membership by one sweep over every message, whatever
the generator's shape: the reference for `contains`, which takes one
product on an information set and sweeps the torsion span alone.
`sweep_census` is the Lee census of all size^k messages by gathering byte
tables from a span table and summing rows, in shards over the first
message coordinate, optionally in worker processes; it shares no code with
the packed join of `lee_census` and `min_lee_distance`, and is the
reference for both: `sweep_distance` reads the minimum distance off it.
`dual_bruteforce` is the size^n sweep for the dual: every vector of ring^n
whose row in a `span_blocks` block of G^T is zero, decoded by
`np.unravel_index`; it shares no code with the meet-in-the-middle join of
`dual_blocks`, and is its reference.
`compositions` is the composition census of a list of words by a
`Counter`, the reference for `wenum`'s packed composition keys.
`chunk_keys` is the composition key table of 16-bit chunks as a sum of
four gathers, one per 4-bit field, and `chain_levels` the CWE's term
chains from every term's elements spelled out by `np.repeat`: the
references for `wenum._chunk_keys`, built by broadcasting in place, and
`CWE._chain`, read off running sums of the counts.
`swe_substitution` and `cwe_value` are the enumerator transforms written
the direct way: products of expanded linear forms, and Gaussian-number
arithmetic term by term.  `search_unreduced` is the dc/bdc search with one
evaluation per candidate, no isometry orbits: it lists candidates with
`itertools.product`, takes each distance from `min_lee_distance` and
checks each isodual map by `maps_dual_into`, the membership of the mapped
dual generator rows in the code.  `packed_add` is the field-wise sum of
packed Gray words that the Lee-level join computes inline, `format_matrix`
writes a generator file and `swe_of_words` is the SWE of a list of words.
`unit_columns` is each column's unit pattern built bit by bit in Python,
the oracle of `code._unit_columns`.
"""

import multiprocessing
from collections import Counter
from itertools import product

import numpy as np

from z4u import construct, ring
from z4u.code import DEFAULT_BUDGET, dual_of_standard_form
from z4u.errors import BudgetExceeded
from z4u.ring import R, RingTable, format_vector, packed_split
from z4u.scalars import GaussianInt, GaussianRational
from z4u.wenum import CWE, SWE, _count_units, cwe_to_swe


def span(rows, size, add, mul):
    """Deduplicated row span over a ring given by its scalar add and mul."""
    words = {(0,) * len(rows[0])}
    for row in rows:
        words = {tuple(add(x, mul(c, y)) for x, y in zip(w, row))
                 for w in words for c in range(size)}
    return words


_LO_BITS = 20  # a span block, and the census's low span table, hold at most 2^20 rows


def span_table(rows, ring: RingTable = R, base=None):
    """(size^j, m) digit rows base + x.rows for every x in ring^j, odometer
    order (base zero when None): one broadcast gather per row."""
    m = rows.shape[1]
    t = np.zeros((1, m), dtype=np.uint8) if base is None else base[None]
    for r in rows:
        t = ring.ADD[t[:, None, :], ring.MUL[:, r][None, :, :]].reshape(len(t) * ring.size, m)
    return t


def span_blocks(rows, ring: RingTable = R):
    """`span_table` in (first index, digit rows) blocks of at most 2^20
    rows: a high prefix from a small span table, grown by the low digits."""
    khi = _high_digits(len(rows), ring)
    for h, prefix in enumerate(span_table(rows[:khi], ring)):
        yield h * ring.size ** (len(rows) - khi), span_table(rows[khi:], ring, prefix)


def members(code):
    """Every vector of ring^n that the code contains (small n only)."""
    vectors = np.array(list(product(range(code.ring.size), repeat=code.n)), dtype=np.uint8)
    return {tuple(v) for v in vectors[code.contains(vectors)].tolist()}


def sweep_contains(code, words, budget=DEFAULT_BUDGET):
    """One bool per row of the (N, n) `words`, from every block of
    codewords; rows are compared as n-byte keys."""
    q = np.asarray(words, dtype=np.uint8)
    key = np.dtype((np.void, code.n))
    qv = np.ascontiguousarray(q).view(key).ravel()
    found = np.zeros(len(qv), dtype=bool)
    total = code.ring.size ** code.k
    if total > budget:
        raise BudgetExceeded(total, budget, "codeword enumeration")
    for _, blk in span_blocks(code.gen, code.ring):
        bv = np.ascontiguousarray(blk).view(key).ravel()
        found |= np.isin(qv, bv[np.isin(bv, qv)])
    return found


def unit_columns(gen, ring: RingTable = R):
    """Each column's unit pattern over F2 as an int, bit i = row i."""
    unit = ring.INV[gen] != 0
    return [sum(1 << i for i in range(gen.shape[0]) if unit[i, j]) for j in range(gen.shape[1])]


def packed_add(x, y, low):
    """Field-wise sum of packed words: Z4 addition in each 2-bit field with
    a low bit in `low` (its carry stays inside the field), XOR elsewhere."""
    (xl, xh), (yl, yh) = packed_split(x, low), packed_split(y, low)
    return (xl + yl) ^ xh ^ yh


def format_matrix(m, ring: RingTable = R) -> str:
    """Rows of element tokens, one line each: `parse_matrix_text`'s grammar."""
    return "\n".join(format_vector(row, ring) for row in m)


def swe_of_words(words, length: int) -> SWE:
    """SWE of the rows of an (N, length) array of R words."""
    return cwe_to_swe(CWE.of_words(words, length))


def compositions(words, n):
    """Distinct compositions (16 element counts, dtype np.min_scalar_type(n))
    of the rows of an (N, n) array of R words and how many rows have each,
    by a Counter, in the order of the counts' bytes."""
    dtype = np.min_scalar_type(n)
    found = Counter(np.bincount(w, minlength=16).astype(dtype).tobytes()
                    for w in np.asarray(words, dtype=np.intp))
    keys = sorted(found)
    return (np.frombuffer(b"".join(keys), dtype).reshape(-1, 16),
            np.array([found[k] for k in keys], np.int64))


def chunk_keys(bits):
    """(2^16, bits // 4) uint64 composition keys of the 16-bit chunks of
    packed R words: the sum of four gathers of element units, one per 4-bit
    field of the chunk index."""
    chunk = np.arange(1 << 16)
    units = _count_units(bits)
    return sum(units[R.UNPACK[(chunk >> s) & 15]] for s in range(0, 16, 4))


def chain_levels(comps, length):
    """`CWE._chain` of the (T, 16) counts `comps` of length-n words: every
    term's n elements in ascending order by repeating each element index
    its count of times, then per level the runs of equal prefixes as
    (element, parent node)."""
    elems = np.repeat(np.tile(np.arange(16, dtype=np.intp), len(comps)),
                      comps.ravel().astype(np.intp)).reshape(-1, length)
    new = np.zeros(len(elems), dtype=bool)
    new[:1] = True
    node = np.zeros(len(elems), dtype=np.intp)
    levels = []
    for col in elems.T:
        new[1:] |= col[1:] != col[:-1]
        first = np.flatnonzero(new)
        levels.append((col[first], node[first]))
        node = np.cumsum(new) - 1
    return levels


def _info_weights(j: int, ring: RingTable) -> np.ndarray:
    """Lee weight of every message in ring^j, odometer order (int64)."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(j):
        w = (w[:, None] + ring.LEE[None, :]).ravel()
    return w


def _high_digits(j: int, ring: RingTable) -> int:
    """Digits left over when the low digits fill at most 2^20 rows."""
    return max(0, j - _LO_BITS // ring.bits)


class _Shard:
    """Picklable census worker: messages whose first coordinate is fixed.

    The last `klo` message digits form a low span table of products and
    information weights; the loop runs over this shard's high-digit
    prefixes, whose products and weights come from a small span table.
    With no high digits there is one shard and the low table is the whole
    message space.  In standard form only the parity block is gathered and
    the message's own weight is added.
    """

    def __init__(self, gen: np.ndarray, ring: RingTable, standard: bool):
        self.gen = gen
        self.ring = ring
        self.standard = standard
        self.khi = _high_digits(gen.shape[0], ring)

    def __call__(self, shard: int) -> np.ndarray:
        gen, ring, standard, khi = self.gen, self.ring, self.standard, self.khi
        k, n = gen.shape
        rows, m = (gen[:, k:], n - k) if standard else (gen, n)
        tl = span_table(rows[khi:], ring)
        wlo = _info_weights(k - khi, ring) if standard else 0
        if khi:
            idx = tl.astype(np.int32) * m + np.arange(m, dtype=np.int32)[None, :]
        per_shard = ring.size ** (khi - 1) if khi else 1
        first = shard * per_shard
        tails_hi = span_table(rows[:khi], ring)[first:first + per_shard]
        whis = _info_weights(khi, ring)[first:first + per_shard]

        hist = np.zeros(ring.max_lee * n + 1, dtype=np.int64)
        for tail, whi in zip(tails_hi, whis):
            if khi:
                lflat = ring.LEE[ring.ADD[:, tail]].ravel()
                w = lflat[idx].sum(axis=1, dtype=np.int64)
            else:
                w = ring.LEE[tl].sum(axis=1, dtype=np.int64)
            if standard:
                w += wlo + whi
            hist += np.bincount(w, minlength=hist.shape[0])
        return hist


def sweep_census(code, budget=DEFAULT_BUDGET, threads=1):
    """Messages per codeword Lee weight over all size^k messages, so
    hist[0] = |K| and hist // hist[0] is the census of C.  Shards run in
    up to `threads` worker processes and are summed."""
    total = code.ring.size ** code.k
    if total > budget:
        raise BudgetExceeded(total, budget, "weight census")
    shard = _Shard(code.gen, code.ring, code.standard_form)
    shards = range(code.ring.size if shard.khi else 1)
    if threads > 1 and len(shards) > 1:
        with multiprocessing.get_context("fork").Pool(min(threads, len(shards))) as pool:
            return np.sum(pool.map(shard, shards), axis=0)
    return np.sum([shard(s) for s in shards], axis=0)


def sweep_distance(code, threads=1):
    """Minimum nonzero Lee weight: the smallest nonzero weight with a
    nonzero count in the census of all size^k messages."""
    hist = sweep_census(code, code.ring.size ** code.k, threads)
    return int(np.flatnonzero(hist[1:])[0]) + 1


def dual_bruteforce(code, budget=DEFAULT_BUDGET):
    """Every vector orthogonal to the generator rows, in one read-only,
    sorted (N, n) array: x is in the dual iff x G^T = 0."""
    total = code.ring.size ** code.n
    if total > budget:
        raise BudgetExceeded(total, budget, "dual enumeration")
    shape = (code.ring.size,) * code.n
    vectors = np.concatenate([
        np.stack(np.unravel_index(start + np.flatnonzero(~blk.any(axis=1)), shape),
                 axis=1).astype(np.uint8)
        for start, blk in span_blocks(code.gen.T, code.ring)])
    vectors.flags.writeable = False
    return vectors


def is_linear(words, size, add, mul):
    """Closure of a word set under addition and every scalar multiple."""
    return all(tuple(mul(s, x) for x in w) in words for w in words for s in range(size)) \
        and all(tuple(add(a, b) for a, b in zip(w1, w2)) in words
                for w1 in words for w2 in words)


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _poly_pow(p, n):
    out = {(0,) * len(next(iter(p))): 1}
    base = p
    while n:
        if n & 1:
            out = _poly_mul(out, base)
        base = _poly_mul(base, base)
        n >>= 1
    return out


def swe_substitution(terms, forms):
    """sum c * prod_v forms[v]^e_v, every power and product fully expanded
    (no division): the substitution behind the dual SWE."""
    m = len(forms)
    form_polys = [{(0,) * w + (1,) + (0,) * (m - 1 - w): f for w, f in enumerate(row) if f}
                  for row in forms]
    acc = {}
    for exps, coeff in terms.items():
        prod = {(0,) * m: 1}
        for v, ex in enumerate(exps):
            if ex:
                prod = _poly_mul(prod, _poly_pow(form_polys[v], ex))
        for key, c in prod.items():
            acc[key] = acc.get(key, 0) + coeff * c
    return {k: c for k, c in acc.items() if c}


def cwe_value(terms, point):
    """A CWE at a point of 16 GaussianInts (or of GaussianRationals), one
    Gaussian product per factor of every term."""
    if all(isinstance(p, GaussianInt) for p in point):
        one, vals = GaussianInt(1, 0), list(point)
    else:
        one, vals = GaussianRational.of(1), [GaussianRational.of(p) for p in point]
    out = one.scale(0)
    for exps, coeff in terms.items():
        prod = one
        for v, e in zip(vals, exps):
            for _ in range(e):
                prod = prod * v
        out = out + prod.scale(coeff)
    return out


def maps_dual_into(code, perm, neg):
    """Does (x, y) -> (yQ, -xQ) send every row of the dual generator
    [-B^T | I] of C = <[I | B]> into C?

    Q acts on the k coordinates of each half: (wQ)_j = +-w[perm[j]], with
    the sign - where `neg[j]`.  The map only permutes coordinates and
    multiplies them by +-1, so it keeps Lee weight and is injective; the
    dual and C both have size^k words, so True proves the dual isometric
    to C.
    """
    k, neg_table = code.k, code.ring.NEG
    dual = dual_of_standard_form(code).gen
    mapped = np.hstack([dual[:, k:], neg_table[dual[:, :k]]])[:, np.concatenate([perm, k + perm])]
    signs = np.concatenate([neg, neg])
    mapped[:, signs] = neg_table[mapped[:, signs]]
    return bool(code.contains(mapped).all())


def candidate_specs(kind, n, alpha):
    """dc first rows, or bdc first rows with (alpha, beta, gamma), in
    `product` order; gamma = beta before gamma = -beta != beta."""
    if kind == "dc":
        return [construct.CirculantSpec(row) for row in product(alpha, repeat=n)]
    return [construct.BorderSpec(row, a, b, g)
            for row in product(alpha, repeat=n - 1) for a in alpha for b in alpha
            for g in ((b,) if ring.neg(b) == b else (b, ring.neg(b)))]


def isodual_map(spec):
    """(perm, neg) of the spec's Q: the reversal i -> -i mod n on a
    circulant; a border coordinate 0 fixed, negated when gamma = -beta !=
    beta."""
    m = len(spec.first_row)
    rev = -np.arange(m) % m
    if isinstance(spec, construct.CirculantSpec):
        return rev, np.zeros(m, dtype=bool)
    neg = np.zeros(m + 1, dtype=bool)
    neg[0] = spec.gamma != spec.beta
    return np.concatenate([[0], 1 + rev]), neg


def search_unreduced(kind, n, alphabet=None, budget=DEFAULT_BUDGET, threshold=0):
    """`construct.search` evaluating every candidate on its own: each
    distance from `min_lee_distance`, each isodual map checked by
    `maps_dual_into`."""
    alpha = tuple(sorted(set(int(x) for x in (ring.ELEMENTS if alphabet is None else alphabet))))
    evaluated = []
    for spec in candidate_specs(kind, n, alpha):
        code = spec.build()
        assert maps_dual_into(code, *isodual_map(spec)), spec.describe()
        evaluated.append(construct.SearchResult(spec, code.min_lee_distance(budget)))
    best = max(r.distance.value for r in evaluated)
    return construct.SearchOutcome(
        kind, tuple(r for r in evaluated if r.distance.value >= threshold), best,
        next(r.spec for r in evaluated if r.distance.value == best),
        exhaustive=(alpha == tuple(range(16))), candidates=len(evaluated))
