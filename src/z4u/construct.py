"""Formally self-dual constructions and the table-reproduction harness.

Three generator shapes, all of the form [I_n | B]:

  * symmetric: B = A with A^T = A;
  * double circulant (dc): B = M, M circulant of order n;
  * bordered double circulant (bdc): B has first row (alpha, beta..beta),
    first column (alpha, gamma..gamma) and a circulant M of order n-1 in
    the remaining block, with gamma = beta or gamma = -beta.

Every such code is isodual: a monomial map (a coordinate permutation with
+-1 signs, so a Lee isometry) sends its dual <[-B^T | I]> onto it.
Swapping the halves and negating the right one gives [I | B^T]; one map Q
applied to both halves then gives [I | Q^-1 B^T Q] = [I | B].  Q is the
identity for symmetric B, the reversal i -> -i mod n for a circulant, and
for a bordered block the reversal of the circulant coordinates with the
border fixed, and negated when gamma = -beta.  So the map sends the dual
into C iff B[i][j] = s_i s_j B[perm j][perm i], a k x k block identity
that `search` and `verify_tables` check on every block, never assume; the
membership of the mapped dual rows in C and the enumerator fixed point
(`wenum.is_formally_self_dual`) stay as the tests' oracles.

`search` sweeps first rows (and border triples) in lexicographic order
over a chosen alphabet and reports the best minimum distance with the
lexicographically smallest witness.  The candidates are the rows of one
array: a dc first row, or a bdc first row followed by (alpha, beta,
gamma).  Three maps send a spec to one whose code is isometric: a cyclic
shift of the circulant first row (for bdc the border stays), the reversal
r_j -> r_{-j mod n}, which transposes the block (for bdc it also swaps
beta and gamma), and negation of every entry.  The candidates fall into
orbits of the group they generate; only the first member of each orbit
in candidate order is evaluated, and every other member carries its
result.  Each member is checked, not assumed: the orbit element is a
signed permutation of rows and columns, and applied to the
representative's block it must give the member's block.  `_check` runs
this and the isodual identity: one gather per distinct permutation, over
slices of the candidates that fit `code.SCRATCH_BYTES`, their blocks built
on demand, raising AssertionError on a mismatch.  A member keeps the
representative's distance and exact flag; its witness is the
representative's witness under the element's signed permutation of the
2k coordinates.  Spec objects are built only for the results printed.

The representatives' generators [I | B] are grouped by their information
sets, and each group is one batched call of the Lee-level kernel
(`code.lee_levels`); with several workers, each worker groups and batches
its own share.  R is local, its maximal ideal <2, u> holds every non-unit
and its residue field is F2, so the sets depend only on G modulo <2, u>,
its unit pattern: they are found once per distinct pattern in the stack
(at most 2^n for circulants), not once per code.  Results come back in
candidate order, so they do not depend on worker count or on how the
batches fall.

`verify_tables` rebuilds each catalogued code and compares its minimum
distance against the recorded value.  Both it and `search` take the
distance from the Lee-level kernel on the information sets of the
generator (`LinearCode.min_lee_distance`, a batch of one, for a table
row): every catalogued row holds two disjoint
ones, so each row is exact at the default budget (table 2 at length 26 by
levels 7/6, 1.8e8 messages).  A search candidate with fewer sets still
comes back exact while its 16^k messages fit the budget.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import ring
from .code import (DEFAULT_BUDGET, DistanceResult, LinearCode, _per_step, identity,
                   information_sets, lee_levels)
from .errors import BadBorder, BudgetExceeded, NotSymmetric


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def circulant(first_row: Sequence[int] | np.ndarray) -> np.ndarray:
    """M[i][j] = first_row[(j - i) mod n]; a stack (..., n) of first rows
    gives a stack (..., n, n) of circulants."""
    row = np.asarray(first_row, dtype=np.uint8)
    idx = np.arange(row.shape[-1])
    return row[..., (idx[None, :] - idx[:, None]) % row.shape[-1]]


def symmetric_code(a: Sequence[Sequence[int]] | np.ndarray) -> LinearCode:
    """[I_n | A] for symmetric A."""
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"need a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not equal to its transpose")
    return LinearCode(np.hstack([identity(a.shape[0]), a]))


def double_circulant_code(first_row: Sequence[int]) -> LinearCode:
    """[I_n | M] with M the circulant on `first_row`; length 2n."""
    m = circulant(first_row)
    return LinearCode(np.hstack([identity(m.shape[0]), m]))


def bordered_block(first_row: Sequence[int] | np.ndarray, alpha, beta, gamma) -> np.ndarray:
    """The bordered circulant block; stacks (..., n-1) of first rows and
    (...) of alpha, beta, gamma give a stack (..., n, n) of blocks."""
    m = circulant(first_row)
    alpha, beta, gamma = (np.asarray(x, dtype=np.uint8) for x in (alpha, beta, gamma))
    bad = (gamma != beta) & (gamma != ring.R.NEG[beta])
    if bad.any():
        raise BadBorder(f"gamma {ring.format_element(int(gamma[bad].flat[0]))} "
                        "is neither beta nor -beta")
    b = np.empty(m.shape[:-2] + (m.shape[-1] + 1,) * 2, dtype=np.uint8)
    b[..., 0, 0] = alpha
    b[..., 0, 1:] = beta[..., None]
    b[..., 1:, 0] = gamma[..., None]
    b[..., 1:, 1:] = m
    return b


def bordered_code(first_row: Sequence[int], alpha: int, beta: int,
                  gamma: int) -> LinearCode:
    """[I_n | B] with B the bordered circulant block; length 2n."""
    b = bordered_block(first_row, alpha, beta, gamma)
    return LinearCode(np.hstack([identity(b.shape[0]), b]))


@dataclass(frozen=True)
class CirculantSpec:
    first_row: tuple[int, ...]

    def block(self) -> np.ndarray:
        return circulant(self.first_row)

    def build(self) -> LinearCode:
        return double_circulant_code(self.first_row)

    def describe(self) -> str:
        return f"dc first_row=({ring.format_vector(self.first_row)})"


@dataclass(frozen=True)
class BorderSpec:
    first_row: tuple[int, ...]
    alpha: int
    beta: int
    gamma: int

    def block(self) -> np.ndarray:
        return bordered_block(self.first_row, self.alpha, self.beta, self.gamma)

    def build(self) -> LinearCode:
        return bordered_code(self.first_row, self.alpha, self.beta, self.gamma)

    def describe(self) -> str:
        abg = ",".join(ring.format_element(x) for x in (self.alpha, self.beta, self.gamma))
        return f"bdc first_row=({ring.format_vector(self.first_row)}) border=({abg})"


# ---------------------------------------------------------------------------
# Catalogued codes (first rows, borders, and recorded minimum distances)
# ---------------------------------------------------------------------------

def _row(*tokens: str) -> tuple[int, ...]:
    return tuple(ring.parse_element(t) for t in tokens)


#: (length over the big ring, circulant first row, recorded min distance)
DC_TABLE: tuple[tuple[int, tuple[int, ...], int], ...] = (
    (4, _row("20", "12"), 4),
    (6, _row("20", "10", "03"), 6),
    (8, _row("33", "03", "02", "23"), 8),
    (10, _row("10", "00", "20", "03", "21"), 8),
    (12, _row("00", "20", "30", "02", "30", "01"), 10),
    (14, _row("33", "33", "12", "10", "22", "30", "30"), 11),
    (16, _row("00", "00", "12", "12", "10", "10", "03", "11"), 12),
    (18, _row("00", "00", "10", "10", "12", "33", "22", "11", "20"), 12),
    (20, _row("00", "00", "10", "30", "10", "32", "01", "32", "01", "21"), 14),
    (22, _row("00", "00", "10", "10", "10", "10", "20", "10", "22", "13", "32"), 14),
    (24, _row("00", "00", "10", "10", "10", "10", "00", "10", "00", "20", "02", "23"), 14),
    (26, _row("00", "00", "10", "10", "10", "10", "00", "30", "11", "02", "03", "12", "32"), 15),
)

#: (length, circulant first row, (alpha, beta, gamma), recorded min distance)
BDC_TABLE: tuple[tuple[int, tuple[int, ...], tuple[int, int, int], int], ...] = (
    (4, _row("00"), (ring.parse_element("00"), ring.parse_element("12"), ring.parse_element("12")), 4),
    (6, _row("02", "10"), (ring.parse_element("33"), ring.parse_element("13"), ring.parse_element("13")), 6),
    (8, _row("33", "32", "01"), (ring.parse_element("20"), ring.parse_element("32"), ring.parse_element("32")), 8),
    (10, _row("00", "00", "12", "10"), (ring.parse_element("30"), ring.parse_element("12"), ring.parse_element("12")), 8),
    (12, _row("12", "10", "20", "13", "30"), (ring.parse_element("01"), ring.parse_element("12"), ring.parse_element("12")), 10),
    (14, _row("00", "00", "01", "01", "20", "32"), (ring.parse_element("31"), ring.parse_element("12"), ring.parse_element("12")), 10),
    (16, _row("10", "10", "00", "10", "31", "03", "12"), (ring.parse_element("32"), ring.parse_element("10"), ring.parse_element("10")), 11),
    (18, _row("00", "00", "00", "00", "22", "03", "10", "32"), (ring.parse_element("31"), ring.parse_element("32"), ring.parse_element("32")), 12),
    (20, _row("00", "00", "00", "00", "01", "13", "11", "01", "22"), (ring.parse_element("11"), ring.parse_element("32"), ring.parse_element("32")), 12),
    (22, _row("00", "00", "00", "00", "02", "11", "31", "13", "22", "23"), (ring.parse_element("11"), ring.parse_element("32"), ring.parse_element("32")), 14),
    (24, _row("00", "00", "00", "00", "00", "10", "01", "02", "22", "23", "30"), (ring.parse_element("10"), ring.parse_element("12"), ring.parse_element("12")), 14),
)


def table_specs(table: int) -> list[tuple[int, "CirculantSpec | BorderSpec", int]]:
    if table == 2:
        return [(ln, CirculantSpec(row), d) for ln, row, d in DC_TABLE]
    if table == 3:
        return [(ln, BorderSpec(row, *abg), d) for ln, row, abg, d in BDC_TABLE]
    raise ValueError("table must be 2 (dc) or 3 (bdc)")


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    spec: "CirculantSpec | BorderSpec"
    distance: DistanceResult


@dataclass(frozen=True)
class SearchOutcome:
    kind: str
    results: tuple[SearchResult, ...]   # candidates meeting the threshold
    best_distance: int
    best_spec: "CirculantSpec | BorderSpec"
    exhaustive: bool
    candidates: int


def _candidates(kind: str, n: int, alphabet: tuple[int, ...]) -> np.ndarray:
    """The candidate rows over `alphabet` in `product` order: dc first rows
    of length n, or bdc first rows of length n-1 followed by (alpha, beta,
    gamma), where gamma = beta comes before gamma = -beta != beta.

    Both kinds are n product digits (a dc first row; a bdc first row and
    alpha) followed by a tail: none for dc, each (beta, gamma) pair for
    bdc.  The rows are stored column by column (Fortran order), the order
    in which `_orbits` reads them, and each column is written in place by
    broadcasting its digit along its own axis: nothing but the result is
    allocated."""
    a = np.array(alphabet, dtype=np.uint8)
    tail = (np.array([(b, g) for b in alphabet for g in dict.fromkeys((b, int(ring.R.NEG[b])))],
                     dtype=np.uint8) if kind == "bdc" else np.zeros((1, 0), dtype=np.uint8))
    cols = np.empty((n + tail.shape[1], len(a) ** n * len(tail)), dtype=np.uint8)
    shape = (len(a),) * n + tail.shape[:1]
    for j in range(n):
        cols[j].reshape(shape)[...] = a.reshape((-1,) + (1,) * (n - j))
    for j, col in enumerate(tail.T):
        cols[n + j].reshape(shape)[...] = col
    return cols.T


#: The most candidates `search` builds: dc n = 6 and bdc n = 5 over R fit.
_MAX_CANDIDATES = 1 << 25
#: The largest order `search` takes: the longest first row that an alphabet
#: of two fits in `_MAX_CANDIDATES`, so one element (a single candidate at
#: any order) cannot ask for an n-byte row and an n^2-byte block.
_MAX_ORDER = _MAX_CANDIDATES.bit_length() - 1


def _spec(kind: str, row: np.ndarray) -> "CirculantSpec | BorderSpec":
    vals = tuple(row.tolist())
    return CirculantSpec(vals) if kind == "dc" else BorderSpec(vals[:-3], *vals[-3:])


def _evaluate(gens: np.ndarray, budget: int) -> list[DistanceResult]:
    """Distances of a (B, k, n) stack of generators over R, in order:
    `information_sets` runs once per distinct unit pattern, the codes are
    grouped by their sets, each group in index order, and each group is
    one batched `lee_levels` call."""
    pattern = np.packbits((ring.R.INV[gens] != 0).reshape(len(gens), -1), axis=1)
    _, first, pattern_of = np.unique(pattern, axis=0, return_index=True, return_inverse=True)
    groups: dict[tuple[tuple[int, ...], ...], int] = {}
    group = np.array([groups.setdefault(information_sets(gens[i], ring.R), len(groups))
                      for i in first.tolist()])[pattern_of.ravel()]
    dist: list = [None] * len(gens)
    for sets, g in groups.items():
        members = np.flatnonzero(group == g)
        for i, d in zip(members.tolist(), lee_levels(gens[members], ring.R, sets, budget)):
            dist[i] = d
    return dist


@dataclass(frozen=True)
class _Move:
    """A signed permutation of k x k blocks, built by `of(rows, cols,
    row_sign, col_sign)`: B'[i][j] = B[rows[i]][cols[j]], negated where
    row_sign[i] != col_sign[j].

    It sends <[I | B]> onto <[I | B']>: the codeword (x, xB) goes to the
    codeword of x[rows] (negated where row_sign), which is the same word
    with its halves permuted by rows and cols and signed by row_sign and
    col_sign, so every Lee weight is kept.  `coords` is that map of the 2k
    coordinates, (source, negated) per coordinate of the image; `take`
    indexes B' out of the stacked (B; -B).
    """
    coords: tuple[tuple[int, bool], ...]
    take: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, row_sign: np.ndarray,
           col_sign: np.ndarray) -> "_Move":
        k = rows.size
        flip = row_sign[:, None] != col_sign[None, :]
        return cls(tuple(zip(np.concatenate([rows, k + cols]).tolist(),
                             np.concatenate([row_sign, col_sign]).tolist())),
                   (flip * k + rows[:, None]) * k + cols[None, :])

    def block(self, b: np.ndarray) -> np.ndarray:
        """B' of a block B, or of each block of a stack (N, k, k)."""
        return np.concatenate([b, ring.R.NEG[b]], axis=-2).reshape(
            *b.shape[:-2], -1)[..., self.take]


@functools.lru_cache(maxsize=None)
def _moves(m: int, bordered: bool,
           signed_border: bool) -> tuple[tuple[bool, np.ndarray, bool, _Move], ...]:
    """(reversed, circulant permutation, negated, move) for every element of
    the group generated by the cyclic shifts of an order-m circulant, its
    reversal and negation; the identity comes first.

    The image's first row is row[perm].  Reversal transposes the block:
    for a circulant that is the reversal i -> -i mod m on rows and columns,
    and a bdc border with gamma = -beta != beta also comes back negated on
    the border coordinate 0, which every shift fixes.
    """
    head = np.zeros(int(bordered), dtype=np.intp)
    idx = np.arange(m)
    out = []
    for rev in (False, True):
        base = -idx % m if rev else idx
        rows = np.concatenate([head, head.size + base])
        sign = np.zeros(rows.size, dtype=bool)
        sign[0] = rev and signed_border
        for s in range(m):
            perm = base[(idx - s) % m]
            cols = np.concatenate([head, head.size + perm])
            for negated in (False, True):
                out.append((rev, perm, negated, _Move.of(rows, cols, sign, sign ^ negated)))
    return tuple(out)


def _orbits(kind: str, cands: np.ndarray, signed: np.ndarray,
            alphabet: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate, the index of its orbit representative and the index
    of the move from the representative's block to its own, in the flat
    table `_moves(m, bordered, False) + _moves(m, bordered, True)`.

    Each group element is one gather of the candidates' places in
    `alphabet` (-1 outside it; reversal also swaps a bdc row's beta and
    gamma), a slice of candidates at a time.  Candidates come in `product`
    order, so an image's index is the mixed-radix number p of its places;
    for bdc, 2p less the gamma = -beta = beta rows dropped before it, plus
    one when gamma != beta; len(cands), no candidate, where a place is -1.
    The representative is the smallest index among a candidate's images;
    the move is the first group element, in `_moves` order, that sends the
    representative to it, taken with the candidate's `signed` border.
    """
    bordered = kind == "bdc"
    m = cands.shape[1] - 3 * bordered
    size = len(alphabet)
    place = np.full(len(ring.ELEMENTS), -1)
    place[list(alphabet)] = np.arange(size)
    radix = size ** np.arange(cands.shape[1] - bordered - 1, -1, -1)
    lone = np.cumsum([0] + [ring.R.NEG[x] == x for x in alphabet])  # self-negating before i

    def images(rows: np.ndarray) -> Iterator[np.ndarray]:
        """Per group element, the index of each row's image, len(cands)
        where the image is no candidate."""
        at = place[rows], place[ring.R.NEG[rows]]
        for rev, perm, negated, _ in _moves(m, bordered, False):
            digits = at[negated][:, np.append(perm, [m, m + 1 + rev]) if bordered else perm]
            index = digits @ radix
            if bordered:  # gamma != beta is the same in every image
                index = (2 * index - index // size * lone[-1] - lone[digits[:, -1]]
                         + (rows[:, -1] != rows[:, -2]))
            yield np.where((digits < 0).any(axis=1), len(cands), index)

    step = _per_step(16 * cands.shape[1])  # a candidate: its two int64 place gathers
    owner = np.arange(len(cands))
    for start in range(0, len(cands), step):
        part = owner[start:start + step]
        for index in images(cands[start:start + step]):
            np.minimum(part, index, out=part)
    first = np.full(len(cands), -1)
    for start in range(0, len(cands), step):  # the representatives, an orbit's images once each
        part = owner[start:start + step]
        reps = start + np.flatnonzero(part == np.arange(start, start + len(part)))
        for g, index in enumerate(images(cands[reps])):
            index = index[index < len(cands)]
            first[index[first[index] < 0]] = g
    return owner, first + len(_moves(m, bordered, False)) * signed


def _check(moves: Sequence[_Move], index: np.ndarray, source: np.ndarray,
           block_of: Callable[[np.ndarray], np.ndarray], fail: Callable[[int], str]) -> None:
    """Candidate i's move moves[index[i]] must send the block of candidate
    source[i] to candidate i's own block.  One gather per distinct move,
    over slices of the candidates that fit `code.SCRATCH_BYTES`, whose
    blocks `block_of` builds.  A failure is a fault in the program:
    AssertionError with the message `fail(i)`."""
    step = _per_step(4 * moves[0].take.size)  # a candidate: its source block, negated, stacked
    for g in np.unique(index).tolist():
        members = np.flatnonzero(index == g)
        for start in range(0, len(members), step):
            part = members[start:start + step]
            bad = (moves[g].block(block_of(source[part])) != block_of(part)).any(axis=(1, 2))
            if bad.any():
                raise AssertionError(fail(int(part[bad.argmax()])))


def _moved(d: DistanceResult, move: _Move) -> DistanceResult:
    """The representative's distance for an orbit member: the same value
    and flag, and the witness codeword mapped by the member's move."""
    w, neg = d.witness, ring.R.NEG.tolist()
    return DistanceResult(d.value, d.lower_bound,
                          tuple(neg[w[c]] if s else w[c] for c, s in move.coords), d.certificate)


def _transposed(perm: np.ndarray, neg: np.ndarray) -> _Move:
    """B -> Q^-1 B^T Q for Q: w -> (+-w[perm[j]])_j, - where neg[j]; so
    B'[i][j] = s_i s_j B[perm j][perm i]."""
    q = _Move.of(perm, perm, neg, neg)
    return replace(q, take=q.take.T)


@functools.lru_cache(maxsize=None)
def _isodual_q(k: int, bordered: bool) -> tuple[_Move, _Move]:
    """`_transposed` of the isodual map Q of a dc or bdc block of order k,
    indexed by whether the border is signed (gamma = -beta != beta): the
    reversal i -> -i mod k for a circulant; for a bordered block,
    coordinate 0 fixed, and negated when signed, and the reversal on the
    k-1 circulant ones."""
    m = k - bordered
    perm = np.concatenate([np.zeros(int(bordered), np.intp), bordered + (-np.arange(m) % m)])
    return _transposed(perm, np.zeros(k, dtype=bool)), _transposed(perm, np.arange(k) == 0)


def search(kind: str, n: int, alphabet: Sequence[int] | None = None,
           budget: int = DEFAULT_BUDGET, threshold: int = 0,
           threads: int = 1) -> SearchOutcome:
    """Sweep dc/bdc codes of length 2n over `alphabet` (all 16 elements when
    None); keep candidates with d >= threshold.

    Only one candidate per isometry orbit is evaluated, by a pool of at
    most `threads` workers and no more than the machine's cores;
    every result is then carried back out in candidate order, so the
    outcome is worker-count independent.  Every candidate's orbit move and
    isodual block identity passed `_check`, which raises otherwise.
    BudgetExceeded past `_MAX_CANDIDATES` candidates or past order
    `_MAX_ORDER`, before any candidate is built.
    """
    if kind not in ("dc", "bdc"):
        raise ValueError("kind must be 'dc' or 'bdc'")
    if n < 1 or (kind == "bdc" and n < 2):
        raise ValueError(f"order n={n} too small for kind {kind}")
    alpha = ring.ELEMENTS if alphabet is None else tuple(sorted(set(int(x) for x in alphabet)))
    if not alpha or alpha[0] < 0 or alpha[-1] >= len(ring.ELEMENTS):
        raise ValueError(f"alphabet must be a nonempty set of elements 0..15, got {alphabet}")
    bordered = kind == "bdc"
    if n > _MAX_ORDER:
        raise BudgetExceeded(n, _MAX_ORDER, "search order")
    lone = int((ring.R.NEG[list(alpha)] == alpha).sum())  # betas with one gamma row
    count = len(alpha) ** n * (2 * len(alpha) - lone if bordered else 1)  # len(cands)
    if count > _MAX_CANDIDATES:
        raise BudgetExceeded(count, _MAX_CANDIDATES, "search candidates")
    cands = _candidates(kind, n, alpha)
    signed = (cands[:, -1] != cands[:, -2]) if bordered else np.zeros(len(cands), dtype=bool)
    owner, index = _orbits(kind, cands, signed, alpha)
    moves = [move for s in (False, True) for *_, move in _moves(n - bordered, bordered, s)]

    def block_of(i: np.ndarray) -> np.ndarray:
        rows = cands[i]
        return circulant(rows) if kind == "dc" else bordered_block(rows[:, :-3], *rows[:, -3:].T)

    def names(i: int) -> str:
        return _spec(kind, cands[i]).describe()

    _check(moves, index, owner, block_of,
           lambda i: f"orbit move does not send {names(owner[i])} to {names(i)}")
    _check(_isodual_q(n, bordered), signed, np.arange(len(cands)), block_of,
           lambda i: f"isodual map does not hold for {names(i)}")
    reps = np.flatnonzero(owner == np.arange(len(cands)))
    gens = np.concatenate([np.broadcast_to(identity(n), (len(reps), n, n)), block_of(reps)], axis=2)
    evaluate = functools.partial(_evaluate, budget=budget)
    workers = min(threads, len(reps), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # only here: one worker, the default, never needs it

        size = max(1, len(reps) // (8 * workers))
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.map(evaluate, [gens[i:i + size] for i in range(0, len(reps), size)])
        done = [d for part in parts for d in part]
    else:
        done = evaluate(gens)
    rank = np.searchsorted(reps, owner)  # each candidate's representative in `done`
    value = np.array([d.value for d in done])[rank]
    results = tuple(SearchResult(_spec(kind, cands[i]), _moved(done[rank[i]], moves[index[i]]))
                    for i in np.flatnonzero(value >= threshold).tolist())
    return SearchOutcome(kind, results, int(value.max()), _spec(kind, cands[value.argmax()]),
                         exhaustive=(alpha == tuple(range(16))),
                         candidates=len(cands))


# ---------------------------------------------------------------------------
# Table verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowReport:
    length: int
    spec: "CirculantSpec | BorderSpec"
    recorded_d: int
    got: DistanceResult
    ok: bool

    def format_line(self) -> str:
        """fsd=yes: the spec's isodual map checked out, as it must for the
        row to exist (`_check` raises otherwise)."""
        verdict = "PASS" if self.ok else "FAIL"
        return (f"length {self.length:>2}  d={self.got.value:>2} ({self.got.label()})"
                f"  recorded {self.recorded_d:>2}  {verdict}  fsd=yes  {self.spec.describe()}")


def verify_tables(table: int, max_length: int = 26,
                  budget: int = DEFAULT_BUDGET) -> list[RowReport]:
    """Rebuild catalogued codes and compare distances with recorded values."""
    reports = []
    for length, spec, recorded in table_specs(table):
        if length > max_length:
            continue
        got = spec.build().min_lee_distance(budget)
        bordered = isinstance(spec, BorderSpec)
        block, signed = spec.block()[None], np.array([bordered and spec.gamma != spec.beta])
        _check(_isodual_q(block.shape[-1], bordered), signed, np.zeros(1, dtype=np.intp),
               lambda _: block, lambda _: f"isodual map does not hold for {spec.describe()}")
        reports.append(RowReport(length, spec, recorded, got, ok=(got.value == recorded)))
    return reports
