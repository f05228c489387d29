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
border fixed, and negated when gamma = -beta.  `search` and
`verify_tables` check each spec's Q on every code (`maps_dual_into`), never
assume it; the enumerator fixed point (`wenum.is_formally_self_dual`)
stays as the tests' oracle.

`search` sweeps first rows (and border triples) in lexicographic order
over a chosen alphabet and reports the best minimum distance with the
lexicographically smallest witness.  Three maps send a spec to one whose
code is isometric: a cyclic shift of the circulant first row (for bdc the
border stays), the reversal r_j -> r_{-j mod n}, which transposes the block
(for bdc it also swaps beta and gamma), and negation of every entry.  The
candidates fall into orbits of the group they generate; only the first
member of each orbit in candidate order is evaluated, and every other
member carries its result.  Each member is checked, not assumed: the
orbit element is a signed permutation of rows and columns, and applied to
the representative's block it must give the member's block, or the search
raises AssertionError.  The check runs on the stacked blocks of all
candidates, one gather per group element.  A member keeps the
representative's distance and its exact flag; its witness is the
representative's mapped by the element (x -> xQ under reversal,
unchanged under shift and negation).

The representatives are grouped by the information sets of their
generators, and each group is one batched call of the Lee-level kernel
(`code.lee_levels`); with several workers, each worker groups and batches
its own share.  Results come back in candidate order, so they do not
depend on worker count or on how the batches fall.

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
import multiprocessing
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from . import ring
from .code import (DEFAULT_BUDGET, DistanceResult, LinearCode, dual_of_standard_form,
                   identity, information_sets, lee_levels)
from .errors import BadBorder, NotSymmetric


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


def _blocks(specs: Sequence["CirculantSpec | BorderSpec"]) -> np.ndarray:
    """(N, k, k) blocks of specs of one kind and order, built together."""
    rows = np.array([s.first_row for s in specs], dtype=np.uint8).reshape(len(specs), -1)
    if isinstance(specs[0], BorderSpec):
        border = np.array([(s.alpha, s.beta, s.gamma) for s in specs], dtype=np.uint8)
        return bordered_block(rows, *border.T)
    return circulant(rows)


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

    def isodual_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, neg) of Q: the reversal i -> -i mod n, no signs."""
        n = len(self.first_row)
        return -np.arange(n) % n, np.zeros(n, dtype=bool)


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

    def isodual_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, neg) of Q: the border coordinate 0 fixed, and negated when
        gamma = -beta != beta; the reversal on the n-1 circulant ones."""
        m = len(self.first_row)
        neg = np.zeros(m + 1, dtype=bool)
        neg[0] = self.gamma != self.beta
        return np.concatenate([[0], 1 + (-np.arange(m) % m)]), neg


def maps_dual_into(code: LinearCode, perm: np.ndarray, neg: np.ndarray) -> bool:
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


def _certify_isodual(spec: "CirculantSpec | BorderSpec", codeobj: LinearCode) -> None:
    """Check the spec's isodual map on its code.  The construction
    guarantees it, so a failure is a fault in the program."""
    if not maps_dual_into(codeobj, *spec.isodual_map()):
        raise AssertionError(f"isodual map does not hold for {spec.describe()}")


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


def _dc_candidates(n: int, alphabet: tuple[int, ...]) -> Iterator[CirculantSpec]:
    for row in product(alphabet, repeat=n):
        yield CirculantSpec(row)


def _bdc_candidates(n: int, alphabet: tuple[int, ...]) -> Iterator[BorderSpec]:
    # two sub-passes per (row, alpha, beta): gamma = +beta then gamma = -beta
    for row in product(alphabet, repeat=n - 1):
        for alpha in alphabet:
            for beta in alphabet:
                yield BorderSpec(row, alpha, beta, beta)
                nb = ring.neg(beta)
                if nb != beta:
                    yield BorderSpec(row, alpha, beta, nb)


class _Evaluate:
    """Picklable candidate evaluator for the search pool."""

    def __init__(self, budget: int):
        self.budget = budget

    def __call__(self, spec) -> SearchResult:
        return self.many([spec])[0]

    def many(self, specs: Sequence) -> list[SearchResult]:
        """Results in the order of `specs`: the codes are grouped by their
        information sets, and each group is one batched `lee_levels` call."""
        codes = [spec.build() for spec in specs]
        groups: dict[tuple[tuple[int, ...], ...], list[int]] = {}
        for i, codeobj in enumerate(codes):
            groups.setdefault(information_sets(codeobj.gen, codeobj.ring), []).append(i)
        dist: list = [None] * len(codes)
        for sets, members in groups.items():
            for i, d in zip(members, lee_levels([codes[i] for i in members], sets, self.budget)):
                dist[i] = d
        for spec, codeobj in zip(specs, codes):
            _certify_isodual(spec, codeobj)
        return [SearchResult(spec, d) for spec, d in zip(specs, dist)]


@dataclass(frozen=True)
class _Move:
    """A signed permutation of k x k blocks: B'[i][j] = B[rows[i]][cols[j]],
    negated where row_neg[i] != col_neg[j].

    It sends <[I | B]> onto <[I | B']>: the codeword of message x goes to
    the codeword of x[rows] (negated where row_neg), which is the same word
    with its right half permuted by cols and signed by col_neg, so every Lee
    weight is kept.  `take` indexes B' out of the stacked (B; -B).
    """
    rows: tuple[int, ...]
    row_neg: tuple[bool, ...]
    take: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, row_neg: np.ndarray,
           col_neg: np.ndarray) -> "_Move":
        k = rows.size
        flip = row_neg[:, None] != col_neg[None, :]
        return cls(tuple(rows.tolist()), tuple(row_neg.tolist()),
                   (flip * k + rows[:, None]) * k + cols[None, :])

    def block(self, b: np.ndarray) -> np.ndarray:
        """B' of a block B, or of each block of a stack (N, k, k)."""
        return np.concatenate([b, ring.R.NEG[b]], axis=-2).reshape(
            *b.shape[:-2], -1)[..., self.take]

    def message(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(ring.neg(x[r]) if s else x[r] for r, s in zip(self.rows, self.row_neg))


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


def _orbit(spec: "CirculantSpec | BorderSpec"
           ) -> Iterator[tuple["CirculantSpec | BorderSpec", _Move]]:
    """Every image of `spec` under shifts, reversal and negation, with the
    move that sends spec's block to the image's (reversal swaps a bdc
    spec's beta and gamma)."""
    bordered = isinstance(spec, BorderSpec)
    signed = bordered and spec.gamma != spec.beta
    for rev, perm, negated, move in _moves(len(spec.first_row), bordered, signed):
        vals = tuple(spec.first_row[i] for i in perm)
        if bordered:
            vals += (spec.alpha,) + ((spec.gamma, spec.beta) if rev else (spec.beta, spec.gamma))
        if negated:
            vals = tuple(ring.neg(x) for x in vals)
        m = len(perm)
        yield (BorderSpec(vals[:m], *vals[m:]) if bordered else CirculantSpec(vals)), move


def _orbit_owners(cands: list) -> list[tuple[int, _Move]]:
    """Per candidate, (index of its orbit representative, move from the
    representative's block to the candidate's).  The representative is the
    first member, in candidate order, of the orbit intersected with the
    candidate list."""
    index = {spec: i for i, spec in enumerate(cands)}
    owners: list = [None] * len(cands)
    for i, spec in enumerate(cands):
        if owners[i] is None:
            for image, move in _orbit(spec):
                j = index.get(image)
                if j is not None and owners[j] is None:
                    owners[j] = (i, move)
    return owners


def _check_moves(moves: Sequence[_Move], rep_blocks: np.ndarray, blocks: np.ndarray,
                 names) -> None:
    """Member i's move must send its representative's block rep_blocks[i]
    to its own block blocks[i]: checked on the stacked blocks of all
    members, one gather per distinct move.  A failure is a fault in the
    program: AssertionError, naming the pair by `names(i)`."""
    by_move: dict[int, list[int]] = {}
    for i, move in enumerate(moves):
        by_move.setdefault(id(move), []).append(i)
    for members in by_move.values():
        bad = (moves[members[0]].block(rep_blocks[members]) != blocks[members]).any(axis=(1, 2))
        if bad.any():
            raise AssertionError(f"orbit move does not send {names(members[int(bad.argmax())])}")


def _moved(rep: SearchResult, spec, move: _Move) -> SearchResult:
    """The representative's result for the orbit member `spec`: the same
    distance, and the witness mapped by the move."""
    d = rep.distance
    w = move.message(d.witness_message)
    return SearchResult(spec, d if w == d.witness_message else replace(d, witness_message=w))


def _carry(rep: SearchResult, rep_block: np.ndarray, spec, move: _Move) -> SearchResult:
    """`_moved` for one orbit member, after its move is checked."""
    _check_moves([move], rep_block[None], spec.block()[None],
                 lambda _: f"{rep.spec.describe()} to {spec.describe()}")
    return _moved(rep, spec, move)


def search(kind: str, n: int, alphabet: Sequence[int] | None = None,
           budget: int = DEFAULT_BUDGET, threshold: int = 0,
           threads: int = 1) -> SearchOutcome:
    """Sweep dc/bdc codes of length 2n; keep candidates with d >= threshold.

    Only one candidate per isometry orbit is evaluated, by the worker pool;
    every result is then carried back out in candidate order, so the
    outcome is worker-count independent.  Every result passed the spec's
    isodual check (`_certify_isodual` raises otherwise).
    """
    if kind not in ("dc", "bdc"):
        raise ValueError("kind must be 'dc' or 'bdc'")
    if n < 1 or (kind == "bdc" and n < 2):
        raise ValueError(f"order n={n} too small for kind {kind}")
    alpha = tuple(sorted(set(int(x) for x in (alphabet or ring.ELEMENTS))))
    cands = list(_dc_candidates(n, alpha) if kind == "dc" else _bdc_candidates(n, alpha))
    owners = _orbit_owners(cands)
    rep_index = [i for i, (owner, _) in enumerate(owners) if owner == i]
    reps = [cands[i] for i in rep_index]
    ev = _Evaluate(budget)
    workers = min(threads, len(reps))
    if workers > 1:
        size = max(1, len(reps) // (8 * workers))
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.map(ev.many, [reps[i:i + size] for i in range(0, len(reps), size)])
        done = [r for part in parts for r in part]
    else:
        done = ev.many(reps)
    blocks = _blocks(cands)
    rep_of = np.array([owner for owner, _ in owners])
    _check_moves([move for _, move in owners], blocks[rep_of], blocks,
                 lambda i: f"{cands[rep_of[i]].describe()} to {cands[i].describe()}")
    by_rep = dict(zip(rep_index, done))
    evaluated = [_moved(by_rep[owner], spec, move) for spec, (owner, move) in zip(cands, owners)]
    results = tuple(r for r in evaluated if r.distance.value >= threshold)
    best = max(r.distance.value for r in evaluated)
    best_spec = next(r.spec for r in evaluated if r.distance.value == best)
    return SearchOutcome(kind, results, best, best_spec,
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
        row to exist (`_certify_isodual` raises otherwise)."""
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
        codeobj = spec.build()
        got = codeobj.min_lee_distance(budget)
        _certify_isodual(spec, codeobj)
        reports.append(RowReport(length, spec, recorded, got, ok=(got.value == recorded)))
    return reports
