"""Brute-force helpers shared by the tests.

`span` builds a code's codeword set from a ring's scalar functions alone;
`members` reads the codeword set back from `LinearCode.contains` by asking
about every vector of ring^n, so the two can be compared as sets.
"""

from itertools import product

import numpy as np


def span(rows, size, add, mul):
    """Deduplicated row span over a ring given by its scalar add and mul."""
    words = {(0,) * len(rows[0])}
    for row in rows:
        words = {tuple(add(x, mul(c, y)) for x, y in zip(w, row))
                 for w in words for c in range(size)}
    return words


def members(code):
    """Every vector of ring^n that the code contains (small n only)."""
    vectors = np.array(list(product(range(code.ring.size), repeat=code.n)), dtype=np.uint8)
    return {tuple(v) for v in vectors[code.contains(vectors)].tolist()}


def is_linear(words, size, add, mul):
    """Closure of a word set under addition and every scalar multiple."""
    return all(tuple(mul(s, x) for x in w) in words for w in words for s in range(size)) \
        and all(tuple(add(a, b) for a, b in zip(w1, w2)) in words
                for w1 in words for w2 in words)
