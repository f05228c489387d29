"""Gray map to Z4 and Gray image codes.

The Gray map sends a + ub (componentwise over a length-n vector) to the
length-2n Z4 vector (b, a+b).  It is a linear bijection and preserves Lee
weight, so the image of a linear code is a linear Z4 code with the same
Lee enumerator.

The image code is generated over Z4 by {gray(g), gray(u*g)} for the
generator rows g: as a Z4-module the source code is spanned by the rows
and their u-multiples, since (a+ub)*g = a*g + b*(u*g).  It is an ordinary
`LinearCode` over the `Z4` ring record, so its enumeration, dual,
self-duality, size and Lee transform are the same code paths as over R.
Its size comes from its own information set, as for any code: the map is
a bijection, so it equals the source code's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import ring
from .code import LinearCode


def gray_map(v: Sequence[int]) -> tuple[int, ...]:
    """(a + ub)_i  ->  (b_1..b_n, (a+b)_1..(a+b)_n) over Z4."""
    arr = np.asarray(v, dtype=np.uint8)
    a, b = arr >> 2, arr & 3
    return tuple(int(x) for x in np.concatenate([b, (a + b) & 3]))


def gray_map_inverse(w: Sequence[int]) -> tuple[int, ...]:
    arr = np.asarray(w, dtype=np.uint8)
    if arr.shape[0] % 2:
        raise ValueError("Gray preimage needs an even-length Z4 vector")
    n = arr.shape[0] // 2
    b = arr[:n]
    a = (arr[n:] - b) & 3
    return tuple(int(x) for x in ((a << 2) | b))


def gray_image(code: LinearCode) -> LinearCode:
    """Z4 code generated by the Gray images of the rows and their u-multiples."""
    rows = []
    for g in code.gen:
        rows.append(gray_map(g))
        rows.append(gray_map(ring.R.MUL[ring.U][g]))
    return LinearCode(np.array(rows, dtype=np.uint8), ring.Z4)
