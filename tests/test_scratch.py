"""Every streamed loop's steps stay within the one scratch bound.

`code.SCRATCH_BYTES` sizes the steps of every streamed loop, counted from
the bytes that one item of a step allocates.  At an input that takes
several steps, each step's traced peak, above what was held when it
started, must stay within twice the bound plus 64 KB: an item's count
names the arrays of its step, not every temporary that numpy makes.
"""

import tracemalloc

import numpy as np
import pytest

from z4u import code as code_module
from z4u import construct, ring, wenum
from z4u.code import DEFAULT_BUDGET, LinearCode, _InfoSet, identity, information_sets, span_blocks
from z4u.construct import circulant

from test_wenum import random_cwe

LIMIT = 2 * code_module.SCRATCH_BYTES + (64 << 10)


def _steps(items):
    """(steps, the largest traced peak of one step) of an iterator: a step
    is one `next`, its peak taken above the bytes held before it."""
    it, count, peak = iter(items), 0, 0
    tracemalloc.start()
    try:
        while True:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                item = next(it)
            except StopIteration:
                return count, peak
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            count += 1
            del item
    finally:
        tracemalloc.stop()


def _calls(monkeypatch, module, name, run, step=lambda *args: True):
    """(steps, the largest traced peak of one step) of `run(original)`,
    a step being each call of module.name for which step(*args) holds."""
    original, peaks = getattr(module, name), []

    def traced(*args):
        if not step(*args):
            return original(*args)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(module, name, traced)
    tracemalloc.start()
    try:
        run(original)
    finally:
        tracemalloc.stop()
    return len(peaks), max(peaks)


def _span_block(monkeypatch):
    # 16^5 messages of a length-8 code: 16 blocks of 2^16 rows
    gen = np.random.default_rng(1).integers(0, 16, size=(5, 8), dtype=np.uint8)
    return _steps(span_blocks(gen))


def _dual_pairs(monkeypatch):
    # one row of length 6: 2^20 dual words in stretches of 2^16 pairs
    return _steps(LinearCode([[1, 5, 7, 13, 2, 9]]).dual_pairs())


def _join_step(monkeypatch):
    # the census join of a dc code of length 12: 16^6 pairs, 2^16 a step
    row = np.random.default_rng(5).integers(0, 16, size=6, dtype=np.uint8)
    gen = np.hstack([identity(6), circulant(row)])
    info = _InfoSet(gen[None], information_sets(gen)[0], ring.R)
    hi, lo = info.halves
    return _steps(wt for wh in range(hi.top + 1) for wl in range(lo.top + 1)
                  for _, _, wt in info.join(wh, wl))


def _kernel_batch(monkeypatch):
    # 700 dc codes of length 8 over the units, one unit pattern: parts of
    # 128 codes, two half tables of 16^2 split entries each
    rows = np.array(sorted(ring.UNITS), np.uint8)[
        np.random.default_rng(7).integers(0, 8, size=(700, 4))]
    gens = np.concatenate([np.broadcast_to(identity(4), (700, 4, 4)), circulant(rows)], axis=2)
    sets = information_sets(gens[0])
    return _calls(monkeypatch, code_module, "lee_levels",
                  lambda levels: levels(gens, ring.R, sets, DEFAULT_BUDGET),
                  lambda gens, *_: len(gens) <= 128)


def _sort_pass(monkeypatch):
    # 2^18 composition keys of random length-8 words: passes of 2^16 keys
    words = np.random.default_rng(11).integers(0, 16, size=(1 << 18, 8), dtype=np.uint8)
    blocks = [wenum._composition_keys(code_module.pack_rows(part), 8, 8)
              for part in np.split(words, 4)]
    return _calls(monkeypatch, wenum, "_merge_counts",
                  lambda _: wenum._compositions(blocks, 8),
                  lambda keys, counts=None: counts is None)


def _evaluation_pass(monkeypatch):
    # 40,000 terms at 3 points: ranges of 13,107 terms, one point a pass;
    # a pass has no call of its own, so the whole evaluation is one traced
    # step, which holds every pass
    e = random_cwe(40000, 12)
    points = wenum._integral([[wenum.GaussianInt(j - i, i) for j in range(16)]
                              for i in range(3)])[1]
    e._chain
    width = code_module._per_step(8 * (wenum._EVAL_ARRAYS + 4))
    passes = len(e._ranges(width)) * -(-3 // code_module._per_step(8 * wenum._EVAL_ARRAYS * width))
    return passes, _steps(e._values(points) for _ in range(1))[1]


def _orbit_slice(monkeypatch):
    # the 16^4 dc candidates of n = 4 in slices of 2^14; the whole call is
    # one traced step, less its owners and moves (8 bytes a candidate each)
    alphabet = tuple(range(16))
    cands = construct._candidates("dc", 4, alphabet)
    signed = np.zeros(len(cands), dtype=bool)
    slices = -(-len(cands) // code_module._per_step(16 * cands.shape[1]))
    peak = _steps(construct._orbits("dc", cands, signed, alphabet) for _ in range(1))[1]
    return slices, peak - 16 * len(cands)


LOOPS = {"span block": _span_block, "dual-pair block": _dual_pairs, "join step": _join_step,
         "kernel batch": _kernel_batch, "sort pass": _sort_pass,
         "evaluation pass": _evaluation_pass, "orbit slice": _orbit_slice}


@pytest.mark.parametrize("loop", LOOPS)
def test_step_stays_within_scratch_bytes(loop, monkeypatch):
    steps, peak = LOOPS[loop](monkeypatch)
    assert steps > 1
    assert peak <= LIMIT, f"{loop}: {peak} bytes in a step"
