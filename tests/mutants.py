"""Mutants of the streamed loops, each of which a named test must kill.

A mutant is (file under src/z4u, exact old text, new text, tests that must
fail).  Each mutant below drops the last, partial step of one streamed loop
(or the last step, where every step is full); `run_mutants.py` applies one
at a time to a copy of `src/` and runs its tests there.  The old text must
occur once in the file: a rename that moves it must update this list.
"""

MUTANTS = [
    ("code.py",
     "    for h, prefix in enumerate(span_table(rows[:khi], ring)):",
     "    for h, prefix in enumerate(span_table(rows[:khi], ring)[:-1]):",
     ["tests/test_code.py::test_span_blocks_equal_ring_matmul"]),
    ("code.py",
     "        for part in np.split(hit, np.flatnonzero(np.diff(offset // stretch)) + 1):",
     "        for part in np.split(hit, np.flatnonzero(np.diff(offset // stretch)) + 1)[:-1]:",
     ["tests/test_code.py::test_dual_join_two_word_keys_in_small_blocks"]),
    ("code.py",
     "            for a in range(0, nh, rows):",
     "            for a in range(0, nh - nh % rows, rows):",
     ["tests/test_code.py::test_batch_in_parts_and_small_blocks_matches_single_codes"]),
    ("code.py",
     "        return [d for i in range(0, len(gens), step)",
     "        return [d for i in range(0, len(gens) - len(gens) % step, step)",
     ["tests/test_code.py::test_batch_in_parts_and_small_blocks_matches_single_codes"]),
    ("wenum.py",
     "        for s in range(0, len(blk), step):",
     "        for s in range(0, len(blk) - len(blk) % step, step):",
     ["tests/test_wenum.py::test_composition_keys_match_counter"]),
    ("wenum.py",
     "                for s in range(0, count, step):",
     "                for s in range(0, count - count % step, step):",
     ["tests/test_wenum.py::test_evaluation_passes_do_not_change_values"]),
    ("wenum.py",
     "        for lo in range(0, len(self.counts), width):",
     "        for lo in range(0, len(self.counts) - len(self.counts) % width, width):",
     ["tests/test_wenum.py::test_evaluation_in_term_ranges_matches_one_range"]),
    ("construct.py",
     "    for start in range(0, len(cands), step):\n        part = owner[start:start + step]\n"
     "        for index in images(",
     "    for start in range(0, len(cands) - len(cands) % step, step):\n"
     "        part = owner[start:start + step]\n        for index in images(",
     ["tests/test_construct.py::test_search_independent_of_slice"]),
    ("construct.py",
     "        for start in range(0, len(members), step):",
     "        for start in range(0, len(members) - len(members) % step, step):",
     ["tests/test_construct.py::test_corrupted_move_in_last_partial_slice_raises"]),
    ("cli.py",
     "    for s in range(0, count, step):",
     "    for s in range(0, count - count % step, step):",
     ["tests/test_cli.py::test_macwilliams_points_in_batches"]),
]
