import importlib.resources as res
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from z4u import cli, construct, ring, wenum
from z4u import code as code_module
from z4u.cli import build_parser, main
from z4u.code import LinearCode, identity, ring_matmul

from oracles import dual_bruteforce, format_matrix

DATA = res.files("z4u") / "data"


def run_cli(*argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        status = main(list(argv))
    finally:
        sys.stdout = old
    return status, out.getvalue()


def gen_path(name):
    return str(DATA / name)


def test_analyze_u_fixture():
    status, out = run_cli("analyze", "--gen", gen_path("u.gen"))
    assert status == 0
    assert "length: 1" in out
    assert "cardinality: 4" in out
    assert "min-lee-distance: 2 (exact)" in out
    assert "self-duality: self-dual" in out
    assert "4,0 : 1" in out and "2,2 : 2" in out and "0,4 : 1" in out


def test_analyze_deterministic():
    s1, out1 = run_cli("analyze", "--gen", gen_path("u.gen"))
    s2, out2 = run_cli("analyze", "--gen", gen_path("u.gen"))
    assert s1 == s2 == 0 and out1 == out2


def test_analyze_large_code_skips_enumerators():
    status, out = run_cli("analyze", "--gen", gen_path("lift16_r.gen"))
    assert status == 0
    assert "cardinality: 4294967296" in out
    assert "min-lee-distance: 12 (exact)" in out
    assert "out of budget" in out


def test_free_nonstandard_generator_past_budget(tmp_path):
    # T.[I_8 | A] with T invertible (unit triangular factors) and columns
    # permuted: 16^8 messages exceed the default budget, so |C| = 16^8
    # comes from the information set the columns hold, not from a census
    rng = np.random.default_rng(2024)
    k = 8
    lower = np.tril(rng.integers(0, 16, (k, k)), -1).astype(np.uint8) + identity(k)
    upper = np.triu(rng.integers(0, 16, (k, k)), 1).astype(np.uint8) + identity(k)
    gen = ring_matmul(ring_matmul(lower, upper), np.hstack(
        [identity(k), rng.integers(0, 16, (k, k), dtype=np.uint8)]))[:, rng.permutation(2 * k)]
    path = tmp_path / "free.gen"
    path.write_text(format_matrix(gen) + "\n")
    assert not LinearCode(gen).standard_form
    for command in ("analyze", "gray"):
        status, out = run_cli(command, "--gen", str(path))
        assert status == 0
        assert "cardinality: 4294967296" in out


def test_analyze_missing_file():
    status, _ = run_cli("analyze", "--gen", "/nonexistent/g.gen")
    assert status == 1


def test_analyze_bad_matrix(tmp_path):
    bad = tmp_path / "bad.gen"
    bad.write_text("10 4x\n")
    status, _ = run_cli("analyze", "--gen", str(bad))
    assert status == 1


def test_gray_command(tmp_path):
    status, out = run_cli("gray", "--gen", gen_path("u.gen"))
    assert status == 0
    assert "z4-image length: 2" in out
    assert "z4-image cardinality: 4" in out


def test_dual_command(tmp_path):
    g = tmp_path / "iu.gen"
    g.write_text("10 01\n")
    status, out = run_cli("dual", "--gen", str(g))
    assert status == 0
    assert "dual generator ([-A^T | I]):" in out
    assert "03 10" in out
    assert "dual cardinality: 16" in out
    assert "(16^n = 256)" in out


def test_macwilliams_command():
    status, out = run_cli("macwilliams", "--gen", gen_path("u.gen"))
    assert status == 0
    assert "lee transform fixed point (formally self-dual): yes" in out
    assert "swe transform equals brute-force dual swe: yes" in out
    assert "lee transform equals brute-force dual lee: yes" in out
    assert "cwe transform evaluations match brute-force dual at 20 points: yes" in out


def test_project_command():
    status, out = run_cli("project", "--gen", gen_path("u.gen"))
    assert status == 0
    assert "constant-part self-orthogonal: yes" in out
    assert "u-coefficient self-orthogonal: no" in out
    assert "mod-2 self-orthogonal: yes" in out


def test_lift_check_command():
    status, out = run_cli(
        "lift-check",
        "--ring-gen", gen_path("lift16_r.gen"),
        "--z4-gen", gen_path("lift16_z4.gen"),
        "--f2u-gen", gen_path("lift16_f2u.gen"))
    assert status == 0
    assert "projections match the prescribed codes: yes" in out
    assert "d' (Z4 code)    = 8 (exact)" in out
    assert "d'' (F2+uF2)    = 8 (exact)" in out
    assert "d  (ring code)  = 12 (exact)" in out
    assert "holds" in out
    assert "witness codeword of weight 12:" in out


def test_search_command():
    status, out = run_cli("search", "--kind", "dc", "--n", "2", "--threshold", "4")
    assert status == 0
    assert "best distance: 4" in out
    assert "exhaustive over full alphabet: yes" in out


def test_search_deterministic_across_threads():
    s1, out1 = run_cli("search", "--kind", "dc", "--n", "2", "--threshold", "4",
                       "--threads", "1")
    s2, out2 = run_cli("search", "--kind", "dc", "--n", "2", "--threshold", "4",
                       "--threads", "2")
    assert s1 == s2 == 0
    assert out1 == out2


def test_search_alphabet_flag():
    status, out = run_cli("search", "--kind", "dc", "--n", "2",
                          "--alphabet", "00,12")
    assert status == 0
    assert "candidates: 4" in out
    assert "exhaustive over full alphabet: no" in out


def test_macwilliams_past_expansion_guard_exit_1(tmp_path, capsys, monkeypatch):
    # n = 25 is past the symbolic SWE transform's guard: an input error,
    # reported before any enumeration (the complete enumerator must not run)
    def no_cwe(*_):
        raise AssertionError("cwe ran before the expansion guard")

    monkeypatch.setattr(wenum, "cwe", no_cwe)
    rng = np.random.default_rng(25)
    for rows in (np.full((1, 25), ring.ONE), rng.integers(0, 16, size=(5, 25))):
        path = tmp_path / "long.gen"
        path.write_text(format_matrix(rows.astype(np.uint8)) + "\n")
        status, out = run_cli("macwilliams", "--gen", str(path))
        assert status == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: SWE transform expansion guarded")


def test_search_empty_alphabet_exit_1(capsys):
    # an empty --alphabet is a bad element token, as "," is, not the full
    # alphabet
    for alphabet in ("", ","):
        status, out = run_cli("search", "--kind", "dc", "--n", "1", "--alphabet", alphabet)
        assert status == 1 and out == "", alphabet
        assert "bad element token" in capsys.readouterr().err


def test_search_past_candidate_cap_exit_1(capsys, monkeypatch):
    # 16^3 dc candidates against a cap of 4095: refused before any is built
    def no_candidates(*_):
        raise AssertionError("candidates built past the cap")

    monkeypatch.setattr(construct, "_MAX_CANDIDATES", 4095)
    monkeypatch.setattr(construct, "_candidates", no_candidates)
    status, out = run_cli("search", "--kind", "dc", "--n", "3")
    assert status == 1 and out == ""
    assert capsys.readouterr().err == "error: search candidates needs 4096 steps, budget is 4095\n"


def test_search_past_order_cap_exit_1(capsys, monkeypatch):
    # one element is one candidate at any order: an order past the longest
    # row two elements fit under the candidate cap is refused before any
    # candidate row or block is built
    def no_candidates(*_):
        raise AssertionError("candidates built past the order cap")

    monkeypatch.setattr(construct, "_candidates", no_candidates)
    for kind, n in (("dc", "1000000000"), ("bdc", "1000000000"), ("dc", "26")):
        status, out = run_cli("search", "--kind", kind, "--n", n, "--alphabet", "11")
        assert status == 1 and out == ""
        assert capsys.readouterr().err == f"error: search order needs {n} steps, budget is 25\n"


def test_verify_tables_command():
    status, out = run_cli("verify-tables", "--table", "2", "--max-length", "8")
    assert status == 0
    assert out.count("PASS") == 3
    assert "rows: 3  pass: 3  fail: 0" in out


def test_self_check_command():
    status, out = run_cli("self-check")
    assert status == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out.replace("PASS", "")
    assert "3 differing entries" in out
    assert "row 7 col 15" in out and "row 8 col 16" in out and "row 15 col 7" in out


def test_self_check_deterministic():
    _, out1 = run_cli("self-check")
    _, out2 = run_cli("self-check")
    assert out1 == out2


def test_verify_tables_fail_exit_code(monkeypatch):
    # a wrong recorded distance must surface as FAIL and exit status 2
    import z4u.construct as construct
    doctored = ((4, construct.DC_TABLE[0][1], 5),) + construct.DC_TABLE[1:]
    monkeypatch.setattr(construct, "DC_TABLE", doctored)
    status, out = run_cli("verify-tables", "--table", "2", "--max-length", "4")
    assert status == 2
    assert "FAIL" in out


def test_usage_errors_exit_1(capsys):
    # argparse's own errors are bad input, status 1 (2 is a FAIL verdict):
    # returned by `main`, with the usage and the message on stderr
    for argv in (("search", "--kind", "xx", "--n", "3"),
                 ("search", "--kind", "dc", "--n", "3", "--threads", "abc"),
                 ("search", "--kind", "dc"),
                 ("verify-tables", "--table", "4"),
                 ("no-such-command",),
                 ()):
        status, out = run_cli(*argv)
        assert status == 1 and out == "", argv
        err = capsys.readouterr().err
        assert err.startswith("usage: z4u") and "error: " in err, argv


def test_help_exits_0():
    for argv in (["--help"], ["search", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_same_output_after_usage_error_and_fail(monkeypatch):
    # the parser is reused across calls: a good call prints the same bytes
    # after a usage error and after a FAIL verdict
    good = ("verify-tables", "--table", "2", "--max-length", "6")
    want = run_cli(*good)
    assert want[0] == 0
    assert run_cli("verify-tables", "--table", "9")[0] == 1
    assert run_cli(*good) == want
    import z4u.construct as construct
    with monkeypatch.context() as m:
        m.setattr(construct, "DC_TABLE", ((4, construct.DC_TABLE[0][1], 5),) + construct.DC_TABLE[1:])
        assert run_cli(*good)[0] == 2
    assert run_cli(*good) == want


def test_import_leaves_multiprocessing_out():
    # one worker, the default, never needs the multiprocessing package; a
    # fresh interpreter shows what importing the CLI alone pulls in
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, z4u.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"


def test_macwilliams_leaves_numpy_random_out():
    # the points come from Python's random.Random: numpy.random, about 9 ms
    # and a few MB on first use, is never imported
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nfrom z4u.cli import main\n"
            f"status = main(['macwilliams', '--gen', {gen_path('nonfree4x5.gen')!r}])\n"
            "print(status, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    lines = proc.stdout.splitlines()
    assert lines[-2] == "cwe transform evaluations match brute-force dual at 20 points: yes"
    assert lines[-1] == "0 False"


def test_macwilliams_points_in_batches(monkeypatch):
    # one random.Random stream: batches of 1 and of 3 (a partial last
    # batch) draw and compare the same points as the default, and no
    # evaluation sees more points than a batch
    argv = ("macwilliams", "--gen", gen_path("nonfree4x5.gen"))
    want = run_cli(*argv)
    assert want[0] == 0 and want[1].endswith("at 20 points: yes\n")
    sizes = []
    evaluate = wenum.macwilliams_cwe_eval
    monkeypatch.setattr(wenum, "macwilliams_cwe_eval",
                        lambda e, size, pts: sizes.append(len(pts)) or evaluate(e, size, pts))
    for batch in (1, 3):  # a point counts 4096 bytes
        monkeypatch.setattr(code_module, "SCRATCH_BYTES", 4096 * batch)
        sizes.clear()
        assert run_cli(*argv) == want
        assert sum(sizes) == 20 and max(sizes) == batch
    monkeypatch.setattr(cli, "_cwe_points_agree", lambda *args: False)
    status, out = run_cli(*argv)
    assert status == 2 and out.endswith("at 20 points: NO\n")


def test_bad_numeric_flags_exit_1():
    u = gen_path("u.gen")
    for argv in (("analyze", "--gen", u, "--threads", "0"),
                 ("analyze", "--gen", u, "--budget", "-1"),
                 ("macwilliams", "--gen", u, "--points", "-1"),
                 ("macwilliams", "--gen", u, "--seed", "-1"),
                 ("search", "--kind", "dc", "--n", "1", "--threads", "-2"),
                 ("self-check", "--budget", "-3"),
                 # 16^BUDGET would be an integer of half a gigabyte
                 ("analyze", "--gen", u, "--budget", "1000000000"),
                 ("search", "--kind", "dc", "--n", "1", "--budget", "65")):
        status, out = run_cli(*argv)
        assert status == 1, argv
        assert out == "", argv


def test_numeric_flags_at_their_bounds_accepted():
    status, out = run_cli("analyze", "--gen", gen_path("u.gen"), "--threads", "1")
    assert status == 0
    assert "min-lee-distance: 2 (exact)" in out
    assert run_cli("self-check", "--budget", "0")[0] == 0
    assert run_cli("self-check", "--budget", "64")[0] == 0
    status, out = run_cli("macwilliams", "--gen", gen_path("u.gen"), "--points", "0")
    assert status == 0
    assert "at 0 points: yes" in out


def _z4_self_orthogonal(rows):
    return all(sum(x * y for x, y in zip(r, s)) % 4 == 0 for r in rows for s in rows)


def _f2u_self_orthogonal(rows):
    # c + ud packed as c | d << 1: (c1 + u d1)(c2 + u d2) = c1 c2 + u (c1 d2 + c2 d1)
    return all(sum((x & 1) * (y & 1) for x, y in zip(r, s)) % 2 == 0 and
               sum((x & 1) * (y >> 1) + (y & 1) * (x >> 1) for x, y in zip(r, s)) % 2 == 0
               for r in rows for s in rows)


def test_project_dc8_runs_in_bounded_memory(tmp_path):
    # [I4 | A] with unit first row (11 10 10 10): the u-parts of A form the
    # identity circulant, so they span all of Z4^4 and the code's
    # u-coefficient projection has 2^16 words.  Projecting word by word
    # used to turn every one of them into a generator row and build a
    # 32 GiB Gram matrix; the span generators keep it to 8 rows.
    import os
    import subprocess
    import z4u
    first = ["11", "10", "10", "10"]
    rows = [["10" if i == j else "00" for j in range(4)] +
            [first[(j - i) % 4] for j in range(4)] for i in range(4)]
    g = tmp_path / "dc8.gen"
    g.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    src = os.path.dirname(os.path.dirname(z4u.__file__))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from z4u.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "project", "--gen", str(g)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    f2u_tokens = ("0", "1", "u", "1+u")
    checked = 0
    for label, header, parse, self_orth in (
            ("constant-part", "constant-part projection (Z4) generator:", int,
             _z4_self_orthogonal),
            ("u-coefficient", "u-coefficient projection (Z4) generator:", int,
             _z4_self_orthogonal),
            ("mod-2", "mod-2 projection (F2+uF2) generator:", f2u_tokens.index,
             _f2u_self_orthogonal)):
        i = lines.index(header)
        block = []
        for ln in lines[i + 1:]:
            if not ln.startswith("  "):
                break
            block.append([parse(t) for t in ln.split()])
        assert block and all(len(r) == 8 for r in block)
        want = "yes" if self_orth(block) else "no"
        assert f"{label} self-orthogonal: {want}" in lines
        checked += 1
    assert checked == 3
    assert len(lines) == 6 + 4 + 8 + 4


def test_dual_count_runs_in_bounded_memory(tmp_path):
    # (01 00 00 00 00 00 00) has 4 * 16^6 = 67108864 dual vectors, within
    # the default budget of 16^7; listing them all as flat indices and then
    # as digit rows needs well over 2 GiB, counting them per block does not
    import os
    import subprocess
    import z4u
    g = tmp_path / "u7.gen"
    g.write_text("01" + " 00" * 6 + "\n")
    src = os.path.dirname(os.path.dirname(z4u.__file__))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from z4u.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "dual", "--gen", str(g)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "dual cardinality: 67108864",
        "size product |C|*|dual|: 268435456 (16^n = 268435456)"]


def test_macwilliams_dual_cwe_runs_in_bounded_memory(tmp_path):
    # the zero code of length 6: its dual is all 16^6 vectors, 96 MiB as one
    # (N, 6) array and twice that while the blocks are joined.  Counting the
    # dual's compositions block by block needs well under 128 MiB of address
    # space past what the imports take; holding the whole dual does not fit.
    import os
    import subprocess
    import z4u
    g = tmp_path / "zero6.gen"
    g.write_text(" ".join(["00"] * 6) + "\n")
    src = os.path.dirname(os.path.dirname(z4u.__file__))
    script = ("import resource, sys\n"
              "from z4u.cli import main\n"
              "pages = int(open('/proc/self/statm').read().split()[0])\n"
              "limit = pages * resource.getpagesize() + (128 << 20)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "macwilliams", "--gen", str(g),
                           "--points", "0"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-3:] == ["swe transform equals brute-force dual swe: yes",
                          "lee transform equals brute-force dual lee: yes",
                          "cwe transform evaluations match brute-force dual at 0 points: yes"]
    i, j = lines.index("swe transform (dual swe):"), lines.index("lee transform (dual lee):")
    assert sum(int(ln.partition(" : ")[2]) for ln in lines[i + 1:j]) == 16 ** 6


def test_dual_lists_vectors_up_to_print_cap(tmp_path):
    # [0 | I3] over length 6: the dual R^3 x 0^3 has exactly 4096 vectors,
    # 256 in each of the sweep's 16 blocks; (01 00 00 00) has 16384
    g = tmp_path / "zi.gen"
    rows = [["00"] * 3 + ["10" if i == j else "00" for j in range(3)] for i in range(3)]
    g.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    status, out = run_cli("dual", "--gen", str(g))
    assert status == 0
    lines = out.splitlines()
    i = lines.index("dual codewords:")
    dual = dual_bruteforce(LinearCode.from_text(g.read_text()))
    assert lines[i + 1:] == ["  " + ring.format_vector(w) for w in dual]
    assert len(dual) == 4096
    g.write_text("01 00 00 00\n")
    status, out = run_cli("dual", "--gen", str(g))
    assert status == 0
    assert out.splitlines() == ["dual cardinality: 16384",
                                "size product |C|*|dual|: 65536 (16^n = 65536)"]
