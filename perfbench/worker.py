"""One fresh workload process: import the CLI, run its commands in passes.

Run as ``python3 perfbench/worker.py SPEC_JSON OUT_JSON``.  The spec names
the source directory, the commands (argv lists for ``z4u.cli.main``), the
seconds to measure and whether to trace.  One pass runs every command once,
in order, each after the previous one returns, in process, with stdout and
stderr captured.  The first pass warms up (lazy tables, page faults) and is
not timed; more passes follow while the next one is expected to end within
the seconds given.  A traced run alternates traced and untraced passes, so
the tracing overhead is measured in the same process and time window.  An
untraced run also times the set-up of a fresh interpreter before each pass
(``worker.py --setup SRC`` in a child process), so the set-up samples are
spread over the whole run.

Every exception is caught per command and recorded by type, so one failing
command does not hide the others.  The result (per-pass timings, each
distinct stdout, peak RSS and, for traced passes, the span metrics) is
written as JSON to OUT_JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_command(main, argv: list[str], outputs: dict) -> dict:
    """Run one command; record its outcome and keep each distinct stdout once."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except KeyboardInterrupt:
        raise
    except SystemExit as e:          # argparse rejects an argv this way
        rc, exc = e.code, f"SystemExit: {e.code}"
    except Exception as e:           # MemoryError included: record, keep going
        exc = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
    outputs.setdefault(digest, {"stdout": stdout, "stderr": err.getvalue()})
    return {"rc": rc, "exception": exc, "seconds": seconds, "digest": digest}


def setup(src: str) -> float:
    """Import the CLI and build its parser; return the seconds it took."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import z4u.cli
    z4u.cli.build_parser()
    return time.perf_counter() - t0


def fresh_setup(src: str) -> float:
    """Set-up time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup", src],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def main() -> int:
    if sys.argv[1] == "--setup":
        print(repr(setup(sys.argv[2])))
        return 0
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    setups = [setup(spec["src"])]
    import z4u.cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import trace_spans
        tracer = trace_spans.Tracer()
    outputs = {c["name"]: {} for c in spec["commands"]}
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is None:
            setups.append(fresh_setup(spec["src"]))
        if traced:
            tracer.install()
        p0 = time.perf_counter()
        runs = [run_command(z4u.cli.main, c["argv"], outputs[c["name"]])
                for c in spec["commands"]]
        entry = {"traced": traced, "wall_s": time.perf_counter() - p0, "commands": runs}
        if traced:
            tracer.uninstall()
            entry["layers"] = trace_spans.span_metrics(tracer.spans)
            tracer.spans.clear()
        passes.append(entry)
        timed = len(passes) - 1
        elapsed = time.perf_counter() - start
        if timed >= (2 if tracer else 1) and elapsed + entry["wall_s"] > spec["seconds"]:
            break

    result = {"setup_s": setups, "passes": passes, "outputs": outputs,
              "peak_rss_mb": _peak_rss_mb()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
