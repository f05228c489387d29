"""z4ucode benchmark: seeded CLI workloads, output checks, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel|enumerators|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of ``z4u`` commands (see inputs.py), run as
a closed loop with one client: each command starts only after the previous
one returned, all in process through ``z4u.cli.main`` inside one fresh
worker process, always with ``--threads 1``.  The worker runs the list in
passes: one warm-up pass, then timed passes for about ``--seconds``.

Every command does the same work in every pass.  A time is the mean over
the run's timed passes: on a shared machine, load from elsewhere drifts
over minutes as well as coming in bursts, and over runs of the same code
the mean was the steadiest of the mean, the median and the fastest time
(see README.md).  Set-up time, a fraction of a second, is the fastest of the
fresh-interpreter samples spread over the run.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` the worker alternates traced and untraced passes; the
per-layer times are means over the traced passes (counts must agree
exactly between them), and the tracing overhead is the mean traced pass
time minus the mean untraced one.

Human-readable report lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit status is 0 whenever that line is printed, and 1 when the program
cannot be found or a worker dies.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks       # noqa: E402
import inputs       # noqa: E402

#: A worker still running after this long is killed and the run fails.
WORKER_TIMEOUT_S = 170
#: Cap on the worker's address space, so a runaway allocation raises
#: MemoryError instead of pushing a shared machine out of memory.
WORKER_ADDRESS_SPACE = 4 << 30

COUNT_SUFFIXES = (".products", ".msgs", ".words", ".vectors", ".candidates", ".rows",
                  ".calls", ".failed")

#: workload-specific command totals, reported by name beside the JSON line
COMMAND_TOTALS = {
    "kernel": {"verify_tables_s": "verify-tables", "search_s": "search"},
    "enumerators": {"macwilliams_s": "macwilliams", "project_s": "project",
                    "lift_check_s": "lift-check"},
}


class WorkerError(RuntimeError):
    pass


def _limit_memory() -> None:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_ADDRESS_SPACE, WORKER_ADDRESS_SPACE))


def run_worker(spec: dict, workdir: str, tag: str) -> dict:
    """Run one fresh worker and return its result."""
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    out_path = os.path.join(workdir, f"{tag}.out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, out_path]
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_limit_memory)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{tag} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{tag} worker exited {proc.returncode}: "
                          f"{err.decode(errors='replace')[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def source_hash(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "z4u", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def environment(root: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    lines = 0
    for path in glob.glob(os.path.join(root, "src", "z4u", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "src_lines": lines}


class Records:
    """What earlier runs in this checkout saw, keyed by source-tree hash.

    Holds the outcome of every command (stdout hash and exception type) and
    the traced counts, per set of inputs (seed and input hashes).  A later
    run on the same inputs and source must reproduce them exactly.
    """

    def __init__(self, workload: str, code_hash: str):
        self.path = os.path.join(BENCH_DIR, ".records", f"{workload}.json")
        self.all: dict = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                self.all = json.load(fh)
        self.mine = self.all.setdefault(code_hash, {})

    def compare(self, inputs_key: str, kind: str, seen: dict) -> list[str]:
        """Problems where `seen` differs from an earlier run; then remember it."""
        old = self.mine.setdefault(inputs_key, {}).setdefault(kind, {})
        problems = [f"{kind} {key}: {old[key]} in an earlier run on inputs {inputs_key}, "
                    f"now {value}"
                    for key, value in seen.items() if key in old and old[key] != value]
        for key, value in seen.items():
            old.setdefault(key, value)
        return problems

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.all, fh)
        os.replace(tmp, self.path)


def outcome(run: dict) -> str:
    """One command execution as stdout hash and, if it raised, the exception type."""
    return f"{run['digest']}/{(run['exception'] or '').partition(':')[0]}/{run['rc']}"


def judge(cmds: list, result: dict) -> tuple[list[dict], list[str]]:
    """Per-execution verdicts, and the problems that make a run incorrect.

    Each distinct stdout is checked once.  Every pass must repeat the first
    pass's outcome of each command byte for byte; a command whose outcome
    changes between passes is a broken determinism guarantee.
    """
    verdicts, problems = [], []
    done = {}       # command name -> stdout of its first pass, for later checks
    checked = {}    # (command name, digest) -> problems found in that stdout
    for i, cmd in enumerate(cmds):
        outputs = result["outputs"][cmd.name]
        runs = [p["commands"][i] for p in result["passes"]]
        if len({outcome(r) for r in runs}) > 1:
            problems.append(f"{cmd.name}: outcome differs between passes of one run: "
                            + ", ".join(sorted({outcome(r) for r in runs})))
        for run in runs:
            if run["exception"] is not None:
                why = run["exception"]
            elif run["rc"] != 0:
                why = f"exit status {run['rc']}: {outputs[run['digest']]['stderr'].strip()[:200]}"
            else:
                key = (cmd.name, run["digest"])
                if key not in checked:
                    stdout = outputs[run["digest"]]["stdout"]
                    checked[key] = checks.CHECKS[cmd.check](stdout, cmd.context, done)
                    problems += [f"{cmd.name}: {p}" for p in checked[key]]
                    done.setdefault(cmd.name, stdout)
                why = "; ".join(checked[key]) or None
            verdicts.append({"name": cmd.name, "failed": why})
    return verdicts, problems


def mean_time(passes: list[dict], which) -> float:
    """Mean over `passes` of the time spent in the commands at `which`."""
    return statistics.fmean(sum(p["commands"][i]["seconds"] for i in which) for p in passes)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    src = os.path.join(root, "src")
    workdir = os.path.join(BENCH_DIR, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cmds, input_hashes = inputs.build(workload, seed, workdir,
                                          os.path.join(src, "z4u", "data"))
        spec = {"src": src, "seconds": seconds,
                "commands": [{"name": c.name, "argv": list(c.argv)} for c in cmds]}
        records = Records(workload, source_hash(src))
        inputs_key = f"{seed}-" + hashlib.sha256(
            json.dumps(input_hashes, sort_keys=True).encode()).hexdigest()[:12]

        result = run_worker(dict(spec, trace=trace), workdir,
                            "traced" if trace else "untraced")
        verdicts, problems = judge(cmds, result)
        problems += records.compare(inputs_key, "outcome", {
            c.name: outcome(result["passes"][0]["commands"][i]) for i, c in enumerate(cmds)})

        timed = result["passes"][1:]        # the first pass is the warm-up
        untraced = [p for p in timed if not p["traced"]]
        wall = statistics.fmean(p["wall_s"] for p in untraced)
        if not trace:
            metrics = {"setup_s": (min(result["setup_s"]), "s"),
                       "wall_s": (wall, "s"),
                       "peak_rss_mb": (result["peak_rss_mb"], "MB")}
        else:
            layers = [p["layers"] for p in timed if p["traced"]]
            metrics = {}
            for name in layers[0]:
                values = [layer[name] for layer in layers]
                if name.endswith(COUNT_SUFFIXES):
                    if len(set(values)) > 1:
                        problems.append(f"count {name} differs between traced passes: {values}")
                    metrics[name] = (values[0], "count")
                else:
                    metrics[name] = (statistics.fmean(values), "s")
            counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
            problems += records.compare(inputs_key, "counts", counts)
            traced_wall = statistics.fmean(p["wall_s"] for p in timed if p["traced"])
            metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        records.save()

        attempted = len(verdicts)
        failed = sum(1 for v in verdicts if v["failed"])
        extra = {"error_rate": (failed / attempted, "ratio")}
        if not trace:
            metrics["success_rate"] = (1 - failed / attempted, "ratio")
            for name, prefix in COMMAND_TOTALS[workload].items():
                extra[name] = (mean_time(untraced, [i for i, c in enumerate(cmds)
                                                    if c.name.startswith(prefix)]), "s")
            if workload == "kernel":
                extra["candidates_per_s"] = (sum(c.context.get("candidates", 0) for c in cmds)
                                             / extra["search_s"][0], "1/s")
        first_failure = {}
        for v in verdicts:
            first_failure.setdefault(v["name"], v["failed"])
        commands = [{"name": c.name, "failed": first_failure[c.name],
                     "mean": mean_time(untraced, [i]),
                     "fastest": min(p["commands"][i]["seconds"] for p in untraced)}
                    for i, c in enumerate(cmds)]
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "inputs": input_hashes, "env": environment(root), "commands": commands,
                "passes": [round(p["wall_s"], 4) for p in timed], "setups": result["setup_s"],
                "problems": problems, "metrics": metrics, "extra": extra,
                "correct": not problems, "attempted": attempted, "failed": failed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(run: dict) -> None:
    print(f"# workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}"
          f"  seconds {run['seconds']}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in run["env"].items()))
    for name, digest in run["inputs"].items():
        print(f"# input {name} sha256 {digest}")
    print(f"# passes {len(run['passes'])} timed after one warm-up: "
          + " ".join(f"{w:.3f}" for w in run["passes"]))
    print("# setup " + " ".join(f"{s:.4f}" for s in run["setups"]))
    for v in run["commands"]:
        status = f"FAILED {v['failed']}" if v["failed"] else "ok"
        print(f"# command {v['name']:<22} mean {v['mean']:8.3f} s  fastest "
              f"{v['fastest']:8.3f} s  {status}")
    for p in run["problems"]:
        print(f"# problem {p}")
    for name, (value, unit) in {**run["metrics"], **run["extra"]}.items():
        print(f"# metric {run['workload']}.{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()}}))
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED,
                    help=f"input seed (default {inputs.DEFAULT_SEED}; "
                         f"held-out seed {inputs.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=60,
                    help="seconds of passes to run after the warm-up pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "z4u", "cli.py")):
        print("error: run from the repository root; src/z4u/cli.py not found", file=sys.stderr)
        return 1
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        except WorkerError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
