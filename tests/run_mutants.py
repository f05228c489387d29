"""Mutation lane: every mutant of `mutants.py` must be killed by its tests.

usage: python tests/run_mutants.py

For each mutant, `src/` is copied to a temporary directory, the mutant's old
text is replaced by its new text there, and pytest runs the mutant's tests
against that copy (PYTHONPATH points at it).  The lane fails when a mutant's
old text does not occur exactly once, or when all of its tests pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from mutants import MUTANTS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    bad = 0
    for i, (name, old, new, tests) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = os.path.join(src, "z4u", name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"mutant {i} ({name}): old text found {text.count(old)} times")
                bad += 1
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                capture_output=True, text=True)
            killed = proc.returncode == 1
            print(f"mutant {i} ({name}): {'killed' if killed else 'SURVIVED'} "
                  f"[{proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.returncode}]")
            bad += not killed
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
