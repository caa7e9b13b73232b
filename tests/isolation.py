"""Run the suite three ways and print every test whose outcome differs from the full run.

    python tests/isolation.py

The full run, then every collected test in reverse order in one process, then
each test alone, one process at a time.  Exits 1 when an outcome differs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def outcomes(*args):
    """{node id: PASSED, FAILED or ERROR} for one pytest process, from its `-rA` summary."""
    out = subprocess.run(PYTEST + ["-rA", *args], cwd=ROOT, capture_output=True, text=True).stdout
    found = {}
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ")[0]] = word
    return found


def main():
    listed = subprocess.run(PYTEST + ["--collect-only"], cwd=ROOT, capture_output=True, text=True).stdout
    ids = [line for line in listed.splitlines() if "::" in line]
    full = outcomes()
    reverse = outcomes(*reversed(ids))  # pytest runs node ids in the order given
    differ = 0
    for node in ids:
        seen = (full.get(node), reverse.get(node), outcomes(node).get(node))
        if None in seen or len(set(seen)) > 1:  # None: no outcome was reported
            differ += 1
            print(f"{node}: full {seen[0]}, reversed {seen[1]}, alone {seen[2]}")
    print(f"{len(ids)} tests, {differ} with an outcome that differs from the full run")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
