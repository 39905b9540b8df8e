#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Runs ``perfbench/run.py --trace 0`` once per workload (``corpus``,
``bigtree`` and ``cargo-http``) at a fixed seed and run length, and writes
each run's result line, with the checkout's commit and the host it ran on,
to ``BENCH_<n>.json`` at the root of this repository.  Compare two such
files only when the same host made them.  A commit recorded with a
``-dirty`` suffix was measured with uncommitted changes to tracked files.

Usage: python3 scripts/record_bench.py N [--checkout DIR]

``--checkout`` measures another source checkout (default: this one), e.g.
a clone of an earlier commit, while the file is still written here.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "bigtree", "cargo-http")
SEED = 1
SECONDS = 24


def commit(checkout: Path) -> str:
    """The checkout's commit, suffixed ``-dirty`` when tracked files differ from it."""
    argv = ["git", "describe", "--always", "--dirty", "--abbrev=40"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(checkout: Path, workload: str) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"record_bench: {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="index of the BENCH file to write")
    parser.add_argument("--checkout", type=Path, default=REPO, help="source checkout to measure")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    record = {
        "commit": commit(checkout),
        "command": f"perfbench/run.py --seed {SEED} --seconds {SECONDS} --trace 0",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {name: run_workload(checkout, name) for name in WORKLOADS},
    }
    out = REPO / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
