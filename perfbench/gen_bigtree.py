"""Seeded generator for the ``bigtree`` workload.

Writes a synthetic Rust-like project of 2,000 files x 300 lines checked by
the scripted checker: six defects, one each in six files drawn by the seed,
with every other line clean.  Every edit the loop makes is one line in a
600k-line tree, so whole-tree workspace work shows.

Usage:  python3 perfbench/gen_bigtree.py SEED OUT_DIR
writes OUT_DIR/broken/ (the project), OUT_DIR/reference/ and
OUT_DIR/expected/ (the defect files as fixed and as the loop must leave
them), OUT_DIR/answers.json and OUT_DIR/reference.json.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

from synth import (
    SyntheticCase,
    clean_line,
    expectation,
    place_defects,
    write_case,
)

N_FILES = 2000
FNS_PER_FILE = 50  # six lines each: 300 lines per file
FILES_PER_DIR = 100
N_DEFECTS = 6

SEED_MESSAGE = "cannot find value in this scope"

RULES = {
    "extensions": [".rs"],
    "rules": [
        {
            "code": "E0425",
            "level": "error",
            "message": SEED_MESSAGE,
            "pattern": "undef_[a-z0-9]+",
            "label": "not found in this scope",
        },
        {
            "code": "E0308",
            "level": "error",
            "message": "mismatched types",
            "pattern": '"mm_[a-z0-9]+"',
            "label": "expected `u64`, found `&str`",
        },
    ],
}


def rel_path(i: int) -> str:
    return f"src/m{i // FILES_PER_DIR:02d}/f{i:04d}.rs"


def _file(seed: int, i: int) -> Tuple[str, List[int]]:
    """Clean text of file ``i`` plus the shift constant of each function."""
    rng = random.Random(f"bigtree:{seed}:{i}")
    lines: List[str] = []
    shifts = []
    for j in range(FNS_PER_FILE):
        shift = rng.randrange(1, 31)
        shifts.append(shift)
        lines += [
            f"pub fn f{i}_{j}(x: u64) -> u64 {{",
            f"    let a = x.wrapping_mul({rng.randrange(3, 1 << 16)});",
            clean_line(shift),
            f"    let c = b.rotate_left({rng.randrange(1, 63)});",
            "    c",
            "}",
        ]
    return "\n".join(lines) + "\n", shifts


def generate(seed: int) -> SyntheticCase:
    rng = random.Random(f"bigtree:{seed}")
    chosen = sorted(rng.sample(range(N_FILES), N_DEFECTS))
    sites = []
    for i in chosen:
        j = rng.randrange(FNS_PER_FILE)
        _, shifts = _file(seed, i)
        sites.append((rel_path(i), 6 * j + 3, clean_line(shifts[j])))
    defects = place_defects(rng, sites)
    by_file = {d.file: d for d in defects}

    def text(i: int) -> str:
        clean, _ = _file(seed, i)
        d = by_file.get(rel_path(i))
        if d is None:
            return clean
        lines = clean.split("\n")
        lines[d.line - 1] = d.broken
        return "\n".join(lines)

    def files() -> Iterator[Tuple[str, str]]:
        yield "checker_rules.json", json.dumps(RULES, indent=2) + "\n"
        for i in range(N_FILES):
            yield rel_path(i), text(i)

    def key_for(d):
        return {"code": "E0425", "message": SEED_MESSAGE, "file": d.file}

    return SyntheticCase(
        name="bigtree",
        seed=seed,
        files=files,
        defects=defects,
        defect_texts={rel_path(i): text(i) for i in chosen},
        initial_keys=[key_for(d) for d in defects],
        expected=expectation(defects, key_for),
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    write_case(generate(int(sys.argv[1])), Path(sys.argv[2]))
