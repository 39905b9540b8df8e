"""Seeded generator for the ``cargo-http`` workload.

Writes a four-crate cargo workspace of about 26k lines: ``base`` is used by
``mid_a`` and ``mid_b``, and ``app`` uses all three.  Six defects sit in six
``app`` files drawn by the seed, so a real ``cargo check`` reports exactly
six E0425 errors, all in ``app``; the other crates compile cleanly and stay
fresh in a warm ``target/`` unless their files are rewritten.

Usage:  python3 perfbench/gen_cargo.py SEED OUT_DIR
writes the same layout as ``gen_bigtree.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from synth import SyntheticCase, clean_line, expectation, place_defects, write_case

# crate -> (module files, dependencies)
CRATES: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "base": (40, ()),
    "mid_a": (15, ("base",)),
    "mid_b": (15, ("base",)),
    "app": (16, ("base", "mid_a", "mid_b")),
}
FNS_PER_FILE = 50  # six lines each: 300 lines per module
N_DEFECTS = 6


def _module(seed: int, crate: str, m: int) -> Tuple[str, List[int]]:
    """Clean text of ``<crate>/src/mNN.rs`` plus each function's shift."""
    n_mods, deps = CRATES[crate]
    rng = random.Random(f"cargo:{seed}:{crate}:{m}")
    lines: List[str] = []
    shifts = []
    for j in range(FNS_PER_FILE):
        shift = rng.randrange(1, 31)
        shifts.append(shift)
        if deps:
            dep = rng.choice(deps)
            k = rng.randrange(CRATES[dep][0])
            tail = f"    {dep}::m{k:02d}::{dep}_m{k:02d}_f{j}(b)"
        else:
            tail = f"    b.rotate_left({rng.randrange(1, 63)})"
        lines += [
            f"pub fn {crate}_m{m:02d}_f{j}(x: u64) -> u64 {{",
            f"    let a = x.wrapping_mul({rng.randrange(3, 1 << 16)});",
            clean_line(shift),
            tail,
            "}",
            "",
        ]
    return "\n".join(lines), shifts


def _manifest(crate: str) -> str:
    deps = "".join(f'{d} = {{ path = "../{d}" }}\n' for d in CRATES[crate][1])
    return (
        f'[package]\nname = "{crate}"\nversion = "0.1.0"\nedition = "2021"\n\n'
        f"[dependencies]\n{deps}"
    )


def generate(seed: int) -> SyntheticCase:
    rng = random.Random(f"cargo:{seed}")
    chosen = sorted(rng.sample(range(CRATES["app"][0]), N_DEFECTS))
    sites = []
    for m in chosen:
        j = rng.randrange(FNS_PER_FILE)
        _, shifts = _module(seed, "app", m)
        sites.append((f"app/src/m{m:02d}.rs", 6 * j + 3, clean_line(shifts[j])))
    defects = place_defects(rng, sites)
    by_file = {d.file: d for d in defects}

    def text(crate: str, m: int) -> str:
        clean, _ = _module(seed, crate, m)
        d = by_file.get(f"{crate}/src/m{m:02d}.rs")
        if d is None:
            return clean
        lines = clean.split("\n")
        lines[d.line - 1] = d.broken
        return "\n".join(lines)

    def files() -> Iterator[Tuple[str, str]]:
        members = ", ".join(f'"{c}"' for c in CRATES)
        yield "Cargo.toml", f'[workspace]\nresolver = "2"\nmembers = [{members}]\n'
        for crate, (n_mods, _) in CRATES.items():
            yield f"{crate}/Cargo.toml", _manifest(crate)
            yield f"{crate}/src/lib.rs", "".join(f"pub mod m{m:02d};\n" for m in range(n_mods))
            for m in range(n_mods):
                yield f"{crate}/src/m{m:02d}.rs", text(crate, m)

    def key_for(d):
        return {
            "code": "E0425",
            "message": f"cannot find value `undef_{d.tok}` in this scope",
            "file": d.file,
        }

    return SyntheticCase(
        name="cargo-http",
        seed=seed,
        files=files,
        defects=defects,
        defect_texts={f"app/src/m{m:02d}.rs": text("app", m) for m in chosen},
        initial_keys=[key_for(d) for d in defects],
        expected=expectation(defects, key_for),
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    write_case(generate(int(sys.argv[1])), Path(sys.argv[2]))
