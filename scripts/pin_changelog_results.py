#!/usr/bin/env python3
"""Pin the changelog parser's exact results on seeded responses.

Generates a fixed, seeded set of P1-P4 responses and writes each one,
with what ``parse_response`` makes of it, to
``tests/data/changelog_results.jsonl``: the groups, or the rejection's
reason, detail and response line.  ``tests/test_changelog.py`` replays
the file, so a change to the parser that moves any accepted shape, any
detail or any line number fails there.

The responses are well-formed groups in each variant's shape (plain and
decorated keywords, optional prose before, between and after groups),
most of them mutated: stray headers, ``[N]`` lines, prose and blank
lines inserted anywhere, lines dropped, repeated or swapped, digits
changed, prefixes stripped, and text of one variant parsed as another.

Run it after a deliberate change to the wire format, and review the
diff of the data file:

Usage: python3 scripts/pin_changelog_results.py
       (no arguments; the same seed always writes the same file)
"""

import json
import random
import re
import sys
from dataclasses import asdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fixloop.changelog import parse_response  # noqa: E402
from fixloop.prompting import PromptVariant  # noqa: E402

OUT = REPO / "tests" / "data" / "changelog_results.jsonl"
SEED = 13
COUNT = 320
VARIANTS = (PromptVariant.P1, PromptVariant.P2, PromptVariant.P3, PromptVariant.P4)

CODE = ("let x = 1;", "    foo(bar);", "}", "fn main() {", "\tx += 2;", "return y  ", "// ChangeLog later", "a[3] = 0;")
PROSE = ("Here is the fix.", "The borrow ends too late, so the value is cloned.", "Done:", "  I changed two lines.  ")
STRAYS = (
    "FixedCode@1-2:",
    "OriginalCode@3-4:",
    "<@FixedCode@>@7-7:",
    "ChangeLog:one@src/main.rs",
    "<@ChangeLog@>:0@src/a.rs",
    "ChangeLog:3@",
    "ChangeLog:9@src/b.rs",
    "FixDescription: again",
    "OriginalCode@5-4:",
    "FixedCodes are below",
    "[3] stray",
    "[12]",
    "  [4]   indented stray",
    "",
    "   ",
) + PROSE


def keyword(rng: random.Random, name: str) -> str:
    return f"<@{name}@>" if rng.random() < 0.3 else name


def body(rng: random.Random, variant: PromptVariant, start: int, end: int) -> list:
    texts = [rng.choice(CODE) for _ in range(start, end + 1)]
    if variant >= PromptVariant.P2:
        return [f"[{n}] {t}" for n, t in zip(range(start, end + 1), texts)]
    return texts


def well_formed(rng: random.Random, variant: PromptVariant) -> list:
    """Groups in the variant's shape, with prose around them.  Each pair
    quotes consecutive lines; one in twenty starts its two sides apart."""
    lines = [rng.choice(PROSE), ""] if rng.random() < 0.4 else []
    for gid in range(1, rng.randint(1, 3) + 1):
        lines.append(f"{keyword(rng, 'ChangeLog')}:{gid}@src/{rng.choice('ab')}.rs")
        if variant >= PromptVariant.P4:
            lines.append(f"{keyword(rng, 'FixDescription')}: {rng.choice(PROSE)}")
            lines += [rng.choice(PROSE)] * rng.randint(0, 1)
        start = rng.randint(1, 20)
        for _ in range(rng.randint(1, 2)):
            end = start + rng.randint(0, 3)
            if variant >= PromptVariant.P3:
                lines.append(f"{keyword(rng, 'OriginalCode')}@{start}-{end}:")
                lines += body(rng, variant, start, end)
            fixed_start = start + (rng.random() < 0.05)
            fixed_end = fixed_start + rng.randint(-1, 3)
            lines.append(f"{keyword(rng, 'FixedCode')}@{fixed_start}-{max(fixed_start, fixed_end)}:")
            lines += body(rng, variant, fixed_start, fixed_end)
            lines += [""] * rng.randint(0, 1)
            start = end + rng.randint(1, 6)
        if rng.random() < 0.4:
            lines += ["", rng.choice(PROSE)]
    return lines


def mutate(rng: random.Random, lines: list) -> None:
    at = rng.randrange(len(lines) + 1)
    kind = rng.randrange(7)
    if kind <= 1 or not lines:
        lines.insert(at, rng.choice(STRAYS))
        return
    headers = [k for k, line in enumerate(lines) if "Code@" in line or "ChangeLog" in line]
    if kind >= 5 and headers:
        at = rng.choice(headers)  # aim at the structure, not the code it carries
    at = min(at, len(lines) - 1)
    if kind == 2:
        del lines[at]
    elif kind == 3:
        lines.insert(at, lines[at])
    elif kind == 4 and at + 1 < len(lines):
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    elif kind == 6:
        lines[at] = re.sub(r":\d+@", ":one@", lines[at])
    else:
        digits = [k for k, ch in enumerate(lines[at]) if ch.isdigit()]
        if digits:
            k = rng.choice(digits)
            lines[at] = lines[at][:k] + rng.choice("0123456789") + lines[at][k + 1 :]
        else:
            lines[at] = lines[at].partition("] ")[2]


def response(rng: random.Random) -> tuple:
    """One seeded (variant, text) pair."""
    variant = rng.choice(VARIANTS)
    lines = well_formed(rng, variant)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        mutate(rng, lines)
    if rng.random() < 0.15:
        variant = rng.choice(VARIANTS)  # the model answered in another rung's shape
    return variant, "\n".join(lines) + rng.choice(("", "\n"))


def pinned(result) -> object:
    """The parse result as JSON data: a list of groups or one error."""
    return [asdict(g) for g in result] if isinstance(result, list) else asdict(result)


def main() -> int:
    rng = random.Random(SEED)
    reasons: dict = {}
    with OUT.open("w", encoding="utf-8", newline="\n") as out:
        for _ in range(COUNT):
            variant, text = response(rng)
            result = pinned(parse_response(text, variant))
            key = "accepted" if isinstance(result, list) else result["reason"]
            reasons[key] = reasons.get(key, 0) + 1
            out.write(json.dumps({"variant": variant.name, "text": text, "result": result}) + "\n")
    print(f"{COUNT} responses -> {OUT.relative_to(REPO)}: {json.dumps(reasons, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
