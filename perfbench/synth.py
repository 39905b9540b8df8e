"""Seeded synthetic cases shared by the ``bigtree`` and ``cargo-http`` generators.

A synthetic case is a project tree in which a handful of clean source lines
have been replaced by broken ones.  Each broken line is one *defect*: it
lives in its own file, triggers exactly one error key, and comes with an
answer table entry that tells the stand-in model how to respond to prompts
about it.  Both generators use the same line dialect, which is valid Rust
and is also what the scripted checker's rules match:

    clean           let b = a ^ (a >> 7);
    broken (A)      let b = a ^ undef_<tok>;             E0425, the injected key
    persisting A1   let b = a ^ undef_<tok> ^ 1;         same key as A
    persisting A2   let b = a ^ undef_<tok> ^ 2;         same key as A
    new error N1    let b: u64 = "mm_<tok>1";            E0308, a new key
    new error N2    let b: u64 = "mm_<tok>2";            the same new key
    worse W         let b: u64 = "mm_<tok>w";            E0308 and E0425: removes
                    let _w: u64 = undef_<tok>w;          the seed, adds two

Every defect gets one answer behaviour.  The fix loop visits defects in file
order, and the attempt budget is the number of initial error keys, so where
the ``persists`` defect sits decides how many of the others are attempted at
all: a persisting seed closes its group as fixed and is reseeded until the
budget runs out.  A seed-chosen position would change the work done by
about a fifth between seeds, so the ``persists`` defect always comes fifth of
six: the seed orders the first four behaviours and draws the sixth, which the
persisting defect starves.
"""

from __future__ import annotations

import json
import random
import shutil
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

FIRST_TRY = "first-try"
NEW_ERROR_THEN_FIXED = "new-error-then-fixed"
RANKED_MIX = "ranked-mix"
NO_PROGRESS = "no-progress"
PERSISTS = "persists"
BEHAVIOURS = (FIRST_TRY, NEW_ERROR_THEN_FIXED, RANKED_MIX, NO_PROGRESS, PERSISTS)
FIXING = (FIRST_TRY, NEW_ERROR_THEN_FIXED, RANKED_MIX)

# Candidates the stand-in model returns per request; the workloads run n=3.
N_CANDIDATES = 3

INDENT = "    "


def clean_line(shift: int) -> str:
    return f"{INDENT}let b = a ^ (a >> {shift});"


def visit_order(rng: random.Random) -> List[str]:
    """Behaviours in the order the loop meets their defects."""
    head = [FIRST_TRY, NEW_ERROR_THEN_FIXED, RANKED_MIX, NO_PROGRESS]
    rng.shuffle(head)
    return head + [PERSISTS, rng.choice(BEHAVIOURS)]


def token(rng: random.Random, taken: set) -> str:
    while True:
        tok = "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(6))
        if tok not in taken:
            taken.add(tok)
            return tok


@dataclass
class Defect:
    file: str  # project-relative path
    line: int  # 1-indexed line of the broken statement
    behaviour: str
    tok: str
    clean: str  # the reference line
    position: int  # 1-based place in the loop's visit order

    @property
    def broken(self) -> str:
        return f"{INDENT}let b = a ^ undef_{self.tok};"

    def persisting(self, k: int) -> str:
        return f"{INDENT}let b = a ^ undef_{self.tok} ^ {k};"

    def mismatch(self, suffix: str) -> str:
        return f'{INDENT}let b: u64 = "mm_{self.tok}{suffix}";'

    def worse(self) -> List[str]:
        return [self.mismatch("w"), f"{INDENT}let _w: u64 = undef_{self.tok}w;"]

    def answers(self) -> Dict[str, List[Optional[List[str]]]]:
        """Current line text -> the candidates returned for it, in order.
        ``None`` is a malformed candidate."""
        a, fix = self.broken, [self.clean]
        n1, n2 = self.mismatch("1"), self.mismatch("2")
        a1, a2 = self.persisting(1), self.persisting(2)

        def same(lines):
            return [lines] * N_CANDIDATES

        if self.behaviour == FIRST_TRY:
            return {a: same(fix)}
        if self.behaviour == NEW_ERROR_THEN_FIXED:
            return {a: same([n1]), n1: same(fix)}
        if self.behaviour == RANKED_MIX:
            return {a: [None, self.worse(), fix]}
        if self.behaviour == NO_PROGRESS:
            return {a: same([n1]), n1: same([n2]), n2: same([n1])}
        if self.behaviour == PERSISTS:
            return {a: same([a1]), a1: same([a2]), a2: same([a1])}
        raise ValueError(f"unknown behaviour {self.behaviour}")


@dataclass
class Expectation:
    """What the loop must leave behind, derived from the visit order."""

    final_lines: Dict[str, str]  # file -> expected text of the defect line
    outcomes: List[dict]  # per initial key, in checker order
    fixed: int


def expectation(defects: List[Defect], key_for) -> Expectation:
    """Reference outcome of one fix run over ``defects``.

    Fixing behaviours end fixed on their clean line.  ``no-progress`` gives
    up after three applied iterations and is rolled back.  ``persists`` is
    attempted until the budget (one attempt per initial key) is spent,
    alternating A -> A1 -> A2, and every later defect is never attempted."""
    ordered = sorted(defects, key=lambda d: d.position)
    budget = len(ordered)
    attempts = 0
    final: Dict[str, str] = {}
    outcomes = []
    for d in ordered:
        key = key_for(d)
        if attempts >= budget:
            final[d.file] = d.broken
            outcomes.append({**key, "outcome": "gave-up", "failure_class": "build"})
            continue
        if d.behaviour in FIXING:
            attempts += 1
            final[d.file] = d.clean
            outcomes.append({**key, "outcome": "fixed", "failure_class": None})
        elif d.behaviour == NO_PROGRESS:
            attempts += 1
            final[d.file] = d.broken
            outcomes.append({**key, "outcome": "gave-up", "failure_class": "build"})
        else:
            reseeds = budget - attempts
            attempts = budget
            final[d.file] = d.persisting(1 if reseeds % 2 else 2)
            outcomes.append({**key, "outcome": "gave-up", "failure_class": "build"})
    fixed = sum(1 for o in outcomes if o["outcome"] == "fixed")
    return Expectation(final, outcomes, fixed)


@dataclass
class SyntheticCase:
    """A generated case: the broken tree plus everything needed to judge a
    run over it.  The reference (clean) tree and the expected final tree
    differ from the broken tree only in the defect files, so they are kept
    as overlays: file -> full text."""

    name: str
    seed: int
    files: Callable[[], Iterator[Tuple[str, str]]]  # broken tree, path order
    defects: List[Defect]
    defect_texts: Dict[str, str]  # broken text of each defect file
    initial_keys: List[dict]  # the injected error keys, in checker order
    expected: Expectation

    def overlay(self, which: str) -> Dict[str, str]:
        """Defect files with their reference (``clean``) or expected-final
        (``final``) line in place of the broken one."""
        out = {}
        for d in self.defects:
            lines = self.defect_texts[d.file].split("\n")
            if lines[d.line - 1] != d.broken:
                raise ValueError(f"{d.file}:{d.line} does not hold the broken line")
            lines[d.line - 1] = d.clean if which == "clean" else self.expected.final_lines[d.file]
            out[d.file] = "\n".join(lines)
        return out

    def answer_table(self) -> dict:
        return {
            "case": self.name,
            "seed": self.seed,
            "defects": [
                {
                    "file": d.file,
                    "line": d.line,
                    "behaviour": d.behaviour,
                    "position": d.position,
                    "answers": d.answers(),
                }
                for d in sorted(self.defects, key=lambda d: d.position)
            ],
        }

    def reference(self) -> dict:
        return {
            "initial_keys": self.initial_keys,
            "outcomes": self.expected.outcomes,
            "fixed": self.expected.fixed,
        }


def place_defects(rng: random.Random, candidates: List[Tuple[str, int, str]]) -> List[Defect]:
    """Turn six (file, line, clean text) sites, in path order, into defects
    with behaviours in visit order."""
    order = visit_order(rng)
    taken: set = set()
    return [
        Defect(file, line, behaviour, token(rng, taken), clean, pos)
        for pos, ((file, line, clean), behaviour) in enumerate(zip(candidates, order), 1)
    ]


def sync_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` only if its bytes differ.  Leaving equal files alone keeps their mtimes, so cargo's fingerprints
    for untouched crates stay fresh."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def sync_tree(root: Path, items: Iterable[Tuple[str, str]]) -> None:
    """Bring every listed file under ``root`` to the given text."""
    for rel, text in items:
        sync_file(root / rel, text)


def write_case(case: SyntheticCase, out: Path) -> None:
    """Write ``case`` under ``out``: ``broken/`` (the project), ``reference/``
    and ``expected/`` (the defect files as fixed, and as the loop must leave
    them), ``answers.json`` (the stand-in model's table) and
    ``reference.json`` (injected keys and per-key outcomes).  Only files
    whose bytes change are written."""
    sync_tree(out / "broken", case.files())
    for name, which in (("reference", "clean"), ("expected", "final")):
        shutil.rmtree(out / name, ignore_errors=True)
        sync_tree(out / name, case.overlay(which).items())
    sync_file(out / "answers.json", json.dumps(case.answer_table(), indent=2) + "\n")
    sync_file(out / "reference.json", json.dumps(case.reference(), indent=2) + "\n")
