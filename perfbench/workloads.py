"""The three workloads: set-up, one pass, and the reference check per case.

All three are closed loops: one case at a time, from this process.

* ``corpus``: the 13 shipped fixture cases, replayed through
  ``fixtures.run_fixture`` with digest-verified ``ReplayBackend``.
* ``bigtree``: one generated 600k-line scripted-checker project, fixed
  through the library entry (``Workspace.load_project`` + ``fix_project``)
  with n=3 and grouping against the in-process stand-in model.
* ``cargo-http``: one generated four-crate cargo workspace, fixed through
  ``cli.main fix --in-place --checker cargo --n 3 --endpoint URL`` against
  the loopback stand-in server, with ``target/`` warmed at set-up.

Each case is judged against a reference the program did not produce: the
fixture's ``case.json``, ``expected/`` and ``expected_report.json``, or the
generator's expected tree and per-key outcomes.  A case whose first check
returns no diagnostics although its reference pins at least one counts as
failed, so a checker that cannot run never reads as a fast clean case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import gen_bigtree
import gen_cargo
from standin import AnswerTable, LoopbackServer, StandInBackend
from synth import SyntheticCase, sync_tree, write_case

# The shipped corpus, pinned by name so that a fixture added later does not
# silently change what this workload measures.
CORPUS = (
    "micro/fail-build",
    "micro/fail-format",
    "micro/fail-test",
    "micro/generics-missing-args",
    "micro/lifetime-missing-annotation",
    "micro/ownership-use-after-move",
    "micro/so-e0515",
    "micro/syntax-missing-semicolon",
    "micro/traits-missing-bound",
    "micro/type-mismatched-assign",
    "lint-trio",
    "multi3",
    "ranking-n3",
)
GUARD_CASE = "micro/so-e0515"

SKIP_DIRS = {"target", "__pycache__"}


@dataclass
class CaseResult:
    name: str
    prepare_s: float  # putting the broken tree in place, outside the verdict
    verdict_s: float  # start of the fix to its report
    problems: List[str]
    initial_keys: int
    fixed_keys: int
    checker_calls: int
    completions: int
    iterations: int
    rewritten: int  # files whose st_mtime_ns changed during the case
    spurious: int  # ... although their final bytes equal their initial bytes

    @property
    def ok(self) -> bool:
        return not self.problems


def walk(root: Path) -> Iterator[Path]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            yield Path(dirpath) / name


def mtimes(root: Path) -> Dict[str, int]:
    return {p.relative_to(root).as_posix(): p.stat().st_mtime_ns for p in walk(root)}


class Tree:
    """A reference tree: its relative paths and a reader for each file's
    bytes, so big trees are compared file by file and never held whole."""

    def __init__(self, paths: Iterable[str], read: Callable[[str], bytes]):
        self.paths = set(paths)
        self.read = read

    @classmethod
    def on_disk(cls, root: Path) -> "Tree":
        return cls(mtimes(root), lambda rel: (root / rel).read_bytes())

    @classmethod
    def in_memory(cls, files: Dict[str, str]) -> "Tree":
        data = {p: t.encode("utf-8") for p, t in files.items()}
        return cls(data, data.__getitem__)

    def overlaid(self, files: Dict[str, str]) -> "Tree":
        data = {p: t.encode("utf-8") for p, t in files.items()}
        return Tree(self.paths | set(data), lambda rel: data[rel] if rel in data else self.read(rel))


def rewrites(before: Dict[str, int], root: Path, initial: Tree) -> Tuple[int, int]:
    """(files rewritten, files rewritten with unchanged bytes) since ``before``."""
    after = mtimes(root)
    touched = [p for p, mtime in after.items() if p in before and before[p] != mtime]
    spurious = [p for p in touched if (root / p).read_bytes() == initial.read(p)]
    return len(touched), len(spurious)


def tree_problems(root: Path, expected: Tree, ignore=()) -> List[str]:
    """Byte-wise comparison of ``root`` against ``expected``, both ways."""
    actual = {p.relative_to(root).as_posix(): p for p in walk(root)}
    problems = []
    for path in sorted((set(actual) | expected.paths) - set(ignore)):
        if path not in actual:
            problems.append(f"missing from result: {path}")
        elif path not in expected.paths:
            problems.append(f"unexpected file in result: {path}")
        elif actual[path].read_bytes() != expected.read(path):
            problems.append(f"content differs: {path}")
    return problems


def subset_problems(expected, actual, path: str = "report") -> List[str]:
    """Every key ``expected`` pins must match ``actual``; lists match by
    length and position."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += subset_problems(value, actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: expected {len(expected)} entries, got {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += subset_problems(e, a, f"{path}[{i}]")
        return out
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def outcome_counts(report) -> Tuple[int, int]:
    """(initial keys, keys fixed) as the report states them."""
    return report.initial_errors, sum(1 for o in report.outcomes if o.outcome == "fixed")


class Workload:
    """One workload: ``setup`` builds and validates its inputs, ``run_case``
    puts one case's broken tree in place and fixes it."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work / self.name
        self.seed = seed
        self.backends: List[type] = []

    def setup(self) -> None:
        raise NotImplementedError

    def cases(self) -> List[str]:
        raise NotImplementedError

    def run_case(self, rec, case: str) -> CaseResult:
        raise NotImplementedError

    def serve_s(self, rec) -> float:
        """Time the completion source has spent answering so far."""
        raise NotImplementedError

    def compare_layer(self, case: str) -> None:
        """Time ``fixtures.compare_trees`` on the case just run (traced only)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _timed_case(self, rec, case: str, before, root: Path, initial: Tree, fix: Callable[[], None]):
        """Run ``fix`` as the case's verdict window; returns the verdict
        time, the case's counters and its rewrite counts against the
        ``before`` mtimes and the ``initial`` tree."""
        calls0, comps0 = rec.counts["checker.calls"], rec.counts["llm.completions"]
        rec.begin_case(case)
        start = time.perf_counter()
        fix()
        verdict_s = time.perf_counter() - start
        counts = (rec.counts["checker.calls"] - calls0, rec.counts["llm.completions"] - comps0)
        return verdict_s, counts, rewrites(before, root, initial)

    @staticmethod
    def _result(rec, case, prepare_s, verdict_s, counts, rewritten, problems) -> CaseResult:
        report = rec.report
        if report is None:
            problems.append("no report")
            initial = fixed = iterations = 0
        else:
            initial, fixed = outcome_counts(report)
            iterations = report.inner_iterations
        return CaseResult(
            case, prepare_s, verdict_s, problems, initial, fixed, *counts, iterations, *rewritten
        )


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


class Corpus(Workload):
    name = "corpus"

    def setup(self) -> None:
        from fixloop.checker import load_profile, run_checker
        from fixloop.fixtures import load_fixture
        from fixloop.llm import ReplayBackend

        self.backends = [ReplayBackend]
        base = self.root / "fixtures"
        self.fixtures = {name: load_fixture(base / name) for name in CORPUS}
        guard = self.work / "guard"
        shutil.rmtree(guard, ignore_errors=True)
        shutil.copytree(base / GUARD_CASE / "project", guard)
        if not run_checker(load_profile("scripted"), guard):
            raise RuntimeError(
                f"the scripted checker reports nothing on the broken {GUARD_CASE} fixture"
            )

    def cases(self) -> List[str]:
        # The inputs are the shipped fixtures; the seed only orders them.
        return sorted(CORPUS, key=lambda c: hashlib.sha256(f"{self.seed}:{c}".encode()).digest())

    def run_case(self, rec, case: str) -> CaseResult:
        from fixloop import fixtures

        fixture = self.fixtures[case]
        workdir = self.work / "cases" / case.replace("/", "-")
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.last_root = workdir / "project"

        def fix():
            fixtures.run_fixture(fixture, workdir)

        # run_fixture copies the project inside the verdict window; the
        # copy keeps mtimes, so the fixture's files stand in for it before.
        initial = Tree.on_disk(fixture.project_dir)
        before = mtimes(fixture.project_dir)
        verdict_s, counts, rewritten = self._timed_case(rec, case, before, self.last_root, initial, fix)
        problems = self._judge(fixture, rec.report, rec.first_check)
        return self._result(rec, case, 0.0, verdict_s, counts, rewritten, problems)

    def _judge(self, fixture, report, first_check: Optional[int]) -> List[str]:
        pins = {}
        if fixture.expected_report_path.is_file():
            pins = json.loads(fixture.expected_report_path.read_text(encoding="utf-8"))
        problems = []
        if first_check == 0 and pins.get("initial_errors", 1) >= 1:
            problems.append("first check returned no diagnostics")
        if report is None:
            return problems
        initial, fixed = outcome_counts(report)
        outcome = "fixed" if fixed == initial else "gave-up"
        if outcome != fixture.expected:
            problems.append(f"outcome: expected {fixture.expected}, got {outcome}")
        if fixture.failure_class:
            got = next((o.failure_class for o in report.outcomes if o.outcome != "fixed"), None)
            if got != fixture.failure_class:
                problems.append(f"failure class: expected {fixture.failure_class}, got {got}")
        problems += tree_problems(self.last_root, Tree.on_disk(fixture.expected_dir))
        problems += subset_problems(pins, report.to_dict())
        return problems

    def compare_layer(self, case: str) -> None:
        from fixloop import fixtures

        fixtures.compare_trees(self.last_root, self.fixtures[case].expected_dir)

    def serve_s(self, rec) -> float:
        return sum(end - start for name, start, end, *_ in rec.spans if name == "llm.serve")


# ----------------------------------------------------------------------
# generated workloads
# ----------------------------------------------------------------------


class Synthetic(Workload):
    """A generated case, judged against the generator's reference."""

    generator = None

    def setup(self) -> None:
        self.case: SyntheticCase = self.generator.generate(self.seed)
        write_case(self.case, self.work)
        # serve and judge from what the generator wrote
        self.table = AnswerTable(json.loads((self.work / "answers.json").read_text(encoding="utf-8")))
        self.reference = json.loads((self.work / "reference.json").read_text(encoding="utf-8"))
        self.validate()

    def validate(self) -> None:
        raise NotImplementedError

    def cases(self) -> List[str]:
        return [self.name]

    def _check_tree(self, root: Path, profile) -> None:
        """The checker must report nothing on the reference tree and exactly
        the injected keys on the broken tree, which ``root`` is left at."""
        from fixloop.checker import run_checker

        def keys(diags):
            return [{"code": d.code, "message": d.message, "file": d.primary_span.file} for d in diags]

        sync_tree(root, self.case.overlay("clean").items())
        clean = run_checker(profile, root)
        if clean:
            raise RuntimeError(f"reference tree is not clean: {keys(clean)[:3]}")
        sync_tree(root, self.case.defect_texts.items())
        broken = keys(run_checker(profile, root))
        if broken != self.reference["initial_keys"]:
            raise RuntimeError(f"broken tree reports {broken}, expected {self.reference['initial_keys']}")

    def _judge(self, report, root: Path, first_check: Optional[int], expected: Tree, ignore=()) -> List[str]:
        problems = []
        if not first_check:
            problems.append(f"first check returned {first_check} diagnostics")
        if report is not None:
            got = [
                {
                    "code": o.key.code,
                    "message": o.key.message,
                    "file": o.key.file,
                    "outcome": o.outcome,
                    "failure_class": o.failure_class,
                }
                for o in report.outcomes
            ]
            problems += subset_problems(self.reference["outcomes"], got, "report.outcomes")
        if self.table.unattributed:
            problems.append(f"{self.table.unattributed} prompts the stand-in model could not attribute")
        problems += tree_problems(root, expected, ignore)
        return problems


class BigTree(Synthetic):
    name = "bigtree"
    generator = gen_bigtree

    def validate(self) -> None:
        from fixloop.checker import load_profile

        self.profile = load_profile("scripted")
        self.backend = StandInBackend(self.table)
        self.backends = [StandInBackend]
        self.broken = Tree.on_disk(self.work / "broken")
        self.expected = self.broken.overlaid(self.case.overlay("final"))
        check = self.work / "check"
        shutil.rmtree(check, ignore_errors=True)
        shutil.copytree(self.work / "broken", check)
        self._check_tree(check, self.profile)
        # the checked tree, at its expected final state, is what
        # fixtures.compare_trees is timed against
        sync_tree(check, self.case.overlay("final").items())
        self.expected_dir = check
        self.case_root = self.work / "case"

    def run_case(self, rec, case: str) -> CaseResult:
        from fixloop import Workspace, fix_project
        from fixloop.checker import SubprocessChecker
        from fixloop.orchestrator import RunConfig

        start = time.perf_counter()
        with rec.span("fixtures.copy"):
            shutil.rmtree(self.case_root, ignore_errors=True)
            shutil.copytree(self.work / "broken", self.case_root)
        prepare_s = time.perf_counter() - start
        profile = self.profile
        cfg = RunConfig(
            n_completions=3,
            grouping_enabled=True,
            checker_cmd=profile.display_command(),
            language=profile.language,
            extension=profile.extensions[0],
        )

        def fix():
            with rec.span("entry.case"):
                ws = Workspace.load_project(self.case_root, profile.extensions)
                fix_project(ws, SubprocessChecker(profile, self.case_root), self.backend, cfg)

        verdict_s, counts, rewritten = self._timed_case(rec, case, mtimes(self.case_root), self.case_root, self.broken, fix)
        problems = self._judge(rec.report, self.case_root, rec.first_check, self.expected)
        return self._result(rec, case, prepare_s, verdict_s, counts, rewritten, problems)

    def compare_layer(self, case: str) -> None:
        from fixloop import fixtures

        fixtures.compare_trees(self.case_root, self.expected_dir)

    def serve_s(self, rec) -> float:
        return self.backend.serve_s


class CargoHttp(Synthetic):
    name = "cargo-http"
    generator = gen_cargo
    server: Optional[LoopbackServer] = None

    def validate(self) -> None:
        from fixloop.checker import load_profile
        from fixloop.llm import HttpBackend

        self.backends = [HttpBackend]
        self.ws = self.work / "ws"
        self.broken_files = dict(self.case.files())
        self.broken = Tree.in_memory(self.broken_files)
        self.expected = self.broken.overlaid(self.case.overlay("final"))
        # resets touch only files whose bytes differ, so target/ stays warm
        sync_tree(self.ws, self.broken_files.items())
        self._check_tree(self.ws, load_profile("cargo"))

    def run_case(self, rec, case: str) -> CaseResult:
        from fixloop import cli

        if self.server is None:
            self.server = LoopbackServer(self.table).__enter__()
        start = time.perf_counter()
        with rec.span("fixtures.copy"):
            sync_tree(self.ws, self.broken_files.items())
        prepare_s = time.perf_counter() - start
        argv = ["fix", str(self.ws), "--in-place", "--checker", "cargo", "--n", "3"]
        argv += ["--endpoint", self.server.url]
        out = io.StringIO()
        status = {}

        def fix():
            with contextlib.redirect_stdout(out):
                status["code"] = cli.main(argv)

        verdict_s, counts, rewritten = self._timed_case(rec, case, mtimes(self.ws), self.ws, self.broken, fix)
        problems = self._judge(rec.report, self.ws, rec.first_check, self.expected, {"Cargo.lock"})
        want = 0 if self.reference["fixed"] == len(self.reference["outcomes"]) else 1
        if status["code"] != want:
            problems.append(f"exit status {status['code']}, expected {want}: {out.getvalue()[-300:]}")
        return self._result(rec, case, prepare_s, verdict_s, counts, rewritten, problems)

    def compare_layer(self, case: str) -> None:
        from fixloop import fixtures

        expected = self.work / "expected-tree"
        sync_tree(expected, ((p, self.expected.read(p).decode("utf-8")) for p in self.expected.paths))
        shutil.copy2(self.ws / "Cargo.lock", expected / "Cargo.lock")
        fixtures.compare_trees(self.ws, expected)

    def serve_s(self, rec) -> float:
        return self.server.serve_s if self.server else 0.0

    def close(self) -> None:
        if self.server is not None:
            self.server.__exit__(None, None, None)
            self.server = None


WORKLOADS = {w.name: w for w in (Corpus, BigTree, CargoHttp)}
