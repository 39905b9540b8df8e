"""Desk-scale reproduction corpus.

A fixture is a self-contained case directory::

    <case>/
      case.json           name, expected outcome, category, overrides
      project/            the broken project tree (plus checker_rules.json
                          when the case uses the scripted checker profile)
      replay/             recorded completions + digest manifest
      expected/           full project tree after the run (for gave-up
                          cases this equals project/ — rollback is part of
                          what the fixture asserts)
      expected_report.json  structural expectations on the FixReport (optional)

Running a fixture never mutates the committed tree: the project is copied
to a scratch directory first.  ``verify_fixture`` replays the case and
compares outcome, final tree (byte-wise, both directions), and report
structure, returning a pass/fail with the list of differences.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .checker import CheckerProfile, SubprocessChecker, load_profile
from .errors import ConfigError
from .llm import Backend, ReplayBackend
from .orchestrator import FixReport, Orchestrator, RunConfig, RunLog
from .prompting import PromptVariant
from .workspace import Workspace

CASE_FILE = "case.json"

# case.json key -> (RunConfig field, conversion); a key the case leaves
# out keeps RunConfig's default.
_OVERRIDES = {
    "n": ("n_completions", int),
    "variant": ("variant", PromptVariant.parse),
    "grouping": ("grouping_enabled", bool),
    "window": ("window", int),
    "max_unique_errors": ("max_unique_errors", int),
}


@dataclass
class Fixture:
    case_dir: Path
    name: str
    expected: str  # "fixed" | "gave-up"
    category: str
    checker: str = "scripted"
    test_cmd: Optional[str] = None
    failure_class: Optional[str] = None  # expected, for gave-up cases
    overrides: Dict = field(default_factory=dict)  # the case's _OVERRIDES keys

    @property
    def project_dir(self) -> Path:
        return self.case_dir / "project"

    @property
    def replay_dir(self) -> Path:
        return self.case_dir / "replay"

    @property
    def expected_dir(self) -> Path:
        return self.case_dir / "expected"

    @property
    def expected_report_path(self) -> Path:
        return self.case_dir / "expected_report.json"


def load_fixture(case_dir: Path) -> Fixture:
    case_dir = Path(case_dir)
    manifest = case_dir / CASE_FILE
    if not manifest.is_file():
        raise ConfigError(f"{case_dir} is not a fixture case: no {CASE_FILE}")
    try:
        data = json.loads(manifest.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed {manifest}: {exc}") from exc
    fixture = Fixture(
        case_dir=case_dir,
        name=data.get("name", case_dir.name),
        expected=data.get("expected", "fixed"),
        category=data.get("category", "uncategorized"),
        checker=data.get("checker", "scripted"),
        test_cmd=data.get("test_cmd"),
        failure_class=data.get("failure_class"),
        overrides={k: data[k] for k in _OVERRIDES if k in data},
    )
    if fixture.expected not in ("fixed", "gave-up"):
        raise ConfigError(f"{manifest}: expected must be 'fixed' or 'gave-up'")
    if not fixture.project_dir.is_dir():
        raise ConfigError(f"{case_dir}: missing project/ directory")
    return fixture


def config_for(fixture: Fixture, profile: CheckerProfile) -> RunConfig:
    ov = fixture.overrides
    fields = {name: convert(ov[key]) for key, (name, convert) in _OVERRIDES.items() if key in ov}
    return RunConfig.for_profile(profile, test_command=fixture.test_cmd, **fields)


def run_fixture(
    fixture: Fixture,
    workdir: Optional[Path] = None,
    run_log: Optional[RunLog] = None,
    backend: Optional[Backend] = None,
) -> Tuple[FixReport, Path]:
    """Copy the project to a scratch dir and replay the recorded run.
    ``backend`` defaults to a digest-verified replay of the case's store.
    Returns the report and the scratch project root (left on disk for the
    caller to inspect or clean up)."""
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix=f"fixloop-{fixture.name}-"))
    root = Path(workdir) / "project"
    if root.exists():
        shutil.rmtree(root)
    shutil.copytree(fixture.project_dir, root)

    profile = load_profile(fixture.checker)
    ws = Workspace.load_project(root, profile.extensions)
    checker = SubprocessChecker(profile, root)
    if backend is None:
        backend = ReplayBackend(fixture.replay_dir)
    orchestrator = Orchestrator(ws, checker, backend, config_for(fixture, profile), run_log)
    report = orchestrator.fix_project()
    return report, root


def _tree_files(root: Path) -> Dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_trees(actual_root: Path, expected_root: Path) -> List[str]:
    """Byte-wise comparison in both directions; returns human-readable
    differences (empty when identical)."""
    actual = _tree_files(actual_root)
    expected = _tree_files(expected_root)
    problems = []
    for path in sorted(set(actual) | set(expected)):
        if path not in actual:
            problems.append(f"missing from result: {path}")
        elif path not in expected:
            problems.append(f"unexpected file in result: {path}")
        elif actual[path] != expected[path]:
            problems.append(f"content differs: {path}")
    return problems


def _subset_match(expected, actual, path: str, problems: List[str]) -> None:
    """Every key present in ``expected`` must match ``actual``; extra
    actual keys are fine (the expectation file pins only what it cares
    about)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"report{path}.{key}: missing")
            else:
                _subset_match(value, actual[key], f"{path}.{key}", problems)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(f"report{path}: expected {len(expected)} entries, got {len(actual)}")
            return
        for idx, (e, a) in enumerate(zip(expected, actual)):
            _subset_match(e, a, f"{path}[{idx}]", problems)
    else:
        if expected != actual:
            problems.append(f"report{path}: expected {expected!r}, got {actual!r}")


@dataclass
class FixtureResult:
    fixture: Fixture
    passed: bool
    problems: List[str]
    report: Optional[FixReport] = None


def verify_fixture(fixture: Fixture, run_log: Optional[RunLog] = None) -> FixtureResult:
    """Replay the fixture and check outcome, final tree, and report."""
    run_log = run_log or RunLog()
    with tempfile.TemporaryDirectory(prefix=f"fixloop-verify-{fixture.name}-") as tmp:
        report, root = run_fixture(fixture, Path(tmp), run_log=run_log)
        problems: List[str] = []

        actual_outcome = "fixed" if report.all_fixed else "gave-up"
        if actual_outcome != fixture.expected:
            problems.append(f"outcome: expected {fixture.expected}, got {actual_outcome}")
        if fixture.failure_class and report.failure_class() != fixture.failure_class:
            problems.append(
                f"failure class: expected {fixture.failure_class}, got {report.failure_class()}"
            )
        if fixture.expected_dir.is_dir():
            problems.extend(compare_trees(root, fixture.expected_dir))
        if fixture.expected_report_path.is_file():
            expected = json.loads(fixture.expected_report_path.read_text(encoding="utf-8"))
            _subset_match(expected, report.to_dict(), "", problems)
        return FixtureResult(fixture, not problems, problems, report)
