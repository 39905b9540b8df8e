"""Corpus runner: replay a directory of fixture cases and tabulate
fix rates per category.

A dataset directory is any directory whose immediate children (or the
directories listed in an optional ``dataset.json`` manifest) are fixture
cases.  Every case is replayed once per invocation; results are grouped
by the case's category and summarised as fixed/total with a percentage.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .errors import ConfigError
from .fixtures import CASE_FILE, Fixture, FixtureResult, load_fixture, verify_fixture

DATASET_FILE = "dataset.json"


@dataclass
class BenchmarkCase:
    fixture: Fixture
    matched: bool  # outcome (and tree/report pins) agreed with case.json
    fixed: bool  # the run itself ended with every initial error fixed
    failure_class: Optional[str]
    problems: List[str] = field(default_factory=list)


@dataclass
class CategoryStats:
    category: str
    total: int = 0
    fixed: int = 0

    @property
    def rate(self) -> float:
        return self.fixed / self.total if self.total else 0.0


@dataclass
class BenchmarkSummary:
    cases: List[BenchmarkCase]
    categories: Dict[str, CategoryStats]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def fixed(self) -> int:
        return sum(1 for c in self.cases if c.fixed)

    @property
    def mismatched(self) -> List[BenchmarkCase]:
        return [c for c in self.cases if not c.matched]

    @property
    def all_matched(self) -> bool:
        return all(c.matched for c in self.cases)


def discover_cases(dataset_dir: Path) -> List[Path]:
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / DATASET_FILE
    if manifest.is_file():
        try:
            data = json.loads(manifest.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed {manifest}: {exc}") from exc
        names = data.get("cases") if isinstance(data, dict) else None
        if not names or not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigError(f"{manifest}: expected an object whose 'cases' is a non-empty list of names")
        dirs = [dataset_dir / name for name in names]
        for d in dirs:
            if not (d / CASE_FILE).is_file():
                raise ConfigError(f"dataset lists {d.name} but {d / CASE_FILE} is missing")
        return dirs
    try:
        dirs = sorted(
            child for child in dataset_dir.iterdir() if (child / CASE_FILE).is_file()
        )
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {dataset_dir}: {exc.strerror}") from exc
    if not dirs:
        raise ConfigError(f"{dataset_dir}: no fixture cases found")
    return dirs


def run_bench(dataset_dir: Path, report_stream=None) -> BenchmarkSummary:
    cases: List[BenchmarkCase] = []
    for case_dir in discover_cases(dataset_dir):
        fixture = load_fixture(case_dir)
        result: FixtureResult = verify_fixture(fixture)
        report = result.report
        fixed = bool(report and report.all_fixed)
        cases.append(
            BenchmarkCase(
                fixture=fixture,
                matched=result.passed,
                fixed=fixed,
                failure_class=report.failure_class() if report else None,
                problems=result.problems,
            )
        )
        if report_stream is not None:
            mark = "ok" if result.passed else "MISMATCH"
            print(f"  {fixture.name}: {mark}", file=report_stream)
    return summarize(cases)


def summarize(cases: List[BenchmarkCase]) -> BenchmarkSummary:
    categories: Dict[str, CategoryStats] = {}
    for case in cases:
        stats = categories.setdefault(
            case.fixture.category, CategoryStats(case.fixture.category)
        )
        stats.total += 1
        if case.fixed:
            stats.fixed += 1
    return BenchmarkSummary(cases=cases, categories=categories)


def format_rate(fixed: int, total: int) -> str:
    """Percentage with two decimals: 199/270 renders as '73.70%'."""
    if total == 0:
        return "n/a"
    return f"{100.0 * fixed / total:.2f}%"


def render_summary(summary: BenchmarkSummary) -> str:
    lines = []
    name_width = max(
        [len(s.category) for s in summary.categories.values()] + [len("overall"), 8]
    )
    lines.append(f"{'category':<{name_width}}  {'fixed':>5}  {'total':>5}  rate")
    for category in sorted(summary.categories):
        stats = summary.categories[category]
        lines.append(
            f"{category:<{name_width}}  {stats.fixed:>5}  {stats.total:>5}  "
            f"{format_rate(stats.fixed, stats.total)}"
        )
    lines.append(
        f"{'overall':<{name_width}}  {summary.fixed:>5}  {summary.total:>5}  "
        f"{format_rate(summary.fixed, summary.total)}"
    )
    mismatched = summary.mismatched
    if mismatched:
        lines.append("")
        lines.append(f"{len(mismatched)} case(s) did not match their expectations:")
        for case in mismatched:
            lines.append(f"  {case.fixture.name}:")
            for problem in case.problems:
                lines.append(f"    - {problem}")
    return "\n".join(lines)


def render_csv(summary: BenchmarkSummary) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "category", "expected", "outcome", "matched", "failure_class"])
    for case in summary.cases:
        writer.writerow(
            [
                case.fixture.name,
                case.fixture.category,
                case.fixture.expected,
                "fixed" if case.fixed else "gave-up",
                "yes" if case.matched else "no",
                case.failure_class or "",
            ]
        )
    return buf.getvalue()
