"""Dataset discovery and result tabulation."""

import json
from pathlib import Path

import pytest

from fixloop.bench import (
    BenchmarkCase,
    discover_cases,
    format_rate,
    render_csv,
    render_summary,
    summarize,
)
from fixloop.errors import ConfigError
from fixloop.fixtures import Fixture


def case(name, category, *, fixed=True, matched=True, failure_class=None, problems=()):
    fixture = Fixture(
        case_dir=Path(name),
        name=name,
        expected="fixed" if fixed else "gave-up",
        category=category,
    )
    return BenchmarkCase(
        fixture=fixture,
        matched=matched,
        fixed=fixed,
        failure_class=failure_class,
        problems=list(problems),
    )


# ----------------------------------------------------------------------
# discovery
# ----------------------------------------------------------------------


def make_case_dir(root, name):
    d = root / name
    (d / "project").mkdir(parents=True)
    (d / "case.json").write_text(json.dumps({"name": name}))
    return d


def test_discover_sorts_children_and_skips_non_cases(tmp_path):
    make_case_dir(tmp_path, "zeta")
    make_case_dir(tmp_path, "alpha")
    (tmp_path / "stray-dir").mkdir()
    (tmp_path / "stray-file.txt").write_text("not a case")
    found = discover_cases(tmp_path)
    assert [d.name for d in found] == ["alpha", "zeta"]


def test_discover_empty_directory_raises(tmp_path):
    with pytest.raises(ConfigError, match="no fixture cases found"):
        discover_cases(tmp_path)
    with pytest.raises(ConfigError, match="cannot read dataset"):
        discover_cases(tmp_path / "missing")


def test_discover_manifest_preserves_listed_order(tmp_path):
    make_case_dir(tmp_path, "zeta")
    make_case_dir(tmp_path, "alpha")
    (tmp_path / "dataset.json").write_text(json.dumps({"cases": ["zeta", "alpha"]}))
    assert [d.name for d in discover_cases(tmp_path)] == ["zeta", "alpha"]


def test_discover_manifest_with_missing_case_raises(tmp_path):
    make_case_dir(tmp_path, "real")
    (tmp_path / "dataset.json").write_text(json.dumps({"cases": ["real", "ghost"]}))
    with pytest.raises(ConfigError, match="ghost"):
        discover_cases(tmp_path)
    (tmp_path / "dataset.json").write_text('{"cases": ["real",')
    with pytest.raises(ConfigError, match="malformed"):
        discover_cases(tmp_path)
    for shape in (["real"], {}, {"cases": []}, {"cases": "real"}, {"cases": ["real", 1]}):
        (tmp_path / "dataset.json").write_text(json.dumps(shape))
        with pytest.raises(ConfigError, match="non-empty list of names"):
            discover_cases(tmp_path)


# ----------------------------------------------------------------------
# tabulation
# ----------------------------------------------------------------------


def test_format_rate_two_decimals():
    assert format_rate(199, 270) == "73.70%"
    assert format_rate(1, 1) == "100.00%"
    assert format_rate(1, 3) == "33.33%"
    assert format_rate(0, 5) == "0.00%"
    assert format_rate(0, 0) == "n/a"


def test_summarize_groups_by_category():
    summary = summarize(
        [
            case("a", "syntax"),
            case("b", "syntax", fixed=False, failure_class="build"),
            case("c", "types"),
        ]
    )
    assert summary.total == 3 and summary.fixed == 2
    assert summary.categories["syntax"].total == 2
    assert summary.categories["syntax"].fixed == 1
    assert summary.categories["syntax"].rate == 0.5
    assert summary.categories["types"].rate == 1.0
    assert summary.all_matched


def test_render_summary_reports_the_overall_rate():
    cases = [case(f"c{i}", "bulk", fixed=i < 199) for i in range(270)]
    text = render_summary(summarize(cases))
    lines = text.splitlines()
    assert lines[0].split() == ["category", "fixed", "total", "rate"]
    assert lines[-1].split() == ["overall", "199", "270", "73.70%"]


def test_render_summary_sorts_categories_and_aligns_columns():
    summary = summarize(
        [case("a", "zeta"), case("b", "alpha", fixed=False), case("c", "alpha")]
    )
    lines = render_summary(summary).splitlines()
    assert [ln.split()[0] for ln in lines] == ["category", "alpha", "zeta", "overall"]
    # the rate column starts at one aligned offset on every row
    assert len({ln.rfind(ln.split()[-1]) for ln in lines}) == 1


def test_render_summary_lists_mismatches():
    bad = case(
        "broken",
        "syntax",
        fixed=False,
        matched=False,
        problems=["outcome: expected fixed, got gave-up", "content differs: src/a.rs"],
    )
    text = render_summary(summarize([case("good", "syntax"), bad]))
    assert "1 case(s) did not match their expectations:" in text
    assert "  broken:" in text
    assert "    - content differs: src/a.rs" in text


def test_render_summary_without_mismatches_omits_the_section():
    text = render_summary(summarize([case("good", "syntax")]))
    assert "did not match" not in text


def test_render_csv_one_row_per_case():
    summary = summarize(
        [
            case("ok-case", "syntax"),
            case("sad-case", "types", fixed=False, matched=False, failure_class="test"),
        ]
    )
    lines = render_csv(summary).splitlines()
    assert lines[0] == "case,category,expected,outcome,matched,failure_class"
    assert lines[1] == "ok-case,syntax,fixed,fixed,yes,"
    assert lines[2] == "sad-case,types,gave-up,gave-up,no,test"
