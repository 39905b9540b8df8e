"""The committed fixture corpus must replay exactly, and the verifier
must catch every kind of drift it exists to catch."""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from conftest import FLAGGED, add_links_and_a_hidden_dir
from fixloop.cli import main
from fixloop.errors import ConfigError, ReplayError
from fixloop.fixtures import compare_trees, load_fixture, run_fixture, verify_fixture

REPO = Path(__file__).resolve().parents[1]
CASE_DIRS = sorted(p.parent for p in (REPO / "fixtures").rglob("case.json"))


def tree_bytes(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case_dir", CASE_DIRS, ids=lambda d: d.name)
def test_committed_case_replays_clean(case_dir):
    before = tree_bytes(case_dir)
    result = verify_fixture(load_fixture(case_dir))
    assert result.problems == []
    assert result.passed
    assert tree_bytes(case_dir) == before  # verification never mutates the case


def test_corpus_has_the_expected_cases():
    assert [d.name for d in CASE_DIRS] == [
        "lint-trio",
        "fail-build",
        "fail-format",
        "fail-test",
        "generics-missing-args",
        "lifetime-missing-annotation",
        "ownership-use-after-move",
        "so-e0515",
        "syntax-missing-semicolon",
        "traits-missing-bound",
        "type-mismatched-assign",
        "multi3",
        "ranking-n3",
    ]


# ----------------------------------------------------------------------
# drift detection (each on a scratch copy of a real case)
# ----------------------------------------------------------------------


@pytest.fixture()
def so_copy(tmp_path):
    dst = tmp_path / "so-e0515"
    shutil.copytree(REPO / "fixtures" / "micro" / "so-e0515", dst)
    return dst


def test_tampered_digest_manifest_raises_replay_error(so_copy, tmp_path):
    manifest_path = so_copy / "replay" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["0"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ReplayError, match="digest mismatch"):
        run_fixture(load_fixture(so_copy), workdir=tmp_path / "work")


def test_tampered_project_changes_prompts_and_raises(so_copy, tmp_path):
    # the error is still detected, but the prompt snippet differs
    src = so_copy / "project" / "src" / "example.rs"
    src.write_text("// tampered\n" + src.read_text())
    with pytest.raises(ReplayError, match="digest mismatch"):
        run_fixture(load_fixture(so_copy), workdir=tmp_path / "work")


def test_expected_tree_drift_is_reported(so_copy):
    victim = so_copy / "expected" / "src" / "example.rs"
    victim.write_text(victim.read_text() + "// drift\n")
    result = verify_fixture(load_fixture(so_copy))
    assert not result.passed
    assert "content differs: src/example.rs" in result.problems


def test_expected_report_pin_mismatch_is_reported(so_copy):
    pin_path = so_copy / "expected_report.json"
    pins = json.loads(pin_path.read_text())
    pins["inner_iterations"] = 99
    pin_path.write_text(json.dumps(pins))
    result = verify_fixture(load_fixture(so_copy))
    assert not result.passed
    assert "report.inner_iterations: expected 99, got 2" in result.problems


def test_failure_class_mismatch_is_reported(tmp_path):
    dst = tmp_path / "fail-format"
    shutil.copytree(REPO / "fixtures" / "micro" / "fail-format", dst)
    manifest = json.loads((dst / "case.json").read_text())
    manifest["failure_class"] = "build"
    (dst / "case.json").write_text(json.dumps(manifest))
    result = verify_fixture(load_fixture(dst))
    assert not result.passed
    assert any(p.startswith("failure class: expected build") for p in result.problems)


# ----------------------------------------------------------------------
# loader errors
# ----------------------------------------------------------------------


def test_load_fixture_requires_case_file(tmp_path):
    with pytest.raises(ConfigError, match="no case.json"):
        load_fixture(tmp_path)


def test_load_fixture_rejects_malformed_json(tmp_path):
    (tmp_path / "case.json").write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_fixture(tmp_path)


def test_load_fixture_rejects_unknown_outcome(tmp_path):
    (tmp_path / "case.json").write_text(json.dumps({"expected": "maybe"}))
    (tmp_path / "project").mkdir()
    with pytest.raises(ConfigError, match="'fixed' or 'gave-up'"):
        load_fixture(tmp_path)


def test_load_fixture_requires_project_dir(tmp_path):
    (tmp_path / "case.json").write_text(json.dumps({"expected": "fixed"}))
    with pytest.raises(ConfigError, match="missing project/"):
        load_fixture(tmp_path)


def test_load_fixture_reads_overrides(tmp_path):
    (tmp_path / "case.json").write_text(
        json.dumps({"expected": "fixed", "n": 3, "grouping": False, "window": 10})
    )
    (tmp_path / "project").mkdir()
    fixture = load_fixture(tmp_path)
    assert fixture.overrides == {"n": 3, "grouping": False, "window": 10}
    assert fixture.name == tmp_path.name  # defaults to the directory name


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", "three"),
        ("n", 6),
        ("n", True),
        ("window", -1),
        ("max_unique_errors", 0),
        ("grouping", "false"),
        ("variant", "P9"),
        ("variant", 4),
    ],
)
def test_case_override_of_the_wrong_type_or_out_of_range_exits_three(so_copy, capsys, key, value):
    manifest = so_copy / "case.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
    assert main(["bench", str(so_copy.parent)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fixloop: ") and f"{key} {value!r}" in line


@pytest.mark.parametrize(
    "key, value",
    [
        (None, []),
        ("checker", 5),
        ("test_cmd", 5),
        ("category", ["x"]),
        ("name", 5),
        ("expected", None),
        ("failure_class", {"class": "build"}),
    ],
)
def test_case_json_of_the_wrong_shape_exits_three(so_copy, capsys, key, value):
    manifest = so_copy / "case.json"
    data = value if key is None else {**json.loads(manifest.read_text()), key: value}
    manifest.write_text(json.dumps(data))
    assert main(["bench", str(so_copy.parent)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fixloop: ") and (f"{key} {value!r}" if key else "a JSON object") in line


def test_optional_case_json_strings_may_be_null(so_copy):
    manifest = so_copy / "case.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "test_cmd": None, "failure_class": None}))
    fixture = load_fixture(so_copy)
    assert (fixture.test_cmd, fixture.failure_class) == (None, None)


# ----------------------------------------------------------------------
# case projects with links
# ----------------------------------------------------------------------


def test_bench_over_a_case_with_links_and_a_hidden_dir_matches(so_copy, tmp_path, capsys, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    for tree in ("project", "expected"):
        other = add_links_and_a_hidden_dir(so_copy / tree)
    assert main(["bench", str(so_copy.parent)]) == 0
    captured = capsys.readouterr()
    assert "so-e0515: ok" in captured.out and captured.err == ""
    assert list(temp.iterdir()) == []
    assert (other / "lib.rs").read_text() == FLAGGED


def test_bench_over_a_case_that_cannot_be_copied_exits_three(so_copy, capsys):
    os.mkfifo(so_copy / "project" / "src" / "pipe.rs")
    assert main(["bench", str(so_copy.parent)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"fixloop: cannot read project {so_copy / 'project'}")


def test_bench_over_a_case_with_an_unreadable_file_exits_three(so_copy, capsys, unreadable_sources):
    assert main(["bench", str(so_copy.parent)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fixloop: cannot read project") and "Permission denied" in line


# ----------------------------------------------------------------------
# tree comparison
# ----------------------------------------------------------------------


def test_compare_trees_reports_both_directions(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    (a / "sub").mkdir(parents=True)
    b.mkdir()
    (a / "same.txt").write_text("x")
    (b / "same.txt").write_text("x")
    (a / "sub" / "only-in-a.txt").write_text("a")
    (b / "only-in-b.txt").write_text("b")
    (a / "differs.txt").write_text("one")
    (b / "differs.txt").write_text("two")
    assert compare_trees(a, b) == [
        "content differs: differs.txt",
        "missing from result: only-in-b.txt",
        "unexpected file in result: sub/only-in-a.txt",
    ]


def test_compare_trees_identical(tmp_path):
    a = tmp_path / "a"
    a.mkdir()
    (a / "f.txt").write_bytes(b"bytes\r\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert compare_trees(a, b) == []
