"""End-to-end command-line behaviour, driven through ``main(argv)``."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from fixloop import __version__
from fixloop.checker import load_profile, run_checker
from fixloop.cli import _insert_default_command, _make_backend, build_parser, main
from fixloop.errors import ConfigError
from fixloop.fixtures import compare_trees
from fixloop.llm import HttpBackend, ReplayBackend

REPO = Path(__file__).resolve().parents[1]
SO_CASE = REPO / "fixtures" / "micro" / "so-e0515"
FAIL_FORMAT_CASE = REPO / "fixtures" / "micro" / "fail-format"


@pytest.fixture()
def so_project(tmp_path):
    """A throwaway copy of the so-e0515 broken project."""
    dst = tmp_path / "project"
    shutil.copytree(SO_CASE / "project", dst)
    return dst


def scratch_root_from(stdout: str) -> Path:
    m = re.search(r"working copy left at (.+)$", stdout, re.MULTILINE)
    assert m, f"no scratch path in output:\n{stdout}"
    return Path(m.group(1))


# ----------------------------------------------------------------------
# argv plumbing
# ----------------------------------------------------------------------


def test_bare_path_defaults_to_fix_subcommand():
    assert _insert_default_command(["./proj", "--n", "2"]) == ["fix", "./proj", "--n", "2"]
    assert _insert_default_command(["fix", "./proj"]) == ["fix", "./proj"]
    assert _insert_default_command(["bench", "ds"]) == ["bench", "ds"]
    assert _insert_default_command(["record", "p"]) == ["record", "p"]
    assert _insert_default_command(["--version"]) == ["--version"]
    assert _insert_default_command(["-h"]) == ["-h"]
    assert _insert_default_command([]) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"fixloop {__version__}"


def test_missing_path_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["fix"])
    assert exc.value.code == 2


def test_n_out_of_range_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fix", str(tmp_path), "--n", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--window", "-3"), ("--max-unique-errors", "0"), ("--max-unique-errors", "-1"), ("--n", "0"), ("--n", "two")],
)
def test_out_of_range_integer_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["fix", str(tmp_path), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_integer_flags_accept_their_bounds(tmp_path):
    args = build_parser().parse_args(["fix", str(tmp_path), "--window", "0", "--max-unique-errors", "1", "--n", "5"])
    assert (args.window, args.max_unique_errors, args.n) == (0, 1, 5)


# ----------------------------------------------------------------------
# fix
# ----------------------------------------------------------------------


def test_fix_scratch_mode_leaves_original_untouched(so_project, capsys):
    before = {p: p.read_bytes() for p in so_project.rglob("*") if p.is_file()}
    code = main(
        [str(so_project), "--checker", "scripted", "--replay", str(SO_CASE / "replay")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "initial errors: 1" in out
    assert "E0515 in src/example.rs: fixed (2 iterations)" in out
    assert "fixed 1 of 1" in out
    # original tree is byte-identical; the fix landed in the scratch copy
    assert {p: p.read_bytes() for p in so_project.rglob("*") if p.is_file()} == before
    scratch = scratch_root_from(out)
    assert compare_trees(scratch, SO_CASE / "expected") == []
    shutil.rmtree(scratch.parent)


def test_fix_in_place_edits_the_tree(so_project, capsys):
    code = main(
        [
            str(so_project),
            "--checker",
            "scripted",
            "--replay",
            str(SO_CASE / "replay"),
            "--in-place",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "working copy left at" not in out
    assert compare_trees(so_project, SO_CASE / "expected") == []


def test_fix_emit_patch_discards_scratch_and_writes_diffs(so_project, tmp_path, capsys):
    patches = tmp_path / "patches"
    code = main(
        [
            str(so_project),
            "--checker",
            "scripted",
            "--replay",
            str(SO_CASE / "replay"),
            "--emit-patch",
            str(patches),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"patches written to {patches}" in out
    assert "working copy left at" not in out
    written = sorted(patches.glob("*.patch"))
    assert written, "no patch files were written"
    assert "--- a/src/example.rs" in written[0].read_text()


def test_fix_log_file_records_the_run(so_project, tmp_path, capsys):
    log_file = tmp_path / "run.jsonl"
    code = main(
        [
            str(so_project),
            "--checker",
            "scripted",
            "--replay",
            str(SO_CASE / "replay"),
            "--log",
            str(log_file),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    events = [json.loads(ln) for ln in log_file.read_text().splitlines()]
    assert events[0]["event"] == "run_start"
    assert events[-1]["event"] == "run_end"
    assert events[-1]["report"]["fixed"] == 1
    shutil.rmtree(scratch_root_from(out).parent)


def test_fix_gave_up_exits_one(tmp_path, capsys):
    proj = tmp_path / "project"
    shutil.copytree(FAIL_FORMAT_CASE / "project", proj)
    code = main(
        [str(proj), "--checker", "scripted", "--replay", str(FAIL_FORMAT_CASE / "replay")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "gave up (format)" in out
    assert "fixed 0 of 1" in out
    shutil.rmtree(scratch_root_from(out).parent)


def test_fix_nonexistent_path_is_a_config_error(tmp_path, capsys):
    code = main(["fix", str(tmp_path / "nope"), "--replay", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("fixloop:")


def test_fix_unknown_checker_profile_is_a_config_error(so_project, capsys):
    code = main([str(so_project), "--checker", "no-such-profile", "--replay", str(SO_CASE)])
    assert code == 3
    assert "no-such-profile" in capsys.readouterr().err


def test_checker_that_cannot_start_is_a_config_error(so_project, tmp_path, capsys):
    not_executable = tmp_path / "checker.sh"
    not_executable.write_text("#!/bin/sh\n")
    not_executable.chmod(0o644)
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"command": [str(not_executable)]}))
    with pytest.raises(ConfigError, match="checker cannot start"):
        run_checker(load_profile(str(profile_path)), so_project)
    argv = [str(so_project), "--in-place", "--checker", str(profile_path), "--replay", str(SO_CASE)]
    assert main(argv) == 3
    assert "checker cannot start" in capsys.readouterr().err


def test_fix_without_backend_is_a_config_error(so_project, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FIXLOOP_ENDPOINT", raising=False)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code = main([str(so_project), "--checker", "scripted"])
    assert code == 3
    assert "no completion backend configured" in capsys.readouterr().err
    assert list(temp.glob("fixloop-*")) == []  # the failed run removed its scratch copy


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------


def test_record_requires_record_dir(so_project):
    with pytest.raises(SystemExit) as exc:
        main(["record", str(so_project), "--replay", str(SO_CASE / "replay")])
    assert exc.value.code == 2


def test_record_tees_into_a_usable_store(so_project, tmp_path, capsys):
    store = tmp_path / "captured"
    code = main(
        [
            "record",
            str(so_project),
            "--checker",
            "scripted",
            "--replay",
            str(SO_CASE / "replay"),
            "--record-dir",
            str(store),
        ]
    )
    first_out = capsys.readouterr().out
    assert code == 0
    manifest = json.loads((store / "manifest.json").read_text())
    assert sorted(manifest) == ["0", "1"]
    assert (store / "0_0.txt").is_file()

    # the captured store must satisfy a replay of the same project
    proj2 = tmp_path / "project2"
    shutil.copytree(SO_CASE / "project", proj2)
    code = main([str(proj2), "--checker", "scripted", "--replay", str(store)])
    second_out = capsys.readouterr().out
    assert code == 0
    shutil.rmtree(scratch_root_from(first_out).parent)
    shutil.rmtree(scratch_root_from(second_out).parent)


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


@pytest.fixture()
def small_dataset(tmp_path):
    ds = tmp_path / "dataset"
    ds.mkdir()
    shutil.copytree(SO_CASE, ds / "so-e0515")
    shutil.copytree(FAIL_FORMAT_CASE, ds / "fail-format")
    return ds


def test_bench_table_reports_rates_per_category(small_dataset, capsys):
    code = main(["bench", str(small_dataset)])
    out = capsys.readouterr().out
    assert code == 0  # both cases match their expectations
    assert "  so-e0515: ok" in out
    assert "  fail-format: ok" in out
    assert re.search(r"stackoverflow\s+1\s+1\s+100\.00%", out)
    assert re.search(r"format-failure\s+0\s+1\s+0\.00%", out)
    assert re.search(r"overall\s+1\s+2\s+50\.00%", out)


def test_bench_csv_suppresses_progress(small_dataset, capsys):
    code = main(["bench", str(small_dataset), "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case,category,expected,outcome,matched,failure_class"
    assert "fail-format,format-failure,gave-up,gave-up,yes,format" in lines
    assert "so-e0515,stackoverflow,fixed,fixed,yes," in lines
    assert ": ok" not in out


def test_bench_mismatch_exits_one_and_lists_problems(small_dataset, capsys):
    victim = small_dataset / "so-e0515" / "expected" / "src" / "example.rs"
    victim.write_text(victim.read_text() + "// drift\n")
    code = main(["bench", str(small_dataset)])
    out = capsys.readouterr().out
    assert code == 1
    assert "so-e0515: MISMATCH" in out
    assert "did not match their expectations" in out
    assert "content differs: src/example.rs" in out


def test_bench_with_a_crashing_checker_exits_three_not_fixed(small_dataset, capsys):
    # the scripted checker cannot read its rules: it exits 1 with a traceback
    (small_dataset / "so-e0515" / "project" / "checker_rules.json").unlink()
    assert main(["bench", str(small_dataset)]) == 3
    out, err = capsys.readouterr()
    assert "checker exited 1 without a diagnostic" in err
    assert "FileNotFoundError" in err
    assert "100.00%" not in out


def test_bench_empty_dataset_is_a_config_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 3
    assert "no fixture cases found" in capsys.readouterr().err


def test_bench_manifest_listing_missing_case_is_a_config_error(small_dataset, capsys):
    (small_dataset / "dataset.json").write_text(json.dumps({"cases": ["ghost"]}))
    assert main(["bench", str(small_dataset)]) == 3
    assert "ghost" in capsys.readouterr().err


# a test command that splits into no words, and one with an open quote
UNUSABLE_TEST_COMMANDS = [(" ", "has no words"), ('"x', "No closing quotation")]


@pytest.mark.parametrize("command, problem", UNUSABLE_TEST_COMMANDS)
def test_unusable_test_command_fails_before_the_first_check(so_project, tmp_path, capsys, command, problem):
    before = {p: p.read_bytes() for p in so_project.rglob("*") if p.is_file()}
    log = tmp_path / "run.jsonl"
    argv = [str(so_project), "--in-place", "--checker", "scripted", "--replay", str(SO_CASE / "replay")]
    code = main(argv + ["--test-cmd", command, "--log", str(log)])
    (line,) = capsys.readouterr().err.splitlines()
    assert code == 3
    assert line.startswith("fixloop: ") and problem in line
    assert {p: p.read_bytes() for p in so_project.rglob("*") if p.is_file()} == before
    assert [json.loads(r)["event"] for r in log.read_text().splitlines()] == ["run_start", "run_abort"]


@pytest.mark.parametrize("command, problem", UNUSABLE_TEST_COMMANDS)
def test_unusable_case_test_command_is_a_config_error(small_dataset, capsys, command, problem):
    manifest = small_dataset / "so-e0515" / "case.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "test_cmd": command}))
    assert main(["bench", str(small_dataset)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fixloop: ") and problem in line


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


def parse_fix(argv):
    return build_parser().parse_args(["fix"] + argv)


def test_backend_replay_flag_wins(tmp_path):
    args = parse_fix(["p", "--replay", str(tmp_path / "store")])
    assert isinstance(_make_backend(args), ReplayBackend)


def test_backend_endpoint_flag(monkeypatch):
    monkeypatch.delenv("FIXLOOP_ENDPOINT", raising=False)
    args = parse_fix(["p", "--endpoint", "http://localhost:1234/v1/chat"])
    backend = _make_backend(args)
    assert isinstance(backend, HttpBackend)
    assert backend.endpoint == "http://localhost:1234/v1/chat"


def test_backend_endpoint_from_environment(monkeypatch):
    monkeypatch.setenv("FIXLOOP_ENDPOINT", "http://env-host/v1")
    backend = _make_backend(parse_fix(["p"]))
    assert isinstance(backend, HttpBackend)
    assert backend.endpoint == "http://env-host/v1"


def test_backend_unconfigured_raises(monkeypatch):
    monkeypatch.delenv("FIXLOOP_ENDPOINT", raising=False)
    with pytest.raises(ConfigError, match="no completion backend"):
        _make_backend(parse_fix(["p"]))


# ----------------------------------------------------------------------
# signals
# ----------------------------------------------------------------------

def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["bench", str(tmp_path / "missing")]) == 3
    assert signal.getsignal(signal.SIGTERM) is before


# Run at start-up by every interpreter on the test's PYTHONPATH; in a
# scripted check it counts the call and blocks the second one.
_BLOCKING_SITECUSTOMIZE = """\
import sys, time
from pathlib import Path
if "fixloop.scripted_checker" in sys.orig_argv:
    calls = Path({calls!r})
    n = int(calls.read_text()) + 1 if calls.exists() else 1
    calls.write_text(str(n))
    if n == 2:  # the first probe: its candidate is on disk now
        Path({marker!r}).write_text("probing")
        time.sleep(120)
"""


@pytest.mark.parametrize(
    "signum, exit_code, message, error",
    [
        (signal.SIGTERM, 143, "fixloop: terminated", "Terminated"),
        (signal.SIGINT, 130, "fixloop: interrupted", "KeyboardInterrupt"),
    ],
)
def test_signal_mid_probe_rolls_back_in_place_run_and_exits_cleanly(
    so_project, tmp_path, signum, exit_code, message, error
):
    marker = tmp_path / "probing"
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        _BLOCKING_SITECUSTOMIZE.format(calls=str(tmp_path / "calls"), marker=str(marker))
    )
    log_path = tmp_path / "run.jsonl"
    # the builtin scripted profile checks in process; a JSON profile with its command spawns
    spawned = tmp_path / "spawned.json"
    spawned.write_text(json.dumps({"command": list(load_profile("scripted").command)}))
    argv = [str(so_project), "--in-place", "--checker", str(spawned), "--replay", str(SO_CASE / "replay")]
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from fixloop.cli import main; sys.exit(main())", *argv, "--log", str(log_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(site)])},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert marker.exists(), proc.communicate(timeout=10)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == exit_code
    assert err.strip() == message
    assert compare_trees(so_project, SO_CASE / "project") == []
    last = json.loads(log_path.read_text().splitlines()[-1])
    assert (last["event"], last["error"], last["rolled_back"]) == ("run_abort", error, "group")


def test_python_dash_m_fixloop_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "fixloop", "--help"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fixloop" in proc.stdout


def test_python_test_command_runs_under_a_relative_pythonpath(tmp_path):
    # The README's no-install PYTHONPATH=src is relative to the repository
    # root; the test command runs from the project root, like the checker.
    case = REPO / "fixtures" / "micro" / "syntax-missing-semicolon"
    project = tmp_path / "project"
    shutil.copytree(case / "project", project)
    proc = subprocess.run(
        [
            sys.executable, "-m", "fixloop", "fix", str(project), "--in-place",
            "--checker", "scripted", "--replay", str(case / "replay"),
            "--test-cmd", "{python} -m fixloop.scripted_checker {root}/checker_rules.json",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "test command: passed" in proc.stdout
    assert compare_trees(project, case / "expected") == []
