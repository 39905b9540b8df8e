"""Checker profiles, subprocess runs, and the scripted stand-in checker."""

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

from fixloop import checker as checker_module
from fixloop.checker import (
    BUILTIN_PROFILES,
    CheckerProfile,
    SubprocessChecker,
    load_profile,
    run_checker,
)
from fixloop.errors import CheckerError, ConfigError

from conftest import write_tree


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------


def test_builtin_profiles_cover_compilers_and_linters():
    assert set(BUILTIN_PROFILES) == {"cargo", "clippy", "scripted", "scripted-lint"}
    cargo = BUILTIN_PROFILES["cargo"]
    assert cargo.command == ("cargo", "check")
    assert cargo.structured_flag == "--message-format=json"
    assert cargo.fix_levels == frozenset({"error"})

    clippy = BUILTIN_PROFILES["clippy"]
    assert clippy.fix_levels == frozenset({"error", "warning"})
    assert "{code}" in clippy.explain_command

    lint = BUILTIN_PROFILES["scripted-lint"]
    assert lint.fix_levels == frozenset({"error", "warning"})
    assert "--explain" in lint.explain_command


def test_display_command_keeps_placeholders_unexpanded():
    shown = BUILTIN_PROFILES["scripted"].display_command()
    assert shown == "{python} -m fixloop.scripted_checker {root}/checker_rules.json"
    assert sys.executable not in shown


def test_load_profile_builtin_and_unknown():
    assert load_profile("cargo") is BUILTIN_PROFILES["cargo"]
    with pytest.raises(ConfigError, match="unknown checker profile"):
        load_profile("no-such-profile")


def test_load_profile_from_json_file(tmp_path):
    spec = tmp_path / "pylint.json"
    spec.write_text(
        json.dumps(
            {
                "command": ["pylint", "--output-format=json", "."],
                "structured_flag": None,
                "fix_levels": ["error", "warning"],
                "language": "Python",
                "extensions": [".py"],
                "lint_code_allowlist": ["W01", "C"],
                "timeout_s": 30,
            }
        )
    )
    p = load_profile(str(spec))
    assert p.name == "pylint"
    assert p.command == ("pylint", "--output-format=json", ".")
    assert p.structured_flag is None
    assert p.language == "Python"
    assert p.extensions == (".py",)
    assert p.lint_code_allowlist == ("W01", "C")
    assert p.timeout_s == 30.0
    assert p.fix_levels == frozenset({"error", "warning"})


def test_load_profile_bad_json_and_missing_command(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError, match="cannot read checker profile"):
        load_profile(str(broken))

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ConfigError, match="malformed checker profile"):
        load_profile(str(incomplete))


@pytest.mark.parametrize(
    "field, value",
    [
        ("command", "cargo check"),
        ("explain_command", "cargo clippy --explain {code}"),
        ("fix_levels", "error"),
        ("extensions", ".rs"),
        ("lint_code_allowlist", "clippy::"),
        ("env_allowlist", "PATH"),
    ],
)
def test_load_profile_rejects_a_string_where_a_list_belongs(tmp_path, field, value):
    # a string would be split into characters: "error" -> {'e', 'r', 'o'}
    for bad in (value, [value, 3]):
        spec = tmp_path / "profile.json"
        spec.write_text(json.dumps({"command": ["cargo", "check"], field: bad}))
        with pytest.raises(ConfigError, match=f"malformed checker profile .*: {field} must be a"):
            load_profile(str(spec))


@pytest.mark.parametrize("field, value", [("structured_flag", ["--json"]), ("language", 5), ("name", ["x"])])
def test_load_profile_rejects_a_non_string_where_a_string_belongs(tmp_path, field, value):
    # a list flag ended the run in an AttributeError, a number language in a TypeError
    spec = tmp_path / "profile.json"
    spec.write_text(json.dumps({"command": ["cargo", "check"], field: value}))
    with pytest.raises(ConfigError, match=f"malformed checker profile .*: {field} must be a string"):
        load_profile(str(spec))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"command": []}, "command must be a non-empty list of strings"),
        (["cargo", "check"], "malformed checker profile"),  # not a JSON object
    ],
)
def test_load_profile_rejects_a_profile_without_a_command(tmp_path, data, message):
    spec = tmp_path / "profile.json"
    spec.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=message):
        load_profile(str(spec))


# ----------------------------------------------------------------------
# running a checker subprocess
# ----------------------------------------------------------------------


RULES = {
    "extensions": [".rs"],
    "rules": [
        {
            "code": "E0308",
            "level": "error",
            "message": "mismatched types",
            "pattern": r"let n: u32 = \"",
            "label": "expected `u32`",
        },
        {
            "code": "clippy::needless_return",
            "level": "warning",
            "message": "unneeded `return` statement",
            "pattern": r"return 4;",
            "explain": "A `return` at the end of a function body is implicit in Rust.",
        },
        {
            "code": "dead_code",
            "level": "warning",
            "message": "function is never used",
            "pattern": r"fn unused",
        },
    ],
}


def scripted_project(tmp_path, rules=RULES):
    root = tmp_path / "proj"
    write_tree(
        root,
        {
            "checker_rules.json": json.dumps(rules),
            "src/main.rs": 'fn main() { let n: u32 = "x"; }\nfn unused() {}\nfn f() -> i32 { return 4; }\n',
        },
    )
    return root


def test_scripted_checker_end_to_end(tmp_path):
    root = scripted_project(tmp_path)
    profile = BUILTIN_PROFILES["scripted"]
    diags = run_checker(profile, root)
    assert [d.code for d in diags] == ["E0308"]  # errors only on this profile
    d = diags[0]
    assert d.message == "mismatched types"
    assert d.primary_span.file == "src/main.rs"
    assert d.primary_span.line_start == 1
    assert d.primary_span.label == "expected `u32`"
    assert d.rendered.startswith("error[E0308]: mismatched types")


def test_lint_profile_includes_warnings(tmp_path):
    root = scripted_project(tmp_path)
    diags = run_checker(BUILTIN_PROFILES["scripted-lint"], root)
    assert [d.code for d in diags] == ["E0308", "dead_code", "clippy::needless_return"]


def test_lint_code_allowlist_filters_warnings_not_errors(tmp_path):
    root = scripted_project(tmp_path)
    base = BUILTIN_PROFILES["scripted-lint"]
    profile = CheckerProfile(
        name=base.name,
        command=base.command,
        structured_flag=None,
        explain_command=base.explain_command,
        fix_levels=base.fix_levels,
        lint_code_allowlist=("clippy::",),
    )
    diags = run_checker(profile, root)
    assert [d.code for d in diags] == ["E0308", "clippy::needless_return"]


def test_checker_rerun_reflects_file_edits(tmp_path):
    root = scripted_project(tmp_path)
    profile = BUILTIN_PROFILES["scripted"]
    assert len(run_checker(profile, root)) == 1
    main = root / "src" / "main.rs"
    main.write_text(main.read_text().replace('let n: u32 = "x"', "let n: u32 = 1"))
    assert run_checker(profile, root) == []


def test_missing_checker_binary_is_a_config_error(tmp_path):
    profile = CheckerProfile(name="ghost", command=("definitely-not-a-binary-7f3a",), structured_flag=None)
    with pytest.raises(ConfigError, match="checker binary not found"):
        run_checker(profile, tmp_path)


def test_checker_timeout_is_a_config_error(tmp_path):
    profile = CheckerProfile(
        name="sleepy", command=("sleep", "5"), structured_flag=None, timeout_s=0.2
    )
    with pytest.raises(ConfigError, match="timed out"):
        run_checker(profile, tmp_path)


def test_env_allowlist_restricts_subprocess_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FIXLOOP_SECRET", "leaky")
    monkeypatch.setenv("FIXLOOP_KEEP", "kept")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json, os\n"
        "print(json.dumps({'message': os.environ.get('FIXLOOP_SECRET', '') + '|' +"
        " os.environ.get('FIXLOOP_KEEP', ''),"
        " 'level': 'error',"
        " 'spans': [{'file_name': 'x.rs', 'line_start': 1, 'is_primary': True}],"
        " 'rendered': 'e'}))\n"
    )
    profile = CheckerProfile(
        name="probe",
        command=("{python}", str(probe)),
        structured_flag=None,
        env_allowlist=("FIXLOOP_KEEP",),
    )
    (d,) = run_checker(profile, tmp_path)
    assert d.message == "|kept"


def test_crashing_checker_is_an_error_not_a_clean_tree(tmp_path):
    profile = CheckerProfile(
        name="crash",
        command=(
            "{python}",
            "-c",
            "import sys; sys.stderr.write('rules file is corrupt\\n'); sys.exit(2)",
        ),
        structured_flag=None,
    )
    with pytest.raises(CheckerError, match="rules file is corrupt") as info:
        run_checker(profile, tmp_path)
    assert info.value.returncode == 2
    assert info.value.stderr_tail == "rules file is corrupt"
    assert isinstance(info.value, ConfigError)  # the CLI maps it to exit 3


def test_nonzero_exit_with_records_is_a_verdict_even_if_none_is_a_target(tmp_path):
    # records are counted before the level filter: a warning-only run of a
    # compiler profile that exits 1 reads as no errors, not as a crash
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json, sys\n"
        "print(json.dumps({'message': 'unused', 'level': 'warning',"
        " 'spans': [{'file_name': 'x.rs', 'line_start': 1, 'is_primary': True}],"
        " 'rendered': 'w'}))\n"
        "sys.exit(1)\n"
    )
    profile = CheckerProfile(name="probe", command=("{python}", str(probe)), structured_flag=None)
    assert run_checker(profile, tmp_path) == []


def test_python_profiles_import_the_package_from_any_cwd(tmp_path, monkeypatch):
    # the no-install test command's relative PYTHONPATH=src does not resolve from the
    # project root, where the checker runs
    monkeypatch.setenv("PYTHONPATH", "src")
    monkeypatch.chdir(tmp_path)
    root = scripted_project(tmp_path)
    assert "E0308" in [d.code for d in run_checker(BUILTIN_PROFILES["scripted"], root)]
    checker = SubprocessChecker(BUILTIN_PROFILES["scripted-lint"], root)
    ret = next(d for d in checker.check() if d.code == "clippy::needless_return")
    assert checker.explain(ret).source == "explain-command"


@pytest.mark.parametrize("name", ["scripted", "scripted-lint"])
def test_scripted_profiles_check_and_explain_without_a_child(tmp_path, monkeypatch, name):
    rules = json.loads(json.dumps(RULES))
    rules["rules"][1]["explain"] = "\n  " + rules["rules"][1]["explain"] + "  \n"  # the command's stdout is stripped
    root = scripted_project(tmp_path, rules)
    builtin = BUILTIN_PROFILES[name]
    spawned = SubprocessChecker(dataclasses.replace(builtin, rules=None), root)
    expected = spawned.check()
    explanations = [spawned.explain(d) for d in expected]

    def no_child(*args, **kwargs):
        raise AssertionError(f"spawned {args[0]}")

    monkeypatch.setattr(checker_module, "_spawn", no_child)
    in_process = SubprocessChecker(builtin, root)
    assert in_process.check() == expected
    assert [in_process.explain(d) for d in expected] == explanations
    if name == "scripted-lint":
        assert {e.source for e in explanations} == {"rendered", "explain-command"}


def test_json_profile_with_the_builtin_command_spawns(tmp_path, monkeypatch):
    # the no-install test command's relative PYTHONPATH=src does not resolve from the
    # project root, where the checker runs
    monkeypatch.setenv("PYTHONPATH", "src")
    monkeypatch.chdir(tmp_path)
    root = scripted_project(tmp_path)
    lint = BUILTIN_PROFILES["scripted-lint"]
    spec = tmp_path / "spawned.json"
    spec.write_text(
        json.dumps(
            {
                "command": list(lint.command),
                "explain_command": list(lint.explain_command),
                "fix_levels": ["error", "warning"],
            }
        )
    )
    spawns = []
    spawn = checker_module._spawn
    monkeypatch.setattr(checker_module, "_spawn", lambda *args, **kw: spawns.append(args[0]) or spawn(*args, **kw))
    checker = SubprocessChecker(load_profile(str(spec)), root)
    ret = next(d for d in checker.check() if d.code == "clippy::needless_return")
    assert checker.explain(ret).text == "A `return` at the end of a function body is implicit in Rust."
    assert spawns == [lint.command, lint.explain_command]


@pytest.mark.parametrize(
    "rules, problem",
    [
        ("{not json", "JSONDecodeError"),
        ("[]", "AttributeError"),
        (json.dumps({"rules": [{"message": "m", "pattern": "(unclosed"}]}), "missing ), unterminated subpattern"),
        (json.dumps({"rules": [{"message": "m"}]}), "KeyError: 'pattern'"),
    ],
)
def test_unusable_rules_raise_checker_error(tmp_path, rules, problem):
    root = scripted_project(tmp_path)
    (root / "checker_rules.json").write_text(rules)
    with pytest.raises(CheckerError, match="checker exited 1 without a diagnostic") as info:
        run_checker(BUILTIN_PROFILES["scripted"], root)
    assert info.value.returncode == 1
    assert problem in info.value.stderr_tail


# ----------------------------------------------------------------------
# explanations
# ----------------------------------------------------------------------


def test_explain_compiler_mode_returns_rendered_text(tmp_path):
    root = scripted_project(tmp_path)
    checker = SubprocessChecker(BUILTIN_PROFILES["scripted"], root)
    (d,) = checker.check()
    exp = checker.explain(d)
    assert exp.source == "rendered"
    assert exp.text == d.rendered


def test_explain_lint_mode_shells_out_and_caches(tmp_path):
    root = scripted_project(tmp_path)
    checker = SubprocessChecker(BUILTIN_PROFILES["scripted-lint"], root)
    diags = checker.check()
    ret = next(d for d in diags if d.code == "clippy::needless_return")
    exp = checker.explain(ret)
    assert exp.source == "explain-command"
    assert exp.text == "A `return` at the end of a function body is implicit in Rust."
    assert checker.explain(ret) is exp  # cached object, no second subprocess


def test_explain_falls_back_to_rendered_when_subcommand_fails(tmp_path):
    root = scripted_project(tmp_path)
    checker = SubprocessChecker(BUILTIN_PROFILES["scripted-lint"], root)
    diags = checker.check()
    dead = next(d for d in diags if d.code == "dead_code")  # rule has no explain text
    exp = checker.explain(dead)
    assert exp.source == "rendered"
    assert exp.text == dead.rendered


def test_explain_codeless_diagnostic_never_shells_out(tmp_path):
    root = scripted_project(tmp_path)
    checker = SubprocessChecker(BUILTIN_PROFILES["scripted-lint"], root)
    (d,) = [x for x in checker.check() if x.code == "E0308"]
    codeless = type(d)(None, d.message, d.primary_span, d.related_spans, d.rendered, d.level)
    assert checker.explain(codeless).source == "rendered"


# ----------------------------------------------------------------------
# the scripted checker module itself
# ----------------------------------------------------------------------


# The project root is the child's cwd, where a relative PYTHONPATH does
# not resolve: give it the absolute src/ an install would.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_scripted_checker_exit_codes(tmp_path):
    import subprocess

    root = scripted_project(tmp_path)
    argv = [sys.executable, "-m", "fixloop.scripted_checker", str(root / "checker_rules.json")]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 1  # errors present
    records = [json.loads(ln) for ln in proc.stdout.splitlines()]
    assert {r["level"] for r in records} == {"error", "warning"}

    (root / "src" / "main.rs").write_text("fn main() {}\n")
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_scripted_checker_explain_exit_codes(tmp_path):
    import subprocess

    root = scripted_project(tmp_path)
    base = [sys.executable, "-m", "fixloop.scripted_checker", str(root / "checker_rules.json")]
    hit = subprocess.run(
        base + ["--explain", "clippy::needless_return"],
        cwd=root,
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert hit.returncode == 0
    assert "implicit in Rust" in hit.stdout
    miss = subprocess.run(
        base + ["--explain", "E9999"], cwd=root, capture_output=True, text=True, env=SRC_ENV
    )
    assert miss.returncode == 1


def test_scripted_checker_requires_and_forbids(tmp_path):
    rules = {
        "rules": [
            {
                "code": "E1",
                "message": "needs companion",
                "pattern": "alpha",
                "requires": "beta",
            },
            {
                "code": "E2",
                "message": "suppressed by gamma",
                "pattern": "alpha",
                "forbids": "gamma",
            },
        ]
    }
    root = tmp_path / "proj"
    write_tree(root, {"checker_rules.json": json.dumps(rules), "a.rs": "alpha\ngamma\n"})
    profile = BUILTIN_PROFILES["scripted"]
    # beta absent -> E1 silent; gamma present -> E2 silent
    assert run_checker(profile, root) == []
    (root / "a.rs").write_text("alpha\nbeta\n")
    assert [d.code for d in run_checker(profile, root)] == ["E1", "E2"]


def test_scripted_checker_related_spans_surface_as_children(tmp_path):
    rules = {
        "rules": [
            {
                "code": "E0382",
                "message": "borrow of moved value",
                "pattern": "borrow_here",
                "related": [{"pattern": "moved_here", "label": "value moved here"}],
            }
        ]
    }
    root = tmp_path / "proj"
    write_tree(
        root,
        {
            "checker_rules.json": json.dumps(rules),
            "a.rs": "moved_here\nborrow_here\n",
        },
    )
    (d,) = run_checker(BUILTIN_PROFILES["scripted"], root)
    assert d.primary_span.line_start == 2
    (rel,) = d.related_spans
    assert (rel.file, rel.line_start, rel.label) == ("a.rs", 1, "value moved here")
