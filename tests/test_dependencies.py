"""fixloop runs on the standard library alone, a checker spawn loads only
the checker, and every child process spawns through the checker module.

The builtin scripted profiles check in process, but a JSON profile or a
test command that runs ``python -m fixloop.scripted_checker`` spawns it,
and it imports the package root first. So a runtime dependency costs its
import time on every such spawn, besides an install step, and so would a
root that imported every module: the root imports each public name's
module only when the name is first asked for.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# Modules loaded by the time the statement ran, in a fresh interpreter.
_PROBE = """{stmt}
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(stmt: str) -> set:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(stmt=stmt)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _third_party_after(stmt: str) -> set:
    """Top-level modules loaded by ``stmt`` that are neither built in nor
    part of the standard library."""
    names = {name.partition(".")[0] for name in _modules_after(stmt)}
    return names - set(sys.stdlib_module_names) - set(sys.builtin_module_names)


def test_import_loads_no_module_outside_the_stdlib():
    # site-packages .pth files may preload modules; those load either way
    bare = _third_party_after("pass")
    # cli imports every other module
    everything = "import fixloop.cli, fixloop.scripted_checker"
    assert _third_party_after(everything) == bare | {"fixloop"}


def test_scripted_checker_import_loads_no_other_fixloop_module():
    loaded = _modules_after("import fixloop.scripted_checker")
    assert {name for name in loaded if name.partition(".")[0] == "fixloop"} == {
        "fixloop",
        "fixloop.scripted_checker",
    }


def test_every_public_name_is_the_object_its_module_defines():
    stmt = """import importlib, fixloop
for module, names in fixloop._EXPORTS.items():
    mod = importlib.import_module("fixloop." + module)
    for name in names:
        obj = getattr(fixloop, name)
        assert obj is vars(mod)[name], name
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
exported = {name for names in fixloop._EXPORTS.values() for name in names}
assert sorted(fixloop.__all__) == sorted(exported | {"__version__"})
"""
    _modules_after(stmt)


def test_star_import_binds_every_public_name():
    stmt = """from fixloop import *
import fixloop
missing = [name for name in fixloop.__all__ if globals().get(name) is not getattr(fixloop, name)]
assert not missing, missing
"""
    _modules_after(stmt)


def test_unknown_attribute_raises_attribute_error():
    stmt = """import fixloop
try:
    fixloop.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("fixloop.no_such_name resolved")
from fixloop import scripted_checker  # the submodule fallback still works
"""
    _modules_after(stmt)


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []


def _imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def test_only_the_checker_imports_subprocess():
    # one spawn path: the check, explain and test commands share their
    # placeholder expansion, environment and working directory
    importers = {
        path.name
        for path in sorted((REPO / "src" / "fixloop").glob("*.py"))
        if "subprocess" in _imported_modules(path)
    }
    assert importers == {"checker.py"}
