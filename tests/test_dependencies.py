"""fixloop runs on the standard library alone.

Every scripted-checker spawn imports the package, so a runtime dependency
costs its import time on every check, besides an install step."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# Top-level modules loaded by the time the statement ran that are neither
# built in nor part of the standard library.
_PROBE = """{stmt}
import json, sys
names = {{name.partition(".")[0] for name in sys.modules}}
names -= set(sys.stdlib_module_names) | set(sys.builtin_module_names)
print(json.dumps(sorted(names)))
"""


def _third_party_after(stmt: str) -> set:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(stmt=stmt)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return set(json.loads(proc.stdout))


def test_import_loads_no_module_outside_the_stdlib():
    # site-packages .pth files may preload modules; those load either way
    bare = _third_party_after("pass")
    assert _third_party_after("import fixloop") == bare | {"fixloop"}


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []
