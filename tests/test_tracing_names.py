"""The benchmark's tracer wraps fixloop's layer functions by name.

``perfbench/tracing.py`` replaces each layer boundary -- a function on the
module that imports it, or a method on its class -- with a wrapper, and
puts the original back afterwards.  Installing every wrapper here makes a
renamed or removed layer function fail this suite, not only a traced
benchmark run.  So does a check that no longer runs through
``SubprocessChecker.check``, the method the tracer counts checks on.
"""

import importlib.util
import shutil
from pathlib import Path

from fixloop import checker, fixtures, orchestrator, prompting
from fixloop.checker import SubprocessChecker, load_profile
from fixloop.llm import HttpBackend, ReplayBackend

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fixloop_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_wrapper_and_restores_the_originals():
    rec = _load_tracing().Recorder()
    originals = (orchestrator.Orchestrator.fix_project, ReplayBackend.complete, HttpBackend.complete)
    try:
        rec.install([ReplayBackend, HttpBackend], full=True)
        assert orchestrator.build_prompt is not prompting.build_prompt
        assert fixtures.shutil is not shutil
    finally:
        rec.uninstall()
    assert orchestrator.build_prompt is prompting.build_prompt
    assert fixtures.shutil is shutil
    assert (orchestrator.Orchestrator.fix_project, ReplayBackend.complete, HttpBackend.complete) == originals


def test_an_in_process_scripted_check_is_counted_as_the_benchmark_builds_it(monkeypatch):
    # perfbench/workloads.py's BigTree checks through SubprocessChecker(profile, root)
    def spawn(*args, **kwargs):
        raise AssertionError("a builtin scripted check started a child process")

    monkeypatch.setattr(checker, "_spawn", spawn)
    rec = _load_tracing().Recorder()
    try:
        rec.install([], full=False)
        root = REPO / "fixtures" / "micro" / "so-e0515" / "project"
        diags = SubprocessChecker(load_profile("scripted"), root).check()
    finally:
        rec.uninstall()
    assert diags
    assert rec.counts["checker.calls"] == 1
    assert rec.first_check == len(diags)
