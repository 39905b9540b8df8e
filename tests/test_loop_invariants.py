"""Invariants of the fix loop over small random projects, in both modes.

Each example writes one to three files the completions may name, plus
``z.rs``, which none names, and scripts the backend with completions drawn
from line edits (a fix, a no-op, or an edit that adds an error, depending
on the tokens drawn and on the tree the completion meets), stale plans and
malformed text.  The backend runs out after the drawn responses.  The run
is in process, so an example costs milliseconds."""

import os
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from fixloop.orchestrator import OUTCOME_GAVE_UP, Orchestrator, RunConfig, RunLog
from fixloop.workspace import Workspace

from conftest import LineRule, PatternChecker, SequenceBackend, fix_text, write_tree

TOKENS = ["ok", "x1", "x2", "x3"]  # a line holding x<i> has error E<i>
RULES = [LineRule(f"E{i}", f"error {i}", f"x{i}") for i in (1, 2, 3)]
NAMED = ["a.rs", "b.rs", "c.rs"]
UNNAMED = "z.rs"
OLD_MTIME_NS = 10**18  # 2001-09-09: older than any write the run makes

class TreeRecordingChecker(PatternChecker):
    """Records the texts each check sees."""

    def __init__(self, root, rules):
        super().__init__(root, rules)
        self.trees = []

    def check(self, ws=None):
        self.trees.append(frozenset(ws.texts().items()))
        return super().check(ws)


_lines = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3)


@st.composite
def _completion(draw, files):
    kind = draw(st.sampled_from(["edit", "edit", "stale", "malformed"]))
    if kind == "malformed":
        return "I would rather not."
    name = draw(st.sampled_from(sorted(files)))
    line = draw(st.integers(1, len(files[name])))
    if kind == "stale":
        return fix_text(name, line, ["never in any file"], ["ok"])
    # the line as first written, so that the edit often applies, or any token
    old = draw(st.sampled_from([files[name][line - 1]] + TOKENS))
    return fix_text(name, line, [old], [draw(st.sampled_from(TOKENS))])


@st.composite
def _case(draw):
    named = {name: draw(_lines) for name in NAMED[: draw(st.integers(1, 3))]}
    n = draw(st.integers(1, 3))
    responses = draw(st.lists(st.lists(_completion(named), min_size=n, max_size=n), max_size=8))
    return {**named, UNNAMED: draw(_lines)}, n, responses


@settings(max_examples=200, deadline=None)
@given(case=_case(), grouping=st.booleans(), limit=st.integers(1, 4))
def test_every_run_keeps_the_loop_invariants(case, grouping, limit):
    files, n, responses = case
    with tempfile.TemporaryDirectory() as tmp:
        root = write_tree(Path(tmp), {name: "\n".join(lines) + "\n" for name, lines in files.items()})
        os.utime(root / UNNAMED, ns=(OLD_MTIME_NS, OLD_MTIME_NS))
        unnamed = (root / UNNAMED).read_bytes()
        ws = Workspace.load_project(root)
        checker = TreeRecordingChecker(root, RULES)
        log = RunLog()
        cfg = RunConfig(n_completions=n, max_unique_errors=limit, grouping_enabled=grouping)
        report = Orchestrator(ws, checker, SequenceBackend(responses), cfg, log).fix_project()

        assert {p: (root / p).read_bytes() for p in ws.paths()} == {p: ws.content(p).encode() for p in ws.paths()}
        assert (root / UNNAMED).read_bytes() == unnamed
        assert (root / UNNAMED).stat().st_mtime_ns == OLD_MTIME_NS

    iterations = log.of("iteration")
    assert log.records[-1]["event"] == "run_end"
    assert log.records[-1]["checker_calls"] == 1 + sum(it["probes_checked"] for it in iterations) == checker.checks
    assert len(set(checker.trees)) == len(checker.trees)  # no tree is checked twice
    assert report.fixed + report.gave_up == report.initial_errors
    assert all(o.failure_class for o in report.outcomes if o.outcome == OUTCOME_GAVE_UP)
    assert len(iterations) == report.inner_iterations <= max(1, report.initial_errors) * limit
