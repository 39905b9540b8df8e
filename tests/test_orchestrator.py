"""The fix loop: grouping, ranking, give-up heuristics, rollback, report."""

import contextlib
import errno
import io
import json
import math
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from fixloop import orchestrator
from fixloop.checker import SubprocessChecker, load_profile
from fixloop.errors import CheckerError, ConfigError, ReplayError
from fixloop.llm import Completion, CompletionRequest, ReplayBackend
from fixloop.orchestrator import (
    FAIL_BUILD,
    FAIL_FORMAT,
    FAIL_TEST,
    GIVEUP_BACKEND,
    GIVEUP_BLOWUP,
    GIVEUP_ITERATION_LIMIT,
    GIVEUP_NO_PROGRESS,
    FixReport,
    KeyOutcome,
    Orchestrator,
    RunConfig,
    RunLog,
    fix_project,
)
from fixloop.prompting import PromptVariant

from conftest import FuncChecker, LineRule, PatternChecker, SequenceBackend, fix_text, make_diag, make_ws


def run(ws, rules, responses, **cfg_kwargs):
    checker = PatternChecker(ws.root, rules)
    backend = SequenceBackend(responses)
    log = RunLog()
    cfg = RunConfig(**cfg_kwargs)
    report = Orchestrator(ws, checker, backend, cfg, log).fix_project()
    return report, log, checker, backend


# ----------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------


def test_one_error_fixed_in_one_iteration(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "let x = bad;\nlet y = 1;\n"})
    rules = [LineRule("E1", "bad initializer", "bad")]
    responses = [[fix_text("a.rs", 1, ["let x = bad;"], ["let x = 0;"])]]
    report, log, checker, _ = run(ws, rules, responses)

    assert (report.initial_errors, report.fixed, report.gave_up) == (1, 1, 0)
    assert report.all_fixed
    assert report.inner_iterations == 1
    assert report.iterations_histogram == {1: 1}
    assert report.outcomes[0].outcome == "fixed"
    assert report.outcomes[0].failure_class is None
    assert (ws.root / "a.rs").read_text() == "let x = 0;\nlet y = 1;\n"
    assert [r["event"] for r in log.records] == [
        "run_start",
        "group_start",
        "iteration",
        "group_end",
        "run_end",
    ]
    (end,) = log.of("group_end")
    assert end["outcome"] == "fixed" and end["seed_present"] is False


def test_new_error_introduced_by_fix_joins_the_group(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "alpha\nok\n"})
    rules = [LineRule("E1", "alpha problem", "alpha"), LineRule("E2", "beta problem", "beta")]
    responses = [
        [fix_text("a.rs", 1, ["alpha"], ["beta"])],  # fixes E1, introduces E2
        [fix_text("a.rs", 1, ["beta"], ["done"])],
    ]
    report, log, _, _ = run(ws, rules, responses)

    assert report.all_fixed and report.initial_errors == 1
    assert report.inner_iterations == 2
    (end,) = log.of("group_end")
    assert end["outcome"] == "fixed" and end["iterations"] == 2
    first, second = log.of("iteration")
    assert first["group_keys_after"] == ["E2@a.rs"]
    assert second["target"]["code"] == "E2"
    assert (ws.root / "a.rs").read_text() == "done\nok\n"


def test_ranking_picks_completion_with_fewest_residual_errors(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "alpha\nbeta\ngamma\n"})
    rules = [
        LineRule("E1", "m1", "alpha"),
        LineRule("E2", "m2", "beta"),
        LineRule("E3", "m3", "gamma"),
    ]
    responses = [
        [
            fix_text("a.rs", 1, ["alpha"], ["alpha still here"]),    # residual 3
            fix_text("a.rs", 1, ["alpha", "beta"], ["one", "two"]),  # residual 1
            fix_text("a.rs", 1, ["alpha"], ["one"]),                 # residual 2
        ],
        [fix_text("a.rs", 3, ["gamma"], ["three"]), "junk", "junk"],
    ]
    report, log, _, backend = run(ws, rules, responses, n_completions=3)

    assert report.all_fixed and report.initial_errors == 3
    assert report.completions_consumed == 6
    assert report.inner_iterations == 2
    first, second = log.of("iteration")
    assert first["completion_scores"] == [3, 1, 2]
    assert first["chosen_index"] == 1
    assert second["completion_scores"] == [0, None, None]  # rejected -> None
    assert second["chosen_index"] == 0
    assert (ws.root / "a.rs").read_text() == "one\ntwo\nthree\n"
    assert all(req.n == 3 for req in backend.requests)


def test_ranking_tie_breaks_to_lowest_index(tmp_path):
    # both candidates leave E2 alone, so they tie at residual 1
    ws = make_ws(tmp_path, {"a.rs": "bad\nother\n"})
    rules = [LineRule("E1", "m", "bad"), LineRule("E2", "m2", "other")]
    responses = [
        [
            fix_text("a.rs", 1, ["bad"], ["good one"]),
            fix_text("a.rs", 1, ["bad"], ["good two"]),
        ],
        [fix_text("a.rs", 2, ["other"], ["fine"])],
    ]
    report, log, _, _ = run(ws, rules, responses, n_completions=2)
    assert report.all_fixed
    assert log.of("iteration")[0]["completion_scores"] == [1, 1]
    assert log.of("iteration")[0]["chosen_index"] == 0
    assert (ws.root / "a.rs").read_text() == "good one\nfine\n"


def test_ranking_stops_after_a_probe_that_leaves_no_errors(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    responses = [
        [
            fix_text("a.rs", 1, ["bad"], ["bad still"]),
            fix_text("a.rs", 1, ["bad"], ["good one"]),
            fix_text("a.rs", 1, ["bad"], ["good two"]),
        ]
    ]
    report, log, checker, _ = run(ws, rules, responses, n_completions=3)
    assert report.all_fixed
    (it,) = log.of("iteration")
    assert it["completion_scores"] == [1, 0, None]  # the third is never probed
    assert it["chosen_index"] == 1 and it["probes_checked"] == 2
    assert checker.checks == 3  # the run-entry check and two probes
    assert (ws.root / "a.rs").read_text() == "good one\n"


# ----------------------------------------------------------------------
# ranking probes each distinct edit plan once
# ----------------------------------------------------------------------


@pytest.mark.parametrize("grouping", [True, False])
def test_identical_completions_are_checked_once_per_iteration(tmp_path, grouping):
    ws = make_ws(tmp_path, {"a.rs": "bad\n", "b.rs": "other\n"})
    rules = [LineRule("E1", "m1", "bad"), LineRule("E2", "m2", "other")]
    fix_a = fix_text("a.rs", 1, ["bad"], ["good"])
    fix_b = fix_text("b.rs", 1, ["other"], ["fine"])
    report, log, checker, _ = run(
        ws, rules, [[fix_a] * 3, [fix_b] * 3], n_completions=3, grouping_enabled=grouping
    )
    assert report.all_fixed
    first, second = log.of("iteration")
    assert first["completion_scores"] == [1, 1, 1]  # E2 is left; the repeats copy the score
    assert second["completion_scores"] == [0, None, None]  # a clean probe ends ranking
    assert (first["chosen_index"], second["chosen_index"]) == (0, 0)
    assert (first["probes_checked"], second["probes_checked"]) == (1, 1)
    assert checker.checks == 3
    assert log.of("run_end")[0]["checker_calls"] == checker.checks
    assert (ws.root / "a.rs").read_text() == "good\n"
    assert (ws.root / "b.rs").read_text() == "fine\n"


def _ranker(tmp_path, files, rules):
    """An orchestrator over ``files``, the prompt for its first error, and
    its checker, with the check that found the error already counted."""
    ws = make_ws(tmp_path, files)
    checker = PatternChecker(ws.root, rules)
    orch = Orchestrator(ws, checker, SequenceBackend([]))
    prompt, _ = orch._build_prompt(checker.check()[0])
    return orch, prompt, checker


def test_completions_differing_only_in_prose_are_checked_once(tmp_path):
    orch, prompt, checker = _ranker(
        tmp_path, {"a.rs": "bad\nother\n"}, [LineRule("E1", "m1", "bad"), LineRule("E2", "m2", "other")]
    )
    completions = [
        Completion(i, fix_text("a.rs", 1, ["bad"], ["good"], desc=desc))
        for i, desc in enumerate(["swap the token", "use a valid value", "rename it"])
    ]
    chosen, scores, diags = orch.best_completion(completions, prompt)
    assert checker.checks == 2  # finding the error, then one probe
    assert (chosen, scores) == (0, [1, 1, 1])
    assert [d.code for d in diags] == ["E2"]
    assert (orch.ws.root / "a.rs").read_text() == "good\nother\n"


def test_repeated_plan_that_fails_to_apply_is_rejected_alike(tmp_path, monkeypatch):
    # validation is switched off so that the stale plan reaches apply
    monkeypatch.setattr(orchestrator, "validate", lambda cl, ws: None)
    files = {"a.rs": "bad\n", "b.rs": "untouched\n"}
    orch, prompt, checker = _ranker(tmp_path, files, [LineRule("E1", "m", "bad")])
    entry = {name: (orch.ws.root / name).read_bytes() for name in files}
    stale = fix_text("a.rs", 1, ["not what a.rs holds"], ["good"])
    chosen, scores, diags = orch.best_completion([Completion(i, stale) for i in range(3)], prompt)
    assert (chosen, diags) == (None, None)
    assert scores == [math.inf] * 3
    assert checker.checks == 1
    (rejected,) = orch.log.of("completions_rejected")
    assert rejected["reasons"][0].startswith("apply failed: stale patch plan")
    assert rejected["reasons"] == [rejected["reasons"][0]] * 3
    assert {name: (orch.ws.root / name).read_bytes() for name in files} == entry


def test_a_tree_a_given_up_target_checked_is_not_checked_again(tmp_path):
    # the first target tries b.rs's fix, then gives up and rolls it back;
    # the second target's ranking reaches that tree again
    ws = make_ws(tmp_path, {"a.rs": "x1\n", "b.rs": "x2\n"})
    rules = [LineRule("E1", "m1", "x1"), LineRule("E2", "m2", "x2")]
    fix_b = fix_text("b.rs", 1, ["x2"], ["ok"])
    report, log, checker, _ = run(ws, rules, [[fix_b], ["no fix"], [fix_b]], grouping_enabled=False)
    iterations = log.of("iteration")
    assert [it["target"]["code"] for it in iterations] == ["E1", "E1", "E2"]
    assert log.of("target_given_up")[0]["target"]["code"] == "E1"
    assert [it["completion_scores"] for it in iterations] == [[1], [None], [1]]
    assert [it["probes_checked"] for it in iterations] == [1, 0, 0]
    assert checker.checks == log.records[-1]["checker_calls"] == 2
    assert [(o.key.code, o.outcome) for o in report.outcomes] == [("E1", "gave-up"), ("E2", "fixed")]
    assert (ws.root / "b.rs").read_text() == "ok\n"


def test_emit_patch_with_repeated_candidates_names_the_winner(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n", "b.rs": "other\n"})
    rules = [LineRule("E1", "m", "bad")]
    worse = fix_text("a.rs", 1, ["bad"], ["bad again"])
    good = fix_text("a.rs", 1, ["bad"], ["good"])
    patches = tmp_path / "patches"
    report, log, _, _ = run(ws, rules, [[worse, worse, good]], n_completions=3, emit_patch_dir=patches)
    assert report.all_fixed
    (it,) = log.of("iteration")
    assert (it["completion_scores"], it["chosen_index"]) == ([1, 1, 0], 2)
    (patch,) = sorted(patches.iterdir())
    assert patch.name == "000_a1.i1-c2.patch"
    assert patch.read_text() == "# a1.i1/c2\n--- a/a.rs\n+++ b/a.rs\n@@ -1 +1 @@\n-bad\n+good\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_emit_patch_of_a_file_with_a_form_feed_applies(tmp_path):
    # \x0c ends a line for str.splitlines, but not for the workspace or git
    ws = make_ws(tmp_path / "proj", {"a.rs": "x\x0cy\nbad\n"})
    original = tmp_path / "original"
    original.mkdir()
    (original / "a.rs").write_bytes((ws.root / "a.rs").read_bytes())
    patches = tmp_path / "patches"
    report, _, _, _ = run(ws, [LineRule("E1", "m", "bad")], [[fix_text("a.rs", 2, ["bad"], ["good"])]], emit_patch_dir=patches)
    assert report.all_fixed
    (patch,) = patches.iterdir()
    assert "@@ -1,2 +1,2 @@" in patch.read_text()
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path)}
    proc = subprocess.run(["git", "apply", "--check", str(patch)], cwd=original, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_later_overlapping_group_is_dropped_not_fatal(tmp_path):
    before = "fn main() {\n  bad line\n}\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m", "bad line")]
    keep = fix_text("a.rs", 2, ["  bad line"], ["  good line"], gid=1)
    clobber = fix_text("a.rs", 1, ["fn main() {", "  bad line", "}"], ["// gone"], gid=2)
    report, _, _, _ = run(ws, rules, [[keep + "\n" + clobber]])
    assert report.all_fixed
    assert (ws.root / "a.rs").read_text() == "fn main() {\n  good line\n}\n"


def test_two_independent_errors_fixed_by_separate_groups(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "first_bad\n", "b.rs": "second_bad\n"})
    rules = [LineRule("E1", "m1", "first_bad"), LineRule("E2", "m2", "second_bad")]
    responses = [
        [fix_text("a.rs", 1, ["first_bad"], ["ok"])],
        [fix_text("b.rs", 1, ["second_bad"], ["ok"])],
    ]
    report, log, _, _ = run(ws, rules, responses)
    assert report.all_fixed and report.initial_errors == 2
    assert [g["origin"]["code"] for g in log.of("group_start")] == ["E1", "E2"]
    assert report.iterations_histogram == {1: 2}


def test_explanation_text_reaches_the_prompt(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    checker = PatternChecker(ws.root, [LineRule("E1", "m", "bad")])
    checker.explanations["E1"] = "Long-form guidance about this lint."
    backend = SequenceBackend([[fix_text("a.rs", 1, ["bad"], ["good"])]])
    log = RunLog()
    report = Orchestrator(ws, checker, backend, RunConfig(), log).fix_project()
    assert report.all_fixed
    assert "Long-form guidance about this lint." in backend.requests[0].prompt_text
    assert log.of("iteration")[0]["explanation_source"] == "explain-command"


def test_config_for_profile_prompts_with_the_profile_command_and_extension(tmp_path):
    spec = tmp_path / "pylint.json"
    spec.write_text(json.dumps({"command": ["pylint", "--strict"], "language": "Python", "extensions": [".py"]}))
    cfg = RunConfig.for_profile(load_profile(str(spec)), n_completions=2, model_name="m")
    assert (cfg.checker_cmd, cfg.language, cfg.extension) == ("pylint --strict", "Python", ".py")

    ws = make_ws(tmp_path, {"a.py": "bad\n"}, extensions=(".py",))
    checker = PatternChecker(ws.root, [LineRule("E1", "m", "bad")], extensions=(".py",))
    backend = SequenceBackend([[fix_text("a.py", 1, ["bad"], ["good"])]])
    assert Orchestrator(ws, checker, backend, cfg).fix_project().all_fixed
    (req,) = backend.requests
    assert (req.n, req.model_name) == (2, "m")
    prompt = req.prompt_text
    assert "running 'pylint --strict' and Python code" in prompt
    assert "one or more '.py' files" in prompt


def test_replay_drift_is_a_configuration_error():
    assert issubclass(ReplayError, ConfigError)


# ----------------------------------------------------------------------
# give-up heuristics and rollback
# ----------------------------------------------------------------------


def test_unapplied_format_failure_classified_as_format(tmp_path):
    before = "bad\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m", "bad")]
    report, log, _, _ = run(ws, rules, [["I cannot help with this."]])

    assert (report.fixed, report.gave_up) == (0, 1)
    assert report.outcomes[0].failure_class == FAIL_FORMAT
    assert report.failure_class() == FAIL_FORMAT
    assert (ws.root / "a.rs").read_text() == before
    assert log.of("completions_rejected")[0]["reasons"][0].startswith("missing-section")
    # the seed survived an unapplied iteration: logged, and the group is over
    assert log.of("group_end")[0]["seed_present"] is True


def test_applied_but_unfixed_classified_as_build(tmp_path):
    # fix is applied (tree changes) but the error key never goes away
    before = "bad\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m", "bad")]
    responses = [[fix_text("a.rs", 1, ["bad"], ["bad but different"])]]
    report, log, _, _ = run(ws, rules, responses)

    assert report.gave_up == 1
    assert report.outcomes[0].failure_class == FAIL_BUILD
    # the group saw its seed persist and closed; the applied edit stays
    assert (ws.root / "a.rs").read_text() == "bad but different\n"
    (end,) = log.of("group_end")
    # the log says what the report says: the group closed, its seed did not go
    assert end["outcome"] == "fixed" and end["seed_present"] is True


def test_no_progress_after_two_applied_unchanged_iterations(tmp_path):
    before = "alpha\nok\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m1", "alpha"), LineRule("E2", "m2", "beta")]
    responses = [
        [fix_text("a.rs", 1, ["alpha"], ["beta"])],          # E1 -> E2 joins group
        [fix_text("a.rs", 1, ["beta"], ["beta // try1"])],   # applied, keys unchanged
        [fix_text("a.rs", 1, ["beta // try1"], ["beta // try2"])],  # second strike
    ]
    report, log, _, _ = run(ws, rules, responses)

    (end,) = log.of("group_end")
    assert end["outcome"] == "gave-up" and end["reason"] == GIVEUP_NO_PROGRESS
    assert end["iterations"] == 3
    assert (ws.root / "a.rs").read_text() == before  # rolled back byte-exact
    assert report.outcomes[0].failure_class == FAIL_BUILD


def test_no_progress_immediately_when_nothing_applied(tmp_path):
    before = "alpha\nok\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m1", "alpha"), LineRule("E2", "m2", "beta")]
    responses = [
        [fix_text("a.rs", 1, ["alpha"], ["beta"])],
        ["no changelog here, sorry"],  # rejected, group keys unchanged
    ]
    report, log, _, _ = run(ws, rules, responses)
    (end,) = log.of("group_end")
    assert end["reason"] == GIVEUP_NO_PROGRESS and end["iterations"] == 2
    assert (ws.root / "a.rs").read_text() == before


def test_blowup_when_lifetime_keys_reach_limit(tmp_path):
    before = "a1\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule(f"E{i}", f"m{i}", f"a{i}") for i in range(1, 6)]
    responses = [
        [fix_text("a.rs", 1, [f"a{i}"], [f"a{i + 1}"])] for i in range(1, 5)
    ]
    report, log, _, _ = run(ws, rules, responses, max_unique_errors=4)

    (end,) = log.of("group_end")
    assert end["reason"] == GIVEUP_BLOWUP
    assert end["iterations"] == 3  # lifetime hits 4 keys after the third fix
    assert end["lifetime_keys"] == 4
    assert (ws.root / "a.rs").read_text() == before


def test_iteration_limit_stops_key_oscillation(tmp_path):
    before = "a1\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [
        LineRule("E1", "m1", "a1"),
        LineRule("E2", "m2", "a2"),
        LineRule("E3", "m3", "a3"),
    ]
    flips = ["a2", "a3", "a2", "a3", "a2"]
    responses = []
    current = "a1"
    for nxt in flips:
        responses.append([fix_text("a.rs", 1, [current], [nxt])])
        current = nxt
    report, log, _, _ = run(ws, rules, responses, max_unique_errors=5)

    (end,) = log.of("group_end")
    assert end["reason"] == GIVEUP_ITERATION_LIMIT
    assert end["iterations"] == 5
    assert end["lifetime_keys"] == 3  # oscillating, never blowing up
    assert (ws.root / "a.rs").read_text() == before


def test_backend_failure_gives_up_the_group(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    report, log, _, _ = run(ws, rules, [])  # no scripted responses at all
    (end,) = log.of("group_end")
    assert end["reason"] == GIVEUP_BACKEND and end["iterations"] == 1
    assert report.outcomes[0].failure_class == FAIL_FORMAT  # nothing ever applied
    assert "backend failure" in log.of("iteration")[0]["error"]


def test_replay_drift_raises_instead_of_giving_up(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    checker = PatternChecker(ws.root, [LineRule("E1", "m", "bad")])
    backend = ReplayBackend(tmp_path / "empty-store")  # nothing recorded
    with pytest.raises(ReplayError):
        Orchestrator(ws, checker, backend).fix_project()


def test_unlocalizable_error_consumes_no_completions(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "fine\n"})
    diag = make_diag("E1", "m", "README.md", 1)  # not an indexed file
    checker = FuncChecker(lambda: [diag])
    backend = SequenceBackend([])  # would raise if asked
    log = RunLog()
    report = Orchestrator(ws, checker, backend, RunConfig(), log).fix_project()
    assert backend.requests == []
    assert report.gave_up == 1
    assert report.outcomes[0].failure_class == FAIL_FORMAT
    assert "no indexed span location" in log.of("iteration")[0]["note"]


def test_given_up_key_is_never_reseeded(tmp_path):
    # E1's group applies a fix that spawns E3, then stalls -> real give-up;
    # the outer loop must move on to E2 instead of reseeding E1
    ws = make_ws(tmp_path, {"a.rs": "hopeless\nfixable\n"})
    rules = [
        LineRule("E1", "m1", "hopeless"),
        LineRule("E2", "m2", "fixable"),
        LineRule("E3", "m3", "aux_bad"),
    ]
    responses = [
        [fix_text("a.rs", 1, ["hopeless"], ["aux_bad"])],  # E1 -> E3
        ["nonsense"],  # E3 target rejected: unchanged, unapplied -> no-progress
        [fix_text("a.rs", 2, ["fixable"], ["fixed"])],
    ]
    report, log, _, _ = run(ws, rules, responses)
    assert (report.fixed, report.gave_up) == (1, 1)
    seeds = [g["origin"]["code"] for g in log.of("group_start")]
    assert seeds == ["E1", "E2"]  # E1 only once
    assert (ws.root / "a.rs").read_text() == "hopeless\nfixed\n"


def test_outer_budget_bounds_total_attempts(tmp_path):
    # every "fix" converts the seed into itself (applied, key persists):
    # each group closes as fixed-meta, the outer loop re-seeds, and the
    # attempt budget (= initial key count) must stop the run
    ws = make_ws(tmp_path, {"a.rs": "bad v0\n"})
    rules = [LineRule("E1", "m", "bad")]
    responses = [[fix_text("a.rs", 1, [f"bad v{i}"], [f"bad v{i + 1}"])] for i in range(10)]
    report, log, _, _ = run(ws, rules, responses)
    assert len(log.of("group_start")) == 1  # budget = 1 initial key
    assert report.gave_up == 1
    assert (ws.root / "a.rs").read_text() == "bad v1\n"  # applied edit kept


# ----------------------------------------------------------------------
# single-loop mode (grouping disabled)
# ----------------------------------------------------------------------


def test_single_mode_fixes_each_error_without_groups(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "one_bad\ntwo_bad\n"})
    rules = [LineRule("E1", "m1", "one_bad"), LineRule("E2", "m2", "two_bad")]
    responses = [
        [fix_text("a.rs", 1, ["one_bad"], ["one_ok"])],
        [fix_text("a.rs", 2, ["two_bad"], ["two_ok"])],
    ]
    report, log, _, _ = run(ws, rules, responses, grouping_enabled=False)

    assert report.all_fixed and report.initial_errors == 2
    assert log.of("group_start") == [] and log.of("group_end") == []
    assert {r["mode"] for r in log.of("iteration")} == {"single"}
    assert report.iterations_histogram == {1: 2}
    assert (ws.root / "a.rs").read_text() == "one_ok\ntwo_ok\n"


def test_single_mode_gives_up_and_rolls_back_per_key(tmp_path):
    before = "first_bad\nsecond_bad\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m1", "first_bad"), LineRule("E2", "m2", "second_bad")]
    # E2's diagnostics sort after E1; E1 keeps "fixing" itself into itself
    responses = [
        [fix_text("a.rs", 1, ["first_bad"], ["first_bad x1"])],
        [fix_text("a.rs", 1, ["first_bad x1"], ["first_bad x2"])],
        [fix_text("a.rs", 2, ["second_bad"], ["second_ok"])],
    ]
    report, log, checker, _ = run(ws, rules, responses, grouping_enabled=False)

    (giveup,) = log.of("target_given_up")
    assert giveup["target"]["code"] == "E1"
    assert giveup["reason"] == GIVEUP_NO_PROGRESS
    assert report.fixed == 1 and report.gave_up == 1
    # E1's snapshot rollback must not clobber E2's later fix
    assert (ws.root / "a.rs").read_text() == "first_bad\nsecond_ok\n"
    e1 = next(o for o in report.outcomes if o.key.code == "E1")
    assert e1.failure_class == FAIL_BUILD and e1.group_iterations == 2
    # initial check and one probe per iteration; the rollback reuses the
    # diagnostics E1's entry tree already had
    assert checker.checks == 4


def test_single_mode_target_whose_key_vanished_reopens_afresh(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "ok\nx1\nx3\n"})
    rules = [LineRule("E1", "m1", "x1"), LineRule("E2", "m2", "x2"), LineRule("E3", "m3", "x3")]
    responses = [
        [fix_text("a.rs", 1, ["ok"], ["x2"])],  # E1's fix adds E2
        [fix_text("a.rs", 1, ["x2", "x1"], ["ok", "ok"])],  # E2's fix removes E2 and E1
        [fix_text("a.rs", 3, ["x3"], ["x1"])],  # E3's fix brings E1 back
        ["not a changelog"],  # E1 makes no progress
    ]
    report, log, _, _ = run(ws, rules, responses, grouping_enabled=False)

    (giveup,) = log.of("target_given_up")
    assert (giveup["target"]["code"], giveup["reason"]) == ("E1", GIVEUP_NO_PROGRESS)
    # E1's give-up rolls back to where its key came back, not to where it
    # first vanished: E3's landed fix stays landed
    assert (ws.root / "a.rs").read_text() == "ok\nok\nx1\n"
    assert {o.key.code: o.outcome for o in report.outcomes} == {"E1": "gave-up", "E3": "fixed"}


def test_single_mode_backend_failure(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    report, log, _, _ = run(ws, rules, [], grouping_enabled=False)
    (giveup,) = log.of("target_given_up")
    assert giveup["reason"] == GIVEUP_BACKEND
    assert report.outcomes[0].failure_class == FAIL_FORMAT
    (iteration,) = log.of("iteration")
    assert "backend failure" in iteration["error"]


def _churn_line_two(lines_after):
    """Responses that leave line 1's error alone and rewrite line 2 into
    each of ``lines_after`` in turn."""
    responses, current = [], "plain"
    for nxt in lines_after:
        responses.append([fix_text("a.rs", 2, [current], [nxt])])
        current = nxt
    return responses


def test_single_mode_blowup_when_lifetime_keys_reach_limit(tmp_path):
    before = "first_bad\nplain\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [LineRule("E1", "m1", "first_bad")]
    rules += [LineRule(f"A{i}", f"aux {i}", f"aux_{i}") for i in range(1, 6)]
    responses = _churn_line_two(["aux_1", "aux_2", "aux_3", "aux_4"])
    report, log, _, _ = run(ws, rules, responses, grouping_enabled=False, max_unique_errors=4)

    (giveup,) = log.of("target_given_up")
    assert giveup["target"]["code"] == "E1"
    assert giveup["reason"] == GIVEUP_BLOWUP
    assert (ws.root / "a.rs").read_text() == before  # rolled back byte-exact
    (e1,) = report.outcomes
    assert e1.failure_class == FAIL_BUILD and e1.group_iterations == 3


def test_single_mode_iteration_limit_stops_key_oscillation(tmp_path):
    before = "first_bad\nplain\n"
    ws = make_ws(tmp_path, {"a.rs": before})
    rules = [
        LineRule("E1", "m1", "first_bad"),
        LineRule("A1", "aux 1", "aux_1"),
        LineRule("A2", "aux 2", "aux_2"),
    ]
    responses = _churn_line_two(["aux_1", "aux_2", "aux_1", "aux_2", "aux_1"])
    report, log, _, _ = run(ws, rules, responses, grouping_enabled=False, max_unique_errors=4)

    (giveup,) = log.of("target_given_up")
    assert giveup["target"]["code"] == "E1"
    assert giveup["reason"] == GIVEUP_ITERATION_LIMIT  # 3 lifetime keys, never a blow-up
    assert (ws.root / "a.rs").read_text() == before
    (e1,) = report.outcomes
    assert e1.failure_class == FAIL_BUILD and e1.group_iterations == 4


# ----------------------------------------------------------------------
# patches, test command, report plumbing
# ----------------------------------------------------------------------


def test_emit_patch_dir_captures_each_applied_completion(tmp_path):
    good = fix_text("a.rs", 1, ["bad"], ["good"])
    edits_b = fix_text("b.rs", 1, ["other"], ["other edited"])
    # the second run's losing probe edits b.rs; neither the patch nor the tree keeps it
    for candidates, winner in [([good], 0), ([edits_b, good], 1)]:
        ws = make_ws(tmp_path / f"n{len(candidates)}", {"a.rs": "bad\n", "b.rs": "other\n"})
        rules = [LineRule("E1", "m", "bad")]
        patches = tmp_path / f"n{len(candidates)}" / "patches"
        report, _, _, _ = run(ws, rules, [candidates], n_completions=len(candidates), emit_patch_dir=patches)
        assert report.all_fixed
        (patch,) = sorted(patches.iterdir())
        assert patch.name == f"000_a1.i1-c{winner}.patch"
        body = patch.read_text()
        assert body.splitlines()[0] == f"# a1.i1/c{winner}"
        assert "--- a/a.rs" in body and "+good" in body and "-bad" in body
        assert "b.rs" not in body
        assert (ws.root / "b.rs").read_bytes() == b"other\n"


def test_failing_test_command_flips_clean_keys_to_test_failures(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    responses = [[fix_text("a.rs", 1, ["bad"], ["good"])]]
    report, log, _, _ = run(
        ws,
        rules,
        responses,
        test_command='{python} -c "import sys; sys.exit(3)"',
    )
    assert report.test_command_ran and report.test_exit == 3
    assert report.fixed == 0 and report.gave_up == 1
    assert report.outcomes[0].failure_class == FAIL_TEST
    assert report.iterations_histogram == {}
    # the tree keeps the fix; only the report is downgraded
    assert (ws.root / "a.rs").read_text() == "good\n"
    assert log.of("test_command")[0]["exit_code"] == 3


def test_passing_test_command_keeps_fixed_outcomes(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    responses = [[fix_text("a.rs", 1, ["bad"], ["good"])]]
    report, _, _, _ = run(ws, rules, responses, test_command='{python} -c "pass"')
    assert report.test_command_ran and report.test_exit == 0
    assert report.all_fixed


def test_test_command_skipped_while_errors_remain(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    report, _, _, _ = run(
        ws, rules, [["junk"]], test_command='{python} -c "import sys; sys.exit(9)"'
    )
    assert not report.test_command_ran and report.test_exit is None
    assert report.outcomes[0].failure_class == FAIL_FORMAT  # not "test"


def test_run_log_streams_jsonl(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    rules = [LineRule("E1", "m", "bad")]
    stream = io.StringIO()
    checker = PatternChecker(ws.root, rules)
    backend = SequenceBackend([[fix_text("a.rs", 1, ["bad"], ["good"])]])
    Orchestrator(ws, checker, backend, RunConfig(), RunLog(stream)).fix_project()
    lines = [json.loads(ln) for ln in stream.getvalue().splitlines()]
    assert lines[0]["event"] == "run_start"
    assert lines[-1]["event"] == "run_end"
    assert lines[-1]["report"]["fixed"] == 1


def test_fix_report_accessors():
    k1 = make_diag("E1", "m", "a.rs", 1).key
    k2 = make_diag("E2", "m", "b.rs", 1).key
    report = FixReport(
        initial_errors=2,
        outcomes=[
            KeyOutcome(k1, "fixed", None, 2),
            KeyOutcome(k2, "gave-up", FAIL_BUILD, 5),
        ],
    )
    assert report.fixed == 1 and report.gave_up == 1
    assert not report.all_fixed
    assert report.failure_class() == FAIL_BUILD
    d = report.to_dict()
    assert d["outcomes"][1]["failure_class"] == "build"


def test_module_level_helper_matches_class_entry_point(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    checker = PatternChecker(ws.root, [LineRule("E1", "m", "bad")])
    backend = SequenceBackend([[fix_text("a.rs", 1, ["bad"], ["good"])]])
    report = fix_project(ws, checker, backend)
    assert report.all_fixed


@pytest.mark.parametrize("grouping", [True, False])
def test_run_end_counts_every_checker_call(tmp_path, grouping):
    # E1 is fixed after a ranked iteration; E2's target gives up on junk
    ws = make_ws(tmp_path, {"a.rs": "alpha\nbeta\ngamma\n"})
    rules = [LineRule("E1", "m1", "alpha"), LineRule("E2", "m2", "beta"), LineRule("E3", "m3", "gamma")]
    responses = [
        [fix_text("a.rs", 1, ["alpha"], ["one"]), fix_text("a.rs", 1, ["alpha"], ["gamma"]), "junk"],
        ["junk", "junk", "junk"],
        [fix_text("a.rs", 3, ["gamma"], ["three"])] * 3,
    ]
    report, log, checker, _ = run(ws, rules, responses, n_completions=3, grouping_enabled=grouping)
    assert report.fixed == 2 and report.gave_up == 1
    assert [it["probes_checked"] for it in log.of("iteration")] == [2, 0, 1]
    assert log.of("run_end")[0]["checker_calls"] == checker.checks == 4


def test_clean_project_short_circuits(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "all good\n"})
    report, log, checker, backend = run(ws, [LineRule("E1", "m", "never-matches")], [])
    assert report.initial_errors == 0 and report.all_fixed
    assert report.inner_iterations == 0
    assert backend.requests == []
    assert checker.checks == 1
    assert [r["event"] for r in log.records] == ["run_start", "run_end"]


# ----------------------------------------------------------------------
# files the loop did not change are never rewritten
# ----------------------------------------------------------------------

_OLD_MTIME_NS = 10**18  # 2001-09-09: older than any write the run makes


@pytest.mark.parametrize(
    "responses, n, outcome, a_after",
    [
        # one grouped iteration ranks three candidates that edit only a.rs
        (
            [[fix_text("a.rs", 1, ["bad"], ["bad still"]), fix_text("a.rs", 1, ["bad"], ["good"]), "junk"]],
            3,
            "fixed",
            "good\n",
        ),
        # a.rs grows E2 into the group, which persists until no-progress
        # gives up and rolls the group back
        (
            [
                [fix_text("a.rs", 1, ["bad"], ["worse"])],
                [fix_text("a.rs", 1, ["worse"], ["worse x1"])],
                [fix_text("a.rs", 1, ["worse x1"], ["worse x2"])],
            ],
            1,
            "gave-up",
            "bad\n",
        ),
    ],
    ids=["ranked-n3", "give-up-rollback"],
)
def test_untouched_files_keep_their_mtime(tmp_path, responses, n, outcome, a_after):
    ws = make_ws(tmp_path, {"a.rs": "bad\n", "b.rs": "untouched\n"})
    for name in ("a.rs", "b.rs"):
        os.utime(ws.root / name, ns=(_OLD_MTIME_NS, _OLD_MTIME_NS))
    rules = [LineRule("E1", "m1", "bad"), LineRule("E2", "m2", "worse")]
    report, log, _, _ = run(ws, rules, responses, n_completions=n)
    assert len(log.of("iteration")) == len(responses)
    assert log.of("group_end")[0]["outcome"] == outcome
    assert (ws.root / "a.rs").read_text() == a_after
    assert (ws.root / "b.rs").stat().st_mtime_ns == _OLD_MTIME_NS


def test_single_candidate_winner_is_written_once(tmp_path, monkeypatch):
    ws = make_ws(tmp_path, {"a.rs": "bad\n", "b.rs": "untouched\n"})
    written = []
    write_bytes = Path.write_bytes

    def counting_write_bytes(path, data):
        written.append(path.relative_to(ws.root).as_posix())
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", counting_write_bytes)
    rules = [LineRule("E1", "m", "bad")]
    report, _, _, _ = run(ws, rules, [[fix_text("a.rs", 1, ["bad"], ["good"])]])
    assert report.all_fixed and report.inner_iterations == 1
    assert written == ["a.rs"]  # the probe's apply; keeping the winner writes nothing
    assert (ws.root / "a.rs").read_text() == "good\n"


# ----------------------------------------------------------------------
# aborts: an exception never leaves a candidate or a half-done group behind
# ----------------------------------------------------------------------


def _raising_on_call(n, inner, exc):
    """A checker that answers like ``inner`` but raises ``exc`` on call ``n``."""

    def check():
        if checker.checks == n:  # FuncChecker counts the call first
            raise exc
        return inner.check()

    checker = FuncChecker(check)
    return checker


@pytest.mark.parametrize("exc", [CheckerError("checker exited 2", 2, "boom"), KeyboardInterrupt()])
@pytest.mark.parametrize("grouping", [True, False])
def test_checker_raising_in_the_first_probe_leaves_the_run_entry_tree(tmp_path, exc, grouping):
    files = {"a.rs": "let x = bad;\nlet y = 1;\n", "b.rs": "untouched\n"}
    ws = make_ws(tmp_path, files)
    entry = {name: (ws.root / name).read_bytes() for name in files}
    checker = _raising_on_call(2, PatternChecker(ws.root, [LineRule("E1", "m", "bad")]), exc)
    backend = SequenceBackend([[fix_text("a.rs", 1, ["let x = bad;"], ["let x = 0;"])]])
    orch = Orchestrator(ws, checker, backend, RunConfig(grouping_enabled=grouping))
    with pytest.raises(type(exc)):
        orch.fix_project()
    assert checker.checks == 2  # the run-entry check, then the first probe
    assert {name: (ws.root / name).read_bytes() for name in files} == entry
    (abort,) = orch.log.of("run_abort")
    assert abort["rolled_back"] == ("group" if grouping else "target")


def test_abort_before_any_rollback_names_none(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    checker = _raising_on_call(1, PatternChecker(ws.root, [LineRule("E1", "m", "bad")]), KeyboardInterrupt())
    orch = Orchestrator(ws, checker, SequenceBackend([]))
    with pytest.raises(KeyboardInterrupt):
        orch.fix_project()
    assert orch.log.records[-1] == {
        "event": "run_abort", "error": "KeyboardInterrupt", "message": "", "rolled_back": None
    }


def test_probe_restores_the_probed_state_when_the_check_raises(tmp_path):
    # best_completion on its own: no group rollback around it
    ws = make_ws(tmp_path, {"a.rs": "bad\n"})
    inner = PatternChecker(ws.root, [LineRule("E1", "m", "bad")])
    checker = _raising_on_call(1, inner, KeyboardInterrupt())
    orch = Orchestrator(ws, checker, SequenceBackend([]))
    prompt, _ = orch._build_prompt(inner.check()[0])
    completion = Completion(0, fix_text("a.rs", 1, ["bad"], ["good"]))
    with pytest.raises(KeyboardInterrupt):
        orch.best_completion([completion], prompt)
    assert (ws.root / "a.rs").read_text() == "bad\n"
    assert ws.content("a.rs") == "bad\n"


def _tear_first_write(monkeypatch, exc):
    """Make the first file write put five bytes on disk and raise ``exc``,
    as a Ctrl-C or a full disk mid-write does; later writes go through."""
    write_bytes = Path.write_bytes
    torn = []

    def tearing(path, data):
        if not torn:
            torn.append(path.name)
            write_bytes(path, data[:5])
            raise exc
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", tearing)
    return torn


_TORN = [KeyboardInterrupt(), OSError(errno.ENOSPC, "No space left on device")]


@pytest.mark.parametrize("exc", _TORN, ids=["ctrl-c", "enospc"])
def test_a_write_torn_in_a_probe_is_rewritten_by_its_rollback(tmp_path, monkeypatch, exc):
    files = {"a.rs": "fn a() { bad }\nfn b() {}\n", "b.rs": "untouched\n"}
    ws = make_ws(tmp_path, files)
    checker = PatternChecker(ws.root, [LineRule("E1", "m", "bad")])
    orch = Orchestrator(ws, checker, SequenceBackend([]))
    prompt, _ = orch._build_prompt(checker.check()[0])
    torn = _tear_first_write(monkeypatch, exc)
    completion = Completion(0, fix_text("a.rs", 1, ["fn a() { bad }"], ["fn a() {}"]))
    with pytest.raises(type(exc)):
        orch.best_completion([completion], prompt)
    assert torn == ["a.rs"]  # the probe's check flushed the candidate
    assert {name: (ws.root / name).read_text() for name in files} == files
    assert ws.content("a.rs") == files["a.rs"]
    assert orch._rolled_back == "probe"


@pytest.mark.parametrize("exc", _TORN, ids=["ctrl-c", "enospc"])
@pytest.mark.parametrize("grouping", [True, False])
def test_a_write_torn_in_an_open_scope_is_rewritten_by_its_rollback(tmp_path, monkeypatch, exc, grouping):
    files = {"a.rs": "fn a() { bad }\nfn b() {}\n", "b.rs": "untouched\n"}
    ws = make_ws(tmp_path, files)
    torn = _tear_first_write(monkeypatch, exc)
    backend = SequenceBackend([[fix_text("a.rs", 1, ["fn a() { bad }"], ["fn a() {}"])]])
    orch = Orchestrator(ws, PatternChecker(ws.root, [LineRule("E1", "m", "bad")]), backend, RunConfig(grouping_enabled=grouping))
    with pytest.raises(type(exc)):
        orch.fix_project()
    assert torn == ["a.rs"]
    assert {name: (ws.root / name).read_text() for name in files} == files
    assert ws.content("a.rs") == files["a.rs"]
    assert orch.log.records[-1]["rolled_back"] == ("group" if grouping else "target")


class _DriftingBackend(SequenceBackend):
    """Serves its scripted responses, then fails like a drifted replay."""

    def complete(self, req):
        if len(self.requests) >= len(self.responses):
            raise ReplayError("prompt digest mismatch")
        return super().complete(req)


@pytest.mark.parametrize(
    "grouping, second_fix",
    [
        (True, "aux_bad"),  # E2's group grows E3 and goes on
        (False, "two_bad x1"),  # E2 persists, applied once, and goes on
    ],
)
def test_replay_error_mid_target_rolls_back_to_its_entry_state(tmp_path, grouping, second_fix):
    ws = make_ws(tmp_path, {"a.rs": "one_bad\ntwo_bad\n"})
    rules = [
        LineRule("E1", "m1", "one_bad"),
        LineRule("E2", "m2", "two_bad"),
        LineRule("E3", "m3", "aux_bad"),
    ]
    backend = _DriftingBackend(
        [
            [fix_text("a.rs", 1, ["one_bad"], ["one_ok"])],
            [fix_text("a.rs", 2, ["two_bad"], [second_fix])],
        ]
    )
    checker = PatternChecker(ws.root, rules)
    orch = Orchestrator(ws, checker, backend, RunConfig(grouping_enabled=grouping))
    with pytest.raises(ReplayError):
        orch.fix_project()
    assert len(backend.requests) == 2  # the third request drifted
    assert orch.log.records[-1]["rolled_back"] == ("group" if grouping else "target")
    # E1's finished fix stays; E2's unfinished work is rolled back
    assert (ws.root / "a.rs").read_text() == "one_ok\ntwo_bad\n"


class _InterruptedLog(RunLog):
    """A run log whose first ``event`` record is cut short by Ctrl-C."""

    def __init__(self, event):
        super().__init__()
        self.event = event

    def emit(self, event, **fields):
        if event == self.event:
            self.event = None
            raise KeyboardInterrupt
        super().emit(event, **fields)


@pytest.mark.parametrize(
    "grouping, event",
    [
        (True, "group_start"),
        (True, "iteration"),
        (True, "group_end"),
        (False, "iteration"),
        (False, "target_given_up"),
    ],
)
def test_abort_while_a_scope_is_open_rolls_the_scope_back(tmp_path, grouping, event):
    files = {"a.rs": "one_bad\ntwo_bad\n", "b.rs": "untouched\n"}
    ws = make_ws(tmp_path, files)
    entry = {name: (ws.root / name).read_bytes() for name in files}
    rules = [LineRule("E1", "m1", "one_bad"), LineRule("E2", "m2", "two_bad"), LineRule("E3", "m3", "aux_bad")]
    # E1's group grows E3, or E1's target persists: either way the scope
    # stays open, and its second request finds the backend run out
    fix = fix_text("a.rs", 1, ["one_bad"], ["aux_bad" if grouping else "one_bad x1"])
    log = _InterruptedLog(event)
    orch = Orchestrator(ws, PatternChecker(ws.root, rules), SequenceBackend([[fix]]), RunConfig(grouping_enabled=grouping), log)
    with pytest.raises(KeyboardInterrupt):
        orch.fix_project()
    assert {name: (ws.root / name).read_bytes() for name in files} == entry
    assert ws.content("a.rs") == "one_bad\ntwo_bad\n"
    assert log.records[-1]["event"] == "run_abort"
    assert log.records[-1]["rolled_back"] == ("group" if grouping else "target")


def _tear_write(monkeypatch, exc, n):
    """Make the ``n``-th file write put five bytes on disk and raise
    ``exc``; every other write goes through.  Returns the names written."""
    write_bytes = Path.write_bytes
    written = []

    def tearing(path, data):
        written.append(path.name)
        if len(written) == n:
            write_bytes(path, data[:5])
            raise exc
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", tearing)
    return written


@pytest.mark.parametrize("torn", [1, 2], ids=["first-write", "second-write"])
@pytest.mark.parametrize("exc", _TORN, ids=["ctrl-c", "enospc"])
@pytest.mark.parametrize("grouping", [True, False])
def test_a_torn_run_end_flush_is_written_again(tmp_path, monkeypatch, grouping, exc, torn):
    # the in-memory engine writes nothing before the run-end flush, so it
    # writes each fixed file once, there
    rules = {"rules": [{"code": "E1", "message": "m1", "pattern": "one_bad"}, {"code": "E2", "message": "m2", "pattern": "two_bad"}]}
    ws = make_ws(tmp_path, {"checker_rules.json": json.dumps(rules), "a.rs": "one_bad\n", "b.rs": "two_bad\n"})
    backend = SequenceBackend([[fix_text("a.rs", 1, ["one_bad"], ["one_ok"])], [fix_text("b.rs", 1, ["two_bad"], ["two_ok"])]])
    written = _tear_write(monkeypatch, exc, torn)
    orch = Orchestrator(ws, SubprocessChecker(load_profile("scripted"), ws.root), backend, RunConfig(grouping_enabled=grouping))
    with pytest.raises(type(exc)):
        orch.fix_project()
    # the second flush writes the torn file, and any the first did not reach
    assert written == (["a.rs", "a.rs", "b.rs"] if torn == 1 else ["a.rs", "b.rs", "b.rs"])
    assert {name: (ws.root / name).read_bytes() for name in ("a.rs", "b.rs")} == {
        name: text.encode("utf-8", "surrogateescape") for name, text in ws.texts().items()
    }
    assert ws.texts() == {"a.rs": "one_ok\n", "b.rs": "two_ok\n"}
    assert orch.log.records[-1] == {
        "event": "run_abort", "error": type(exc).__name__, "message": str(exc), "rolled_back": "run-end"
    }


class _CutStream(io.StringIO):
    """A log file whose ``cut``-th write puts half its text down and
    raises ``exc``; ``writes`` counts the writes."""

    def __init__(self, cut, exc):
        super().__init__()
        self.cut, self.exc, self.writes = cut, exc, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.cut:
            super().write(text[: len(text) // 2])
            raise self.exc
        return super().write(text)


@pytest.mark.parametrize("exc", _TORN, ids=["ctrl-c", "enospc"])
def test_a_cut_log_write_leaves_whole_lines_and_ends_in_run_abort(tmp_path, exc):
    files = {"a.rs": "one_bad\n"}
    rules = [LineRule("E1", "m1", "one_bad")]
    responses = [[fix_text("a.rs", 1, ["one_bad"], ["one_ok"])]]

    def run_logged(cut, where):
        ws = make_ws(tmp_path / where, files)
        stream = _CutStream(cut, exc)
        orch = Orchestrator(ws, PatternChecker(ws.root, rules), SequenceBackend(responses), RunConfig(), RunLog(stream))
        with contextlib.suppress(type(exc)):
            orch.fix_project()
        return stream

    whole = run_logged(0, "whole")
    events = [json.loads(line)["event"] for line in whole.getvalue().splitlines()]
    assert events[0] == "run_start" and events[-1] == "run_end"
    for cut in range(1, whole.writes + 1):
        lines = run_logged(cut, f"cut{cut}").getvalue().splitlines()
        parsed = []
        for line in lines:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                pass
        assert len(lines) - len(parsed) <= 1, (cut, lines)
        assert parsed[-1]["event"] == "run_abort" and json.loads(lines[-1]) == parsed[-1], (cut, lines)
        assert parsed[-1]["error"] == type(exc).__name__
