"""Acceptance gate: nine end-to-end checks, one per shipping guarantee.

Each test prints a single ``acceptance N/9 <label>: PASS|FAIL`` line on the
real terminal (bypassing capture) so a full run reads as a checklist.  The
checks deliberately re-verify behaviour through public entry points only —
fixtures replay byte-exactly, the wire format accepts/rejects what it must,
randomized oracles agree with independent reconstructions, and the loop's
termination and rollback guarantees hold under adversarial backends.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from fixloop.bench import format_rate, render_summary, summarize
from fixloop.bench import BenchmarkCase
from fixloop.changelog import FormatError, parse_response, parse_snippet_response, validate
from fixloop.fixtures import Fixture, compare_trees, load_fixture, run_fixture, verify_fixture
from fixloop.orchestrator import (
    GIVEUP_BLOWUP,
    Orchestrator,
    RunConfig,
    RunLog,
)
from fixloop.patching import apply, plan
from fixloop.prompting import PromptVariant, format_instructions

from conftest import LineRule, PatternChecker, SequenceBackend, make_ws

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
MALFORMED = Path(__file__).parent / "data" / "malformed"


@contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number}/9 {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number}/9 {label}: PASS")


def changelog_group(gid, file, *edits):
    lines = [f"ChangeLog:{gid}@{file}", "FixDescription: scripted edit"]
    for start, originals, fixed in edits:
        end = start + len(originals) - 1
        lines.append(f"OriginalCode@{start}-{end}:")
        lines += [f"[{n}] {t}" for n, t in enumerate(originals, start)]
        fixed_end = start + len(fixed) - 1 if fixed else start
        lines.append(f"FixedCode@{start}-{fixed_end}:")
        lines += [f"[{n}] {t}" for n, t in enumerate(fixed, start)]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# 1. recorded stackoverflow case replays to convergence
# ----------------------------------------------------------------------


def test_c1_replay_convergence(capsys, tmp_path):
    with verdict(capsys, 1, "replay convergence"):
        fixture = load_fixture(FIXTURES / "micro" / "so-e0515")
        started = time.perf_counter()
        report, root = run_fixture(fixture, workdir=tmp_path)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"replay took {elapsed:.2f}s"
        assert report.inner_iterations == 2
        assert (report.initial_errors, report.fixed, report.gave_up) == (1, 1, 0)
        assert compare_trees(root, fixture.expected_dir) == []  # byte-exact


# ----------------------------------------------------------------------
# 2. wire format: canonical parse, skeleton parse, rejection, fuzzing
# ----------------------------------------------------------------------


def test_c2_wire_format(capsys, tmp_path):
    with verdict(capsys, 2, "wire format"):
        # canonical recorded response parses to its exact structure
        canonical = (FIXTURES / "micro" / "so-e0515" / "replay" / "0_0.txt").read_text()
        groups = parse_response(canonical, PromptVariant.P4)
        assert isinstance(groups, list) and len(groups) == 1
        g = groups[0]
        assert g.id == 1 and g.file == "src/example.rs"
        assert len(g.pairs) == 1
        original, fixed = g.pairs[0]
        assert (original.declared_start, original.declared_end) == (19, 23)
        assert (fixed.declared_start, fixed.declared_end) == (19, 24)

        # the instruction example parses once its symbolic id is concrete
        skeleton = format_instructions(PromptVariant.P4).split("---\n", 1)[1]
        parsed = parse_response(skeleton.replace("ChangeLog:K@", "ChangeLog:2@"))
        assert isinstance(parsed, list) and len(parsed) >= 2

        # every malformed case is rejected, each for its documented reason
        ws = make_ws(
            tmp_path,
            {
                "src/example.rs": "".join(f"let v{n} = {n};\n" for n in range(1, 31)),
                "README.md": "docs\n",
            },
        )
        snippet_index = {"src/example.rs": [(1, 10), (15, 20)]}
        manifest = json.loads((MALFORMED / "manifest.json").read_text())
        assert len(manifest) == 50
        failures = []
        for name, meta in sorted(manifest.items()):
            text = (MALFORMED / name).read_text()
            variant = PromptVariant.parse(meta["variant"])
            if variant is PromptVariant.P0:
                result = parse_snippet_response(text, snippet_index)
            else:
                result = parse_response(text, variant)
                if isinstance(result, list):
                    for group in result:
                        problem = validate(group, ws)
                        if problem is not None:
                            result = problem
                            break
            got = result.reason if isinstance(result, FormatError) else None
            if got != meta["reason"]:
                failures.append(f"{name}: expected {meta['reason']}, got {got}")
        assert not failures, failures

        # parser survives 10,000 fuzzed responses without raising
        rng = random.Random(0xF1CC)
        fragments = [
            "ChangeLog:", "@src/a.rs", "OriginalCode@", "FixedCode@", "<@", "@>",
            "[3] code", "1-2:", ":", "\n", " ", "FixDescription:", "prose words",
            "[", "]", "@", "0-0", "99", "\t", "ChangeLog:1@src/example.rs\n",
        ]
        variants = [PromptVariant.P1, PromptVariant.P2, PromptVariant.P3, PromptVariant.P4]
        for _ in range(10_000):
            text = "".join(rng.choice(fragments) for _ in range(rng.randrange(0, 24)))
            result = parse_response(text, rng.choice(variants))
            assert isinstance(result, (list, FormatError))


# ----------------------------------------------------------------------
# 3. in-place edit application equals functional reconstruction
# ----------------------------------------------------------------------


def test_c3_edit_application_oracle(capsys, tmp_path):
    with verdict(capsys, 3, "edit application oracle"):
        rng = random.Random(31_337)
        for round_no in range(1_000):
            total = rng.randrange(4, 50)
            lines = [f"row {round_no}.{i}" for i in range(1, total + 1)]
            ws = make_ws(tmp_path / f"r{round_no}", {"a.rs": "\n".join(lines) + "\n"})

            ranges = []
            cursor = 1
            while cursor <= total and len(ranges) < 6:
                a = cursor + rng.randrange(0, 3)
                if a > total:
                    break
                b = min(total, a + rng.randrange(0, 4))
                ranges.append((a, b))
                cursor = b + 2
            rng.shuffle(ranges)  # arrival order must not matter

            edits = []
            replacements = {}
            for a, b in ranges:
                new = [f"new {a}.{k}" for k in range(rng.randrange(0, 5))]
                replacements[(a, b)] = new
                edits.append((a, lines[a - 1 : b], new))
            p = plan([parse_one(changelog_group(1, "a.rs", *edits))])
            apply(ws, p)
            ws.flush()

            # independent bottom-up reconstruction from the original lines
            expected = []
            i = 1
            for a, b in sorted(replacements):
                expected.extend(lines[i - 1 : a - 1])
                expected.extend(replacements[(a, b)])
                i = b + 1
            expected.extend(lines[i - 1 :])
            want = ("\n".join(expected) + "\n") if expected else ""
            got = (ws.root / "a.rs").read_text()
            assert got == want, f"round {round_no}"


def parse_one(text):
    parsed = parse_response(text, PromptVariant.P4)
    assert isinstance(parsed, list) and len(parsed) == 1, parsed
    return parsed[0]


# ----------------------------------------------------------------------
# 4. give-up always restores the group-entry tree byte-exactly
# ----------------------------------------------------------------------


def _giveup_round(base_dir, rng, round_no):
    """One randomized run that must end in a give-up and roll back."""
    flavor = rng.choice(["stall", "backend", "blowup", "oscillate", "two-phase"])
    n_lines = rng.randrange(3, 10)
    bad_at = rng.randrange(2 if flavor == "two-phase" else 1, n_lines) + 1
    lines = [f"fill {round_no}.{i}" for i in range(1, n_lines + 1)]
    if flavor == "two-phase":
        lines[0] = "fixme_ok"
    lines.insert(bad_at - 1, "bad_seed")
    content = "\n".join(lines) + "\n"

    ws = make_ws(base_dir / f"g{round_no}", {"a.rs": content})
    rules = [
        LineRule("SEED", "seed problem", "bad_seed"),
        LineRule("OK", "benign problem", "fixme_ok"),
    ] + [LineRule(f"AUX{i}", f"aux problem {i}", f"aux_{i}") for i in range(1, 5)]

    def edit(frm, to):
        return changelog_group(1, "a.rs", (bad_at, [frm], [to]))

    responses = []
    expected = content
    max_unique = 100
    expect_fixed = 0
    if flavor == "two-phase":
        ok_line = 1
        responses.append(
            [changelog_group(1, "a.rs", (ok_line, ["fixme_ok"], ["fixed_ok"]))]
        )
        expected = content.replace("fixme_ok", "fixed_ok")
        expect_fixed = 1
        flavor = "stall"  # the seed's group then stalls

    if flavor == "stall":
        responses += [[edit("bad_seed", "aux_1")], ["no changelog, just prose"]]
    elif flavor == "backend":
        responses += [[edit("bad_seed", "aux_1")]]  # next request exhausts
    elif flavor == "blowup":
        max_unique = 3
        responses += [[edit("bad_seed", "aux_1")], [edit("aux_1", "aux_2")]]
    elif flavor == "oscillate":
        max_unique = 4
        responses += [
            [edit("bad_seed", "aux_1")],
            [edit("aux_1", "aux_2")],
            [edit("aux_2", "aux_1")],
            [edit("aux_1", "aux_2")],
        ]

    checker = PatternChecker(ws.root, rules)
    backend = SequenceBackend(responses)
    cfg = RunConfig(max_unique_errors=max_unique)
    report = Orchestrator(ws, checker, backend, cfg).fix_project()
    assert report.gave_up == 1, f"round {round_no} ({flavor}): {report.to_dict()}"
    assert report.fixed == expect_fixed
    got = (ws.root / "a.rs").read_text()
    assert got == expected, f"round {round_no} ({flavor}): tree not restored"


def test_c4_giveup_rollback(capsys, tmp_path):
    with verdict(capsys, 4, "give-up rollback"):
        rng = random.Random(2_718_281)
        for round_no in range(500):
            _giveup_round(tmp_path, rng, round_no)


# ----------------------------------------------------------------------
# 5. termination against a backend that always adds a fresh error
# ----------------------------------------------------------------------


def test_c5_adversarial_termination(capsys, tmp_path):
    with verdict(capsys, 5, "adversarial termination"):
        content = "tok0\ntok1\n"
        ws = make_ws(tmp_path, {"a.rs": content})
        chains = {
            1: ["tok0"] + [f"g1t{i:03d}" for i in range(1, 100)],
            2: ["tok1"] + [f"g2t{i:03d}" for i in range(1, 100)],
        }
        rules = [
            LineRule(f"E_{token}", f"problem {token}", token)
            for chain in chains.values()
            for token in chain
        ]
        responses = []
        for line_no, chain in ((1, chains[1]), (2, chains[2])):
            for prev, nxt in zip(chain, chain[1:]):
                responses.append(
                    [changelog_group(1, "a.rs", (line_no, [prev], [nxt]))]
                )

        checker = PatternChecker(ws.root, rules)
        backend = SequenceBackend(responses)
        log = RunLog()
        cfg = RunConfig()  # max_unique_errors defaults to 100
        report = Orchestrator(ws, checker, backend, cfg, log).fix_project()

        bound = report.initial_errors * cfg.max_unique_errors
        assert report.initial_errors == 2
        assert report.inner_iterations <= bound, (report.inner_iterations, bound)
        assert report.inner_iterations == 198  # 99 per group, then blow-up
        assert [e["reason"] for e in log.of("group_end")] == [GIVEUP_BLOWUP] * 2
        assert report.gave_up == 2
        assert (ws.root / "a.rs").read_text() == content  # both rolled back


# ----------------------------------------------------------------------
# 6. candidate ranking picks the completion with fewest residual errors
# ----------------------------------------------------------------------


def test_c6_completion_ranking(capsys):
    with verdict(capsys, 6, "completion ranking"):
        log = RunLog()
        result = verify_fixture(load_fixture(FIXTURES / "ranking-n3"), run_log=log)
        assert result.problems == []
        first = log.of("iteration")[0]
        assert first["completion_scores"] == [3, 1, 1]
        assert first["chosen_index"] == 1  # lowest residual, ties break low


# ----------------------------------------------------------------------
# 7. prompt ladder features; single-loop mode leaves no group records
# ----------------------------------------------------------------------


def test_c7_prompt_ladder_and_single_loop(capsys):
    with verdict(capsys, 7, "prompt ladder and single-loop mode"):
        texts = {v: format_instructions(v) for v in PromptVariant}
        assert "ChangeLog" not in texts[PromptVariant.P0]
        assert "snippet" in texts[PromptVariant.P0]
        assert "ChangeLog" in texts[PromptVariant.P1]
        assert "FixedCode" in texts[PromptVariant.P1]
        assert "[N]" not in texts[PromptVariant.P1]
        assert "OriginalCode" not in texts[PromptVariant.P1]
        assert "[N]" in texts[PromptVariant.P2]
        assert "OriginalCode" not in texts[PromptVariant.P2]
        assert "OriginalCode" in texts[PromptVariant.P3]
        assert "FixDescription" not in texts[PromptVariant.P3]
        assert "FixDescription" in texts[PromptVariant.P4]

        log = RunLog()
        result = verify_fixture(load_fixture(FIXTURES / "multi3"), run_log=log)
        assert result.problems == []
        assert result.report.initial_errors == 3 and result.report.all_fixed
        assert log.of("group_start") == [] and log.of("group_end") == []
        assert {r["mode"] for r in log.of("iteration")} == {"single"}


# ----------------------------------------------------------------------
# 8. failure classification (format/build/test) and rate rendering
# ----------------------------------------------------------------------


def test_c8_failure_classification_and_reporting(capsys):
    with verdict(capsys, 8, "failure classification and reporting"):
        for name, expected_class in (
            ("fail-format", "format"),
            ("fail-build", "build"),
            ("fail-test", "test"),
        ):
            result = verify_fixture(load_fixture(FIXTURES / "micro" / name))
            assert result.problems == [], (name, result.problems)
            assert result.report.failure_class() == expected_class

        assert format_rate(199, 270) == "73.70%"
        cases = [
            BenchmarkCase(
                fixture=Fixture(Path(f"c{i}"), f"c{i}", "fixed", "bulk"),
                matched=True,
                fixed=i < 199,
                failure_class=None,
            )
            for i in range(270)
        ]
        summary_text = render_summary(summarize(cases))
        assert summary_text.splitlines()[-1].split() == ["overall", "199", "270", "73.70%"]


# ----------------------------------------------------------------------
# 9. lint diagnostics fixed with explain-subcommand text in the prompts
# ----------------------------------------------------------------------


def test_c9_lint_explanations(capsys):
    with verdict(capsys, 9, "lint explanations"):
        log = RunLog()
        result = verify_fixture(load_fixture(FIXTURES / "lint-trio"), run_log=log)
        assert result.problems == []
        assert result.report.initial_errors == 3 and result.report.fixed == 3
        iterations = log.of("iteration")
        assert [r["target"]["code"] for r in iterations] == [
            "clippy::bool_comparison",
            "clippy::redundant_clone",
            "clippy::needless_return",
        ]
        assert all(r["explanation_source"] == "explain-command" for r in iterations)
