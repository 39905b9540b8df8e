"""Tests of the benchmark itself: seeded inputs, the stand-in model, the
reference outcome model, and the metric lists in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen_bigtree  # noqa: E402
import gen_cargo  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
from standin import MALFORMED, AnswerTable  # noqa: E402
from tracing import Recorder, layer_metrics  # noqa: E402


def _written(generator, seed: int, out: Path) -> dict:
    synth.write_case(generator.generate(seed), out)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("generator", [gen_bigtree, gen_cargo])
def test_same_seed_gives_byte_identical_inputs(generator, tmp_path):
    first = _written(generator, 7, tmp_path / "a")
    second = _written(generator, 7, tmp_path / "b")
    assert first == second
    other = _written(generator, 8, tmp_path / "c")
    assert set(other) != set(first) or any(other[p] != first[p] for p in first)


@pytest.mark.parametrize("generator", [gen_bigtree, gen_cargo])
def test_every_behaviour_and_the_fixed_visit_shape(generator):
    for seed in range(5):
        case = generator.generate(seed)
        order = [d.behaviour for d in sorted(case.defects, key=lambda d: d.position)]
        assert sorted(order[:4]) == sorted(synth.BEHAVIOURS[:4])
        assert order[4] == synth.PERSISTS
        assert [d.file for d in sorted(case.defects, key=lambda d: d.position)] == sorted(
            d.file for d in case.defects
        )
        assert case.expected.fixed == 3


def test_expectation_follows_the_attempt_budget():
    def defect(pos, behaviour):
        return synth.Defect(f"f{pos}.rs", 3, behaviour, f"t{pos}", "    clean;", pos)

    behaviours = [synth.PERSISTS, synth.FIRST_TRY, synth.NO_PROGRESS]
    defects = [defect(i + 1, b) for i, b in enumerate(behaviours)]
    exp = synth.expectation(defects, lambda d: {"file": d.file})
    # the persisting defect takes all three attempts: A -> A1 -> A2 -> A1
    assert exp.final_lines["f1.rs"] == defects[0].persisting(1)
    assert exp.final_lines["f2.rs"] == defects[1].broken
    assert [o["outcome"] for o in exp.outcomes] == ["gave-up"] * 3


def _prompt(file: str, line: int, text: str) -> str:
    return (
        "error[E0425]: cannot find value\n"
        f"  --> {file}:{line}:9\n---\n"
        f"{file}@{line - 1}-{line + 1}:\n[{line - 1}] fn f() {{\n[{line}] {text}\n[{line + 1}] }}\n\n"
        "Format instructions\n[4] <white space> <original code line>\n"
    )


def test_standin_answers_attributed_prompts_and_rejects_the_rest():
    case = gen_bigtree.generate(3)
    table = AnswerTable(json.loads(json.dumps(case.answer_table())))
    ranked = next(d for d in case.defects if d.behaviour == synth.RANKED_MIX)
    texts = table.respond(_prompt(ranked.file, ranked.line, ranked.broken), 3)
    assert texts[0] == MALFORMED
    assert f"[{ranked.line}] {ranked.clean}" in texts[2]
    assert f"OriginalCode@{ranked.line}-{ranked.line}:\n[{ranked.line}] {ranked.broken}" in texts[2]
    assert table.respond(_prompt(ranked.file, ranked.line, "    unknown;"), 2) == [MALFORMED] * 2
    assert table.unattributed == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([1.0, 5.0, 3.0]) == (5.0, 100.0, 3)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    rec = Recorder()
    rec.spans = [["fixtures.run_fixture", 0.0, 1.0, -1, "c"]]
    names = set(layer_metrics(rec, 0.0, 0, 0.0)) | {"spurious_rewrites", "failed_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
