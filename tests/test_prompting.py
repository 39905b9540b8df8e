"""Prompt assembly, its budgets, and the P0..P4 output-format ladder."""

import hashlib
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fixloop import prompting
from fixloop.localization import Snippet, collect_locations, extract_snippets, number_lines
from fixloop.prompting import (
    PromptVariant,
    build_prompt,
    default_template,
    format_instructions,
    instantiate_prompt,
    instructions_tail,
)

from conftest import make_diag, make_ws

CMD = "cargo check"


def body(n):
    return "".join(f"line {i}\n" for i in range(1, n + 1))


def snip(file="src/a.rs", lo=1, hi=2, lines=("alpha", "beta")):
    return Snippet(file, lo, hi, number_lines(list(lines), lo))


def test_variant_parse_accepts_case_insensitive_names():
    assert PromptVariant.parse("p3") is PromptVariant.P3
    assert PromptVariant.parse("P0") is PromptVariant.P0
    with pytest.raises(ValueError, match="unknown prompt variant"):
        PromptVariant.parse("P5")


def test_variants_are_ordered():
    assert PromptVariant.P0 < PromptVariant.P2 < PromptVariant.P4


def test_ladder_each_rung_adds_one_feature():
    texts = {v: format_instructions(v) for v in PromptVariant}

    # P0: whole snippets, no changelog vocabulary at all
    assert "ChangeLog" not in texts[PromptVariant.P0]
    assert "snippet" in texts[PromptVariant.P0]

    # P1: changelog + FixedCode, but no [N] prefixes, no OriginalCode
    assert "ChangeLog" in texts[PromptVariant.P1]
    assert "FixedCode" in texts[PromptVariant.P1]
    assert "[N]" not in texts[PromptVariant.P1]
    assert "OriginalCode" not in texts[PromptVariant.P1]

    # P2: [N] prefixes appear, still no OriginalCode
    assert "[N]" in texts[PromptVariant.P2]
    assert "OriginalCode" not in texts[PromptVariant.P2]

    # P3: OriginalCode/FixedCode pairs, no description yet
    assert "OriginalCode" in texts[PromptVariant.P3]
    assert "FixDescription" not in texts[PromptVariant.P3]

    # P4: adds the per-group description
    assert "FixDescription" in texts[PromptVariant.P4]
    assert "description" in texts[PromptVariant.P4]


def test_example_skeleton_shape_tracks_variant():
    p4 = format_instructions(PromptVariant.P4)
    assert "ChangeLog:1@<file>" in p4
    assert "ChangeLog:K@<file>" in p4
    assert "FixDescription: <summary" in p4
    assert "OriginalCode@4-6:" in p4
    assert "FixedCode@9-9:" in p4
    assert "[4] <white space> <original code line>" in p4

    p2 = format_instructions(PromptVariant.P2)
    assert "OriginalCode" not in p2
    assert "[15] <white space> <fixed code line>" in p2

    p1 = format_instructions(PromptVariant.P1)
    assert "FixedCode@15-17:" in p1
    assert "[15]" not in p1  # plain lines on the lowest changelog rung

    assert "---" not in format_instructions(PromptVariant.P0)  # no example block


def test_instructions_tail_switches_on_variant():
    assert "revised code snippets" in instructions_tail(PromptVariant.P0)
    assert "ChangeLog groups" in instructions_tail(PromptVariant.P4)


# sha256 of (format_instructions, instructions_tail) per rung: every
# recorded replay digest hashes a prompt that contains both texts
_FORMAT_TEXT_SHA256 = {
    PromptVariant.P0: ("a9a78479ccba71f4b8ae236ac4ed8315bc22cb3f52da82ca02ae058c61aa3f27",
                       "a3bda192182f81b25d8f2f7c6d720df99b285a0a71314c9e23eca03c8f731d35"),
    PromptVariant.P1: ("391c9486ec1dd9722df5b0a294342c9b505db57dd085249eede2befb98c23e55",
                       "49bb6b1f89f4707481de12134d224b4e933dd2f6a42b3cb43b7cd9adad1e7f65"),
    PromptVariant.P2: ("3cb7a6ca069c7af93b2548353b2a97e389d3cc000ba39c94b9e08d8a5f4d8a09",
                       "49bb6b1f89f4707481de12134d224b4e933dd2f6a42b3cb43b7cd9adad1e7f65"),
    PromptVariant.P3: ("de26308f8214f85a37c68c1f20ae52e820aff35a4b7183ab23a7efbe049d90f5",
                       "49bb6b1f89f4707481de12134d224b4e933dd2f6a42b3cb43b7cd9adad1e7f65"),
    PromptVariant.P4: ("b82130536a59b32578dfacc20738e9c598ce6d5897415c18326cefefd48e1f30",
                       "49bb6b1f89f4707481de12134d224b4e933dd2f6a42b3cb43b7cd9adad1e7f65"),
}


@pytest.mark.parametrize("variant", list(PromptVariant), ids=lambda v: v.name)
def test_format_texts_are_pinned(variant):
    texts = (format_instructions(variant), instructions_tail(variant))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts)
    assert digests == _FORMAT_TEXT_SHA256[variant]


def test_instantiate_fills_every_hole():
    d = make_diag("E0308", "mismatched types", "src/a.rs", 1)
    p = instantiate_prompt(d, "", [snip()], PromptVariant.P4, CMD)
    for hole in ("{cmd}", "{lang}", "{ext}", "{error_block}", "{code_snippets}",
                 "{instructions_tail}", "{format_instructions}"):
        assert hole not in p.text
    assert "running 'cargo check'" in p.text
    assert "Rust code" in p.text
    assert "'.rs' files" in p.text
    assert "src/a.rs@1-2:\n[1] alpha\n[2] beta" in p.text
    assert p.text.rstrip().endswith("Answer:")
    assert p.snippet_index == {"src/a.rs": [(1, 2)]}


def test_literal_braces_in_code_survive():
    d = make_diag("E0308", "mismatched types", "src/a.rs", 1)
    s = snip(lines=("fn main() {", "}"))
    p = instantiate_prompt(d, "", [s], PromptVariant.P4, CMD)
    assert "[1] fn main() {" in p.text
    assert "[2] }" in p.text


def test_explanation_identical_to_rendering_shown_once():
    d = make_diag("E0308", "mismatched types", "src/a.rs", 1)
    rendered = d.rendered.rstrip("\n")
    p = instantiate_prompt(d, d.rendered, [snip()], PromptVariant.P4, CMD)
    assert p.text.count(rendered) == 1


def test_distinct_explanation_appended_after_rendering():
    d = make_diag("E0308", "mismatched types", "src/a.rs", 1)
    p = instantiate_prompt(d, "An in-depth explanation.", [snip()], PromptVariant.P4, CMD)
    assert f"{d.rendered.rstrip()}\nAn in-depth explanation.\n---" in p.text


def test_custom_template_and_language_knobs():
    d = make_diag("W1", "warn", "a.py", 1)
    p = instantiate_prompt(
        d, "", [snip(file="a.py")], PromptVariant.P1, "pylint",
        language="Python", extension=".py",
        template="CMD={cmd} LANG={lang} EXT={ext}",
    )
    assert p.text == "CMD=pylint LANG=Python EXT=.py"


def test_build_prompt_returns_none_without_indexed_locations(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "x\n"})
    d = make_diag("E1", "m", "Cargo.toml", 1)  # not an indexed extension
    assert build_prompt(ws, d, "", PromptVariant.P4, CMD) is None


def test_build_prompt_shrinks_to_fit_char_budget(tmp_path, monkeypatch):
    code = "\n".join(f"let x{i} = {i};" for i in range(1, 201)) + "\n"
    ws = make_ws(tmp_path, {"a.rs": code, "b.rs": code})
    d = make_diag("E1", "m", "a.rs", 100, related=[("b.rs", 100, 100, None)])

    wide = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=20)
    assert set(wide.snippet_index) == {"a.rs", "b.rs"}

    # budget chosen to force dropping the related location but not the primary
    monkeypatch.setattr(prompting, "CHAR_BUDGET", len(format_instructions(PromptVariant.P4)) + 1600)
    tight = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=20)
    assert set(tight.snippet_index) == {"a.rs"}

    # absurdly small budget still yields the primary-only prompt
    monkeypatch.setattr(prompting, "CHAR_BUDGET", 10)
    floor = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=20)
    assert floor is not None and set(floor.snippet_index) == {"a.rs"}


def test_budget_truncates_trailing_locations_not_primary(tmp_path, monkeypatch):
    ws = make_ws(tmp_path, {f"f{i}.rs": body(30) for i in range(6)})
    d = make_diag("E1", "m", "f0.rs", 15, related=[(f"f{i}.rs", 15, 15, None) for i in range(1, 6)])
    monkeypatch.setattr(prompting, "MAX_SNIPPETS", 3)
    p = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=3)
    assert list(p.snippet_index) == ["f0.rs", "f1.rs", "f2.rs"]


def test_line_budget_truncates_but_oversized_primary_survives(tmp_path, monkeypatch):
    ws = make_ws(tmp_path, {"a.rs": body(200), "b.rs": body(200)})
    d = make_diag("E1", "m", "a.rs", 100, related=[("b.rs", 100, 100, None)])
    monkeypatch.setattr(prompting, "MAX_TOTAL_LINES", 100)
    p = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=40)
    assert list(p.snippet_index) == ["a.rs"]
    # even a single window larger than the whole budget is returned
    monkeypatch.setattr(prompting, "MAX_TOTAL_LINES", 10)
    only = build_prompt(ws, make_diag("E1", "m", "a.rs", 100), "", PromptVariant.P4, CMD, window=80)
    assert only.snippet_index == {"a.rs": [(20, 180)]}  # 161 lines
    assert "[20] line 20\n" in only.text and "[180] line 180\n" in only.text


def _nested_loops_prompt(ws, diag, window, max_snippets, max_total_lines, char_budget):
    """The two nested truncation loops ``build_prompt`` replaced: the
    outer one drops trailing locations until the text fits the character
    budget, and snippet extraction drops them again until the snippet and
    line budgets hold."""

    def extract(locations):
        for keep in range(len(locations), 0, -1):
            snippets = extract_snippets(ws, locations[:keep], window)
            if len(snippets) <= max_snippets and sum(s.line_count for s in snippets) <= max_total_lines:
                return snippets
        return extract_snippets(ws, locations[:1], window)

    locations = collect_locations(diag, ws)
    for keep in range(len(locations), 0, -1):
        prompt = instantiate_prompt(diag, "", extract(locations[:keep]), PromptVariant.P4, CMD)
        if len(prompt.text) <= char_budget or keep == 1:
            return prompt
    return None


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 130)), min_size=1, max_size=9),
    window=st.integers(min_value=0, max_value=30),
    max_snippets=st.integers(min_value=1, max_value=6),
    max_total_lines=st.integers(min_value=1, max_value=200),
    extra_chars=st.integers(min_value=0, max_value=4000),
)
def test_one_budget_loop_picks_what_the_nested_loops_picked(
    tmp_path_factory, sizes, picks, window, max_snippets, max_total_lines, extra_chars
):
    ws = make_ws(tmp_path_factory.mktemp("budget"), {f"f{i}.rs": body(n) for i, n in enumerate(sizes)})
    spans = [(f"f{i % len(sizes)}.rs", line) for i, line in picks]
    (file, line), related = spans[0], [(f, n, n, None) for f, n in spans[1:]]
    d = make_diag("E1", "m", file, line, related=related)
    char_budget = len(instantiate_prompt(d, "", [], PromptVariant.P4, CMD).text) + extra_chars
    expected = _nested_loops_prompt(ws, d, window, max_snippets, max_total_lines, char_budget)
    budgets = dict(MAX_SNIPPETS=max_snippets, MAX_TOTAL_LINES=max_total_lines, CHAR_BUDGET=char_budget)
    with mock.patch.multiple(prompting, **budgets):
        got = build_prompt(ws, d, "", PromptVariant.P4, CMD, window=window)
    assert (got.text, got.snippet_index) == (expected.text, expected.snippet_index)


def test_default_template_resource_loads():
    text = default_template()
    assert "{error_block}" in text and "{format_instructions}" in text
    assert "Instructions: Fix the error" in text
