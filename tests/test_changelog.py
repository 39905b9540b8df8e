"""The changelog wire format: parsing, validation, rendering, rejection."""

import json
import random
from dataclasses import asdict
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fixloop.changelog import (
    REASONS,
    ChangeLog,
    CodeSegment,
    FormatError,
    parse_response,
    parse_snippet_response,
    render_changelog,
    validate,
)
from fixloop.prompting import PromptVariant

from conftest import make_ws

REPO = Path(__file__).parent.parent
MALFORMED = Path(__file__).parent / "data" / "malformed"
PINNED = Path(__file__).parent / "data" / "changelog_results.jsonl"
CANONICAL = REPO / "fixtures" / "micro" / "so-e0515" / "replay" / "0_0.txt"

P0_INDEX = {"src/example.rs": [(1, 10), (15, 20)]}


@pytest.fixture
def ref_ws(tmp_path):
    """Thirty known lines; the malformed corpus addresses these."""
    files = {
        "src/example.rs": "".join(f"let v{n} = {n};\n" for n in range(1, 31)),
        "README.md": "docs\n",
    }
    return make_ws(tmp_path, files)


# ----------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------


def test_canonical_response_parses_to_exact_structure():
    groups = parse_response(CANONICAL.read_text(), PromptVariant.P4)
    assert isinstance(groups, list) and len(groups) == 1
    g = groups[0]
    assert g.id == 1
    assert g.file == "src/example.rs"
    assert g.fix_description == (
        "Change the return type of the 'get' method to return an\n"
        "Arc<Bar> and wrap the Bar in an Arc when inserting it into the HashMap."
    )
    assert len(g.pairs) == 1
    original, fixed = g.pairs[0]
    assert (original.declared_start, original.declared_end) == (19, 23)
    assert (fixed.declared_start, fixed.declared_end) == (19, 24)
    assert [n for n, _ in original.lines] == [19, 20, 21, 22, 23]
    assert [n for n, _ in fixed.lines] == [19, 20, 21, 22, 23, 24]
    assert original.texts()[1] == "  pub fn get(&self, key: String) -> &Bar {"
    assert fixed.texts()[1] == "  pub fn get(&self, key: String) -> std::sync::Arc<Bar> {"
    assert fixed.texts()[3] == "      || std::sync::Arc::new(Bar::new())).clone()"


def test_plain_and_decorated_spellings_parse_identically():
    plain = (
        "ChangeLog:1@src/a.rs\n"
        "FixDescription: swap.\n"
        "OriginalCode@4-4:\n[4] old\n"
        "FixedCode@4-4:\n[4] new"
    )
    decorated = plain.replace("OriginalCode@", "<@OriginalCode@>@").replace(
        "FixedCode@", "<@FixedCode@>@"
    ).replace("ChangeLog:", "<@ChangeLog@>:").replace("FixDescription:", "<@FixDescription@>:")
    assert parse_response(plain) == parse_response(decorated)


def test_prose_tolerated_before_between_and_after_groups():
    text = (
        "Sure, here is the fix you asked for.\n\n"
        "ChangeLog:1@src/a.rs\n"
        "OriginalCode@2-2:\n[2] old\n"
        "FixedCode@2-2:\n[2] new\n\n"
        "The second file needs a tweak as well.\n\n"
        "ChangeLog:2@src/b.rs\n"
        "OriginalCode@7-7:\n[7] old\n"
        "FixedCode@7-7:\n[7] new\n\n"
        "Let me know if anything else comes up!\n"
    )
    groups = parse_response(text)
    assert [(g.id, g.file) for g in groups] == [(1, "src/a.rs"), (2, "src/b.rs")]


@pytest.mark.parametrize(
    "stray", ["FixedCode@1-2:", "ChangeLog:one@src/main.rs", "[3] stray", "FixDescription: x"]
)
def test_stray_structure_is_skipped_before_the_first_group_only(stray):
    group = "ChangeLog:1@src/a.rs\nOriginalCode@2-2:\n[2] old\nFixedCode@2-2:\n[2] new\n"
    assert [g.id for g in parse_response(f"{stray}\n{group}")] == [1]
    after = parse_response(f"{group}prose\n{stray}\n")
    if stray.startswith("["):
        assert [g.id for g in after] == [1]  # between groups, a [N] line is prose
    else:
        assert (after.reason, after.line_no) == ("bad-header", 7)


def test_fix_description_spans_multiple_lines_until_structure():
    text = (
        "ChangeLog:3@src/a.rs\n"
        "FixDescription: first line of the description\n"
        "continues on a second line.\n"
        "\n"
        "OriginalCode@1-1:\n[1] x\n"
        "FixedCode@1-1:\n[1] y"
    )
    (g,) = parse_response(text)
    assert g.fix_description == "first line of the description\ncontinues on a second line."


def test_p1_raw_lines_get_synthesized_numbers():
    text = "ChangeLog:1@src/a.rs\nFixedCode@4-6:\nlet a = 1;\nlet b = 2;\nlet c = 3;"
    (g,) = parse_response(text, PromptVariant.P1)
    implicit, fixed = g.pairs[0]
    assert implicit.lines == [] and (implicit.declared_start, implicit.declared_end) == (4, 6)
    assert fixed.lines == [(4, "let a = 1;"), (5, "let b = 2;"), (6, "let c = 3;")]


def test_p2_fixed_only_pairs_with_checked_prefixes():
    text = "ChangeLog:1@src/a.rs\nFixedCode@4-5:\n[4] let a = 1;\n[5] let b = 2;"
    (g,) = parse_response(text, PromptVariant.P2)
    implicit, fixed = g.pairs[0]
    assert implicit.lines == []
    assert fixed.texts() == ["let a = 1;", "let b = 2;"]


def test_empty_fixedcode_section_means_deletion():
    text = (
        "ChangeLog:1@src/a.rs\n"
        "OriginalCode@4-5:\n[4] dead\n[5] code\n"
        "FixedCode@4-5:"
    )
    (g,) = parse_response(text)
    _, fixed = g.pairs[0]
    assert fixed.lines == []


def test_multiple_pairs_per_group_kept_in_order():
    text = (
        "ChangeLog:1@src/a.rs\n"
        "OriginalCode@2-2:\n[2] a\nFixedCode@2-2:\n[2] A\n"
        "OriginalCode@9-9:\n[9] b\nFixedCode@9-9:\n[9] B"
    )
    (g,) = parse_response(text)
    assert [(o.declared_start, f.declared_start) for o, f in g.pairs] == [(2, 2), (9, 9)]


def test_a_fixed_line_holding_a_raw_unicode_line_separator_parses_whole():
    text = 'ChangeLog:1@src/a.rs\nOriginalCode@1-1:\n[1] let s = "ab";\nFixedCode@1-1:\n[1] let s = "a\u2028b";\n'
    (g,) = parse_response(text, PromptVariant.P4)
    assert g.pairs[0][1].texts() == ['let s = "a\u2028b";']
    (rep,) = parse_snippet_response('src/example.rs@1-10:\nlet s = "a\u2028b";\r\n', P0_INDEX)
    assert rep.lines == ['let s = "a\u2028b";']


def test_parse_response_refuses_p0_variant():
    with pytest.raises(ValueError, match="whole snippets"):
        parse_response("anything", PromptVariant.P0)


# ----------------------------------------------------------------------
# validation against a workspace
# ----------------------------------------------------------------------


def _group(pairs, file="src/example.rs"):
    built = []
    for a, b, texts in pairs:
        original = CodeSegment(a, b, [(a + i, t) for i, t in enumerate(texts)])
        built.append((original, CodeSegment(a, b, [(a, "replacement")])))
    return ChangeLog(1, file, "", built)


def test_validate_accepts_matching_original(ref_ws):
    g = _group([(3, 4, ["let v3 = 3;", "let v4 = 4;"])])
    assert validate(g, ref_ws) is None


def test_validate_ignores_trailing_whitespace_only(ref_ws):
    g = _group([(3, 3, ["let v3 = 3;   "])])
    assert validate(g, ref_ws) is None


def test_validate_requires_exact_indentation(ref_ws):
    g = _group([(3, 3, ["  let v3 = 3;"])])
    err = validate(g, ref_ws)
    assert err is not None and err.reason == "original-mismatch"


def test_format_error_str_mentions_reason_and_line():
    err = FormatError("bad-header", "oops", 7)
    assert str(err) == "bad-header: oops (response line 7)"
    assert str(FormatError("overlap", "x")) == "overlap: x"


def test_format_error_rejects_unknown_reason():
    with pytest.raises(AssertionError):
        FormatError("novel-reason", "x")


# ----------------------------------------------------------------------
# the malformed corpus: every case rejected for the right reason
# ----------------------------------------------------------------------


def _corpus():
    return json.loads((MALFORMED / "manifest.json").read_text())


def reject_reason(text, variant, ws):
    """Full rejection pipeline: parse, then validate each group."""
    if variant is PromptVariant.P0:
        result = parse_snippet_response(text, P0_INDEX)
    else:
        result = parse_response(text, variant)
        if isinstance(result, list):
            for g in result:
                err = validate(g, ws)
                if err is not None:
                    result = err
                    break
    return result.reason if isinstance(result, FormatError) else None


def test_corpus_has_fifty_cases_covering_every_reason():
    manifest = _corpus()
    assert len(manifest) == 50
    assert {meta["reason"] for meta in manifest.values()} == set(REASONS)


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_malformed_case_rejected_with_expected_reason(name, ref_ws):
    meta = _corpus()[name]
    text = (MALFORMED / name).read_text()
    got = reject_reason(text, PromptVariant.parse(meta["variant"]), ref_ws)
    assert got == meta["reason"], f"{name}: expected {meta['reason']}, got {got}"


def _pinned_results():
    with PINNED.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_parse_results_match_the_pinned_file():
    # scripts/pin_changelog_results.py writes the file; a deliberate
    # format change refreshes it there, and the diff shows what moved
    records = _pinned_results()
    assert len(records) >= 300
    for k, record in enumerate(records):
        result = parse_response(record["text"], PromptVariant.parse(record["variant"]))
        got = [asdict(g) for g in result] if isinstance(result, list) else asdict(result)
        assert json.loads(json.dumps(got)) == record["result"], f"record {k}: {record['text']!r}"


# ----------------------------------------------------------------------
# P0 snippet responses
# ----------------------------------------------------------------------


def test_snippet_response_round_trip_with_trailing_blank_strip():
    text = (
        "src/example.rs@1-10:\n"
        "line one\nline two\n\n\n"
        "src/example.rs@15-20:\n"
        "other\n"
    )
    reps = parse_snippet_response(text, P0_INDEX)
    assert [(r.file, r.start, r.end) for r in reps] == [
        ("src/example.rs", 1, 10),
        ("src/example.rs", 15, 20),
    ]
    assert reps[0].lines == ["line one", "line two"]
    assert reps[1].lines == ["other"]


def test_snippet_response_without_any_header_is_missing_section():
    err = parse_snippet_response("no headers here\n", P0_INDEX)
    assert isinstance(err, FormatError) and err.reason == "missing-section"


# ----------------------------------------------------------------------
# rendering and fuzzing
# ----------------------------------------------------------------------


def test_render_inverts_parse_for_the_canonical_group():
    (g,) = parse_response(CANONICAL.read_text())
    assert parse_response(render_changelog(g)) == [g]


_row_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
_desc = st.text(alphabet="abcdefghij KLM", min_size=1, max_size=30).map(str.strip).filter(bool)


@st.composite
def _groups(draw):
    count = draw(st.integers(1, 3))
    out = []
    for gid in range(1, count + 1):
        pairs = []
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.integers(1, 60))
            b = a + draw(st.integers(0, 3))
            original = CodeSegment(a, b, [(n, draw(_row_text)) for n in range(a, b + 1)])
            k = draw(st.integers(0, 4))
            if k == 0:
                fixed = CodeSegment(a, a, [])
            else:
                fixed = CodeSegment(a, a + k - 1, [(a + i, draw(_row_text)) for i in range(k)])
            pairs.append((original, fixed))
        out.append(ChangeLog(gid, "src/a.rs", draw(_desc), pairs))
    return out


@settings(max_examples=80, deadline=None)
@given(_groups())
def test_render_parse_round_trip_property(groups):
    text = "\n".join(render_changelog(g) for g in groups)
    assert parse_response(text, PromptVariant.P4) == groups


def test_fuzzed_responses_never_raise_smoke():
    rng = random.Random(20240817)
    fragments = [
        "ChangeLog:", "@src/a.rs", "OriginalCode@", "FixedCode@", "<@", "@>",
        "[3] code", "1-2:", ":", "\n", " ", "FixDescription:", "prose words",
        "[", "]", "@", "0-0", "99", "\t",
    ]
    for _ in range(400):
        text = "".join(rng.choice(fragments) for _ in range(rng.randrange(0, 30)))
        variant = rng.choice([PromptVariant.P1, PromptVariant.P2, PromptVariant.P3, PromptVariant.P4])
        result = parse_response(text, variant)
        assert isinstance(result, (list, FormatError))
        snip = parse_snippet_response(text, P0_INDEX)
        assert isinstance(snip, (list, FormatError))


def test_example_skeleton_from_the_prompt_parses_once_ids_are_concrete():
    from fixloop.prompting import format_instructions

    skeleton = format_instructions(PromptVariant.P4).split("---\n", 1)[1]
    groups = parse_response(skeleton.replace("ChangeLog:K@", "ChangeLog:2@"))
    assert isinstance(groups, list) and len(groups) >= 2
    assert [g.id for g in groups] == [1, 2]
    assert [len(g.pairs) for g in groups] == [2, 2]
