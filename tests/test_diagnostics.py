"""Parsing checker JSON into Diagnostic values, and key/dedup semantics."""

import json
from pathlib import Path

import pytest

from fixloop.checker import CheckerProfile, SubprocessChecker
from fixloop.diagnostics import (
    Diagnostic,
    ErrorKey,
    SourceSpan,
    dedup_and_sort,
    parse_checker_output,
    parse_record,
    unique_keys,
)

from conftest import make_diag

DATA = Path(__file__).parent / "data" / "checker_output"
ROOT = Path("/work/project")


def _load_manifest():
    return json.loads((DATA / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(_load_manifest()))
def test_corpus_counts_and_keys(name):
    expected = _load_manifest()[name]
    diags = parse_checker_output((DATA / name).read_text(), ROOT)
    assert len(diags) == expected["raw"]
    deduped = dedup_and_sort(diags)
    assert len(deduped) == expected["deduped"]
    got = [[d.key.code, d.key.message, d.key.file] for d in deduped]
    assert got == expected["keys"]


def test_cargo_envelope_unwrapped():
    diags = parse_checker_output((DATA / "cargo_envelope.jsonl").read_text(), ROOT)
    by_code = {d.code: d for d in diags}
    assert set(by_code) == {"E0308", "unused_variables"}
    err = by_code["E0308"]
    assert err.level == "error"
    assert err.primary_span == SourceSpan(
        "src/main.rs", 3, 3, "expected `u32`, found `&str`", False
    )
    assert by_code["unused_variables"].level == "warning"


@pytest.mark.parametrize("char", ["\u2028", "\x85"])
def test_a_record_quoting_a_raw_unicode_line_separator_is_parsed(char):
    # serde_json leaves U+2028 and U+0085 unescaped; neither ends a line
    source = f'let s = "a{char}b"; let n: u32 = s;'
    message = {
        "message": "mismatched types",
        "code": {"code": "E0308", "explanation": None},
        "level": "error",
        "spans": [{"file_name": "src/main.rs", "line_start": 3, "line_end": 3, "is_primary": True, "text": [{"text": source}]}],
        "children": [],
        "rendered": f"error[E0308]: mismatched types\n --> src/main.rs:3:1\n3 | {source}\n",
    }
    envelope = {"reason": "compiler-message", "package_id": "area 0.1.0", "message": message}
    text = json.dumps(envelope, ensure_ascii=False) + "\n" + json.dumps(envelope) + "\n"
    assert char in text
    diags = parse_checker_output(text, ROOT)
    assert len(diags) == 2 and diags[0] == diags[1]
    assert source in diags[0].rendered


def test_code_may_be_plain_string():
    rec = {
        "message": "m",
        "code": "E0999",
        "level": "error",
        "spans": [{"file_name": "a.rs", "line_start": 1, "is_primary": True}],
    }
    diag = parse_record(rec, ROOT)
    assert diag is not None and diag.code == "E0999"


def test_empty_code_becomes_none_and_key_uses_empty_string():
    rec = {
        "message": "m",
        "code": {"code": "", "explanation": None},
        "level": "error",
        "spans": [{"file_name": "a.rs", "line_start": 1, "is_primary": True}],
    }
    diag = parse_record(rec, ROOT)
    assert diag is not None
    assert diag.code is None
    assert diag.key == ErrorKey("", "m", "a.rs")


def test_related_spans_include_children_with_child_message_as_label():
    diags = parse_checker_output((DATA / "rustc_plain.jsonl").read_text(), ROOT)
    moved = next(d for d in diags if d.code == "E0382" and d.related_spans)
    labels = [s.label for s in moved.related_spans]
    assert labels == [
        "value moved here",
        "consider cloning the value if the performance cost is acceptable",
    ]
    assert all(s.file == "src/lib.rs" and s.line_start == 7 for d in [moved] for s in d.related_spans)


def test_span_own_label_wins_over_child_message():
    rec = {
        "message": "m",
        "code": "E0001",
        "level": "error",
        "spans": [{"file_name": "a.rs", "line_start": 2, "is_primary": True}],
        "children": [
            {
                "message": "child note",
                "level": "note",
                "spans": [
                    {"file_name": "a.rs", "line_start": 5, "is_primary": True, "label": "own label"}
                ],
            }
        ],
    }
    diag = parse_record(rec, ROOT)
    assert diag.related_spans[0].label == "own label"


def test_spanless_summary_record_is_dropped():
    rec = {"message": "aborting due to previous error", "code": None, "level": "error", "spans": []}
    assert parse_record(rec, ROOT) is None


def test_non_message_cargo_reasons_are_dropped():
    for reason in ("compiler-artifact", "build-finished", "build-script-executed"):
        assert parse_record({"reason": reason}, ROOT) is None


def test_rendered_synthesized_when_missing_or_blank():
    for rendered in (None, "", "   \n"):
        rec = {
            "message": "expected `;`",
            "code": "E0999",
            "level": "error",
            "spans": [{"file_name": "src/x.rs", "line_start": 4, "is_primary": True}],
        }
        if rendered is not None:
            rec["rendered"] = rendered
        diag = parse_record(rec, ROOT)
        assert diag.rendered == "error[E0999]: expected `;`\n --> src/x.rs:4\n"


def test_absolute_path_under_root_relativized():
    rec = {
        "message": "m",
        "code": "E1",
        "level": "error",
        "spans": [
            {"file_name": str(ROOT / "src" / "deep" / "mod.rs"), "line_start": 2, "is_primary": True}
        ],
    }
    diag = parse_record(rec, ROOT)
    assert diag.primary_span.file == "src/deep/mod.rs"
    assert diag.primary_span.external is False


def test_absolute_path_outside_root_marked_external():
    rec = {
        "message": "m",
        "code": "E1",
        "level": "error",
        "spans": [{"file_name": "/usr/lib/rustlib/core.rs", "line_start": 1, "is_primary": True}],
    }
    diag = parse_record(rec, ROOT)
    assert diag.primary_span.external is True
    assert diag.primary_span.file == "/usr/lib/rustlib/core.rs"


def test_garbage_lines_never_raise():
    text = (DATA / "mixed_garbage.txt").read_text()
    diags = parse_checker_output(text, ROOT)
    assert [d.message for d in diags] == ["expected one of `,` or `}`"]
    assert diags[0].primary_span.file == "src/parse.rs"  # "./" prefix stripped


def test_key_ignores_line_numbers():
    a = make_diag("E0308", "mismatched types", "src/main.rs", 3)
    b = make_diag("E0308", "mismatched types", "src/main.rs", 40)
    assert a.key == b.key
    assert a.key == ErrorKey("E0308", "mismatched types", "src/main.rs")


def test_key_brief_falls_back_to_message_prefix():
    keyed = make_diag("E0308", "mismatched types", "src/main.rs", 3).key
    codeless = make_diag(None, "x" * 60, "src/main.rs", 3).key
    assert keyed.brief() == "E0308@src/main.rs"
    assert codeless.brief() == "x" * 40 + "@src/main.rs"


def test_dedup_drops_same_key_same_line_only():
    a = make_diag("E1", "m", "f.rs", 3)
    twin = make_diag("E1", "m", "f.rs", 3)
    moved = make_diag("E1", "m", "f.rs", 9)
    assert dedup_and_sort([a, twin, moved]) == [a, moved]


def test_sort_order_file_then_line_then_code():
    d1 = make_diag("E2", "m", "b.rs", 1)
    d2 = make_diag("E1", "m", "b.rs", 1)
    d3 = make_diag("E9", "m", "a.rs", 50)
    d4 = make_diag(None, "m", "b.rs", 1)
    assert dedup_and_sort([d1, d2, d3, d4]) == [d3, d4, d2, d1]


def test_unique_keys_first_appearance_order():
    d1 = make_diag("E2", "m", "b.rs", 5)
    d2 = make_diag("E1", "m", "a.rs", 1)
    d3 = make_diag("E2", "m", "b.rs", 9)  # same key as d1
    assert unique_keys([d1, d2, d3]) == [d1.key, d2.key]


def test_run_checker_through_a_real_subprocess(tmp_path):
    out = tmp_path / "report.jsonl"
    out.write_text((DATA / "cargo_envelope.jsonl").read_text())
    profile = CheckerProfile(
        name="cat",
        command=("cat", "{root}/report.jsonl"),
        structured_flag=None,
        fix_levels=frozenset({"error", "warning"}),
    )
    checker = SubprocessChecker(profile, tmp_path)
    diags = checker.check()
    assert [d.code for d in diags] == ["unused_variables", "E0308"]
