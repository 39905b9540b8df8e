"""Window extraction and merging around diagnostic locations."""

import hypothesis.strategies as st
from hypothesis import given, settings

from fixloop.localization import (
    Snippet,
    collect_locations,
    extract_snippets,
    number_lines,
)
from fixloop.diagnostics import SourceSpan

from conftest import make_diag, make_ws


def _numbered(ws, file, lo, hi):
    return number_lines(ws.read_lines(file, lo, hi), lo)


def body(n, stem="line"):
    return "\n".join(f"{stem} {i}" for i in range(1, n + 1)) + "\n"


def test_window_clamped_to_file_bounds(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(10)})
    snips = extract_snippets(ws, [("a.rs", 2)], window=3)
    assert len(snips) == 1
    s = snips[0]
    assert (s.window_start, s.window_end) == (1, 5)
    assert s.numbered_lines[0] == "[1] line 1"
    assert s.numbered_lines[-1] == "[5] line 5"
    assert s.header() == "a.rs@1-5:"


def test_window_clamped_at_end_of_file(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(10)})
    (s,) = extract_snippets(ws, [("a.rs", 9)], window=4)
    assert (s.window_start, s.window_end) == (5, 10)


def test_stale_line_past_eof_clamped_into_file(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(6)})
    (s,) = extract_snippets(ws, [("a.rs", 40)], window=2)
    assert (s.window_start, s.window_end) == (4, 6)


def test_overlapping_windows_merge(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(40)})
    (s,) = extract_snippets(ws, [("a.rs", 10), ("a.rs", 14)], window=3)
    assert (s.window_start, s.window_end) == (7, 17)
    assert s.line_count == 11


def test_adjacent_windows_merge_but_gapped_do_not(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(60)})
    # windows 7..13 and 14..20 touch -> merge
    (s,) = extract_snippets(ws, [("a.rs", 10), ("a.rs", 17)], window=3)
    assert (s.window_start, s.window_end) == (7, 20)
    # windows 7..13 and 27..33 leave a gap -> two snippets
    far = extract_snippets(ws, [("a.rs", 10), ("a.rs", 30)], window=3)
    assert [(x.window_start, x.window_end) for x in far] == [(7, 13), (27, 33)]


def test_snippets_ordered_by_file_then_position(tmp_path):
    ws = make_ws(tmp_path, {"b.rs": body(30), "a.rs": body(30)})
    snips = extract_snippets(ws, [("b.rs", 5), ("a.rs", 25), ("a.rs", 5)], window=2)
    assert [s.header() for s in snips] == ["a.rs@3-7:", "a.rs@23-27:", "b.rs@3-7:"]


def test_render_joins_header_and_lines(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "alpha\nbeta\n"})
    (s,) = extract_snippets(ws, [("a.rs", 1)], window=0)
    assert s.render() == "a.rs@1-1:\n[1] alpha"


def test_collect_locations_primary_first_then_related(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(20), "b.rs": body(20)})
    d = make_diag(
        "E1",
        "m",
        "a.rs",
        10,
        related=[SourceSpan("b.rs", 4, 4), SourceSpan("a.rs", 2, 2)],
    )
    assert collect_locations(d, ws) == [("a.rs", 10), ("b.rs", 4), ("a.rs", 2)]


def test_collect_locations_drops_external_unindexed_and_duplicates(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(20)})
    d = make_diag(
        "E1",
        "m",
        "a.rs",
        10,
        related=[
            SourceSpan("/reg/core.rs", 1, 1, external=True),
            SourceSpan("missing.rs", 3, 3),
            SourceSpan("a.rs", 10, 10),  # duplicate of primary
        ],
    )
    assert collect_locations(d, ws) == [("a.rs", 10)]


def test_unindexed_primary_yields_no_locations(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": body(5)})
    d = make_diag("E1", "m", "README.md", 1)
    assert collect_locations(d, ws) == []
    assert extract_snippets(ws, []) == []


def test_number_lines_prefixes_true_numbers():
    assert number_lines(["x", "y"], 41) == ["[41] x", "[42] y"]


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=120),
    picks=st.lists(st.integers(min_value=1, max_value=160), min_size=1, max_size=6),
    window=st.integers(min_value=0, max_value=30),
)
def test_snippet_invariants_hold_for_random_locations(tmp_path_factory, total, picks, window):
    root = tmp_path_factory.mktemp("loc")
    ws = make_ws(root, {"a.rs": body(total)})
    snips = extract_snippets(ws, [("a.rs", p) for p in picks], window=window)
    assert snips, "at least the primary window must be produced"
    prev_end = 0
    for s in snips:
        assert 1 <= s.window_start <= s.window_end <= total
        assert s.window_start > prev_end + 1 or prev_end == 0  # disjoint, non-adjacent
        prev_end = s.window_end
        assert s.line_count == s.window_end - s.window_start + 1
        assert s.numbered_lines == _numbered(ws, "a.rs", s.window_start, s.window_end)
