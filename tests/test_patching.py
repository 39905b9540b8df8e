"""Edit planning and atomic application."""

import random

import pytest

from fixloop.changelog import ChangeLog, CodeSegment, FormatError, SnippetReplacement
from fixloop.errors import PatchError
from fixloop.patching import (
    Edit,
    PatchPlan,
    apply,
    plan,
    plan_snippets,
    unified_diff,
    write_patch_file,
)

from conftest import make_ws


def group(gid, file, *pairs):
    built = []
    for a, b, orig_texts, fixed_texts in pairs:
        original = CodeSegment(a, b, [(a + i, t) for i, t in enumerate(orig_texts)])
        fb = a + len(fixed_texts) - 1 if fixed_texts else a
        fixed = CodeSegment(a, fb, [(a + i, t) for i, t in enumerate(fixed_texts)])
        built.append((original, fixed))
    return ChangeLog(gid, file, "", built)


def numbered_file(n):
    return "".join(f"line {i}\n" for i in range(1, n + 1))


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------


def test_plan_flattens_groups_and_sorts_descending_per_file():
    g1 = group(1, "b.rs", (2, 2, ["x"], ["X"]), (8, 9, ["y", "z"], ["Y"]))
    g2 = group(2, "a.rs", (5, 5, ["q"], ["Q"]))
    p = plan([g1, g2])
    assert isinstance(p, PatchPlan)
    assert [(e.file, e.start) for e in p.edits] == [("a.rs", 5), ("b.rs", 8), ("b.rs", 2)]


def test_plan_drops_later_group_colliding_with_earlier_one():
    g1 = group(1, "a.rs", (3, 6, ["a", "b", "c", "d"], ["A"]))
    g2 = group(2, "a.rs", (6, 7, ["d", "e"], ["D"]))  # touches line 6: dropped
    g3 = group(3, "a.rs", (10, 10, ["z"], ["Z"]))
    p = plan([g1, g2, g3])
    assert [(e.start, e.end) for e in p.edits] == [(10, 10), (3, 6)]


def test_plan_collision_in_other_file_is_not_a_collision():
    g1 = group(1, "a.rs", (3, 6, ["a", "b", "c", "d"], ["A"]))
    g2 = group(2, "b.rs", (3, 6, ["a", "b", "c", "d"], ["B"]))
    p = plan([g1, g2])
    assert len(p.edits) == 2


def test_plan_keeps_first_of_two_identical_groups():
    g = group(1, "a.rs", (3, 6, ["a", "b", "c", "d"], ["A"]))
    p = plan([g, g])
    assert isinstance(p, PatchPlan) and len(p.edits) == 1


def test_plan_rejects_empty_group_list():
    result = plan([])
    assert isinstance(result, FormatError) and result.reason == "overlap"


def test_plan_snippets_wholesale_ranges():
    reps = [
        SnippetReplacement("a.rs", 11, 20, ["new"]),
        SnippetReplacement("a.rs", 1, 9, ["top"]),
    ]
    p = plan_snippets(reps)
    assert [(e.start, e.end) for e in p.edits] == [(11, 20), (1, 9)]
    assert p.edits[0].original_rows == []


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------


def test_apply_descending_matches_functional_reconstruction(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": numbered_file(10)})
    g = group(
        1,
        "a.rs",
        (2, 3, ["line 2", "line 3"], ["two", "three", "extra"]),
        (7, 7, ["line 7"], []),
    )
    p = plan([g])
    apply(ws, p)
    ws.flush()

    # independent oracle: rebuild the file functionally from the original
    original = numbered_file(10).splitlines()
    expected = original[:1] + ["two", "three", "extra"] + original[3:6] + original[7:]
    assert (ws.root / "a.rs").read_text() == "\n".join(expected) + "\n"


def test_apply_rechecks_against_live_workspace(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": numbered_file(5)})
    g = group(1, "a.rs", (2, 2, ["line 2"], ["X"]))
    p = plan([g])
    ws.replace_range("a.rs", 2, 2, ["drifted"])  # simulate a competing edit
    ws.flush()
    with pytest.raises(PatchError, match="changed since validation"):
        apply(ws, p)


def test_apply_rejects_out_of_range_and_unknown_file(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": numbered_file(3)})
    with pytest.raises(PatchError, match="outside"):
        apply(ws, PatchPlan([Edit("a.rs", 2, 9, ["x"])]))
    with pytest.raises(PatchError, match="not indexed"):
        apply(ws, PatchPlan([Edit("ghost.rs", 1, 1, ["x"])]))


def test_apply_is_atomic_on_mid_plan_failure(tmp_path):
    before = numbered_file(6)
    ws = make_ws(tmp_path, {"a.rs": before})
    # second edit (lower start, applied later) carries an embedded newline,
    # which replace_range rejects after the first edit already landed
    bad = PatchPlan(
        [
            Edit("a.rs", 5, 5, ["ok"]),
            Edit("a.rs", 1, 1, ["broken\nline"]),
        ]
    )
    with pytest.raises(PatchError, match="workspace restored"):
        apply(ws, bad)
    assert (ws.root / "a.rs").read_text() == before
    assert ws.read_lines("a.rs", 1, 6) == before.splitlines()


def test_apply_writes_nothing_and_flush_writes_every_touched_file(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": numbered_file(3), "b.rs": numbered_file(3)})
    p = plan(
        [
            group(1, "a.rs", (1, 1, ["line 1"], ["A"])),
            group(2, "b.rs", (3, 3, ["line 3"], ["B"])),
        ]
    )
    apply(ws, p)
    assert (ws.root / "a.rs").read_text() == (ws.root / "b.rs").read_text() == numbered_file(3)
    ws.flush()
    assert (ws.root / "a.rs").read_text().startswith("A\n")
    assert (ws.root / "b.rs").read_text().endswith("B\n")


def test_random_disjoint_edits_inplace_equals_functional(tmp_path):
    """Randomized oracle: descending in-place application must equal a
    functional bottom-up reconstruction, byte for byte."""
    rng = random.Random(7)
    for round_no in range(60):
        total = rng.randrange(5, 60)
        lines = [f"src line {i}" for i in range(1, total + 1)]
        root = tmp_path / f"r{round_no}"
        ws = make_ws(root, {"a.rs": "\n".join(lines) + "\n"})

        # carve disjoint ranges
        ranges = []
        cursor = 1
        while cursor <= total and len(ranges) < 6:
            a = cursor + rng.randrange(0, 3)
            if a > total:
                break
            b = min(total, a + rng.randrange(0, 4))
            ranges.append((a, b))
            cursor = b + 2
        rng.shuffle(ranges)

        pairs = []
        replacements = {}
        for a, b in ranges:
            new = [f"new {a}.{k}" for k in range(rng.randrange(0, 5))]
            replacements[(a, b)] = new
            pairs.append((a, b, lines[a - 1 : b], new))
        p = plan([group(1, "a.rs", *pairs)])
        apply(ws, p)
        ws.flush()

        expected = []
        i = 1
        for a, b in sorted(replacements):
            expected.extend(lines[i - 1 : a - 1])
            expected.extend(replacements[(a, b)])
            i = b + 1
        expected.extend(lines[i - 1 :])
        want = "\n".join(expected) + "\n" if expected else ""
        assert (ws.root / "a.rs").read_text() == want, f"round {round_no}"


# ----------------------------------------------------------------------
# diffs
# ----------------------------------------------------------------------


def test_unified_diff_labels_and_content():
    before = {"src/a.rs": "one\ntwo\n", "same.rs": "s\n"}
    after = {"src/a.rs": "one\nTWO\n", "same.rs": "s\n", "new.rs": "n\n"}
    text = unified_diff(before, after, label="a1.i1/c0")
    assert text.startswith("# a1.i1/c0\n")
    assert "--- a/new.rs" in text and "+++ b/new.rs" in text
    assert "--- a/src/a.rs" in text
    assert "-two" in text and "+TWO" in text
    assert "same.rs" not in text


def test_write_patch_file_sanitizes_source(tmp_path):
    path = write_patch_file(tmp_path / "patches", 3, "a1.i2/c0", "# diff\n")
    assert path.name == "003_a1.i2-c0.patch"
    assert path.read_text() == "# diff\n"
    fallback = write_patch_file(tmp_path / "patches", 4, "///", "x")
    assert fallback.name == "004_---.patch"
