import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_links_and_a_hidden_dir, make_ws, write_tree
from fixloop.errors import EditError
from fixloop.scripted_checker import copy_project, evaluate
from fixloop.workspace import Workspace, _split_content


def test_load_indexes_only_matching_extensions(rs_project):
    ws = Workspace.load_project(rs_project)
    assert ws.paths() == ["src/lib.rs", "src/main.rs"]
    assert not ws.has("README.md")


def test_load_skips_vcs_and_build_dirs(tmp_path):
    write_tree(
        tmp_path / "p",
        {
            "src/a.rs": "fn a() {}\n",
            "target/debug/gen.rs": "fn gen() {}\n",
            ".git/blob.rs": "fn nope() {}\n",
        },
    )
    ws = Workspace.load_project(tmp_path / "p")
    assert ws.paths() == ["src/a.rs"]


def test_workspace_indexes_exactly_the_files_a_check_scans(tmp_path):
    root = write_tree(
        tmp_path / "p",
        {
            "src/a.rs": "x\n",
            "src/deep/b.rs": "x\n",
            ".top.rs": "x\n",
            ".hidden/example.rs": "x\n",
            ".git/blob.rs": "x\n",
            "target/debug/gen.rs": "x\n",
            "src/__pycache__/c.rs": "x\n",
            "README.md": "x\n",
        },
    )
    (root / "dir.rs").mkdir()
    (root / "src" / "gone.rs").symlink_to(root / "missing.rs")
    (root / "src" / "link.rs").symlink_to(root / "src" / "a.rs")
    (root / "linked").symlink_to(root / "src", target_is_directory=True)
    rules = {"rules": [{"code": "E1", "message": "m", "pattern": "x"}]}
    scanned = sorted(record["spans"][0]["file_name"] for record in evaluate(rules, root))
    assert Workspace.load_project(root).paths() == scanned
    assert scanned == [".top.rs", "src/a.rs", "src/deep/b.rs", "src/link.rs"]


def test_a_project_copy_indexes_the_files_of_its_source(tmp_path):
    root = write_tree(tmp_path / "p", {"src/a.rs": "fn a() {}\n", "Cargo.toml": "[package]\n"})
    other = add_links_and_a_hidden_dir(root)
    copy = tmp_path / "scratch" / "p"
    copy_project(root, copy)
    assert Workspace.load_project(copy).paths() == Workspace.load_project(root).paths()
    assert Workspace.load_project(root).paths() == ["src/a.rs", "src/util.rs"]
    # every entry but the dangling link, a linked file as a regular file
    assert not os.path.lexists(copy / "src" / "gone.rs")
    assert not (copy / "src" / "util.rs").is_symlink()
    assert (copy / "src" / "util.rs").read_bytes() == (other / "util.rs").read_bytes()
    assert (copy / ".cache" / "lib.rs").read_bytes() == (root / ".cache" / "lib.rs").read_bytes()
    assert (copy / "Cargo.toml").read_bytes() == (root / "Cargo.toml").read_bytes()
    # a linked directory stays a link, to its resolved target
    assert os.readlink(copy / "linked") == str(other.resolve())
    shutil.rmtree(copy)
    assert sorted(p.name for p in other.iterdir()) == ["lib.rs", "util.rs"]


def test_load_rejects_missing_root(tmp_path):
    with pytest.raises(NotADirectoryError):
        Workspace.load_project(tmp_path / "nope")


def test_lines_are_one_indexed(rs_project):
    ws = Workspace.load_project(rs_project)
    assert ws.line("src/main.rs", 1) == "fn main() {"
    assert ws.line_count("src/main.rs") == 3
    assert ws.read_lines("src/main.rs", 2, 3) == ['    println!("hi");', "}"]


def test_read_lines_clamps_and_rejects_bad_ranges(rs_project):
    ws = Workspace.load_project(rs_project)
    assert ws.read_lines("src/main.rs", 2, 99) == ['    println!("hi");', "}"]
    assert ws.read_lines("src/main.rs", 50, 60) == []
    with pytest.raises(ValueError):
        ws.read_lines("src/main.rs", 0, 1)
    with pytest.raises(ValueError):
        ws.read_lines("src/main.rs", 3, 2)
    with pytest.raises(EditError):
        ws.line("src/main.rs", 99)


def test_unknown_file_raises_keyerror(rs_project):
    ws = Workspace.load_project(rs_project)
    with pytest.raises(KeyError):
        ws.line_count("src/ghost.rs")


def test_replace_range_grow_shrink_delete(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "one\ntwo\nthree\n"})
    ws.replace_range("a.rs", 2, 2, ["2a", "2b"])
    assert ws.content("a.rs") == "one\n2a\n2b\nthree\n"
    ws.replace_range("a.rs", 2, 3, ["two"])
    assert ws.content("a.rs") == "one\ntwo\nthree\n"
    ws.replace_range("a.rs", 1, 1, [])
    assert ws.content("a.rs") == "two\nthree\n"


def test_replace_range_bounds_checked(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "one\ntwo\n"})
    with pytest.raises(EditError):
        ws.replace_range("a.rs", 2, 3, ["x"])
    with pytest.raises(EditError):
        ws.replace_range("a.rs", 0, 1, ["x"])
    with pytest.raises(EditError):
        ws.replace_range("a.rs", 2, 1, ["x"])


def test_replacement_lines_may_not_embed_newlines(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "one\n"})
    with pytest.raises(EditError):
        ws.replace_range("a.rs", 1, 1, ["a\nb"])
    with pytest.raises(EditError):
        ws.replace_range("a.rs", 1, 1, ["a\rb"])


def test_flush_writes_only_dirty_files(rs_project):
    ws = Workspace.load_project(rs_project)
    main = rs_project / "src" / "main.rs"
    lib = rs_project / "src" / "lib.rs"
    before_main, before_lib = main.read_bytes(), lib.read_bytes()
    (rs_project / "src" / "lib.rs").touch()

    ws.replace_range("src/main.rs", 1, 1, ["fn main() { // edited"])
    ws.flush()
    assert main.read_bytes() != before_main
    assert lib.read_bytes() == before_lib


def test_crlf_and_missing_trailing_newline_round_trip(tmp_path):
    root = write_tree(
        tmp_path / "p",
        {
            "crlf.rs": "a\r\nb\r\n",
            "bare.rs": "x\ny",  # no trailing newline
        },
    )
    ws = Workspace.load_project(root)
    # untouched files: flush writes nothing, bytes cannot change
    ws.flush()
    assert (root / "crlf.rs").read_bytes() == b"a\r\nb\r\n"
    assert (root / "bare.rs").read_bytes() == b"x\ny"
    # edits keep each file's own convention
    ws.replace_range("crlf.rs", 2, 2, ["B"])
    ws.replace_range("bare.rs", 1, 1, ["X"])
    ws.flush()
    assert (root / "crlf.rs").read_bytes() == b"a\r\nB\r\n"
    assert (root / "bare.rs").read_bytes() == b"X\ny"


def test_undecodable_bytes_survive_a_rewrite(tmp_path):
    root = tmp_path / "p"
    root.mkdir()
    raw = b"// caf\xe9 latin-1 comment\nfn f() {}\n"
    (root / "odd.rs").write_bytes(raw)
    ws = Workspace.load_project(root)
    ws.replace_range("odd.rs", 2, 2, ["fn g() {}"])
    ws.flush()
    assert (root / "odd.rs").read_bytes() == b"// caf\xe9 latin-1 comment\nfn g() {}\n"


def test_snapshot_restore_is_byte_exact(tmp_path):
    files = {"a.rs": "one\ntwo\nthree\n", "b.rs": "x\r\ny\r\n"}
    ws = make_ws(tmp_path, files)
    snap = ws.snapshot()
    ws.replace_range("a.rs", 1, 3, ["rewritten"])
    ws.replace_range("b.rs", 2, 2, [])
    ws.flush()
    ws.restore(snap)
    ws.flush()
    root = tmp_path / "proj"
    assert (root / "a.rs").read_bytes() == b"one\ntwo\nthree\n"
    assert (root / "b.rs").read_bytes() == b"x\r\ny\r\n"


def test_restore_rejects_foreign_snapshot(tmp_path):
    ws = make_ws(tmp_path, {"a.rs": "one\n"})
    other = make_ws(tmp_path / "elsewhere", {"z.rs": "zzz\n"})
    with pytest.raises(EditError):
        ws.restore(other.snapshot())


def test_split_content_prefers_dominant_eol():
    lines, eol, trailing = _split_content("a\r\nb\r\nc\n")
    assert (lines, eol, trailing) == (["a", "b", "c"], "\r\n", True)
    lines, eol, trailing = _split_content("")
    assert (lines, eol, trailing) == ([], "\n", False)


# ----------------------------------------------------------------------
# property: arbitrary edit sequences snapshot/restore losslessly
# ----------------------------------------------------------------------

_line = st.text(alphabet=st.characters(blacklist_characters="\r\n", codec="utf-8"), max_size=24)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_line, min_size=1, max_size=12),
    edits=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3), st.lists(_line, max_size=4)), max_size=8),
    data=st.data(),
)
def test_snapshot_restore_survives_random_edits(tmp_path_factory, initial, edits, data):
    root = tmp_path_factory.mktemp("ws")
    (root / "f.rs").write_text("\n".join(initial) + "\n", encoding="utf-8")
    ws = Workspace.load_project(root)
    original = ws.content("f.rs")
    snap = ws.snapshot()
    for start0, span, repl in edits:
        count = ws.line_count("f.rs")
        if count == 0:
            break
        start = start0 % count + 1
        end = min(start + span, count)
        ws.replace_range("f.rs", start, end, repl)
    ws.restore(snap)
    assert ws.content("f.rs") == original
