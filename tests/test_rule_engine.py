"""The scripted checker's rule engine: a memoized in-memory check gives,
on every step, exactly the records of a from-scratch :func:`evaluate` of
the same tree on disk.

Each example draws rules (with ``requires``, ``forbids`` and ``related``
patterns) and a sequence of tree edits over one to four files: edit,
revert and re-edit of one file, adding and removing a file, two files
sharing one text, and bytes that are not UTF-8.  One engine checks the
tree's texts after every step.  A second property drives a
:class:`~fixloop.workspace.Workspace` through edits, restores and flushes
over files with mixed newlines and the other line breaks ``str.splitlines``
knows, holds every record to the workspace's line, and holds the engine's
literal prefilter to the plain per-line matcher."""

import re
import tempfile
import types
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fixloop import scripted_checker
from fixloop.scripted_checker import RuleEngine, evaluate, read_project, required_literal, split_lines
from fixloop.workspace import Workspace

# Line contents; b"\xff" is not UTF-8 and decodes to a lone surrogate.
LINES = [b"alpha", b"beta", b"gamma", b"alpha beta", b"", b"\xff alpha", b"x\xfe"]
PATTERNS = ["alpha", "beta", "gamma", r"\udcff", "^a", "a$", "[ab]+"]
NAMES = ["a.rs", "b.rs", "src/c.rs", "src/deep/d.rs"]

_content = st.builds(
    lambda lines, newline: newline.join(lines) + (newline if lines else b""),
    st.lists(st.sampled_from(LINES), max_size=4),
    st.sampled_from([b"\n", b"\r\n"]),
)
_related = st.fixed_dictionaries({"pattern": st.sampled_from(PATTERNS)}, optional={"label": st.just("see here")})
_rule = st.fixed_dictionaries(
    {"code": st.sampled_from(["E1", "E2", None]), "message": st.just("m"), "pattern": st.sampled_from(PATTERNS)},
    optional={
        "level": st.sampled_from(["error", "warning"]),
        "requires": st.sampled_from(PATTERNS),
        "forbids": st.sampled_from(PATTERNS),
        "related": st.lists(_related, max_size=2),
        "label": st.just("here"),
    },
)
# (operation, file, new content, second file)
_step = st.tuples(
    st.sampled_from(["edit", "edit", "revert", "remove", "copy"]),
    st.sampled_from(NAMES),
    _content,
    st.sampled_from(NAMES),
)


@settings(max_examples=300, deadline=None)
@given(
    rules=st.lists(_rule, min_size=1, max_size=4),
    start=st.dictionaries(st.sampled_from(NAMES), _content, min_size=1, max_size=4),
    steps=st.lists(_step, max_size=8),
)
def test_memoized_engine_matches_a_fresh_evaluate_on_every_step(rules, start, steps):
    rules = {"rules": rules}
    engine = RuleEngine(rules)
    matched = []
    match = engine._match
    engine._match = lambda text: matched.append(text) or match(text)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        texts = {}  # file -> its text, as a workspace holds it
        previous = {}  # file -> its text before the last edit

        def write(name, text):
            previous[name] = texts.get(name)
            texts[name] = text
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(text.encode("utf-8", errors="surrogateescape"))

        for name, data in start.items():
            write(name, data.decode("utf-8", errors="surrogateescape"))
        for op, name, data, other in [(None, None, None, None)] + steps:
            if op == "edit":
                write(name, data.decode("utf-8", errors="surrogateescape"))
            elif op == "revert" and previous.get(name) is not None:
                write(name, previous[name])  # the earlier text itself, as a restore brings it back
            elif op == "remove" and name in texts and len(texts) > 1:
                del texts[name]
                (root / name).unlink()
            elif op == "copy" and name in texts:
                write(other, texts[name])  # two files share one text object
            seen = set(engine._memo)
            matched.clear()
            assert engine.check(texts) == evaluate(rules, root)
            # the memo holds exactly the texts just checked, by identity
            assert set(engine._memo) == {id(text) for text in texts.values()}
            assert all(engine._memo[id(text)][0] is text for text in texts.values())
            # only texts not seen at the last check are matched, each once
            assert len(matched) == len({id(text) for text in texts.values()} - seen)


# ----------------------------------------------------------------------
# in-memory checks of a workspace against evaluate of the flushed disk
# ----------------------------------------------------------------------

# Line bodies and line breaks: \x0c, \x85 (as UTF-8) and \u2028 end a line for
# str.splitlines but not for split_lines; \xff and a lone \x85 byte are not
# UTF-8.  Joined with "\r" before "\r\n", a file keeps a "\r" the workspace's
# re-joined lines would drop.
BODIES = ["alpha", "beta", "", "be\x0cta", "gam\x85ma alpha", "x\u2028alpha", "a beta"]
RAW_BODIES = [body.encode() for body in BODIES] + [b"\xff alpha", b"\x85beta"]
BREAKS = [b"\n", b"\r\n", b"\r\r\n", b"\r"]
MIXED_PATTERNS = PATTERNS + ["be\x0cta", "alpha$", "(?i)ALPHA", "x|beta", r"\udc85beta", "\u2028alpha"]

_raw_file = st.lists(st.tuples(st.sampled_from(RAW_BODIES), st.sampled_from(BREAKS)), max_size=5).map(
    lambda parts: b"".join(body + brk for body, brk in parts)
)
_mixed_rule = st.fixed_dictionaries(
    {"code": st.sampled_from(["E1", "E2"]), "message": st.just("m"), "pattern": st.sampled_from(MIXED_PATTERNS)},
    optional={"requires": st.sampled_from(MIXED_PATTERNS), "forbids": st.sampled_from(MIXED_PATTERNS)},
)
# (operation, file, first line, lines replaced, replacement lines)
_ws_step = st.tuples(
    st.sampled_from(["edit", "edit", "snapshot", "restore", "flush"]),
    st.sampled_from(NAMES[:3]),
    st.integers(1, 6),
    st.integers(0, 2),
    st.lists(st.sampled_from(BODIES + ["\udcff alpha"]), max_size=3),
)


def _per_line(engine, text):
    """The engine's matcher without the literal prefilter: the oracle."""
    lines = split_lines(text)
    return tuple(
        tuple((i, m.start(), m.end(), line) for i, line in enumerate(lines, 1) if (m := rx.search(line)))
        for rx, _ in engine._regexes
    )


@settings(max_examples=200, deadline=None)
@given(
    rules=st.lists(_mixed_rule, min_size=1, max_size=4),
    files=st.fixed_dictionaries({name: _raw_file for name in NAMES[:3]}),
    steps=st.lists(_ws_step, max_size=10),
)
def test_in_memory_checks_match_evaluate_of_the_flushed_disk(rules, files, steps):
    rules = {"rules": rules}
    engine = RuleEngine(rules)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        ws = Workspace.load_project(root)
        snaps = [ws.snapshot()]
        for op, name, start, span, lines in [(None, None, 1, 0, [])] + steps:
            if op == "edit" and ws.line_count(name):
                start = min(start, ws.line_count(name))
                ws.replace_range(name, start, min(start + span, ws.line_count(name)), lines)
            elif op == "snapshot":
                snaps.append(ws.snapshot())
            elif op == "restore":
                ws.restore(snaps[start % len(snaps)])
            elif op == "flush":
                ws.flush()
            records = engine.check(ws.texts())
            for text in ws.texts().values():
                assert engine._match(text) == _per_line(engine, text)
            # every span is a line of the workspace, at its number
            for span in (span for r in records for span in r["spans"] + [s for c in r["children"] for s in c["spans"]]):
                assert span["line_start"] <= ws.line_count(span["file_name"])
                assert span["text"][0]["text"] == ws.line(span["file_name"], span["line_start"])
            ws.flush()
            assert {p: (root / p).read_bytes() for p in ws.paths()} == {
                p: ws.content(p).encode("utf-8", errors="surrogateescape") for p in ws.paths()
            }
            assert records == evaluate(rules, root)


# ----------------------------------------------------------------------
# the literal prefilter
# ----------------------------------------------------------------------


def test_required_literal_is_the_longest_top_level_literal_run():
    assert required_literal(r"or_insert\(Bar::new\(\)\)") == "or_insert(Bar::new())"
    assert required_literal(r"ab*cde") == "cde"
    assert required_literal(r"^fn (\w+)\(\) -> i32") == "() -> i32"
    for pattern in ("(?i)alpha", "alpha|beta", r"\w+", "(alpha)"):
        assert required_literal(pattern) is None


@pytest.fixture
def uncached_literals():
    required_literal.cache_clear()
    yield
    required_literal.cache_clear()


def _raise(pattern):
    raise re.error("no parse here")


@pytest.mark.parametrize("parser", [None, "raises"], ids=["parser-absent", "parser-raises"])
def test_prefilter_falls_back_to_the_plain_loop(tmp_path, monkeypatch, uncached_literals, parser):
    # re.compile calls the real parser, so stand in for the engine's handle on it
    monkeypatch.setattr(scripted_checker, "_parser", None if parser is None else types.SimpleNamespace(parse=_raise))
    assert required_literal("alpha") is None
    rules = {"rules": [{"code": "E1", "message": "m", "pattern": "alpha"}, {"code": "E2", "message": "m", "pattern": "gamma"}]}
    engine = RuleEngine(rules)
    assert [literal for _, literal in engine._regexes] == [None, None]
    (tmp_path / "a.rs").write_text("alpha\nbeta\n")
    text = (tmp_path / "a.rs").read_text()
    assert engine._match(text) == _per_line(engine, text)
    assert [r["spans"][0]["line_start"] for r in engine.check(read_project(tmp_path, engine.extensions))] == [1]
