"""The scripted checker's rule engine: a memoized engine gives, on every
check, exactly the records of a from-scratch :func:`evaluate`.

Each example draws rules (with ``requires``, ``forbids`` and ``related``
patterns) and a sequence of tree edits over one to four files: edit,
revert and re-edit of one file, adding and removing a file, two files
with identical bytes, and bytes that are not UTF-8.  One engine checks the
tree after every step."""

import hashlib
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from fixloop.scripted_checker import RuleEngine, evaluate

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


def _scanned_digests(root: Path) -> set:
    return {hashlib.sha1(p.read_bytes()).digest() for p in root.rglob("*.rs")}


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
    engine._match = lambda data: matched.append(data) or match(data)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        previous = {}  # file -> its content before the last edit

        def write(name, data):
            previous[name] = (root / name).read_bytes() if (root / name).exists() else None
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)

        for name, data in start.items():
            write(name, data)
        for op, name, data, other in [(None, None, None, None)] + steps:
            if op == "edit":
                write(name, data)
            elif op == "revert" and previous.get(name) is not None:
                write(name, previous[name])
            elif op == "remove" and (root / name).exists() and len(list(root.rglob("*.rs"))) > 1:
                (root / name).unlink()
            elif op == "copy" and (root / name).exists():
                write(other, (root / name).read_bytes())
            seen = set(engine._memo)
            matched.clear()
            assert engine.check(root) == evaluate(rules, root)
            assert set(engine._memo) == _scanned_digests(root)
            # only content not seen at the last check is read line by line
            assert len(matched) == len(set(matched)) == len(_scanned_digests(root) - seen)
