"""Rule-driven checker used by the fixture corpus.

Behaves like a tiny compiler front-end: it scans the project's source
files, evaluates pattern rules against their *current* contents, and
yields one rustc-style JSON diagnostic per match.  Because the rules are
content-conditioned (``pattern`` / ``requires`` / ``forbids``), applying
a fix genuinely changes what the next run reports — which is what the fix
loop needs — without depending on a real toolchain.

The rule engine is :class:`RuleEngine`.  The ``scripted`` and
``scripted-lint`` checker profiles run one per checker, in process, so a
check matches only the files whose bytes the last check did not see.
:func:`evaluate` is the engine with an empty memo; the command line
prints what it yields, for profiles and test commands that spawn it.

Usage:
    python -m fixloop.scripted_checker RULES_JSON [--root DIR]
    python -m fixloop.scripted_checker RULES_JSON --explain CODE

Rules file shape::

    {
      "extensions": [".rs"],
      "rules": [
        {
          "code": "E0515",            // omit or null for codeless errors
          "level": "error",
          "message": "cannot return value referencing temporary value",
          "pattern": "or_insert\\(Bar::new\\(\\)\\)",
          "requires": "<regex that must match somewhere in the project>",
          "forbids":  "<regex that must match nowhere in the project>",
          "label": "returns a value referencing data owned by the current function",
          "related": [{"pattern": "...", "label": "..."}],
          "explain": "long-form text served by --explain"
        }
      ]
    }
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

# a line's first match of a pattern: line number, match start and end, line text
Hit = Tuple[int, int, int, str]


def project_files(root: str, extensions: Tuple[str, ...]) -> Iterator[Tuple[str, str]]:
    """The files a project is made of, as (relative POSIX path, path) pairs:
    regular files, or links to one, whose names end in one of ``extensions``,
    outside hidden, ``target`` and ``__pycache__`` directories.  The
    workspace indexes and the engine checks this one set."""
    for folder, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if not d.startswith(".") and d not in ("target", "__pycache__")]
        sub = folder[len(root) + 1 :].replace(os.sep, "/")
        for name in names:
            path = os.path.join(folder, name)
            if name.endswith(extensions) and os.path.isfile(path):
                yield f"{sub}/{name}" if sub else name, path


def copy_project(src: Path, dst: Path) -> None:
    """Copy the project at ``src`` to a new directory ``dst`` whose
    :func:`project_files` are those of ``src``.  Every entry is copied, a
    link to a file as a regular file.  A linked directory becomes a link to
    its resolved target, which the walk does not enter, in place or not.  A
    dangling link, judged from its own directory, is left out.  Any
    OSError raises one ConfigError naming the project."""
    src_dir = os.path.normpath(src)
    linked: List[Tuple[str, str]] = []  # (resolved target, link in the copy)

    def ignore(folder: str, names: List[str]) -> List[str]:
        skip = []
        for name in names:
            path = os.path.join(folder, name)
            if not os.path.islink(path):
                continue
            if os.path.isdir(path):
                linked.append((os.path.realpath(path), os.path.join(dst, folder[len(src_dir) + 1 :], name)))
                skip.append(name)
            elif not os.path.exists(path):
                skip.append(name)
        return skip

    try:
        shutil.copytree(src_dir, dst, ignore=ignore)
        for target, link in linked:
            os.symlink(target, link, target_is_directory=True)
    except OSError as exc:  # shutil.Error and SpecialFileError included
        from .errors import ConfigError  # not at the top: a checker spawn loads no other module

        raise ConfigError(f"cannot read project {src}: {exc}") from exc


class RuleEngine:
    """Rules compiled once, and a memo of each file content's hits.

    The memo maps a content digest to the hits of every distinct pattern
    in that content; it never holds a file's lines.  Each :meth:`check`
    keeps only the digests of the tree it scanned."""

    def __init__(self, rules: dict):
        self.rules: List[dict] = rules.get("rules", [])
        self.extensions = tuple(rules.get("extensions", [".rs"]))
        index: Dict[str, int] = {}

        def slot(pattern: str) -> int:
            return index.setdefault(pattern, len(index))

        def optional(pattern: Optional[str]) -> Optional[int]:
            return slot(pattern) if pattern else None

        # per rule: the slots of its pattern, requires, forbids and related patterns
        self._slots = [
            (
                slot(rule["pattern"]),
                optional(rule.get("requires")),
                optional(rule.get("forbids")),
                [slot(rel["pattern"]) for rel in rule.get("related", [])],
            )
            for rule in self.rules
        ]
        self._regexes = [re.compile(pattern) for pattern in index]
        self._memo: Dict[bytes, Tuple[Tuple[Hit, ...], ...]] = {}

    def _match(self, data: bytes) -> Tuple[Tuple[Hit, ...], ...]:
        lines = data.decode("utf-8", errors="surrogateescape").splitlines()
        return tuple(
            tuple((i, m.start(), m.end(), line) for i, line in enumerate(lines, 1) if (m := rx.search(line)))
            for rx in self._regexes
        )

    def check(self, root: Path) -> List[dict]:
        """One rustc-style JSON record per rule match in the
        :func:`project_files` under ``root``, rule by rule, then by file
        path and line."""
        digests: Dict[str, bytes] = {}
        for name, path in project_files(str(Path(root)), self.extensions):
            data = Path(path).read_bytes()
            digest = digests[name] = hashlib.sha1(data, usedforsecurity=False).digest()
            if digest not in self._memo:
                self._memo[digest] = self._match(data)
        self._memo = {digest: self._memo[digest] for digest in digests.values()}
        return list(self._records({name: self._memo[digests[name]] for name in sorted(digests)}))

    def _records(self, tree: Dict[str, Tuple[Tuple[Hit, ...], ...]]) -> Iterator[dict]:
        def anywhere(slot: int) -> bool:
            return any(hits[slot] for hits in tree.values())

        def first(slot: int) -> Optional[Tuple[str, Hit]]:
            return next(((name, hits[slot][0]) for name, hits in tree.items() if hits[slot]), None)

        for rule, (pattern, requires, forbids, related) in zip(self.rules, self._slots):
            if requires is not None and not anywhere(requires):
                continue
            if forbids is not None and anywhere(forbids):
                continue
            children = []
            for rel, slot in zip(rule.get("related", []), related):
                hit = first(slot)
                if hit is not None:
                    rel_file, (rel_line, start, end, text) = hit
                    span = _span(rel_file, rel_line, start + 1, end + 1, True, rel.get("label"), text)
                    children.append({"level": "note", "message": rel.get("label", ""), "spans": [span]})
            level = rule.get("level", "error")
            code = rule.get("code")
            for name, hits in tree.items():
                for i, start, end, line in hits[pattern]:
                    col = start + 1
                    yield {
                        "message": rule["message"],
                        "code": {"code": code, "explanation": None} if code else None,
                        "level": level,
                        "spans": [_span(name, i, col, end + 1, True, rule.get("label"), line)],
                        "children": children,
                        "rendered": _render(level, code, rule["message"], name, i, col, line),
                    }

    def explain(self, code: str) -> Optional[str]:
        """The first rule with ``code``'s explain text, or None."""
        for rule in self.rules:
            if rule.get("code") == code:
                text = rule.get("explain")
                return str(text) if text else None
        return None


def evaluate(rules: dict, root: Path) -> List[dict]:
    """The records of one check of the tree at ``root`` (see
    :meth:`RuleEngine.check`), from scratch."""
    return RuleEngine(rules).check(root)


def _span(file: str, line: int, col_start: int, col_end: int, is_primary: bool, label: Optional[str], text: str) -> dict:
    return {
        "file_name": file,
        "line_start": line,
        "line_end": line,
        "column_start": col_start,
        "column_end": col_end,
        "is_primary": is_primary,
        "label": label,
        "text": [{"text": text, "highlight_start": col_start, "highlight_end": col_end}],
    }


def _render(level: str, code: Optional[str], message: str, file: str, line: int, col: int, text: str) -> str:
    head = f"{level}[{code}]" if code else level
    gutter = " " * (len(str(line)) + 1)
    return (
        f"{head}: {message}\n"
        f"{gutter}--> {file}:{line}:{col}\n"
        f"{gutter} |\n"
        f"{line} | {text}\n"
        f"{gutter} |\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="fixloop-scripted-checker", description=__doc__)
    parser.add_argument("rules", type=Path)
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--explain", metavar="CODE")
    args = parser.parse_args(argv)

    engine = RuleEngine(json.loads(args.rules.read_text(encoding="utf-8")))
    if args.explain:
        text = engine.explain(args.explain)
        if text:
            print(text)
        return 0 if text else 1
    records = engine.check(args.root.resolve())
    for record in records:
        print(json.dumps(record))
    return 1 if any(record["level"] == "error" for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
