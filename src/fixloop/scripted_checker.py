"""Rule-driven checker used by the fixture corpus.

Behaves like a tiny compiler front-end: it scans the project's source
files, evaluates pattern rules against their *current* contents, and
prints one rustc-style JSON diagnostic per match on stdout.  Because the
rules are content-conditioned (``pattern`` / ``requires`` / ``forbids``),
applying a fix genuinely changes what the next run reports — which is
what the fix loop needs — without depending on a real toolchain.

The rule engine is :func:`evaluate`, a pure function from rules and file
contents to records; the command line prints what it yields.

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
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


def _load_rules(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def scan_files(root: Path, extensions: Tuple[str, ...]) -> Dict[str, List[str]]:
    """Lines of each ``extensions`` file under ``root``, keyed by relative
    posix path; hidden and ``target`` directories are skipped."""
    files: Dict[str, List[str]] = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file() or not any(p.name.endswith(e) for e in extensions):
            continue
        if any(part.startswith(".") or part == "target" for part in p.relative_to(root).parts[:-1]):
            continue
        files[p.relative_to(root).as_posix()] = p.read_text(
            encoding="utf-8", errors="surrogateescape"
        ).splitlines()
    return files


def _project_matches(files: Dict[str, List[str]], pattern: str) -> bool:
    rx = re.compile(pattern)
    return any(rx.search(line) for lines in files.values() for line in lines)


def _find_first(files: Dict[str, List[str]], pattern: str) -> Optional[Tuple[str, int, re.Match]]:
    rx = re.compile(pattern)
    for name in sorted(files):
        for i, line in enumerate(files[name], 1):
            m = rx.search(line)
            if m:
                return name, i, m
    return None


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


def evaluate(rules: dict, files: Dict[str, List[str]]) -> Iterator[dict]:
    """Yield one rustc-style JSON record per rule match in ``files``, rule
    by rule, then by file name and line."""
    for rule in rules.get("rules", []):
        requires = rule.get("requires")
        if requires and not _project_matches(files, requires):
            continue
        forbids = rule.get("forbids")
        if forbids and _project_matches(files, forbids):
            continue
        rx = re.compile(rule["pattern"])
        level = rule.get("level", "error")
        code = rule.get("code")
        for name in sorted(files):
            for i, line in enumerate(files[name], 1):
                m = rx.search(line)
                if not m:
                    continue
                col = m.start() + 1
                spans = [_span(name, i, col, m.end() + 1, True, rule.get("label"), line)]
                children = []
                for rel in rule.get("related", []):
                    hit = _find_first(files, rel["pattern"])
                    if hit is None:
                        continue
                    rel_file, rel_line, rel_m = hit
                    children.append(
                        {
                            "level": "note",
                            "message": rel.get("label", ""),
                            "spans": [
                                _span(
                                    rel_file,
                                    rel_line,
                                    rel_m.start() + 1,
                                    rel_m.end() + 1,
                                    True,
                                    rel.get("label"),
                                    files[rel_file][rel_line - 1],
                                )
                            ],
                        }
                    )
                yield {
                    "message": rule["message"],
                    "code": {"code": code, "explanation": None} if code else None,
                    "level": level,
                    "spans": spans,
                    "children": children,
                    "rendered": _render(level, code, rule["message"], name, i, col, line),
                }


def _emit_diagnostics(rules: dict, root: Path) -> int:
    files = scan_files(root, tuple(rules.get("extensions", [".rs"])))
    errors = 0
    for record in evaluate(rules, files):
        print(json.dumps(record))
        if record["level"] == "error":
            errors += 1
    return errors


def _explain(rules: dict, code: str) -> int:
    for rule in rules.get("rules", []):
        if rule.get("code") == code:
            text = rule.get("explain")
            if text:
                print(text)
                return 0
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="fixloop-scripted-checker", description=__doc__)
    parser.add_argument("rules", type=Path)
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--explain", metavar="CODE")
    args = parser.parse_args(argv)

    rules = _load_rules(args.rules)
    if args.explain:
        return _explain(rules, args.explain)
    errors = _emit_diagnostics(rules, args.root.resolve())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
