"""Shared test helpers: tiny project builders, an in-process checker,
and a scripted completion backend.

The in-process fakes exist so orchestrator-level tests don't pay for a
subprocess per check; they honor the same contract as the real
subprocess checker (in particular: they read the *flushed* tree from
disk, never the workspace's in-memory state)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from fixloop.checker import Explanation
from fixloop.diagnostics import Diagnostic, SourceSpan, dedup_and_sort, parse_record
from fixloop.errors import BackendError
from fixloop.llm import Completion, CompletionRequest
from fixloop.scripted_checker import RuleEngine
from fixloop.workspace import Workspace


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content, encoding="utf-8")
    return root


def make_ws(tmp_path: Path, files: Dict[str, str], extensions=(".rs",)) -> Workspace:
    root = tmp_path / "proj"
    root.mkdir(parents=True, exist_ok=True)
    write_tree(root, files)
    return Workspace.load_project(root, extensions)


def make_diag(
    code: Optional[str],
    message: str,
    file: str,
    line: int,
    *,
    line_end: Optional[int] = None,
    level: str = "error",
    label: Optional[str] = None,
    related: Sequence[Tuple[str, int, int, Optional[str]]] = (),
    rendered: Optional[str] = None,
) -> Diagnostic:
    primary = SourceSpan(file, line, line_end or line, label, False)
    rel = [
        s if isinstance(s, SourceSpan) else SourceSpan(s[0], s[1], s[2], s[3], False)
        for s in related
    ]
    if rendered is None:
        head = f"{level}[{code}]" if code else level
        rendered = f"{head}: {message}\n --> {file}:{line}\n"
    return Diagnostic(code, message, primary, rel, rendered, level)


def fix_text(file, start, originals, fixed, gid=1, desc="apply the fix"):
    """Build a well-formed P4 changelog response."""
    lines = [f"ChangeLog:{gid}@{file}", f"FixDescription: {desc}"]
    end = start + len(originals) - 1
    lines.append(f"OriginalCode@{start}-{end}:")
    lines += [f"[{n}] {t}" for n, t in enumerate(originals, start)]
    fixed_end = start + len(fixed) - 1 if fixed else start
    lines.append(f"FixedCode@{start}-{fixed_end}:")
    lines += [f"[{n}] {t}" for n, t in enumerate(fixed, start)]
    return "\n".join(lines)


@dataclass
class LineRule:
    """Content-conditioned diagnostic rule for the in-process checker."""

    code: Optional[str]
    message: str
    pattern: str
    level: str = "error"
    requires: Optional[str] = None
    forbids: Optional[str] = None
    label: Optional[str] = None


class PatternChecker:
    """In-process stand-in honoring the subprocess checker's contract:
    every check re-reads the flushed files from disk.  It runs the
    scripted checker's own rule engine and parses its records the way the
    subprocess checker parses them, so the two cannot drift apart."""

    def __init__(self, root: Path, rules: Sequence[LineRule], extensions=(".rs",)):
        self.root = Path(root)
        self.engine = RuleEngine({"extensions": list(extensions), "rules": [asdict(rule) for rule in rules]})
        self.checks = 0
        self.explanations: Dict[str, str] = {}

    def check(self) -> List[Diagnostic]:
        self.checks += 1
        return dedup_and_sort(parse_record(r, self.root) for r in self.engine.check(self.root))

    def explain(self, d: Diagnostic) -> Explanation:
        text = self.explanations.get(d.code or "")
        if text:
            return Explanation(text, "explain-command")
        return Explanation(d.rendered, "rendered")


class FuncChecker:
    """Checker driven by an arbitrary callable (for adversarial tests)."""

    def __init__(self, fn: Callable[[], List[Diagnostic]]):
        self.fn = fn
        self.checks = 0

    def check(self) -> List[Diagnostic]:
        self.checks += 1
        return self.fn()

    def explain(self, d: Diagnostic) -> Explanation:
        return Explanation(d.rendered, "rendered")


@dataclass
class SequenceBackend:
    """Serves scripted completion texts: ``responses[i]`` answers the
    i-th request.  Running out raises BackendError (like a dead API)."""

    responses: List[List[str]]
    requests: List[CompletionRequest] = field(default_factory=list)

    def complete(self, req: CompletionRequest) -> List[Completion]:
        if len(self.requests) >= len(self.responses):
            raise BackendError(f"no scripted response for request {len(self.requests)}")
        texts = self.responses[len(self.requests)]
        self.requests.append(req)
        return [Completion(i, t) for i, t in enumerate(texts[: req.n])]


@pytest.fixture
def rs_project(tmp_path: Path) -> Path:
    """A three-file project with assorted newline conventions."""
    return write_tree(
        tmp_path / "proj",
        {
            "src/main.rs": "fn main() {\n    println!(\"hi\");\n}\n",
            "src/lib.rs": "pub fn add(a: i32, b: i32) -> i32 {\r\n    a + b\r\n}\r\n",
            "README.md": "not indexed\n",
        },
    )
