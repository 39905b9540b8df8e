"""Diagnostic records and their identity.

The checker emits one structured JSON record per diagnostic (rustc's
``--error-format=json`` shape, or cargo's envelope around it).  This
module parses those records into :class:`Diagnostic` values and defines
:class:`ErrorKey`, the identity used for all set operations in the fix
loop: the triple of error code, message, and file path — with no
line numbers, so a fix that merely moves an error does not make it look
new.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional

from .scripted_checker import split_lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line_start: int
    line_end: int
    label: Optional[str] = None
    external: bool = False  # path outside the project root (stdlib, registry)


@dataclass(frozen=True, order=True)
class ErrorKey:
    """Identity of an error: code + message + file, no line numbers."""

    code: str
    message: str
    file: str

    def brief(self) -> str:
        head = self.code if self.code else self.message[:40]
        return f"{head}@{self.file}"


@dataclass
class Diagnostic:
    code: Optional[str]
    message: str
    primary_span: SourceSpan
    related_spans: List[SourceSpan] = field(default_factory=list)
    rendered: str = ""
    level: str = "error"

    @property
    def key(self) -> ErrorKey:
        return ErrorKey(self.code or "", self.message, self.primary_span.file)


# ----------------------------------------------------------------------
# record parsing
# ----------------------------------------------------------------------


def _normalize_path(name: str, root: Path) -> tuple[str, bool]:
    """Project-relative posix path plus an 'external' flag."""
    p = Path(name)
    if p.is_absolute():
        try:
            return p.relative_to(root).as_posix(), False
        except ValueError:
            return name, True
    posix = p.as_posix()
    if posix.startswith("./"):
        posix = posix[2:]
    if posix.startswith(".."):
        return posix, True
    return posix, False


def _span_from(obj: dict, root: Path, label: Optional[str]) -> Optional[SourceSpan]:
    name = obj.get("file_name")
    line_start = obj.get("line_start")
    if not name or not isinstance(line_start, int) or line_start < 1:
        return None
    line_end = obj.get("line_end")
    if not isinstance(line_end, int) or line_end < line_start:
        line_end = line_start
    rel, external = _normalize_path(str(name), root)
    span_label = obj.get("label") or label
    return SourceSpan(rel, line_start, line_end, span_label, external)


def parse_record(obj: dict, root: Path) -> Optional[Diagnostic]:
    """Parse one checker JSON record; return None for records that carry
    no usable diagnostic (non-message cargo envelopes, span-less summaries
    like "aborting due to previous error", unknown shapes)."""
    if not isinstance(obj, dict):
        return None
    if obj.get("reason") is not None:
        if obj.get("reason") != "compiler-message":
            return None
        obj = obj.get("message") or {}
        if not isinstance(obj, dict):
            return None
    message = obj.get("message")
    level = obj.get("level")
    spans = obj.get("spans")
    if not isinstance(message, str) or not isinstance(level, str) or not isinstance(spans, list):
        return None

    code_obj = obj.get("code")
    code: Optional[str] = None
    if isinstance(code_obj, dict):
        code = code_obj.get("code") or None
    elif isinstance(code_obj, str):
        code = code_obj or None

    primary: Optional[SourceSpan] = None
    related: List[SourceSpan] = []
    for raw in spans:
        if not isinstance(raw, dict):
            continue
        span = _span_from(raw, root, None)
        if span is None:
            continue
        if raw.get("is_primary") and primary is None:
            primary = span
        else:
            related.append(span)
    for child in obj.get("children") or []:
        if not isinstance(child, dict):
            continue
        child_label = child.get("message") if isinstance(child.get("message"), str) else None
        for raw in child.get("spans") or []:
            if not isinstance(raw, dict):
                continue
            span = _span_from(raw, root, child_label)
            if span is not None:
                related.append(span)
    if primary is None:
        return None

    rendered = obj.get("rendered")
    if not isinstance(rendered, str) or not rendered.strip():
        # Keep the invariant that rendered text is always non-empty.
        code_part = f"[{code}]" if code else ""
        rendered = (
            f"{level}{code_part}: {message}\n"
            f" --> {primary.file}:{primary.line_start}\n"
        )
    return Diagnostic(code, message, primary, related, rendered, level)


def parse_checker_output(text: str, root: Path) -> List[Diagnostic]:
    """Parse every JSON line (ending at ``\n`` only: a string may hold a raw
    U+2028) in ``text``; never raises.  Unparseable lines are skipped."""
    out: List[Diagnostic] = []
    for lineno, line in enumerate(split_lines(text), 1):
        line = line.strip()
        if not line or not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            log.warning("skipping unparseable checker output line %d", lineno)
            continue
        diag = parse_record(obj, root)
        if diag is not None:
            out.append(diag)
    return out


def dedup_and_sort(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Drop duplicates by (ErrorKey, primary line), then order by
    (file, primary line, code) so 'first error' is deterministic."""
    seen = set()
    unique: List[Diagnostic] = []
    for d in diags:
        ident = (d.key, d.primary_span.line_start)
        if ident in seen:
            continue
        seen.add(ident)
        unique.append(d)
    unique.sort(key=lambda d: (d.primary_span.file, d.primary_span.line_start, d.code or ""))
    return unique


def unique_keys(diags: Iterable[Diagnostic]) -> List[ErrorKey]:
    """Distinct keys in first-appearance order."""
    seen: set = set()
    keys: List[ErrorKey] = []
    for d in diags:
        k = d.key
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys
