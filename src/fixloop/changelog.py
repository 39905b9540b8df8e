"""The line-addressed changelog wire format.

Model responses carry fixes as one or more *changelog groups*::

    ChangeLog:1@src/example.rs
    FixDescription: Change the return type of 'get'.
    OriginalCode@19-23:
    [19] impl Foo {
    [20]   pub fn get(&self, key: String) -> &Bar {
    ...
    FixedCode@19-24:
    [19] impl Foo {
    ...

Both plain section keywords (``OriginalCode@4-6:``) and the decorated
spelling models frequently echo back (``<@OriginalCode@>@19-23:``) are
accepted.  Parsing is deliberately defensive — the declared line numbers
must be consecutive and match their headers, pairs must start on the same
line, and (at validation time) every OriginalCode line must match the
workspace text exactly up to trailing whitespace.  A response that
violates structure inside a group is rejected whole.  Every line before
the first well-formed ``ChangeLog`` header is skipped; after a group
ends in prose, prose and ``[N]`` lines are skipped up to the next one,
but a header-shaped line rejects the response.

:func:`parse_response` reads the lines in one pass.  A group runs from
its header through an optional FixDescription to its segment pairs, and
a segment's body runs while its lines are ``[N]`` rows (P2 and up) or
raw code (P1).  A failed rule raises a private exception that
``parse_response`` catches, so parsing never raises on untrusted input:
the result is either a list of :class:`ChangeLog` values or a
:class:`FormatError` value naming one primary reason and the offending
response line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .prompting import PromptVariant
from .workspace import Workspace

#: Every rejection reason this module can produce.
REASONS = (
    "bad-header",
    "non-consecutive-lines",
    "start-mismatch",
    "missing-section",
    "original-mismatch",
    "unknown-file",
    "overlap",
)


@dataclass
class FormatError:
    reason: str
    detail: str
    line_no: Optional[int] = None  # 1-based line in the response text

    def __post_init__(self) -> None:
        assert self.reason in REASONS, self.reason

    def __str__(self) -> str:
        where = f" (response line {self.line_no})" if self.line_no else ""
        return f"{self.reason}: {self.detail}{where}"


@dataclass
class CodeSegment:
    """One OriginalCode/FixedCode block: declared range plus (number, text)
    rows.  An empty FixedCode segment means deletion; an empty lines list
    on an OriginalCode side marks the implicit original of a P1/P2 pair."""

    declared_start: int
    declared_end: int
    lines: List[Tuple[int, str]] = field(default_factory=list)

    def texts(self) -> List[str]:
        return [t for _, t in self.lines]


@dataclass
class ChangeLog:
    id: int
    file: str
    fix_description: str = ""
    pairs: List[Tuple[CodeSegment, CodeSegment]] = field(default_factory=list)


_CHANGELOG_RE = re.compile(r"^\s*(?:<@)?ChangeLog(?:@>)?\s*:\s*(\d+)\s*@(\S+)\s*$")
_SEG_RE = re.compile(r"^\s*(?:<@)?(OriginalCode|FixedCode)(?:@>)?\s*@\s*(\d+)\s*-\s*(\d+)\s*:\s*$")
_FIXDESC_RE = re.compile(r"^\s*(?:<@)?FixDescription(?:@>)?\s*:\s?(.*)$")
_NUMLINE_RE = re.compile(r"^\s*\[(\d+)\]( ?)(.*)$")
_HEADERISH_RE = re.compile(r"^\s*(?:<@)?(ChangeLog|FixDescription|OriginalCode|FixedCode)\b")

ParseResult = Union[List[ChangeLog], FormatError]


class _Rejected(Exception):
    """A parse rule failed; :func:`parse_response` returns the error."""

    def __init__(self, reason: str, detail: str, line_no: Optional[int] = None):
        super().__init__(detail)
        self.error = FormatError(reason, detail, line_no)


def _open_segment(m: re.Match, line_no: int) -> CodeSegment:
    a, b = int(m.group(2)), int(m.group(3))
    if a < 1 or b < a:
        raise _Rejected("bad-header", f"bad line range {a}-{b}", line_no)
    return CodeSegment(a, b)


def _check_numbers(seg: CodeSegment, line_no: int) -> None:
    """``[N]`` prefixes, if any, must run consecutively over the declared range."""
    nums = [n for n, _ in seg.lines]
    if not nums:
        return
    a, b = seg.declared_start, seg.declared_end
    consecutive = all(nums[k + 1] == nums[k] + 1 for k in range(len(nums) - 1))
    if nums[0] != a or nums[-1] != b or not consecutive:
        raise _Rejected(
            "non-consecutive-lines",
            f"declared {a}-{b} but lines run {nums[0]}..{nums[-1]}" + ("" if consecutive else " with gaps or repeats"),
            line_no,
        )


def _close_group(group: ChangeLog, description: List[str], header_no: int) -> ChangeLog:
    if not group.pairs:
        raise _Rejected("missing-section", "changelog group contains no fixes", header_no)
    group.fix_description = "\n".join(description)
    return group


def parse_response(text: str, variant: PromptVariant = PromptVariant.P4) -> ParseResult:
    """Parse a raw model response into changelog groups.

    Returns a non-empty list of groups in response order, or a
    :class:`FormatError`.  Never raises on untrusted ``text``."""
    if variant is PromptVariant.P0:
        raise ValueError("P0 responses are whole snippets; use parse_snippet_response")
    try:
        return _read(text.splitlines(), variant)
    except _Rejected as rejected:
        return rejected.error


def _read(lines: List[str], variant: PromptVariant) -> List[ChangeLog]:
    groups: List[ChangeLog] = []
    malformed: Optional[int] = None  # first malformed ChangeLog header before any group
    group: Optional[ChangeLog] = None
    stage = ""  # in a group: "head" (a FixDescription may come), "description" or "pairs"
    description: List[str] = []
    seg: Optional[CodeSegment] = None  # the segment whose body is being read
    original: Optional[CodeSegment] = None  # an OriginalCode until its FixedCode ends
    header_no = seg_no = original_no = 0
    # the closing blank line ends the last body like any other
    for no, line in enumerate([*lines, ""], 1):
        head = _HEADERISH_RE.match(line)
        if seg is not None:
            if variant >= PromptVariant.P2:
                row = _NUMLINE_RE.match(line)
                if row:
                    seg.lines.append((int(row.group(1)), row.group(3)))
                    continue
                _check_numbers(seg, seg_no)
            elif line.strip() and not head:
                # P1: raw code lines, numbered from the header so rendering still works
                seg.lines.append((seg.declared_start + len(seg.lines), line))
                continue
            if seg is original:
                if not seg.lines:
                    raise _Rejected("missing-section", "empty OriginalCode section", seg_no)
            else:
                if original is not None and original.declared_start != seg.declared_start:
                    raise _Rejected(
                        "start-mismatch",
                        f"pair starts differ: OriginalCode@{original.declared_start} vs FixedCode@{seg.declared_start}",
                        header_no,
                    )
                group.pairs.append((original or CodeSegment(seg.declared_start, seg.declared_end), seg))
                original = None
            seg = None
        if not line.strip():
            continue
        if original is not None:
            m = _SEG_RE.match(line)
            if m is None or m.group(1) != "FixedCode":
                raise _Rejected("missing-section", "OriginalCode without a matching FixedCode section", original_no)
            seg, seg_no = _open_segment(m, no), no
            continue
        changelog = _CHANGELOG_RE.match(line)
        if group is not None and changelog is None:
            if stage == "head" and (m := _FIXDESC_RE.match(line)):
                description.append(m.group(1).rstrip())
                stage = "description"
                continue
            if stage == "description" and not (head or _NUMLINE_RE.match(line)):
                description.append(line.rstrip())  # free text runs until something structured
                continue
            stage = "pairs"
            m = _SEG_RE.match(line)
            if m is not None:
                if m.group(1) == "FixedCode" and variant >= PromptVariant.P3:
                    raise _Rejected("missing-section", "FixedCode without the required OriginalCode section", no)
                seg, seg_no = _open_segment(m, no), no
                if m.group(1) == "OriginalCode":
                    original, original_no = seg, no
                continue
            if head:
                raise _Rejected("bad-header", f"malformed section header: {line.strip()!r}", no)
            if _NUMLINE_RE.match(line):
                raise _Rejected("missing-section", "numbered code line outside any section", no)
            # prose ends the group
        if group is not None:
            groups.append(_close_group(group, description, header_no))
            group = None
        if changelog is not None:
            group = ChangeLog(int(changelog.group(1)), changelog.group(2))
            header_no, stage, description = no, "head", []
            if group.id < 1:
                raise _Rejected("bad-header", f"changelog id must be positive, got {group.id}", no)
        elif head and groups:
            # between groups, prose and [N] lines are skipped up to the next
            # well-formed ChangeLog header, but header-shaped lines reject
            section = _SEG_RE.match(line) or _FIXDESC_RE.match(line)
            where = "section header outside any changelog group" if section else "malformed or misplaced header"
            raise _Rejected("bad-header", f"{where}: {line.strip()!r}", no)
        elif head and head.group(1) == "ChangeLog" and malformed is None:
            malformed = no
    if original is not None:
        raise _Rejected("missing-section", "OriginalCode without a matching FixedCode section", original_no)
    if group is not None:
        groups.append(_close_group(group, description, header_no))
    if not groups:
        if malformed is not None:
            raise _Rejected("bad-header", f"malformed ChangeLog header: {lines[malformed - 1].strip()!r}", malformed)
        raise _Rejected("missing-section", "response contains no ChangeLog header")
    return groups


# ----------------------------------------------------------------------
# validation against a workspace
# ----------------------------------------------------------------------


def validate(cl: ChangeLog, ws: Workspace) -> Optional[FormatError]:
    """Check one changelog against the current workspace.  Returns None
    when applicable, else the first failure.

    Rules: the target file must be indexed; every pair's original range
    must lie inside the file; every OriginalCode line must equal the
    workspace line (trailing whitespace ignored, indentation exact); the
    pairs' original ranges must not overlap each other."""
    if not ws.has(cl.file):
        return FormatError("unknown-file", f"changelog targets unindexed file {cl.file!r}")
    total = ws.line_count(cl.file)
    claimed: List[Tuple[int, int]] = []
    for original, _fixed in cl.pairs:
        a, b = original.declared_start, original.declared_end
        if a < 1 or b > total:
            return FormatError(
                "original-mismatch", f"lines {a}-{b} fall outside {cl.file} (1-{total})"
            )
        for num, text in original.lines:
            actual = ws.line(cl.file, num)
            if actual.rstrip() != text.rstrip():
                return FormatError(
                    "original-mismatch",
                    f"{cl.file}:{num} does not match: response has {text.rstrip()!r}, file has {actual.rstrip()!r}",
                )
        claimed.append((a, b))
    claimed.sort()
    for (a1, b1), (a2, b2) in zip(claimed, claimed[1:]):
        if a2 <= b1:
            return FormatError("overlap", f"pairs overlap on {cl.file}: {a1}-{b1} and {a2}-{b2}")
    return None


def render_changelog(cl: ChangeLog) -> str:
    """Inverse of parsing for well-formed groups (used by tests and docs)."""
    out = [f"ChangeLog:{cl.id}@{cl.file}"]
    if cl.fix_description:
        first, *rest = cl.fix_description.split("\n")
        out.append(f"FixDescription: {first}")
        out.extend(rest)
    for original, fixed in cl.pairs:
        if original.lines:
            out.append(f"OriginalCode@{original.declared_start}-{original.declared_end}:")
            out.extend(f"[{n}] {t}" for n, t in original.lines)
        out.append(f"FixedCode@{fixed.declared_start}-{fixed.declared_end}:")
        out.extend(f"[{n}] {t}" for n, t in fixed.lines)
    return "\n".join(out)


# ----------------------------------------------------------------------
# P0: whole revised snippets
# ----------------------------------------------------------------------


@dataclass
class SnippetReplacement:
    file: str
    start: int
    end: int
    lines: List[str]


_SNIPPET_HEADER_RE = re.compile(r"^(.+)@(\d+)-(\d+):\s*$")

P0Result = Union[List[SnippetReplacement], FormatError]


def parse_snippet_response(text: str, snippet_index: Dict[str, List[Tuple[int, int]]]) -> P0Result:
    """Parse a P0 response: revised snippets re-introduced by the exact
    header lines the prompt used.  Headers that don't correspond to a
    prompted snippet reject the response."""
    lines = text.splitlines()
    replacements: List[SnippetReplacement] = []
    seen: set = set()
    current: Optional[SnippetReplacement] = None
    for idx, ln in enumerate(lines):
        m = _SNIPPET_HEADER_RE.match(ln.strip())
        if m:
            file, a, b = m.group(1), int(m.group(2)), int(m.group(3))
            if (a, b) not in snippet_index.get(file, []):
                return FormatError(
                    "bad-header", f"snippet header not in prompt: {ln.strip()!r}", idx + 1
                )
            if (file, a, b) in seen:
                return FormatError("overlap", f"snippet {file}@{a}-{b} returned twice", idx + 1)
            seen.add((file, a, b))
            current = SnippetReplacement(file, a, b, [])
            replacements.append(current)
            continue
        if current is not None:
            current.lines.append(ln)
    if not replacements:
        return FormatError("missing-section", "response repeats no snippet header")
    for rep in replacements:
        while rep.lines and not rep.lines[-1].strip():
            rep.lines.pop()
    return replacements
