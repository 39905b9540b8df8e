"""Snippet extraction around error locations.

Given a diagnostic, the relevant source context is every span location
(primary first, then related spans in report order) widened to a window
of +/- ``window`` lines (default 50).  Overlapping or adjacent windows in
the same file are merged so no source line is shown twice, and each line
is rendered with a ``[N] `` prefix carrying its true 1-indexed number —
the same numbers the changelog wire format uses on the way back.
The per-prompt budgets (snippet count, line count, characters) are
``prompting``'s: it picks how many locations a prompt shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .diagnostics import Diagnostic
from .workspace import Workspace

DEFAULT_WINDOW = 50

Location = Tuple[str, int]  # (project-relative file, 1-indexed line)


@dataclass
class Snippet:
    file: str
    window_start: int
    window_end: int
    numbered_lines: List[str]

    def header(self) -> str:
        return f"{self.file}@{self.window_start}-{self.window_end}:"

    def render(self) -> str:
        return "\n".join([self.header(), *self.numbered_lines])

    @property
    def line_count(self) -> int:
        return len(self.numbered_lines)


def number_lines(lines: Sequence[str], start: int) -> List[str]:
    return [f"[{start + i}] {text}" for i, text in enumerate(lines)]


def collect_locations(d: Diagnostic, ws: Workspace) -> List[Location]:
    """Primary location first, then related-span locations in order;
    deduplicated; locations in files the workspace did not index are
    dropped (nothing useful can be shown or fixed there)."""
    raw: List[Location] = [(d.primary_span.file, d.primary_span.line_start)]
    raw.extend((s.file, s.line_start) for s in d.related_spans if not s.external)
    out: List[Location] = []
    seen = set()
    for loc in raw:
        if loc in seen or not ws.has(loc[0]):
            continue
        seen.add(loc)
        out.append(loc)
    return out


def extract_snippets(ws: Workspace, locations: Sequence[Location], window: int = DEFAULT_WINDOW) -> List[Snippet]:
    """Merged snippets for ``locations``, ordered by file, then position."""
    per_file: Dict[str, List[Tuple[int, int]]] = {}
    for file, line in locations:
        total = ws.line_count(file)
        if total == 0:
            continue
        line = min(max(line, 1), total)  # clamp stale span lines into the file
        lo = max(1, line - window)
        hi = min(total, line + window)
        per_file.setdefault(file, []).append((lo, hi))
    snippets: List[Snippet] = []
    for file, ivals in sorted(per_file.items()):
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(ivals):
            if merged and lo <= merged[-1][1] + 1:  # overlap or adjacency
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        snippets.extend(Snippet(file, lo, hi, number_lines(ws.read_lines(file, lo, hi), lo)) for lo, hi in merged)
    return snippets
