"""Turning validated changelogs into applied edits.

A completion may contain several changelog groups.  ``plan`` flattens
them into one :class:`PatchPlan` whose per-file edits are pairwise
disjoint: ranges inside one group were already validated disjoint, and a
*later* group that collides with lines an earlier group claimed is
dropped whole (the earlier group wins).  ``apply`` re-validates each edit
against the live workspace immediately before touching it, and applies
the edits of each file in descending start order — so earlier
replacements can't shift the line numbers of later ones.  It edits the
workspace only; the caller decides when to flush.  Any failure restores
the pre-apply snapshot, so application is all-or-nothing.
"""

from __future__ import annotations

import difflib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .changelog import ChangeLog, FormatError, SnippetReplacement
from .errors import EditError, PatchError
from .scripted_checker import split_lines
from .workspace import Workspace

log = logging.getLogger(__name__)


@dataclass
class Edit:
    file: str
    start: int
    end: int
    replacement: List[str]
    original_rows: List[Tuple[int, str]] = field(default_factory=list)  # for re-validation


@dataclass
class PatchPlan:
    edits: List[Edit] = field(default_factory=list)


def plan(changelogs: Sequence[ChangeLog]) -> PatchPlan | FormatError:
    """Merge groups into a disjoint edit plan.

    Pre: every group already passed ``changelog.validate``.  Later groups
    whose ranges touch lines claimed by earlier groups are skipped with a
    warning; if nothing survives, the whole completion is rejected."""
    claimed: Dict[str, List[Tuple[int, int]]] = {}
    edits: List[Edit] = []
    kept = 0
    for cl in changelogs:
        ranges = [(orig.declared_start, orig.declared_end) for orig, _ in cl.pairs]
        taken = claimed.get(cl.file, [])
        collides = any(a <= tb and ta <= b for a, b in ranges for ta, tb in taken)
        if collides:
            log.warning("dropping changelog %d@%s: overlaps an earlier group", cl.id, cl.file)
            continue
        kept += 1
        claimed.setdefault(cl.file, []).extend(ranges)
        for orig, fixed in cl.pairs:
            edits.append(
                Edit(cl.file, orig.declared_start, orig.declared_end, fixed.texts(), list(orig.lines))
            )
    if not kept:
        return FormatError("overlap", "every changelog group overlaps an earlier one")
    # Descending start order per file: applying top-down never disturbs the
    # line numbers of edits still pending below.
    edits.sort(key=lambda e: (e.file, -e.start))
    return PatchPlan(edits)


def plan_snippets(replacements: Sequence[SnippetReplacement]) -> PatchPlan:
    """P0 plan: replace each prompted window wholesale.  Windows are
    disjoint by construction (snippet extraction merges overlaps)."""
    edits = [Edit(r.file, r.start, r.end, list(r.lines)) for r in replacements]
    edits.sort(key=lambda e: (e.file, -e.start))
    return PatchPlan(edits)


def _recheck(ws: Workspace, edit: Edit) -> Optional[str]:
    if not ws.has(edit.file):
        return f"file {edit.file} not indexed"
    total = ws.line_count(edit.file)
    if edit.start < 1 or edit.end > total:
        return f"range {edit.start}-{edit.end} outside {edit.file} (1-{total})"
    for num, text in edit.original_rows:
        if ws.line(edit.file, num).rstrip() != text.rstrip():
            return f"{edit.file}:{num} changed since validation"
    return None


def apply(ws: Workspace, patch: PatchPlan) -> None:
    """Apply the plan atomically to the workspace, writing nothing.

    The plan is re-checked against the live workspace first: it records
    the lines it was validated against, and on any other state it would
    edit the wrong lines.  Ranking validates each completion on the state
    it applies it to, so the check guards callers that hold a plan across
    other edits, and is the only check a P0 snippet plan (which skips
    ``validate``) gets before its first edit.  On any failure the
    workspace is restored to its pre-apply content and PatchError is
    raised; on success all edits are in the workspace, and the next
    ``ws.flush()`` writes them."""
    for edit in patch.edits:
        problem = _recheck(ws, edit)
        if problem:
            raise PatchError(f"stale patch plan: {problem}")
    snap = ws.snapshot()
    try:
        for edit in patch.edits:
            ws.replace_range(edit.file, edit.start, edit.end, edit.replacement)
    except EditError as exc:
        ws.restore(snap)
        raise PatchError(f"edit failed, workspace restored: {exc}") from exc


def unified_diff(before: Dict[str, str], after: Dict[str, str], label: str = "") -> str:
    """Unified diff of the changed files between two trees' texts."""
    chunks: List[str] = []
    for path in sorted(set(before) | set(after)):
        old, new = before.get(path, ""), after.get(path, "")
        if old == new:
            continue
        diff = difflib.unified_diff(
            split_lines(old, keepends=True),
            split_lines(new, keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
        )
        chunks.append("".join(diff))
    header = f"# {label}\n" if label else ""
    return header + "".join(chunks)


def write_patch_file(directory: Path, seq: int, source: str, diff_text: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-._" else "-" for c in source) or "patch"
    target = directory / f"{seq:03d}_{safe}.patch"
    target.write_text(diff_text, encoding="utf-8")
    return target
