"""In-memory model of the project tree being fixed.

The workspace indexes the files under a root directory whose suffix
matches the active checker profile (``.rs`` by default), the same set a
scripted check scans.  It reads each file once, at load, and supports
three things the fix loop needs:

* line-range reads for snippet extraction,
* line-range replacement for applying fixes,
* whole-tree snapshot/restore so a failed attempt can be rolled back
  byte-exactly.

Each file's state is an immutable :class:`SourceFile`, which is its text.
Its lines and newline metadata (dominant convention, trailing-newline
flag) are split from the text the first time the loop reads or edits the
file.  An edit stores a new state, whose text is its lines joined with
the file's own convention, and never changes an old one.  So a snapshot
is a plain dict of the current states, restoring it swaps the dict back,
and states, like their texts, are compared by identity, never by value.
:mod:`~fixloop.scripted_checker` reads, decodes and splits the text.

The workspace is the tree's single writer: it remembers, per file, the
state it last loaded or wrote, and ``flush`` writes a file only when its
current state is not that one.  An unedited file's state is the text it
was loaded as, so files the loop did not change are never rewritten, and
their mtimes (which cargo's freshness checks read) hold.  A file whose
write did not finish is marked unknown first, so the next flush writes
it again.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ConfigError, EditError
from .scripted_checker import read_project, split_lines


class SourceFile:
    """One state of an indexed file: its text, plus the terminator-free
    lines and newline metadata split from it on first use."""

    __slots__ = ("text", "_split")

    def __init__(self, text: str):
        self.text = text
        self._split: Optional[Tuple[Tuple[str, ...], str, bool]] = None  # until first use

    def split(self) -> Tuple[Tuple[str, ...], str, bool]:
        """(lines, eol, trailing_newline), computed once, on first use."""
        if self._split is None:
            lines, eol, trailing = _split_content(self.text)
            self._split = (tuple(lines), eol, trailing)
        return self._split

    @property
    def lines(self) -> Tuple[str, ...]:
        return self.split()[0]


# Every indexed file's state at a point in time, by path.
WorkspaceSnapshot = Dict[str, SourceFile]


def _split_content(text: str) -> Tuple[List[str], str, bool]:
    """(lines, eol, trailing_newline) of a file's text.  The dominant
    newline convention wins; an edited mixed file is normalized to it."""
    crlf = text.count("\r\n")
    lf = text.count("\n") - crlf
    return split_lines(text), "\r\n" if crlf > lf else "\n", text.endswith("\n")


class Workspace:
    """Single-writer view of the project tree.

    All public line arguments are 1-indexed and inclusive.  There is no
    internal locking: one orchestrator drives one workspace (callers that
    want parallelism use separate roots).
    """

    def __init__(self, root: Path, extensions: Iterable[str] = (".rs",)):
        self.root = Path(root)
        self.extensions = tuple(extensions)
        self._files: Dict[str, SourceFile] = {}
        # state last loaded or written, None while a write is unfinished
        self._on_disk: Dict[str, Optional[SourceFile]] = {}

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    @classmethod
    def load_project(cls, root: Path | str, extensions: Iterable[str] = (".rs",)) -> "Workspace":
        """Index the :func:`~fixloop.scripted_checker.project_files` under
        ``root`` that match ``extensions``: the files a check sees.

        Each file is read and decoded once; it is split into lines when the
        loop first reads or edits it.  Raises NotADirectoryError if the root
        is not a directory, and one ConfigError naming an unreadable file by
        its project path, as the root may be a scratch copy, deleted soon.
        """
        ws = cls(Path(root), extensions)
        if not ws.root.is_dir():
            raise NotADirectoryError(f"project root is not a directory: {ws.root}")
        try:
            texts = read_project(ws.root, ws.extensions)
        except OSError as exc:
            where = f" file {os.path.relpath(exc.filename, ws.root)}" if exc.filename else ""
            raise ConfigError(f"cannot read project{where}: {exc.strerror or exc}") from exc
        ws._files = {rel: SourceFile(text) for rel, text in texts.items()}
        ws._on_disk = dict(ws._files)
        return ws

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def paths(self) -> List[str]:
        return sorted(self._files)

    def has(self, path: str) -> bool:
        return path in self._files

    def line_count(self, path: str) -> int:
        return len(self._file(path).lines)

    def read_lines(self, path: str, start: int, end: int) -> List[str]:
        """Return lines ``start..end`` clamped to the file; a range lying
        entirely beyond EOF yields []."""
        if start < 1 or end < start:
            raise ValueError(f"bad line range {start}-{end}")
        f = self._file(path)
        if start > len(f.lines):
            return []
        return list(f.lines[start - 1 : min(end, len(f.lines))])

    def line(self, path: str, number: int) -> str:
        got = self.read_lines(path, number, number)
        if not got:
            raise EditError(f"{path}:{number} is beyond EOF")
        return got[0]

    def content(self, path: str) -> str:
        return self._file(path).text

    def texts(self) -> Dict[str, str]:
        """Every indexed file's current text, by path."""
        return {p: f.text for p, f in self._files.items()}

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------

    def replace_range(self, path: str, start: int, end: int, new_lines: List[str]) -> None:
        """Replace lines ``start..end`` with ``new_lines`` (may be empty =
        deletion).  Bounds must lie inside the file."""
        f = self._file(path)
        if start < 1 or end < start or end > len(f.lines):
            raise EditError(
                f"range {start}-{end} out of bounds for {path} ({len(f.lines)} lines)"
            )
        for ln in new_lines:
            if "\n" in ln or "\r" in ln:
                raise EditError(f"replacement line for {path}:{start} embeds a newline")
        old, eol, trailing = f.split()
        lines = old[: start - 1] + tuple(new_lines) + old[end:]
        text = eol.join(lines) + (eol if trailing and lines else "")
        # split anew: a kept line's trailing "\r" joins the terminator, as on disk
        self._files[path] = SourceFile(text)

    # ------------------------------------------------------------------
    # snapshot / restore / flush
    # ------------------------------------------------------------------

    def snapshot(self) -> WorkspaceSnapshot:
        return dict(self._files)

    def restore(self, snap: WorkspaceSnapshot) -> None:
        """Make the captured states current again; the next flush writes
        the files whose state on disk differs."""
        if snap.keys() != self._files.keys():
            # files are never created or dropped mid-run, so a snapshot of
            # another file set indicates internal misuse
            raise EditError(f"snapshot and index disagree on {sorted(snap.keys() ^ self._files.keys())}")
        self._files = dict(snap)

    def flush(self) -> None:
        """Write every file whose state is not the one last loaded or
        written.

        Only indexed files are ever written.  I/O errors propagate (fatal);
        a file whose write did not finish is written by the next flush."""
        for p, f in self._files.items():
            if self._on_disk[p] is f:
                continue
            self._on_disk[p] = None
            (self.root / p).write_bytes(f.text.encode("utf-8", "surrogateescape"))
            self._on_disk[p] = f

    # ------------------------------------------------------------------

    def _file(self, path: str) -> SourceFile:
        try:
            return self._files[path]
        except KeyError:
            raise KeyError(f"file not indexed in workspace: {path}") from None
