"""In-memory model of the project tree being fixed.

The workspace indexes the files under a root directory whose suffix
matches the active checker profile (``.rs`` by default), the same set a
scripted check scans.  It splits each file into 1-indexed lines and
supports three things the fix loop needs:

* line-range reads for snippet extraction,
* line-range replacement for applying fixes,
* whole-tree snapshot/restore so a failed attempt can be rolled back
  byte-exactly.

Each file's state is an immutable :class:`SourceFile`: terminator-free
lines plus newline metadata (dominant convention, trailing-newline flag),
so an unmodified file round-trips to its original bytes.  An edit stores
a new state and never changes an old one, so a snapshot is a plain dict
of the current states and restoring it swaps the dict back.  Decoding
uses UTF-8 with ``surrogateescape`` which keeps arbitrary bytes lossless.

The workspace is the tree's single writer: it remembers, per file, the
state it last loaded or wrote, and ``flush`` writes a file only when its
current state is not that one.  Files the loop did not change are never
rewritten, so their mtimes (which cargo's freshness checks read) hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from .errors import EditError
from .scripted_checker import project_files

_ENCODING = "utf-8"
_ERRORS = "surrogateescape"


@dataclass(frozen=True)
class SourceFile:
    """One state of an indexed file: terminator-free lines plus newline
    metadata."""

    path: str
    lines: Tuple[str, ...]
    eol: str = "\n"
    trailing_newline: bool = True

    def content(self) -> str:
        text = self.eol.join(self.lines)
        if self.trailing_newline and self.lines:
            text += self.eol
        return text


# Every indexed file's state at a point in time, by path.
WorkspaceSnapshot = Dict[str, SourceFile]


def _decode(raw: bytes) -> str:
    return raw.decode(_ENCODING, errors=_ERRORS)


def _split_content(text: str) -> Tuple[List[str], str, bool]:
    """Split file text into lines, returning (lines, eol, trailing_newline).

    The dominant newline convention wins; mixed files are normalized to it
    when rewritten (only edited files are ever rewritten).
    """
    crlf = text.count("\r\n")
    lf = text.count("\n") - crlf
    eol = "\r\n" if crlf > lf else "\n"
    trailing = text.endswith("\n")
    if not text:
        return [], eol, False
    normalized = text.replace("\r\n", "\n")
    lines = normalized.split("\n")
    if trailing:
        lines = lines[:-1]
    return lines, eol, trailing


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
        self._on_disk: Dict[str, SourceFile] = {}  # state last loaded or written

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    @classmethod
    def load_project(cls, root: Path | str, extensions: Iterable[str] = (".rs",)) -> "Workspace":
        """Index the :func:`~fixloop.scripted_checker.project_files` under
        ``root`` that match ``extensions``: the files a check sees.

        Raises NotADirectoryError if the root is not a directory; an
        unreadable file propagates as OSError (fatal: the checker would see
        a tree we cannot model).
        """
        ws = cls(Path(root), extensions)
        if not ws.root.is_dir():
            raise NotADirectoryError(f"project root is not a directory: {ws.root}")
        for rel, full in project_files(str(ws.root), ws.extensions):
            lines, eol, trailing = _split_content(_decode(Path(full).read_bytes()))
            ws._files[rel] = SourceFile(rel, tuple(lines), eol, trailing)
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
        return self._file(path).content()

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
        self._files[path] = replace(f, lines=f.lines[: start - 1] + tuple(new_lines) + f.lines[end:])

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

        Only indexed files are ever written.  I/O errors propagate (fatal)."""
        for p, f in self._files.items():
            if self._on_disk[p] is f:
                continue
            (self.root / p).write_bytes(f.content().encode(_ENCODING, errors=_ERRORS))
            self._on_disk[p] = f

    # ------------------------------------------------------------------

    def _file(self, path: str) -> SourceFile:
        try:
            return self._files[path]
        except KeyError:
            raise KeyError(f"file not indexed in workspace: {path}") from None
