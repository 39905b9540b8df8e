"""Checker profiles and subprocess invocation.

A :class:`CheckerProfile` describes how to run the external checker (a
compiler front-end or a linter) and how to interpret what it prints:
argv, the flag that switches it to structured JSON output, which
diagnostic levels are fix targets, and — for linters — the explain
subcommand used to fetch long-form documentation for a lint code.

The builtin ``scripted`` and ``scripted-lint`` profiles name fixloop's own
rules file; their checks and explain calls run the rule engine of
:mod:`fixloop.scripted_checker` in process, with no child.  Given the
workspace, such a check matches its texts and writes nothing; a
spawning check first flushes the workspace to disk.  Every child
process fixloop starts (check and explain for every other profile, and
the post-fix :func:`run_test_command`) spawns here, through one function.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shlex
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, dedup_and_sort, parse_checker_output, parse_record
from .errors import BuildFailed, CheckerError, ConfigError
from .scripted_checker import RuleEngine
from .workspace import Workspace

log = logging.getLogger(__name__)

# The directory that holds the running fixloop package.  A ``{python}``
# command gets it first on PYTHONPATH, so ``-m fixloop.…`` imports this
# same package from the project root without an install.
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)

_STDERR_TAIL_CHARS = 2000
_BUILD_FAILED = '{"reason":"build-finished","success":false}'  # cargo's last JSON line


@dataclass(frozen=True)
class CheckerProfile:
    name: str
    command: Tuple[str, ...]
    structured_flag: Optional[str] = "--message-format=json"
    explain_command: Optional[Tuple[str, ...]] = None  # may contain "{code}"
    fix_levels: frozenset = frozenset({"error"})
    language: str = "Rust"
    extensions: Tuple[str, ...] = (".rs",)
    lint_code_allowlist: Tuple[str, ...] = ()  # code prefixes; empty = all
    env_allowlist: Optional[Tuple[str, ...]] = None  # None = inherit everything
    timeout_s: float = 600.0
    # fixloop's own rules file: check and explain run its engine in process
    rules: Optional[str] = None

    def display_command(self) -> str:
        """The command string shown to the model in the prompt."""
        return " ".join(self.command)


BUILTIN_PROFILES: Dict[str, CheckerProfile] = {
    "cargo": CheckerProfile(
        name="cargo",
        command=("cargo", "check"),
    ),
    "clippy": CheckerProfile(
        name="clippy",
        command=("cargo", "clippy"),
        explain_command=("cargo", "clippy", "--explain", "{code}"),
        fix_levels=frozenset({"error", "warning"}),
    ),
    # Rule-driven stand-in checker used by the shipped fixture corpus; it
    # reads {root}/checker_rules.json.  The prompt shows ``command``.
    "scripted": CheckerProfile(
        name="scripted",
        command=("{python}", "-m", "fixloop.scripted_checker", "{root}/checker_rules.json"),
        structured_flag=None,
        explain_command=None,
        rules="{root}/checker_rules.json",
    ),
    "scripted-lint": CheckerProfile(
        name="scripted-lint",
        command=("{python}", "-m", "fixloop.scripted_checker", "{root}/checker_rules.json"),
        structured_flag=None,
        explain_command=(
            "{python}",
            "-m",
            "fixloop.scripted_checker",
            "{root}/checker_rules.json",
            "--explain",
            "{code}",
        ),
        fix_levels=frozenset({"error", "warning"}),
        rules="{root}/checker_rules.json",
    ),
}


def load_profile(spec: str) -> CheckerProfile:
    """Resolve ``spec`` to a profile: a builtin name or a JSON file path."""
    if spec in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[spec]
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(
            f"unknown checker profile {spec!r} (builtins: {', '.join(sorted(BUILTIN_PROFILES))})"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checker profile {spec}: {exc}") from exc

    def strings(name: str, default: Optional[Tuple[str, ...]] = None) -> Optional[Tuple[str, ...]]:
        value = data.get(name)
        if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise TypeError(f"{name} must be a list of strings")
        return default if value is None else tuple(value)

    def string(name: str, default: Optional[str] = None) -> Optional[str]:
        value = data.get(name)
        if value is not None and not isinstance(value, str):
            raise TypeError(f"{name} must be a string")
        return default if value is None else value

    try:
        command = strings("command")
        if not command:
            raise TypeError("command must be a non-empty list of strings")
        return CheckerProfile(
            name=string("name", path.stem),
            command=command,
            structured_flag=string("structured_flag"),
            explain_command=strings("explain_command") or None,
            fix_levels=frozenset(strings("fix_levels", ("error",))),
            language=string("language", "Rust"),
            extensions=strings("extensions", (".rs",)),
            lint_code_allowlist=strings("lint_code_allowlist", ()),
            env_allowlist=strings("env_allowlist") or None,
            timeout_s=float(data.get("timeout_s", 600.0)),
        )
    except (AttributeError, TypeError, ValueError) as exc:  # AttributeError: not a JSON object
        raise ConfigError(f"malformed checker profile {spec}: {exc}") from exc


def _expand(argv: Sequence[str], root: Path, code: str = "") -> List[str]:
    return [a.replace("{python}", sys.executable).replace("{root}", str(root)).replace("{code}", code) for a in argv]


def _child_env(env_allowlist: Optional[Tuple[str, ...]], command: Tuple[str, ...]) -> Optional[Dict[str, str]]:
    """Environment for a child process (None = inherit as is).

    ``env_allowlist`` filters the inherited variables; a ``{python}``
    command additionally gets the running package's directory first on
    its PYTHONPATH, unless it is first there already."""
    is_python = command[:1] == ("{python}",)
    if env_allowlist is None:
        if not is_python:
            return None
        env = dict(os.environ)
    else:
        env = {k: v for k, v in os.environ.items() if k in env_allowlist}
        env.setdefault("PATH", os.environ.get("PATH", ""))
    if is_python:
        parts = env["PYTHONPATH"].split(os.pathsep) if env.get("PYTHONPATH") else []
        if parts[:1] != [_PACKAGE_PARENT]:
            env["PYTHONPATH"] = os.pathsep.join([_PACKAGE_PARENT] + parts)
    return env


def _spawn(
    command: Sequence[str], root: Path, timeout_s: float, env_allowlist: Optional[Tuple[str, ...]] = None, code: str = ""
) -> Tuple[List[str], subprocess.CompletedProcess]:
    """Run ``command`` from ``root``, placeholders expanded and output
    captured; return the argv it ran and the finished process.  A command
    that cannot start or outlives ``timeout_s`` raises ConfigError.  The
    child runs in a session of its own: a timeout or an exception while
    it runs kills it and every process it started."""
    command = tuple(command)
    argv = _expand(command, root, code)
    env = _child_env(env_allowlist, command)
    pipe = subprocess.PIPE
    try:
        proc = subprocess.Popen(argv, cwd=str(root), stdout=pipe, stderr=pipe, text=True, env=env, start_new_session=True)
    except FileNotFoundError as exc:
        raise ConfigError(f"checker binary not found: {argv[0]}") from exc
    except OSError as exc:
        raise ConfigError(f"checker cannot start: {argv[0]}: {exc.strerror}") from exc
    with proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout_s)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ConfigError(f"checker timed out after {timeout_s}s: {argv}") from exc
            raise
    return argv, subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


@dataclass
class Explanation:
    text: str
    source: str  # "rendered" | "explain-command"


def run_checker(profile: CheckerProfile, root: Path) -> List[Diagnostic]:
    """One check of the project at ``root`` (see :meth:`SubprocessChecker.check`)."""
    return SubprocessChecker(profile, root).check()


class SubprocessChecker:
    """The product checker: one subprocess per check, or for a profile
    with ``rules`` one in-process rule engine; explain caching."""

    def __init__(self, profile: CheckerProfile, root: Path):
        self.profile = profile
        self.root = Path(root)
        self._explain_cache: Dict[str, Explanation] = {}
        self._engine: Optional[RuleEngine] = None

    def _run_engine(self, call: Callable[[RuleEngine], Any]) -> Any:
        """``call`` on the profile's rule engine, loaded on first use.  Any failure (an
        unreadable or malformed rules file, a bad regex) raises CheckerError, like a crash."""
        try:
            if self._engine is None:
                rules = Path(_expand((self.profile.rules,), self.root)[0]).read_text(encoding="utf-8")
                self._engine = RuleEngine(json.loads(rules))
            return call(self._engine)
        except Exception as exc:  # the spawned checker exits 1 on any exception
            tail = f"{type(exc).__name__}: {exc}"
            argv = _expand(self.profile.command, self.root)
            raise CheckerError(f"checker exited 1 without a diagnostic: {argv}\n{tail}", 1, tail) from exc

    def check(self, ws: Optional[Workspace] = None) -> List[Diagnostic]:
        """The fix-target diagnostics of the project, deduplicated and
        deterministically ordered: of ``ws``'s current texts, or of the
        tree on disk when ``ws`` is None.

        A profile with ``rules`` checks ``ws``'s texts in memory, and
        writes and reads nothing; a rules file that scans other extensions
        than ``ws`` indexes raises ConfigError.  A spawning profile flushes
        ``ws`` and checks the disk.  Errors are determined from the parsed
        records, whatever the exit status; but a nonzero exit with no
        record at all, or with none at a fix level while cargo reports a
        failed build, is a crash, not a clean tree, and raises
        :class:`CheckerError` (:class:`BuildFailed` for the latter)."""
        profile = self.profile
        if profile.rules is not None:
            extensions = self._run_engine(lambda engine: engine.extensions)
            if ws is not None and extensions != ws.extensions:
                raise ConfigError(f"the rules file scans {list(extensions)}, but the workspace indexes {list(ws.extensions)}")
            records = self._run_engine(lambda engine: engine.check_disk(self.root) if ws is None else engine.check(ws.texts()))
            diags = [d for d in (parse_record(r, self.root) for r in records) if d is not None]
        else:
            if ws is not None:
                ws.flush()
            flag = (profile.structured_flag,) if profile.structured_flag else ()
            argv, proc = _spawn(profile.command + flag, self.root, profile.timeout_s, profile.env_allowlist)
            # cargo prints JSON on stdout, bare rustc on stderr; accept both.
            diags = parse_checker_output(proc.stdout, self.root) + parse_checker_output(proc.stderr, self.root)
            if proc.returncode != 0 and not any(d.level in profile.fix_levels for d in diags):
                build_failed = _BUILD_FAILED in proc.stdout  # say, a build script that panicked
                if build_failed or not diags:
                    tail = proc.stderr[-_STDERR_TAIL_CHARS:].strip()
                    why = "and the build failed without a fix-level diagnostic" if build_failed else "without a diagnostic"
                    error = BuildFailed if build_failed else CheckerError
                    raise error(f"checker exited {proc.returncode} {why}: {argv}\n{tail}", proc.returncode, tail)
        targets = [d for d in diags if d.level in profile.fix_levels]
        if profile.lint_code_allowlist:
            targets = [
                d
                for d in targets
                if d.level != "warning"
                or (d.code or "").startswith(tuple(profile.lint_code_allowlist))
            ]
        return dedup_and_sort(targets)

    def explain(self, d: Diagnostic) -> Explanation:
        """Long-form explanation for a diagnostic.

        Compiler mode (no explain command) returns the rendered error text;
        linter mode asks the explain command (the rule engine, for a profile
        with ``rules``), caching per code and falling back to the rendered
        text on any failure or an empty text."""
        if self.profile.explain_command is None or not d.code:
            return Explanation(d.rendered, "rendered")
        cached = self._explain_cache.get(d.code)
        if cached is not None:
            return cached
        profile = self.profile
        try:
            if profile.rules is not None:
                text = (self._run_engine(lambda engine: engine.explain(d.code)) or "").strip()
            else:
                _, proc = _spawn(profile.explain_command, self.root, profile.timeout_s, profile.env_allowlist, d.code)
                text = proc.stdout.strip()
                if proc.returncode != 0 or not text:
                    raise ConfigError(f"explain exited {proc.returncode}")
            result = Explanation(text, "explain-command") if text else Explanation(d.rendered, "rendered")
        except ConfigError as exc:
            log.warning("explain %s failed (%s); falling back to rendered text", d.code, exc)
            result = Explanation(d.rendered, "rendered")
        self._explain_cache[d.code] = result
        return result


def split_test_command(command: str) -> List[str]:
    """The words of a test command, a shell-quoted string split without a
    shell.  A command that does not split into at least one word raises
    ConfigError."""
    try:
        words = shlex.split(command)
    except ValueError as exc:
        raise ConfigError(f"malformed test command {command!r}: {exc}") from exc
    if not words:
        raise ConfigError(f"test command {command!r} has no words")
    return words


def run_test_command(words: Sequence[str], root: Path) -> Tuple[List[str], int]:
    """Run the post-fix test command (see :func:`split_test_command`) from
    ``root`` for at most 600 s; return the argv it ran and its exit code,
    127 (the shell's "not found") when it did not finish."""
    try:
        argv, proc = _spawn(words, root, 600.0)
    except ConfigError as exc:
        log.warning("test command failed to run: %s", exc)
        return _expand(words, root), 127
    return argv, proc.returncode
