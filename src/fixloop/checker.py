"""Checker profiles and subprocess invocation.

A :class:`CheckerProfile` describes how to run the external checker (a
compiler front-end or a linter) and how to interpret what it prints:
argv, the flag that switches it to structured JSON output, which
diagnostic levels are fix targets, and — for linters — the explain
subcommand used to fetch long-form documentation for a lint code.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .diagnostics import Diagnostic, dedup_and_sort, parse_checker_output
from .errors import CheckerError, ConfigError

log = logging.getLogger(__name__)

# The directory that holds the running fixloop package.  A ``{python}``
# command gets it first on PYTHONPATH, so ``-m fixloop.…`` imports this
# same package from the project root without an install.
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)

_STDERR_TAIL_CHARS = 2000


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
    # reads {root}/checker_rules.json and prints rustc-style JSON records.
    "scripted": CheckerProfile(
        name="scripted",
        command=("{python}", "-m", "fixloop.scripted_checker", "{root}/checker_rules.json"),
        structured_flag=None,
        explain_command=None,
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
    try:
        return CheckerProfile(
            name=data.get("name", path.stem),
            command=tuple(data["command"]),
            structured_flag=data.get("structured_flag"),
            explain_command=tuple(data["explain_command"]) if data.get("explain_command") else None,
            fix_levels=frozenset(data.get("fix_levels", ["error"])),
            language=data.get("language", "Rust"),
            extensions=tuple(data.get("extensions", [".rs"])),
            lint_code_allowlist=tuple(data.get("lint_code_allowlist", [])),
            env_allowlist=tuple(data["env_allowlist"]) if data.get("env_allowlist") else None,
            timeout_s=float(data.get("timeout_s", 600.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checker profile {spec}: {exc}") from exc


def _expand(argv: Tuple[str, ...], root: Path, code: str = "") -> List[str]:
    out = []
    for a in argv:
        a = a.replace("{python}", sys.executable)
        a = a.replace("{root}", str(root))
        a = a.replace("{code}", code)
        out.append(a)
    return out


def _child_env(profile: CheckerProfile, command: Tuple[str, ...]) -> Optional[Dict[str, str]]:
    """Environment for a checker child process (None = inherit as is).

    ``env_allowlist`` filters the inherited variables; a ``{python}``
    command additionally gets the running package's directory first on
    its PYTHONPATH, unless it is first there already."""
    is_python = command[:1] == ("{python}",)
    if profile.env_allowlist is None:
        if not is_python:
            return None
        env = dict(os.environ)
    else:
        env = {k: v for k, v in os.environ.items() if k in profile.env_allowlist}
        env.setdefault("PATH", os.environ.get("PATH", ""))
    if is_python:
        parts = env["PYTHONPATH"].split(os.pathsep) if env.get("PYTHONPATH") else []
        if parts[:1] != [_PACKAGE_PARENT]:
            env["PYTHONPATH"] = os.pathsep.join([_PACKAGE_PARENT] + parts)
    return env


@dataclass
class Explanation:
    text: str
    source: str  # "rendered" | "explain-command"


def run_checker(profile: CheckerProfile, root: Path) -> List[Diagnostic]:
    """Run the checker once over the project at ``root`` and return its
    fix-target diagnostics, deduplicated and deterministically ordered.

    The caller must have flushed the workspace first.  Errors are
    determined from the parsed records, whatever the exit status; but a
    nonzero exit with no record at all is a crash, not a clean tree, and
    raises :class:`CheckerError`."""
    argv = _expand(profile.command, root)
    if profile.structured_flag:
        argv.append(profile.structured_flag)
    try:
        proc = subprocess.run(
            argv,
            cwd=str(root),
            capture_output=True,
            text=True,
            env=_child_env(profile, profile.command),
            timeout=profile.timeout_s,
        )
    except FileNotFoundError as exc:
        raise ConfigError(f"checker binary not found: {argv[0]}") from exc
    except OSError as exc:
        raise ConfigError(f"checker cannot start: {argv[0]}: {exc.strerror}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ConfigError(f"checker timed out after {profile.timeout_s}s: {argv}") from exc

    # cargo prints JSON on stdout, bare rustc on stderr; accept both.
    diags = parse_checker_output(proc.stdout, root) + parse_checker_output(proc.stderr, root)
    if proc.returncode != 0 and not diags:
        tail = proc.stderr[-_STDERR_TAIL_CHARS:].strip()
        raise CheckerError(
            f"checker exited {proc.returncode} without a diagnostic: {argv}\n{tail}",
            proc.returncode,
            tail,
        )
    targets = [d for d in diags if d.level in profile.fix_levels]
    if profile.lint_code_allowlist:
        targets = [
            d
            for d in targets
            if d.level != "warning"
            or (d.code or "").startswith(tuple(profile.lint_code_allowlist))
        ]
    return dedup_and_sort(targets)


class SubprocessChecker:
    """The product checker: one subprocess per check, explain caching."""

    def __init__(self, profile: CheckerProfile, root: Path):
        self.profile = profile
        self.root = Path(root)
        self._explain_cache: Dict[str, Explanation] = {}

    def check(self) -> List[Diagnostic]:
        return run_checker(self.profile, self.root)

    def explain(self, d: Diagnostic) -> Explanation:
        """Long-form explanation for a diagnostic.

        Compiler mode (no explain command) returns the rendered error text;
        linter mode shells out to the explain subcommand, caching per code
        and falling back to the rendered text on any failure."""
        if self.profile.explain_command is None or not d.code:
            return Explanation(d.rendered, "rendered")
        cached = self._explain_cache.get(d.code)
        if cached is not None:
            return cached
        command = self.profile.explain_command
        argv = _expand(command, self.root, code=d.code)
        try:
            proc = subprocess.run(
                argv,
                cwd=str(self.root),
                capture_output=True,
                text=True,
                env=_child_env(self.profile, command),
                timeout=self.profile.timeout_s,
            )
            text = proc.stdout.strip()
            if proc.returncode != 0 or not text:
                raise OSError(f"explain exited {proc.returncode}")
            result = Explanation(text, "explain-command")
        except (OSError, subprocess.SubprocessError) as exc:
            log.warning("explain %s failed (%s); falling back to rendered text", d.code, exc)
            result = Explanation(d.rendered, "rendered")
        self._explain_cache[d.code] = result
        return result
