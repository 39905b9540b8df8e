"""Command-line front end.

Three subcommands::

    fixloop fix PATH        repair checker errors in a project tree
    fixloop bench DATASET   replay a fixture corpus and tabulate fix rates
    fixloop record PATH     like fix, but tee completions into a replay store

``fix`` is the default: ``fixloop ./proj --replay r/`` is shorthand for
``fixloop fix ./proj --replay r/``.  (A project directory literally named
``bench`` or ``record`` needs the explicit ``fix``.)

Without ``--in-place`` the project is copied to a scratch directory and
repaired there, so the original tree is never modified; pass
``--emit-patch DIR`` to capture the edits as unified diffs.  Both modes
fix the same files: the copy keeps a linked directory as a link, which
the loop never edits, and leaves a dangling link out.

Exit status: 0 when every initial error was fixed (or every bench case
matched), 1 when something gave up or mismatched, 2 for usage errors,
3 for configuration failures (bad checker profile, missing backend,
unreadable replay store, replay drift, a project that cannot be copied
or read) and for an output fixloop cannot write (the ``--log`` file,
``--emit-patch`` patches, the record store, the fixed tree), 130 for
Ctrl-C and 143 for SIGTERM.  Both signals roll the tree back as any
other abort does.  A run that fails removes its scratch copy.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import shutil
import signal
import sys
import threading
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from . import __version__
from .bench import render_csv, render_summary, run_bench
from .checker import CheckerProfile, SubprocessChecker, load_profile
from .errors import ConfigError, FixloopError
from .llm import HttpBackend, RecordingBackend, ReplayBackend
from .orchestrator import FixReport, Orchestrator, RunConfig, RunLog
from .prompting import PromptVariant
from .scripted_checker import copy_project
from .workspace import Workspace

SUBCOMMANDS = ("fix", "bench", "record")
ENDPOINT_ENV = "FIXLOOP_ENDPOINT"


class Terminated(BaseException):
    """SIGTERM, raised where the main thread is, so rollbacks and the
    scratch cleanup run as they do for Ctrl-C."""


def _raise_terminated(signum, frame) -> None:
    raise Terminated("SIGTERM")


def _bounded_int(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer from ``low`` to ``high`` (None: unbounded)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"between {low} and {high}" if high is not None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}")
        return value

    return integer


def _variant(text: str) -> PromptVariant:
    try:
        return PromptVariant.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_fix_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", type=Path, help="project root to repair")
    parser.add_argument(
        "--checker",
        default="cargo",
        help="builtin checker profile name (cargo, clippy, scripted, scripted-lint) "
        "or path to a profile JSON file",
    )
    parser.add_argument(
        "--n",
        type=_bounded_int(1, 5),
        default=RunConfig.n_completions,
        metavar="N",
        help="completions requested per prompt, 1-5 (default %(default)s)",
    )
    parser.add_argument(
        "--window",
        type=_bounded_int(0),
        default=RunConfig.window,
        metavar="LINES",
        help="context lines on each side of an error location (default %(default)s)",
    )
    parser.add_argument(
        "--variant",
        type=_variant,
        default=RunConfig.variant,
        metavar="P0..P4",
        help=f"prompt format variant (default {RunConfig.variant.name})",
    )
    parser.add_argument(
        "--max-unique-errors",
        type=_bounded_int(1),
        default=RunConfig.max_unique_errors,
        metavar="K",
        help="give up on a group once it has surfaced this many distinct errors",
    )
    parser.add_argument(
        "--no-grouping",
        action="store_true",
        help="disable error grouping (repair one error at a time)",
    )
    parser.add_argument(
        "--emit-patch",
        type=Path,
        metavar="DIR",
        help="write each applied edit as a unified diff into DIR",
    )
    parser.add_argument(
        "--in-place",
        action="store_true",
        help="edit the project tree directly instead of a scratch copy",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        metavar="DIR",
        help="serve completions from a recorded store instead of an HTTP backend",
    )
    parser.add_argument("--model", default=RunConfig.model_name, help="model name sent to the HTTP backend")
    parser.add_argument(
        "--endpoint",
        default="",
        help=f"chat-completion endpoint URL (default: ${ENDPOINT_ENV})",
    )
    parser.add_argument(
        "--test-cmd",
        metavar="CMD",
        help="command run once after all checks pass; nonzero exit demotes the run",
    )
    parser.add_argument(
        "--log",
        type=Path,
        metavar="FILE",
        help="append run events to FILE as JSON lines",
    )
    parser.add_argument(
        "--template",
        type=Path,
        metavar="FILE",
        help="prompt template override (same placeholder holes as the builtin)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixloop",
        description="Iteratively repair compiler and linter errors with an LLM backend.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    fix = sub.add_parser("fix", help="repair checker errors in a project tree")
    _add_fix_arguments(fix)

    record = sub.add_parser("record", help="repair while recording completions for replay")
    _add_fix_arguments(record)
    record.add_argument(
        "--record-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="replay store to write prompts' completions into",
    )

    bench = sub.add_parser("bench", help="replay a fixture corpus and tabulate fix rates")
    bench.add_argument("dataset", type=Path, help="directory of fixture cases")
    bench.add_argument("--csv", action="store_true", help="emit per-case CSV instead of the table")
    bench.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def _insert_default_command(argv: List[str]) -> List[str]:
    """``fixloop PATH ...`` means ``fixloop fix PATH ...``."""
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help", "--version"):
        return ["fix"] + argv
    return argv


def _make_backend(args: argparse.Namespace):
    if args.replay:
        return ReplayBackend(args.replay)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV, "")
    if not endpoint:
        raise ConfigError(
            "no completion backend configured: pass --replay DIR or --endpoint URL "
            f"(or set ${ENDPOINT_ENV})"
        )
    return HttpBackend(endpoint)


def _print_report(report: FixReport, out) -> None:
    print(f"initial errors: {report.initial_errors}", file=out)
    for outcome in report.outcomes:
        key = outcome.key
        where = f"{key.code} in {key.file}" if key.code else key.file
        if outcome.outcome == "fixed":
            n = outcome.group_iterations
            print(f"  {where}: fixed ({n} iteration{'s' if n != 1 else ''})", file=out)
        else:
            print(f"  {where}: gave up ({outcome.failure_class})", file=out)
    if report.test_command_ran:
        verdict = "passed" if report.test_exit == 0 else f"failed (exit {report.test_exit})"
        print(f"test command: {verdict}", file=out)
    print(f"fixed {report.fixed} of {report.initial_errors}", file=out)


def _fix_tree(args: argparse.Namespace, recording: bool, profile: CheckerProfile, ws: Workspace) -> FixReport:
    backend = _make_backend(args)
    if recording:
        args.record_dir.mkdir(parents=True, exist_ok=True)
        backend = RecordingBackend(backend, args.record_dir)

    cfg = RunConfig.for_profile(
        profile,
        n_completions=args.n,
        window=args.window,
        max_unique_errors=args.max_unique_errors,
        variant=args.variant,
        grouping_enabled=not args.no_grouping,
        test_command=args.test_cmd,
        template=args.template.read_text(encoding="utf-8") if args.template else None,
        emit_patch_dir=args.emit_patch,
        model_name=args.model,
    )
    if args.emit_patch:
        args.emit_patch.mkdir(parents=True, exist_ok=True)

    checker = SubprocessChecker(profile, ws.root)
    log_stream = open(args.log, "a", encoding="utf-8") if args.log else None
    try:
        return Orchestrator(ws, checker, backend, cfg, RunLog(log_stream)).fix_project()
    finally:
        if log_stream is not None:
            # a failed close must not replace an exception in flight
            with contextlib.suppress(OSError) if sys.exc_info()[0] else contextlib.nullcontext():
                log_stream.close()


def _cmd_fix(args: argparse.Namespace, recording: bool) -> int:
    root = args.path.resolve()
    if not root.is_dir():
        raise ConfigError(f"{args.path} is not a directory")
    profile = load_profile(args.checker)

    scratch = None if args.in_place else Path(tempfile.mkdtemp(prefix="fixloop-"))
    work_root = root if scratch is None else scratch / root.name
    try:
        if scratch is not None:
            copy_project(root, work_root)
        ws = Workspace.load_project(work_root, profile.extensions)
        report = _fix_tree(args, recording, profile, ws)
    except BaseException:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)  # a failed run leaves nothing to inspect
        raise

    _print_report(report, sys.stdout)
    if args.emit_patch:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)  # the diffs carry the edits
        print(f"patches written to {args.emit_patch}")
    elif scratch is not None:
        print(f"working copy left at {work_root}")
    return 0 if report.all_fixed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    summary = run_bench(args.dataset, report_stream=None if args.csv else sys.stdout)
    if args.csv:
        print(render_csv(summary), end="")
    else:
        print(render_summary(summary))
    return 0 if summary.all_matched else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_insert_default_command(raw))
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _raise_terminated) if on_main else None
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_fix(args, recording=args.command == "record")
    except (FixloopError, OSError) as exc:  # OSError: a file of its own that fixloop cannot write
        print(f"fixloop: {exc}", file=sys.stderr)
        return 3
    except Terminated:
        print("fixloop: terminated", file=sys.stderr)
        return 143
    except KeyboardInterrupt:
        print("fixloop: interrupted", file=sys.stderr)
        return 130
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    raise SystemExit(main())
