"""Counting and span recording around fixloop's layers, from outside.

Each layer is a ``src/fixloop`` module.  The recorder replaces the public
functions and methods a layer's callers invoke with wrappers -- on the
module that imports them, or on the class -- and restores the originals
when it is uninstalled.  Nothing inside the package changes.

Untraced passes install only the wrappers that count what the end-to-end
metrics need (checker runs, completions, the report of each case).  The
traced pass installs every wrapper and keeps one span per call: name,
start, end, parent span and case id, held in memory and written out at the
end.  A layer's self time is its spans' time minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Layers whose self time is reported; together with ``entry`` (the case's
# entry point and the copy it makes) and ``trace`` (the recorder's own mtime
# scans) they account for every traced verdict millisecond.
LAYERS = (
    "checker",
    "diagnostics",
    "localization",
    "prompting",
    "llm",
    "changelog",
    "patching",
    "workspace",
    "orchestrator",
)
ENTRY_LAYERS = ("cli", "fixtures", "entry")


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    def __init__(self) -> None:
        self.tracing = False
        self.counts: Counter = Counter()
        self.sums: Dict[str, float] = defaultdict(float)
        self.check_s: List[float] = []
        self.spans: List[list] = []  # [name, start, end, parent index, case id]
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        self._rank_depth = 0
        self.case: Optional[str] = None
        self.first_check: Optional[int] = None  # diagnostics of the case's first check
        self.report = None  # FixReport of the case

    # ------------------------------------------------------------------

    def begin_case(self, case_id: str) -> None:
        self.case = case_id
        self.first_check = None
        self.report = None

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.case]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = functools.wraps(fn)(make(fn))
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._installed.append((owner, attr, raw))

    def _timed(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def install(self, backends: List[type], full: bool) -> None:
        """Wrap fixloop's layer boundaries.  ``backends`` are the classes
        whose ``complete`` serves completions in this workload."""
        from fixloop import checker, cli, fixtures, orchestrator, prompting
        from fixloop.errors import PatchError
        from fixloop.llm import ReplayStore
        from fixloop.patching import PatchPlan
        from fixloop.workspace import Workspace

        rec = self

        def on_report(args, report):
            rec.report = report

        self._timed(orchestrator.Orchestrator, "fix_project", "orchestrator.fix_project", on_report)

        def make_check(fn):
            def check(*args, **kwargs):
                cpu = _cpu_children()
                start = time.perf_counter()
                with rec.span("checker.check"):
                    diags = fn(*args, **kwargs)
                rec.check_s.append(time.perf_counter() - start)
                rec.sums["checker.child_cpu"] += _cpu_children() - cpu
                rec.counts["checker.calls"] += 1
                if rec._rank_depth:
                    rec.counts["orchestrator.probes"] += 1
                if rec.first_check is None:
                    rec.first_check = len(diags)
                return diags

            return check

        self._patch(checker.SubprocessChecker, "check", make_check)

        def on_completions(args, completions):
            rec.counts["llm.requests"] += 1
            rec.counts["llm.completions"] += len(completions)

        for backend in backends:
            self._timed(backend, "complete", "llm.complete", on_completions)
        if not full:
            return

        def count(name):
            return lambda args, result: rec.counts.update([name])

        self._timed(cli, "main", "cli.main")
        self._timed(fixtures, "run_fixture", "fixtures.run_fixture")
        self._timed(fixtures, "compare_trees", "fixtures.compare")
        # run_fixture copies the project through the ``shutil`` it imports
        shutil_proxy = types.SimpleNamespace(**vars(fixtures.shutil))
        self._timed(shutil_proxy, "copytree", "fixtures.copy")
        self._installed.append((fixtures, "shutil", fixtures.shutil))
        fixtures.shutil = shutil_proxy

        def make_rank(fn):
            def rank(*args, **kwargs):
                rec._rank_depth += 1
                try:
                    with rec.span("orchestrator.rank"):
                        result = fn(*args, **kwargs)
                finally:
                    rec._rank_depth -= 1
                if result[0] is not None:
                    rec.counts["orchestrator.winners"] += 1
                return result

            return rank

        self._patch(orchestrator.Orchestrator, "best_completion", make_rank)
        self._timed(checker.SubprocessChecker, "explain", "checker.explain", count("checker.explain_calls"))

        def on_parsed(args, diags):
            rec.counts["diagnostics.records"] += len(diags)

        self._timed(checker, "parse_checker_output", "diagnostics.parse", on_parsed)
        self._timed(prompting, "extract_snippets", "localization.extract")

        def on_prompt(args, prompt):
            if prompt is not None:
                rec.counts["prompting.prompt_chars"] += len(prompt.text)

        self._timed(orchestrator, "build_prompt", "prompting.build", on_prompt)

        self._timed(ReplayStore, "read", "llm.serve")
        for attr in ("parse_response", "parse_snippet_response"):
            self._timed(orchestrator, attr, "changelog.parse", count("changelog.parsed"))
        self._timed(orchestrator, "validate", "changelog.validate")

        def on_plan(args, planned):
            if isinstance(planned, PatchPlan):
                rec.counts["changelog.accepted"] += 1

        for attr in ("plan", "plan_snippets"):
            self._timed(orchestrator, attr, "patching.plan", on_plan)

        def make_apply(fn):
            def apply(*args, **kwargs):
                rec.counts["patching.applies"] += 1
                try:
                    with rec.span("patching.apply"):
                        return fn(*args, **kwargs)
                except PatchError:
                    rec.counts["patching.apply_failures"] += 1
                    raise

            return apply

        self._patch(orchestrator, "apply", make_apply)
        self._timed(Workspace, "load_project", "workspace.load")
        self._timed(Workspace, "snapshot", "workspace.snapshot", count("workspace.snapshots"))
        self._timed(Workspace, "restore", "workspace.restore")

        def make_flush(fn):
            def flush(ws, *args, **kwargs):
                with rec.span("trace.scan"):
                    before = _mtimes(ws)
                with rec.span("workspace.flush"):
                    fn(ws, *args, **kwargs)
                with rec.span("trace.scan"):
                    after = _mtimes(ws)
                rec.counts["workspace.flushes"] += 1
                rec.counts["workspace.files_written"] += sum(
                    1 for p, t in after.items() if before.get(p) != t
                )

            return flush

        self._patch(Workspace, "flush", make_flush)


def _mtimes(ws) -> Dict[str, int]:
    return {p: os.stat(ws.root / p).st_mtime_ns for p in ws.paths()}


VERDICT_SPANS = ("cli.main", "fixtures.run_fixture", "entry.case")


def layer_metrics(rec: Recorder, serve_s: float, iterations: int, overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.  ``serve_s`` is the time the
    completion source spent answering, ``iterations`` the loop's inner
    iterations, ``overhead_s`` traced minus untraced pass wall time."""
    spans = rec.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: Dict[str, float] = defaultdict(float)
    self_in_verdict: Dict[str, float] = defaultdict(float)
    in_verdict = [False] * len(spans)
    verdict_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        inclusive[name] += end - start
        in_verdict[i] = name in VERDICT_SPANS or (parent >= 0 and in_verdict[parent])
        if name in VERDICT_SPANS and not (parent >= 0 and in_verdict[parent]):
            verdict_s += end - start
        if in_verdict[i]:
            self_in_verdict[name.split(".")[0]] += (end - start) - covered[i]
    c = rec.counts

    def ms(seconds: float) -> float:
        return seconds * 1e3

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    m = {
        "checker.calls": c["checker.calls"],
        "checker.check_ms": ms(inclusive["checker.check"]),
        "checker.check_ms_p50": ms(statistics.median(rec.check_s)) if rec.check_s else 0.0,
        "checker.child_cpu_ms": ms(rec.sums["checker.child_cpu"]),
        "checker.explain_calls": c["checker.explain_calls"],
        "checker.explain_ms": ms(inclusive["checker.explain"]),
        "diagnostics.parse_ms": ms(inclusive["diagnostics.parse"]),
        "diagnostics.records": c["diagnostics.records"],
        "localization.extract_ms": ms(inclusive["localization.extract"]),
        "prompting.build_ms": ms(inclusive["prompting.build"]),
        "prompting.prompt_chars": c["prompting.prompt_chars"],
        "llm.requests": c["llm.requests"],
        "llm.completions": c["llm.completions"],
        "llm.complete_ms": ms(inclusive["llm.complete"]),
        "llm.server_ms": ms(serve_s),
        "changelog.parse_ms": ms(inclusive["changelog.parse"]),
        "changelog.validate_ms": ms(inclusive["changelog.validate"]),
        "changelog.accept_ratio": ratio(c["changelog.accepted"], c["changelog.parsed"]),
        "patching.plan_ms": ms(inclusive["patching.plan"]),
        "patching.apply_ms": ms(inclusive["patching.apply"]),
        "patching.applies": c["patching.applies"],
        "patching.apply_failures": c["patching.apply_failures"],
        "workspace.load_ms": ms(inclusive["workspace.load"]),
        "workspace.snapshot_ms": ms(inclusive["workspace.snapshot"]),
        "workspace.snapshots": c["workspace.snapshots"],
        "workspace.restore_ms": ms(inclusive["workspace.restore"]),
        "workspace.flush_ms": ms(inclusive["workspace.flush"]),
        "workspace.flushes": c["workspace.flushes"],
        "workspace.files_written": c["workspace.files_written"],
        "orchestrator.rank_ms": ms(inclusive["orchestrator.rank"]),
        "orchestrator.iterations": iterations,
        "orchestrator.useful_probe_ratio": ratio(c["orchestrator.winners"], c["orchestrator.probes"]),
        "fixtures.copy_ms": ms(inclusive["fixtures.copy"]),
        "fixtures.compare_ms": ms(inclusive["fixtures.compare"]),
        "cli.overhead_ms": ms(verdict_s - inclusive["orchestrator.fix_project"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms(self_in_verdict[layer])
    m["entry.self_ms"] = ms(sum(self_in_verdict[layer] for layer in ENTRY_LAYERS))
    m["trace.scan_ms"] = ms(self_in_verdict["trace"])
    m["trace.verdict_ms"] = ms(verdict_s)
    m["trace.overhead_ms"] = ms(overhead_s)
    return m


def write_spans(rec: Recorder, path: Path) -> None:
    """Write the kept spans as JSON lines, times relative to the first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = rec.spans[0][1] if rec.spans else 0.0
    with path.open("w", encoding="utf-8") as out:
        for name, start, end, parent, case in rec.spans:
            out.write(
                json.dumps(
                    {
                        "name": name,
                        "start_ms": (start - origin) * 1e3,
                        "end_ms": (end - origin) * 1e3,
                        "parent": parent,
                        "case": case,
                    }
                )
                + "\n"
            )
