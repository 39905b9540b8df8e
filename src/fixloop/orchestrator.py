"""The fix loop.

Outer loop: run the checker, pick the first error in deterministic
order, seed an *error group* from it, and hand the group to the inner
loop; when the inner loop gives up, roll the workspace back to the
group-entry snapshot and never reseed that error key again.  The outer
loop is bounded by the number of distinct error keys the first checker
run reported.

Inner loop (per group): localize the group's first error, build the
prompt, fetch ``n`` completions, rank them by the residual error count
each would leave behind (each probe starts from the probed state, applies
its completion and checks), keep the best as probed, then recompute the
group as ``check(project) minus the outer error set`` — newly-introduced
errors join the group, everything else stays the outer loop's business.

The group gives up through :class:`GiveUpPolicy`, the one give-up rule
single-loop mode (grouping disabled) uses too.  After each iteration that
did not fix its target it checks, in this order: no-progress (key set
unchanged with nothing applied, or unchanged across two consecutive
applied iterations), blow-up (too many distinct keys over the lifetime),
and ``max_unique_errors`` iterations outright (the two heuristics alone do
not rule out a key-set oscillation, and termination must not depend on
the model behaving).  A backend failure gives up at once.  An exception
(replay drift, a crashed or timed-out checker, Ctrl-C or SIGTERM) rolls
the unfinished group or target back as a give-up would, then propagates.
Ranking ends at the winner's state, or at the probed state when no
completion applied or a probe raised.  A rollback reuses the diagnostics
held for the tree it restores: the checker is a function of the tree.

Every iteration appends one structured record to the run log, which is
what the report, the benchmarks, and the tests read back.  A run's log
ends in ``run_end``, or in ``run_abort`` (the exception's type and
message) when an exception ends the run.
"""

from __future__ import annotations

import json
import logging
import math
import shlex
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

from .changelog import FormatError, parse_response, parse_snippet_response, validate
from .checker import CheckerProfile, Explanation
from .diagnostics import Diagnostic, ErrorKey, unique_keys
from .errors import BackendError, PatchError
from .llm import Backend, Completion, CompletionRequest, prompt_digest
from .localization import DEFAULT_WINDOW
from .patching import PatchPlan, apply, plan, plan_snippets, unified_diff, write_patch_file
from .prompting import Prompt, PromptVariant, build_prompt
from .workspace import Workspace, WorkspaceSnapshot

log = logging.getLogger(__name__)

OUTCOME_FIXED = "fixed"
OUTCOME_GAVE_UP = "gave-up"

FAIL_FORMAT = "format"
FAIL_BUILD = "build"
FAIL_TEST = "test"

GIVEUP_BLOWUP = "blow-up"
GIVEUP_NO_PROGRESS = "no-progress"
GIVEUP_BACKEND = "backend"
GIVEUP_ITERATION_LIMIT = "iteration-limit"


class Checker(Protocol):
    def check(self) -> List[Diagnostic]:
        ...

    def explain(self, d: Diagnostic) -> Explanation:
        ...


@dataclass
class RunConfig:
    n_completions: int = 1
    window: int = DEFAULT_WINDOW
    max_unique_errors: int = 100
    variant: PromptVariant = PromptVariant.P4
    grouping_enabled: bool = True
    test_command: Optional[str] = None
    checker_cmd: str = "cargo check"
    language: str = "Rust"
    extension: str = ".rs"
    template: Optional[str] = None
    emit_patch_dir: Optional[Path] = None
    model_name: str = ""

    @classmethod
    def for_profile(cls, profile: CheckerProfile, **fields) -> "RunConfig":
        """A config whose prompt names ``profile``'s command, language and
        first file extension."""
        extension = profile.extensions[0] if profile.extensions else ".rs"
        return cls(checker_cmd=profile.display_command(), language=profile.language, extension=extension, **fields)


class RunLog:
    """Line-delimited JSON event sink; keeps records in memory too so
    callers can assert on them without re-reading the file."""

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream
        self.records: List[dict] = []

    def emit(self, event: str, **fields) -> None:
        record = {"event": event, **fields}
        self.records.append(record)
        if self.stream is not None:
            json.dump(record, self.stream, default=str)
            self.stream.write("\n")
            self.stream.flush()

    def of(self, event: str) -> List[dict]:
        return [r for r in self.records if r["event"] == event]


def _key_fields(k: ErrorKey) -> dict:
    return {"code": k.code, "message": k.message, "file": k.file}


@dataclass
class KeyOutcome:
    key: ErrorKey
    outcome: str  # fixed | gave-up
    failure_class: Optional[str] = None  # format | build | test
    group_iterations: int = 0

    def to_dict(self) -> dict:
        return {
            **_key_fields(self.key),
            "outcome": self.outcome,
            "failure_class": self.failure_class,
            "group_iterations": self.group_iterations,
        }


@dataclass
class FixReport:
    initial_errors: int
    outcomes: List[KeyOutcome]
    iterations_histogram: Dict[int, int] = field(default_factory=dict)
    completions_consumed: int = 0
    inner_iterations: int = 0
    test_command_ran: bool = False
    test_exit: Optional[int] = None

    @property
    def fixed(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == OUTCOME_FIXED)

    @property
    def gave_up(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == OUTCOME_GAVE_UP)

    @property
    def all_fixed(self) -> bool:
        return self.fixed == self.initial_errors

    def failure_class(self) -> Optional[str]:
        """Dominant failure class: the first gave-up key's class."""
        for o in self.outcomes:
            if o.outcome == OUTCOME_GAVE_UP:
                return o.failure_class
        return None

    def to_dict(self) -> dict:
        return {
            "initial_errors": self.initial_errors,
            "fixed": self.fixed,
            "gave_up": self.gave_up,
            "inner_iterations": self.inner_iterations,
            "completions_consumed": self.completions_consumed,
            "iterations_histogram": {str(k): v for k, v in sorted(self.iterations_histogram.items())},
            "test_command_ran": self.test_command_ran,
            "test_exit": self.test_exit,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


@dataclass
class GiveUpPolicy:
    """Give-up state of one target: a group's seed, or a single-mode key.
    Its key sets are the group's keys, or the single-mode bag's."""

    limit: int
    lifetime: Set[ErrorKey]
    last_keys: Set[ErrorKey]
    unchanged_applied_streak: int = 0
    iterations: int = 0
    ever_applied: bool = False

    def after_iteration(self, keys: Set[ErrorKey], applied: bool) -> Optional[str]:
        """Record one iteration that left ``keys`` behind; return the
        give-up reason, or None to keep going."""
        self.iterations += 1
        self.ever_applied |= applied
        self.lifetime |= keys
        unchanged = keys == self.last_keys
        self.last_keys = keys
        if unchanged:
            if not applied:
                return GIVEUP_NO_PROGRESS
            self.unchanged_applied_streak += 1
            if self.unchanged_applied_streak >= 2:
                return GIVEUP_NO_PROGRESS
        else:
            self.unchanged_applied_streak = 0
        if len(self.lifetime) >= self.limit:
            return GIVEUP_BLOWUP
        if self.iterations >= self.limit:
            return GIVEUP_ITERATION_LIMIT
        return None


def _scores_for_log(scores: Sequence[float]) -> List[Optional[int]]:
    return [None if math.isinf(s) else int(s) for s in scores]


class Orchestrator:
    def __init__(
        self,
        ws: Workspace,
        checker: Checker,
        backend: Backend,
        cfg: Optional[RunConfig] = None,
        run_log: Optional[RunLog] = None,
    ):
        self.ws = ws
        self.checker = checker
        self.backend = backend
        self.cfg = cfg or RunConfig()
        self.log = run_log or RunLog()
        self._completions_consumed = 0
        self._inner_iterations = 0
        self._patch_seq = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _check(self) -> List[Diagnostic]:
        self.ws.flush()
        return self.checker.check()

    def _rollback(self, snap: WorkspaceSnapshot) -> None:
        self.ws.restore(snap)
        self.ws.flush()

    @contextmanager
    def _rollback_on_abort(self, snap: WorkspaceSnapshot) -> Iterator[None]:
        """An exception (replay drift, a crashed or timed-out checker,
        Ctrl-C) inside the block rolls the tree back to ``snap`` — the
        probed state, or the state a give-up of the unfinished group or
        target leaves — and propagates."""
        try:
            yield
        except BaseException:
            self._rollback(snap)
            raise

    def _complete(self, prompt: Prompt) -> List[Completion]:
        req = CompletionRequest(prompt.text, self.cfg.n_completions, model_name=self.cfg.model_name)
        completions = self.backend.complete(req)
        self._completions_consumed += len(completions)
        return completions

    def _build_prompt(self, target: Diagnostic) -> Tuple[Optional[Prompt], str]:
        explanation = self.checker.explain(target)
        prompt = build_prompt(
            self.ws,
            target,
            explanation.text,
            self.cfg.variant,
            self.cfg.checker_cmd,
            self.cfg.language,
            self.cfg.extension,
            self.cfg.window,
            template=self.cfg.template,
        )
        return prompt, explanation.source

    def _plan_completion(self, completion: Completion, prompt: Prompt) -> PatchPlan | FormatError:
        if prompt.variant is PromptVariant.P0:
            parsed = parse_snippet_response(completion.text, prompt.snippet_index)
            if isinstance(parsed, FormatError):
                return parsed
            return plan_snippets(parsed)
        parsed = parse_response(completion.text, prompt.variant)
        if isinstance(parsed, FormatError):
            return parsed
        for cl in parsed:
            problem = validate(cl, self.ws)
            if problem is not None:
                return problem
        return plan(parsed)

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------

    def best_completion(
        self, completions: Sequence[Completion], prompt: Prompt, source: str = ""
    ) -> Tuple[Optional[int], List[float], Optional[List[Diagnostic]]]:
        """Probe each completion from the current state: validate it,
        apply it, and score it by the checker's residual error count.  The
        workspace ends at the winner's state as probed, or at the probed
        state when nothing wins or a probe raises.

        Returns (chosen index or None, per-completion scores, and the
        winner's post-apply diagnostics).  Rejected/unappliable/failing
        completions score +inf; ties break to the lowest index."""
        pre = self.ws.snapshot()
        scores: List[float] = []
        rejections: List[Optional[str]] = []
        best_idx: Optional[int] = None
        best_count = math.inf
        best_diags: Optional[List[Diagnostic]] = None
        best: Optional[WorkspaceSnapshot] = None
        with self._rollback_on_abort(pre):
            for pos, completion in enumerate(completions):
                # validation must see the probed state, not the last probe's
                self.ws.restore(pre)
                planned = self._plan_completion(completion, prompt)
                if isinstance(planned, FormatError):
                    scores.append(math.inf)
                    rejections.append(str(planned))
                    continue
                try:
                    apply(self.ws, planned)
                except PatchError as exc:
                    scores.append(math.inf)
                    rejections.append(f"apply failed: {exc}")
                    continue
                diags = self.checker.check()
                count = float(len(diags))
                scores.append(count)
                rejections.append(None)
                if count < best_count:
                    best_idx, best_count, best_diags, best = pos, count, diags, self.ws.snapshot()
        self._rollback(pre if best is None else best)
        if best is None:
            self.log.emit("completions_rejected", reasons=rejections)
            return None, scores, None
        if self.cfg.emit_patch_dir:
            label = f"{source}/c{best_idx}"
            changed = [p for p in pre if best[p] is not pre[p]]
            diff = unified_diff(
                {p: pre[p].content() for p in changed}, {p: best[p].content() for p in changed}, label=label
            )
            write_patch_file(self.cfg.emit_patch_dir, self._patch_seq, label, diff)
            self._patch_seq += 1
        return best_idx, scores, best_diags

    # ------------------------------------------------------------------
    # one model iteration (shared by grouped and single modes)
    # ------------------------------------------------------------------

    def _iterate(self, target: Diagnostic, source: str) -> Tuple[bool, Optional[List[Diagnostic]], dict]:
        """Run one localize/prompt/complete/rank/apply cycle for ``target``.

        Returns (applied, post-apply diagnostics, log fields).  The
        diagnostics are the winner's, checked on the tree as it now stands,
        whenever ``applied`` is true, and None otherwise.  Raises
        BackendError upward for the caller's give-up handling."""
        self._inner_iterations += 1
        prompt, explanation_source = self._build_prompt(target)
        if prompt is None:
            return False, None, {
                "prompt_digest": None,
                "explanation_source": explanation_source,
                "note": "no indexed span location; nothing to show the model",
            }
        completions = self._complete(prompt)
        chosen, scores, diags = self.best_completion(completions, prompt, source)
        fields = {
            "prompt_digest": prompt_digest(prompt.text),
            "explanation_source": explanation_source,
            "completion_scores": _scores_for_log(scores),
            "chosen_index": chosen,
        }
        return chosen is not None, diags, fields

    # ------------------------------------------------------------------
    # grouped mode
    # ------------------------------------------------------------------

    def _fix_group(self, seed: Diagnostic, errs: List[Diagnostic], attempt: int) -> Tuple[Optional[List[Diagnostic]], GiveUpPolicy]:
        """Run one group to its end.  Returns the diagnostics of the tree it
        leaves when it ends fixed (None when it gives up), and its policy."""
        errs_keys: Set[ErrorKey] = {d.key for d in errs}
        seed_key = seed.key
        group: List[Diagnostic] = [seed]
        policy = GiveUpPolicy(self.cfg.max_unique_errors, {seed_key}, {seed_key})
        last_diags = errs
        self.log.emit("group_start", origin=_key_fields(seed_key), seed_line=seed.primary_span.line_start, attempt=attempt)

        def finish(outcome: str, reason: Optional[str]) -> Tuple[Optional[List[Diagnostic]], GiveUpPolicy]:
            self.log.emit(
                "group_end",
                origin=_key_fields(seed_key),
                outcome=outcome,
                reason=reason,
                iterations=policy.iterations,
                lifetime_keys=len(policy.lifetime),
                seed_present=any(d.key == seed_key for d in last_diags),
            )
            return (last_diags if outcome == OUTCOME_FIXED else None), policy

        while group:
            target = group[0]
            try:
                applied, diags, fields = self._iterate(target, f"a{attempt}.i{policy.iterations + 1}")
            except BackendError as exc:
                policy.after_iteration(policy.last_keys, False)  # counts the iteration
                self.log.emit(
                    "iteration",
                    mode="grouped",
                    group_origin=_key_fields(seed_key),
                    target=_key_fields(target.key),
                    target_line=target.primary_span.line_start,
                    error="backend failure: %s" % exc,
                )
                return finish(OUTCOME_GAVE_UP, GIVEUP_BACKEND)
            if applied:
                last_diags = diags
            group = [d for d in last_diags if d.key not in errs_keys]
            keys_after = {d.key for d in group}
            reason = policy.after_iteration(keys_after, applied)
            seed_vanished_unfixed = not group and any(d.key == seed_key for d in last_diags)
            self.log.emit(
                "iteration",
                mode="grouped",
                group_origin=_key_fields(seed_key),
                target=_key_fields(target.key),
                target_line=target.primary_span.line_start,
                applied=applied,
                group_size_after=len(group),
                group_keys_after=sorted(k.brief() for k in keys_after),
                seed_vanished_unfixed=seed_vanished_unfixed,
                **fields,
            )
            if group and reason is not None:
                return finish(OUTCOME_GAVE_UP, reason)
        return finish(OUTCOME_FIXED, None)

    def _run_grouped(self, errs: List[Diagnostic], budget: int) -> Tuple[List[Diagnostic], Dict[ErrorKey, GiveUpPolicy]]:
        given_up: Set[ErrorKey] = set()
        policies: Dict[ErrorKey, GiveUpPolicy] = {}
        attempts = 0
        while errs and attempts < budget:
            candidates = [d for d in errs if d.key not in given_up]
            if not candidates:
                break
            seed = candidates[0]
            attempts += 1
            entry_snapshot = self.ws.snapshot()
            with self._rollback_on_abort(entry_snapshot):
                fixed_diags, policies[seed.key] = self._fix_group(seed, errs, attempts)
            if fixed_diags is None:
                self._rollback(entry_snapshot)
                given_up.add(seed.key)
                # the rollback restored the group-entry tree byte-exactly,
                # so the pre-group diagnostics in `errs` are still current
            else:
                errs = fixed_diags
        return errs, policies

    # ------------------------------------------------------------------
    # single-loop mode (grouping disabled)
    # ------------------------------------------------------------------

    def _run_single(self, errs: List[Diagnostic], n_keys: int) -> Tuple[List[Diagnostic], Dict[ErrorKey, GiveUpPolicy]]:
        cfg = self.cfg
        given_up: Set[ErrorKey] = set()
        policies: Dict[ErrorKey, GiveUpPolicy] = {}
        # per open target: the tree it started from, that tree's diagnostics, and its policy
        states: Dict[ErrorKey, Tuple[WorkspaceSnapshot, List[Diagnostic], GiveUpPolicy]] = {}
        total_cap = max(1, n_keys) * cfg.max_unique_errors
        loops = 0
        while errs and loops < total_cap:
            bag = [d for d in errs if d.key not in given_up]
            if not bag:
                break
            target = bag[0]
            k = target.key
            if k not in states:
                policy = GiveUpPolicy(cfg.max_unique_errors, {k}, {d.key for d in bag})
                states[k] = (self.ws.snapshot(), errs, policy)
            snapshot, entry_errs, policy = states[k]
            loops += 1
            backend_failed = False
            with self._rollback_on_abort(snapshot):
                try:
                    applied, diags, fields = self._iterate(target, f"s{loops}")
                except BackendError:
                    applied, diags, fields = False, None, {}
                    backend_failed = True
                if applied:
                    errs = diags
            bag_keys = {d.key for d in errs if d.key not in given_up}
            reason = policy.after_iteration(bag_keys, applied)
            self.log.emit(
                "iteration",
                mode="single",
                group_origin=None,
                target=_key_fields(k),
                target_line=target.primary_span.line_start,
                applied=applied,
                bag_size_after=len(bag_keys),
                **fields,
            )
            if k not in {d.key for d in errs}:
                policies[k] = policy
                del states[k]
                continue
            if backend_failed:
                reason = GIVEUP_BACKEND
            if reason is not None:
                self._rollback(snapshot)
                errs = entry_errs  # the checker is a function of the tree
                given_up.add(k)
                policies[k] = policy
                self.log.emit("target_given_up", target=_key_fields(k), reason=reason)
                del states[k]
        return errs, policies

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def fix_project(self) -> FixReport:
        cfg = self.cfg
        self.log.emit(
            "run_start",
            root=str(self.ws.root),
            grouping=cfg.grouping_enabled,
            variant=cfg.variant.name,
            n=cfg.n_completions,
            window=cfg.window,
            max_unique_errors=cfg.max_unique_errors,
        )
        try:
            report = self._run_loop()
        except BaseException as exc:
            self.log.emit("run_abort", error=type(exc).__name__, message=str(exc))
            raise
        self.log.emit("run_end", report=report.to_dict())
        return report

    def _run_loop(self) -> FixReport:
        cfg = self.cfg
        errs = self._check()
        initial_keys = unique_keys(errs)
        run = self._run_grouped if cfg.grouping_enabled else self._run_single
        final_errs, policies = run(errs, len(initial_keys))

        test_ran = False
        test_exit: Optional[int] = None
        if not final_errs and cfg.test_command:
            test_ran = True
            test_exit = self._run_test_command(cfg.test_command)

        final_keys = {d.key for d in final_errs}
        outcomes: List[KeyOutcome] = []
        histogram: Dict[int, int] = {}
        for k in initial_keys:
            m = policies.get(k)
            iterations = m.iterations if m else 0
            if k in final_keys:
                failure = FAIL_FORMAT if (m and not m.ever_applied) else FAIL_BUILD
                outcomes.append(KeyOutcome(k, OUTCOME_GAVE_UP, failure, iterations))
            elif test_ran and test_exit != 0:
                outcomes.append(KeyOutcome(k, OUTCOME_GAVE_UP, FAIL_TEST, iterations))
            else:
                outcomes.append(KeyOutcome(k, OUTCOME_FIXED, None, iterations))
                if m is not None:
                    histogram[iterations] = histogram.get(iterations, 0) + 1

        return FixReport(
            initial_errors=len(initial_keys),
            outcomes=outcomes,
            iterations_histogram=histogram,
            completions_consumed=self._completions_consumed,
            inner_iterations=self._inner_iterations,
            test_command_ran=test_ran,
            test_exit=test_exit,
        )

    def _run_test_command(self, command: str) -> int:
        argv = [
            a.replace("{python}", sys.executable).replace("{root}", str(self.ws.root))
            for a in shlex.split(command)
        ]
        try:
            proc = subprocess.run(
                argv, cwd=str(self.ws.root), capture_output=True, text=True, timeout=600
            )
            exit_code = proc.returncode
        except (OSError, subprocess.SubprocessError) as exc:
            log.warning("test command failed to run: %s", exc)
            exit_code = 127
        self.log.emit("test_command", argv=argv, exit_code=exit_code)
        return exit_code


def fix_project(
    ws: Workspace,
    checker: Checker,
    backend: Backend,
    cfg: Optional[RunConfig] = None,
    run_log: Optional[RunLog] = None,
) -> FixReport:
    return Orchestrator(ws, checker, backend, cfg, run_log).fix_project()
