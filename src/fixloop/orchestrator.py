"""The fix loop.

One driver runs both modes.  It checks the project once, then works
*scopes* until its budget is spent or every error left is given up.  A
scope opens on the first error, in deterministic order, whose key is not
given up; it holds the tree it started from, that tree's diagnostics and
its :class:`GiveUpPolicy`.  Each iteration localizes one target error,
builds the prompt, fetches ``n`` completions, ranks them by the residual
error count each leaves (each probe starts from the probed state, applies
its completion and checks) and keeps the best.  Ranking checks each
distinct edit plan once and stops at the first probe that leaves no
errors.  The modes differ only in data:

* **Grouped** (the default): a scope is an *error group*, keyed by its
  seed.  It watches the errors outside its entry set (errors a fix
  introduces join the group), targets the seed and then the first watched
  error, and ends when none is watched.  One group is open at a time, and
  the run opens at most as many as the first check found distinct keys.
  It logs ``group_start``/``group_end`` and ``group_keys_after``.
* **Single** (grouping disabled): a scope is a *target*, keyed by its
  error.  It watches every key not given up and ends when its key is
  gone after any iteration.  Each iteration works the first error not
  given up, so a fix can open a new target before the current one ends.
  The run makes at most ``max(1, keys) * max_unique_errors`` iterations.
  It logs ``bag_size_after`` and ``target_given_up``.

After an iteration that did not end its scope, the policy gives up on, in
this order: no-progress (watched keys unchanged with nothing applied, or
across two applied iterations), blow-up (too many distinct keys over the
lifetime), or ``max_unique_errors`` iterations (the heuristics alone do
not rule out a key-set oscillation).  A backend failure gives up at once,
with its ``error`` in the iteration record.  A give-up rolls the tree
back to the scope's entry tree and never opens that key again.  An
exception (replay drift, a crashed or timed-out checker, Ctrl-C or
SIGTERM) from when a scope opens until it closes rolls the scope back the
same way, then propagates; inside ranking it first restores the probed
state.  A rollback, and a repeated plan in ranking, reuse the diagnostics
held for the tree they stand for: the checker is a function of the tree.

Every iteration appends one record to the run log, which the report, the
benchmarks and the tests read back; it counts the checks its ranking made
(``probes_checked``).  A run's log ends in ``run_end`` (the report and
every checker call the run made), or in ``run_abort`` (the exception's
type and message, and the outermost scope an abort rolled back:
``probe``, ``group``, ``target`` or null).
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

from .changelog import FormatError, parse_response, parse_snippet_response, validate
from .checker import CheckerProfile, Explanation, run_test_command, split_test_command
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
    """Give-up state of one scope; its key sets are the scope's watched
    keys."""

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
        self._checker_calls = 0
        self._rolled_back: Optional[str] = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _check(self) -> List[Diagnostic]:
        self.ws.flush()
        self._checker_calls += 1
        return self.checker.check()

    def _rollback(self, snap: WorkspaceSnapshot) -> None:
        self.ws.restore(snap)
        self.ws.flush()

    @contextmanager
    def _rollback_on_abort(self, snap: WorkspaceSnapshot, scope: str) -> Iterator[None]:
        """An exception (replay drift, a crashed or timed-out checker,
        Ctrl-C) inside the block rolls the tree back to ``snap`` — the
        probed state, or the state a give-up of the unfinished group or
        target leaves — records ``scope`` as rolled back, and propagates.
        Scopes nest, so the last one recorded is the outermost."""
        try:
            yield
        except BaseException:
            self._rollback(snap)
            self._rolled_back = scope
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

        A completion whose edit plan repeats an earlier one's is validated
        but neither applied nor checked: the same plan on the same state
        gives the same tree, so it takes the first occurrence's score and
        rejection.  Ranking stops after a probe that leaves no errors,
        since no later one can score lower; the skipped completions score
        +inf.

        Returns (chosen index or None, per-completion scores, and the
        winner's post-apply diagnostics).  Rejected/unappliable/failing
        completions score +inf; ties break to the lowest index."""
        pre = self.ws.snapshot()
        scores: List[float] = []
        rejections: List[Optional[str]] = []
        first_of_plan: Dict[tuple, int] = {}
        best_idx: Optional[int] = None
        best_count = math.inf
        best_diags: Optional[List[Diagnostic]] = None
        best: Optional[WorkspaceSnapshot] = None
        with self._rollback_on_abort(pre, "probe"):
            for pos, completion in enumerate(completions):
                if best_count == 0:
                    break
                # validation must see the probed state, not the last probe's
                self.ws.restore(pre)
                planned = self._plan_completion(completion, prompt)
                if isinstance(planned, FormatError):
                    scores.append(math.inf)
                    rejections.append(str(planned))
                    continue
                key = tuple((e.file, e.start, e.end, tuple(e.replacement)) for e in planned.edits)
                first = first_of_plan.setdefault(key, pos)
                if first != pos:
                    scores.append(scores[first])
                    rejections.append(rejections[first])
                    continue
                try:
                    apply(self.ws, planned)
                except PatchError as exc:
                    scores.append(math.inf)
                    rejections.append(f"apply failed: {exc}")
                    continue
                diags = self._check()
                count = float(len(diags))
                scores.append(count)
                rejections.append(None)
                if count < best_count:
                    best_idx, best_count, best_diags, best = pos, count, diags, self.ws.snapshot()
        scores += [math.inf] * (len(completions) - len(scores))
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
    # one model iteration
    # ------------------------------------------------------------------

    def _iterate(self, target: Diagnostic, source: str) -> Tuple[bool, Optional[List[Diagnostic]], dict]:
        """Run one localize/prompt/complete/rank/apply cycle for ``target``.

        Returns (applied, post-apply diagnostics, log fields).  The
        diagnostics are the winner's, checked on the tree as it now stands,
        whenever ``applied`` is true, and None otherwise.  A backend
        failure applies nothing and sets the ``error`` field, on which the
        caller gives up."""
        self._inner_iterations += 1
        prompt, explanation_source = self._build_prompt(target)
        if prompt is None:
            return False, None, {
                "prompt_digest": None,
                "explanation_source": explanation_source,
                "note": "no indexed span location; nothing to show the model",
                "probes_checked": 0,
            }
        fields = {"prompt_digest": prompt_digest(prompt.text), "explanation_source": explanation_source}
        try:
            completions = self._complete(prompt)
        except BackendError as exc:
            return False, None, {**fields, "error": f"backend failure: {exc}", "probes_checked": 0}
        checks_before = self._checker_calls
        chosen, scores, diags = self.best_completion(completions, prompt, source)
        probes = self._checker_calls - checks_before
        fields.update(completion_scores=_scores_for_log(scores), chosen_index=chosen, probes_checked=probes)
        return chosen is not None, diags, fields

    # ------------------------------------------------------------------
    # the loop driver (grouped and single mode)
    # ------------------------------------------------------------------

    def _run(self, errs: List[Diagnostic], n_keys: int) -> Tuple[List[Diagnostic], Dict[ErrorKey, GiveUpPolicy]]:
        """Work scopes until the budget is spent or every error left is
        given up.  Returns the diagnostics of the tree the run leaves, and
        the policy of each scope that closed, by its key."""
        grouped = self.cfg.grouping_enabled
        limit = self.cfg.max_unique_errors
        budget = n_keys if grouped else max(1, n_keys) * limit
        spent = 0  # groups opened, or single-mode iterations
        given_up: Set[ErrorKey] = set()
        policies: Dict[ErrorKey, GiveUpPolicy] = {}
        # per open scope: the tree it started from, that tree's diagnostics, and its policy
        scopes: Dict[ErrorKey, Tuple[WorkspaceSnapshot, List[Diagnostic], GiveUpPolicy]] = {}
        watched: List[Diagnostic] = []
        while True:
            if not grouped:  # a target whose key is gone is fixed; should the key come back, it opens anew
                present = {d.key for d in errs}
                for gone in [k for k in scopes if k not in present]:
                    policies[gone] = scopes.pop(gone)[2]
            if grouped and scopes:  # the one open group goes on
                (key,) = scopes
                target = watched[0]
            else:
                bag = [d for d in errs if d.key not in given_up]
                if not bag or spent >= budget:
                    break
                target = bag[0]
                key = target.key
                if key not in scopes:
                    policy = GiveUpPolicy(limit, {key}, {key} if grouped else {d.key for d in bag})
                    scopes[key] = (self.ws.snapshot(), errs, policy)
            snapshot, entry_errs, policy = scopes[key]
            with self._rollback_on_abort(snapshot, "group" if grouped else "target"):
                if not grouped:
                    spent += 1
                elif not policy.iterations:  # the group opens
                    spent += 1
                    self.log.emit("group_start", origin=_key_fields(key), seed_line=target.primary_span.line_start, attempt=spent)
                applied, diags, fields = self._iterate(target, f"a{spent}.i{policy.iterations + 1}" if grouped else f"s{spent}")
                if applied:
                    errs = diags
                outside = {d.key for d in entry_errs} if grouped else given_up
                watched = [d for d in errs if d.key not in outside]
                keys = {d.key for d in watched}
                reason = policy.after_iteration(keys, applied)
                if grouped:
                    sizes = {"group_size_after": len(watched), "group_keys_after": sorted(k.brief() for k in keys)}
                else:
                    sizes = {"bag_size_after": len(keys)}
                self.log.emit(
                    "iteration",
                    mode="grouped" if grouped else "single",
                    group_origin=_key_fields(key) if grouped else None,
                    target=_key_fields(target.key),
                    target_line=target.primary_span.line_start,
                    applied=applied,
                    **sizes,
                    **fields,
                )
                ended = not watched if grouped else key not in {d.key for d in errs}
                if "error" in fields:
                    reason = GIVEUP_BACKEND
                elif ended:
                    reason = None
                elif reason is None:
                    continue
                del scopes[key]
                policies[key] = policy
                if grouped:
                    self.log.emit(
                        "group_end",
                        origin=_key_fields(key),
                        outcome=OUTCOME_FIXED if reason is None else OUTCOME_GAVE_UP,
                        reason=reason,
                        iterations=policy.iterations,
                        lifetime_keys=len(policy.lifetime),
                        seed_present=any(d.key == key for d in errs),
                    )
                if reason is not None:
                    self._rollback(snapshot)
                    errs = entry_errs  # the checker is a function of the tree
                    given_up.add(key)
                    if not grouped:
                        self.log.emit("target_given_up", target=_key_fields(key), reason=reason)
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
            self.log.emit("run_abort", error=type(exc).__name__, message=str(exc), rolled_back=self._rolled_back)
            raise
        self.log.emit("run_end", report=report.to_dict(), checker_calls=self._checker_calls)
        return report

    def _run_loop(self) -> FixReport:
        cfg = self.cfg
        test_words = split_test_command(cfg.test_command) if cfg.test_command else None
        errs = self._check()
        initial_keys = unique_keys(errs)
        final_errs, policies = self._run(errs, len(initial_keys))

        test_ran = False
        test_exit: Optional[int] = None
        if not final_errs and test_words:
            test_ran = True
            argv, test_exit = run_test_command(test_words, self.ws.root)
            self.log.emit("test_command", argv=argv, exit_code=test_exit)

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


def fix_project(
    ws: Workspace,
    checker: Checker,
    backend: Backend,
    cfg: Optional[RunConfig] = None,
    run_log: Optional[RunLog] = None,
) -> FixReport:
    return Orchestrator(ws, checker, backend, cfg, run_log).fix_project()
