"""fixloop's benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload {corpus,bigtree,cargo-http} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  The run sets its workload up five times (``setup_s`` is the
median), then makes ``--seconds / PASS_S[workload]`` passes over the
workload's cases, at least one.  ``wall_s`` sums each case's median time
over the passes.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs one untraced pass and one traced pass and prints the
per-layer metrics of the traced one; ``trace.overhead_ms`` is the
difference of their wall times, and the spans go to
``.bench_work/traces/<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cases whose outcome, final tree or report
disagrees with the reference) and ``metrics``.  The run exits 2 without a
result when the checkout has no program to measure, and 1 when set-up
fails.

The loop's child processes (the scripted checker, its explain command, the
fixtures' test command) import fixloop, so the absolute ``src/`` goes on
their ``PYTHONPATH``, as an editable install would give them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUPS = 5
# Nominal seconds per pass, measured at the seed commit on a 2-core VM.  A
# run makes --seconds / PASS_S passes (at least one): a fixed count for a
# given --seconds, so two commits are measured over the same work.
PASS_S = {"corpus": 12.0, "bigtree": 26.0, "cargo-http": 12.0}
WORKLOAD_NAMES = tuple(PASS_S)

# name -> unit; the end-to-end metrics, printed with --trace 0
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "checker_calls": "count",
    "completions": "count",
    "fixed_ratio": "ratio",
    "files_rewritten": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "prompting.prompt_chars":
        return "chars"
    return "count"


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def prepare_environment() -> None:
    src = ROOT / "src"
    if not (src / "fixloop" / "__init__.py").is_file():
        print(f"run.py: no fixloop sources under {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src)] + inherited)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else Path.cwd() / target)
    # the stand-in server is on 127.0.0.1; never route to it through a proxy
    for var in ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def run_pass(workload, rec, compare: bool = False):
    results = []
    for case in workload.cases():
        results.append(workload.run_case(rec, case))
        if compare:
            workload.compare_layer(case)
    return results


def report_problems(results) -> None:
    for r in results:
        for problem in r.problems:
            print(f"FAILED {r.name}: {problem}", file=sys.stderr)


def wall(results) -> float:
    return sum(r.prepare_s + r.verdict_s for r in results)


def end_to_end(workload, rec, seconds: float, setup_s: List[float]) -> dict:
    rec.install(workload.backends, full=False)
    passes = [run_pass(workload, rec) for _ in range(max(1, int(seconds // PASS_S[workload.name])))]
    results = [r for p in passes for r in p]
    report_problems(results)
    verdicts = [r.verdict_s * 1e3 for r in results]
    tail_ms, tail_pct, samples = tail(verdicts)
    print(f"{workload.name}: {len(passes)} pass(es), {samples} cases; "
          f"verdict_ms_tail is p{tail_pct:.1f} of {samples} samples")  # fmt: skip

    def per_pass(f) -> float:
        return statistics.median(f(p) for p in passes)

    by_case: Dict[str, List[float]] = {}
    for r in results:
        by_case.setdefault(r.name, []).append(r.prepare_s + r.verdict_s)
    values = {
        "wall_s": sum(statistics.median(times) for times in by_case.values()),
        "verdict_ms_p50": statistics.median(verdicts),
        "verdict_ms_tail": tail_ms,
        "checker_calls": per_pass(lambda p: sum(r.checker_calls for r in p)),
        "completions": per_pass(lambda p: sum(r.completions for r in p)),
        "fixed_ratio": per_pass(
            lambda p: sum(r.fixed_keys for r in p) / max(1, sum(r.initial_keys for r in p))
        ),
        "files_rewritten": per_pass(lambda p: sum(r.rewritten for r in p)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return outcome(results, metrics)


def per_layer(workload, rec, seed: int) -> dict:
    from tracing import Recorder, layer_metrics, write_spans

    rec.install(workload.backends, full=False)
    untraced = run_pass(workload, rec)
    rec.uninstall()
    rec = Recorder()
    rec.install(workload.backends, full=True)
    rec.tracing = True
    serve0 = workload.serve_s(rec)
    try:
        traced = run_pass(workload, rec, compare=True)
    finally:
        rec.tracing = False
        rec.uninstall()
    results = untraced + traced
    report_problems(results)
    print(f"{workload.name}: untraced pass {wall(untraced):.3f} s, traced pass {wall(traced):.3f} s")
    values = layer_metrics(
        rec,
        serve_s=workload.serve_s(rec) - serve0,
        iterations=sum(r.iterations for r in traced),
        overhead_s=wall(traced) - wall(untraced),
    )
    values["spurious_rewrites"] = sum(r.spurious for r in traced)
    values["failed_ratio"] = sum(1 for r in results if not r.ok) / len(results)
    write_spans(rec, WORK / "traces" / f"{workload.name}-{seed}.jsonl")
    metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    return outcome(results, metrics)


def outcome(results, metrics: dict) -> dict:
    failed = sum(1 for r in results if not r.ok)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()

    from tracing import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, WORK, args.seed)
    rec = Recorder()
    try:
        setup_s = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            result = per_layer(workload, rec, args.seed)
        else:
            result = end_to_end(workload, rec, args.seconds, setup_s)
    except RuntimeError as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        rec.uninstall()
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
