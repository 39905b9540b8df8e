#!/usr/bin/env python3
"""Rebuild replay-store digest manifests for the fixture corpus.

Replays every case with digest verification off, collects the prompt
digests the pipeline actually produces, and rewrites each store's
manifest.json.  Run this after editing a fixture project, a recorded
response, a checker rule set, or anything that changes prompt text.

The expected/ trees are deliberately NOT touched: they are maintained by
hand so that tree comparisons stay independent of the pipeline.  The
script prints the post-run tree diff for each case as a reminder.

Usage: python3 scripts/refresh_replay_manifests.py [CASE_DIR ...]
       (no arguments: refresh every case under fixtures/)
"""

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fixloop.fixtures import CASE_FILE, compare_trees, load_fixture, run_fixture  # noqa: E402
from fixloop.llm import MANIFEST_NAME, ReplayBackend, ReplayStore  # noqa: E402


def discover(base: Path):
    return sorted(p.parent for p in base.rglob(CASE_FILE))


def refresh(case_dir: Path) -> bool:
    fixture = load_fixture(case_dir)
    backend = ReplayBackend(fixture.replay_dir, verify_digests=False)
    with tempfile.TemporaryDirectory(prefix="fixloop-refresh-") as tmp:
        report, root = run_fixture(fixture, Path(tmp), backend=backend)

        manifest = {str(i): digest for i, digest in enumerate(backend.digests_seen)}
        store = ReplayStore(fixture.replay_dir)
        store.save_manifest(manifest)
        print(f"{fixture.name}: {len(manifest)} prompt(s) -> {fixture.replay_dir / MANIFEST_NAME}")

        outcome = "fixed" if report.all_fixed else "gave-up"
        if outcome != fixture.expected:
            print(f"  !! outcome {outcome}, case.json expects {fixture.expected}")
        if fixture.expected_dir.is_dir():
            for problem in compare_trees(root, fixture.expected_dir):
                print(f"  !! {problem}")
        return outcome == fixture.expected


def main() -> int:
    args = [Path(a) for a in sys.argv[1:]]
    case_dirs = args or discover(REPO / "fixtures")
    ok = True
    for case_dir in case_dirs:
        ok = refresh(case_dir) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
