#!/usr/bin/env python
"""Pin the model counts of the repository benchmark.

For each workload this runs::

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

requires exit status 0 and ``"correct": true``, and compares the counts the
benchmark derives from the solver's own results (iterations, Corollary 1.2
model work, Taylor matvecs, batch and service ratios) with :data:`COUNTS`.
A traced run executes a fixed number of operations, so these counts do not
depend on ``--seconds`` or on the machine's speed; a solver change that
moves one (an extra iteration, a different Taylor degree, a changed work
charge) fails here.

``supervisor.recoveries`` is pinned at 0 on every workload.  The model
work and the Taylor matvecs do not depend on which representation
evaluates the polynomial, so a Gram-rung call that faults and demotes to
``dense-psi`` would leave every other count of optimize-factorized where
it was; the recovery count is what shows it.

``psi_state.lambda_max_matvecs`` is pinned for optimize-factorized and
service-mixed: there every ``lambda_max`` is one ``eigvalsh`` of a Gram
twin with ``min(m, R) <= 128``, which counts as many applications as the
twin is wide, so the count measures call sizes.

Left out on purpose:

* counts of calls to the functions ``perfbench/tracing.py`` wraps
  (``dotexp.calls``, ``trace.calls``, ``certificates.calls``,
  ``checkpoint.captures``, ``executor.jobs``): they move whenever the
  solver's call structure changes while its arithmetic does not;
* decision-sparse's ``psi_state.lambda_max_matvecs``: at
  ``min(m, R) = 400`` every ``lambda_max`` is seeded Lanczos, and its sweep
  count follows the last bits of the arithmetic, which the golden pins
  avoid for the same reason.

Like the golden pins, the table assumes the counts repeat across x86
machines.  Run from the repository root (CI runs it in the perfbench job)::

    python tools/check_perfbench_counts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: workload -> {metric: expected value}, from ``--seed 1 --trace 1``.
COUNTS: dict[str, dict[str, float]] = {
    "optimize-factorized": {
        "solver.decision_calls": 8,
        "decision.iterations": 9_649,
        "dotexp.model_work": 6_333_903_520,
        "taylor.matvecs": 2_618_496,
        "psi_state.update_work": 154_320,
        "psi_state.lambda_max_matvecs": 12_544,
        "supervisor.recoveries": 0,
    },
    "decision-sparse": {
        "decision.iterations": 150,
        "dotexp.model_work": 19_451_877_600,
        "taylor.matvecs": 420_000,
        "psi_state.update_work": 30_000,
        "supervisor.recoveries": 0,
    },
    "service-mixed": {
        "decision.iterations": 4_000,
        "dotexp.model_work": 8_548_454_400,
        "taylor.matvecs": 896_000,
        "taylor.engine_update_work": 1_297_612_800,
        "psi_state.update_work": 70_400,
        "psi_state.lambda_max_matvecs": 10_240,
        "batch.fused_share": 0.4,
        "checkpoint.resumes": 160,
        # 50 cache hits among 210 requests.
        "service.cache_hit_ratio": 50 / 210,
        "supervisor.recoveries": 0,
    },
}


def check_workload(workload: str, expected: dict[str, float]) -> list[str]:
    """Run one traced workload; return a message per failed check."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
    ]
    proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{workload}: no summary line (exit {proc.returncode}): {proc.stderr.strip()}"]
    failures = []
    if proc.returncode != 0 or not summary.get("correct"):
        checks = [line for line in lines if line.startswith("check FAILED")]
        failures.append(f"{workload}: exit {proc.returncode}, correct={summary.get('correct')}")
        failures += [f"{workload}: {line}" for line in checks]
    metrics = summary.get("metrics", {})
    for name, value in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != value:
            failures.append(f"{workload}: {name} = {got!r}, expected {value!r}")
    return failures


def main() -> int:
    """Check every workload in :data:`COUNTS`; exit status 1 on any mismatch."""
    failures = []
    for workload, expected in COUNTS.items():
        found = check_workload(workload, expected)
        print(f"{workload}: {'ok' if not found else 'FAILED'} ({len(expected)} counts)")
        failures += found
    for message in failures:
        print(f"  {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
