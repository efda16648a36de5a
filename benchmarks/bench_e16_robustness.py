"""E16 — recovery latency of fault supervision.

Every decision solve runs under a
:class:`~repro.robustness.supervisor.FastPathSupervisor`: every oracle call
and ``lambda_max`` runs inside a recovery loop that can demote a failing
kernel one rung down its ladder.  This benchmark measures what one
recovery costs: the same ``decision_psdp`` solve (history + certificate
checks) clean and with a one-shot injected Taylor-kernel fault, reporting
the full demotion (detect → demote → re-run iteration) relative to the
clean solve (best of ``REPEATS`` each), and checking the faulted run recovers to the clean decision
with ``status = degraded``.

The happy-path cost of supervision is part of every solve's per-layer
profile in ``perfbench/`` (``python3 perfbench/run.py --workload
decision-sparse --trace 1``); there is no unsupervised solver left to
compare against.

Results are printed as a table and emitted machine-readably to
``BENCH_robustness.json`` at the repository root (override with
``--output``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_e16_robustness.py [--quick]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from common import (  # noqa: E402
    emit_payload,
    environment_info,
    fresh_collection,
    make_argparser,
    make_operators,
    report_failures,
    DEFAULT_RANK,
)
from repro.core.decision import decision_psdp  # noqa: E402
from repro.core.dotexp import FastDotExpOracle  # noqa: E402
from repro.robustness import NaN, inject  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_robustness.json"
)

# (n, m, factor_kind) grid: E14's low-rank families, whose Taylor engine
# runs in gram mode (the ladder's top rung).
FULL_GRID = [
    (16, 512, "lowrank"),
    (16, 1024, "lowrank"),
]
QUICK_GRID = [
    (8, 96, "lowrank"),
]

ORACLE_EPS = 0.1
DECISION_CAP = 30
CHECK_EVERY = 5
#: Best-of repeats per arm: the solves take tens of milliseconds, so a
#: single run mostly measures first-call and scheduler noise.
REPEATS = 5


def _solve(ops, seed, cap):
    """One end-to-end solve on a fresh collection; returns (seconds, result)."""
    coll = fresh_collection(ops)
    oracle = FastDotExpOracle(coll, eps=ORACLE_EPS, rng=seed)
    start = time.perf_counter()
    result = decision_psdp(
        coll,
        epsilon=0.2,
        oracle=oracle,
        rng=seed,
        max_iterations=cap,
        collect_history=True,
        certificate_check_every=CHECK_EVERY,
    )
    return time.perf_counter() - start, result


def bench_recovery(ops, seed, cap, repeats) -> dict:
    """Latency of one injected-fault demotion relative to the clean solve."""
    _, clean = _solve(ops, seed, cap)
    site = (
        "taylor_gram.apply"
        if clean.metadata.get("taylor_engine", {}).get("mode") == "gram"
        else "taylor_blocked.apply"
    )
    clean_seconds = faulty_seconds = float("inf")
    # Interleave the arms so cache/turbo drift hits both equally.
    for _ in range(repeats):
        seconds, clean = _solve(ops, seed, cap)
        clean_seconds = min(clean_seconds, seconds)
        with inject(site, NaN, at_call=2):
            seconds, faulty = _solve(ops, seed, cap)
        faulty_seconds = min(faulty_seconds, seconds)
    return {
        "site": site,
        "clean_seconds": clean_seconds,
        "faulty_seconds": faulty_seconds,
        "recovery_ratio": faulty_seconds / max(clean_seconds, 1e-12),
        "status": faulty.metadata["solve_status"],
        "recoveries": faulty.metadata["supervisor"]["recoveries"],
        "outcomes_match": faulty.outcome == clean.outcome,
    }


def main(argv=None) -> int:
    """Run the E16 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    cap = 10 if args.quick else DECISION_CAP

    recovery_rows = []
    for n, m, kind in grid:
        ops = make_operators(n, m, kind, args.seed)
        row = {
            "n": n, "m": m, "factor_kind": kind,
            **bench_recovery(ops, args.seed, cap, REPEATS),
        }
        recovery_rows.append(row)
        print(
            f"[recovery] n={n:4d} m={m:5d} {kind:8s} site={row['site']:20s} "
            f"clean={row['clean_seconds']:7.3f}s faulty={row['faulty_seconds']:7.3f}s "
            f"ratio={row['recovery_ratio']:5.2f}x recoveries={row['recoveries']}"
        )

    payload = {
        "experiment": "E16-robustness",
        "description": "injected-fault recovery latency of the supervised solver",
        "quick": args.quick,
        "config": {
            "rank": DEFAULT_RANK,
            "oracle_eps": ORACLE_EPS,
            "decision_iteration_cap": cap,
            "certificate_check_every": CHECK_EVERY,
            "collect_history": True,
            "repeats": REPEATS,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "recovery": recovery_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in recovery_rows:
        if row["status"] != "degraded" or row["recoveries"] < 1 or not row["outcomes_match"]:
            failures.append(
                f"injected fault did not recover cleanly at n={row['n']}, m={row['m']}"
            )
    return report_failures(failures)


if __name__ == "__main__":
    sys.exit(main())
