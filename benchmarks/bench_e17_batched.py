"""E17 — batched multi-instance solving: ``solve_many`` vs sequential solves.

PR 7 adds :func:`repro.core.batch.solve_many`: shape-homogeneous instances
run the fused lockstep loop, where the oracle estimate pass, the Gram
recurrences, the trace estimation and the certificate eigenvalue calls all
execute as batched GEMMs over a super-stack, with per-instance termination
masks recompacting the batch as instances certify and exit.  The payoff is
on *small* instances, where a sequential solve is dominated by Python
dispatch rather than FLOPs — exactly the regime a parameter sweep or a
cutting-plane outer loop hits when it solves hundreds of related decision
problems.

This benchmark times ``solve_many`` against the equivalent loop of
sequential ``decision_psdp`` calls (each on a fresh collection, with the
instance's own spawned rng stream) on the small-instance family and checks
the batched acceptance contract:

* every batched decision is *identical* to its sequential solve — outcome,
  iteration count, dual value and certificate vector, bit for bit;
* batched wall clock is at least **3x** better than sequential on the
  small-instance family's ``B >= 32`` headline row of the full grid.

Collection construction happens outside the timed region for both arms
(the Taylor engine caches per collection, so each timed solve gets fresh
collections over the same factors).  Results are printed as a table and
emitted machine-readably to ``BENCH_batched.json`` at the repository root
(override with ``--output``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_e17_batched.py [--quick]

The non-quick run enforces the acceptance gate; the committed payload is
re-checked by ``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    emit_payload,
    environment_info,
    make_argparser,
    report_failures,
)
from repro.core.batch import instance_rng, solve_many  # noqa: E402
from repro.core.decision import decision_psdp  # noqa: E402
from repro.operators import ConstraintCollection, FactorizedPSDOperator  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_batched.json"
)

#: (m, n, rank, scale, batch) grid.  The headline family is the smallest —
#: m=24, six rank-1 constraints — where sequential solves are almost pure
#: Python dispatch; the B sweep shows the speedup growing with batch size
#: and the m=32 rank-2 rows show it persisting (more slowly) as the
#: per-instance FLOP share rises.
FULL_GRID = [
    (24, 6, 1, 0.30, 8),
    (24, 6, 1, 0.30, 32),
    (32, 8, 2, 0.35, 32),
    (32, 8, 2, 0.35, 64),
]
QUICK_GRID = [
    (24, 6, 1, 0.30, 4),
]

EPSILON = 0.25
DECISION_CAP = 40
#: No mid-run certificate checks: the sweep regime runs every instance to
#: its iteration cap, so the per-instance eigenvalue check (the one piece
#: the lockstep cannot batch across exits) happens once, at result build.
CHECK_EVERY = 0
#: Best-of repeats, interleaved so cache/turbo drift hits both arms equally.
REPEATS = 5


def make_factors(
    batch: int, m: int, n: int, rank: int, scale: float, seed: int
) -> list[list[np.ndarray]]:
    """Per-instance factor sets for a batch of related random instances."""
    rng = np.random.default_rng(seed)
    return [
        [scale * rng.standard_normal((m, rank)) for _ in range(n)]
        for _ in range(batch)
    ]


def fresh_collections(factors: list[list[np.ndarray]]) -> list[ConstraintCollection]:
    """New collections over the same factors, so each timed run pays its own
    packed-view builds."""
    return [
        ConstraintCollection([FactorizedPSDOperator(f) for f in ops], validate=False)
        for ops in factors
    ]


def results_identical(batched, sequential) -> bool:
    """The acceptance contract's per-instance identity check."""
    return (
        batched.outcome == sequential.outcome
        and batched.iterations == sequential.iterations
        and batched.status == sequential.status
        and batched.dual_value == sequential.dual_value
        and np.array_equal(batched.dual_x, sequential.dual_x)
    )


def bench_row(
    m: int, n: int, rank: int, scale: float, batch: int, seed: int, repeats: int
) -> dict:
    """Sequential-loop vs solve_many wall clock on one grid row."""
    factors = make_factors(batch, m, n, rank, scale, seed)
    opts = dict(
        epsilon=EPSILON,
        oracle="fast",
        max_iterations=DECISION_CAP,
        certificate_check_every=CHECK_EVERY,
    )
    seq_best = bat_best = float("inf")
    seq_results = bat_results = None
    for _ in range(repeats):
        colls = fresh_collections(factors)
        start = time.perf_counter()
        seq_results = [
            decision_psdp(coll, rng=instance_rng(seed, i), **opts)
            for i, coll in enumerate(colls)
        ]
        seq_best = min(seq_best, time.perf_counter() - start)

        colls = fresh_collections(factors)
        start = time.perf_counter()
        bat_results = solve_many(colls, rng=seed, **opts)
        bat_best = min(bat_best, time.perf_counter() - start)
    mismatches = sum(
        not results_identical(b, s) for b, s in zip(bat_results, seq_results)
    )
    return {
        "m": m,
        "n": n,
        "rank": rank,
        "scale": scale,
        "batch": batch,
        "sequential_seconds": seq_best,
        "batched_seconds": bat_best,
        "speedup": seq_best / max(bat_best, 1e-12),
        "mismatches": mismatches,
        "outcomes": sorted({r.outcome.name for r in bat_results}),
        "iterations_max": max(r.iterations for r in bat_results),
    }


def main(argv=None) -> int:
    """Run the E17 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    repeats = 2 if args.quick else REPEATS

    rows = []
    for m, n, rank, scale, batch in grid:
        row = bench_row(m, n, rank, scale, batch, args.seed, repeats)
        rows.append(row)
        print(
            f"[batched] m={m:3d} n={n} rank={rank} B={batch:3d} "
            f"seq={row['sequential_seconds']:7.3f}s "
            f"bat={row['batched_seconds']:7.3f}s "
            f"speedup={row['speedup']:5.2f}x mismatches={row['mismatches']}"
        )

    payload = {
        "experiment": "E17-batched",
        "description": "solve_many vs sequential decision_psdp on the small-instance family",
        "quick": args.quick,
        "config": {
            "epsilon": EPSILON,
            "decision_iteration_cap": DECISION_CAP,
            "repeats": repeats,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "batched": rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in rows:
        where = f"m={row['m']}, B={row['batch']}"
        if row["mismatches"]:
            failures.append(
                f"{row['mismatches']} batched results diverged from sequential at {where}"
            )
    if not args.quick:
        # The acceptance headline: the small-instance family's B >= 32 row
        # must be at least 3x faster batched (the larger-m rows are scaling
        # context and may legitimately sit nearer break-even).
        headline = max(row["speedup"] for row in rows if row["batch"] >= 32)
        if headline < 3.0:
            failures.append(f"headline batched speedup {headline:.2f}x < 3.0x at B >= 32")
    return report_failures(failures)


if __name__ == "__main__":
    sys.exit(main())
