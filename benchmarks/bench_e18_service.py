"""E18 — resilient serving: checkpoint overhead, resume savings, cache hits.

PR 8 adds checkpoint/resume to the decision solvers and the
:class:`repro.service.SolveService` queue on top of them.  Resilience is
only free if its mechanisms stay off the hot path, so this benchmark
measures the three costs the design promises to keep small:

* **checkpoint** — a solve with periodic ``checkpoint_every`` captures vs
  the identical solve without; the ``overhead`` ratio must stay at or
  below **1.05x** (captures export component states and copy the small
  per-iteration vectors — never the constraint stack);
* **resume** — continuing a half-finished solve from its checkpoint vs
  restarting it from scratch; the headline ``speedup`` must stay above
  **1.15x** (the checkpoint skips the already-paid iterations, so the
  ideal is ~2x when interrupted halfway);
* **cache** — answering a repeat instance from the service's
  instance-fingerprint cache vs the original cold solve; the headline
  ``speedup`` must stay above **10x** (a hit is one SHA-256 pass over the
  constraint bytes, no solver iterations at all).

Both arms of every row run interleaved best-of-``repeats`` on fresh
collections (the Taylor engine caches per collection object).  Results are
printed as a table and emitted machine-readably to ``BENCH_service.json``
at the repository root (override with ``--output``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_e18_service.py [--quick]

The non-quick run enforces the acceptance gates; the committed payload is
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
from repro.core.decision import DecisionOptions, decision_psdp  # noqa: E402
from repro.operators import ConstraintCollection, FactorizedPSDOperator  # noqa: E402
from repro.service import SolveService, VirtualClock  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_service.json"
)

EPSILON = 0.25
#: Run every arm to the same fixed iteration count (no mid-run certificate
#: checks), so both sides of each ratio execute identical iteration work.
DECISION_CAP = 40
CHECK_EVERY = 0
REPEATS = 7

#: (m, n, rank, checkpoint_every) — capture cadence rows.  The capture
#: exports component states (~tens of microseconds), so the relative cost
#: shrinks as per-iteration FLOPs grow with m.
CHECKPOINT_GRID = [
    (64, 10, 2, 5),
    (96, 10, 2, 5),
    (128, 12, 3, 5),
]
#: (m, n, rank, interrupt_at) — resume-vs-restart rows, interrupted at
#: half the iteration cap.
RESUME_GRID = [
    (64, 10, 2, 20),
    (96, 10, 2, 20),
    (128, 12, 3, 20),
]
#: (m, n, rank) — cache-hit latency rows.
CACHE_GRID = [
    (32, 8, 2),
    (96, 10, 2),
]

QUICK_CHECKPOINT_GRID = CHECKPOINT_GRID[:1]
QUICK_RESUME_GRID = RESUME_GRID[:1]
QUICK_CACHE_GRID = CACHE_GRID[:1]


def make_factors(m: int, n: int, rank: int, seed: int) -> list[np.ndarray]:
    """One seeded factor set; collections are rebuilt fresh per timed run."""
    rng = np.random.default_rng(seed)
    return [0.35 * rng.standard_normal((m, rank)) for _ in range(n)]


def fresh_collection(factors: list[np.ndarray]) -> ConstraintCollection:
    """A new collection over the same factors, so each arm of a ratio pays
    its own packed-view build."""
    return ConstraintCollection(
        [FactorizedPSDOperator(f) for f in factors], validate=False
    )


def solve_opts(**overrides) -> dict:
    """The fixed-iteration-count solve configuration shared by every arm."""
    base = dict(
        epsilon=EPSILON,
        oracle="fast",
        rng=3,
        max_iterations=DECISION_CAP,
        certificate_check_every=CHECK_EVERY,
    )
    base.update(overrides)
    return base


def bench_checkpoint_row(
    m: int, n: int, rank: int, every: int, seed: int, repeats: int
) -> dict:
    """Periodic-capture solve vs plain solve on one instance."""
    factors = make_factors(m, n, rank, seed)
    plain_best = captured_best = float("inf")
    for _ in range(repeats):
        coll = fresh_collection(factors)
        start = time.perf_counter()
        plain = decision_psdp(coll, **solve_opts())
        plain_best = min(plain_best, time.perf_counter() - start)

        coll = fresh_collection(factors)
        start = time.perf_counter()
        captured = decision_psdp(coll, **solve_opts(checkpoint_every=every))
        captured_best = min(captured_best, time.perf_counter() - start)
    return {
        "m": m,
        "n": n,
        "rank": rank,
        "checkpoint_every": every,
        "iterations": captured.iterations,
        "plain_seconds": plain_best,
        "checkpointed_seconds": captured_best,
        "overhead": captured_best / max(plain_best, 1e-12),
        "identical": bool(
            plain.dual_value == captured.dual_value
            and np.array_equal(plain.dual_x, captured.dual_x)
        ),
    }


def bench_resume_row(
    m: int, n: int, rank: int, interrupt_at: int, seed: int, repeats: int
) -> dict:
    """Resume-from-checkpoint vs restart-from-scratch on one instance."""
    factors = make_factors(m, n, rank, seed)
    partial = decision_psdp(
        fresh_collection(factors), **solve_opts(iteration_budget=interrupt_at)
    )
    checkpoint = partial.metadata["checkpoint"]
    restart_best = resume_best = float("inf")
    for _ in range(repeats):
        coll = fresh_collection(factors)
        start = time.perf_counter()
        restarted = decision_psdp(coll, **solve_opts())
        restart_best = min(restart_best, time.perf_counter() - start)

        coll = fresh_collection(factors)
        start = time.perf_counter()
        resumed = decision_psdp(coll, **solve_opts(), resume_from=checkpoint)
        resume_best = min(resume_best, time.perf_counter() - start)
    return {
        "m": m,
        "n": n,
        "rank": rank,
        "interrupt_at": interrupt_at,
        "iterations": restarted.iterations,
        "restart_seconds": restart_best,
        "resume_seconds": resume_best,
        "speedup": restart_best / max(resume_best, 1e-12),
        "identical": bool(
            restarted.dual_value == resumed.dual_value
            and np.array_equal(restarted.dual_x, resumed.dual_x)
        ),
    }


def bench_cache_row(m: int, n: int, rank: int, seed: int, repeats: int) -> dict:
    """Cold service solve vs instance-fingerprint cache hit."""
    factors = make_factors(m, n, rank, seed)
    options = DecisionOptions(**solve_opts())
    cold_best = hit_best = float("inf")
    for _ in range(repeats):
        service = SolveService(options=options, seed=seed, clock=VirtualClock())
        start = time.perf_counter()
        service.submit(fresh_collection(factors))
        service.drain()
        cold_best = min(cold_best, time.perf_counter() - start)

        start = time.perf_counter()
        rid = service.submit(fresh_collection(factors))
        hit_best = min(hit_best, time.perf_counter() - start)
        assert service.response(rid).from_cache
    return {
        "m": m,
        "n": n,
        "rank": rank,
        "cold_seconds": cold_best,
        "hit_seconds": hit_best,
        "speedup": cold_best / max(hit_best, 1e-12),
    }


def main(argv=None) -> int:
    """Run the E18 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    repeats = 2 if args.quick else REPEATS
    checkpoint_grid = QUICK_CHECKPOINT_GRID if args.quick else CHECKPOINT_GRID
    resume_grid = QUICK_RESUME_GRID if args.quick else RESUME_GRID
    cache_grid = QUICK_CACHE_GRID if args.quick else CACHE_GRID

    checkpoint_rows = []
    for m, n, rank, every in checkpoint_grid:
        row = bench_checkpoint_row(m, n, rank, every, args.seed, repeats)
        checkpoint_rows.append(row)
        print(
            f"[checkpoint] m={m:3d} n={n} every={every} "
            f"plain={row['plain_seconds'] * 1e3:7.2f}ms "
            f"captured={row['checkpointed_seconds'] * 1e3:7.2f}ms "
            f"overhead={row['overhead']:5.3f}x identical={row['identical']}"
        )

    resume_rows = []
    for m, n, rank, interrupt_at in resume_grid:
        row = bench_resume_row(m, n, rank, interrupt_at, args.seed, repeats)
        resume_rows.append(row)
        print(
            f"[resume]     m={m:3d} n={n} at={interrupt_at} "
            f"restart={row['restart_seconds'] * 1e3:7.2f}ms "
            f"resume={row['resume_seconds'] * 1e3:7.2f}ms "
            f"speedup={row['speedup']:5.2f}x identical={row['identical']}"
        )

    cache_rows = []
    for m, n, rank in cache_grid:
        row = bench_cache_row(m, n, rank, args.seed, repeats)
        cache_rows.append(row)
        print(
            f"[cache]      m={m:3d} n={n} "
            f"cold={row['cold_seconds'] * 1e3:7.2f}ms "
            f"hit={row['hit_seconds'] * 1e3:7.2f}ms "
            f"speedup={row['speedup']:6.1f}x"
        )

    payload = {
        "experiment": "E18-service",
        "description": (
            "checkpoint capture overhead, resume-vs-restart savings, and "
            "service cache-hit latency"
        ),
        "quick": args.quick,
        "config": {
            "epsilon": EPSILON,
            "decision_iteration_cap": DECISION_CAP,
            "repeats": repeats,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "checkpoint": checkpoint_rows,
        "resume": resume_rows,
        "cache": cache_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in checkpoint_rows + resume_rows:
        if not row["identical"]:
            failures.append(
                f"m={row['m']}: the two arms produced different decisions"
            )
    if not args.quick:
        worst = max(row["overhead"] for row in checkpoint_rows)
        if worst > 1.05:
            failures.append(
                f"checkpoint overhead {worst:.3f}x exceeded the 1.05x ceiling"
            )
        best_resume = max(row["speedup"] for row in resume_rows)
        if best_resume < 1.15:
            failures.append(
                f"resume headline speedup {best_resume:.2f}x below the 1.15x floor"
            )
        best_cache = max(row["speedup"] for row in cache_rows)
        if best_cache < 10.0:
            failures.append(
                f"cache headline speedup {best_cache:.1f}x below the 10x floor"
            )
    return report_failures(failures)


if __name__ == "__main__":
    sys.exit(main())
