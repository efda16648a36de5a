"""E14 — matrix-free iteration core vs the PR-3 dense-``Psi`` solver loop.

PR 3 made the *oracle* fast (rank-adaptive Gram-space engine), but the
solver loop around it still rebuilt a dense ``(m, m)`` ``Psi`` every
iteration (``psi + weighted_sum(delta)``), ran cold dense Lanczos on it
for history records and certificate checks, and materialised the
``O(m^3)`` density matrix (``expm_normalized``) for the primal return
value — which is why the Gram engine's 6x Taylor-apply wins shrank to
1.0–3.2x end-to-end.  This benchmark measures the
:class:`~repro.core.psi_state.ImplicitPsiState` matrix-free core against
that baseline on large-``m`` low-rank and sparse grids where the
dense-``Psi`` tax dominates:

* end-to-end ``decision_psdp`` wall clock with the fast oracle, history
  collection, and certificate checks enabled — the instrumented
  configuration of the acceptance criteria — with ``psi_state="dense"``
  (the PR-3 loop) vs ``psi_state="auto"`` (matrix-free), checking the
  certified decisions are identical on fixed seeds and that the
  matrix-free run reports **zero** dense materialisations;
* end-to-end ``decision_psdp_phased`` wall clock, where the dense path
  additionally pays one ``O(m^3)`` ``expm_normalized`` per phase while the
  matrix-free phase boundary runs entirely through the engine's factored
  matvec.

Results are printed as a table and emitted machine-readably to
``BENCH_matrixfree.json`` at the repository root (override with
``--output``).  Run directly::

    PYTHONPATH=src python benchmarks/bench_e14_matrixfree.py [--quick]

The non-quick run enforces the PR acceptance gates: >= 3x end-to-end on at
least one ``m >= 512`` low-rank ``decision_psdp`` row and >= 1.5x on at
least one ``decision_psdp_phased`` row.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from common import (  # noqa: E402
    emit_payload,
    environment_info,
    fresh_collection,
    make_argparser,
    make_operators,
    report_failures,
    DEFAULT_RANK,
    DEFAULT_SPARSE_DENSITY,
)
from repro.core.decision import decision_psdp  # noqa: E402
from repro.core.decision_phased import decision_psdp_phased  # noqa: E402
from repro.core.dotexp import FastDotExpOracle  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_matrixfree.json"
)

# (n, m, factor_kind) grids.  Low-rank rows keep R = 2n far below m — the
# regime where the oracle is cheap and the dense loop's m^2/m^3 upkeep
# dominates; sparse rows add the sparse-stack weighted_sum (whose product
# densifies to (m, m) every iteration on the old path).
FULL_GRID = [
    (16, 512, "lowrank"),
    (16, 1024, "lowrank"),
    (24, 2048, "lowrank"),
    (200, 1024, "sparse"),
]
PHASED_GRID = [
    (16, 1024, "lowrank"),
    (200, 1024, "sparse"),
]
QUICK_GRID = [
    (8, 96, "lowrank"),
    (40, 96, "sparse"),
]
QUICK_PHASED_GRID = [
    (8, 96, "lowrank"),
]

ORACLE_EPS = 0.1
DECISION_CAP = 30
#: Certificate-check cadence for the instrumented runs (the package default
#: of 25 would fire only once inside the 30-iteration cap).
CHECK_EVERY = 5


def _run_decision(solver, ops, n, m, seed, cap, psi_state):
    """One timed end-to-end solve on a fresh collection; returns row facts."""
    coll = fresh_collection(ops)
    oracle = FastDotExpOracle(coll, eps=ORACLE_EPS, rng=seed)
    start = time.perf_counter()
    result = solver(
        coll,
        epsilon=0.2,
        oracle=oracle,
        rng=seed,
        max_iterations=cap,
        collect_history=True,
        certificate_check_every=CHECK_EVERY,
        psi_state=psi_state,
    )
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "outcome": result.outcome.name,
        "iterations": result.iterations,
        "psi_state": result.metadata["psi_state"],
        "engine_mode": result.metadata.get("taylor_engine", {}).get("mode"),
    }


def bench_pair(solver, ops, n, m, seed, cap) -> dict:
    """Dense-state vs matrix-free wall clock for one solver on one row."""
    old = _run_decision(solver, ops, n, m, seed, cap, "dense")
    new = _run_decision(solver, ops, n, m, seed, cap, "auto")
    return {
        "old_seconds": old["seconds"],
        "new_seconds": new["seconds"],
        "speedup": old["seconds"] / max(new["seconds"], 1e-12),
        "outcome_old": old["outcome"],
        "outcome_new": new["outcome"],
        "iterations_old": old["iterations"],
        "iterations_new": new["iterations"],
        "psi_state_old": old["psi_state"],
        "psi_state_new": new["psi_state"],
        "engine_mode": new["engine_mode"],
    }


def main(argv=None) -> int:
    """Run the E14 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    phased_grid = QUICK_PHASED_GRID if args.quick else PHASED_GRID
    cap = 10 if args.quick else DECISION_CAP

    decision_rows = []
    phased_rows = []
    for rows, solver, label, row_grid in (
        (decision_rows, decision_psdp, "decision", grid),
        (phased_rows, decision_psdp_phased, "phased", phased_grid),
    ):
        for n, m, kind in row_grid:
            ops = make_operators(n, m, kind, args.seed)
            q = sum(op.nnz for op in ops)
            row = {
                "n": n,
                "m": m,
                "factor_kind": kind,
                "rank": DEFAULT_RANK,
                "total_nnz": q,
                **bench_pair(solver, ops, n, m, args.seed, cap),
            }
            rows.append(row)
            print(
                f"[{label:8s}] n={n:4d} m={m:5d} {kind:8s} "
                f"mode={str(row['engine_mode']):10s} "
                f"old={row['old_seconds']:8.3f}s new={row['new_seconds']:7.3f}s "
                f"speedup={row['speedup']:6.1f}x "
                f"outcomes={row['outcome_old']}/{row['outcome_new']} "
                f"densifies={row['psi_state_new']['densifies']}"
            )

    payload = {
        "experiment": "E14-matrixfree",
        "description": "matrix-free PsiState iteration core vs the PR-3 dense-Psi loop",
        "quick": args.quick,
        "config": {
            "rank": DEFAULT_RANK,
            "sparse_density": DEFAULT_SPARSE_DENSITY,
            "oracle_eps": ORACLE_EPS,
            "decision_iteration_cap": cap,
            "certificate_check_every": CHECK_EVERY,
            "collect_history": True,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "decision": decision_rows,
        "phased": phased_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for label, rows in (("decision", decision_rows), ("phased", phased_rows)):
        for row in rows:
            if row["outcome_old"] != row["outcome_new"]:
                failures.append(
                    f"{label} outcome diverged ({row['outcome_old']} vs "
                    f"{row['outcome_new']}) at n={row['n']}, m={row['m']}"
                )
            if row["iterations_old"] != row["iterations_new"]:
                failures.append(
                    f"{label} iteration count diverged at n={row['n']}, m={row['m']}"
                )
            if row["psi_state_new"]["mode"] != "implicit":
                failures.append(
                    f"{label} fast path did not select the implicit state "
                    f"at n={row['n']}, m={row['m']}"
                )
            if row["psi_state_new"]["densifies"] != 0:
                failures.append(
                    f"{label} matrix-free run densified Psi "
                    f"{row['psi_state_new']['densifies']}x at n={row['n']}, m={row['m']}"
                )
    if not args.quick:
        best_lowrank = max(
            (r["speedup"] for r in decision_rows
             if r["factor_kind"] == "lowrank" and r["m"] >= 512),
            default=0.0,
        )
        if best_lowrank < 3.0:
            failures.append(
                f"best m>=512 low-rank decision speedup {best_lowrank:.1f}x < 3x"
            )
        best_phased = max((r["speedup"] for r in phased_rows), default=0.0)
        if best_phased < 1.5:
            failures.append(f"best phased speedup {best_phased:.1f}x < 1.5x")
    return report_failures(failures)


if __name__ == "__main__":
    raise SystemExit(main())
