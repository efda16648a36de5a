"""E13 — rank-adaptive Gram-space engine vs the PR-2 blocked kernel.

PR 2 evaluated the Lemma 4.2 Taylor apply with a single rule: densify
``Psi`` when ``2R > m``, run the factor recurrence otherwise.  That left
two regimes on the table — low stacked rank (``R << m``), where the series
collapses to ``R x R`` Gram-space GEMMs, and sparse factors, where either
a CSR ``Psi`` with a reusable symbolic pattern or a throughput-aware
densification beats the two-sparse-GEMM recurrence — and rebuilt the
kernel from scratch every oracle call.  This benchmark measures the
rank-adaptive engine against that baseline across an
``(n, m, factor kind)`` grid covering low-rank (``R <= m/4``), sparse
(the ~1.4x rows of E12), concentrated-support (sparse-``Psi``), and
adversarial near-threshold (``2R`` just above/below ``m``) shapes:

* the latency of the degenerate-sketch Taylor block apply over a sequence
  of mildly-changing weight vectors — the solver's actual access pattern:
  the old path rebuilds a PR-2 kernel per step, the new path updates the
  engine's state incrementally;
* the end-to-end wall clock of ``decision_psdp`` with
  ``FastDotExpOracle(engine=...)`` on both paths, checking the certified
  decisions are identical on fixed seeds;
* the engine-vs-reference agreement of the deterministic
  ``big_dot_exp(use_sketch=False)`` pass (must match to ~1e-8).

Results are printed as a table and emitted machine-readably to
``BENCH_gram.json`` at the repository root (override with ``--output``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_e13_gram.py [--quick]

The non-quick run enforces the PR acceptance gates: >= 3x on the Taylor
apply for the 5%-density sparse rows and >= 2x end-to-end on the low-rank
(``R <= m/4``) rows.
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
    time_call,
    DEFAULT_RANK,
    DEFAULT_SPARSE_DENSITY,
)
from repro.core.decision import decision_psdp  # noqa: E402
from repro.core.dotexp import FastDotExpOracle, big_dot_exp  # noqa: E402
from repro.linalg.taylor import taylor_degree  # noqa: E402
from repro.linalg.taylor_gram import TaylorEngine  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_gram.json"
)

# (n, m, factor_kind) grid.  "lowrank" rows keep R = 2n well under m (the
# Gram-space regime, including the 2R == m boundary and a 2R = m + 2
# adversary just past it); "sparse" rows reproduce the ~5%-density family
# E12 left at ~1.4x; "concentrated" rows share an m/8-row support so the
# exact Psi pattern stays tiny.
FULL_GRID = [
    (32, 256, "lowrank"),  # R = m/4
    (64, 512, "lowrank"),  # R = m/4
    (64, 256, "lowrank"),  # 2R == m boundary (gram)
    (33, 128, "lowrank"),  # 2R = m + 4: adversarial just past the boundary
    (400, 128, "sparse"),  # the E12 row PR 2 left at ~1.4x
    (600, 128, "sparse"),  # 2 nnz just under m^2: legacy stays sparse
    (300, 256, "concentrated"),
]
QUICK_GRID = [
    (16, 64, "lowrank"),
    (60, 48, "sparse"),
    (40, 48, "concentrated"),
]

ORACLE_EPS = 0.1
TAYLOR_KAPPA = 8.0
DECISION_CAP = 40
#: weight vectors per timed Taylor-apply pass (the solver's access pattern:
#: each step multiplies a random ~30% of the coordinates).
WEIGHT_STEPS = 6


def weight_sequence(n: int, steps: int, seed: int) -> list[np.ndarray]:
    """Mildly-changing weight iterates mimicking the decision solver."""
    rng = np.random.default_rng(seed)
    x = np.abs(rng.random(n)) / n
    seq = [x]
    for _ in range(steps - 1):
        x = x.copy()
        mask = rng.random(n) < 0.3
        if not mask.any():
            mask[rng.integers(n)] = True
        x[mask] *= 1.05
        seq.append(x)
    return seq


def bench_taylor_sequence(ops, n: int, m: int, repeats: int, seed: int) -> dict:
    """Old-vs-new latency of the Taylor block apply over a weight sequence."""
    coll = fresh_collection(ops)
    packed = coll.packed()
    degree = taylor_degree(TAYLOR_KAPPA / 2.0, ORACLE_EPS / 2.0)
    block = np.eye(m)
    seq = weight_sequence(n, WEIGHT_STEPS, seed)
    engine = TaylorEngine(packed)

    def old_pass():
        for x in seq:
            packed.taylor_kernel(x, mode="legacy").apply(block, degree, scale=0.5)

    def new_pass():
        for x in seq:
            engine.kernel_for(x).apply(block, degree, scale=0.5)

    # Warm up (builds the engine state + BLAS init) and pin the agreement.
    old_ref = packed.taylor_kernel(seq[0], mode="legacy").apply(block, degree, scale=0.5)
    new_ref = engine.kernel_for(seq[0]).apply(block, degree, scale=0.5)
    max_abs_err = float(np.max(np.abs(old_ref - new_ref)))
    t_old = time_call(old_pass, repeats)
    t_new = time_call(new_pass, repeats)

    return {
        "degree": degree,
        "kernel_mode": engine.mode,
        "steps": len(seq),
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": t_old / max(t_new, 1e-12),
        "max_abs_err": max_abs_err,
    }


def bench_decision(ops, n: int, m: int, seed: int, cap: int) -> dict:
    """End-to-end decision latency with the incremental engine on/off."""
    results = {}
    stats = None
    for label, engine in (("old", False), ("new", True)):
        coll = fresh_collection(ops)
        oracle = FastDotExpOracle(coll, eps=ORACLE_EPS, rng=seed, engine=engine)
        start = time.perf_counter()
        result = decision_psdp(
            coll, epsilon=0.2, oracle=oracle, max_iterations=cap, rng=seed
        )
        results[label] = {
            "seconds": time.perf_counter() - start,
            "outcome": result.outcome.name,
            "iterations": result.iterations,
        }
        if engine:
            stats = result.metadata.get("taylor_engine")
    return {
        "old_seconds": results["old"]["seconds"],
        "new_seconds": results["new"]["seconds"],
        "speedup": results["old"]["seconds"] / max(results["new"]["seconds"], 1e-12),
        "outcome_old": results["old"]["outcome"],
        "outcome_new": results["new"]["outcome"],
        "iterations_old": results["old"]["iterations"],
        "iterations_new": results["new"]["iterations"],
        "engine_stats": stats,
    }


def bench_agreement(ops, n: int, m: int, seed: int) -> float:
    """Max abs deviation of the engine kernel's deterministic
    ``big_dot_exp(use_sketch=False)`` pass from the per-factor reference."""
    x = np.abs(np.random.default_rng(seed).random(n)) / n
    coll = fresh_collection(ops)
    reference = big_dot_exp(
        coll.weighted_sum(x), coll.gram_factors(), kappa=2.0, eps=0.2, use_sketch=False
    )
    packed = coll.packed()
    kernel = TaylorEngine(packed).kernel_for(x)
    new_vals = big_dot_exp(kernel, packed, kappa=2.0, eps=0.2, use_sketch=False)
    return float(np.max(np.abs(new_vals - reference)))


def main(argv=None) -> int:
    """Run the E13 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    repeats = 2 if args.quick else 3
    cap = 10 if args.quick else DECISION_CAP

    taylor_rows = []
    decision_rows = []
    for n, m, kind in grid:
        ops = make_operators(n, m, kind, args.seed)
        q = sum(op.nnz for op in ops)
        base = {"n": n, "m": m, "factor_kind": kind, "rank": DEFAULT_RANK, "total_nnz": q}

        row = {**base, **bench_taylor_sequence(ops, n, m, repeats, args.seed)}
        row["nosketch_max_abs_err"] = bench_agreement(ops, n, m, args.seed)
        taylor_rows.append(row)
        print(
            f"[taylor]   n={n:4d} m={m:4d} {kind:12s} k={row['degree']:3d} "
            f"{row['kernel_mode']:14s} old={row['old_seconds']*1e3:9.2f}ms "
            f"new={row['new_seconds']*1e3:8.2f}ms speedup={row['speedup']:6.1f}x "
            f"err={row['max_abs_err']:.2e} nosketch={row['nosketch_max_abs_err']:.2e}"
        )

        row = {**base, **bench_decision(ops, n, m, args.seed, cap)}
        decision_rows.append(row)
        print(
            f"[decision] n={n:4d} m={m:4d} {kind:12s} "
            f"old={row['old_seconds']:8.3f}s  new={row['new_seconds']:7.3f}s  "
            f"speedup={row['speedup']:6.1f}x outcomes={row['outcome_old']}/{row['outcome_new']}"
        )

    payload = {
        "experiment": "E13-gram",
        "description": "rank-adaptive Gram-space engine vs PR-2 blocked kernel",
        "quick": args.quick,
        "config": {
            "rank": DEFAULT_RANK,
            "sparse_density": DEFAULT_SPARSE_DENSITY,
            "oracle_eps": ORACLE_EPS,
            "taylor_kappa": TAYLOR_KAPPA,
            "decision_iteration_cap": cap,
            "weight_steps": WEIGHT_STEPS,
            "repeats": repeats,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "taylor_block": taylor_rows,
        "decision": decision_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in taylor_rows:
        if row["max_abs_err"] > 1e-8:
            failures.append(f"taylor-apply mismatch {row['max_abs_err']:.2e} at {row}")
        if row["nosketch_max_abs_err"] > 1e-8:
            failures.append(
                f"no-sketch mismatch {row['nosketch_max_abs_err']:.2e} at {row}"
            )
        if not args.quick and row["factor_kind"] == "sparse" and row["speedup"] < 3.0:
            failures.append(
                f"sparse taylor speedup {row['speedup']:.1f}x < 3x "
                f"at n={row['n']}, m={row['m']}"
            )
    for row in decision_rows:
        if row["outcome_old"] != row["outcome_new"]:
            failures.append(
                f"decision outcome diverged ({row['outcome_old']} vs "
                f"{row['outcome_new']}) at n={row['n']}, m={row['m']}"
            )
        # R = rank * n; the acceptance gate targets the R <= m/4 rows.
        low_rank = row["factor_kind"] == "lowrank" and 4 * DEFAULT_RANK * row["n"] <= row["m"]
        if not args.quick and low_rank and row["speedup"] < 2.0:
            failures.append(
                f"low-rank decision speedup {row['speedup']:.1f}x < 2x "
                f"at n={row['n']}, m={row['m']}"
            )
    return report_failures(failures)


if __name__ == "__main__":
    raise SystemExit(main())
