"""E20 — array-backend parity: NumPy vs torch on the packed kernels.

For every *installed* array backend (``repro.backend.available_backends``)
this benchmark measures, across the E14-style ``(n, m)`` kernel grid:

* per-call latency of the packed hot kernels — ``weighted_sum``, ``dots``,
  the packed matvec, and the fused blocked Taylor apply — against the
  NumPy reference, reported as ``throughput_vs_numpy`` (NumPy seconds over
  backend seconds: 1.0 = parity, above 1 = faster than NumPy);
* float64 agreement of every kernel output with the NumPy reference
  (``max_abs_err``; the committed gate requires torch-CPU <= 1e-9);
* an iteration-capped end-to-end ``decision_psdp(array_backend=...)``
  with outcome/iteration equality against the NumPy run.

Rows for backends that are not installed are simply absent; the
``torch_available`` flag in the payload records why, and
``tools/check_bench_regression.py`` only enforces the torch parity floor
(0.8x NumPy) when the rows exist.

Results are printed as a table and emitted machine-readably to
``BENCH_backend.json`` at the repository root (override with ``--output``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_e20_backend.py [--quick]

The ``--quick`` mode is the CI smoke invocation: a reduced grid and fewer
repetitions, still exercising every installed backend.
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
)
from repro.backend import available_backends, get_array_backend  # noqa: E402
from repro.core.decision import decision_psdp  # noqa: E402
from repro.linalg.taylor_blocked import BlockedTaylorKernel, densified_psi  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_backend.json"
)

# (n, m) grid — the E14 kernel-row shapes (dense exact-factor stacks).
FULL_GRID = [(50, 64), (200, 128), (400, 256)]
QUICK_GRID = [(40, 32)]

TAYLOR_DEGREE = 8
DECISION_CAP = 30
#: Committed-payload gates (enforced by tools/check_bench_regression.py
#: whenever torch rows are present).
PARITY_FLOOR = 0.8
ERR_CEILING = 1e-9


def bench_kernels(ops, n: int, m: int, backend_name: str, repeats: int, seed: int) -> dict:
    """One backend's packed-kernel latencies and errors vs the NumPy view."""
    coll = fresh_collection(ops)
    ref = coll.packed()
    view = coll.packed(backend=backend_name)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=n)
    sym = np.eye(m) + 0.1 * np.ones((m, m))
    block = rng.standard_normal((m, min(m, 32)))
    col_w = view.expand_weights(weights)
    q = ref.matrix

    timings: dict[str, float] = {}
    errors: list[float] = []

    def run(label, fn, reference):
        out = fn()  # warm up (device transfer, BLAS/kernel init)
        errors.append(float(np.max(np.abs(np.asarray(out) - reference))))
        timings[label] = time_call(fn, repeats)

    run("weighted_sum", lambda: view.weighted_sum(weights), ref.weighted_sum(weights))
    run("dots", lambda: view.dots(sym), ref.dots(sym))
    run("matvec", lambda: view.matvec_fn(weights)(block), ref.matvec_fn(weights)(block))

    # Every grid shape has R > m/2, where the engine's Taylor rung is the
    # dense-Psi recurrence.
    psi = densified_psi(q, col_w)
    ref_kernel = BlockedTaylorKernel.from_matrix(psi)
    kernel = BlockedTaylorKernel.from_matrix(psi, backend=backend_name)
    run(
        "taylor_apply",
        lambda: kernel.apply(block, TAYLOR_DEGREE, scale=0.5),
        ref_kernel.apply(block, TAYLOR_DEGREE, scale=0.5),
    )

    return {
        "backend": backend_name,
        "n": n,
        "m": m,
        "seconds": timings,
        "total_seconds": float(sum(timings.values())),
        "max_abs_err": float(max(errors)),
    }


def bench_decision(ops, n: int, m: int, backend_name: str, seed: int, cap: int) -> dict:
    """Iteration-capped end-to-end solve on one backend."""
    coll = fresh_collection(ops)
    start = time.perf_counter()
    result = decision_psdp(
        coll,
        epsilon=0.25,
        oracle="fast",
        rng=seed,
        max_iterations=cap,
        array_backend=backend_name,
    )
    return {
        "backend": backend_name,
        "n": n,
        "m": m,
        "seconds": time.perf_counter() - start,
        "outcome": result.outcome.name,
        "iterations": result.iterations,
        "work": result.work_depth.work if result.work_depth else None,
    }


def main(argv=None) -> int:
    """Run the E20 grid over installed backends; return the exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    repeats = 2 if args.quick else 5
    cap = 8 if args.quick else DECISION_CAP

    backends = available_backends()
    kernel_rows = []
    decision_rows = []
    for n, m in grid:
        ops = make_operators(n, m, "dense", args.seed)
        numpy_rows: dict[tuple, dict] = {}
        for name in backends:
            get_array_backend(name)  # fail fast on broken optional installs
            row = bench_kernels(ops, n, m, name, repeats, args.seed)
            if name == "numpy":
                numpy_rows[(n, m)] = row
                row["throughput_vs_numpy"] = 1.0
            else:
                base = numpy_rows[(n, m)]["total_seconds"]
                row["throughput_vs_numpy"] = base / max(row["total_seconds"], 1e-12)
            kernel_rows.append(row)
            print(
                f"[kernels]  n={n:4d} m={m:4d} {name:6s} "
                f"total={row['total_seconds']*1e3:9.3f}ms "
                f"parity={row['throughput_vs_numpy']:6.2f}x "
                f"err={row['max_abs_err']:.2e}"
            )

            drow = bench_decision(ops, n, m, name, args.seed, cap)
            decision_rows.append(drow)
            print(
                f"[decision] n={n:4d} m={m:4d} {name:6s} "
                f"{drow['seconds']:8.3f}s outcome={drow['outcome']} "
                f"iters={drow['iterations']}"
            )

    payload = {
        "experiment": "E20-backend",
        "description": "array-backend parity: NumPy vs torch packed kernels",
        "quick": args.quick,
        "backends": list(backends),
        "torch_available": "torch" in backends,
        "config": {
            "rank": DEFAULT_RANK,
            "taylor_degree": TAYLOR_DEGREE,
            "decision_iteration_cap": cap,
            "repeats": repeats,
            "seed": args.seed,
            "parity_floor": PARITY_FLOOR,
            "err_ceiling": ERR_CEILING,
        },
        "environment": environment_info(),
        "kernels": kernel_rows,
        "decision": decision_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in kernel_rows:
        if row["backend"] == "numpy":
            if row["max_abs_err"] != 0.0:
                failures.append(
                    f"NumPy backend is not a bit-identical pass-through: "
                    f"err={row['max_abs_err']:.2e} at n={row['n']}, m={row['m']}"
                )
        elif row["max_abs_err"] > ERR_CEILING:
            failures.append(
                f"{row['backend']} kernel error {row['max_abs_err']:.2e} > "
                f"{ERR_CEILING:.0e} at n={row['n']}, m={row['m']}"
            )
    by_key = {(r["backend"], r["n"], r["m"]): r for r in decision_rows}
    for (name, n, m), row in by_key.items():
        base = by_key.get(("numpy", n, m))
        if base is None or name == "numpy":
            continue
        if row["outcome"] != base["outcome"] or row["iterations"] != base["iterations"]:
            failures.append(
                f"{name} decision diverged from numpy at n={n}, m={m}: "
                f"{row['outcome']}/{row['iterations']} vs "
                f"{base['outcome']}/{base['iterations']}"
            )
        if row["work"] != base["work"]:
            failures.append(
                f"{name} work charge diverged from numpy at n={n}, m={m} "
                f"(charges must be shape-derived)"
            )
        if not args.quick and row["throughput_vs_numpy"] < PARITY_FLOOR:
            failures.append(
                f"{name} parity {row['throughput_vs_numpy']:.2f}x < "
                f"{PARITY_FLOOR}x at n={n}, m={m}"
            )
    return report_failures(failures)


if __name__ == "__main__":
    raise SystemExit(main())
