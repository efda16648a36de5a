"""Shared harness for the standalone E14 and E16-E20 benchmarks.

The scripts share the same skeleton: a grid with a reduced ``--quick``
variant for the CI smoke job, a best-of-``repeats`` timing loop, the random
factorized instance family, a JSON payload written next to the repository
root, and a failure list that drives the exit code.  This module holds
those pieces so each benchmark contains only its measurements.

Nothing here imports the ``repro`` package at module level — callers are
expected to have put ``src`` on ``sys.path`` (the benchmarks do it
themselves so they run straight from a checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np
import scipy.sparse as sp

#: Default rank of the random factorized constraints.
DEFAULT_RANK = 2
#: Default density of the "sparse" factor family.
DEFAULT_SPARSE_DENSITY = 0.05


def make_argparser(description: str, default_output: str) -> argparse.ArgumentParser:
    """The shared CLI: ``--quick`` smoke flag, ``--output`` path, ``--seed``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--quick", action="store_true", help="CI smoke grid")
    parser.add_argument("--output", default=default_output, help="JSON output path")
    parser.add_argument("--seed", type=int, default=7, help="instance seed")
    return parser


def time_call(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock latency of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_operators(
    n: int,
    m: int,
    kind: str,
    seed: int,
    rank: int = DEFAULT_RANK,
    sparse_density: float = DEFAULT_SPARSE_DENSITY,
):
    """Random factorized constraints, scaled so the threshold-1 decision
    problem is non-trivial but bounded.

    Kinds:

    * ``"dense"`` / ``"lowrank"`` — Gaussian ``(m, rank)`` factors;
    * ``"sparse"`` — ~``sparse_density`` CSR factors, rescaled to keep the
      same expected trace.
    """
    from repro.operators import FactorizedPSDOperator

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(m)
    ops = []
    for _ in range(n):
        if kind == "sparse":
            factor = sp.random(
                m, rank, density=sparse_density, random_state=rng, format="csr"
            )
            factor = factor * (scale * np.sqrt(1.0 / sparse_density))
            if factor.nnz == 0:  # keep every constraint's trace positive
                factor = sp.csr_matrix(
                    (np.full(rank, scale), (rng.integers(0, m, rank), np.arange(rank))),
                    shape=(m, rank),
                )
            ops.append(FactorizedPSDOperator(factor))
        elif kind in ("dense", "lowrank"):
            ops.append(FactorizedPSDOperator(scale * rng.standard_normal((m, rank))))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return ops


def fresh_collection(ops):
    """A new collection over the same factors, so each timed arm pays its own
    packed-view build instead of riding on another arm's.

    Only timings depend on it: a collection's cached views never change a
    solve's bits."""
    from repro.operators import ConstraintCollection, FactorizedPSDOperator

    return ConstraintCollection(
        [FactorizedPSDOperator(op.gram_factor_raw()) for op in ops], validate=False
    )


def environment_info() -> dict:
    """The interpreter/numpy/machine fingerprint recorded in every payload."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def emit_payload(payload: dict, output: str) -> str:
    """Write the JSON payload (trailing newline, 2-space indent) and report it."""
    output = os.path.abspath(output)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[json] {output}")
    return output


def report_failures(failures: list[str]) -> int:
    """Print ``[FAIL]`` lines and return the process exit code."""
    for line in failures:
        print(f"[FAIL] {line}")
    return 1 if failures else 0
