#!/usr/bin/env python
"""Guard the committed benchmark headlines against silent regressions.

Every perf PR commits a ``BENCH_*.json`` payload whose speedup columns are
the PR's acceptance evidence (E14 matrix-free core, E17 batched solving,
E18 service, E19 executor, E20 array backend).
Nothing previously stopped a later PR
from re-running a benchmark, measuring a slower result, and committing the
worse numbers without anyone noticing — this gate does.  For each committed
payload it checks:

* the payload is a **full** run (``quick: false``) — CI smoke runs must not
  overwrite the committed evidence;
* aggregate speedup floors: a ``min`` floor says *every* row of a section
  must stay above it (broad wins), a ``max`` floor says the section's
  headline row must (regime-specific wins like E14's, whose grids
  deliberately include near-break-even adversary rows).

Floors are set well below the committed measurements (roughly half) so the
gate trips on genuine regressions — a lost fast path, a disabled kernel —
rather than on machine-to-machine noise.

Run from the repository root (CI runs it in the docs job)::

    python tools/check_bench_regression.py
"""

from __future__ import annotations

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (file, section, row filter or None, aggregate, floor).  The filter maps a
#: row dict to bool; ``min`` floors apply to every (filtered) row, ``max``
#: floors to the best one.
CHECKS = [
    (
        "BENCH_matrixfree.json",
        "decision",
        lambda row: row["factor_kind"] == "lowrank" and row["m"] >= 512,
        "max",
        3.0,
    ),
    ("BENCH_matrixfree.json", "phased", None, "max", 1.5),
    (
        "BENCH_batched.json",
        "batched",
        lambda row: row["batch"] >= 32,
        "max",
        3.0,
    ),
    ("BENCH_service.json", "resume", None, "max", 1.15),
    ("BENCH_service.json", "cache", None, "max", 10.0),
]

#: (file, section, row filter or None, metric, ceiling).  Ceiling checks are
#: the inverse gate: *every* (filtered) row's ``metric`` must stay at or
#: below the ceiling.  It keeps periodic checkpoint captures near-free on
#: the committed E18 payload.
CEILING_CHECKS = [
    ("BENCH_service.json", "checkpoint", None, "overhead", 1.05),
]


def check_payload(path: str, section: str, row_filter, aggregate: str, floor: float) -> list[str]:
    """Return failure messages for one (file, section) floor check."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: committed payload is missing"]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("quick"):
        return [f"{name}: committed payload is a --quick smoke run, not a full grid"]
    rows = payload.get(section)
    if not rows:
        return [f"{name}: section {section!r} is missing or empty"]
    speedups = [float(row["speedup"]) for row in rows if row_filter is None or row_filter(row)]
    if not speedups:
        return [f"{name}: no {section!r} rows match the gate's filter"]
    value = min(speedups) if aggregate == "min" else max(speedups)
    if value < floor:
        return [
            f"{name}: {aggregate}({section}.speedup) = {value:.2f}x "
            f"regressed below the {floor:.1f}x floor"
        ]
    return []


def check_ceiling(path: str, section: str, row_filter, metric: str, ceiling: float) -> list[str]:
    """Return failure messages for one (file, section) ceiling check."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: committed payload is missing"]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("quick"):
        return [f"{name}: committed payload is a --quick smoke run, not a full grid"]
    rows = payload.get(section)
    if not rows:
        return [f"{name}: section {section!r} is missing or empty"]
    values = [float(row[metric]) for row in rows if row_filter is None or row_filter(row)]
    if not values:
        return [f"{name}: no {section!r} rows match the gate's filter"]
    worst = max(values)
    if worst > ceiling:
        return [
            f"{name}: max({section}.{metric}) = {worst:.3f}x "
            f"exceeded the {ceiling:.2f}x ceiling"
        ]
    return []


def check_executor_payload(path: str) -> list[str]:
    """PR 9's core-aware gates on the committed E19 executor payload.

    The throughput floor depends on the machine that *produced* the
    evidence (recorded as ``config.cpu_count``), not the machine running
    this check: with >= 4 cores the 8-worker drain must reach a 2x
    speedup; on fewer cores the gate degrades to a bounded-overhead check
    (>= 0.55x — the pool must not tax the GIL-serialized case).  The
    crash-recovery drain must stay within 6x of the clean drain, and
    every row must report bit-identical results.
    """
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: committed payload is missing"]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("quick"):
        return [f"{name}: committed payload is a --quick smoke run, not a full grid"]
    problems = []
    rows = payload.get("throughput") or []
    top = max(rows, key=lambda row: row["workers"], default=None)
    if top is None:
        problems.append(f"{name}: throughput section is missing or empty")
    else:
        cpu_count = int(payload.get("config", {}).get("cpu_count", 1))
        floor = 2.0 if cpu_count >= 4 else 0.55
        if float(top["speedup"]) < floor:
            problems.append(
                f"{name}: {top['workers']}-worker speedup {top['speedup']:.2f}x "
                f"below the {floor}x floor (payload cpu_count={cpu_count})"
            )
        if not all(row.get("identical") for row in rows):
            problems.append(f"{name}: results differ across worker counts")
    recovery = payload.get("recovery")
    if not recovery:
        problems.append(f"{name}: recovery section is missing")
    else:
        if float(recovery["recovery_ratio"]) > 6.0:
            problems.append(
                f"{name}: crash recovery ratio {recovery['recovery_ratio']:.2f}x "
                f"exceeded the 6.0x ceiling"
            )
        if not recovery.get("identical"):
            problems.append(f"{name}: crash-recovered results differ from clean bits")
    return problems


def check_backend_payload(path: str) -> list[str]:
    """PR 10's array-backend gates on the committed E20 payload.

    The NumPy rows are unconditional: the NumPy backend is a literal
    pass-through, so every kernel row must report *zero* error against the
    reference path, and the end-to-end decision rows must exist.  The torch
    gates — float64 kernel agreement within the payload's ``err_ceiling``
    and per-shape throughput at or above the ``parity_floor`` (0.8x NumPy
    on CPU) — only apply when the payload was produced on a machine with
    torch installed (``torch_available``), mirroring
    :func:`check_executor_payload`'s machine-conditional floors.
    """
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: committed payload is missing"]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("quick"):
        return [f"{name}: committed payload is a --quick smoke run, not a full grid"]
    problems = []
    kernels = payload.get("kernels") or []
    numpy_rows = [row for row in kernels if row["backend"] == "numpy"]
    if not numpy_rows:
        problems.append(f"{name}: no NumPy kernel rows")
    for row in numpy_rows:
        if float(row["max_abs_err"]) != 0.0:
            problems.append(
                f"{name}: NumPy backend is not a pass-through "
                f"(err={row['max_abs_err']:.2e} at n={row['n']}, m={row['m']})"
            )
    if not payload.get("decision"):
        problems.append(f"{name}: decision section is missing or empty")
    if payload.get("torch_available"):
        config = payload.get("config", {})
        floor = float(config.get("parity_floor", 0.8))
        ceiling = float(config.get("err_ceiling", 1e-9))
        torch_rows = [row for row in kernels if row["backend"] == "torch"]
        if not torch_rows:
            problems.append(f"{name}: torch_available but no torch kernel rows")
        for row in torch_rows:
            if float(row["max_abs_err"]) > ceiling:
                problems.append(
                    f"{name}: torch kernel error {row['max_abs_err']:.2e} "
                    f"above {ceiling:.0e} at n={row['n']}, m={row['m']}"
                )
            if float(row["throughput_vs_numpy"]) < floor:
                problems.append(
                    f"{name}: torch parity {row['throughput_vs_numpy']:.2f}x "
                    f"below the {floor}x floor at n={row['n']}, m={row['m']}"
                )
    return problems


def main() -> int:
    """Run every floor and ceiling check; print results and return the exit code."""
    failures: list[str] = []
    for filename, section, row_filter, aggregate, floor in CHECKS:
        path = os.path.join(REPO_ROOT, filename)
        problems = check_payload(path, section, row_filter, aggregate, floor)
        if problems:
            failures.extend(problems)
        else:
            print(f"[ok] {filename}:{section} ({aggregate} >= {floor:.1f}x)")
    for filename, section, row_filter, metric, ceiling in CEILING_CHECKS:
        path = os.path.join(REPO_ROOT, filename)
        problems = check_ceiling(path, section, row_filter, metric, ceiling)
        if problems:
            failures.extend(problems)
        else:
            print(f"[ok] {filename}:{section} (max {metric} <= {ceiling:.2f}x)")
    executor_problems = check_executor_payload(
        os.path.join(REPO_ROOT, "BENCH_executor.json")
    )
    if executor_problems:
        failures.extend(executor_problems)
    else:
        print("[ok] BENCH_executor.json (core-aware throughput + recovery gates)")
    backend_problems = check_backend_payload(
        os.path.join(REPO_ROOT, "BENCH_backend.json")
    )
    if backend_problems:
        failures.extend(backend_problems)
    else:
        print("[ok] BENCH_backend.json (pass-through + conditional torch parity gates)")
    for line in failures:
        print(f"[FAIL] {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
