"""Golden pins: fixed-seed decision solves compared against recorded values.

The bit-identity suites compare two runs of the *same* code — batched vs
sequential, interrupted vs uninterrupted — so a refactor that shifts both
sides together passes them.  These cases compare against values recorded
in ``golden_pins.json`` instead: outcome, status, iteration count,
early-exit flag, oracle counters, the work–depth charge per label and the
psi-state counters must match exactly; ``dual_x`` and ``primal_min_dot``
to ``1e-12`` relative.

Every case stays below ``KAPPA_EIG_CUTOFF`` in ``min(m, R)``, where every
``lambda_max`` is the certified bound from one ``eigvalsh`` (of the Gram
twin or of ``Psi``), so no case depends on an iterative eigensolver's
start vector.

Regenerate the file only for a change that is *meant* to move solver
results, and say why in its commit::

    PYTHONPATH=src python tests/test_golden_pins.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.batch import solve_many  # noqa: E402
from repro.core.decision import decision_psdp  # noqa: E402
from repro.core.decision_phased import decision_psdp_phased  # noqa: E402
from repro.linalg.psd import random_psd  # noqa: E402

from helpers import factorized_family  # noqa: E402

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pins.json")
DATA_DIR = os.path.join(os.path.dirname(PINS_PATH), "data")
RTOL = 1e-12
BASE = dict(epsilon=0.25, rng=7)


def family(scale=0.35, m=24, seed=0):
    return factorized_family(seed, n=8, m=m, rank=2, scale=scale)


def dense_family(seed=5, m=20, n=6):
    rng = np.random.default_rng(seed)
    return [random_psd(m, rng=rng, scale=0.4) for _ in range(n)]


def psdp(scale=0.35, **options):
    return [decision_psdp(family(scale), **{**BASE, **options})]


def phased(scale=0.35, **options):
    return [decision_psdp_phased(family(scale), **{**BASE, **options})]


def batch():
    """A fused B=4 group (m=32 clears the Gram gate) plus one fallback."""
    problems = [family(m=32, seed=seed) for seed in range(4)] + [dense_family()]
    return solve_many(problems, oracle="fast", **BASE)


def resumed(solver, budget, **options):
    """Interrupt at ``budget`` iterations, then resume to completion."""
    partial = solver(family(), iteration_budget=budget, **{**BASE, **options})
    final = solver(family(), resume_from=partial.metadata["checkpoint"], **{**BASE, **options})
    return [partial, final]


def archive_resumed(solver, archive, **options):
    """Resume a format-version-1 archive of an m=24 resume case to completion."""
    from repro.core.checkpoint import SolverCheckpoint

    ckpt = SolverCheckpoint.load(os.path.join(DATA_DIR, archive))
    return [solver(family(), resume_from=ckpt, oracle="fast", **{**BASE, **options})]


def batch_resumed():
    """Fused-group budget checkpoints, each resumed through ``decision_psdp``."""
    partials = solve_many(
        [family(m=32, seed=seed) for seed in range(4)],
        oracle="fast", iteration_budget=9, **BASE,
    )
    finals = [
        decision_psdp(
            family(m=32, seed=seed), oracle="fast",
            resume_from=partial.metadata["checkpoint"], **BASE,
        )
        for seed, partial in enumerate(partials)
    ]
    return partials + finals


CASES = {
    "psdp-exact": lambda: psdp(oracle="exact"),
    "psdp-exact-primal": lambda: psdp(0.8, oracle="exact"),
    "psdp-exact-empty-set": lambda: psdp(1.0, oracle="exact"),
    "psdp-fast": lambda: psdp(oracle="fast"),
    "psdp-fast-history": lambda: psdp(oracle="fast", collect_history=True),
    "psdp-fast-strict-cap": lambda: psdp(0.6, oracle="fast", strict=True, max_iterations=60),
    "psdp-fast-empty-set": lambda: psdp(1.0, oracle="fast"),
    "phased-exact": lambda: phased(oracle="exact"),
    "phased-fast": lambda: phased(oracle="fast"),
    "phased-fast-primal": lambda: phased(0.8, oracle="fast"),
    "phased-exact-empty-set": lambda: phased(1.0, oracle="exact"),
    "solve-many": batch,
    "resume-psdp-fast": lambda: resumed(decision_psdp, 10, oracle="fast", collect_history=True),
    "resume-psdp-exact": lambda: resumed(decision_psdp, 7, oracle="exact"),
    "resume-phased-fast": lambda: resumed(decision_psdp_phased, 5, oracle="fast"),
    "resume-solve-many": batch_resumed,
    "resume-psdp-archive": lambda: archive_resumed(
        decision_psdp, "checkpoint_v1_psdp.npz", collect_history=True
    ),
    "resume-phased-archive": lambda: archive_resumed(
        decision_psdp_phased, "checkpoint_v1_phased.npz"
    ),
}


def pin(result) -> dict:
    """The pinned fields of one ``DecisionResult`` (JSON-ready)."""
    return {
        "outcome": result.outcome.value,
        "status": result.status.value,
        "iterations": int(result.iterations),
        "early_exit": bool(result.early_exit),
        "counters": result.counters.as_dict(),
        "by_label": dict(result.work_depth.by_label),
        "psi_state": result.metadata["psi_state"],
        "dual_x": [float(v) for v in result.dual_x],
        "primal_min_dot": float(result.primal_min_dot),
    }


def _close(actual: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(actual)
    return abs(actual - expected) <= RTOL * max(abs(expected), 1e-300)


def assert_pin(actual: dict, expected: dict, label: str) -> None:
    for key in ("outcome", "status", "iterations", "early_exit", "counters", "by_label", "psi_state"):
        assert actual[key] == expected[key], (
            f"{label}: {key} differs: {actual[key]!r} != {expected[key]!r}"
        )
    assert len(actual["dual_x"]) == len(expected["dual_x"]), f"{label}: dual_x length"
    for i, (a, e) in enumerate(zip(actual["dual_x"], expected["dual_x"])):
        assert _close(a, e), f"{label}: dual_x[{i}] = {a!r}, pinned {e!r}"
    assert _close(actual["primal_min_dot"], expected["primal_min_dot"]), (
        f"{label}: primal_min_dot = {actual['primal_min_dot']!r}, "
        f"pinned {expected['primal_min_dot']!r}"
    )


def _load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_pin(name):
    expected = _load_pins()[name]
    results = CASES[name]()
    assert len(results) == len(expected), f"{name}: result count"
    for index, (result, pinned) in enumerate(zip(results, expected)):
        assert_pin(pin(result), pinned, f"{name}[{index}]")


def test_every_case_is_pinned():
    assert sorted(_load_pins()) == sorted(CASES)


#: The m=24 archives were captured on the identity trace rung, which a
#: resume restores, while this build captures that family on the Gram trace
#: rung; they land on their own pinned cases, recorded on the identity rung.
ARCHIVE_CASES = {
    "checkpoint_v1_psdp.npz": "resume-psdp-archive",
    "checkpoint_v1_phased.npz": "resume-phased-archive",
}


@pytest.mark.parametrize(
    "solver, archive, case",
    [
        (decision_psdp, "checkpoint_v1_psdp.npz", "resume-psdp-fast"),
        (decision_psdp_phased, "checkpoint_v1_phased.npz", "resume-phased-fast"),
        (decision_psdp, "checkpoint_v1_gram.npz", "resume-solve-many"),
    ],
)
def test_version_1_archive_resumes_to_pinned_result(solver, archive, case):
    # The archives are budget checkpoints of the resume cases above, saved in
    # format version 1; loading one and resuming must land on the pinned
    # result of resuming the in-memory capture, or on its ARCHIVE_CASES pin.
    from repro.core.checkpoint import SolverCheckpoint

    pins = _load_pins()
    ckpt = SolverCheckpoint.load(os.path.join(DATA_DIR, archive))
    if case == "resume-solve-many":
        # Instance 0 of the fused group, captured while the Gram engine
        # still kept a buffer: its tracker carries the engine-update work
        # charged before the capture.
        result = decision_psdp(family(m=32, seed=0), oracle="fast", resume_from=ckpt, **BASE)
        actual, resumed = pin(result), pins[case][4]
        assert actual["by_label"].pop("taylor-engine-update") == ckpt.tracker["by_label"][
            "taylor-engine-update"
        ]
    else:
        options = dict(oracle="fast", collect_history=solver is decision_psdp, **BASE)
        result = solver(family(), resume_from=ckpt, **options)
        actual, resumed = pin(result), pins[case][1]
    if archive in ARCHIVE_CASES:
        assert_pin(actual, pins[ARCHIVE_CASES[archive]][0], f"{archive} resumed")
    # The archives' Taylor-engine payloads carry the buffers and update
    # counters of an engine that patched its kernels from call to call;
    # the import ignores them, and this build's capture holds the mode alone.
    capture = CASES[case]()[0].metadata["checkpoint"]
    engine = ckpt.oracle["engine"]
    assert {"w_cols", "full_builds", "charged_work"} <= set(engine)
    assert capture.oracle["engine"] == {"mode": engine["mode"]}
    # The archives' psi-state counters were accumulated before the capture
    # by the retired warm-started Lanczos lambda_max (and the eig_vector /
    # final_v0 it carried are ignored on import).  The resumed run must add
    # to them exactly what resuming this build's own capture adds.
    fresh = capture.psi
    assert {"eig_vector", "final_v0"} <= set(ckpt.psi)
    assert not {"eig_vector", "final_v0"} & set(fresh)
    expected = {**resumed, "psi_state": dict(resumed["psi_state"])}
    for stat, key in (("matvecs", "matvec_count"), ("lambda_max_matvecs", "lambda_max_matvecs")):
        after_capture = expected["psi_state"].pop(stat) - fresh[key]
        assert actual["psi_state"].pop(stat) - after_capture == ckpt.psi[key]
    if archive not in ARCHIVE_CASES:
        assert_pin(actual, expected, f"{archive} resumed")


if __name__ == "__main__":
    pins = {name: [pin(result) for result in CASES[name]()] for name in sorted(CASES)}
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(pins)} cases to {PINS_PATH}")
