"""Output checks: every solve and every service response is verified.

Each check returns a list of failure messages (empty when the output is
correct), so a run can count failed operations instead of stopping at the
first one.  The certificates are re-verified from the returned objects with
the library's own exact verifiers, never taken from the result's fields.
"""

from __future__ import annotations

import numpy as np

from repro.core.certificates import verify_dual, verify_primal
from repro.core.result import SolveStatus
from repro.service import RequestOutcome

#: Relative slack when a re-measured certificate value is compared with the
#: value the result reports (the two differ only by summation order).
VALUE_RTOL = 1e-9

#: Service outcomes that count as a failed request.
FAILED_OUTCOMES = frozenset(
    {
        RequestOutcome.SHED,
        RequestOutcome.DEADLINE_EXCEEDED,
        RequestOutcome.RETRY_EXHAUSTED,
        RequestOutcome.CIRCUIT_OPEN,
        RequestOutcome.SUSPENDED,
    }
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b), 1.0)


def check_optimum(constraints, result, epsilon: float) -> list[str]:
    """``approx_psdp``: a (1+eps) bracket backed by both re-verified certificates."""
    failures = []
    lower, upper = result.optimum_lower, result.optimum_upper
    if not (0.0 < lower <= upper and upper / lower <= 1.0 + epsilon):
        failures.append(f"bracket [{lower:.6g}, {upper:.6g}] is not within 1+{epsilon}")
    dual = verify_dual(constraints, result.dual_x)
    if not dual.feasible or dual.value < lower * (1.0 - VALUE_RTOL):
        failures.append(
            f"dual certificate: feasible={dual.feasible} lambda_max={dual.lambda_max:.6g} "
            f"value={dual.value:.6g} < lower {lower:.6g}"
        )
    primal = verify_primal(constraints, result.primal_y)
    if not primal.feasible or primal.value > upper * (1.0 + VALUE_RTOL):
        failures.append(
            f"primal certificate: feasible={primal.feasible} min_dot={primal.min_dot:.6g} "
            f"value={primal.value:.6g} > upper {upper:.6g}"
        )
    return failures


def check_decision(constraints, result) -> list[str]:
    """``decision_psdp``: a CERTIFIED/DEGRADED status and a certificate that re-verifies."""
    if result.status not in (SolveStatus.CERTIFIED, SolveStatus.DEGRADED):
        return [f"status {result.status.value}"]
    if result.is_dual:
        cert = verify_dual(constraints, result.dual_x)
        if cert.feasible and _close(cert.value, result.dual_value):
            return []
        return [
            f"dual certificate: feasible={cert.feasible} lambda_max={cert.lambda_max:.6g} "
            f"value={cert.value:.6g} vs reported {result.dual_value:.6g}"
        ]
    cert = verify_primal(constraints, result.primal_y)
    if cert.min_dot >= 1.0 - result.epsilon and _close(cert.value, 1.0):
        return []
    return [f"primal certificate: min_dot={cert.min_dot:.6g} trace={cert.value:.6g}"]


def check_identical(first_dual_x, second_dual_x) -> list[str]:
    """Two solves of one instance on fresh collections return the same ``dual_x`` bits."""
    if first_dual_x is None or second_dual_x is None:
        return ["a repeated solve returned no dual vector"]
    if np.array_equal(first_dual_x, second_dual_x):
        return []
    return ["repeated solve of one instance returned a different dual_x"]


def check_response(constraints, response, original=None) -> list[str]:
    """One service response: typed, successful, certified; a hit matches its original."""
    if not isinstance(response.outcome, RequestOutcome):
        return [f"untyped outcome {response.outcome!r}"]
    if response.outcome in FAILED_OUTCOMES or response.result is None:
        return [f"request ended {response.outcome.value}: {response.detail}"]
    if response.from_cache:
        if original is None:
            return ["cache hit without an earlier solve of the instance"]
        return check_identical(original.result.dual_x, response.result.dual_x)
    return check_decision(constraints, response.result)
