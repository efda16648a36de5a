"""Fast Theorem 4.1 oracle versus the exact reference oracle.

``ExactDotExpOracle`` (one eigendecomposition per call) is the only
reference the fast oracle is checked against.  The grid holds one instance
for each (Taylor representation, trace mode) pair the engine selects on its
own, and every test asserts the selected pair so the grid cannot drift off
a mode unnoticed.  Per shape:

* one oracle call at a mid-run spectrum (``lambda_max(Psi) = 4``) stays
  within :data:`BAND` of the exact normalised trace products;
* ``decision_psdp`` certifies the same outcome in the same number of
  iterations with either oracle — DUAL on the grid as listed, PRIMAL on the
  gram shape with its factors scaled by 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import decision_psdp
from repro.core.dotexp import ExactDotExpOracle, FastDotExpOracle
from repro.core.result import DecisionOutcome, SolveStatus

from helpers import factorized_family
from test_decision_packed_regressions import (
    _concentrated_sparse_collection,
    _trace_collection,
)

#: Accuracy of the fast oracle under test (the decision solvers' default
#: ``epsilon / 4`` at ``epsilon = 0.2``).
EPS = 0.05

#: Relative band on the oracle values.  The oracle guarantees ``EPS``; on
#: this grid the degenerate sketch leaves only the Taylor truncation, which
#: stays far inside the band.
BAND = 1e-3

#: name -> (instance builder, Taylor mode, trace mode).
GRID = {
    "gram/gram": (
        lambda: factorized_family(0, n=6, m=24, rank=1, scale=0.3), "gram", "gram",
    ),
    "dense-psi/deflated": (
        lambda: factorized_family(0, n=24, m=64, rank=2, scale=0.2),
        "dense-psi", "deflated",
    ),
    "dense-psi/identity": (
        lambda: factorized_family(0, n=8, m=12, rank=2, scale=0.4),
        "dense-psi", "identity",
    ),
    "sparse-psi/identity": (_concentrated_sparse_collection, "sparse-psi", "identity"),
    "sparse-factors/deflated": (
        lambda: _trace_collection(11, 120, 40, kind="sparse"),
        "sparse-factors", "deflated",
    ),
}

#: The gram shape with its factors scaled by 3: infeasible, so PRIMAL.
SCALED_GRAM = (
    lambda: factorized_family(0, n=6, m=24, rank=1, scale=0.9), "gram", "gram",
)


def _mid_run_weights(coll):
    """Positive weights scaled so that ``lambda_max(Psi) = 4``."""
    x = np.random.default_rng(5).random(len(coll)) + 0.1
    return x * (4.0 / np.linalg.eigvalsh(coll.weighted_sum(x))[-1])


@pytest.mark.parametrize("name", sorted(GRID))
def test_oracle_values_match_exact(name):
    make, taylor_mode, trace_mode = GRID[name]
    coll = make()
    x = _mid_run_weights(coll)
    fast = FastDotExpOracle(coll, eps=EPS, rng=0)
    out = fast(None, x)
    exact = ExactDotExpOracle(coll)(coll.weighted_sum(x), x)
    assert fast.taylor_engine.mode == taylor_mode
    assert fast.trace_estimator.mode == trace_mode
    np.testing.assert_allclose(out.values, exact.values, rtol=BAND)


@pytest.mark.parametrize(
    "case, outcome",
    [(GRID[name], DecisionOutcome.DUAL) for name in sorted(GRID)]
    + [(SCALED_GRAM, DecisionOutcome.PRIMAL)],
    ids=sorted(GRID) + ["gram/gram-x3"],
)
def test_decisions_match_exact(case, outcome):
    make, taylor_mode, trace_mode = case
    fast = decision_psdp(make(), epsilon=0.25, oracle="fast", rng=1)
    exact = decision_psdp(make(), epsilon=0.25, oracle="exact", rng=1)
    assert fast.metadata["taylor_engine"]["mode"] == taylor_mode
    assert fast.metadata["trace_estimator"]["mode"] == trace_mode
    assert fast.outcome == exact.outcome == outcome
    assert fast.iterations == exact.iterations
    assert fast.status == exact.status == SolveStatus.CERTIFIED
