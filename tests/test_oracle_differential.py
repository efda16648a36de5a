"""Fast Theorem 4.1 oracle versus the exact reference oracle.

``ExactDotExpOracle`` (one eigendecomposition per call) is the only
reference the fast oracle is checked against.  The grid holds one instance
for each (Taylor representation, trace mode) pair the engine selects on its
own, plus a sparse stack with overlapping supports that runs off the Gram
rung, and every test asserts the selected pair so the grid cannot drift off
a mode unnoticed.  Per shape:

* one oracle call at a mid-run spectrum (``lambda_max(Psi) = 4``) stays
  within :data:`BAND` of the exact normalised trace products;
* ``decision_psdp`` certifies the same outcome in the same number of
  iterations with either oracle — DUAL on the grid as listed, PRIMAL on the
  gram shape with its factors scaled by 3;
* the Lemma 4.2 ``kappa`` each call takes from ``certified_kappa`` (a
  spectrum it already holds) or ``certified_lambda_max`` (its own
  eigensolve or Lanczos) is a certified and tight bound on
  ``lambda_max(Psi)``, on the grid and on the Lanczos, trace-demoted and
  reference-floor branches of the kappa rule;
* a kappa the call computes itself, off the Gram trace, is in its work.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.dotexp as dotexp
from repro.core.decision import decision_psdp
from repro.core.dotexp import ExactDotExpOracle, FastDotExpOracle
from repro.core.result import DecisionOutcome, SolveStatus
from repro.linalg.sketching import jl_dimension
from repro.linalg.taylor import taylor_degree

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
    "dense-psi/gram": (
        lambda: factorized_family(0, n=24, m=64, rank=2, scale=0.2),
        "dense-psi", "gram",
    ),
    "dense-psi/identity": (
        lambda: factorized_family(0, n=8, m=12, rank=2, scale=0.4),
        "dense-psi", "identity",
    ),
    "dense-psi/identity-sparse": (
        _concentrated_sparse_collection, "dense-psi", "identity",
    ),
    "sparse-factors/gram": (
        lambda: _trace_collection(11, 120, 40, kind="sparse"),
        "sparse-factors", "gram",
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


#: name -> (instance builder, oracle preparation, kappa branch).  The five
#: grid shapes take kappa from an exact ``eigvalsh``; the rest cover the
#: Lanczos branch (``R = 160 > m = 136 > 128``) and the gram shape off its
#: Gram trace mode: after the supervisor's trace demotion and on the
#: reference floor.
KAPPA_CASES = {
    **{name: (GRID[name][0], None, "eig") for name in GRID},
    "dense-psi/identity-lanczos": (
        lambda: _trace_collection(17, 136, 80), None, "lanczos",
    ),
    "gram/identity-demoted": (
        GRID["gram/gram"][0],
        lambda oracle: oracle.trace_estimator.demote_to_identity(),
        "eig",
    ),
    "gram/reference-floor": (
        GRID["gram/gram"][0], lambda oracle: setattr(oracle, "reference", True), "eig",
    ),
}


@pytest.mark.parametrize("name", sorted(KAPPA_CASES))
def test_kappa_is_certified_and_tight(name, monkeypatch):
    make, prepare, branch = KAPPA_CASES[name]
    coll = make()
    x = _mid_run_weights(coll)
    lam = np.linalg.eigvalsh(coll.weighted_sum(x))[-1]
    oracle = FastDotExpOracle(coll, eps=EPS, rng=0)
    if prepare is not None:
        prepare(oracle)
    kappas = []
    inner_kappa, inner_bound = dotexp.certified_kappa, dotexp.certified_lambda_max

    def spy_kappa(*args, **kwargs):
        kappas.append(inner_kappa(*args, **kwargs))
        return kappas[-1]

    def spy_bound(*args, **kwargs):
        bound = inner_bound(*args, **kwargs)
        kappas.append(max(1.0, bound))
        return bound

    monkeypatch.setattr(dotexp, "certified_kappa", spy_kappa)
    monkeypatch.setattr(dotexp, "certified_lambda_max", spy_bound)
    before = dict(oracle.rng.bit_generator.state)
    oracle(None, x)
    assert len(kappas) == 1
    assert lam <= kappas[0] <= (1 + 1e-6) * max(1.0, lam)
    assert oracle.counters.extra["norm_estimates"] == 1
    if branch == "eig":
        # Degenerate sketch and an exact eigendecomposition: no draw at all.
        assert oracle.rng.bit_generator.state == before
    else:
        # Lanczos starts from exactly one standard_normal(m) draw.
        replay = np.random.default_rng(0)
        replay.standard_normal(coll.dim)
        assert oracle.rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("name", ["dense-psi/identity", "dense-psi/identity-lanczos"])
def test_kappa_work_is_charged(name, monkeypatch):
    # Off the Gram trace the call computes kappa itself: one eigvalsh of the
    # smaller twin (here Psi, m x m, charged m^3) or a Lanczos charged
    # max(2 nnz(Q), m) per sweep.  The rest is the identity push's work.
    make, prepare, branch = KAPPA_CASES[name]
    coll = make()
    oracle = FastDotExpOracle(coll, eps=EPS, rng=0)
    kappas, sweeps = [], []
    inner_dot, inner_bound = dotexp.big_dot_exp, dotexp.certified_lambda_max

    def spy_dot(*args, **kwargs):
        kappas.append(kwargs["kappa"])
        return inner_dot(*args, **kwargs)

    def spy_bound(*args, **kwargs):
        value = inner_bound(*args, **kwargs)
        sweeps.append(kwargs["info"]["matvecs"])
        return value

    monkeypatch.setattr(dotexp, "big_dot_exp", spy_dot)
    monkeypatch.setattr(dotexp, "certified_lambda_max", spy_bound)
    out = oracle(None, _mid_run_weights(coll))
    m, q = coll.dim, coll.total_nnz
    assert oracle.trace_estimator.mode == "identity"
    assert jl_dimension(m, EPS / 2.0, constant=oracle.sketch_constant) >= m
    degree = taylor_degree(kappas[0] / 2.0, EPS / 2.0)
    push = float(m * degree * max(q, m) + q)
    if branch == "eig":
        assert out.work - push == float(m) ** 3
    else:
        packed = oracle.packed
        assert sweeps[0] > 1
        assert out.work - push == sweeps[0] * float(max(2 * packed.nnz, m))
