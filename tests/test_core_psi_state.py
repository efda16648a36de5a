"""Tests for repro.core.psi_state (the matrix-free iteration core).

The implicit state must behave exactly like the dense one through every
operation the decision solvers perform — matvec, add_delta, lambda_max,
densify — while never materialising an ``(m, m)`` matrix unless
``densify()`` is explicitly called, and the factory must select the
implicit state only when the oracle/collection combination makes it
semantically safe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.linalg.norms import KAPPA_SLACK
from repro.linalg.psd import random_psd
from repro.operators import ConstraintCollection, FactorizedPSDOperator
from repro.core.dotexp import ExactDotExpOracle, FastDotExpOracle
from repro.core.psi_state import (
    DensePsiState,
    ImplicitPsiState,
    make_psi_state,
)

from helpers import factorized_family


def _collection(seed=0, n=8, m=24, rank=2, scale=0.4):
    return factorized_family(seed, n=n, m=m, rank=rank, scale=scale)


def _dense_collection(seed=1, n=4, m=10):
    rng = np.random.default_rng(seed)
    return ConstraintCollection([random_psd(m, rng=rng, scale=0.5) for _ in range(n)])


def _reference_psi(coll, x):
    return sum(w * op.to_dense() for w, op in zip(x, coll.operators))


class TestDensePsiState:
    def test_matches_weighted_sum(self):
        coll = _collection()
        x0 = np.random.default_rng(2).random(len(coll))
        state = DensePsiState(coll, x0)
        np.testing.assert_allclose(state.densify(), _reference_psi(coll, x0), atol=1e-12)
        np.testing.assert_array_equal(state.oracle_psi(), state.densify())

    def test_add_delta_matches_seed_arithmetic(self):
        coll = _collection(seed=3)
        x0 = np.random.default_rng(4).random(len(coll))
        state = DensePsiState(coll, x0)
        psi = coll.weighted_sum(x0)
        delta = np.zeros(len(coll))
        delta[2] = 0.3
        work = state.add_delta(delta, mask=delta > 0)
        psi = psi + coll.weighted_sum(delta)
        np.testing.assert_array_equal(state.densify(), psi)
        np.testing.assert_allclose(state.x, x0 + delta)
        assert work > 0

    def test_lambda_max_matches_eigvalsh(self):
        coll = _collection(seed=5)
        x0 = np.random.default_rng(6).random(len(coll))
        state = DensePsiState(coll, x0)
        value, work = state.lambda_max()
        exact = float(np.linalg.eigvalsh(_reference_psi(coll, x0))[-1])
        # The certified bound: (1 + KAPPA_SLACK) lambda, never below it.
        assert exact <= value <= (1.0 + 2.0 * KAPPA_SLACK) * exact
        assert work > 0
        assert state.lambda_max_calls == 1
        assert state.densify_count == 0  # dense psi exists by construction

    def test_matvec(self):
        coll = _collection(seed=7)
        x0 = np.random.default_rng(8).random(len(coll))
        state = DensePsiState(coll, x0)
        block = np.random.default_rng(9).standard_normal((coll.dim, 3))
        np.testing.assert_allclose(
            state.matvec(block), _reference_psi(coll, x0) @ block, atol=1e-12
        )
        assert state.matvec_count == 1


class TestImplicitPsiState:
    def test_matvec_matches_dense(self):
        coll = _collection(seed=10)
        x0 = np.random.default_rng(11).random(len(coll))
        state = ImplicitPsiState(coll, x0)
        block = np.random.default_rng(12).standard_normal((coll.dim, 4))
        np.testing.assert_allclose(
            state.matvec(block), _reference_psi(coll, x0) @ block, atol=1e-12
        )
        assert state.matvec_count == 1
        assert state.densify_count == 0

    def test_add_delta_tracks_x_only(self):
        coll = _collection(seed=13)
        x0 = np.random.default_rng(14).random(len(coll))
        state = ImplicitPsiState(coll, x0)
        delta = np.zeros(len(coll))
        delta[1] = 0.5
        work = state.add_delta(delta)
        assert work == pytest.approx(len(coll))
        np.testing.assert_allclose(state.x, x0 + delta)
        block = np.random.default_rng(15).standard_normal(coll.dim)
        np.testing.assert_allclose(
            state.matvec(block), _reference_psi(coll, x0 + delta) @ block, atol=1e-12
        )

    def test_densify_is_lazy_cached_and_invalidated(self):
        coll = _collection(seed=16)
        x0 = np.random.default_rng(17).random(len(coll))
        state = ImplicitPsiState(coll, x0)
        assert state.densify_count == 0
        first = state.densify()
        np.testing.assert_allclose(first, _reference_psi(coll, x0), atol=1e-12)
        assert state.densify_count == 1
        # Cached: a second read performs no new materialisation.
        assert state.densify() is first
        assert state.densify_count == 1
        # add_delta invalidates the cache; the next densify recomputes.
        delta = np.zeros(len(coll))
        delta[0] = 0.2
        state.add_delta(delta)
        second = state.densify()
        assert state.densify_count == 2
        np.testing.assert_allclose(second, _reference_psi(coll, x0 + delta), atol=1e-12)

    @pytest.mark.parametrize("m", [24, 96, 136])
    def test_lambda_max_matches_dense_state(self, m):
        # The Gram-twin branch (R = 16 <= m) and, at m = 136 with R = 144,
        # the Lanczos branch (min(m, R) > KAPPA_EIG_CUTOFF) must agree with
        # the dense state's bound to certificate accuracy.
        n = 72 if m > 128 else 8
        coll_a = _collection(seed=18, m=m, n=n)
        coll_b = _collection(seed=18, m=m, n=n)
        x0 = np.random.default_rng(19).random(n)
        implicit = ImplicitPsiState(coll_a, x0, eig_rng=np.random.default_rng(1))
        dense = DensePsiState(coll_b, x0, eig_rng=np.random.default_rng(1))
        val_i, work_i = implicit.lambda_max()
        val_d, _ = dense.lambda_max()
        assert val_i == pytest.approx(val_d, rel=1e-8, abs=1e-8)
        assert work_i > 0
        assert implicit.lambda_max_matvecs > 0

    def test_final_lambda_max_is_call_history_independent(self):
        # The result-build call must not depend on how many
        # history/certificate calls ran before it (history on/off may not
        # perturb the reported certificate).
        vals = []
        for warm_calls in (0, 5):
            coll = _collection(seed=22, m=96, n=8)
            state = ImplicitPsiState(coll, np.random.default_rng(23).random(8))
            for _ in range(warm_calls):
                state.lambda_max()
            vals.append(state.lambda_max(final=True)[0])
        assert vals[0] == vals[1]

    def test_requires_exact_factors(self):
        with pytest.raises(InvalidProblemError):
            ImplicitPsiState(_dense_collection(), np.full(4, 0.1))


class TestMakePsiState:
    def test_auto_selects_implicit_for_fast_oracle(self):
        coll = _collection(seed=24)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=0)
        state = make_psi_state(coll, np.full(len(coll), 0.1), oracle=oracle)
        assert isinstance(state, ImplicitPsiState)
        assert state.mode == "implicit"

    def test_auto_keeps_dense_for_exact_oracle(self):
        coll = _collection(seed=25)
        oracle = ExactDotExpOracle(coll)
        state = make_psi_state(coll, np.full(len(coll), 0.1), oracle=oracle)
        assert isinstance(state, DensePsiState)

    def test_auto_keeps_dense_for_inexact_factors(self):
        coll = _dense_collection()
        oracle = FastDotExpOracle(coll, eps=0.1, rng=0)
        state = make_psi_state(coll, np.full(len(coll), 0.1), oracle=oracle)
        assert isinstance(state, DensePsiState)

    def test_auto_keeps_dense_for_protocol_oracles_without_attribute(self):
        class CustomOracle:
            pass

        coll = _collection(seed=27)
        state = make_psi_state(coll, np.full(len(coll), 0.1), oracle=CustomOracle())
        assert isinstance(state, DensePsiState)

    def test_forced_modes(self):
        coll = _collection(seed=28)
        x0 = np.full(len(coll), 0.1)
        assert isinstance(make_psi_state(coll, x0, mode="dense"), DensePsiState)
        assert isinstance(make_psi_state(coll, x0, mode="implicit"), ImplicitPsiState)
        with pytest.raises(InvalidProblemError):
            make_psi_state(coll, x0, mode="bogus")
        with pytest.raises(InvalidProblemError):
            make_psi_state(_dense_collection(), np.full(4, 0.1), mode="implicit")

    def test_stats_snapshot(self):
        coll = _collection(seed=29)
        state = make_psi_state(coll, np.full(len(coll), 0.1), mode="implicit")
        stats = state.stats()
        assert stats["mode"] == "implicit"
        assert stats["densifies"] == 0
        assert set(stats) == {
            "mode", "matvecs", "densifies", "lambda_max_calls", "lambda_max_matvecs",
        }
