"""Tests for repro.linalg.trace_estimation (structured degenerate-regime trace).

The Gram-spectrum evaluation must agree with the dense reference, the full
``(m, m)`` identity pushed through the Taylor polynomial,
``Tr[p(Psi/2)^2] = ||p(Psi/2) I||_F^2``, to rounding level, and with the
Gram kernel's own trace bitwise.  The smaller-twin mode rule (Gram iff
``R <= m``) and the oracle threading (zero full-identity Taylor applies on
the Gram trace) are pinned here; the end-to-end solver regressions live in
``tests/test_decision_packed_regressions.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.dotexp import ExactDotExpOracle, FastDotExpOracle, big_dot_exp
from repro.exceptions import InvalidProblemError
from repro.linalg.taylor_gram import GRAM_HYSTERESIS, GramTaylorKernel, TaylorEngine
from repro.linalg.trace_estimation import (
    TraceEstimator,
    gram_exp_trace,
    lambda_max_source,
    select_trace_mode,
    spectrum_exp_trace,
)
from repro.operators import ConstraintCollection, FactorizedPSDOperator

from helpers import factorized_family
from test_oracle_differential import BAND, EPS, _mid_run_weights


def _collection(seed, n=10, m=48, rank=2, kind="dense", density=0.1, support=None):
    """Random factorized constraints across the low-rank/sparse/concentrated
    families the estimator must cover."""
    scale = 1.0 / np.sqrt(m)
    if kind == "dense":
        return factorized_family(seed, n=n, m=m, rank=rank, scale=scale, validate=False)
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        if kind == "sparse":
            factor = sp.random(m, rank, density=density, random_state=rng, format="csr")
            if factor.nnz == 0:
                factor = sp.csr_matrix(
                    (np.full(rank, scale), (rng.integers(0, m, rank), np.arange(rank))),
                    shape=(m, rank),
                )
            ops.append(FactorizedPSDOperator(factor * (scale / np.sqrt(density))))
        elif kind == "concentrated":
            rows_avail = support if support is not None else max(m // 8, 4)
            dense = np.zeros((m, rank))
            for c in range(rank):
                rows = rng.choice(rows_avail, size=min(4, rows_avail), replace=False)
                dense[rows, c] = scale * rng.standard_normal(rows.shape[0])
            ops.append(FactorizedPSDOperator(sp.csr_matrix(dense)))
        else:  # pragma: no cover - test helper
            raise ValueError(kind)
    return ConstraintCollection(ops, validate=False)


def _kernel(packed, weights):
    """The engine-selected Taylor kernel over ``Psi = sum_i w_i Q_i Q_i^T``."""
    return TaylorEngine(packed).kernel_for(weights)


def _reference_trace(packed, weights, degree, scale=0.5):
    """The identity push: ``||p(scale * Psi) I||_F^2``."""
    kernel = _kernel(packed, weights)
    eye_t = kernel.apply(np.eye(packed.dim), degree, scale=scale)
    return float(np.sum(eye_t * eye_t))


def _truncated_exp_values(x, degree, scale=1.0):
    """``p(scale * x)`` per entry, read off one-eigenvalue traces (``m = R = 1``
    makes :func:`spectrum_exp_trace` return ``p^2``)."""
    return np.sqrt(
        [spectrum_exp_trace(np.array([v]), 1, degree, scale=scale) for v in x]
    )


class TestTruncatedExpValues:
    """The one scalar Lemma 4.2 evaluation, ``p(s lambda) = 1 + lambda r``."""

    def test_matches_exp_at_high_degree(self):
        x = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(
            _truncated_exp_values(x, 40), np.exp(x), rtol=1e-12
        )

    def test_scale_and_low_degree(self):
        x = np.array([0.0, 1.0, 2.0])
        # degree 2: 1 + 0.5 x
        np.testing.assert_allclose(
            _truncated_exp_values(x, 2, scale=0.5), 1.0 + 0.5 * x
        )

    def test_degree_validation(self):
        with pytest.raises(InvalidProblemError):
            spectrum_exp_trace(np.ones(3), 3, 0)


class TestSelectTraceMode:
    def test_gram_under_hysteresis_gate(self):
        assert select_trace_mode(100, 0) == "gram"
        assert select_trace_mode(100, 50) == "gram"
        # Every stack the Gram Taylor gate admits has its trace on the Gram
        # spectrum too.
        assert select_trace_mode(100, int(GRAM_HYSTERESIS * 100 / 2)) == "gram"

    def test_gram_up_to_full_rank(self):
        assert select_trace_mode(100, 60) == "gram"
        assert select_trace_mode(100, 100) == "gram"

    def test_identity_near_full_rank(self):
        assert select_trace_mode(100, 101) == "identity"
        assert select_trace_mode(100, 150) == "identity"

    def test_negative_shapes_rejected(self):
        with pytest.raises(InvalidProblemError):
            select_trace_mode(-1, 2)


class TestGramExpTrace:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "concentrated"])
    def test_matches_identity_push(self, kind):
        coll = _collection(3, n=8, m=40, kind=kind)
        packed = coll.packed()
        w = np.random.default_rng(4).random(len(coll)) + 0.1
        degree = 22
        ref = _reference_trace(packed, w, degree)
        value = gram_exp_trace(
            packed.gram_matrix(),
            packed.expand_weights(w),
            packed.dim,
            degree,
            scale=0.5,
        )
        assert value == pytest.approx(ref, rel=1e-10)

    def test_zero_weights_give_dim(self):
        coll = _collection(6, n=4, m=20)
        packed = coll.packed()
        value = gram_exp_trace(
            packed.gram_matrix(),
            np.zeros(packed.total_rank),
            packed.dim,
            10,
        )
        assert value == pytest.approx(float(packed.dim))

    def test_rank_above_dim_rejected(self):
        with pytest.raises(InvalidProblemError):
            gram_exp_trace(np.eye(5), np.ones(5), 3, 10)


class TestTraceEstimatorModes:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "concentrated"])
    @pytest.mark.parametrize("mode", ["gram"])
    def test_exact_modes_match_reference(self, kind, mode):
        coll = _collection(7, n=9, m=44, kind=kind)
        packed = coll.packed()
        w = np.random.default_rng(8).random(len(coll)) + 0.05
        degree = 20
        ref = _reference_trace(packed, w, degree)
        estimator = TraceEstimator(packed, mode=mode).bind(w)
        estimate = estimator.estimate(degree, scale=0.5)
        assert estimate.mode == mode
        assert estimate.value == pytest.approx(ref, rel=1e-9)

    def test_identity_mode_refuses_estimates(self):
        coll = _collection(17, n=4, m=10, rank=4)
        packed = coll.packed()
        estimator = TraceEstimator(packed, mode="identity")
        assert not estimator.structured
        with pytest.raises(InvalidProblemError):
            estimator.estimate(10)

    def test_bind_required_for_weighted_modes(self):
        coll = _collection(19, n=5, m=24)
        packed = coll.packed()
        estimator = TraceEstimator(packed, mode="gram")
        with pytest.raises(InvalidProblemError):
            estimator.estimate(10)

    def test_unknown_mode_rejected(self):
        coll = _collection(21, n=4, m=16)
        for mode in ("krylov++", "deflated"):
            with pytest.raises(InvalidProblemError):
                TraceEstimator(coll.packed(), mode=mode)


class TestBigDotExpThreading:
    def _setup(self, seed=23, n=9, m=40, kind="dense"):
        coll = _collection(seed, n=n, m=m, kind=kind)
        packed = coll.packed()
        w = np.random.default_rng(seed + 1).random(n) + 0.1
        kernel = _kernel(packed, w)
        return packed, w, kernel

    def test_degenerate_sketch_values_and_trace_match_legacy(self):
        packed, w, kernel = self._setup()
        # eps small enough that the JL dimension exceeds m: degenerate.
        legacy_vals, legacy_trace = big_dot_exp(
            kernel, packed, kappa=4.0, eps=0.05, rng=0, return_trace=True
        )
        estimator = TraceEstimator(packed, mode="gram").bind(w)
        vals, trace = big_dot_exp(
            kernel,
            packed,
            kappa=4.0,
            eps=0.05,
            rng=0,
            return_trace=True,
            trace_estimator=estimator,
        )
        np.testing.assert_allclose(vals, legacy_vals, rtol=1e-9)
        assert trace == pytest.approx(legacy_trace, rel=1e-9)
        assert estimator.calls == 1

    def test_structured_path_counts_zero_identity_applies(self):
        from repro.instrumentation.counters import OracleCounters

        packed, w, kernel = self._setup()
        estimator = TraceEstimator(packed, mode="gram").bind(w)
        counters = OracleCounters()
        big_dot_exp(
            kernel,
            packed,
            kappa=4.0,
            eps=0.05,
            rng=0,
            return_trace=True,
            counters=counters,
            trace_estimator=estimator,
        )
        assert counters.extra.get("identity_taylor_applies", 0) == 0
        assert counters.extra["structured_trace_estimates"] == 1

    def test_legacy_path_counts_identity_applies(self):
        from repro.instrumentation.counters import OracleCounters

        packed, w, kernel = self._setup()
        counters = OracleCounters()
        big_dot_exp(
            kernel,
            packed,
            kappa=4.0,
            eps=0.05,
            rng=0,
            return_trace=True,
            counters=counters,
        )
        assert counters.extra["identity_taylor_applies"] == 1

    def test_no_sketch_path_threads_estimator(self):
        packed, w, kernel = self._setup()
        legacy_vals, legacy_trace = big_dot_exp(
            kernel, packed, kappa=4.0, eps=0.05, use_sketch=False, return_trace=True
        )
        estimator = TraceEstimator(packed, mode="gram").bind(w)
        vals, trace = big_dot_exp(
            kernel,
            packed,
            kappa=4.0,
            eps=0.05,
            use_sketch=False,
            return_trace=True,
            trace_estimator=estimator,
        )
        np.testing.assert_allclose(vals, legacy_vals, rtol=1e-12)
        assert trace == pytest.approx(legacy_trace, rel=1e-9)

    def test_non_degenerate_sketch_ignores_estimator(self):
        # Loose eps on a larger m: the sketch genuinely reduces, the trace
        # rides on the sketch block, and the estimator must stay idle.
        coll = _collection(25, n=6, m=96)
        packed = coll.packed()
        w = np.full(6, 0.3)
        kernel = _kernel(packed, w)
        estimator = TraceEstimator(packed, mode="gram").bind(w)
        big_dot_exp(
            kernel,
            packed,
            kappa=3.0,
            eps=0.9,
            rng=0,
            sketch_constant=1.0,
            return_trace=True,
            trace_estimator=estimator,
        )
        assert estimator.calls == 0


class TestFastOracleTraceModes:
    def _fresh(self, seed, n=10, m=48, kind="dense"):
        coll = _collection(seed, n=n, m=m, kind=kind)
        return FastDotExpOracle(coll, eps=0.1, rng=0), coll

    @pytest.mark.parametrize("kind", ["dense", "sparse", "concentrated"])
    def test_auto_matches_identity_reference(self, kind):
        oracle, coll = self._fresh(27, kind=kind)
        x = np.random.default_rng(28).random(len(coll)) + 0.1
        out = oracle(None, x)
        exact = ExactDotExpOracle(coll)(coll.weighted_sum(x), x)
        # Degenerate sketch: only the Taylor truncation separates the
        # normalised values from the exact density's.
        np.testing.assert_allclose(out.values, exact.values, rtol=1e-5)
        # The structured call never pushed the identity through the kernel.
        assert oracle.trace_estimator.structured
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0
        assert oracle.counters.extra["structured_trace_estimates"] == 1

    def test_estimator_stats_surface_mode(self):
        oracle, coll = self._fresh(33)
        oracle(None, np.full(len(coll), 0.2))
        stats = oracle.trace_estimator.stats()
        assert stats["mode"] == "gram"
        assert stats["calls"] == 1
        assert stats["identity_fallbacks"] == 0


def _boundary_collection(kind, m, r, seed=41):
    """``r`` rank-1 exact factors in dimension ``m``, dense or sparse."""
    if kind == "dense":
        return factorized_family(seed, n=r, m=m, rank=1, scale=0.4, validate=False)
    return _collection(seed, n=r, m=m, rank=1, kind="sparse", density=0.3)


class TestSmallerTwinBoundary:
    """Gram trace if and only if ``R <= m``, on both sides of ``R = m``."""

    M = 24

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_mode_rule_and_kappa_source_agree(self, kind, offset):
        coll = _boundary_collection(kind, self.M, self.M + offset)
        packed = coll.packed()
        gram = packed.total_rank <= packed.dim
        assert (TraceEstimator(packed).mode == "gram") == gram
        assert (select_trace_mode(packed.dim, packed.total_rank) == "gram") == gram
        source, _ = lambda_max_source(
            packed, np.ones(len(coll)), packed.matvec_fn(np.ones(len(coll)))
        )
        # The Gram twin's spectrum (length R), else Psi itself.
        assert (np.ndim(source) == 1) == gram

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_full_rank_oracle_matches_exact(self, kind):
        coll = _boundary_collection(kind, self.M, self.M)
        x = _mid_run_weights(coll)
        fast = FastDotExpOracle(coll, eps=EPS, rng=0)
        out = fast(None, x)
        exact = ExactDotExpOracle(coll)(coll.weighted_sum(x), x)
        assert fast.trace_estimator.mode == "gram"
        if kind == "dense":
            assert fast.taylor_engine.mode == "dense-psi"
        assert fast.counters.extra.get("identity_taylor_applies", 0) == 0
        np.testing.assert_allclose(out.values, exact.values, rtol=BAND)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_spectrum_trace_is_the_gram_kernel_trace(self, kind, offset):
        coll = _boundary_collection(kind, self.M, self.M + offset)
        packed = coll.packed()
        kernel = GramTaylorKernel(
            packed.matrix, packed.expand_weights(_mid_run_weights(coll))
        )
        for degree in (1, 9, 30):
            assert spectrum_exp_trace(
                kernel.spectrum, packed.dim, degree, scale=0.5
            ) == kernel.exp_trace(degree, scale=0.5)
