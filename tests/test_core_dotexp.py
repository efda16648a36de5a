"""Tests for the exponential-dot-product oracles (Theorem 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.instrumentation.counters import OracleCounters
from repro.linalg.expm import expm_eigh, expm_normalized
from repro.linalg.psd import random_psd
from repro.linalg.taylor import taylor_degree
from repro.linalg.taylor_blocked import BlockedTaylorKernel
from repro.operators.collection import ConstraintCollection
from repro.core.dotexp import (
    ExactDotExpOracle,
    FastDotExpOracle,
    big_dot_exp,
    make_oracle,
)


@pytest.fixture
def phi(rng):
    return random_psd(6, rng=rng, scale=2.0)


@pytest.fixture
def factors(rng):
    return [rng.standard_normal((6, 2)) for _ in range(4)]


class TestBigDotExp:
    def test_matches_exact_without_sketch(self, phi, factors):
        exact = [float(np.sum(expm_eigh(phi) * (q @ q.T))) for q in factors]
        approx = big_dot_exp(phi, factors, kappa=2.0, eps=0.05, use_sketch=False)
        np.testing.assert_allclose(approx, exact, rtol=0.06)

    def test_never_overestimates_without_sketch(self, phi, factors):
        """Lemma 4.2's polynomial is a lower bound, so the estimates are one-sided."""
        exact = np.array([float(np.sum(expm_eigh(phi) * (q @ q.T))) for q in factors])
        approx = big_dot_exp(phi, factors, kappa=2.0, eps=0.1, use_sketch=False)
        assert np.all(approx <= exact + 1e-8)

    def test_with_sketch_close(self, phi, factors, rng):
        exact = [float(np.sum(expm_eigh(phi) * (q @ q.T))) for q in factors]
        approx = big_dot_exp(phi, factors, kappa=2.0, eps=0.1, rng=rng)
        np.testing.assert_allclose(approx, exact, rtol=0.5)

    def test_kappa_estimated_when_missing(self, phi, factors, rng):
        approx = big_dot_exp(phi, factors, eps=0.1, rng=rng, use_sketch=False)
        exact = [float(np.sum(expm_eigh(phi) * (q @ q.T))) for q in factors]
        np.testing.assert_allclose(approx, exact, rtol=0.15)

    @pytest.mark.parametrize("form", ["matrix", "callable", "kernel", "lanczos"])
    def test_estimated_kappa_is_certified(self, form, rng):
        """The degree ``kappa=None`` picks comes from a kappa in
        ``[lambda_max, (1 + 1e-6) lambda_max]``: ``eigvalsh`` for a small
        matrix, Lanczos plus its residual for the other forms."""
        m = 200 if form == "lanczos" else 6
        base = random_psd(m, rank=4, rng=rng, scale=2.0)
        phi = base * (10.0 / np.linalg.eigvalsh(base)[-1])
        lam = np.linalg.eigvalsh(phi)[-1]
        arg = {
            "matrix": phi,
            "callable": lambda v: phi @ v,
            "kernel": BlockedTaylorKernel.from_matrix(phi),
            "lanczos": phi,
        }[form]
        factors = [rng.standard_normal((m, 2)) for _ in range(3)]
        counters = OracleCounters()
        big_dot_exp(
            arg, factors, eps=0.1, rng=1, counters=counters, dim=m, use_sketch=False
        )
        # use_sketch=False pushes the 2 * len(factors) factor columns.
        degree = counters.matvecs // (2 * len(factors)) + 1
        assert degree in {
            taylor_degree(lam / 2.0, 0.05), taylor_degree((1 + 1e-6) * lam / 2.0, 0.05)
        }

    def test_sparse_phi_and_factors(self, rng):
        dense_phi = random_psd(8, rank=3, rng=rng, scale=1.5)
        phi_sparse = sp.csr_matrix(dense_phi)
        factor = sp.csr_matrix(rng.standard_normal((8, 2)))
        exact = float(np.sum(expm_eigh(dense_phi) * (factor.toarray() @ factor.toarray().T)))
        approx = big_dot_exp(phi_sparse, [factor], kappa=1.5, eps=0.05, use_sketch=False)
        assert approx[0] == pytest.approx(exact, rel=0.06)

    def test_counters_updated(self, phi, factors):
        from repro.instrumentation.counters import OracleCounters

        counters = OracleCounters()
        big_dot_exp(phi, factors, kappa=2.0, eps=0.1, counters=counters, use_sketch=False)
        assert counters.calls == 1
        assert counters.matvecs > 0
        assert counters.factor_passes == len(factors)

    def test_invalid_eps(self, phi, factors):
        with pytest.raises(InvalidProblemError):
            big_dot_exp(phi, factors, eps=0.0)

    def test_empty_factors(self, phi):
        with pytest.raises(InvalidProblemError):
            big_dot_exp(phi, [], eps=0.1)

    def test_non_square_phi(self, factors):
        with pytest.raises(InvalidProblemError):
            big_dot_exp(np.ones((3, 4)), factors, eps=0.1)

    def test_factor_dimension_must_match_phi_list(self):
        with pytest.raises(InvalidProblemError, match="dimension 5.*6 rows"):
            big_dot_exp(np.eye(5), [np.ones((6, 2))], kappa=2.0, eps=0.2, use_sketch=False)

    def test_factor_dimension_must_match_phi_packed(self):
        from repro.operators.packed import PackedGramFactors

        from repro.linalg.taylor_blocked import BlockedTaylorKernel

        packed = PackedGramFactors([np.ones((6, 2))])
        with pytest.raises(InvalidProblemError, match="dimension 5.*6 rows"):
            big_dot_exp(np.eye(5), packed, kappa=2.0, eps=0.2, use_sketch=False)
        kernel = BlockedTaylorKernel.from_matrix(np.eye(5))
        with pytest.raises(InvalidProblemError, match="dimension 5.*6 rows"):
            big_dot_exp(kernel, packed, kappa=2.0, eps=0.2, use_sketch=False)

    def test_factor_dimension_must_match_phi_callable(self):
        with pytest.raises(InvalidProblemError, match="dimension 5.*6 rows"):
            big_dot_exp(
                lambda v: v, [np.ones((6, 2))], kappa=2.0, eps=0.2, dim=5,
                use_sketch=False,
            )


class TestExactOracle:
    def test_values_match_definition(self, small_collection, rng):
        oracle = ExactDotExpOracle(small_collection)
        psi = random_psd(5, rng=rng, scale=1.5)
        output = oracle(psi, np.ones(len(small_collection)))
        density = expm_normalized(psi)
        expected = small_collection.dots(density)
        np.testing.assert_allclose(output.values, expected, atol=1e-10)
        assert output.trace == 1.0
        assert oracle.counters.eigendecompositions == 1

    def test_work_positive(self, small_collection, rng):
        oracle = ExactDotExpOracle(small_collection)
        output = oracle(random_psd(5, rng=rng), np.ones(4))
        assert output.work > 0


class TestFastOracle:
    def test_close_to_exact_oracle(self, small_collection, rng):
        # The fast oracle rebuilds Psi from the dual iterate x through the
        # constraint factors, so psi and x must describe the same state.
        x = rng.uniform(0.05, 0.3, size=4)
        psi = small_collection.weighted_sum(x)
        exact = ExactDotExpOracle(small_collection)(psi, x).values
        fast = FastDotExpOracle(small_collection, eps=0.05, rng=rng)(psi, x).values
        # Ratios of one-sided approximations: allow a generous relative band.
        np.testing.assert_allclose(fast, exact, rtol=0.25)

    def test_invalid_eps(self, small_collection):
        with pytest.raises(InvalidProblemError):
            FastDotExpOracle(small_collection, eps=1.5)


class TestMakeOracle:
    def test_exact_kind(self, small_collection):
        assert isinstance(make_oracle(small_collection, "exact"), ExactDotExpOracle)

    def test_fast_kind(self, small_collection):
        assert isinstance(make_oracle(small_collection, "fast"), FastDotExpOracle)

    def test_unknown_kind(self, small_collection):
        with pytest.raises(InvalidProblemError):
            make_oracle(small_collection, "quantum")
