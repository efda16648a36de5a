"""Tests for repro.operators (all PSD operator representations + collections)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidProblemError
from repro.linalg.psd import random_psd
from repro.operators import (
    ConstraintCollection,
    DensePSDOperator,
    DiagonalPSDOperator,
    FactorizedPSDOperator,
    LowRankPSDOperator,
    SparsePSDOperator,
    as_operator,
)


def _all_representations(rng):
    """One operator of each kind, together with its dense ground truth."""
    dense_mat = random_psd(5, rng=rng, scale=1.5)
    diag = np.abs(rng.uniform(0.1, 2.0, size=5))
    factor = rng.standard_normal((5, 2))
    vectors = rng.standard_normal((5, 3))
    weights = np.abs(rng.uniform(0.5, 1.5, size=3))
    sparse_factor = np.where(rng.random((5, 3)) < 0.5, rng.standard_normal((5, 3)), 0.0)
    sparse_factor[0, 0] = 1.0
    reps = [
        (DensePSDOperator(dense_mat), dense_mat),
        (SparsePSDOperator(sp.csr_matrix(dense_mat)), dense_mat),
        (DiagonalPSDOperator(diag), np.diag(diag)),
        (FactorizedPSDOperator(factor), factor @ factor.T),
        (LowRankPSDOperator(vectors, weights), (vectors * weights) @ vectors.T),
        (
            FactorizedPSDOperator(sp.csr_matrix(sparse_factor)),
            sparse_factor @ sparse_factor.T,
        ),
    ]
    return reps


class TestOperatorContract:
    """Every representation must agree with its dense ground truth."""

    def test_to_dense(self, rng):
        for op, truth in _all_representations(rng):
            np.testing.assert_allclose(op.to_dense(), truth, atol=1e-10)

    def test_trace(self, rng):
        for op, truth in _all_representations(rng):
            assert op.trace() == pytest.approx(np.trace(truth), rel=1e-10)

    def test_dot(self, rng):
        weight = random_psd(5, rng=rng)
        for op, truth in _all_representations(rng):
            assert op.dot(weight) == pytest.approx(float(np.sum(truth * weight)), rel=1e-9)

    def test_matvec(self, rng):
        vec = rng.standard_normal(5)
        for op, truth in _all_representations(rng):
            np.testing.assert_allclose(op.matvec(vec), truth @ vec, atol=1e-9)

    def test_matvec_block(self, rng):
        block = rng.standard_normal((5, 3))
        for op, truth in _all_representations(rng):
            np.testing.assert_allclose(op.matvec(block), truth @ block, atol=1e-9)

    def test_add_to(self, rng):
        for op, truth in _all_representations(rng):
            acc = np.zeros((5, 5))
            op.add_to(acc, 2.0)
            np.testing.assert_allclose(acc, 2.0 * truth, atol=1e-9)

    def test_gram_factor_reconstructs(self, rng):
        for op, truth in _all_representations(rng):
            q = op.gram_factor()
            np.testing.assert_allclose(q @ q.T, truth, atol=1e-8)

    def test_spectral_norm(self, rng):
        for op, truth in _all_representations(rng):
            assert op.spectral_norm() == pytest.approx(float(np.linalg.eigvalsh(truth)[-1]), rel=1e-7)

    def test_nnz_positive(self, rng):
        for op, _ in _all_representations(rng):
            assert op.nnz > 0

    def test_scaled(self, rng):
        for op, truth in _all_representations(rng):
            scaled = op.scaled(0.5)
            np.testing.assert_allclose(scaled.to_dense(), 0.5 * truth, atol=1e-9)
            # Scaling keeps the representation, and with it the exact factors.
            assert type(scaled) is type(op)
            assert scaled.gram_factor_is_exact == op.gram_factor_is_exact
            if isinstance(op, FactorizedPSDOperator):
                assert sp.issparse(scaled.factor) == sp.issparse(op.factor)
            for coeff in (-1.0, np.nan, np.inf):
                with pytest.raises(ValueError):
                    op.scaled(coeff)

    def test_shape(self, rng):
        for op, _ in _all_representations(rng):
            assert op.shape == (5, 5)


class TestSparseFactorTrace:
    """A sparse factor's trace is the bits of ``Q.multiply(Q).sum()``, without building it."""

    @staticmethod
    def _reference(factor) -> float:
        return float(factor.multiply(factor).sum())

    @staticmethod
    def _factor(rng, canonical: bool):
        """A CSR factor with explicit zeros and squares that underflow.

        A non-canonical one also has unsorted and duplicate column indices.
        """
        m, r = int(rng.integers(1, 300)), int(rng.integers(1, 6))
        nnz = int(rng.integers(0, 3 * m))
        rows = np.sort(rng.integers(0, m, nnz))
        cols = rng.integers(0, r, nnz)
        values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-170, 3, nnz)
        values[rng.random(nnz) < 0.1] = 0.0
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
        factor = sp.csr_matrix((values, cols, indptr), shape=(m, r))
        if canonical:
            factor.sum_duplicates()
        return factor

    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "non-canonical"])
    def test_bitwise_equal_to_the_multiply_formula(self, canonical):
        rng = np.random.default_rng(17 + canonical)
        formats = set()
        for _ in range(300):
            factor = self._factor(rng, canonical)
            data, indices = factor.data.copy(), factor.indices.copy()
            assert FactorizedPSDOperator(factor).trace() == self._reference(factor)
            # The operator canonicalises a copy, never the caller's factor.
            assert np.array_equal(factor.data, data)
            assert np.array_equal(factor.indices, indices)
            formats.add(bool(factor.has_canonical_format))
        assert formats == ({True} if canonical else {True, False})

    def test_duplicates_add_before_they_square(self):
        factor = sp.csr_matrix(
            (np.array([1.0, 3.0, 2.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2)
        )
        assert not factor.has_canonical_format
        assert FactorizedPSDOperator(factor).trace() == 20.0 == self._reference(factor)

    def test_matches_the_dense_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dense = np.where(
                rng.random((40, 3)) < 0.3, rng.standard_normal((40, 3)), 0.0
            )
            sparse = FactorizedPSDOperator(sp.csr_matrix(dense)).trace()
            assert sparse == pytest.approx(FactorizedPSDOperator(dense).trace(), rel=1e-14)


class TestConstructorValidation:
    def test_dense_rejects_non_psd(self):
        with pytest.raises(InvalidProblemError):
            DensePSDOperator(np.diag([1.0, -1.0]))

    def test_sparse_requires_sparse(self):
        with pytest.raises(InvalidProblemError):
            SparsePSDOperator(np.eye(3))

    def test_sparse_rejects_rectangular(self):
        with pytest.raises(InvalidProblemError):
            SparsePSDOperator(sp.csr_matrix(np.ones((2, 3))))

    def test_diagonal_rejects_negative(self):
        with pytest.raises(InvalidProblemError):
            DiagonalPSDOperator(np.array([1.0, -0.5]))

    def test_diagonal_rejects_nan(self):
        with pytest.raises(InvalidProblemError):
            DiagonalPSDOperator(np.array([1.0, np.nan]))

    def test_factorized_rejects_nan(self):
        with pytest.raises(InvalidProblemError):
            FactorizedPSDOperator(np.array([[1.0], [np.nan]]))

    def test_factorized_1d_promoted(self):
        op = FactorizedPSDOperator(np.array([1.0, 2.0]))
        assert op.rank == 1

    def test_lowrank_weight_mismatch(self):
        with pytest.raises(InvalidProblemError):
            LowRankPSDOperator(np.ones((3, 2)), np.ones(3))

    def test_lowrank_negative_weights(self):
        with pytest.raises(InvalidProblemError):
            LowRankPSDOperator(np.ones((3, 1)), np.array([-1.0]))

    def test_lowrank_outer_constructor(self):
        vec = np.array([1.0, -1.0, 0.0])
        op = LowRankPSDOperator.outer(vec, weight=0.5)
        np.testing.assert_allclose(op.to_dense(), 0.5 * np.outer(vec, vec))


class TestAsOperator:
    def test_passthrough(self, rng):
        op = DensePSDOperator(random_psd(3, rng=rng))
        assert as_operator(op) is op

    def test_dense_array(self, rng):
        op = as_operator(random_psd(4, rng=rng))
        assert isinstance(op, DensePSDOperator)

    def test_sparse_matrix(self):
        op = as_operator(sp.eye(3, format="csr"))
        assert isinstance(op, SparsePSDOperator)

    def test_1d_becomes_diagonal(self):
        op = as_operator(np.array([1.0, 2.0]))
        assert isinstance(op, DiagonalPSDOperator)


class TestConstraintCollection:
    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InvalidProblemError):
            ConstraintCollection([np.eye(3), np.eye(4)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidProblemError):
            ConstraintCollection([])

    def test_traces_and_norms(self, small_collection):
        assert small_collection.traces().shape == (4,)
        assert small_collection.width() == pytest.approx(2.0, rel=1e-8)

    def test_weighted_sum_matches_manual(self, small_collection, rng):
        weights = np.abs(rng.uniform(0.1, 1.0, size=4))
        manual = sum(w * op.to_dense() for w, op in zip(weights, small_collection))
        np.testing.assert_allclose(small_collection.weighted_sum(weights), manual, atol=1e-10)

    def test_weighted_sum_rejects_negative(self, small_collection):
        with pytest.raises(InvalidProblemError):
            small_collection.weighted_sum(np.array([1.0, -1.0, 0.0, 0.0]))

    def test_weighted_sum_wrong_length(self, small_collection):
        with pytest.raises(InvalidProblemError):
            small_collection.weighted_sum(np.ones(3))

    def test_dots_match_individual(self, small_collection, rng):
        weight = random_psd(5, rng=rng)
        dots = small_collection.dots(weight)
        for value, op in zip(dots, small_collection):
            assert value == pytest.approx(op.dot(weight), rel=1e-10)

    def test_dots_with_backend_tracks_work(self, small_collection, rng):
        from repro.parallel.backends import SerialBackend
        from repro.parallel.workdepth import WorkDepthTracker

        tracker = WorkDepthTracker()
        backend = SerialBackend(tracker=tracker)
        weight = random_psd(5, rng=rng)
        dots_backend = small_collection.dots(weight, backend=backend)
        np.testing.assert_allclose(dots_backend, small_collection.dots(weight), atol=1e-12)
        assert tracker.work > 0

    def test_dots_shape_mismatch(self, small_collection):
        with pytest.raises(InvalidProblemError):
            small_collection.dots(np.eye(3))

    def test_subset_and_scaled(self, small_collection):
        sub = small_collection.subset([0, 2])
        assert len(sub) == 2
        scaled = small_collection.scaled(np.full(4, 2.0))
        np.testing.assert_allclose(scaled.traces(), 2.0 * small_collection.traces(), rtol=1e-10)

    def test_subset_empty_rejected(self, small_collection):
        with pytest.raises(InvalidProblemError):
            small_collection.subset([])

    def test_total_nnz(self, small_collection):
        assert small_collection.total_nnz == sum(op.nnz for op in small_collection)

    def test_gram_factors_reconstruct(self, small_collection):
        for factor, op in zip(small_collection.gram_factors(), small_collection):
            np.testing.assert_allclose(factor @ factor.T, op.to_dense(), atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999), n=st.integers(min_value=1, max_value=5))
def test_weighted_sum_is_psd_property(seed, n):
    """Property: non-negative combinations of PSD operators are PSD."""
    rng = np.random.default_rng(seed)
    collection = ConstraintCollection([random_psd(4, rng=rng) for _ in range(n)], validate=False)
    weights = np.abs(rng.uniform(0.0, 2.0, size=n))
    psi = collection.weighted_sum(weights)
    assert np.linalg.eigvalsh(psi)[0] >= -1e-9
