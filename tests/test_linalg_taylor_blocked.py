"""Tests for repro.linalg.taylor_blocked (the fused blocked Taylor kernel).

The kernel must evaluate exactly the same Lemma 4.2 polynomial as the
per-term reference :func:`repro.linalg.taylor.taylor_expm_apply` — per
column, to 1e-10 — in every representation (dense ``Psi``, sparse ``Psi``,
sparse scaled factors).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError, NumericalError
from repro.linalg.expm import expm_eigh
from repro.linalg.taylor import TaylorExpmOperator, taylor_degree, taylor_expm_apply
from repro.linalg.taylor_blocked import BlockedTaylorKernel, densified_psi
from repro.linalg.taylor_gram import TaylorEngine
from repro.core.dotexp import FastDotExpOracle, big_dot_exp
from repro.operators import ConstraintCollection, FactorizedPSDOperator, PackedGramFactors


def _factors(m, r, seed, sparse=False, density=0.2):
    rng = np.random.default_rng(seed)
    if sparse:
        mat = sp.random(m, r, density=density, random_state=rng, format="csr")
        return mat if mat.nnz else sp.csr_matrix(np.eye(m)[:, :r])
    return rng.standard_normal((m, r)) / np.sqrt(m)


def _dense_psi_engine():
    """A ``dense-psi`` engine over two rank-1 constraints in dimension 6."""
    q = _factors(6, 2, 0)
    return TaylorEngine(PackedGramFactors([q[:, :1], q[:, 1:]]), mode="dense-psi")


def _kernel(q, w):
    """The blocked kernel the engine builds for stack ``q`` at weights ``w``:
    the dense-``Psi`` recurrence for a dense stack, the scaled factor
    recurrence for a sparse one."""
    if sp.issparse(q):
        return BlockedTaylorKernel.from_scaled_factors(q, q.multiply(w[None, :]).tocsr())
    return BlockedTaylorKernel.from_matrix(densified_psi(q, w))


class TestKernelEquivalence:
    """Per-column agreement with the reference recurrence, all modes."""

    @pytest.mark.parametrize("r", [6, 60])  # R below and above m
    def test_matches_reference_per_column(self, r):
        m, s, degree = 24, 9, 18
        q = _factors(m, r, seed=r)
        w = np.random.default_rng(r + 1).random(r)
        psi = (q * w) @ q.T
        block = np.random.default_rng(2).standard_normal((m, s))
        kernel = _kernel(q, w)
        out = kernel.apply(block, degree)
        for j in range(s):
            ref = taylor_expm_apply(psi, block[:, j], degree)
            np.testing.assert_allclose(out[:, j], ref, atol=1e-10, rtol=0)

    def test_mode_selection(self):
        # The constructor fixes the representation the kernel reports.
        psi = densified_psi(_factors(24, 6, 0), np.ones(6))
        sparse_q = _factors(24, 6, 0, sparse=True)
        assert BlockedTaylorKernel.from_matrix(psi).mode == "dense-psi"
        assert BlockedTaylorKernel.from_matrix(sp.csr_matrix(psi)).mode == "sparse-psi"
        assert BlockedTaylorKernel.from_scaled_factors(sparse_q, sparse_q).mode == "sparse-factors"

    def test_scale_half_matches_reference(self):
        m, r, degree = 16, 5, 14
        q = _factors(m, r, seed=4)
        w = np.random.default_rng(5).random(r)
        psi = (q * w) @ q.T
        vec = np.random.default_rng(6).standard_normal(m)
        out = _kernel(q, w).apply(vec, degree, scale=0.5)
        ref = taylor_expm_apply(0.5 * psi, vec, degree)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_sparse_factors_match_reference(self):
        m, r, degree = 30, 7, 16
        q = _factors(m, r, seed=8, sparse=True)
        w = np.random.default_rng(9).random(r)
        psi = np.asarray((q.multiply(w[None, :]) @ q.T).todense())
        block = np.random.default_rng(10).standard_normal((m, 4))
        kernel = _kernel(q, w)
        assert kernel.mode == "sparse-factors"
        np.testing.assert_allclose(
            kernel.apply(block, degree), taylor_expm_apply(psi, block, degree), atol=1e-10
        )

    def test_from_matrix_dense_and_sparse(self):
        m, degree = 18, 12
        q = _factors(m, 4, seed=11)
        psi = q @ q.T
        block = np.random.default_rng(12).standard_normal((m, 5))
        ref = taylor_expm_apply(psi, block, degree)
        np.testing.assert_allclose(
            BlockedTaylorKernel.from_matrix(psi).apply(block, degree), ref, atol=1e-10
        )
        np.testing.assert_allclose(
            BlockedTaylorKernel.from_matrix(sp.csr_matrix(psi)).apply(block, degree),
            ref,
            atol=1e-10,
        )


class TestKernelValidation:
    def test_degree_one_is_identity(self):
        q = _factors(10, 3, seed=30)
        block = np.random.default_rng(31).standard_normal((10, 4))
        np.testing.assert_array_equal(
            _kernel(q, np.ones(3)).apply(block, 1), block
        )

    def test_single_vector_shape(self):
        q = _factors(10, 3, seed=32)
        vec = np.random.default_rng(33).standard_normal(10)
        out = _kernel(q, np.ones(3)).apply(vec, 8)
        assert out.shape == (10,)

    def test_invalid_degree(self):
        kernel = _kernel(_factors(6, 2, 0), np.ones(2))
        with pytest.raises(ValueError):
            kernel.apply(np.ones(6), 0)

    def test_weight_length_mismatch(self):
        # Weights reach a blocked kernel through the engine's weight fold.
        with pytest.raises(InvalidProblemError):
            _dense_psi_engine().kernel_for(np.ones(3))
        q = _factors(6, 2, 0, sparse=True)
        with pytest.raises(InvalidProblemError):
            BlockedTaylorKernel.from_scaled_factors(q, q[:, :1])

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidProblemError):
            _dense_psi_engine().kernel_for(np.array([1.0, -1.0]))

    def test_wrong_block_rows(self):
        kernel = _kernel(_factors(6, 2, 0), np.ones(2))
        with pytest.raises(InvalidProblemError):
            kernel.apply(np.ones((5, 2)), 3)

    def test_overflow_detection(self):
        q = np.diag([30.0, 0.0])  # Psi = diag(900, 0), huge spectral norm
        kernel = _kernel(q, np.ones(2))
        with pytest.raises(NumericalError):
            kernel.apply(np.full(2, 1e300), 60)

    def test_matvec_count(self):
        kernel = _kernel(_factors(8, 2, 0), np.ones(2))
        kernel.apply(np.ones((8, 5)), 7)
        assert kernel.matvec_count == 5 * 6
        kernel.apply(np.ones(8), 4)
        assert kernel.matvec_count == 5 * 6 + 3

    def test_matvec_matches_psi(self):
        m, r = 14, 40
        w = np.random.default_rng(41).random(r)
        vec = np.random.default_rng(42).standard_normal(m)
        for sparse in (False, True):
            q = _factors(m, r, seed=40, sparse=sparse)
            dense_q = q.toarray() if sparse else q
            np.testing.assert_allclose(
                _kernel(q, w).matvec(vec), ((dense_q * w) @ dense_q.T) @ vec, atol=1e-12
            )


class TestTaylorExpmOperatorBlockedPath:
    def test_matrix_input_matches_callable_input(self, rng):
        from repro.linalg.psd import random_psd

        mat = random_psd(10, rng=rng, scale=1.5)
        block = rng.standard_normal((10, 3))
        op_mat = TaylorExpmOperator(mat, kappa=1.5, eps=0.05)
        op_fn = TaylorExpmOperator(lambda v: mat @ v, kappa=1.5, eps=0.05, dim=10)
        np.testing.assert_allclose(op_mat.apply(block), op_fn.apply(block), atol=1e-11)
        assert op_mat.matvec_count == op_fn.matvec_count

    def test_kernel_input(self):
        q = _factors(12, 3, seed=50)
        w = np.random.default_rng(51).random(3)
        kernel = _kernel(q, w)
        op = TaylorExpmOperator(kernel, kappa=1.0, eps=0.1)
        vec = np.random.default_rng(52).standard_normal(12)
        ref = taylor_expm_apply(0.5 * ((q * w) @ q.T), vec, op.degree)
        np.testing.assert_allclose(op.apply(vec), ref, atol=1e-11)
        assert op.matvec_count == op.degree - 1


class TestBigDotExpKernelPath:
    def _collection(self, n=10, m=16, seed=60):
        rng = np.random.default_rng(seed)
        return ConstraintCollection(
            [
                FactorizedPSDOperator(0.3 * rng.standard_normal((m, 2)))
                for _ in range(n)
            ]
        )

    def test_kernel_matches_matvec_closure_nosketch(self):
        coll = self._collection()
        packed = coll.packed()
        x = np.random.default_rng(61).random(len(coll)) / len(coll)
        kernel = TaylorEngine(packed).kernel_for(x)
        loop = big_dot_exp(
            packed.matvec_fn(x), packed, kappa=2.0, eps=0.2, use_sketch=False, dim=coll.dim
        )
        fused = big_dot_exp(kernel, packed, kappa=2.0, eps=0.2, use_sketch=False)
        np.testing.assert_allclose(fused, loop, rtol=1e-10, atol=1e-12)

    def test_kernel_matches_matvec_closure_sketched(self):
        coll = self._collection(m=12)
        packed = coll.packed()
        x = np.random.default_rng(62).random(len(coll)) / len(coll)
        kernel = TaylorEngine(packed).kernel_for(x)
        # Identical rng seeds -> identical sketch draws on both paths.
        loop, tr_loop = big_dot_exp(
            packed.matvec_fn(x), packed, kappa=2.0, eps=0.2, rng=5, dim=coll.dim,
            return_trace=True,
        )
        fused, tr_fused = big_dot_exp(
            kernel, packed, kappa=2.0, eps=0.2, rng=5, return_trace=True
        )
        np.testing.assert_allclose(fused, loop, rtol=1e-9, atol=1e-12)
        assert tr_fused == pytest.approx(tr_loop, rel=1e-9)

    def test_matrix_phi_routed_through_kernel(self):
        coll = self._collection()
        packed = coll.packed()
        x = np.random.default_rng(63).random(len(coll)) / len(coll)
        phi = coll.weighted_sum(x)
        fused = big_dot_exp(phi, packed, kappa=2.0, eps=0.2, use_sketch=False)
        exact_exp = expm_eigh(phi)
        exact = [float(np.sum(exact_exp * (q @ q.T))) for q in coll.gram_factors()]
        # The truncated polynomial under-approximates, within eps / 2.
        np.testing.assert_allclose(fused, exact, rtol=0.1)
        assert np.all(fused <= np.asarray(exact) + 1e-10)

    def test_oracle_blocked_matches_unblocked_values(self):
        # The supervisor's floor rung (per-term recurrence through the
        # packed matvec, identity trace push) evaluates the same polynomial
        # as the engine's blocked kernel.
        x = np.random.default_rng(64).random(10) / 10
        outputs = {}
        for reference in (False, True):
            coll = self._collection()
            oracle = FastDotExpOracle(coll, eps=0.1, rng=17)
            oracle.reference = reference
            outputs[reference] = oracle(np.zeros((coll.dim, coll.dim)), x)
        np.testing.assert_allclose(
            outputs[False].values, outputs[True].values, rtol=1e-8, atol=1e-12
        )
        assert outputs[False].trace == pytest.approx(outputs[True].trace, rel=1e-8)
        assert outputs[False].work == outputs[True].work

    def test_packed_taylor_kernel_validates_weights(self):
        coll = self._collection()
        engine = TaylorEngine(coll.packed())
        with pytest.raises(InvalidProblemError):
            engine.kernel_for(np.ones(len(coll) + 1))
