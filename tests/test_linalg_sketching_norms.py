"""Tests for repro.linalg.sketching and repro.linalg.norms."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.linalg.norms import (
    frobenius_inner,
    proves_lambda_max_below,
    spectral_norm,
    spectral_norm_lanczos,
    spectral_norm_power,
    trace_product,
)
from repro.linalg.psd import random_psd
from repro.linalg.sketching import (
    SketchedNormEstimator,
    gaussian_sketch,
    jl_dimension,
    sketch_columns,
)
from repro.linalg.taylor_gram import gram_twin


class TestTraceProduct:
    def test_matches_trace_of_product(self, rng):
        a = random_psd(5, rng=rng)
        b = random_psd(5, rng=rng)
        assert trace_product(a, b) == pytest.approx(float(np.trace(a @ b)), rel=1e-10)

    def test_sparse_inputs(self, rng):
        a = random_psd(6, rng=rng)
        b = random_psd(6, rng=rng)
        assert trace_product(sp.csr_matrix(a), sp.csr_matrix(b)) == pytest.approx(
            trace_product(a, b), rel=1e-10
        )

    def test_mixed_sparse_dense(self, rng):
        a = random_psd(4, rng=rng)
        assert trace_product(sp.csr_matrix(a), np.eye(4)) == pytest.approx(np.trace(a), rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_product(np.eye(2), np.eye(3))

    def test_psd_dot_nonnegative(self, rng):
        """A . B >= 0 for PSD A, B (the fact underlying Section 2.1)."""
        for seed in range(5):
            a = random_psd(4, rng=np.random.default_rng(seed))
            b = random_psd(4, rng=np.random.default_rng(seed + 100))
            assert trace_product(a, b) >= -1e-12

    def test_frobenius_alias(self, rng):
        a = random_psd(3, rng=rng)
        assert frobenius_inner(a, a) == pytest.approx(trace_product(a, a))


class TestSpectralNorm:
    def test_power_iteration_matches_eigh(self, rng):
        mat = random_psd(8, rng=rng, scale=3.7)
        assert spectral_norm_power(mat, rng=rng) == pytest.approx(3.7, rel=1e-5)

    def test_power_iteration_callable(self, rng):
        mat = random_psd(6, rng=rng, scale=2.0)
        assert spectral_norm_power(lambda v: mat @ v, dim=6, rng=rng) == pytest.approx(2.0, rel=1e-5)

    def test_power_iteration_requires_dim_for_callable(self):
        with pytest.raises(ValueError):
            spectral_norm_power(lambda v: v)

    def test_power_iteration_zero_matrix(self):
        assert spectral_norm_power(np.zeros((4, 4))) == 0.0

    def test_lanczos_small_matrix_fallback(self, rng):
        mat = random_psd(5, rng=rng, scale=1.5)
        assert spectral_norm_lanczos(mat) == pytest.approx(1.5, rel=1e-8)

    def test_lanczos_sparse_large(self, rng):
        mat = sp.csr_matrix(random_psd(80, rank=5, rng=rng, scale=2.5))
        assert spectral_norm_lanczos(mat) == pytest.approx(2.5, rel=1e-5)

    def test_spectral_norm_dispatch(self, rng):
        mat = random_psd(10, rng=rng, scale=4.0)
        for method in ("auto", "dense", "lanczos", "power"):
            assert spectral_norm(mat, method=method) == pytest.approx(4.0, rel=1e-4)

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            spectral_norm(random_psd(3, rng=rng), method="magic")


class TestTopEigenvalueExtensions:
    """The E14 additions: matvec-callable Lanczos, warm starts (``v0``),
    ``return_vector``, and the measured-cost ``info`` dict."""

    def test_callable_lanczos_matches_dense(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(90, rng=rng, scale=2.5)
        exact = float(np.linalg.eigvalsh(mat)[-1])
        info: dict = {}
        est = top_eigenvalue(lambda v: mat @ v, dim=90, rng=rng, info=info)
        assert est == pytest.approx(exact, rel=1e-8)
        assert info["method"] == "lanczos"
        assert info["matvecs"] > 0

    def test_callable_small_dim_is_exact(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(12, rng=rng, scale=1.5)
        info: dict = {}
        est = top_eigenvalue(lambda v: mat @ v, dim=12, info=info)
        assert est == pytest.approx(float(np.linalg.eigvalsh(mat)[-1]))
        assert info["method"] == "eigvalsh"
        assert info["matvecs"] == 12

    def test_return_vector_is_top_eigenvector(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(70, rank=3, rng=rng, scale=2.0)
        value, vector = top_eigenvalue(mat, rng=rng, return_vector=True)
        assert vector is not None
        rayleigh = float(vector @ (mat @ vector)) / float(vector @ vector)
        assert rayleigh == pytest.approx(value, rel=1e-8)

    def test_warm_start_reduces_sweeps(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(120, rng=rng, scale=3.0)
        cold_info: dict = {}
        value, vector = top_eigenvalue(
            mat, rng=rng, return_vector=True, info=cold_info
        )
        warm_info: dict = {}
        warm = top_eigenvalue(mat, v0=vector, rng=rng, info=warm_info)
        assert warm == pytest.approx(value, rel=1e-9)
        assert warm_info["matvecs"] <= cold_info["matvecs"]

    def test_v0_validation(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(80, rng=rng)
        with pytest.raises(ValueError):
            top_eigenvalue(mat, v0=np.ones(3))
        # Degenerate warm starts are ignored, not fatal.
        assert top_eigenvalue(mat, v0=np.zeros(80), rng=rng) > 0

    def test_info_on_dense_matrix_paths(self, rng):
        from repro.linalg.norms import top_eigenvalue

        info: dict = {}
        top_eigenvalue(random_psd(10, rng=rng), info=info)
        assert info == {"method": "eigvalsh", "matvecs": 10}
        info_big: dict = {}
        top_eigenvalue(random_psd(90, rng=rng), rng=rng, info=info_big)
        assert info_big["method"] == "lanczos"
        assert 0 < info_big["matvecs"] < 90 * 90

    def test_sparse_matrix_input(self, rng):
        from repro.linalg.norms import top_eigenvalue

        mat = sp.csr_matrix(random_psd(90, rank=4, rng=rng, scale=2.2))
        exact = float(np.linalg.eigvalsh(mat.toarray())[-1])
        assert top_eigenvalue(mat, rng=rng) == pytest.approx(exact, rel=1e-7)

    def test_small_dim_accepts_vector_only_matvec(self, rng):
        # The matvec contract is single vectors (power iteration never
        # passed blocks); the small-dim materialisation must honour it.
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(12, rng=rng, scale=1.8)
        matvec = sp.linalg.aslinearoperator(mat).matvec  # rejects (n, n) input
        assert top_eigenvalue(matvec, dim=12) == pytest.approx(
            float(np.linalg.eigvalsh(mat)[-1])
        )

    def test_matvec_errors_propagate(self):
        # A bug inside the caller's matvec must fail loudly, not silently
        # degrade the certificate estimate to the power-iteration fallback.
        from repro.linalg.norms import top_eigenvalue

        def broken(v):
            raise RuntimeError("matvec bug")

        with pytest.raises(RuntimeError, match="matvec bug"):
            top_eigenvalue(broken, dim=80)

    def test_lanczos_value_clamped_at_zero(self):
        from repro.linalg.norms import top_eigenvalue

        assert top_eigenvalue(lambda v: np.zeros_like(v), dim=80) == 0.0

    @pytest.mark.parametrize("seed", [0, None])
    def test_cold_lanczos_start_is_seeded(self, seed):
        # Without v0 the start vector is drawn from rng, not left to
        # ARPACK's entropy-seeded default: repeated calls return the same
        # bits after the same number of sweeps.
        from repro.linalg.norms import top_eigenvalue

        mat = random_psd(200, rng=np.random.default_rng(4))
        runs = set()
        for _ in range(5):
            info: dict = {}
            runs.add((top_eigenvalue(mat, rng=seed, info=info), info["matvecs"]))
        assert len(runs) == 1


class TestProvesLambdaMaxBelow:
    @staticmethod
    def _twin(r):
        """A random Gram twin ``S = W^(1/2) Q^T Q W^(1/2)`` with ``Q`` of shape ``(2r, r)``."""
        rng = np.random.default_rng(r)
        q = rng.standard_normal((2 * r, r))
        return gram_twin(q.T @ q, rng.random(r) + 0.1)

    @pytest.mark.parametrize("r", [8, 32, 400])
    def test_accepts_a_bound_above_and_rejects_one_below(self, r):
        twin = self._twin(r)
        spectrum = np.linalg.eigvalsh(twin)
        top, second = spectrum[-1], spectrum[-2]
        assert proves_lambda_max_below(twin, (1.0 + 1e-6) * top)
        assert not proves_lambda_max_below(twin, (1.0 - 1e-12) * top)
        # A Ritz value below the top eigenvalue is no bound.
        assert second < top
        assert not proves_lambda_max_below(twin, second)

    @pytest.mark.parametrize("r", [8, 32, 400])
    def test_never_accepts_a_twin_holding_a_nan(self, r):
        twin = self._twin(r)
        bound = 10.0 * np.linalg.eigvalsh(twin)[-1]
        assert proves_lambda_max_below(twin, bound)
        for i, j in [(0, 0), (r - 1, r - 1), (1, 0), (r - 1, 0), (r - 1, r - 2), (r // 2, r // 3)]:
            poisoned = twin.copy()
            poisoned[i, j] = poisoned[j, i] = np.nan
            assert not proves_lambda_max_below(poisoned, bound), (i, j)


class TestJLDimension:
    def test_formula(self):
        assert jl_dimension(100, 0.5, constant=8.0) == int(np.ceil(8.0 * np.log(100) / 0.25))

    def test_monotone_in_eps(self):
        assert jl_dimension(50, 0.1) > jl_dimension(50, 0.5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            jl_dimension(0, 0.1)
        with pytest.raises(ValueError):
            jl_dimension(10, 1.5)
        with pytest.raises(ValueError):
            jl_dimension(10, 0.1, constant=0.0)


class TestGaussianSketch:
    def test_shape_and_scaling(self, rng):
        sketch = gaussian_sketch(50, 20, rng=rng)
        assert sketch.shape == (50, 20)
        # Column norms concentrate around 1 thanks to the 1/sqrt(rows) scaling.
        norms = np.linalg.norm(sketch, axis=0)
        assert abs(float(norms.mean()) - 1.0) < 0.2

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            gaussian_sketch(0, 5)

    def test_norm_preservation_on_average(self, rng):
        vec = rng.standard_normal(30)
        estimates = []
        for seed in range(30):
            sketch = gaussian_sketch(40, 30, rng=seed)
            estimates.append(float(np.sum((sketch @ vec) ** 2)))
        assert np.mean(estimates) == pytest.approx(float(vec @ vec), rel=0.15)

    def test_sketch_columns_sparse(self, rng):
        sketch = gaussian_sketch(10, 8, rng=rng)
        mat = sp.csr_matrix(np.eye(8))
        np.testing.assert_allclose(sketch_columns(sketch, mat), sketch, atol=1e-12)


class TestSketchedNormEstimator:
    def test_estimates_match_exact_with_identity_sketch(self, rng):
        transform = rng.standard_normal((6, 6))
        estimator = SketchedNormEstimator(transform)
        factor = rng.standard_normal((6, 2))
        assert estimator.estimate(factor) == pytest.approx(float(np.sum((transform @ factor) ** 2)), rel=1e-12)

    def test_estimate_many(self, rng):
        estimator = SketchedNormEstimator(rng.standard_normal((4, 5)))
        factors = [rng.standard_normal((5, 1)) for _ in range(3)]
        batch = estimator.estimate_many(factors)
        assert batch.shape == (3,)
        for value, factor in zip(batch, factors):
            assert value == pytest.approx(estimator.estimate(factor))

    def test_rejects_1d_transform(self):
        with pytest.raises(ValueError):
            SketchedNormEstimator(np.ones(4))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_sketched_norm_concentration_property(seed):
    """Property: a JL sketch with ~eps^-2 log m rows estimates norms within ~30%."""
    rng = np.random.default_rng(seed)
    dim = 25
    factor = rng.standard_normal((dim, 3))
    exact = float(np.sum(factor * factor))
    sketch = gaussian_sketch(jl_dimension(dim, 0.3), dim, rng=seed)
    estimate = float(np.sum((sketch @ factor) ** 2))
    assert estimate == pytest.approx(exact, rel=0.45)
