"""Tests for the exponential-dot-product oracles (Theorem 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.dotexp as dotexp
import repro.linalg.norms as norms
import repro.linalg.taylor_gram as taylor_gram
from repro.exceptions import InvalidProblemError, NumericalError
from repro.instrumentation.counters import OracleCounters
from repro.linalg.expm import expm_eigh, expm_normalized
from repro.linalg.norms import certified_kappa
from repro.linalg.psd import random_psd
from repro.linalg.taylor import taylor_degree
from repro.linalg.taylor_blocked import BlockedTaylorKernel
from repro.linalg.taylor_gram import (
    GramTaylorKernel,
    TaylorEngine,
    gram_twin,
    product_evaluation,
)
from repro.operators import FactorizedPSDOperator
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import segment_sums
from repro import decision_psdp
from repro.core.dotexp import (
    ExactDotExpOracle,
    FastDotExpOracle,
    big_dot_exp,
    make_oracle,
)

from helpers import factorized_family


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

    @staticmethod
    def _gram_rung_input(divisor):
        """m=64, R=32: the Gram rung, the Gram trace and a degenerate sketch.

        ``lambda_max(Psi)`` is about ``16 / divisor``.
        """
        coll = factorized_family(3, n=16, m=64, rank=2)
        x = (np.random.default_rng(4).random(len(coll)) + 0.1) / divisor
        packed = coll.packed()
        kernel = GramTaylorKernel(
            packed.matrix, packed.expand_weights(x), gram=packed.gram_matrix()
        )
        degree = taylor_degree(certified_kappa(kernel.spectrum) / 2.0, 0.05 / 2.0)
        trace = kernel.exp_trace(degree, scale=0.5)
        expected = (
            segment_sums(kernel.factor_column_values(degree, scale=0.5), packed.offsets)
            / trace
        )
        return coll, x, degree, expected, trace

    @staticmethod
    def _count_eigensolvers(monkeypatch):
        """Count ``eigh``, ``eigvalsh``, Cholesky and ``dsyevr`` calls; forbid kernels."""
        calls = {"eigh": 0, "eigvalsh": 0, "dpotrf": 0, "dsyevr": 0}
        for module, name in (
            (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (norms, "dpotrf"), (taylor_gram, "dsyevr")
        ):
            def spy(*args, _name=name, _inner=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Gram-rung call built a kernel")

        monkeypatch.setattr(GramTaylorKernel, "__init__", forbidden)
        monkeypatch.setattr(TaylorEngine, "kernel_for", forbidden)
        monkeypatch.setattr(dotexp, "big_dot_exp", forbidden)
        return calls

    def test_gram_call_is_one_dsyevr_and_no_kernel(self, monkeypatch):
        # lambda_max(Psi) ~ 16: no Cholesky can prove the floor degree, so
        # one dsyevr gives the top eigenvalue, kappa and the degree, and
        # R x R products evaluate the polynomial at that degree.
        coll, x, degree, expected, trace = self._gram_rung_input(1.0)
        assert degree > taylor_degree(1.0, 0.05 / 2.0)
        calls = self._count_eigensolvers(monkeypatch)
        oracle = FastDotExpOracle(coll, eps=0.05, rng=0)
        out = oracle(None, x)
        assert oracle.taylor_engine.mode == "gram"
        assert calls["dsyevr"] == 1 and calls["eigh"] == 0 and calls["eigvalsh"] == 0
        assert oracle.counters.matvecs == coll.packed().total_rank * (degree - 1)
        np.testing.assert_allclose(out.values, expected, rtol=1e-13, atol=0.0)
        assert abs(out.trace - trace) <= 1e-13 * trace

    def test_strict_solve_across_the_floor_runs_no_eigh(self, monkeypatch):
        # optimize-factorized's shape (n=16, m=64, rank 2): as the weights
        # grow, ||Psi|| passes 2 and neither S^2 nor the Cholesky proves
        # the floor degree any more.  Every such call runs one dsyevr, and
        # no call an eigh; a Cholesky runs only where S^2 decides nothing.
        calls = self._count_eigensolvers(monkeypatch)
        verdicts, proofs = [], []
        real_verdict = dotexp.square_decides_lambda_max_below
        real_proof = dotexp.proves_lambda_max_below

        def verdict(*args):
            verdicts.append(real_verdict(*args))
            return verdicts[-1]

        def proof(*args):
            proofs.append(real_proof(*args))
            return proofs[-1]

        monkeypatch.setattr(dotexp, "square_decides_lambda_max_below", verdict)
        monkeypatch.setattr(dotexp, "proves_lambda_max_below", proof)
        decision_psdp(
            factorized_family(0, n=16, m=64, rank=2, scale=0.2),
            oracle="fast", epsilon=0.5, strict=True, rng=0, max_iterations=400,
        )
        unproved = verdicts.count(False) + proofs.count(False)
        assert verdicts.count(True) > 0 and unproved > 0
        assert len(proofs) == verdicts.count(None)
        assert calls["dsyevr"] == unproved and calls["eigh"] == 0
        assert calls["dpotrf"] <= len(proofs)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["pair", "upper"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_gram_call_on_a_non_finite_twin_raises_at_the_gram_site(
        self, monkeypatch, value, symmetric
    ):
        # dsyevr reads the upper triangle: a NaN there returns info > 0 and
        # a 0.0 eigenvalue, an inf a NaN one.  Either must raise at the
        # Gram kernel's site before the polynomial is evaluated at the
        # degree such a value would give.
        coll, x, _, _, _ = self._gram_rung_input(1.0)
        real_twin = dotexp.gram_twin

        def poisoned(gram, col_w):
            twin = real_twin(gram, col_w)
            twin[1, 5] = value
            if symmetric:
                twin[5, 1] = value
            return twin

        def evaluation(*args, **kwargs):
            raise AssertionError("evaluated a twin whose top eigenvalue failed")

        monkeypatch.setattr(dotexp, "gram_twin", poisoned)
        monkeypatch.setattr(dotexp, "product_evaluation", evaluation)
        with pytest.raises(NumericalError) as excinfo:
            FastDotExpOracle(coll, eps=0.05, rng=0)(None, x)
        assert excinfo.value.site == GramTaylorKernel.fault_site
        assert excinfo.value.kernel_mode == "gram"

    def test_gram_call_at_the_floor_runs_no_eigensolver(self, monkeypatch):
        # lambda_max(Psi) ~ 0.8 and ||S^2||_F ~ 1.1^2: the square proves
        # lambda_max below 2 with no Cholesky, so the degree is the floor
        # and R x R products evaluate the polynomial.
        coll, x, degree, expected, trace = self._gram_rung_input(20.0)
        assert degree == taylor_degree(1.0, 0.05 / 2.0)
        packed = coll.packed()
        gram, col_w = packed.gram_matrix(), packed.expand_weights(x)
        twin = gram_twin(gram, col_w)
        col_vals, product_trace = product_evaluation(
            gram, col_w, twin, twin @ twin, degree, packed.dim
        )
        calls = self._count_eigensolvers(monkeypatch)
        oracle = FastDotExpOracle(coll, eps=0.05, rng=0)
        out = oracle(None, x)
        assert calls == {"eigh": 0, "eigvalsh": 0, "dpotrf": 0, "dsyevr": 0}
        assert np.array_equal(out.values, segment_sums(col_vals, packed.offsets) / product_trace)
        assert out.trace == product_trace
        np.testing.assert_allclose(out.values, expected, rtol=1e-13, atol=0.0)
        assert abs(out.trace - trace) <= 1e-13 * trace

    @pytest.mark.parametrize(
        "divisor, dpotrf, dsyevr",
        [
            # lambda_max ~ 3.2 with every diagonal entry of S below 2: a
            # diagonal entry of S^2 above 4 shows that no Cholesky can
            # prove the floor, so the call goes straight to dsyevr.
            (5.0, 0, 1),
            # lambda_max ~ 1.6 and ~ 2.3, where ||S^2||_F is above 4 and
            # every diagonal entry of S^2 below it: one Cholesky decides,
            # proving the floor or failing before one dsyevr.
            (10.0, 1, 0),
            (7.0, 1, 1),
        ],
        ids=["lower-bound", "band-proved", "band-failed"],
    )
    def test_gram_call_runs_a_cholesky_only_where_the_square_decides_nothing(
        self, monkeypatch, divisor, dpotrf, dsyevr
    ):
        coll, x, degree, expected, trace = self._gram_rung_input(divisor)
        calls = self._count_eigensolvers(monkeypatch)
        out = FastDotExpOracle(coll, eps=0.05, rng=0)(None, x)
        assert calls == {"eigh": 0, "eigvalsh": 0, "dpotrf": dpotrf, "dsyevr": dsyevr}
        assert (degree == taylor_degree(1.0, 0.05 / 2.0)) == (dsyevr == 0)
        np.testing.assert_allclose(out.values, expected, rtol=1e-13, atol=0.0)
        assert abs(out.trace - trace) <= 1e-13 * trace

    @pytest.mark.parametrize("eps", [0.05, 0.5])
    def test_gram_degree_matches_the_cholesky_rule(self, eps):
        # The Cholesky-only rule: the floor when one Cholesky proves
        # lambda_max < FLOOR_LAMBDA_MAX, else dsyevr -> certified kappa ->
        # degree.  The square only skips work, so the degree never moves,
        # also within 1e-12 of the floor bound and of every degree
        # threshold 2 d / (e^2 (1 + KAPPA_SLACK)).
        oracle = FastDotExpOracle(factorized_family(0, n=4, m=8, rank=2), eps=eps, rng=0)

        def cholesky_rule(twin):
            if norms.proves_lambda_max_below(twin, dotexp.FLOOR_LAMBDA_MAX):
                return taylor_degree(1.0, eps / 2.0)
            kappa = certified_kappa(taylor_gram.gram_top_eigenvalue(twin))
            return taylor_degree(kappa / 2.0, eps / 2.0)

        thresholds = [dotexp.FLOOR_LAMBDA_MAX] + [
            2.0 * d / (np.e**2 * (1.0 + norms.KAPPA_SLACK)) for d in range(8, 23)
        ]
        tops = [t * f for t in thresholds for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
        rng = np.random.default_rng(5)
        tops += list(rng.uniform(0.0, 6.0, 500 - len(tops)))
        for i, top in enumerate(tops):
            r = (1, 2, 8, 32, 64)[i % 5]
            q = rng.standard_normal((2 * r, r)) * (rng.random((2 * r, r)) < 0.7)
            gram, w = q.T @ q, rng.random(r) + 0.05
            spectrum_top = np.linalg.eigvalsh(gram_twin(gram, w))[-1]
            if spectrum_top > 0:
                w *= top / spectrum_top
            twin = gram_twin(gram, w)
            assert oracle.gram_degree(twin, twin @ twin) == cholesky_rule(twin), (i, r, top)

    def test_kernel_route_bills_the_gram_kernels_kappa_eigensolve(self):
        # m=200, R=75: the Gram rung, and at eps 0.9 with sketch constant 1
        # a reducing 27-row sketch, so the call builds a Gram kernel, reads
        # kappa off its R x R eigh and takes the trace off the sketch block.
        # Degree 9.
        rng = np.random.default_rng(0)
        coll = ConstraintCollection(
            [FactorizedPSDOperator(0.3 * rng.standard_normal((200, 1))) for _ in range(75)]
        )
        x = np.full(len(coll), 0.05)
        oracle = FastDotExpOracle(coll, eps=0.9, sketch_constant=1.0, rng=0)
        out = oracle(None, x)
        assert oracle.taylor_engine.mode == "gram"
        assert oracle.trace_estimator.mode == "gram" and oracle.trace_estimator.calls == 0
        assert out.work == oracle._model_work(27, 9) + 75**3 == 3_660_000 + 75**3

    def test_kernel_route_bills_the_tracers_kappa_eigensolve(self):
        # m=200, R=150: dense-psi, Gram trace mode, and at eps 0.9 with
        # sketch constant 1 a reducing 27-row sketch, so the trace comes off
        # the sketch block and no trace estimate bills the R x R eigvalsh
        # kappa reads from the tracer.  Degree 11.
        rng = np.random.default_rng(0)
        coll = ConstraintCollection(
            [FactorizedPSDOperator(0.3 * rng.standard_normal((200, 2))) for _ in range(75)]
        )
        x = np.full(len(coll), 0.05)
        oracle = FastDotExpOracle(coll, eps=0.9, sketch_constant=1.0, rng=0)
        out = oracle(None, x)
        assert oracle.taylor_engine.mode == "dense-psi"
        assert oracle.trace_estimator.mode == "gram" and oracle.trace_estimator.calls == 0
        assert out.work == 8_940_000 + 150**3


class TestMakeOracle:
    def test_exact_kind(self, small_collection):
        assert isinstance(make_oracle(small_collection, "exact"), ExactDotExpOracle)

    def test_fast_kind(self, small_collection):
        assert isinstance(make_oracle(small_collection, "fast"), FastDotExpOracle)

    def test_unknown_kind(self, small_collection):
        with pytest.raises(InvalidProblemError):
            make_oracle(small_collection, "quantum")
