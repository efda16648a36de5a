"""Packed Gram-factor fast path: equivalence against the reference loops.

Every packed primitive must reproduce the per-constraint reference
implementation to tight tolerance across dense / sparse / diagonal /
low-rank operator mixes — the packing is a wall-clock optimisation, not an
approximation.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.linalg.expm import expm_eigh
from repro.linalg.psd import random_psd
from repro.linalg.taylor_gram import TaylorEngine
from repro.operators import (
    ConstraintCollection,
    DensePSDOperator,
    DiagonalPSDOperator,
    FactorizedPSDOperator,
    LowRankPSDOperator,
    PackedGramFactors,
)
from repro.operators.packed import segment_sums
from repro.core.dotexp import FastDotExpOracle, big_dot_exp


def _mixed_operators(rng, m, kind):
    """Constraint mixes exercising every operator representation."""
    if kind == "dense":
        return [DensePSDOperator(random_psd(m, rng=rng, scale=s)) for s in (0.5, 1.0, 2.0)]
    if kind == "sparse":
        ops = []
        for i in range(4):
            factor = sp.random(m, 3, density=0.3, random_state=int(rng.integers(1 << 31)))
            ops.append(FactorizedPSDOperator(sp.csr_matrix(factor)))
        return ops
    if kind == "diagonal":
        return [DiagonalPSDOperator(rng.random(m) + 0.1) for _ in range(3)]
    if kind == "lowrank":
        return [
            LowRankPSDOperator(rng.standard_normal((m, 2)), rng.random(2) + 0.1)
            for _ in range(4)
        ]
    if kind == "mixed":
        return [
            DensePSDOperator(random_psd(m, rng=rng)),
            FactorizedPSDOperator(rng.standard_normal((m, 2))),
            FactorizedPSDOperator(sp.csr_matrix(sp.random(m, 2, density=0.4, random_state=3))),
            DiagonalPSDOperator(rng.random(m) + 0.1),
            LowRankPSDOperator(rng.standard_normal((m, 3))),
        ]
    raise AssertionError(kind)


MIX_KINDS = ["dense", "sparse", "diagonal", "lowrank", "mixed"]


@pytest.fixture(params=MIX_KINDS)
def mix(request, rng):
    m = 9
    ops = _mixed_operators(rng, m, request.param)
    return ConstraintCollection(ops), ops, m


class TestPackedPrimitives:
    def test_weighted_sum_matches_reference(self, mix, rng):
        coll, ops, m = mix
        packed = coll.packed()
        weights = rng.random(len(ops))
        reference = np.zeros((m, m))
        for w, op in zip(weights, ops):
            op.add_to(reference, float(w))
        reference = 0.5 * (reference + reference.T)
        np.testing.assert_allclose(packed.weighted_sum(weights), reference, atol=1e-10)

    def test_weighted_sum_active_columns_only(self, mix, rng):
        coll, ops, m = mix
        packed = coll.packed()
        weights = np.zeros(len(ops))
        weights[0] = 0.7
        np.testing.assert_allclose(
            packed.weighted_sum(weights), 0.7 * ops[0].to_dense(), atol=1e-10
        )
        assert np.all(packed.weighted_sum(np.zeros(len(ops))) == 0.0)

    def test_dots_matches_reference(self, mix, rng):
        coll, ops, m = mix
        packed = coll.packed()
        weight_matrix = random_psd(m, rng=rng)
        reference = np.array([op.dot(weight_matrix) for op in ops])
        np.testing.assert_allclose(packed.dots(weight_matrix), reference, atol=1e-10)

    def test_traces_matches_reference(self, mix):
        coll, ops, m = mix
        packed = coll.packed()
        reference = np.array([op.trace() for op in ops])
        np.testing.assert_allclose(packed.traces(), reference, atol=1e-10)

    def test_matvec_matches_reference(self, mix, rng):
        coll, ops, m = mix
        packed = coll.packed()
        weights = rng.random(len(ops))
        block = rng.standard_normal((m, 3))
        reference = np.zeros_like(block)
        for w, op in zip(weights, ops):
            reference += w * op.matvec(block)
        np.testing.assert_allclose(packed.matvec(weights, block), reference, atol=1e-10)
        np.testing.assert_allclose(
            packed.matvec_fn(weights)(block[:, 0]), reference[:, 0], atol=1e-10
        )

    def test_big_dot_exp_no_sketch_matches_reference(self, mix):
        coll, ops, m = mix
        phi = coll.weighted_sum(np.full(len(ops), 1.0 / len(ops)))
        reference = big_dot_exp(phi, coll.gram_factors(), kappa=2.0, eps=0.1, use_sketch=False)
        packed_vals = big_dot_exp(phi, coll.packed(), kappa=2.0, eps=0.1, use_sketch=False)
        np.testing.assert_allclose(packed_vals, reference, rtol=1e-10, atol=1e-10)


class TestPackedStructure:
    def test_offsets_and_factor_blocks(self, rng):
        factors = [rng.standard_normal((5, r)) for r in (1, 3, 2)]
        packed = PackedGramFactors(factors)
        assert packed.total_rank == 6
        assert list(packed.offsets) == [0, 1, 4, 6]
        for i, factor in enumerate(factors):
            np.testing.assert_array_equal(np.asarray(packed.factor(i)), factor)

    def test_one_dimensional_factor_treated_as_column(self, rng):
        packed = PackedGramFactors([rng.standard_normal(5)])
        assert packed.total_rank == 1

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InvalidProblemError):
            PackedGramFactors([rng.standard_normal((4, 2)), rng.standard_normal((5, 2))])

    def test_empty_rejected(self):
        with pytest.raises(InvalidProblemError):
            PackedGramFactors([])

    def test_weight_validation(self, rng):
        packed = PackedGramFactors([rng.standard_normal((4, 2)) for _ in range(3)])
        with pytest.raises(InvalidProblemError):
            packed.expand_weights(np.ones(2))
        with pytest.raises(InvalidProblemError):
            packed.expand_weights(np.array([1.0, -0.5, 1.0]))

    def test_rank_zero_blocks_sum_to_zero(self, rng):
        """Empty column blocks must yield 0, not np.add.reduceat's silent
        neighbour-value artefact."""
        factors = [
            rng.standard_normal((4, 2)),
            np.zeros((4, 0)),
            rng.standard_normal((4, 1)),
        ]
        packed = PackedGramFactors(factors)
        traces = packed.traces()
        assert traces[1] == 0.0
        assert traces[0] == pytest.approx(float(np.sum(factors[0] ** 2)))
        assert traces[2] == pytest.approx(float(np.sum(factors[2] ** 2)))

    def test_segment_sums_empty_segments(self):
        values = np.array([1.0, 2.0, 3.0])
        offsets = np.array([0, 2, 2, 3])
        np.testing.assert_allclose(segment_sums(values, offsets), [3.0, 0.0, 3.0])

    def test_diagonal_collections_pack_sparsely(self, rng):
        """n diagonal constraints must pack to O(n m) stored entries via the
        sparse diag factor, not n dense (m, m) eye-like blocks."""
        m, n = 40, 15
        coll = ConstraintCollection([DiagonalPSDOperator(rng.random(m) + 0.1) for _ in range(n)])
        packed = coll.packed()
        assert packed.is_sparse
        assert packed.nnz <= n * m
        np.testing.assert_allclose(
            packed.traces(), np.array([op.trace() for op in coll]), atol=1e-10
        )
        weights = rng.random(n)
        reference = np.zeros((m, m))
        for w, op in zip(weights, coll):
            op.add_to(reference, float(w))
        np.testing.assert_allclose(packed.weighted_sum(weights), reference, atol=1e-10)

    def test_packed_factor_passes_match_reference_semantics(self, rng):
        """A factor list is packed at entry: the same values and the same
        counter report as the packed view — one pass per constraint plus
        one for the trace."""
        from repro.instrumentation.counters import OracleCounters

        factors = [rng.standard_normal((6, 2)) for _ in range(4)]
        phi = np.eye(6)
        for use_sketch in (True, False):
            list_counters, packed_counters = OracleCounters(), OracleCounters()
            from_list = big_dot_exp(
                phi, factors, kappa=1.0, eps=0.1, rng=1, use_sketch=use_sketch,
                counters=list_counters, return_trace=True,
            )
            from_packed = big_dot_exp(
                phi, PackedGramFactors(factors), kappa=1.0, eps=0.1, rng=1,
                use_sketch=use_sketch, counters=packed_counters, return_trace=True,
            )
            np.testing.assert_array_equal(from_list[0], from_packed[0])
            assert from_list[1] == from_packed[1]
            assert packed_counters.as_dict() == list_counters.as_dict()
            assert packed_counters.factor_passes == 5

    def test_sparse_packing_keeps_sparse_storage(self, rng):
        factors = [sp.random(50, 2, density=0.02, random_state=i, format="csr") for i in range(4)]
        packed = PackedGramFactors(factors)
        assert packed.is_sparse
        dense_packed = PackedGramFactors([f.toarray() for f in factors])
        assert not dense_packed.is_sparse
        np.testing.assert_allclose(packed.traces(), dense_packed.traces(), atol=1e-12)

    def test_collection_caches_packed_view(self, rng):
        coll = ConstraintCollection([FactorizedPSDOperator(rng.standard_normal((5, 2)))])
        assert coll.packed_view is None
        packed = coll.packed()
        assert coll.packed_view is packed
        assert coll.packed() is packed

    def test_exact_factor_collections_reroute(self, rng):
        """Exact-factor collections always sum through the packed view (built
        on first use); traces stay the per-operator sum."""
        coll = ConstraintCollection(
            [FactorizedPSDOperator(rng.standard_normal((5, 2))) for _ in range(3)]
        )
        x = np.array([0.2, 0.5, 0.3])
        assert coll.packed_view is None
        psi = coll.weighted_sum(x)
        assert coll.packed_view is not None
        np.testing.assert_array_equal(psi, coll.packed().weighted_sum(x))
        np.testing.assert_array_equal(coll.traces(), [op.trace() for op in coll])

    def test_dense_collections_never_reroute_reference_ops(self, rng):
        """Dense operators' eigh-derived factors are approximate, so the
        packed view must not silently replace weighted_sum/dots/traces."""
        mats = [random_psd(5, rng=rng, scale=s) for s in (0.5, 1.5)]
        coll = ConstraintCollection([DensePSDOperator(m) for m in mats])
        before = coll.weighted_sum(np.array([0.3, 0.7]))
        assert coll.packed_view is None
        coll.packed()  # the fast oracle may still build/use the view...
        after = coll.weighted_sum(np.array([0.3, 0.7]))  # ...reference ops keep the loop
        np.testing.assert_array_equal(before, after)


class TestPackedOracle:
    def _collection(self, rng, m=10, n=6):
        return ConstraintCollection(
            [FactorizedPSDOperator(0.4 * rng.standard_normal((m, 2))) for _ in range(n)]
        )

    def test_packed_oracle_builds_collection_view(self, rng):
        coll = self._collection(rng)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=5)
        assert oracle.packed is coll.packed_view

    def test_big_dot_exp_return_trace_packed_vs_sequence(self, rng):
        coll = self._collection(rng)
        phi = coll.weighted_sum(np.full(len(coll), 0.2))
        vals_p, trace_p = big_dot_exp(
            phi, coll.packed(), kappa=2.0, eps=0.1, rng=3, return_trace=True
        )
        vals_s, trace_s = big_dot_exp(
            phi, coll.gram_factors(), kappa=2.0, eps=0.1, rng=3, return_trace=True
        )
        np.testing.assert_array_equal(vals_p, vals_s)
        assert trace_p == trace_s
        # m = 10 puts the sketch in the degenerate regime: only the Taylor
        # truncation (eps / 2, one-sided) separates the values from exp(phi).
        exact_exp = expm_eigh(phi)
        exact = [float(np.sum(exact_exp * (q @ q.T))) for q in coll.gram_factors()]
        np.testing.assert_allclose(vals_p, exact, rtol=0.05)
        assert trace_p == pytest.approx(float(np.trace(exact_exp)), rel=0.05)

    def test_big_dot_exp_return_trace_no_sketch(self, rng):
        coll = self._collection(rng)
        phi = coll.weighted_sum(np.full(len(coll), 0.2))
        vals, trace = big_dot_exp(
            phi, coll.packed(), kappa=2.0, eps=0.05, use_sketch=False, return_trace=True
        )
        exact_trace = float(np.trace(expm_eigh(phi)))
        assert trace == pytest.approx(exact_trace, rel=0.06)
        assert trace <= exact_trace + 1e-8


class TestZeroRankStacks:
    """Offset bookkeeping for rank-zero blocks and fully empty stacks.

    These paths were previously only exercised implicitly; every primitive
    must degrade to exact zeros / identity behaviour, dense and sparse.
    """

    def _empty(self, sparse):
        blocks = (
            [sp.csr_matrix((4, 0)), sp.csr_matrix((4, 0))]
            if sparse
            else [np.zeros((4, 0)), np.zeros((4, 0))]
        )
        return PackedGramFactors(blocks)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_empty_stack_primitives(self, sparse):
        packed = self._empty(sparse)
        assert packed.total_rank == 0
        assert packed.nnz == 0
        assert packed.expand_weights(np.zeros(2)).shape == (0,)
        np.testing.assert_array_equal(packed.traces(), np.zeros(2))
        np.testing.assert_array_equal(packed.dots(np.eye(4)), np.zeros(2))
        np.testing.assert_array_equal(
            packed.weighted_sum(np.ones(2)), np.zeros((4, 4))
        )
        np.testing.assert_array_equal(
            packed.matvec(np.ones(2), np.ones((4, 3))), np.zeros((4, 3))
        )
        np.testing.assert_array_equal(
            packed.matvec_fn(np.ones(2))(np.ones(4)), np.zeros(4)
        )
        np.testing.assert_array_equal(
            packed.estimates_from_transform(np.ones((3, 4))), np.zeros(2)
        )
        assert packed.dense_columns().shape == (4, 0)
        assert packed.gram_matrix().shape == (0, 0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_empty_stack_taylor_kernel_is_identity(self, sparse):
        packed = self._empty(sparse)
        block = np.random.default_rng(70).standard_normal((4, 3))
        np.testing.assert_array_equal(
            TaylorEngine(packed).kernel_for(np.ones(2)).apply(block, 7), block
        )

    def test_sparse_mixed_zero_rank_blocks(self):
        rng = np.random.default_rng(71)
        blocks = [
            sp.random(30, 3, density=0.1, random_state=rng, format="csr"),
            sp.csr_matrix((30, 0)),
            sp.random(30, 2, density=0.1, random_state=rng, format="csr"),
        ]
        packed = PackedGramFactors(blocks)
        assert packed.is_sparse
        assert list(packed.ranks) == [3, 0, 2]
        traces = packed.traces()
        assert traces[1] == 0.0
        dense = PackedGramFactors([b.toarray() for b in blocks])
        np.testing.assert_allclose(traces, dense.traces(), atol=1e-12)
        np.testing.assert_allclose(
            packed.dots(np.eye(30)), dense.dots(np.eye(30)), atol=1e-12
        )
        assert packed.factor(1).shape == (30, 0)

    def test_segment_sums_accepts_array_likes(self):
        np.testing.assert_allclose(
            segment_sums(np.array([1.0, 2.0, 3.0]), [0, 2, 2, 3]), [3.0, 0.0, 3.0]
        )
        np.testing.assert_allclose(segment_sums([1.0, 2.0], [0, 2]), [3.0])

    def test_segment_sums_rejects_matrix_offsets(self):
        with pytest.raises(InvalidProblemError):
            segment_sums(np.ones(4), np.zeros((2, 2)))

    def test_segment_sums_trailing_empty_segment(self):
        np.testing.assert_allclose(
            segment_sums(np.array([1.0, 2.0, 3.0]), np.array([0, 3, 3])), [6.0, 0.0]
        )

    def test_segment_sums_degenerate_offsets(self):
        assert segment_sums(np.zeros(0), np.array([0])).shape == (0,)
        assert segment_sums(np.zeros(0), np.zeros(0, dtype=np.int64)).shape == (0,)


class TestSparseCSRBranches:
    """The CSR code paths of the packed primitives, on stacks that stay
    sparse (density below the densification threshold)."""

    def _sparse_packed(self, m=60, n=6, rank=3, density=0.05, seed=80):
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(n):
            f = sp.random(m, rank, density=density, random_state=rng, format="csr")
            if f.nnz == 0:
                f = sp.csr_matrix(
                    (np.ones(rank), (rng.integers(0, m, rank), np.arange(rank))),
                    shape=(m, rank),
                )
            blocks.append(f)
        packed = PackedGramFactors(blocks)
        assert packed.is_sparse  # the whole point of this fixture
        dense = PackedGramFactors([b.toarray() for b in blocks])
        return packed, dense

    def test_matvec_fn_matches_dense(self, rng):
        packed, dense = self._sparse_packed()
        weights = rng.random(6)
        block = rng.standard_normal((60, 4))
        np.testing.assert_allclose(
            packed.matvec_fn(weights)(block),
            dense.matvec_fn(weights)(block),
            atol=1e-12,
        )
        vec = rng.standard_normal(60)
        np.testing.assert_allclose(
            np.asarray(packed.matvec_fn(weights)(vec)).ravel(),
            dense.matvec_fn(weights)(vec),
            atol=1e-12,
        )

    def test_dots_matches_dense(self, rng):
        packed, dense = self._sparse_packed()
        weight_matrix = random_psd(60, rng=rng)
        np.testing.assert_allclose(
            packed.dots(weight_matrix), dense.dots(weight_matrix), atol=1e-10
        )

    def test_estimates_from_transform_matches_dense(self, rng):
        packed, dense = self._sparse_packed()
        transform = rng.standard_normal((7, 60))
        np.testing.assert_allclose(
            packed.estimates_from_transform(transform),
            dense.estimates_from_transform(transform),
            atol=1e-10,
        )

    def test_weighted_sum_active_subset_matches_dense(self, rng):
        packed, dense = self._sparse_packed()
        weights = np.zeros(6)
        weights[2] = 0.8
        weights[5] = 0.1
        np.testing.assert_allclose(
            packed.weighted_sum(weights), dense.weighted_sum(weights), atol=1e-12
        )

    def test_sparse_taylor_kernel_modes_agree(self, rng):
        packed, dense = self._sparse_packed()
        weights = rng.random(6)
        block = rng.standard_normal((60, 5))
        reference = TaylorEngine(packed, mode="sparse-factors").kernel_for(
            weights
        ).apply(block, 12)
        for mode in ("dense-psi", "gram"):
            np.testing.assert_allclose(
                TaylorEngine(packed, mode=mode).kernel_for(weights).apply(block, 12),
                reference,
                atol=1e-9,
                err_msg=mode,
            )

    def test_auto_mode_boundaries(self):
        from repro.linalg.taylor_gram import select_taylor_mode

        # 2R == m stays in Gram space; just past the boundary the ~10%
        # hysteresis (GRAM_HYSTERESIS) keeps the Gram path; clearly past it
        # the stack densifies.
        m = 40
        even = PackedGramFactors(
            [np.random.default_rng(81).standard_normal((m, 2)) for _ in range(10)]
        )
        assert 2 * even.total_rank == m
        assert even.auto_taylor_mode() == "gram"
        near = PackedGramFactors(
            [np.random.default_rng(82).standard_normal((m, 3)) for _ in range(7)]
        )
        assert 2 * near.total_rank == m + 2
        assert near.auto_taylor_mode() == "gram"
        past = PackedGramFactors(
            [np.random.default_rng(83).standard_normal((m, 3)) for _ in range(8)]
        )
        assert 2 * past.total_rank == m + 8
        assert past.auto_taylor_mode() == "dense-psi"
        # The sparse decision at the densification threshold matches the
        # pure policy function on the stack's measured quantities.
        packed, _ = self._sparse_packed()
        assert packed.auto_taylor_mode() == select_taylor_mode(
            packed.dim, packed.total_rank, packed.nnz, True
        )

    def test_picking_a_mode_builds_nothing(self):
        # A decision-sparse-shaped stack (m = 1024, R = 400, ~5% dense): the
        # mode is a function of (m, R, nnz(Q), storage kind), so picking it
        # allocates nothing of the size of Psi or its sparsity pattern.
        import tracemalloc

        from repro.linalg.taylor_gram import select_taylor_mode
        from repro.problems.random_instances import random_factorized_packing_sdp

        problem = random_factorized_packing_sdp(200, 1024, rank=2, density=0.05, rng=0)
        packed = problem.constraints.packed()
        assert packed.is_sparse
        tracemalloc.start()
        try:
            mode = packed.auto_taylor_mode()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mode == "gram"
        assert mode == select_taylor_mode(
            packed.dim, packed.total_rank, packed.nnz, True
        )
        assert peak < 1 << 20
