"""Batched-equivalence suite for :func:`repro.core.batch.solve_many`.

The contract under test: ``solve_many(problems, options)[i]`` is
*bit-identical* to ``decision_psdp(problems[i], options=replace(options,
rng=instance_rng(options.rng, i)))`` — same outcome, iteration count,
certificate arrays, counters and metadata — regardless of batch size,
batch composition, exit order, or whether the instance rode the fused
lockstep path or fell back to a plain sequential solve.

Collections are constructed fresh for every solve by convention; a result
does not depend on what earlier solves cached on a collection (see
``tests/test_determinism.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro import DecisionOptions, decision_psdp, solve_many
from repro.core.batch import _fused_key, instance_rng
from repro.core.decision import resolve_decision_options
from repro.core.result import DecisionOutcome, SolveStatus
from repro.linalg.psd import random_psd
from repro.linalg.taylor import taylor_degree
from repro.operators import (
    ConstraintCollection,
    DensePSDOperator,
    DiagonalPSDOperator,
    FactorizedPSDOperator,
    LowRankPSDOperator,
)

from helpers import assert_results_identical, factorized_family

FAST = dict(oracle="fast", epsilon=0.25, rng=0, max_iterations=40)


def fast_opts(**overrides) -> DecisionOptions:
    return DecisionOptions(**{**FAST, **overrides})


def fused_family(seed, m=32, n=8):
    """Rank-2 Gaussian factors inside every fused-path gate (2R <= 1.1 m,
    gram trace/taylor modes)."""
    return factorized_family(seed, n=n, m=m, rank=2, scale=0.35)


def wide_fused_family(seed):
    """m = 96, R = 16: inside the Gram gate, which is the only bound on m."""
    return fused_family(seed, m=96)


def fallback_family(seed):
    """m=24, R=16: 2R > 1.1 m fails the gram gate, so solve_many must take
    the sequential fallback."""
    return factorized_family(seed, n=8, m=24, rank=2, scale=0.35)


def infeasible_family(seed, m=32, n=8):
    """Scale 50 factors: every first-iteration value lands above 1 + eps,
    so no constraint qualifies and the solver exits PRIMAL at t=1."""
    return factorized_family(seed, n=n, m=m, rank=2, scale=50.0)


def dense_family(seed, m=12, n=6):
    rng = np.random.default_rng(seed)
    return ConstraintCollection(
        [DensePSDOperator(random_psd(m, rng=rng, scale=0.4)) for _ in range(n)]
    )


def diagonal_family(seed, m=16, n=6):
    rng = np.random.default_rng(seed)
    return ConstraintCollection(
        [DiagonalPSDOperator(rng.random(m) + 0.1) for _ in range(n)]
    )


def lowrank_family(seed, m=32, n=6):
    rng = np.random.default_rng(seed)
    return ConstraintCollection(
        [LowRankPSDOperator(0.4 * rng.standard_normal((m, 2))) for _ in range(n)]
    )


def sparse_family(seed, m=32, n=6):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        dense = np.zeros((m, 2))
        dense[rng.integers(0, m, size=4), rng.integers(0, 2, size=4)] = 0.5
        ops.append(FactorizedPSDOperator(sp.csr_matrix(dense)))
    return ConstraintCollection(ops)


def sequential_reference(factory, opts, index):
    """The sequential solve a batched instance must reproduce bitwise."""
    return decision_psdp(
        factory(), options=dataclasses.replace(opts, rng=instance_rng(opts.rng, index))
    )


def assert_batch_matches(factories, opts, results=None):
    """solve_many over fresh collections == per-index sequential solves."""
    if results is None:
        results = solve_many([f() for f in factories], options=opts)
    assert len(results) == len(factories)
    for i, factory in enumerate(factories):
        assert_results_identical(
            results[i], sequential_reference(factory, opts, i), label=f"instance {i}"
        )
    return results


class TestInstanceRng:
    def test_deterministic_and_index_separated(self):
        a = np.random.default_rng(instance_rng(0, 3)).standard_normal(4)
        b = np.random.default_rng(instance_rng(0, 3)).standard_normal(4)
        c = np.random.default_rng(instance_rng(0, 4)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_base_rng_not_consumed(self):
        # Deriving child streams must not advance or mutate the base: the
        # same (rng, index) pair always lands on the same child.
        base = np.random.SeedSequence(11)
        first = instance_rng(base, 2)
        instance_rng(base, 0)
        instance_rng(base, 1)
        again = instance_rng(base, 2)
        assert first.entropy == again.entropy
        assert first.spawn_key == again.spawn_key

    def test_accepts_generator_seedsequence_int_and_none(self):
        for rng in (np.random.default_rng(5), np.random.SeedSequence(5), 5, None):
            child = instance_rng(rng, 1)
            assert isinstance(child, np.random.SeedSequence)
            assert child.spawn_key[-1] == 1


class TestFusedEligibility:
    """Guard the intended coverage: the sweep families exercise both paths."""

    def _opts(self):
        return resolve_decision_options(None, None, dict(FAST))

    def test_fused_families_take_the_fused_path(self):
        opts = self._opts()
        assert _fused_key(opts, fused_family(0)) is not None
        assert _fused_key(opts, fused_family(0, m=48)) is not None
        assert _fused_key(opts, wide_fused_family(0)) is not None
        assert _fused_key(opts, lowrank_family(0)) is not None

    def test_fallback_families_take_the_sequential_path(self):
        opts = self._opts()
        for factory in (fallback_family, dense_family, diagonal_family, sparse_family):
            assert _fused_key(opts, factory(0)) is None


class TestBatchedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 7, 32])
    def test_fused_family_matches_sequential(self, batch_size):
        factories = [
            (lambda s=s: fused_family(s)) for s in range(batch_size)
        ]
        assert_batch_matches(factories, fast_opts())

    @pytest.mark.parametrize(
        "factory",
        [fused_family, fallback_family, dense_family, diagonal_family,
         lowrank_family, sparse_family, wide_fused_family],
        ids=["fused", "fallback-m24", "dense", "diagonal", "lowrank", "sparse",
             "fused-m96"],
    )
    def test_operator_kind_matches_sequential(self, factory):
        factories = [(lambda s=s: factory(s)) for s in range(4)]
        assert_batch_matches(factories, fast_opts())

    def test_mixed_degree_group_matches_sequential(self, monkeypatch):
        # Strict runs at scales 0.35 and 0.2 in one fused group.  While
        # ||Psi|| < 2 each row's floor degree (8) is proved, by S^2 alone
        # or by one Cholesky; the smaller-scale instances qualify more
        # often, so their Psi passes ||Psi|| = 2 and one dsyevr gives them
        # degree 9 while batchmates are still proved.  Rows take all three
        # routes of the degree rule.  Each degree is one batched product
        # evaluation, and each of its rows must equal the one-row call its
        # sequential oracle makes at that degree.
        import repro.core.batch as batch
        import repro.core.dotexp as dotexp

        floor = taylor_degree(1.0, 0.5 / 4.0 / 2.0)
        iterations = []
        routes = []
        real_twin = batch.gram_twin
        real_product = batch.product_evaluation
        real_verdict = dotexp.square_decides_lambda_max_below

        def twin_spy(*args):
            iterations.append([])
            return real_twin(*args)

        def verdict_spy(*args):
            routes.append(real_verdict(*args))
            return routes[-1]

        def product_spy(gram, colw, twins, squares, degree, dim, scale=0.5):
            values, traces = real_product(gram, colw, twins, squares, degree, dim, scale)
            for b in range(values.shape[0]):
                twin = twins[b]
                row = real_product(gram[b], colw[b], twin, twin @ twin, degree, dim, scale)
                assert np.array_equal(values[b], row[0]), f"row {b} at degree {degree}"
                assert traces[b] == row[1], f"trace {b} at degree {degree}"
            iterations[-1].append(degree)
            return values, traces

        monkeypatch.setattr(batch, "gram_twin", twin_spy)
        monkeypatch.setattr(batch, "product_evaluation", product_spy)
        monkeypatch.setattr(dotexp, "square_decides_lambda_max_below", verdict_spy)
        factories = [
            (lambda s=s: factorized_family(s, n=8, m=32, rank=2, scale=(0.35, 0.2)[s % 2]))
            for s in range(4)
        ]
        opts = fast_opts(epsilon=0.5, strict=True, max_iterations=300)
        results = solve_many([f() for f in factories], options=opts)
        assert all(len(set(degrees)) == len(degrees) for degrees in iterations)
        assert any({floor, 9} <= set(degrees) for degrees in iterations)
        assert {True, False, None} <= set(routes), sorted(map(str, set(routes)))
        assert_batch_matches(factories, opts, results)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["pair", "upper"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_twin_ejects_only_its_row(self, monkeypatch, value, symmetric):
        # Instance 1's twin turns non-finite in the third iteration.  Its
        # Cholesky proves nothing and its dsyevr reports the failure, so the
        # row is ejected at the Gram kernel's site before any evaluation,
        # and its sequential re-solve (on a clean twin) is the sequential
        # result.
        import repro.core.batch as batch

        real_twin = batch.gram_twin
        real_product = batch.product_evaluation
        calls = []

        def poisoned(gram, col_w):
            twins = real_twin(gram, col_w)
            calls.append(twins.shape[0])
            if len(calls) == 3:
                twins[1, 1, 5] = value
                if symmetric:
                    twins[1, 5, 1] = value
            return twins

        def product_spy(gram, colw, twins, squares, degree, dim, scale=0.5):
            assert np.isfinite(twins).all(), "evaluated a twin whose top eigenvalue failed"
            return real_product(gram, colw, twins, squares, degree, dim, scale)

        monkeypatch.setattr(batch, "gram_twin", poisoned)
        monkeypatch.setattr(batch, "product_evaluation", product_spy)
        factories = [(lambda s=s: fused_family(s)) for s in range(3)]
        opts = fast_opts()
        results = solve_many([f() for f in factories], options=opts)
        assert calls[:3] == [3, 3, 3]
        hit = results[1]
        assert hit.status == SolveStatus.DEGRADED
        assert [
            (event["kind"], event["site"], event["iteration"])
            for event in hit.metadata["recovery_events"]
        ] == [("BatchEjection", "taylor_gram.apply", 3)]
        reference = sequential_reference(factories[1], opts, 1)
        assert (hit.outcome, hit.iterations) == (reference.outcome, reference.iterations)
        assert np.array_equal(hit.dual_x, reference.dual_x)
        assert hit.counters.as_dict() == reference.counters.as_dict()
        for i in (0, 2):
            assert_results_identical(
                results[i], sequential_reference(factories[i], opts, i), label=f"instance {i}"
            )

    def test_ragged_shapes_in_one_call(self):
        # Two fused groups of different shape, a gate fallback, and two
        # non-factorized fallbacks, all in one solve_many call: results
        # come back in input order, each bitwise-sequential.
        factories = [
            lambda: fused_family(1),
            lambda: fused_family(2, m=48),
            lambda: fallback_family(3),
            lambda: dense_family(4),
            lambda: lowrank_family(5),
            lambda: fused_family(6),
        ]
        assert_batch_matches(factories, fast_opts())

    def test_deferred_primal_builder_matches(self):
        factories = [(lambda s=s: fused_family(s)) for s in range(3)]
        results = assert_batch_matches(factories, fast_opts())
        for i, factory in enumerate(factories):
            reference = sequential_reference(factory, fast_opts(), i)
            if reference.outcome is DecisionOutcome.PRIMAL:
                assert np.array_equal(results[i].primal_y, reference.primal_y)
                assert results[i].primal_min_dot == reference.primal_min_dot

    def test_epsilon_and_overrides_resolve_like_decision_psdp(self):
        factories = [(lambda s=s: fused_family(s)) for s in range(3)]
        opts = fast_opts(epsilon=0.3)
        results = solve_many(
            [f() for f in factories], epsilon=0.3,
            oracle="fast", rng=0, max_iterations=40,
        )
        for i, factory in enumerate(factories):
            assert_results_identical(
                results[i], sequential_reference(factory, opts, i),
                label=f"instance {i}",
            )

    def test_empty_batch(self):
        assert solve_many([], options=fast_opts()) == []


class TestTerminationMasks:
    def test_exit_at_iteration_zero(self):
        # iteration_budget=0 exhausts before the first oracle call: every
        # instance must exit DUAL/BUDGET_EXHAUSTED at t=0.
        opts = fast_opts(iteration_budget=0)
        factories = [(lambda s=s: fused_family(s)) for s in range(4)]
        results = assert_batch_matches(factories, opts)
        for result in results:
            assert result.outcome is DecisionOutcome.DUAL
            assert result.status is SolveStatus.BUDGET_EXHAUSTED
            assert result.iterations == 0

    def test_all_infeasible_batch(self):
        # Every instance leaves the qualifying mask empty on iteration 1:
        # the whole batch exits PRIMAL(early) together.
        factories = [(lambda s=s: infeasible_family(s)) for s in range(5)]
        results = assert_batch_matches(factories, fast_opts())
        for result in results:
            assert result.outcome is DecisionOutcome.PRIMAL
            assert result.early_exit
            assert result.iterations == 1

    def test_single_survivor(self):
        # Six instances exit PRIMAL at t=1, one runs to the iteration cap:
        # the survivor iterates alone in a compacted batch of one.
        factories = [(lambda s=s: infeasible_family(s)) for s in range(6)]
        factories.insert(3, lambda: fused_family(9))
        results = assert_batch_matches(factories, fast_opts())
        iterations = sorted(r.iterations for r in results)
        assert iterations[:6] == [1] * 6
        assert iterations[-1] > 1


class TestCompositionInvariance:
    def test_result_independent_of_batchmates(self):
        # The same (problem, index) pair must produce the same bits no
        # matter which instances ride alongside — including batchmates
        # that exit on the first iteration.
        opts = fast_opts()
        composition_a = [
            lambda: fused_family(0),
            lambda: infeasible_family(1),
            lambda: fused_family(2),
        ]
        composition_b = [
            lambda: fused_family(0),
            lambda: fused_family(7, m=48),
            lambda: fused_family(2),
        ]
        results_a = solve_many([f() for f in composition_a], options=opts)
        results_b = solve_many([f() for f in composition_b], options=opts)
        for index in (0, 2):
            assert_results_identical(
                results_a[index], results_b[index], label=f"index {index}"
            )

    def test_exit_order_invariance(self):
        # Slot the long-running instance at every position among early
        # exiters: its bits must not depend on when batchmates leave.
        opts = fast_opts()
        reference = None
        for position in range(4):
            factories = [(lambda s=s: infeasible_family(s)) for s in range(3)]
            factories.insert(position, lambda: fused_family(4))
            results = solve_many([f() for f in factories], options=opts)
            survivor = results[position]
            assert survivor.iterations > 1
            if reference is None:
                reference = survivor
            else:
                for field in ("outcome", "iterations", "dual_value"):
                    assert getattr(survivor, field) == getattr(reference, field)
                assert np.array_equal(survivor.dual_x, reference.dual_x)
                assert survivor.counters.as_dict() == reference.counters.as_dict()
