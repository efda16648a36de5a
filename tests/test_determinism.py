"""A result depends only on (instance, options, seed).

Property tests over every operator kind and both oracles: solving one
collection object again, or a deep copy of it taken after a solve, returns
exactly the bits of a solve of a collection built fresh from the same
arrays — whatever lazy caches (packed view, dense stack, Gram factors)
the earlier solves left on it.  The same holds for ``solve_many`` (a fused
group plus a sequential fallback), for two ``SolveService`` instances
given one object, for threads solving one collection at once, and for a
clean solve that follows a fault-recovered one.

``REPRO_CHAOS_SEED`` (environment) re-seeds the injected fault.
"""

from __future__ import annotations

import copy
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.batch import _fused_key, solve_many
from repro.core.decision import DecisionOptions, decision_psdp, resolve_decision_options
from repro.core.decision_phased import decision_psdp_phased
from repro.core.result import SolveStatus
from repro.operators import (
    ConstraintCollection,
    DensePSDOperator,
    DiagonalPSDOperator,
    FactorizedPSDOperator,
    LowRankPSDOperator,
    SparsePSDOperator,
)
from repro.problems.random_instances import random_factorized_packing_sdp
from repro.robustness import NaN, clear_faults, inject
from repro.service import SolveService

from helpers import assert_results_identical

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

KINDS = ("dense", "sparse", "factorized", "factorized-sparse", "lowrank", "diagonal")
#: No shrink phase: a smaller seed explains a determinism failure no better.
EXAMPLES = settings(
    max_examples=2,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
SEEDS = st.integers(min_value=0, max_value=2**16)


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    clear_faults()


def _arrays(kind: str, seed: int, n: int, m: int, scale: float) -> list:
    """One constraint's worth of raw input arrays per entry."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        if kind == "dense":
            q = scale * rng.standard_normal((m, 3))
            out.append(q @ q.T)
        elif kind == "sparse":
            f = sp.random(m, 2, density=0.3, random_state=rng, format="csr")
            out.append(sp.csr_matrix(scale * (f @ f.T) + sp.diags(scale * (rng.random(m) + 0.1))))
        elif kind == "factorized":
            out.append(scale * rng.standard_normal((m, 2)))
        elif kind == "factorized-sparse":
            f = sp.random(m, 2, density=0.3, random_state=rng, format="lil")
            f[rng.integers(m), 0] = 1.0  # never an all-zero factor
            out.append(scale * f.tocsr())
        elif kind == "lowrank":
            out.append((scale * rng.standard_normal((m, 2)), rng.random(2) + 0.5))
        else:
            out.append(scale * (rng.random(m) + 0.1))
    return out


def _operator(kind: str, array):
    if kind == "dense":
        return DensePSDOperator(array)
    if kind == "sparse":
        return SparsePSDOperator(array)
    if kind in ("factorized", "factorized-sparse"):
        return FactorizedPSDOperator(array)
    if kind == "lowrank":
        return LowRankPSDOperator(*array)
    return DiagonalPSDOperator(array)


def factory(kind: str, seed: int, n: int = 6, m: int = 16, scale: float = 0.35):
    """A builder of fresh collections over one fixed set of arrays."""
    arrays = _arrays(kind, seed, n, m, scale)
    return lambda: ConstraintCollection([_operator(kind, a) for a in arrays])


def assert_same(results, reference, label: str) -> None:
    """Every result is bit-identical to ``reference``, work charges included."""
    for position, result in enumerate(results):
        tag = f"{label}[{position}]"
        assert_results_identical(result, reference, tag)
        assert result.work_depth.by_label == reference.work_depth.by_label, tag


SOLVERS = {"psdp": decision_psdp, "phased": decision_psdp_phased}


@pytest.mark.parametrize("oracle", ["exact", "fast"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@EXAMPLES
@given(seed=SEEDS, scale=st.sampled_from((0.3, 1.0)))
def test_resolving_one_object_returns_fresh_bits(solver, kind, oracle, seed, scale):
    make = factory(kind, seed, scale=scale)

    def solve(coll):
        return SOLVERS[solver](
            coll, epsilon=0.25, oracle=oracle, rng=seed, max_iterations=40
        )

    coll = make()
    first = solve(coll)
    twin = copy.deepcopy(coll)
    assert_same([first, solve(coll), solve(twin)], solve(make()), f"{solver}/{kind}/{oracle}")


@EXAMPLES
@given(seed=SEEDS)
def test_solve_many_repeats_on_one_object(seed):
    # Two same-shape factorized instances fuse; the diagonal one's sparse
    # factor stack takes the sequential fallback.
    makes = [
        factory("factorized", seed, n=6, m=24),
        factory("factorized", seed + 1, n=6, m=24),
        factory("diagonal", seed + 2),
    ]
    opts = DecisionOptions(epsilon=0.25, oracle="fast", rng=seed, max_iterations=40)
    problems = [make() for make in makes]
    gate = resolve_decision_options(None, opts, {})
    assert [_fused_key(gate, c) is not None for c in problems] == [True, True, False]

    first = solve_many(problems, options=opts)
    twins = copy.deepcopy(problems)
    again = solve_many(problems, options=opts)
    copied = solve_many(twins, options=opts)
    fresh = solve_many([make() for make in makes], options=opts)
    for index, reference in enumerate(fresh):
        assert_same(
            [first[index], again[index], copied[index]], reference, f"solve_many[{index}]"
        )


@pytest.mark.parametrize("oracle", ["exact", "fast"])
@EXAMPLES
@given(seed=SEEDS)
def test_services_given_one_object_agree(oracle, seed):
    coll = factory("factorized", seed)()

    def serve(problem):
        service = SolveService(
            options=DecisionOptions(epsilon=0.25, oracle=oracle),
            seed=5,
            attempt_iteration_budget=10,
        )
        request_id = service.submit(problem)
        return service.drain()[request_id].result

    first = serve(coll)
    twin = copy.deepcopy(coll)
    assert_same([first, serve(coll)], serve(twin), f"service/{oracle}")


@pytest.mark.parametrize("kind, oracle", [("factorized", "fast"), ("dense", "exact")])
def test_threads_sharing_one_collection_get_fresh_bits(kind, oracle):
    # More threads than cores race to build the collection's lazy caches
    # (packed view, dense stack) with a tiny switch interval; a cache seen
    # half-built would change some thread's rounding order.
    make = factory(kind, 11)
    threads = 4

    def solve(coll, start=None):
        if start is not None:
            start.wait(timeout=60)
        return decision_psdp(coll, epsilon=0.25, oracle=oracle, rng=3, max_iterations=30)

    reference = solve(make())
    for _ in range(3):
        coll, start = make(), threading.Barrier(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(solve, coll, start) for _ in range(threads)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert_same(results, reference, f"threads/{kind}/{oracle}")


@pytest.mark.parametrize("solver", ["psdp", "solve_many"])
def test_fault_recovery_leaves_no_state_behind(solver):
    # Total rank 12 keeps m = 24 inside the gram gate: the Taylor engine
    # runs the gram kernel, where the "taylor_gram.apply" fault site lives.
    make = factory("factorized", 7 + CHAOS_SEED, n=6, m=24, scale=0.3)

    def solve(coll):
        if solver == "psdp":
            return decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        return solve_many([coll], epsilon=0.25, oracle="fast", rng=3)[0]

    coll = make()
    with inject("taylor_gram.apply", NaN, at_call=2, seed=CHAOS_SEED) as spec:
        faulty = solve(coll)
    assert spec.fires == 1
    assert faulty.status is SolveStatus.DEGRADED
    assert_same([solve(coll)], solve(make()), f"after-fault/{solver}")


@pytest.mark.parametrize("psi_state", ["implicit", "dense"])
def test_history_records_move_no_bound(psi_state):
    # min(m, R) = 140 > 128: every lambda_max runs Lanczos, and its start
    # must not depend on how many history records came before it.
    problem = random_factorized_packing_sdp(70, 200, rank=2, density=0.05, rng=3)
    assert problem.constraints.packed().is_sparse

    def solve(history):
        return decision_psdp(
            problem, epsilon=0.2, oracle="fast", rng=5,
            psi_state=psi_state, collect_history=history,
        )

    plain, recorded = solve(False), solve(True)
    calls = [r.metadata["psi_state"]["lambda_max_calls"] for r in (plain, recorded)]
    assert calls[0] < calls[1]
    assert recorded.outcome == plain.outcome
    assert np.array_equal(recorded.dual_x, plain.dual_x)
