"""The benchmark's workloads, driven through the library's public API only.

Each workload is built for one seed.  ``inputs(count)`` generates the
first ``count`` inputs of the seed's deterministic stream (input ``i``
depends only on ``(seed, i)``), ``warm_up()`` runs an untimed solve on a
separate input, and ``run(inputs, seconds)`` executes operations for
``seconds`` (or once over ``inputs`` when ``seconds`` is ``None``), checks
every output and sums the counts the results carry.

* ``optimize-factorized`` -- ``approx_psdp`` (the paper's certified
  (1+eps) optimum) on fresh rank-2 Gaussian-factor instances: thousands of
  small Algorithm 3.1 iterations, so per-iteration overhead dominates.
* ``decision-sparse`` -- one ``decision_psdp`` per fresh sparse
  factorized instance: few iterations, each dominated by the Taylor apply
  and the trace estimate over a working set larger than L2.
* ``service-mixed`` -- ``SolveService`` in inline mode under a closed loop
  of logical clients: admission, batching, the cache, checkpoints and the
  executor only do work here.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core import decision, solver
from repro.core.decision import DecisionOptions
from repro.operators import ConstraintCollection, FactorizedPSDOperator
from repro.problems.random_instances import random_factorized_packing_sdp
from repro.service import SolveService

from checks import check_decision, check_identical, check_optimum, check_response

#: Seed-sequence tags that keep a workload's random streams apart.
INPUT_STREAM, CLIENT_STREAM, WARM_UP_STREAM, SOLVE_STREAM = 1, 2, 3, 4


@dataclass
class Pass:
    """What one pass over a workload's operations produced."""

    #: Per-operation latency in seconds, in submission order; a failed
    #: operation reads ``inf`` so it misses every percentile.
    latencies_s: list[float] = field(default_factory=list)
    #: Wall time of the timed window and the operations finished inside it.
    window_s: float = 0.0
    in_window: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Counts read off the results (deterministic for a fixed input list).
    counts: dict[str, float] = field(default_factory=dict)
    #: SHA-256 over every result's certificate bits, in operation order.
    digest: str = ""

    @property
    def failed(self) -> int:
        return sum(1 for latency in self.latencies_s if latency == float("inf"))


def decision_counts(results) -> Counter:
    """Counts carried by decision results: iterations, model work, matvecs, recoveries."""
    out: Counter = Counter()
    for result in results:
        labels = result.work_depth.by_label if result.work_depth is not None else {}
        out["decision.iterations"] += result.iterations
        out["dotexp.model_work"] += labels.get("oracle", 0.0)
        out["taylor.engine_update_work"] += labels.get("taylor-engine-update", 0.0)
        out["psi_state.update_work"] += labels.get("update", 0.0)
        out["taylor.matvecs"] += result.counters.matvecs
        out["psi_state.lambda_max_matvecs"] += result.metadata.get("psi_state", {}).get(
            "lambda_max_matvecs", 0
        )
        out["supervisor.recoveries"] += result.metadata.get("supervisor", {}).get(
            "recoveries", 0
        )
    return out


def _digest_update(digest, array: np.ndarray | None) -> None:
    if array is not None:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())


def _failure(index: int, messages: list[str]) -> list[str]:
    return [f"op {index}: {message}" for message in messages]


class Workload:
    """Deterministic inputs and an untimed warm-up for one seed."""

    name = ""
    #: Inputs generated during set-up for a timed run (more are made lazily).
    pool_size = 0
    #: Operations in each pass of a traced run.
    traced_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def rng(self, stream: int, index: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index])

    def solve_seed(self, index: int) -> int:
        """The solver's own seed for input ``index``."""
        return int(self.rng(SOLVE_STREAM, index).integers(2**63))

    def make_input(self, index: int) -> Any:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, inputs: list, seconds: float | None = None) -> Pass:
        """Run ``inputs`` (consuming the list), or fresh inputs for ``seconds``."""
        raise NotImplementedError

    def inputs(self, count: int) -> list:
        return [self.make_input(index) for index in range(count)]

    def _take(self, inputs: list, unbounded: bool) -> Iterator[Any]:
        """Yield and release ``inputs`` in order, then fresh ones if ``unbounded``.

        Popping each input drops the list's reference to it, so the caches
        a solve builds on its instance are freed with the instance.
        """
        count = len(inputs)
        while inputs:
            yield inputs.pop(0)
        if unbounded:
            for index in itertools.count(count):
                yield self.make_input(index)


class SolverWorkload(Workload):
    """One solver call per fresh instance, timed one call at a time."""

    def solve(self, problem: Any, index: int) -> Any:
        raise NotImplementedError

    def check(self, problem: Any, result: Any) -> list[str]:
        raise NotImplementedError

    def counts(self, result: Any) -> Counter:
        raise NotImplementedError

    def repeat_check(self, index: int, dual_x: np.ndarray) -> list[str]:
        """Check on the first solved input after the pass; none by default."""
        return []

    def run(self, inputs: list, seconds: float | None = None) -> Pass:
        """Solve ``inputs`` in order, or fresh inputs until ``seconds`` of solving.

        The window counts solve time only: each result is checked right after
        its solve, outside the window, and then released.
        """
        out = Pass()
        digest = hashlib.sha256()
        counts: Counter = Counter()
        first: tuple[int, np.ndarray] | None = None
        for index, problem in enumerate(self._take(inputs, seconds is not None)):
            if seconds is not None and out.window_s >= seconds:
                break
            out.attempted += 1
            began = time.perf_counter()
            try:
                result = self.solve(problem, index)
            except Exception:  # noqa: BLE001 - a raised solve is a failed operation
                out.window_s += time.perf_counter() - began
                out.latencies_s.append(float("inf"))
                out.failures += _failure(index, [traceback.format_exc().strip().splitlines()[-1]])
                continue
            latency = time.perf_counter() - began
            out.window_s += latency
            messages = self.check(problem, result)
            out.failures += _failure(index, messages)
            out.latencies_s.append(float("inf") if messages else latency)
            out.in_window += not messages
            counts.update(self.counts(result))
            _digest_update(digest, result.dual_x)
            if first is None:
                first = (index, result.dual_x)
            # A result's deferred-primal closure forms a reference cycle with
            # the solved instance's caches; collect it now so peak memory
            # reflects one solve, not however many the collector let pile up.
            del problem, result
            gc.collect()
        if first is not None:
            messages = self.repeat_check(*first)
            if messages and out.latencies_s[first[0]] != float("inf"):
                out.latencies_s[first[0]] = float("inf")
                out.in_window -= 1
            out.failures += _failure(first[0], messages)
        out.counts = dict(counts)
        out.digest = digest.hexdigest()
        return out


class OptimizeFactorized(SolverWorkload):
    """``approx_psdp`` to a certified (1+eps) optimum: ~2.4k small iterations per solve.

    ``n = 16, m = 64`` keeps a solve under 2 s, so a window holds a dozen
    samples, and every instance needs exactly two decision calls (its
    certified gap stays well below eps), so the samples are alike.  ``m = 64``
    also keeps every ``lambda_max`` of the dense-Psi path (``approx_psdp``
    densifies the scaled constraints) on the exact ``eigvalsh`` branch:
    above it the Lanczos branch starts ARPACK from an unseeded vector and
    the certificates' last bits vary from run to run.
    """

    name = "optimize-factorized"
    pool_size = 20
    traced_ops = 4
    N, M, RANK, EPSILON = 16, 64, 2, 0.5

    def make_input(self, index: int):
        return random_factorized_packing_sdp(
            self.N, self.M, rank=self.RANK, density=1.0, rng=self.rng(INPUT_STREAM, index)
        )

    def solve(self, problem, index: int):
        return solver.approx_psdp(
            problem, epsilon=self.EPSILON, oracle="fast", rng=self.solve_seed(index)
        )

    def check(self, problem, result) -> list[str]:
        return check_optimum(problem.constraints, result, self.EPSILON)

    def counts(self, result) -> Counter:
        out = decision_counts(result.decision_results)
        out["solver.decision_calls"] += result.decision_calls
        return out

    def warm_up(self) -> None:
        problem = random_factorized_packing_sdp(
            8, 32, rank=self.RANK, rng=self.rng(WARM_UP_STREAM)
        )
        solver.approx_psdp(problem, epsilon=self.EPSILON, oracle="fast", rng=self.seed)


class DecisionSparse(SolverWorkload):
    """One ``decision_psdp`` per sparse factorized instance: 25 kernel-bound iterations."""

    name = "decision-sparse"
    pool_size = 40
    traced_ops = 6
    N, M, RANK, DENSITY, EPSILON = 200, 1024, 2, 0.05, 0.2

    def make_input(self, index: int):
        return self._instance(self.rng(INPUT_STREAM, index))

    def _instance(self, rng: np.random.Generator):
        return random_factorized_packing_sdp(
            self.N, self.M, rank=self.RANK, density=self.DENSITY, rng=rng
        )

    def solve(self, problem, index: int):
        return decision.decision_psdp(
            problem, epsilon=self.EPSILON, oracle="fast", rng=self.solve_seed(index)
        )

    def check(self, problem, result) -> list[str]:
        return check_decision(problem.constraints, result)

    def counts(self, result) -> Counter:
        return decision_counts([result])

    def repeat_check(self, index: int, dual_x: np.ndarray) -> list[str]:
        """Solve the first input again on a fresh collection: the bits must repeat."""
        return check_identical(dual_x, self.solve(self.make_input(index), index).dual_x)

    def warm_up(self) -> None:
        decision.decision_psdp(
            self._instance(self.rng(WARM_UP_STREAM)),
            epsilon=self.EPSILON, oracle="fast", rng=self.seed, max_iterations=3,
        )


@dataclass
class _Submission:
    key: int
    began: float


class ServiceMixed(Workload):
    """``SolveService`` in inline mode under a closed loop of logical clients."""

    name = "service-mixed"
    pool_size = 1200
    traced_ops = 160
    #: (m, n, rank): fused solve_many, sequential fallback, mid-size.
    FAMILIES = ((24, 8, 1), (32, 12, 2), (128, 48, 2))
    #: Family of fresh instance ``i`` is ``FAMILIES[FAMILY_CYCLE[i % 5]]``: a
    #: fixed 40/40/20 mix, so the work per request does not vary with the seed.
    FAMILY_CYCLE = (0, 1, 0, 1, 2)
    FACTOR_SCALE = 0.35
    EPSILON = 0.25
    CLIENTS = 8
    #: Every fourth submission repeats an instance solved earlier.
    REPEAT_EVERY = 4
    #: Repeats pick among this many most recently solved instances.
    REPEAT_WINDOW = 64
    #: Below the 25 iterations these families need, so solves checkpoint and resume.
    ATTEMPT_ITERATIONS = 20
    WARM_UP_REQUESTS = 24

    def make_input(self, index: int) -> list[np.ndarray]:
        """The factor arrays of fresh instance ``index``."""
        return self._factors(self.rng(INPUT_STREAM, index), index)

    def _factors(self, rng: np.random.Generator, index: int) -> list[np.ndarray]:
        m, n, rank = self.FAMILIES[self.FAMILY_CYCLE[index % len(self.FAMILY_CYCLE)]]
        return [self.FACTOR_SCALE * rng.standard_normal((m, rank)) for _ in range(n)]

    @staticmethod
    def collection(factors: list[np.ndarray]) -> ConstraintCollection:
        return ConstraintCollection([FactorizedPSDOperator(f) for f in factors], validate=False)

    def service(self) -> SolveService:
        return SolveService(
            options=DecisionOptions(epsilon=self.EPSILON, oracle="fast"),
            seed=self.seed,
            attempt_iteration_budget=self.ATTEMPT_ITERATIONS,
            cache_size=4 * self.REPEAT_WINDOW,
        )

    def warm_up(self) -> None:
        rng = self.rng(WARM_UP_STREAM)
        self.run([self._factors(rng, index) for index in range(self.WARM_UP_REQUESTS)])

    def run(self, inputs: list, seconds: float | None = None) -> Pass:
        """Serve requests for ``seconds`` (or until ``inputs`` are submitted once).

        Each of ``CLIENTS`` logical clients submits a request, waits for its
        response and submits the next, all from this thread; ``step`` runs
        the service whenever some client waits.
        """
        out = Pass()
        service = self.service()
        client_rng = self.rng(CLIENT_STREAM)
        source = self._take(inputs, seconds is not None)
        instances: list[list[np.ndarray]] = []
        solved: dict[int, Any] = {}  # instance key -> the response that solved it
        solved_order: list[int] = []
        pending: dict[int, _Submission] = {}
        #: (request id, instance key, response, finished inside the window)
        finished: list[tuple[int, int, Any, bool]] = []
        idle = self.CLIENTS
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds

        def next_key() -> int | None:
            if solved_order and out.attempted % self.REPEAT_EVERY == self.REPEAT_EVERY - 1:
                low = max(0, len(solved_order) - self.REPEAT_WINDOW)
                return solved_order[int(client_rng.integers(low, len(solved_order)))]
            factors = next(source, None)
            if factors is None:
                return None
            instances.append(factors)
            return len(instances) - 1

        def finish(request_id: int, submission: _Submission, response) -> None:
            now = time.perf_counter()
            out.latencies_s.append(now - submission.began)
            in_window = deadline is None or now <= deadline
            finished.append((request_id, submission.key, response, in_window))
            if not response.from_cache and response.result is not None:
                if submission.key not in solved:
                    solved[submission.key] = response
                    solved_order.append(submission.key)

        def refill() -> None:
            nonlocal idle
            while idle and (deadline is None or time.perf_counter() < deadline):
                key = next_key()
                if key is None:
                    return
                constraints = self.collection(instances[key])
                submission = _Submission(key, time.perf_counter())
                request_id = service.submit(constraints)
                out.attempted += 1
                response = service.response(request_id)
                if response is None:
                    pending[request_id] = submission
                    idle -= 1
                else:
                    finish(request_id, submission, response)

        refill()
        while pending:
            service.step()
            for request_id in sorted(pending):
                response = service.response(request_id)
                if response is not None:
                    finish(request_id, pending.pop(request_id), response)
                    idle += 1
            refill()
        out.window_s = seconds if seconds is not None else time.perf_counter() - start
        service.shutdown()

        digest = hashlib.sha256()
        fresh_results = []
        hits = resumes = 0
        for position, (request_id, key, response, in_window) in enumerate(finished):
            # A cache hit is checked against the response that solved its instance.
            messages = check_response(
                self.collection(instances[key]), response, solved.get(key)
            )
            if messages:
                out.latencies_s[position] = float("inf")
                out.failures += _failure(request_id, messages)
            out.in_window += in_window and not messages
            hits += response.from_cache
            resumes += response.resumes
            if response.result is not None:
                _digest_update(digest, response.result.dual_x)
                if not response.from_cache:
                    fresh_results.append(response.result)
        counts = decision_counts(fresh_results)
        counts["checkpoint.resumes"] = resumes
        counts["service.cache_hit_ratio"] = hits / max(out.attempted, 1)
        out.counts = dict(counts)
        out.digest = digest.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (OptimizeFactorized, DecisionSparse, ServiceMixed)}
