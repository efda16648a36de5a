"""The resilient solve service: determinism, deadlines, retries, shedding.

Every test drives :class:`~repro.service.SolveService` on a
:class:`~repro.service.VirtualClock`, so schedules (backoff waits, deadline
expiry) are bit-reproducible.  The core contracts:

* a request's answer is bitwise the direct ``decision_psdp`` solve on the
  stream ``instance_rng(seed, request_id)`` — independent of batching,
  checkpoint/resume slicing, or queue composition;
* every terminal condition is a typed :class:`RequestOutcome` — the
  service never raises for load/fault reasons and never drops a request;
* the whole retry/backoff schedule replays bit-identically when the same
  request sequence is fed to a fresh service with the same seed.
"""

import numpy as np
import pytest

from repro.core.batch import instance_rng
from repro.core.decision import DecisionOptions, decision_psdp
from repro.core.result import SolveStatus
from repro.exceptions import InvalidProblemError
from repro.robustness import NaN, clear_faults, inject
from repro.service import RequestOutcome, SolveService, VirtualClock

from helpers import assert_results_identical, factorized_family


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    clear_faults()


def collection(seed=11):
    # A fresh collection per call; re-solving one object would return the
    # same bits (tests/test_determinism.py).
    return factorized_family(seed, n=8, m=24, rank=2, scale=0.35)


def gram_collection(seed=7):
    # Low total rank routes the Taylor engine through the gram kernel,
    # where the fault-injection site "taylor_gram.apply" lives.
    return factorized_family(seed, n=6, m=24, rank=1, scale=0.3)


def assert_same_solve(actual, expected, label):
    """Bitwise result equality, exempting the supervisor *budget* fields.

    The service applies per-attempt budgets, so the final resumed
    result's ``metadata["supervisor"]`` records an ``iteration_budget``
    where the direct solve has ``None`` — everything else must match.
    """
    import dataclasses

    def neutral(result):
        meta = dict(result.metadata)
        sup = meta.get("supervisor")
        if isinstance(sup, dict):
            meta["supervisor"] = {
                k: v
                for k, v in sup.items()
                if k not in ("iteration_budget", "wall_clock_budget", "elapsed")
            }
        return dataclasses.replace(result, metadata=meta)

    assert_results_identical(neutral(actual), neutral(expected), label=label)


def options(**overrides):
    base = dict(epsilon=0.25, oracle="fast")
    base.update(overrides)
    return DecisionOptions(**base)


def make_service(**overrides):
    kwargs = dict(options=options(), seed=0, clock=VirtualClock())
    kwargs.update(overrides)
    return SolveService(**kwargs)


class TestConstruction:
    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(InvalidProblemError):
            make_service(max_queue_depth=0)

    def test_invalid_attempt_budget_rejected(self):
        with pytest.raises(InvalidProblemError):
            make_service(attempt_iteration_budget=0)

    def test_invalid_max_attempts_rejected(self):
        service = make_service()
        with pytest.raises(InvalidProblemError):
            service.submit(collection(), max_attempts=0)

    def test_virtual_clock_is_monotonic(self):
        clock = VirtualClock()
        assert clock() == 0.0
        clock.advance(2.5)
        assert clock() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestDeterministicStreams:
    def test_single_request_matches_direct_solve(self):
        service = make_service()
        rid = service.submit(collection())
        responses = service.drain()
        response = responses[rid]
        assert response.outcome is RequestOutcome.COMPLETED
        direct = decision_psdp(
            collection(), options=options(rng=instance_rng(0, rid))
        )
        assert_results_identical(response.result, direct, label="service-vs-direct")

    def test_batched_requests_keep_their_streams(self):
        # Three compatible requests batch through solve_many, but each
        # answer is still the request's own pinned stream.
        service = make_service()
        seeds = [11, 23, 47]
        rids = [service.submit(collection(seed)) for seed in seeds]
        service.drain()
        for seed, rid in zip(seeds, rids):
            response = service.response(rid)
            assert response.outcome is RequestOutcome.COMPLETED
            direct = decision_psdp(
                collection(seed), options=options(rng=instance_rng(0, rid))
            )
            assert_results_identical(response.result, direct, label=f"rid={rid}")

    def test_two_services_same_seed_bit_identical(self):
        def run():
            service = make_service()
            rids = [service.submit(collection(seed)) for seed in (11, 23)]
            service.drain()
            return [service.response(rid) for rid in rids]

        a, b = run(), run()
        for ra, rb in zip(a, b):
            assert ra.outcome is rb.outcome
            assert_results_identical(ra.result, rb.result, label="replay")


class TestCheckpointResume:
    def test_attempt_budget_resumes_to_full_answer(self):
        service = make_service(attempt_iteration_budget=5)
        rid = service.submit(collection())
        service.drain()
        response = service.response(rid)
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.resumes > 0  # went through at least one checkpoint
        direct = decision_psdp(
            collection(), options=options(rng=instance_rng(0, rid))
        )
        assert_same_solve(response.result, direct, label="resume-chain")

    def test_resumes_do_not_consume_retry_attempts(self):
        service = make_service(attempt_iteration_budget=3)
        rid = service.submit(collection(), max_attempts=1)
        service.drain()
        response = service.response(rid)
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.attempts == 0  # no *failed* attempt was recorded
        assert response.resumes > 0


class TestCache:
    def test_repeat_instance_served_from_cache(self):
        service = make_service()
        first = service.submit(collection())
        service.drain()
        again = service.submit(collection())
        response = service.response(again)
        assert response.from_cache
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.result is service.response(first).result

    def test_different_options_miss_the_cache(self):
        service = make_service()
        service.submit(collection())
        service.drain()
        rid = service.submit(collection(), options=options(epsilon=0.2))
        assert service.response(rid) is None  # queued, not served from cache
        service.drain()
        assert not service.response(rid).from_cache

    def test_fingerprint_hits_repeats_and_separates_instances(self):
        import scipy.sparse as sp

        from repro.operators import (
            ConstraintCollection,
            DensePSDOperator,
            DiagonalPSDOperator,
            FactorizedPSDOperator,
            LowRankPSDOperator,
        )
        from repro.service.solve_service import _fingerprint

        rng = np.random.default_rng(3)
        q = 0.35 * rng.standard_normal((24, 4))
        d = rng.random(24) + 0.1
        sparse = sp.random(24, 2, density=0.1, random_state=rng, format="csr") + sp.eye(24, 2)
        builders = {
            "factorized": lambda: [FactorizedPSDOperator(q[:, :2]), FactorizedPSDOperator(q[:, 2:])],
            # The same stacked matrix, split at other column offsets.
            "split": lambda: [FactorizedPSDOperator(q[:, :1]), FactorizedPSDOperator(q[:, 1:])],
            "perturbed": lambda: [
                FactorizedPSDOperator(q[:, :2] + 1e-12), FactorizedPSDOperator(q[:, 2:])
            ],
            "sparse-factor": lambda: [FactorizedPSDOperator(sparse), FactorizedPSDOperator(2 * sparse)],
            # Unit weights: the same packed stack as "factorized".
            "lowrank": lambda: [LowRankPSDOperator(q[:, :2]), LowRankPSDOperator(q[:, 2:])],
            "diagonal": lambda: [DiagonalPSDOperator(d), DiagonalPSDOperator(2 * d)],
            "dense": lambda: [
                DensePSDOperator(q[:, :2] @ q[:, :2].T), DensePSDOperator(q[:, 2:] @ q[:, 2:].T)
            ],
        }
        prints = {}
        for name, build in builders.items():
            prints[name] = _fingerprint(ConstraintCollection(build()), "opts")
            # A collection rebuilt from identical arrays hits.
            assert _fingerprint(ConstraintCollection(build()), "opts") == prints[name], name
        assert len(set(prints.values())) == len(prints)
        factorized = ConstraintCollection(builders["factorized"]())
        assert _fingerprint(factorized, "other") != prints["factorized"]

    def test_cache_eviction_is_lru(self):
        service = make_service(cache_size=1)
        service.submit(collection(11))
        service.drain()
        service.submit(collection(23))
        service.drain()
        # seed-11 was evicted; resubmitting it queues a real solve.
        rid = service.submit(collection(11))
        assert service.response(rid) is None


class TestDeadlines:
    def test_expired_deadline_rejected_at_admission(self):
        clock = VirtualClock(start=10.0)
        service = make_service(clock=clock)
        rid = service.submit(collection(), deadline=5.0)
        response = service.response(rid)
        assert response.outcome is RequestOutcome.DEADLINE_EXCEEDED
        assert response.result is None

    def test_deadline_passing_while_queued_is_typed(self):
        clock = VirtualClock()
        service = make_service(clock=clock, attempt_iteration_budget=2)
        rid = service.submit(collection(), deadline=5.0)
        service.step()  # one budget-limited slice; checkpoint goes back to queue
        assert service.response(rid) is None
        clock.advance(10.0)
        service.step()
        response = service.response(rid)
        assert response.outcome is RequestOutcome.DEADLINE_EXCEEDED
        # The last verified partial result rides along.
        assert response.result is not None
        assert response.result.status is SolveStatus.BUDGET_EXHAUSTED


class TestLoadShedding:
    def test_queue_full_with_cold_cache_sheds_typed(self):
        service = make_service(max_queue_depth=1)
        service.submit(collection(11))
        rid = service.submit(collection(23))
        response = service.response(rid)
        assert response.outcome is RequestOutcome.SHED
        assert "queue depth" in response.detail

    def test_queue_full_with_warm_cache_serves_certificate(self):
        service = make_service(max_queue_depth=1)
        warm = service.submit(collection(11))
        service.drain()
        assert service.response(warm).outcome is RequestOutcome.COMPLETED
        service.submit(collection(23))  # fills the queue
        # A slightly perturbed variant of the cached instance arrives
        # while the queue is full: served by re-verifying the cached dual
        # on the *new* instance.
        perturbed = factorized_family(11, n=8, m=24, rank=2, scale=0.349)
        rid = service.submit(perturbed)
        response = service.response(rid)
        assert response.outcome is RequestOutcome.DEGRADED
        assert response.warm_started
        result = response.result
        assert result.metadata["warm_start"]
        # Soundness: the certificate is exactly verified on the instance
        # it was returned for, and rescaled by a certified bound, so it is
        # feasible without a rounding tolerance.
        fresh = factorized_family(11, n=8, m=24, rank=2, scale=0.349)
        lam = float(
            np.linalg.eigvalsh(fresh.weighted_sum(result.dual_x))[-1]
        )
        assert lam <= 1.0 - 5e-10
        assert result.dual_value >= 1.0 - result.epsilon

    def test_shed_never_raises_never_drops(self):
        service = make_service(max_queue_depth=1)
        rids = [service.submit(collection(seed)) for seed in range(20)]
        service.drain()
        for rid in rids:
            assert service.response(rid) is not None  # every request answered


class TestRetryBackoff:
    def _run_failing_service(self):
        clock = VirtualClock()
        service = make_service(
            options=options(max_recoveries=0), clock=clock, seed=7
        )
        with inject("taylor_gram.apply", NaN, at_call=1, times=10**6, seed=0):
            rid = service.submit(gram_collection(), max_attempts=3)
            events = []
            while service.response(rid) is None:
                service.step()
                events.append((clock(), service.next_ready_time()))
                nxt = service.next_ready_time()
                if nxt is not None and nxt > clock():
                    clock.advance(nxt - clock())
        clear_faults()
        return service.response(rid), events

    def test_retry_exhausted_is_typed(self):
        response, _ = self._run_failing_service()
        assert response.outcome is RequestOutcome.RETRY_EXHAUSTED
        assert response.attempts == 3
        assert response.result is not None
        assert response.result.status is SolveStatus.FAILED

    def test_backoff_schedule_replays_bit_identically(self):
        _, events_a = self._run_failing_service()
        _, events_b = self._run_failing_service()
        assert events_a == events_b

    def test_backoff_grows_and_caps(self):
        service = make_service(
            backoff_base=0.5, backoff_cap=2.0, backoff_jitter=0.0, seed=7
        )

        class Stub:
            request_id = 4
            attempts = 0

        stub = Stub()
        delays = []
        for attempt in (1, 2, 3, 4, 5):
            stub.attempts = attempt
            delays.append(service._backoff(stub))
        assert delays == [0.5, 1.0, 2.0, 2.0, 2.0]


class TestPriorities:
    def test_higher_priority_served_first(self):
        service = make_service()
        low = service.submit(collection(11), options=options(epsilon=0.3), priority=0)
        high = service.submit(collection(23), options=options(epsilon=0.2), priority=5)
        service.step()  # incompatible options: one batch per step
        assert service.response(high) is not None
        assert service.response(low) is None
        service.step()
        assert service.response(low) is not None
