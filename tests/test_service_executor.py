"""Chaos suite for the concurrent executor: bits never depend on scheduling.

The invariant under test, end to end: on a fixed seed, every terminal
:class:`~repro.service.ServiceResponse` carries **bit-identical** result
fields regardless of

* the worker pool mode and worker count (inline vs thread x {1, 2, 8}),
* injected worker crashes and stalls (kill-and-requeue resumes from the
  latest shipped checkpoint, the PR 8 bit-identical-resume contract),
* graceful shutdown (suspended work resumes bit-identically via
  ``submit(resume_from=...)``).

Counters (``attempts``, ``resumes``) record the *actual* recovery history
— which replica a shared one-shot fault hits is scheduling-dependent — so
the suite compares result bits and outcomes, never counter equality
across worker counts.

``REPRO_CHAOS_SEED`` (environment) re-seeds services and injections so CI
can sweep the chaos space across runs without touching the code.
"""

import dataclasses
import os

import pytest

from repro.core.batch import instance_rng
from repro.core.decision import DecisionOptions, decision_psdp
from repro.robustness import NaN, Stall, WorkerCrash, clear_faults, inject
from repro.service import (
    CircuitBreaker,
    RequestOutcome,
    SolveService,
    VirtualClock,
    WorkerPool,
)
from repro.service.executor import JobSpec

from helpers import assert_results_identical, factorized_family

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


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
    # where the ``taylor_gram.apply`` fault site lives.
    return factorized_family(seed, n=6, m=24, rank=1, scale=0.3)


def options(**overrides):
    base = dict(epsilon=0.25, oracle="fast")
    base.update(overrides)
    return DecisionOptions(**base)


def make_service(**overrides):
    kwargs = dict(
        options=options(),
        seed=CHAOS_SEED,
        clock=VirtualClock(),
        heartbeat_every=3,
    )
    kwargs.update(overrides)
    return SolveService(**kwargs)


def neutral(result):
    """Strip fields that legitimately differ across execution strategies.

    Per-attempt budgets land in ``metadata["supervisor"]`` and process-mode
    results drop the unpicklable deferred primal builder
    (``primal_deferred_dropped``); every compared bit — dual witness,
    certified values, counters — must still match exactly.
    """
    meta = {k: v for k, v in result.metadata.items() if k != "primal_deferred_dropped"}
    sup = meta.get("supervisor")
    if isinstance(sup, dict):
        meta["supervisor"] = {
            k: v
            for k, v in sup.items()
            if k not in ("iteration_budget", "wall_clock_budget", "elapsed")
        }
    return dataclasses.replace(result, metadata=meta)


def assert_same_solve(actual, expected, label):
    assert_results_identical(neutral(actual), neutral(expected), label=label)


def solve_fleet(service, n_instances=5):
    """Submit ``n_instances`` distinct instances and drain to completion."""
    rids = [service.submit(collection(seed=20 + i)) for i in range(n_instances)]
    responses = service.drain()
    service.shutdown()
    return [responses[rid] for rid in rids]


class TestWorkerCountInvariance:
    """Result bits are independent of pool mode and worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_thread_pool_matches_inline(self, workers):
        baseline = solve_fleet(make_service())
        # batch_size=1 forces one job per request so the pool genuinely
        # runs them concurrently — a stronger claim than batched dispatch.
        threaded = solve_fleet(
            make_service(mode="thread", workers=workers, batch_size=1)
        )
        for ref, got in zip(baseline, threaded):
            assert got.outcome is ref.outcome
            assert_same_solve(
                got.result, ref.result, label=f"thread-{workers} rid {ref.request_id}"
            )

    def test_inline_matches_direct_stream_solve(self):
        responses = solve_fleet(make_service(), n_instances=3)
        for i, response in enumerate(responses):
            direct = decision_psdp(
                collection(seed=20 + i),
                options=options(rng=instance_rng(CHAOS_SEED, response.request_id)),
            )
            assert_same_solve(response.result, direct, label=f"direct rid {i}")


class TestCrashRequeue:
    """An injected worker crash costs an attempt, never a bit."""

    @pytest.mark.parametrize("mode,workers", [("inline", 1), ("thread", 2)])
    def test_crash_resumes_bit_identical(self, mode, workers):
        clean = make_service()
        rid_clean = clean.submit(collection())
        reference = clean.drain()[rid_clean]
        assert reference.outcome is RequestOutcome.COMPLETED

        service = make_service(mode=mode, workers=workers)
        with inject("worker.heartbeat", WorkerCrash, at_call=2, seed=CHAOS_SEED) as spec:
            rid = service.submit(collection())
            response = service.drain()[rid]
        service.shutdown()
        assert spec.fires == 1, "the crash fault never fired (solve too short?)"
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.attempts == 1  # the crash consumed one attempt
        assert response.resumes >= 1  # ...and the retry resumed a checkpoint
        assert_same_solve(response.result, reference.result, label=f"crash-{mode}")

    def test_crash_on_final_attempt_is_typed(self):
        service = make_service()
        with inject("worker.heartbeat", WorkerCrash, at_call=2, seed=CHAOS_SEED):
            rid = service.submit(collection(), max_attempts=1)
            response = service.drain()[rid]
        assert response.outcome is RequestOutcome.RETRY_EXHAUSTED
        assert "crashed" in response.detail
        # The shipped checkpoint comes back so the caller can still resume.
        assert response.checkpoint is not None


class TestStallWatchdog:
    """A stalled worker is killed by heartbeat staleness and requeued free."""

    @pytest.mark.parametrize("mode,workers", [("inline", 1), ("thread", 1)])
    def test_stall_is_killed_and_requeued(self, mode, workers):
        clean = make_service()
        rid_clean = clean.submit(collection())
        reference = clean.drain()[rid_clean]

        service = make_service(mode=mode, workers=workers, watchdog_timeout=1.0)
        with inject("worker.heartbeat", Stall, at_call=2, seed=CHAOS_SEED) as spec:
            rid = service.submit(collection())
            response = service.drain()[rid]
        service.shutdown()
        assert spec.fires == 1
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.attempts == 0  # watchdog kills never consume attempts
        assert response.resumes >= 1  # the requeue resumed the shipped checkpoint
        assert_same_solve(response.result, reference.result, label=f"stall-{mode}")

    def test_perpetual_stall_exhausts_requeues(self):
        service = make_service(watchdog_timeout=1.0, max_requeues=2)
        with inject("worker.heartbeat", Stall, at_call=1, times=10**6, seed=CHAOS_SEED):
            rid = service.submit(collection())
            response = service.drain()[rid]
        assert response.outcome is RequestOutcome.RETRY_EXHAUSTED
        assert "stall" in response.detail
        assert response.checkpoint is not None


class TestCircuitBreaker:
    """Repeated family failures open the breaker; a probe closes it again."""

    def failing_options(self):
        # No recovery ladder: an injected NaN fails the attempt outright.
        return options(max_recoveries=0)

    def test_open_breaker_sheds_family_then_probe_recovers(self):
        service = make_service(
            options=self.failing_options(),
            breaker_threshold=2,
            breaker_cooldown=10.0,
        )
        clock = service._clock
        with inject("taylor_gram.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED):
            first = [service.submit(gram_collection(seed=7 + i), max_attempts=1) for i in range(2)]
            for rid in first:
                while service.response(rid) is None:
                    service.step()
                    nxt = service.next_ready_time()
                    if nxt is not None and nxt > clock():
                        clock.advance(nxt - clock())
                assert service.response(rid).outcome is RequestOutcome.RETRY_EXHAUSTED
            # Two consecutive family failures: the breaker is now open.
            shed = service.submit(gram_collection(seed=30), max_attempts=1)
            service.step()
            assert service.response(shed).outcome is RequestOutcome.CIRCUIT_OPEN
        clear_faults()

        # After the cooldown a probe is admitted; its success closes the
        # breaker and subsequent requests of the family run normally.
        clock.advance(10.0)
        probe = service.submit(gram_collection(seed=31))
        follow = service.submit(gram_collection(seed=32))
        responses = service.drain()
        assert responses[probe].outcome in (
            RequestOutcome.COMPLETED,
            RequestOutcome.DEGRADED,
        )
        assert responses[follow].outcome in (
            RequestOutcome.COMPLETED,
            RequestOutcome.DEGRADED,
        )

    def test_breaker_unit_transitions(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        assert breaker.peek(0.0) == "run"
        breaker.record_failure(0.0)
        assert breaker.peek(0.0) == "run"  # under threshold: still closed
        breaker.record_failure(1.0)
        assert breaker.peek(1.0) == "shed"  # open
        assert breaker.next_transition() == 6.0
        assert breaker.peek(6.0) == "probe"  # cooldown elapsed
        breaker.begin_probe()
        assert breaker.peek(6.0) == "wait"  # one probe at a time
        breaker.record_failure(7.0)  # probe verdict: still failing
        assert breaker.peek(7.0) == "shed"
        assert breaker.next_transition() == 12.0
        breaker.begin_probe()
        breaker.record_success()
        assert breaker.peek(12.0) == "run"  # closed again
        breaker.begin_probe()
        breaker.abort_probe()  # killed probe releases the slot
        assert breaker.peek(12.0) == "probe"


class TestShutdownSuspend:
    """Shutdown drains to SUSPENDED + checkpoint; resume is bit-identical."""

    def reference(self):
        clean = make_service()
        rid = clean.submit(collection())
        return clean.drain()[rid]

    def test_queued_checkpoint_suspends_and_resumes(self):
        service = make_service(attempt_iteration_budget=5)
        rid = service.submit(collection())
        service.step()  # one budget slice: the request now holds a checkpoint
        responses = service.shutdown()
        suspended = responses[rid]
        assert suspended.outcome is RequestOutcome.SUSPENDED
        assert suspended.checkpoint is not None

        resumed_service = make_service()
        new_rid = resumed_service.submit(
            collection(), resume_from=suspended.checkpoint
        )
        assert new_rid == rid  # same stream: fresh service, same seed
        response = resumed_service.drain()[new_rid]
        assert response.outcome is RequestOutcome.COMPLETED
        assert_same_solve(
            response.result, self.reference().result, label="suspend-resume"
        )

    def test_in_flight_job_suspends_with_shipped_checkpoint(self):
        service = make_service(mode="thread", workers=1)
        with inject("worker.heartbeat", Stall, at_call=2, seed=CHAOS_SEED):
            rid = service.submit(collection())
            service.step()  # dispatch; the worker beats once, then parks
            deadline = 100
            while service._pool.in_flight() and deadline:
                service._pool.wait(timeout=0.05)
                if service._pool.observe():
                    break
                deadline -= 1
            responses = service.shutdown()
        suspended = responses[rid]
        assert suspended.outcome is RequestOutcome.SUSPENDED
        assert suspended.checkpoint is not None

        resumed_service = make_service()
        new_rid = resumed_service.submit(
            collection(), resume_from=suspended.checkpoint
        )
        response = resumed_service.drain()[new_rid]
        assert response.outcome is RequestOutcome.COMPLETED
        assert_same_solve(
            response.result, self.reference().result, label="inflight-suspend"
        )

    def test_submissions_after_shutdown_are_shed(self):
        service = make_service()
        service.shutdown()
        rid = service.submit(collection())
        response = service.response(rid)
        assert response.outcome is RequestOutcome.SHED
        assert "shutting down" in response.detail


class TestBackpressure:
    """max_in_flight bounds dispatch; queued work waits, nothing drops."""

    def test_in_flight_bound_is_respected(self):
        service = make_service(mode="thread", workers=2, batch_size=1, max_in_flight=1)
        rids = [service.submit(collection(seed=40 + i)) for i in range(3)]
        service.step()
        assert len(service._pool.in_flight()) <= 1
        assert service.pending() == 3
        responses = service.drain()
        service.shutdown()
        assert all(responses[rid].outcome is RequestOutcome.COMPLETED for rid in rids)


class TestProcessMode:
    """Crash isolation across a real process boundary."""

    def test_process_pool_matches_inline(self, tmp_path):
        baseline = solve_fleet(make_service(), n_instances=2)
        procs = solve_fleet(
            make_service(mode="process", workers=1, control_dir=str(tmp_path)),
            n_instances=2,
        )
        for ref, got in zip(baseline, procs):
            assert got.outcome is ref.outcome
            assert_same_solve(got.result, ref.result, label="process-mode")

    def test_fault_plan_crosses_process_boundary(self, tmp_path):
        # The fault is armed in THIS process; the pool worker must install
        # the serialized plan, fire the crash there, and sync the consumed
        # counter back so the retry does not fire it again.
        service = make_service(mode="process", workers=1, control_dir=str(tmp_path))
        with inject("worker.heartbeat", WorkerCrash, at_call=2, seed=CHAOS_SEED) as spec:
            rid = service.submit(collection())
            response = service.drain()[rid]
        service.shutdown()
        assert spec.fires == 1  # synced back from the worker process
        assert response.outcome is RequestOutcome.COMPLETED
        assert response.attempts == 1
        assert response.resumes >= 1
        reference = self_reference = make_service()
        ref_rid = self_reference.submit(collection())
        assert_same_solve(
            response.result,
            self_reference.drain()[ref_rid].result,
            label="process-crash",
        )


class TestWorkerPoolUnit:
    """Pool-level behaviours that the service tests exercise indirectly."""

    def spec(self, job_id=0, seed=0):
        return JobSpec(
            job_id=job_id,
            request_ids=[0],
            constraints=[collection()],
            options=options(checkpoint_every=3),
            seed=seed,
        )

    def test_inline_pool_runs_at_submit(self):
        pool = WorkerPool(mode="inline")
        job = pool.submit(self.spec())
        assert job.future.done()
        [(done, report)] = pool.poll()
        assert done is job and report.status == "done"
        assert len(report.results) == 1
        assert not pool.in_flight()
        pool.shutdown()

    def test_kill_is_idempotent_and_cooperative(self):
        pool = WorkerPool(mode="thread", workers=1)
        with inject("worker.heartbeat", Stall, at_call=1, seed=CHAOS_SEED):
            job = pool.submit(self.spec())
            for _ in range(200):
                pool.wait(timeout=0.05)
                if pool.observe():
                    break
            pool.kill(job.spec.job_id, "watchdog")
            pool.kill(job.spec.job_id, "shutdown")  # first reason sticks
            assert job.killed == "watchdog"
            for _ in range(200):
                pool.wait(timeout=0.05)
                if job.future.done():
                    break
            [(_, report)] = pool.poll()
        assert report.status == "cancelled"
        assert job.shipped  # the pre-stall heartbeat shipped a checkpoint
        pool.shutdown()
