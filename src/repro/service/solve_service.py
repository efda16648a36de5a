"""Deterministic solve service: queue, deadlines, retries, shedding, pool.

The service wraps the decision solvers in the serving discipline a
long-running deployment needs, without giving up the repository's
bit-reproducibility contract:

* **Deterministic streams.**  Every request owns the rng stream
  ``instance_rng(seed, request_id)`` — the same stream
  :func:`~repro.core.batch.solve_many` would give it as instance
  ``request_id`` of one big batch — pinned through the ``rng_indices``
  parameter, so results do not depend on how requests happen to be
  batched, retried, or resumed.
* **Deadline-aware queue.**  Requests carry an absolute ``deadline`` on
  the service clock plus a ``priority``; expired work is finalized as
  :attr:`RequestOutcome.DEADLINE_EXCEEDED` (with the last verified
  partial result attached when one exists), never silently dropped.
* **Checkpoint/resume.**  A ``BUDGET_EXHAUSTED`` attempt hands its
  :class:`~repro.core.checkpoint.SolverCheckpoint` back to the queue and
  the next attempt continues it — no wasted work, bit-identical to an
  uninterrupted solve.
* **Retry with backoff.**  ``FAILED`` attempts (crash-style faults,
  exhausted demotion ladders) retry up to ``max_attempts`` with capped
  exponential backoff; the jitter is drawn from a per-request,
  per-attempt ``default_rng((seed, request_id, attempt))`` stream, so the
  whole retry schedule replays bit-identically under a virtual clock.
* **Load shedding.**  Past the queue-depth threshold the service answers
  with a cache hit, a warm-start certificate (a cached dual witness
  re-verified on the new instance — mathematically sound, merely
  sub-optimal), or a typed :attr:`RequestOutcome.SHED` rejection.  It
  never raises and never drops.
* **Concurrent execution** (:mod:`repro.service.executor`).  In
  ``mode="thread"``/``"process"`` the service dispatches jobs to a
  :class:`~repro.service.executor.WorkerPool` instead of solving inline:
  heartbeat-watchdogged workers are killed and their requests requeued
  from the latest shipped checkpoint, repeatedly-failing
  ``(m, n, ranks)`` instance families are isolated behind a per-family
  :class:`~repro.service.executor.CircuitBreaker` with half-open
  probing (:attr:`RequestOutcome.CIRCUIT_OPEN`), in-flight work is
  bounded, and :meth:`SolveService.shutdown` drains gracefully —
  in-flight and queued requests come back as
  :attr:`RequestOutcome.SUSPENDED` with resumable checkpoints, never
  dropped.  The default ``mode="inline"`` routes through the same job
  path on a serial backend, preserving the exact pre-executor
  semantics.

All time flows through an injectable clock; :class:`VirtualClock` makes
the chaos tests fully deterministic.  The invariant the chaos suite
proves: on a fixed seed, every terminal result's bits are independent of
worker count and injected crashes/stalls — scheduling only
moves *when* work happens, checkpointed resume makes *what* it computes
exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from repro.core.batch import instance_rng, solve_many
from repro.core.decision import DecisionOptions, decision_psdp, _resolve_constraints
from repro.core.result import DecisionOutcome, DecisionResult, SolveStatus
from repro.exceptions import InvalidProblemError, NumericalError
from repro.linalg.norms import certified_lambda_max
from repro.operators.collection import ConstraintCollection
from repro.robustness import faultinject
from repro.service.executor import (
    CircuitBreaker,
    JobSpec,
    WorkerPool,
    WorkerReport,
    _ActiveJob,
    instance_family,
)

__all__ = ["RequestOutcome", "ServiceResponse", "SolveService", "VirtualClock"]


class VirtualClock:
    """A manually-advanced monotonic clock for deterministic tests.

    Callable (returns the current virtual time) so it drops into every
    ``clock=`` slot in the repository — the service, the supervisor's
    wall-clock budgets, and fault-injection ``at_time`` arming.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward (never backward); returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a monotonic clock by {seconds}")
        self._now += float(seconds)
        return self._now


class RequestOutcome(Enum):
    """Terminal disposition of a service request (always typed, never raised)."""

    #: Solved and certified exactly like a direct ``decision_psdp`` call.
    COMPLETED = "completed"
    #: Solved with a verified-but-degraded answer: the solver recovered
    #: through its demotion ladder, or a warm-start certificate was served
    #: under load.  ``result`` is still an exactly-verified certificate.
    DEGRADED = "degraded"
    #: Rejected at admission or under overload; no solve was attempted.
    SHED = "shed"
    #: The deadline passed before the solve finished.  ``result`` carries
    #: the last verified partial dual when one exists.
    DEADLINE_EXCEEDED = "deadline-exceeded"
    #: Every attempt failed and the retry budget is spent.  ``result``
    #: carries the last failed attempt's result.
    RETRY_EXHAUSTED = "retry-exhausted"
    #: The instance family's circuit breaker is open: recent requests of
    #: the same ``(m, n, ranks)`` shape kept exhausting recovery ladders
    #: or crashing workers, so this one was shed without burning the pool.
    CIRCUIT_OPEN = "circuit-open"
    #: The service shut down while the request was queued or in flight.
    #: ``checkpoint`` (when present) resumes the solve bit-identically via
    #: ``submit(..., resume_from=response.checkpoint)``.
    SUSPENDED = "suspended"


@dataclass
class ServiceResponse:
    """What :meth:`SolveService.response` hands back for a finished request."""

    request_id: int
    outcome: RequestOutcome
    result: DecisionResult | None
    attempts: int
    detail: str = ""
    from_cache: bool = False
    warm_started: bool = False
    #: Number of checkpoint-resume continuations the solve went through.
    resumes: int = 0
    #: Resumable :class:`~repro.core.checkpoint.SolverCheckpoint` for
    #: :attr:`RequestOutcome.SUSPENDED` (and, best-effort, for
    #: ``RETRY_EXHAUSTED``) outcomes; ``None`` otherwise.
    checkpoint: Any = None


@dataclass(eq=False)
class _Request:
    """Internal queue entry (requests in flight; identity equality)."""

    request_id: int
    constraints: ConstraintCollection
    options: DecisionOptions
    options_key: str
    fingerprint: str
    family: tuple
    deadline: float | None
    priority: int
    max_attempts: int
    attempts: int = 0
    resumes: int = 0
    #: Watchdog/stall kills absorbed so far (requeues do not consume
    #: attempts — resume is free — but are capped by ``max_requeues``).
    requeues: int = 0
    next_ready: float = 0.0
    checkpoint: Any = None
    last_result: DecisionResult | None = field(default=None, repr=False)


def _options_key(opts: DecisionOptions) -> str:
    """Batching/cache key over every option field that shapes the solve.

    ``rng`` and ``heartbeat`` are excluded (the service owns the streams,
    and the heartbeat is observability plumbing that never changes result
    bits); ``backend`` is keyed by identity — requests only batch when
    they share the exact same backend object (or both leave it ``None``).
    """
    parts = []
    for f in dataclasses.fields(opts):
        value = getattr(opts, f.name)
        if f.name in ("rng", "heartbeat"):
            continue
        if f.name == "backend":
            parts.append(f"backend=id{id(value)}" if value is not None else "backend=None")
            continue
        parts.append(f"{f.name}={value!r}")
    return ";".join(parts)


def _fingerprint(constraints: ConstraintCollection, options_key: str) -> str:
    """Instance identity: SHA-256 over the constraint data + options.

    Exact-factor collections hash their operator kinds and packed factor
    stack (offsets, shape, dtype and stored entries: ``O(q)``); the
    others hash every operator's dense bytes.  A domain tag keeps the two
    kinds of digest apart.
    """
    digest = hashlib.sha256()
    if constraints.has_exact_factors:
        packed = constraints.packed()
        q = packed.matrix
        parts = (q.indptr, q.indices, q.data) if packed.is_sparse else (q,)
        digest.update(b"packed-factors\0")
        digest.update(",".join(type(op).__name__ for op in constraints).encode())
        digest.update(packed.offsets.tobytes())
        digest.update(repr((q.shape, [p.dtype.str for p in parts])).encode())
        for part in parts:
            digest.update(np.ascontiguousarray(part).tobytes())
    else:
        digest.update(b"dense-operators\0")
        for op in constraints:
            dense = np.ascontiguousarray(op.to_dense(), dtype=np.float64)
            digest.update(repr(dense.shape).encode())
            digest.update(dense.tobytes())
    digest.update(options_key.encode())
    return digest.hexdigest()


class SolveService:
    """Deterministic request queue over the decision solvers.

    Parameters
    ----------
    options:
        Default :class:`~repro.core.decision.DecisionOptions` for requests
        that do not bring their own.  The ``rng`` field is ignored — each
        request solves on ``instance_rng(seed, request_id)``.
    seed:
        Root seed for every per-request stream (solve rng and backoff
        jitter alike).  Two services with the same seed and the same
        request sequence produce bit-identical answers.
    clock:
        Injectable time source (``time.monotonic`` by default; pass a
        :class:`VirtualClock` in tests).  Deadlines and backoff are
        absolute values on this clock.
    max_queue_depth:
        Admission threshold: submissions past this depth are answered
        from the cache, warm-start certified, or shed — never enqueued.
    attempt_iteration_budget:
        Optional per-attempt ``iteration_budget``.  Long solves then
        surface as ``BUDGET_EXHAUSTED`` + checkpoint every so many
        iterations and continue on the next :meth:`step` — the queue
        stays responsive without losing work.
    backoff_base / backoff_cap / backoff_jitter:
        Failed-attempt backoff: ``min(cap, base * 2**(attempt-1))``
        stretched by ``1 + jitter * u`` with ``u`` from the request's
        deterministic jitter stream.
    batch_size:
        Maximum number of compatible requests per fused
        :func:`~repro.core.batch.solve_many` call.
    cache_size:
        Entries kept in the instance-fingerprint result cache (LRU).
    mode / workers:
        Execution strategy — ``"inline"`` (default; solve synchronously
        inside :meth:`step`, the pre-executor semantics), ``"thread"``
        (jobs on a thread pool; NumPy's GEMMs release the GIL), or
        ``"process"`` (crash isolation; needs ``control_dir``).
    heartbeat_every:
        Periodic-checkpoint cadence (iterations) applied to attempts
        whose options do not set ``checkpoint_every`` themselves.  This
        is the worker heartbeat: the watchdog and crash-requeue can only
        be as fresh as the latest shipped capture, so set it whenever
        ``watchdog_timeout`` is on.
    watchdog_timeout:
        Seconds (service clock) a job may go without a heartbeat before
        the supervisor kills it and requeues its requests from their
        latest shipped checkpoints.  ``None`` disables the watchdog.
    max_requeues:
        Cap on watchdog/stall requeues per request (they never consume
        retry attempts; this cap is the escape valve for a request that
        stalls every single time).
    breaker_threshold / breaker_cooldown:
        Per-instance-family circuit breaker: ``threshold`` consecutive
        failures (ladder exhaustion, worker crashes) open it; after
        ``cooldown`` seconds one probe is admitted (half-open) and its
        verdict closes or re-opens the breaker.
    max_in_flight:
        Bound on concurrently-dispatched jobs (backpressure; defaults to
        ``2 * workers``).  Queued work past the bound simply waits.
    control_dir:
        Directory for process-mode heartbeat/cancel files (required for
        ``mode="process"``).
    hard_crash:
        Process mode only: injected ``WorkerCrash`` faults call
        ``os._exit`` (a genuine worker death breaking the pool) instead
        of unwinding with a simulated crash report.
    """

    def __init__(
        self,
        *,
        options: DecisionOptions | None = None,
        seed: int = 0,
        clock: Callable[[], float] | None = None,
        max_queue_depth: int = 64,
        attempt_iteration_budget: int | None = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        backoff_jitter: float = 0.25,
        batch_size: int = 8,
        cache_size: int = 128,
        mode: str = "inline",
        workers: int = 1,
        heartbeat_every: int | None = None,
        watchdog_timeout: float | None = None,
        max_requeues: int = 3,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        max_in_flight: int | None = None,
        control_dir: str | None = None,
        hard_crash: bool = False,
    ) -> None:
        if max_queue_depth <= 0:
            raise InvalidProblemError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if attempt_iteration_budget is not None and attempt_iteration_budget <= 0:
            raise InvalidProblemError(
                f"attempt_iteration_budget must be positive, got {attempt_iteration_budget}"
            )
        if heartbeat_every is not None and heartbeat_every <= 0:
            raise InvalidProblemError(
                f"heartbeat_every must be a positive iteration count, got {heartbeat_every}"
            )
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise InvalidProblemError(
                f"watchdog_timeout must be positive seconds, got {watchdog_timeout}"
            )
        if max_requeues < 0:
            raise InvalidProblemError(f"max_requeues must be >= 0, got {max_requeues}")
        self.options = options or DecisionOptions()
        self.seed = int(seed)
        self._clock = clock if clock is not None else time.monotonic
        self.max_queue_depth = int(max_queue_depth)
        self.attempt_iteration_budget = attempt_iteration_budget
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.backoff_jitter = float(backoff_jitter)
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.mode = mode
        self.heartbeat_every = heartbeat_every
        self.watchdog_timeout = watchdog_timeout
        self.max_requeues = int(max_requeues)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.max_in_flight = int(max_in_flight) if max_in_flight is not None else 2 * workers

        self._pool = WorkerPool(
            mode=mode,
            workers=workers,
            clock=self._clock,
            control_dir=control_dir,
            hard_crash=hard_crash,
        )
        self._queue: list[_Request] = []
        self._responses: dict[int, ServiceResponse] = {}
        self._cache: dict[str, DecisionResult] = {}
        self._cache_order: list[str] = []
        self._next_id = 0
        self._accepting = True
        #: job id -> the requests it carries.
        self._dispatched: dict[int, list[_Request]] = {}
        self._breakers: dict[tuple, CircuitBreaker] = {}

    # ------------------------------------------------------------------ admission
    def submit(
        self,
        problem: Any,
        *,
        options: DecisionOptions | None = None,
        deadline: float | None = None,
        priority: int = 0,
        max_attempts: int = 3,
        resume_from: Any = None,
    ) -> int:
        """Admit one solve request; returns its request id.

        Never raises for load reasons: a full queue, a shutting-down
        service, or an already-expired deadline produces an
        immediately-available typed response (:attr:`RequestOutcome.SHED`
        / ``DEADLINE_EXCEEDED``) instead.  Invalid *problems* (not a
        constraint collection the solvers accept, ``max_attempts < 1``)
        still raise — those are caller bugs, not load conditions.

        ``resume_from`` re-admits suspended work: pass the ``checkpoint``
        of a :attr:`RequestOutcome.SUSPENDED` response and the solve
        continues from it bit-identically (the first attempt runs as a
        solo resume instead of a fresh batch).
        """
        if max_attempts < 1:
            raise InvalidProblemError(f"max_attempts must be >= 1, got {max_attempts}")
        opts = options or self.options
        constraints = _resolve_constraints(problem)
        request_id = self._next_id
        self._next_id += 1
        now = self._clock()
        key = _options_key(opts)
        fingerprint = _fingerprint(constraints, key)

        if not self._accepting:
            self._responses[request_id] = ServiceResponse(
                request_id=request_id,
                outcome=RequestOutcome.SHED,
                result=None,
                attempts=0,
                detail="service is shutting down",
                checkpoint=resume_from,
            )
            return request_id

        cached = self._cache.get(fingerprint)
        if cached is not None:
            self._touch_cache(fingerprint)
            self._responses[request_id] = ServiceResponse(
                request_id=request_id,
                outcome=(
                    RequestOutcome.DEGRADED
                    if cached.status is SolveStatus.DEGRADED
                    else RequestOutcome.COMPLETED
                ),
                result=cached,
                attempts=0,
                detail="instance-fingerprint cache hit",
                from_cache=True,
            )
            return request_id

        if deadline is not None and deadline <= now:
            self._responses[request_id] = ServiceResponse(
                request_id=request_id,
                outcome=RequestOutcome.DEADLINE_EXCEEDED,
                result=None,
                attempts=0,
                detail="deadline expired before admission",
            )
            return request_id

        if len(self._queue) >= self.max_queue_depth:
            response = self._shed(request_id, constraints, opts)
            self._responses[request_id] = response
            return request_id

        self._queue.append(
            _Request(
                request_id=request_id,
                constraints=constraints,
                options=opts,
                options_key=key,
                fingerprint=fingerprint,
                family=instance_family(constraints),
                deadline=deadline,
                priority=int(priority),
                max_attempts=int(max_attempts),
                next_ready=now,
                checkpoint=resume_from,
            )
        )
        return request_id

    def _shed(
        self, request_id: int, constraints: ConstraintCollection, opts: DecisionOptions
    ) -> ServiceResponse:
        """Overload path: degrade gracefully before rejecting outright."""
        warm = self._warm_start_certificate(request_id, constraints, opts)
        if warm is not None:
            return ServiceResponse(
                request_id=request_id,
                outcome=RequestOutcome.DEGRADED,
                result=warm,
                attempts=0,
                detail="queue full: served warm-start certificate",
                warm_started=True,
            )
        return ServiceResponse(
            request_id=request_id,
            outcome=RequestOutcome.SHED,
            result=None,
            attempts=0,
            detail=f"queue depth {len(self._queue)} at threshold {self.max_queue_depth}",
        )

    def _warm_start_certificate(
        self, request_id: int, constraints: ConstraintCollection, opts: DecisionOptions
    ) -> DecisionResult | None:
        """Try to certify the new instance with a cached dual witness.

        Takes any cached dual vector of matching length, bounds
        ``lambda_max(sum_i x_i A_i)`` **on the new instance** from above
        (:func:`~repro.linalg.norms.certified_lambda_max`, the bound every
        solver exit rescales by, on the request's own
        ``default_rng((seed, request_id))`` stream), and accepts only when
        the rescaled value clears the ``1 - eps`` target — the certificate
        is exactly verified on the instance it is returned for, so a stale
        cache can never produce an unsound answer.
        """
        n = len(constraints)
        eps = float(opts.epsilon)
        for key in reversed(self._cache_order):
            cached = self._cache[key]
            x = cached.dual_x
            if x is None or len(x) != n or not np.all(np.isfinite(x)):
                continue
            summed = constraints.weighted_sum(np.asarray(x, dtype=np.float64))
            try:
                lam = certified_lambda_max(
                    summed, rng=np.random.default_rng((self.seed, request_id))
                )
            except NumericalError:
                continue
            if lam <= 0:
                continue
            value = float(np.sum(x)) / lam
            if value >= 1.0 - eps:
                dual_x = np.asarray(x, dtype=np.float64) / lam
                return DecisionResult(
                    outcome=DecisionOutcome.DUAL,
                    dual_x=dual_x,
                    primal_y=None,
                    dual_value=float(dual_x.sum()),
                    primal_min_dot=float("nan"),
                    dual_lambda_max=1.0,
                    iterations=0,
                    max_iterations=0,
                    epsilon=eps,
                    early_exit=True,
                    status=SolveStatus.DEGRADED,
                    history=None,
                    work_depth=None,
                    metadata={
                        "warm_start": True,
                        "solve_status": SolveStatus.DEGRADED.value,
                        "x_l1": float(dual_x.sum()),
                    },
                )
        return None

    # ------------------------------------------------------------------ queries
    def response(self, request_id: int) -> ServiceResponse | None:
        """The finished response for ``request_id`` (``None`` while pending)."""
        return self._responses.get(request_id)

    def pending(self) -> int:
        """Number of requests not yet finalized (queued plus in flight)."""
        return len(self._queue) + sum(len(reqs) for reqs in self._dispatched.values())

    def next_ready_time(self) -> float | None:
        """Earliest ``next_ready`` among queued requests (``None`` if idle)."""
        if not self._queue:
            return None
        return min(r.next_ready for r in self._queue)

    def _breaker(self, family: tuple) -> CircuitBreaker:
        breaker = self._breakers.get(family)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold, cooldown=self.breaker_cooldown
            )
            self._breakers[family] = breaker
        return breaker

    # ------------------------------------------------------------------ serving
    def step(self) -> int:
        """Serve one scheduling round; returns the number of requests finalized.

        Expires overdue deadlines, absorbs finished pool jobs, kills
        watchdog-stale workers, and dispatches ready
        requests (breaker-gated, backpressure-bounded) to the pool.  In
        inline mode the dispatched job executes synchronously inside this
        call, so the pre-executor one-batch-per-step cadence is
        preserved exactly.
        """
        now = self._clock()
        finalized = 0

        for request in list(self._queue):
            if request.deadline is not None and request.deadline <= now:
                self._queue.remove(request)
                self._finalize(
                    request,
                    RequestOutcome.DEADLINE_EXCEEDED,
                    request.last_result,
                    detail="deadline passed while queued",
                )
                finalized += 1

        finalized += self._collect()
        self._run_watchdog()
        finalized += self._dispatch()
        finalized += self._collect()
        return finalized

    def _collect(self) -> int:
        """Absorb every completed pool job; returns requests finalized."""
        finalized = 0
        for job, report in self._pool.poll():
            finalized += self._absorb_report(job, report)
        return finalized

    def _run_watchdog(self) -> None:
        """Kill jobs whose heartbeat has gone stale; requeue happens on report."""
        if self.watchdog_timeout is None:
            return
        now = self._clock()
        for job in self._pool.in_flight():
            # Inclusive: drain advances a VirtualClock exactly onto the
            # deadline, and landing on it must trigger the kill.
            if job.killed is None and now - job.last_progress >= self.watchdog_timeout:
                self._pool.kill(job.spec.job_id, "watchdog")

    def _dispatch(self) -> int:
        """Form jobs from the ready queue and launch them; returns finalized.

        Jobs are formed exactly as the pre-executor service batched:
        highest-priority ready request leads; checkpointed requests (and
        circuit-breaker probes) run solo; everything else ready with the
        same options key joins the lead's ``solve_many`` batch up to
        ``batch_size``.  Open-breaker families are shed with
        :attr:`RequestOutcome.CIRCUIT_OPEN` before job formation.
        """
        finalized = 0
        while len(self._pool.in_flight()) < self.max_in_flight:
            now = self._clock()
            ready = [r for r in self._queue if r.next_ready <= now]
            if not ready:
                break
            ready.sort(key=lambda r: (-r.priority, r.request_id))

            for request in list(ready):
                if self._breaker(request.family).peek(now) == "shed":
                    ready.remove(request)
                    self._queue.remove(request)
                    self._finalize(
                        request,
                        RequestOutcome.CIRCUIT_OPEN,
                        request.last_result,
                        detail=(
                            f"circuit breaker open for instance family "
                            f"(m={request.family[0]}, n={request.family[1]})"
                        ),
                        checkpoint=request.checkpoint,
                    )
                    finalized += 1
            if not ready:
                continue

            lead = None
            verdict = None
            for request in ready:
                v = self._breaker(request.family).peek(now)
                if v == "wait":  # a probe for this family is already out
                    continue
                lead, verdict = request, v
                break
            if lead is None:
                break

            if verdict == "probe":
                self._breaker(lead.family).begin_probe()
                batch = [lead]
            elif lead.checkpoint is not None:
                batch = [lead]
            else:
                batch = [
                    r
                    for r in ready
                    if r.options_key == lead.options_key
                    and r.checkpoint is None
                    and self._breaker(r.family).peek(now) == "run"
                ][: self.batch_size]
            self._launch(batch)
            if self.mode == "inline":
                break
        return finalized

    def _launch(self, batch: list[_Request]) -> None:
        """Move a formed batch out of the queue and submit it as one job."""
        for request in batch:
            self._queue.remove(request)
        lead = batch[0]
        job_id = self._pool.next_job_id()
        plan = faultinject.export_plan() or None
        spec = JobSpec(
            job_id=job_id,
            request_ids=[r.request_id for r in batch],
            constraints=[r.constraints for r in batch],
            options=dataclasses.replace(
                self._attempt_options(lead), rng=None, heartbeat=None
            ),
            seed=self.seed,
            checkpoint=lead.checkpoint,
            fault_plan=plan,
            plan_pid=os.getpid(),
        )
        self._dispatched[job_id] = list(batch)
        self._pool.submit(spec)

    # ------------------------------------------------------------------ absorption
    def _absorb_report(self, job: _ActiveJob, report: WorkerReport) -> int:
        """Fold one finished job back into service state; returns finalized."""
        if report.usage:
            faultinject.consume_plan_usage(report.usage)
        requests = [
            r
            for r in self._dispatched.pop(job.spec.job_id, [])
            if r.request_id not in self._responses
        ]
        if not requests:
            return 0  # a fully-expired batch: nothing left to absorb

        if report.status == "done":
            finalized = 0
            for request, result in zip(requests, report.results or []):
                finalized += self._absorb_solved(request, result)
            return finalized

        if report.status == "cancelled":
            if job.killed == "shutdown":
                return sum(self._suspend(request, job) for request in requests)
            # Watchdog kill, or an injected stall that self-cancelled
            # (inline mode): requeue from the latest shipped checkpoint.
            reason = job.killed or "stall"
            return sum(
                self._requeue_killed(request, job, reason) for request in requests
            )

        # crashed / error: the attempt is gone; breaker notices, retry pays.
        now = self._clock()
        finalized = 0
        for request in requests:
            self._breaker(request.family).record_failure(now)
            finalized += self._requeue_crashed(request, job, report.detail)
        return finalized

    def _absorb_solved(self, request: _Request, result: DecisionResult | None) -> int:
        """Absorb one solved result (breaker bookkeeping + queue re-entry)."""
        status = result.status if result is not None else SolveStatus.FAILED
        if status is SolveStatus.FAILED:
            self._breaker(request.family).record_failure(self._clock())
        elif status in (SolveStatus.CERTIFIED, SolveStatus.DEGRADED):
            self._breaker(request.family).record_success()
        done = self._absorb(request, result)
        if not done and request not in self._queue:
            self._queue.append(request)
        return done

    def _adopt_shipped(self, request: _Request, job: _ActiveJob) -> None:
        """Adopt the freshest checkpoint the dead job shipped for ``request``."""
        shipped = job.shipped.get(request.request_id)
        if shipped is not None and shipped is not request.checkpoint:
            request.checkpoint = shipped
            request.resumes += 1

    def _requeue_killed(self, request: _Request, job: _ActiveJob, reason: str) -> int:
        """Watchdog/stall kill: requeue from checkpoint without consuming an attempt."""
        # If this was a circuit-breaker probe, free the probe slot so the
        # requeued request (or a sibling) can probe again.
        self._breaker(request.family).abort_probe()
        self._adopt_shipped(request, job)
        request.requeues += 1
        if request.requeues > self.max_requeues:
            self._finalize(
                request,
                RequestOutcome.RETRY_EXHAUSTED,
                request.last_result,
                detail=f"requeue limit reached after repeated {reason} kills",
                checkpoint=request.checkpoint,
            )
            return 1
        request.next_ready = self._clock()
        self._queue.append(request)
        return 0

    def _requeue_crashed(self, request: _Request, job: _ActiveJob, detail: str) -> int:
        """Worker crash: requeue from checkpoint; the crash consumes an attempt."""
        self._adopt_shipped(request, job)
        request.attempts += 1
        if request.attempts >= request.max_attempts:
            self._finalize(
                request,
                RequestOutcome.RETRY_EXHAUSTED,
                request.last_result,
                detail=f"worker crashed on final attempt: {detail}",
                checkpoint=request.checkpoint,
            )
            return 1
        request.next_ready = self._clock() + self._backoff(request)
        self._queue.append(request)
        return 0

    def _suspend(self, request: _Request, job: _ActiveJob | None) -> int:
        """Shutdown path: finalize as SUSPENDED with the freshest checkpoint."""
        if job is not None:
            self._adopt_shipped(request, job)
        self._finalize(
            request,
            RequestOutcome.SUSPENDED,
            request.last_result,
            detail=(
                "service shut down; resumable checkpoint attached"
                if request.checkpoint is not None
                else "service shut down before the solve made checkpointed progress"
            ),
            checkpoint=request.checkpoint,
        )
        return 1

    # ------------------------------------------------------------------ lifecycle
    def drain(self, max_steps: int = 100_000) -> dict[int, ServiceResponse]:
        """Run :meth:`step` until queue and pool empty; returns all responses.

        Between rounds the loop waits (real time) for in-flight futures
        and heartbeats; only when nothing is genuinely progressing does it
        advance a :class:`VirtualClock` to the next timer — a backoff
        ``next_ready``, a watchdog deadline, or a breaker cooldown
        expiry.  A stalled worker therefore *cannot* freeze the
        drain: its missing heartbeats are exactly what lets the clock
        jump to the watchdog deadline that kills it.
        """
        for _ in range(max_steps):
            if not self._queue and not self._pool.in_flight():
                break
            before = len(self._responses)
            self.step()
            if not self._queue and not self._pool.in_flight():
                break
            if len(self._responses) != before:
                continue
            if self._pool.in_flight():
                self._pool.wait(timeout=0.05)
                if self._pool.observe() or any(
                    job.future.done() for job in self._pool.in_flight()
                ):
                    continue
            if any(r.next_ready <= self._clock() for r in self._queue):
                continue  # ready work exists (e.g. a fresh resume): keep stepping
            target = self._next_event_time()
            now = self._clock()
            if target is not None and target > now:
                if hasattr(self._clock, "advance"):
                    self._clock.advance(target - now)
                else:  # pragma: no cover - real-clock deployments only
                    time.sleep(min(target - now, 0.05))
            elif not self._pool.in_flight():
                break  # nothing queued can ever become ready
        return dict(self._responses)

    def _next_event_time(self) -> float | None:
        """The earliest future timer that can unblock progress."""
        times: list[float] = []
        now = self._clock()
        for request in self._queue:
            times.append(request.next_ready)
            if request.deadline is not None:
                times.append(request.deadline)
        if self.watchdog_timeout is not None:
            for job in self._pool.in_flight():
                if job.killed is None:
                    times.append(job.last_progress + self.watchdog_timeout)
        for breaker in self._breakers.values():
            transition = breaker.next_transition()
            if transition is not None:
                times.append(transition)
        future = [t for t in times if t > now]
        return min(future) if future else None

    def shutdown(self, wait_timeout: float = 5.0) -> dict[int, ServiceResponse]:
        """Graceful drain-to-suspend: stop admission, checkpoint, never drop.

        Cancels every in-flight job (cooperative, at the next heartbeat),
        waits up to ``wait_timeout`` *real* seconds for the workers to
        unwind, and finalizes everything still unfinished — in flight or
        queued — as :attr:`RequestOutcome.SUSPENDED` with the freshest
        resumable checkpoint attached.  Returns all responses; a later
        service resumes any suspended request via
        ``submit(..., resume_from=response.checkpoint)``.
        """
        self._accepting = False
        for job in self._pool.in_flight():
            self._pool.kill(job.spec.job_id, "shutdown")
        deadline = time.monotonic() + wait_timeout
        while self._pool.in_flight() and time.monotonic() < deadline:
            self._pool.wait(timeout=0.05)
            self._collect()
        # Workers that never unwound (hard stalls): suspend from the
        # parent-side shipped state; their threads die with the pool.
        self._pool.observe()
        for job in self._pool.in_flight():
            requests = [
                r
                for r in self._dispatched.pop(job.spec.job_id, [])
                if r.request_id not in self._responses
            ]
            for request in requests:
                self._suspend(request, job)
        for request in list(self._queue):
            self._suspend(request, None)
        self._queue.clear()
        self._pool.shutdown()
        return dict(self._responses)

    # ------------------------------------------------------------------ internals
    def _attempt_options(self, request: _Request) -> DecisionOptions:
        """The request's options with per-attempt budgets and heartbeat cadence."""
        opts = request.options
        updates: dict[str, Any] = {}
        if self.heartbeat_every is not None and opts.checkpoint_every is None:
            updates["checkpoint_every"] = self.heartbeat_every
        if self.attempt_iteration_budget is not None:
            budget = self.attempt_iteration_budget * (request.resumes + 1)
            if opts.iteration_budget is None or budget < opts.iteration_budget:
                updates["iteration_budget"] = budget
        if (
            request.deadline is not None
            and self._clock is time.monotonic
            and opts.wall_clock_budget is None
        ):  # pragma: no cover - real-clock deployments only
            remaining = request.deadline - self._clock()
            if remaining > 0:
                updates["wall_clock_budget"] = remaining
        return dataclasses.replace(opts, **updates) if updates else opts

    def _absorb(self, request: _Request, result: DecisionResult | None) -> int:
        """Fold one attempt's result back into the queue; returns 1 if finalized."""
        now = self._clock()
        if result is None:  # pragma: no cover - solve_many never returns None
            result = request.last_result
            status = SolveStatus.FAILED
        else:
            status = result.status
        request.last_result = result

        if status is SolveStatus.BUDGET_EXHAUSTED:
            checkpoint = result.metadata.get("checkpoint") if result is not None else None
            if request.deadline is not None and request.deadline <= now:
                self._remove(request)
                self._finalize(
                    request,
                    RequestOutcome.DEADLINE_EXCEEDED,
                    result,
                    detail="deadline passed mid-solve; partial dual attached",
                )
                return 1
            if checkpoint is not None:
                request.checkpoint = checkpoint
                request.resumes += 1
                request.next_ready = now
                return 0
            status = SolveStatus.FAILED  # no continuation point: treat as failure

        if status in (SolveStatus.CERTIFIED, SolveStatus.DEGRADED):
            self._remove(request)
            self._store_cache(request.fingerprint, result)
            self._finalize(
                request,
                (
                    RequestOutcome.COMPLETED
                    if status is SolveStatus.CERTIFIED
                    else RequestOutcome.DEGRADED
                ),
                result,
                detail="",
            )
            return 1

        # FAILED: retry with capped exponential backoff.
        request.attempts += 1
        checkpoint = result.metadata.get("checkpoint") if result is not None else None
        if checkpoint is not None:
            request.checkpoint = checkpoint
        if request.attempts >= request.max_attempts:
            self._remove(request)
            self._finalize(
                request,
                RequestOutcome.RETRY_EXHAUSTED,
                result,
                detail=f"failed {request.attempts} attempts",
            )
            return 1
        request.next_ready = now + self._backoff(request)
        return 0

    def _backoff(self, request: _Request) -> float:
        """Deterministic capped exponential backoff for the next retry."""
        base = min(self.backoff_cap, self.backoff_base * 2.0 ** (request.attempts - 1))
        jitter_rng = np.random.default_rng(
            (self.seed, request.request_id, request.attempts)
        )
        return base * (1.0 + self.backoff_jitter * float(jitter_rng.random()))

    def _remove(self, request: _Request) -> None:
        if request in self._queue:
            self._queue.remove(request)

    def _finalize(
        self,
        request: _Request,
        outcome: RequestOutcome,
        result: DecisionResult | None,
        detail: str,
        checkpoint: Any = None,
    ) -> None:
        self._responses[request.request_id] = ServiceResponse(
            request_id=request.request_id,
            outcome=outcome,
            result=result,
            attempts=request.attempts,
            detail=detail,
            resumes=request.resumes,
            checkpoint=checkpoint,
        )

    def _store_cache(self, fingerprint: str, result: DecisionResult) -> None:
        if fingerprint not in self._cache:
            self._cache_order.append(fingerprint)
        self._cache[fingerprint] = result
        while len(self._cache_order) > self.cache_size:
            evicted = self._cache_order.pop(0)
            self._cache.pop(evicted, None)

    def _touch_cache(self, fingerprint: str) -> None:
        if fingerprint in self._cache:
            self._cache_order.remove(fingerprint)
            self._cache_order.append(fingerprint)
