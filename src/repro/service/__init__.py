"""Resilient serving layer for decision solves.

:class:`SolveService` turns the one-shot solvers into a deterministic
request queue: deadline-aware admission, priority scheduling, batching of
compatible requests through :func:`~repro.core.batch.solve_many`,
checkpoint/resume of budget-exhausted work, retry with capped exponential
backoff for failed solves, an instance-fingerprint result cache, and
graceful load shedding — every terminal condition is a typed
:class:`RequestOutcome`, never an exception and never a silent drop.

:mod:`repro.service.executor` adds the concurrent execution layer: a
:class:`WorkerPool` over the :mod:`repro.parallel` backends (inline /
thread / process), heartbeat watchdogs with checkpointed kill-and-requeue,
per-instance-family :class:`CircuitBreaker` isolation,
and graceful drain-to-:attr:`RequestOutcome.SUSPENDED` shutdown — all
without perturbing a single result bit.
"""

from repro.service.executor import (
    CircuitBreaker,
    JobSpec,
    WorkerPool,
    WorkerReport,
    instance_family,
)
from repro.service.solve_service import (
    RequestOutcome,
    ServiceResponse,
    SolveService,
    VirtualClock,
)

__all__ = [
    "CircuitBreaker",
    "JobSpec",
    "RequestOutcome",
    "ServiceResponse",
    "SolveService",
    "VirtualClock",
    "WorkerPool",
    "WorkerReport",
    "instance_family",
]
