"""Execution backends: how the solver's parallel maps run, and what they cost.

A backend decides *how* a parallel map is executed (serially, in a thread
pool, or in a process pool) and owns an optional
:class:`~repro.parallel.workdepth.WorkDepthTracker` so that executed maps
and the solver's direct ``charge`` calls are charged to the cost model
regardless of the execution strategy.  The cost accounting is deliberately
identical across backends: the paper's work/depth bounds are
machine-independent model quantities, so the choice of backend must not
change the measured work or depth — only the wall-clock time.

Notes on Python parallelism: thread pools only help for workloads that
release the GIL (large NumPy operations do); process pools require the
mapped function and items to be picklable.  The default backend is serial,
which is also the fastest option for the small per-item tasks that dominate
this library on a single-core container.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.exceptions import BackendError
from repro.parallel.workdepth import WorkDepthTracker

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(abc.ABC):
    """Interface shared by all execution backends."""

    def __init__(self, tracker: WorkDepthTracker | None = None) -> None:
        self.tracker = tracker

    # ------------------------------------------------------------------ plumbing
    def _charge_map(
        self,
        count: int,
        work_per_item: Sequence[float] | float | None,
        label: str,
    ) -> None:
        """Charge a parallel map of ``count`` items to the tracker (if any).

        Work is the sum of the per-item costs; depth is the maximum per-item
        cost (all items are independent, so in the work–depth model they run
        in parallel).
        """
        if self.tracker is None or count == 0:
            return
        if work_per_item is None:
            works = [1.0] * count
        elif isinstance(work_per_item, (int, float)):
            works = [float(work_per_item)] * count
        else:
            works = [float(w) for w in work_per_item]
            if len(works) != count:
                raise BackendError(
                    f"work_per_item has {len(works)} entries for {count} items"
                )
        self.tracker.charge(sum(works), max(works), label=label or "parallel-map")

    @abc.abstractmethod
    def _execute(self, func: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Run ``func`` over ``items`` and return results in order."""

    # ------------------------------------------------------------------ public API
    def map(
        self,
        func: Callable[[T], R],
        items: Iterable[T],
        work_per_item: Sequence[float] | float | None = None,
        label: str = "",
    ) -> list[R]:
        """Apply ``func`` to every item, preserving order, charging the tracker."""
        items = list(items)
        self._charge_map(len(items), work_per_item, label)
        if not items:
            return []
        return self._execute(func, items)

    def charge(
        self,
        work: float,
        depth: float | None = None,
        label: str = "",
    ) -> None:
        """Charge one already-executed computation to the tracker (if any).

        Thin passthrough to :meth:`WorkDepthTracker.charge` so components
        that are handed a backend (rather than a tracker) can record model
        costs — e.g. the rank-adaptive Taylor engine charges each call's
        kernel build (densified ``Psi`` or scaled stack) under
        the ``taylor-engine-update`` label.  A backend without a tracker
        ignores the charge.
        """
        if self.tracker is not None:
            self.tracker.charge(work, depth, label=label)

    def charge_batched(
        self,
        count: int,
        work_per_item: Sequence[float] | float | None = None,
        label: str = "",
    ) -> None:
        """Charge ``count`` logically parallel items computed by one batched call.

        Some per-constraint maps collapse into a single BLAS kernel (e.g. the
        packed trace-product pass of
        :meth:`~repro.operators.collection.ConstraintCollection.dots`).  The
        work–depth model must not notice the difference: this charges exactly
        what :meth:`map` would — work = sum of the per-item costs, depth =
        their maximum — while the caller performs the computation itself.
        """
        self._charge_map(count, work_per_item, label)

    def submit(self, func: Callable[..., R], *args: Any) -> "Future[R]":
        """Schedule one call and return its :class:`~concurrent.futures.Future`.

        The asynchronous sibling of :meth:`map`, used by the service
        executor to run whole solve jobs concurrently.  The serial backend
        executes the call *immediately* in the calling thread and returns
        an already-resolved future, so callers can treat all backends
        uniformly.  No model cost is charged here — jobs charge their own
        trackers internally (a solve carries its
        :class:`~repro.parallel.workdepth.WorkDepthTracker` with it).
        """
        future: Future[R] = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(func(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Release any pooled resources (no-op for stateless backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run everything sequentially in the calling thread (the default)."""

    def _execute(self, func: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [func(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Run map items on a shared :class:`ThreadPoolExecutor`.

    Suitable when the per-item work is dominated by NumPy/SciPy calls that
    release the GIL (dense matrix products, eigendecompositions).
    """

    def __init__(self, max_workers: int = 4, tracker: WorkDepthTracker | None = None) -> None:
        super().__init__(tracker)
        if max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _execute(self, func: Callable[[T], R], items: Sequence[T]) -> list[R]:
        pool = self._ensure_pool()
        return list(pool.map(func, items))

    def submit(self, func: Callable[..., R], *args: Any) -> "Future[R]":
        return self._ensure_pool().submit(func, *args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """Run map items on a :class:`ProcessPoolExecutor`.

    Requires picklable functions and items; intended for coarse-grained
    per-item work (e.g. solving many independent instances in a parameter
    sweep).
    """

    def __init__(self, max_workers: int = 2, tracker: WorkDepthTracker | None = None) -> None:
        super().__init__(tracker)
        if max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _execute(self, func: Callable[[T], R], items: Sequence[T]) -> list[R]:
        pool = self._ensure_pool()
        try:
            return list(pool.map(func, items))
        except Exception as exc:  # pragma: no cover - depends on pickling environment
            raise BackendError(f"process pool execution failed: {exc}") from exc

    def submit(self, func: Callable[..., R], *args: Any) -> "Future[R]":
        return self._ensure_pool().submit(func, *args)

    def reset_pool(self) -> None:
        """Tear down a (possibly broken) pool; the next use builds a fresh one.

        A worker that hard-exits marks the whole :class:`ProcessPoolExecutor`
        broken; every queued and future submission then fails.  The executor
        calls this after absorbing a :class:`BrokenProcessPool` so surviving
        jobs can be requeued onto a healthy pool.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def get_backend(
    name: str = "serial",
    max_workers: int | None = None,
    tracker: WorkDepthTracker | None = None,
) -> ExecutionBackend:
    """Factory for backends by name: ``"serial"``, ``"thread"``, ``"process"``."""
    name = name.lower()
    if name == "serial":
        return SerialBackend(tracker=tracker)
    if name == "thread":
        return ThreadBackend(max_workers=max_workers or 4, tracker=tracker)
    if name == "process":
        return ProcessBackend(max_workers=max_workers or 2, tracker=tracker)
    raise BackendError(f"unknown backend {name!r}; expected serial, thread, or process")
