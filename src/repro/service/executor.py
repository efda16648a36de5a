"""Concurrent fault-isolated execution for the solve service.

This module is the layer between :class:`~repro.service.SolveService` and
the decision solvers: instead of solving inline on the caller's thread,
the service hands :class:`JobSpec` bundles to a :class:`WorkerPool` that
runs them on one of the :mod:`repro.parallel.backends` — serially
(``inline``, the default and the exact pre-executor semantics), on a
thread pool (NumPy releases the GIL in the GEMM-dominated kernels), or on
a process pool (crash isolation: a worker that dies takes no service
state with it).

The robustness contract, built on PR 6-8 machinery:

* **Heartbeats.**  Workers wire a ``DecisionOptions.heartbeat`` callback
  into every solve; each periodic checkpoint capture ships the freshest
  :class:`~repro.core.checkpoint.SolverCheckpoint` through the job's
  :class:`_MemoryChannel`/:class:`_FileChannel` and bumps a beat counter.
  The parent's watchdog measures staleness on *its own* clock from the
  moment it observes a new beat, so virtual-clock tests and cross-process
  deployments need no clock agreement.
* **Kill and requeue.**  A stalled or crashed job is cancelled (thread
  mode: cooperative, at the next heartbeat; process mode: cancel flag or
  genuine process death) and every request it carried is requeued from
  its latest shipped checkpoint.  Resume is bit-identical (the PR 8
  chaos contract), so *when* the kill lands can never change result bits.
* **Fault transport.**  The armed :mod:`~repro.robustness.faultinject`
  plan rides inside each job payload (:func:`~repro.robustness.faultinject.export_plan`)
  and is installed in pool workers whose process differs from the
  arming process; consumed-fire counters sync back on job completion so
  one-shot faults stay one-shot across the pool.
* **Injected process death.**  The ``worker.heartbeat`` fault site turns
  :class:`~repro.robustness.faultinject.Stall` into a park-until-killed
  hang and :class:`~repro.robustness.faultinject.WorkerCrash` into a
  worker death — a genuine ``os._exit`` in hard-crash process mode, a
  simulated unwind elsewhere.

Process-mode note: results cross the pool boundary by pickling, so the
worker drops the unpicklable deferred ``primal_builder`` closure
(``metadata["primal_deferred_dropped"] = True``).  Every *compared* field
of the result — certified outcome, dual witness bits, counters — is
unaffected; callers that need the primal matrix of a matrix-free solve
should use thread mode.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.batch import instance_rng, solve_many
from repro.core.checkpoint import SolverCheckpoint
from repro.core.decision import DecisionOptions, decision_psdp
from repro.core.result import DecisionResult
from repro.exceptions import BackendError, FaultInjected
from repro.operators.collection import ConstraintCollection
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.robustness import faultinject

__all__ = [
    "CircuitBreaker",
    "JobCancelled",
    "JobSpec",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerReport",
    "instance_family",
]


class JobCancelled(Exception):
    """Raised inside a worker (from the heartbeat hook) to unwind a killed job."""


class WorkerCrashed(Exception):
    """Simulated worker death (thread / soft-process mode of ``WorkerCrash``)."""


def instance_family(constraints: ConstraintCollection) -> tuple:
    """The circuit-breaker grouping key: ``(m, n, ranks)`` of an instance.

    Matches the fusion-gate grouping of :func:`~repro.core.batch.solve_many`:
    instances that batch together share failure modes (same shapes, same
    kernels), so the breaker isolates exactly the blast radius of one bad
    instance family.
    """
    ops = list(constraints.operators)
    ranks = tuple(getattr(op, "rank", None) for op in ops)
    return (int(constraints.dim), len(ops), ranks)


# --------------------------------------------------------------------------
# job payloads
# --------------------------------------------------------------------------

@dataclass
class JobSpec:
    """One unit of pool work: a batch of compatible requests or a solo resume.

    Everything a worker needs is in here (constraints, attempt-resolved
    options, the root seed, the serialized fault plan) so the payload is
    self-contained and — in process mode — picklable.  ``options`` must
    carry ``heartbeat=None``; the worker installs its own channel-wired
    callback.
    """

    job_id: int
    request_ids: list[int]
    constraints: list[ConstraintCollection]
    options: DecisionOptions
    seed: int
    checkpoint: SolverCheckpoint | None = None
    fault_plan: list[dict] | None = None
    plan_pid: int = 0
    hard_crash: bool = False
    #: True when the job crosses a process boundary (strip unpicklables).
    cross_process: bool = False


@dataclass
class WorkerReport:
    """What a finished (or dead) job hands back to the pool."""

    #: ``"done"`` | ``"cancelled"`` | ``"crashed"`` | ``"error"``
    status: str
    #: Per-request results, aligned with ``spec.request_ids`` (``done`` only).
    results: list[DecisionResult] | None = None
    detail: str = ""
    #: Fault-plan counter snapshot to sync back (cross-process jobs only).
    usage: list[dict] | None = None


# --------------------------------------------------------------------------
# heartbeat channels
# --------------------------------------------------------------------------

class _MemoryChannel:
    """In-memory heartbeat/cancel channel (inline and thread modes).

    The worker side records checkpoints and bumps the beat counter; the
    parent side reads the counter (progress detection), harvests shipped
    checkpoints, and sets the cancel flag.  ``parkable=False`` (inline
    mode) makes an injected stall unwind immediately instead of parking —
    the caller's thread *is* the worker, so nobody could ever cancel it.
    """

    def __init__(self, parkable: bool = True) -> None:
        self._lock = threading.Lock()
        self._beats = 0
        self._checkpoints: dict[int, SolverCheckpoint] = {}
        self._cancel = threading.Event()
        self.parkable = parkable

    # ---- worker side
    def record(self, request_id: int, checkpoint: SolverCheckpoint) -> None:
        with self._lock:
            self._checkpoints[int(request_id)] = checkpoint
            self._beats += 1

    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def park(self) -> None:
        """Injected-stall behaviour: hang, beat-free, until killed."""
        if not self.parkable:
            raise JobCancelled("injected stall (inline worker self-cancels)")
        self._cancel.wait()
        raise JobCancelled("stalled worker killed")

    # ---- parent side
    def beat_count(self) -> int:
        with self._lock:
            return self._beats

    def checkpoints(self) -> dict[int, SolverCheckpoint]:
        with self._lock:
            return dict(self._checkpoints)

    def cancel(self) -> None:
        self._cancel.set()


class _FileChannel:
    """File-backed heartbeat/cancel channel (process mode).

    Lives in its own directory under the pool's control dir.  Checkpoints
    are written with the atomic :func:`~repro.io.serialization.save_checkpoint`
    writer, so a worker killed mid-beat (the hard-crash chaos case) leaves
    either the previous checkpoint or the complete new one — never a
    truncated archive that would fail its SHA-256 check on requeue.  The
    beat counter is a tiny atomically-replaced text file.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.parkable = True

    # ---- worker side
    def record(self, request_id: int, checkpoint: SolverCheckpoint) -> None:
        from repro.io.serialization import save_checkpoint

        save_checkpoint(
            os.path.join(self.root, f"ckpt_{int(request_id)}.npz"), checkpoint
        )
        beats = self.beat_count() + 1
        tmp = os.path.join(self.root, f".beats.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(str(beats))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(self.root, "beats"))

    def cancelled(self) -> bool:
        return os.path.exists(os.path.join(self.root, "cancel"))

    def park(self) -> None:
        while not self.cancelled():  # pragma: no cover - timing loop
            time.sleep(0.005)
        raise JobCancelled("stalled worker killed")

    # ---- parent side
    def beat_count(self) -> int:
        try:
            with open(os.path.join(self.root, "beats"), encoding="ascii") as handle:
                return int(handle.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def checkpoints(self) -> dict[int, SolverCheckpoint]:
        from repro.exceptions import CheckpointError
        from repro.io.serialization import load_checkpoint

        shipped: dict[int, SolverCheckpoint] = {}
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - control dir vanished
            return shipped
        for name in names:
            if not (name.startswith("ckpt_") and name.endswith(".npz")):
                continue
            try:
                rid = int(name[len("ckpt_"):-len(".npz")])
                shipped[rid] = load_checkpoint(os.path.join(self.root, name))
            except (ValueError, CheckpointError):  # pragma: no cover - partial write
                continue
        return shipped

    def cancel(self) -> None:
        with open(os.path.join(self.root, "cancel"), "w", encoding="ascii") as handle:
            handle.write("1")


# --------------------------------------------------------------------------
# the worker harness (module-level: process pools must pickle it)
# --------------------------------------------------------------------------

def _strip_deferred_primal(result: DecisionResult) -> DecisionResult:
    """Drop the unpicklable deferred primal builder before a pickle boundary."""
    if result.primal_builder is not None:
        result.primal_builder = None
        result.metadata["primal_deferred_dropped"] = True
    return result


def _run_job(spec: JobSpec, channel) -> WorkerReport:
    """Execute one job inside a pool worker; always returns a typed report.

    The heartbeat wired into the solve does four things per beat, in
    order: ship the freshest checkpoint through the channel, pass through
    the ``worker.heartbeat`` fault site (where injected stalls park and
    injected worker-crashes kill), honour cooperative cancellation, and
    return to the solver.  Faults armed in another process are installed
    from the payload plan first (replacing any fork-inherited copy — see
    :func:`~repro.robustness.faultinject.install_plan`).
    """
    installed = None
    if spec.fault_plan is not None and spec.plan_pid != os.getpid():
        installed = faultinject.install_plan(spec.fault_plan)

    def usage() -> list[dict] | None:
        return None if installed is None else faultinject.plan_usage(installed)

    def heartbeat(checkpoint: SolverCheckpoint, instance: int | None) -> None:
        rid = spec.request_ids[0] if instance is None else int(instance)
        channel.record(rid, checkpoint)
        try:
            faultinject.fault_hook("worker.heartbeat")
        except FaultInjected as exc:
            kind = getattr(exc.kind, "name", "")
            if kind == "stall":
                channel.park()  # raises JobCancelled when killed
            if kind == "worker-crash":
                if spec.hard_crash:  # pragma: no cover - child process death
                    os._exit(17)
                raise WorkerCrashed(str(exc)) from exc
            raise
        if channel.cancelled():
            raise JobCancelled("job cancelled by the service")

    try:
        if channel.cancelled():
            return WorkerReport(
                status="cancelled", detail="cancelled before start", usage=usage()
            )
        if spec.checkpoint is not None:
            rid = spec.request_ids[0]
            opts = dataclasses.replace(
                spec.options,
                rng=instance_rng(spec.seed, rid),
                heartbeat=heartbeat,
            )
            results = [
                decision_psdp(
                    spec.constraints[0], options=opts, resume_from=spec.checkpoint
                )
            ]
        else:
            opts = dataclasses.replace(
                spec.options, rng=spec.seed, heartbeat=heartbeat
            )
            results = solve_many(
                spec.constraints,
                options=opts,
                rng_indices=list(spec.request_ids),
            )
        if spec.cross_process:
            results = [_strip_deferred_primal(r) for r in results]
        return WorkerReport(status="done", results=results, usage=usage())
    except JobCancelled as exc:
        return WorkerReport(status="cancelled", detail=str(exc), usage=usage())
    except WorkerCrashed as exc:
        return WorkerReport(status="crashed", detail=str(exc), usage=usage())
    except Exception as exc:  # noqa: BLE001 - typed transport, never raises
        return WorkerReport(
            status="error", detail=f"{type(exc).__name__}: {exc}", usage=usage()
        )


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _ActiveJob:
    """Parent-side tracking record for one in-flight job."""

    spec: JobSpec
    future: Any
    channel: Any
    seen_beats: int = 0
    last_progress: float = 0.0
    #: Latest shipped checkpoint per request id (harvested at each poll).
    shipped: dict[int, SolverCheckpoint] = field(default_factory=dict)
    #: Why the parent killed it (``None`` while alive): ``"watchdog"`` /
    #: ``"shutdown"``.
    killed: str | None = None


class WorkerPool:
    """Job-level concurrency over the :mod:`repro.parallel` backends.

    ``mode="inline"`` executes each job synchronously at submit time on a
    :class:`~repro.parallel.backends.SerialBackend` — byte-for-byte the
    pre-executor service behaviour.  ``"thread"`` and ``"process"`` run
    jobs on the corresponding pooled backend; the pool tracks heartbeats,
    harvests shipped checkpoints, and converts a broken process pool into
    typed crash reports plus a fresh pool (surviving work is requeued by
    the service, not lost).
    """

    def __init__(
        self,
        mode: str = "inline",
        workers: int = 1,
        *,
        clock: Callable[[], float] = time.monotonic,
        control_dir: str | None = None,
        hard_crash: bool = False,
    ) -> None:
        if mode not in ("inline", "thread", "process"):
            raise BackendError(
                f"unknown worker pool mode {mode!r}; expected inline, thread, or process"
            )
        if workers < 1:
            raise BackendError(f"workers must be >= 1, got {workers}")
        self.mode = mode
        self.workers = int(workers)
        self.clock = clock
        self.hard_crash = bool(hard_crash)
        self._control_dir = control_dir
        backend_name = {"inline": "serial", "thread": "thread", "process": "process"}[mode]
        self._backend: ExecutionBackend = get_backend(backend_name, max_workers=workers)
        self._jobs: dict[int, _ActiveJob] = {}
        self._next_job_id = 0

    # ------------------------------------------------------------------ submit
    def next_job_id(self) -> int:
        """Reserve the next monotonically increasing job id."""
        job_id = self._next_job_id
        self._next_job_id += 1
        return job_id

    def _make_channel(self, job_id: int):
        if self.mode == "process":
            root = self._control_dir
            if root is None:
                raise BackendError(
                    "process mode needs a control_dir for heartbeat files"
                )
            job_dir = os.path.join(root, f"job_{job_id}")
            os.makedirs(job_dir, exist_ok=True)
            return _FileChannel(job_dir)
        return _MemoryChannel(parkable=self.mode != "inline")

    def submit(self, spec: JobSpec) -> _ActiveJob:
        """Launch one job; the caller later harvests it through :meth:`poll`."""
        channel = self._make_channel(spec.job_id)
        if self.mode == "process":
            spec = dataclasses.replace(spec, cross_process=True, hard_crash=self.hard_crash)
        future = self._backend.submit(_run_job, spec, channel)
        job = _ActiveJob(
            spec=spec, future=future, channel=channel, last_progress=self.clock()
        )
        self._jobs[spec.job_id] = job
        return job

    # ------------------------------------------------------------------ harvest
    def observe(self) -> bool:
        """Harvest heartbeats: re-date progress and collect shipped checkpoints.

        Progress is dated on the *parent's* clock at the poll that first
        observes a new beat, so staleness needs no clock agreement with
        the worker (virtual parent clocks and cross-process monotonic
        clocks both just work).  Returns True when any job beat since the
        last observation — the drain loop's "real progress is happening,
        do not advance the virtual clock" signal.
        """
        now = self.clock()
        progressed = False
        for job in self._jobs.values():
            beats = job.channel.beat_count()
            if beats > job.seen_beats:
                job.seen_beats = beats
                job.last_progress = now
                job.shipped.update(job.channel.checkpoints())
                progressed = True
        return progressed

    def poll(self) -> list[tuple[_ActiveJob, WorkerReport]]:
        """Completed jobs since the last poll, in job-id order.

        A future that raises (a worker process died hard enough to break
        the :class:`~concurrent.futures.ProcessPoolExecutor`) is converted
        into a ``"crashed"`` report; the broken pool is torn down so the
        next submission gets a healthy one, and the dead worker's final
        checkpoints are recovered from its file channel.
        """
        self.observe()
        completed: list[tuple[_ActiveJob, WorkerReport]] = []
        broken_pool = False
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if not job.future.done():
                continue
            try:
                report = job.future.result()
            except Exception as exc:  # noqa: BLE001 - typed transport
                broken_pool = True
                report = WorkerReport(
                    status="crashed", detail=f"{type(exc).__name__}: {exc}"
                )
            job.shipped.update(job.channel.checkpoints())
            del self._jobs[job_id]
            completed.append((job, report))
        if broken_pool and hasattr(self._backend, "reset_pool"):
            self._backend.reset_pool()  # pragma: no cover - hard-crash process mode
        return completed

    def wait(self, timeout: float = 0.05) -> None:
        """Block (real time) until some in-flight future completes or ``timeout``."""
        pending = [job.future for job in self._jobs.values() if not job.future.done()]
        if pending:
            futures_wait(pending, timeout=timeout, return_when="FIRST_COMPLETED")

    # ------------------------------------------------------------------ control
    def in_flight(self) -> list[_ActiveJob]:
        """Jobs submitted but not yet harvested, in job-id order."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def kill(self, job_id: int, reason: str) -> None:
        """Cancel one job (cooperative: lands at its next heartbeat)."""
        job = self._jobs.get(job_id)
        if job is None or job.killed is not None:
            return
        job.killed = reason
        job.channel.cancel()

    def shutdown(self) -> None:
        """Close the underlying execution backend (idempotent)."""
        self._backend.close()


# --------------------------------------------------------------------------
# circuit breaker
# --------------------------------------------------------------------------

class CircuitBreaker:
    """Per-instance-family failure isolation with half-open probing.

    Closed → (``threshold`` consecutive failures) → open: the family is
    shed with a typed outcome instead of burning pool capacity on work
    that keeps exhausting recovery ladders or killing workers.  After
    ``cooldown`` seconds one probe request is admitted (half-open); its
    success closes the breaker, its failure re-opens and re-dates the
    cooldown.  All time flows through the service's injectable clock.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 60.0) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False

    def peek(self, now: float) -> str:
        """Gate one dispatch: ``"run"`` | ``"probe"`` | ``"wait"`` | ``"shed"``.

        Side-effect free, so the service can scan a whole ready queue
        without consuming probe slots; a caller that actually dispatches
        a ``"probe"`` verdict must follow up with :meth:`begin_probe`.
        """
        if self.state == "closed":
            return "run"
        if self.state == "open":
            return "probe" if now - self.opened_at >= self.cooldown else "shed"
        # half-open: one probe at a time; the rest hold (not shed — the
        # probe's verdict arrives within one job turnaround).
        return "wait" if self.probing else "probe"

    def begin_probe(self) -> None:
        """Commit the half-open probe slot to a dispatched job."""
        self.state = "half-open"
        self.probing = True

    def abort_probe(self) -> None:
        """Release the probe slot without a verdict (the probe was killed)."""
        if self.state == "half-open":
            self.probing = False

    def record_success(self) -> None:
        """A family job certified: close the breaker and reset the count."""
        self.state = "closed"
        self.failures = 0
        self.probing = False

    def record_failure(self, now: float) -> None:
        """A family job failed/crashed: trip the breaker at ``threshold``."""
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = now
            self.probing = False

    def next_transition(self) -> float | None:
        """When the open state can next change (drain's timer source)."""
        if self.state == "open":
            return self.opened_at + self.cooldown
        return None
