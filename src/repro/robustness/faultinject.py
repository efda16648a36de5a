"""Deterministic, site-addressable fault injection for the fast paths.

The chaos suite (``tests/test_robustness_faultinject.py``) needs to prove
that every rung of the kernel-demotion ladder actually recovers — which
requires *causing* each failure class on demand, reproducibly.  This module
provides that: a seeded plan of :class:`FaultSpec` entries, armed through
the :func:`inject` context manager, and two cheap hooks compiled into the
production kernels:

* :func:`fault_hook_array` — corrupts a freshly computed array in place
  (NaN / infinity at a seed-deterministic position) so the kernel's *own*
  organic finiteness check fires.  The chaos tests therefore exercise the
  real detection code, not a parallel test-only branch.
* :func:`fault_hook` — raises :class:`~repro.exceptions.FaultInjected`
  (a :class:`~repro.exceptions.NumericalError`) for failure classes that
  manifest as exceptions rather than bad data: Lanczos or trace-estimator
  non-convergence, and crash-style faults.

Happy-path cost is one module-global truthiness check per instrumented
site (the plan list is empty outside ``inject`` blocks), measured at well
under the 2% supervision-overhead ceiling in ``docs/PERFORMANCE.md``.

Example
-------
>>> from repro.robustness import inject, NaN
>>> with inject("taylor_gram.apply", NaN):
...     result = decision_psdp(problem, epsilon=0.25)   # doctest: +SKIP
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import FaultInjected


class FaultKind:
    """Base marker for injectable failure classes.

    Subclasses declare ``name`` (human-readable tag recorded on the raised
    :class:`~repro.exceptions.FaultInjected` and in recovery events) and
    ``corrupts``: corrupting kinds poison an output array so the kernel's
    organic finiteness check detects them; non-corrupting kinds raise
    directly at the hook.
    """

    name = "fault"
    corrupts = False
    fill = float("nan")
    #: Fatal kinds model a died worker rather than a numerical breakdown:
    #: no demotion rung can absorb them, so the supervisor fails the solve
    #: immediately and the serving layer's retry/backoff takes over.
    fatal = False


class NaN(FaultKind):
    """Poison one entry of a kernel's output with ``nan`` (silent data fault)."""

    name = "nan"
    corrupts = True
    fill = float("nan")


class Overflow(FaultKind):
    """Poison one entry of a kernel's output with ``inf`` (overflow fault)."""

    name = "overflow"
    corrupts = True
    fill = float("inf")


class NonConvergent(FaultKind):
    """An iterative eigensolver (Lanczos / power iteration) fails to converge."""

    name = "non-convergent"
    corrupts = False


class Crash(FaultKind):
    """The worker executing the kernel dies mid-call (crash-style fault).

    Unlike the numerical kinds, a crash is *fatal*: the demotion ladder
    cannot absorb it, the supervised solve fails (``SolveStatus.FAILED``,
    carrying its latest periodic checkpoint), and recovery belongs to the
    serving layer (:class:`~repro.service.SolveService` retry/backoff).
    """

    name = "crash"
    corrupts = False
    fatal = True


class Stall(FaultKind):
    """The worker stops making progress but never dies (hang-style fault).

    Fired at the executor's ``worker.heartbeat`` site: the worker parks
    without emitting further heartbeats, so the pool's watchdog is the
    *only* thing that can recover the job — it detects the stale
    heartbeat, kills the worker, and requeues the request from its latest
    shipped :class:`~repro.core.checkpoint.SolverCheckpoint`.
    """

    name = "stall"
    corrupts = False
    fatal = True


class WorkerCrash(FaultKind):
    """The whole pool worker dies mid-job (process-death fault).

    Unlike :class:`Crash` (which the supervised solve converts into a
    ``FAILED`` *result*), a worker crash returns no result at all: the
    executor observes a dead worker and requeues every request the job
    carried from its latest shipped checkpoint.  In process pools with
    hard-crash mode the worker genuinely ``os._exit``\\ s; in thread pools
    the death is simulated (the job unwinds and reports itself crashed,
    dropping all in-worker state the heartbeats had not shipped).
    """

    name = "worker-crash"
    corrupts = False
    fatal = True


@dataclass
class FaultSpec:
    """One armed fault: fire ``times`` times starting at call ``at_call``.

    Calls are counted per spec at the matching site, starting from 1, so
    ``at_call=3`` leaves the first two kernel invocations clean.  ``seed``
    determines which entry of the output array a corrupting fault poisons.

    ``at_time`` arms the fault on the wall clock instead: calls at the
    site are not even counted until ``clock()`` reaches ``at_time``, after
    which the ``at_call``/``times`` window applies as usual.  With an
    injectable ``clock`` (the service's virtual clock in tests) this models
    "the worker crashes N seconds into the run" deterministically.
    """

    site: str
    kind: type[FaultKind]
    at_call: int = 1
    times: int = 1
    seed: int = 0
    at_time: float | None = None
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    calls_seen: int = 0
    fires: int = 0


#: Active fault plan.  Empty outside :func:`inject` blocks, which is what
#: keeps the production hooks nearly free on the happy path.
_PLAN: list[FaultSpec] = []


@contextlib.contextmanager
def inject(
    site: str,
    kind: type[FaultKind],
    at_call: int = 1,
    times: int = 1,
    seed: int = 0,
    at_time: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[FaultSpec]:
    """Arm one deterministic fault for the duration of the ``with`` block.

    Parameters
    ----------
    site:
        Instrumented site identifier — see :data:`SITES` for the list.
    kind:
        One of :class:`NaN`, :class:`Overflow`, :class:`NonConvergent`,
        :class:`Crash`, :class:`Stall`, :class:`WorkerCrash`.
    at_call / times:
        Fire on calls ``at_call .. at_call + times - 1`` (1-based) of the
        site, counted within this block.
    seed:
        Seeds the corrupted-entry position for array faults.
    at_time / clock:
        Clock-based arming: site calls are ignored (not counted) until
        ``clock()`` reaches ``at_time``; the ``at_call``/``times`` window
        then applies to the calls that follow.  Pass a virtual clock for
        deterministic crash-at-time chaos tests.

    Yields the live :class:`FaultSpec`; its ``fires`` counter lets tests
    assert the fault actually triggered.
    """
    spec = FaultSpec(
        site=site, kind=kind, at_call=at_call, times=times, seed=seed,
        at_time=at_time, clock=clock,
    )
    _PLAN.append(spec)
    try:
        yield spec
    finally:
        # clear_faults() may already have disarmed the spec.
        if spec in _PLAN:
            _PLAN.remove(spec)


def clear_faults() -> None:
    """Disarm every active fault (safety net for test teardown)."""
    _PLAN.clear()


#: Registry used by :func:`install_plan` to rebuild kinds from their names.
_KINDS_BY_NAME: dict[str, type[FaultKind]] = {
    cls.name: cls
    for cls in (NaN, Overflow, NonConvergent, Crash, Stall, WorkerCrash)
}


def export_plan() -> list[dict]:
    """Serialize the armed plan into a list of plain-dict specs.

    The executor ships this snapshot inside every job payload so faults
    armed in the *parent* fire inside *pool worker processes* too — module
    globals (the live ``_PLAN`` list) do not cross a process boundary, and
    a pool forked before :func:`inject` ran would otherwise silently solve
    fault-free.  Custom ``clock`` callables are not exported (a parent's
    virtual clock is meaningless in a child); clock-armed specs fall back
    to ``time.monotonic`` on install, which on Linux is comparable across
    processes.
    """
    return [
        {
            "site": spec.site,
            "kind": spec.kind.name,
            "at_call": spec.at_call,
            "times": spec.times,
            "seed": spec.seed,
            "at_time": spec.at_time,
            "calls_seen": spec.calls_seen,
            "fires": spec.fires,
        }
        for spec in _PLAN
    ]


def install_plan(plan: list[dict], *, replace: bool = True) -> list[FaultSpec]:
    """Arm an :func:`export_plan` snapshot in this process; returns the specs.

    ``replace=True`` (the default) clears whatever is currently armed
    first: a forked pool worker may have *inherited* the parent's plan at
    fork time, and re-arming the payload copy on top would double-fire
    every spec.  Counters (``calls_seen``/``fires``) carry over from the
    snapshot so a fault consumed by an earlier job does not re-fire when a
    later job installs the refreshed plan.
    """
    if replace:
        _PLAN.clear()
    installed = []
    for entry in plan:
        kind = _KINDS_BY_NAME.get(entry["kind"])
        if kind is None:
            raise ValueError(f"unknown fault kind {entry['kind']!r} in plan")
        spec = FaultSpec(
            site=entry["site"],
            kind=kind,
            at_call=int(entry["at_call"]),
            times=int(entry["times"]),
            seed=int(entry["seed"]),
            at_time=entry.get("at_time"),
            calls_seen=int(entry.get("calls_seen", 0)),
            fires=int(entry.get("fires", 0)),
        )
        _PLAN.append(spec)
        installed.append(spec)
    return installed


def plan_usage(specs: list[FaultSpec]) -> list[dict]:
    """Counter snapshot (``calls_seen``/``fires``) for installed specs."""
    return [
        {"calls_seen": spec.calls_seen, "fires": spec.fires} for spec in specs
    ]


def consume_plan_usage(usage: list[dict]) -> None:
    """Fold a worker's :func:`plan_usage` back into the armed parent plan.

    Matches by position (the payload plan was exported in ``_PLAN`` order)
    and only ever advances counters, so a one-shot fault consumed inside a
    pool worker stays consumed when the next job exports the plan again.
    A length mismatch (specs disarmed while the job ran) is ignored for
    the tail — the surviving prefix still syncs.
    """
    for spec, used in zip(_PLAN, usage):
        spec.calls_seen = max(spec.calls_seen, int(used.get("calls_seen", 0)))
        spec.fires = max(spec.fires, int(used.get("fires", 0)))


#: Instrumented production sites and the failure classes they accept.
SITES = {
    "taylor_gram.apply": "Gram-space Taylor kernel and fused-batch column values (NaN / Overflow)",
    "taylor_blocked.apply": "blocked fused Taylor kernel output (NaN / Overflow)",
    "taylor.reference": "reference per-term Taylor apply output (NaN / Overflow)",
    "lanczos": "ARPACK top-eigenvalue call (NonConvergent)",
    "trace_estimation": (
        "structured trace estimator entry; fused-batch Gram spectrum, once "
        "per instance row (NonConvergent)"
    ),
    "psi_state.matvec": "implicit PsiState packed matvec output (NaN / Overflow)",
    "psi_state.lambda_max": "PsiState certified lambda_max, twin or Lanczos branch (NonConvergent)",
    "worker.heartbeat": "executor worker heartbeat (Stall / WorkerCrash)",
}


def _armed(site: str, corrupts: bool) -> FaultSpec | None:
    """Return the first armed spec due to fire at ``site``, advancing counters."""
    for spec in _PLAN:
        if spec.site != site or spec.kind.corrupts is not corrupts:
            continue
        if spec.at_time is not None and spec.clock() < spec.at_time:
            continue
        spec.calls_seen += 1
        if spec.at_call <= spec.calls_seen < spec.at_call + spec.times:
            spec.fires += 1
            return spec
    return None


def fault_hook(site: str, kernel_mode: str | None = None) -> None:
    """Raise :class:`FaultInjected` if a non-corrupting fault is due at ``site``."""
    if not _PLAN:
        return
    spec = _armed(site, corrupts=False)
    if spec is not None:
        raise FaultInjected(
            f"injected {spec.kind.name} fault at site {site!r}",
            site=site,
            kernel_mode=kernel_mode,
            kind=spec.kind,
        )


def fault_hook_array(site: str, array: np.ndarray) -> np.ndarray:
    """Poison ``array`` in place if a corrupting fault is due at ``site``.

    Returns ``array`` (always the same object) so call sites can stay
    expression-shaped.  The poisoned position is drawn from
    ``default_rng((seed, fire_index))`` — fixed seeds give bit-identical
    corruption across runs.
    """
    if not _PLAN:
        return array
    spec = _armed(site, corrupts=True)
    if spec is not None and array.size:
        rng = np.random.default_rng((spec.seed, spec.fires))
        array.flat[int(rng.integers(0, array.size))] = spec.kind.fill
    return array
