"""Work–depth (PRAM-style) parallel substrate.

The paper states its results in the classic *work–depth* model of parallel
computation: an algorithm is an NC algorithm when its depth (critical-path
length) is polylogarithmic and its work (total operation count) is
polynomial, and Corollary 1.2 bounds both quantities for the positive-SDP
solver.  Reproducing those claims requires a substrate that (a) executes
the solver's per-constraint maps, and (b) *accounts* for the work and depth
each step contributes.

* :mod:`repro.parallel.workdepth` — the cost model: :class:`WorkDepthTracker`
  accumulates work/depth, supports nested parallel regions (work adds,
  depth takes the maximum across parallel branches), and produces
  :class:`WorkDepthReport` summaries.
* :mod:`repro.parallel.backends` — execution backends: serial (default),
  thread pool, and process pool.  Each runs a cost-annotated parallel
  ``map`` and charges the solver's bulk steps (``charge``,
  ``charge_batched``).  The backend only changes how the work is
  *executed*; the work–depth accounting is identical across backends, which
  is what lets the cost model act as the machine-independent measurement
  the paper's bounds refer to.
* :mod:`repro.parallel.scheduler` — Brent's-theorem style scheduling
  estimates (simulated running time on ``p`` processors) used by experiment
  E10.
"""

from repro.parallel.workdepth import WorkDepthTracker, WorkDepthReport, parallel_region
from repro.parallel.backends import (
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    ProcessBackend,
    get_backend,
)
from repro.parallel.scheduler import BrentSchedule, simulate_schedule

__all__ = [
    "WorkDepthTracker",
    "WorkDepthReport",
    "parallel_region",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "BrentSchedule",
    "simulate_schedule",
]
