"""Numerical fault supervision: demotion ladders, budgets, fault injection.

The subsystem has two halves:

* :mod:`repro.robustness.supervisor` — the production half.
  :class:`FastPathSupervisor` wraps the decision solvers' fast-path stages
  (Taylor kernel, trace estimator, certified ``lambda_max``, implicit
  ``PsiState``) and demotes a failing stage one rung down its ladder
  instead of letting the solve die, recording every event; solve budgets
  (wall-clock / iteration / recovery caps) turn exhaustion into
  best-effort results with an explicit
  :class:`~repro.core.result.SolveStatus`.
* :mod:`repro.robustness.faultinject` — the test half.  A deterministic,
  seeded, site-addressable fault injector (:func:`inject`) that drives the
  chaos suite proving each ladder rung recovers to the identical
  fixed-seed certified decision.

See ``docs/ROBUSTNESS.md`` for the ladder diagram and the
``SolveStatus`` contract.
"""

from repro.robustness.faultinject import (
    Crash,
    FaultKind,
    FaultSpec,
    NaN,
    NonConvergent,
    Overflow,
    Stall,
    WorkerCrash,
    clear_faults,
    export_plan,
    fault_hook,
    fault_hook_array,
    inject,
    install_plan,
)
from repro.robustness.supervisor import FastPathSupervisor, RecoveryEvent

__all__ = [
    "Crash",
    "FaultKind",
    "FaultSpec",
    "FastPathSupervisor",
    "NaN",
    "NonConvergent",
    "Overflow",
    "RecoveryEvent",
    "Stall",
    "WorkerCrash",
    "clear_faults",
    "export_plan",
    "fault_hook",
    "fault_hook_array",
    "inject",
    "install_plan",
]
