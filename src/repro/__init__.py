"""repro: width-independent parallel positive semidefinite programming.

A reproduction of "Faster and Simpler Width-Independent Parallel Algorithms
for Positive Semidefinite Programming" (Peng, Tangwongsan, Zhang; SPAA 2012
/ arXiv:1201.5135v3) as a reusable library:

* :mod:`repro.core` — the width-independent solver: the ε-decision routine
  (Algorithm 3.1), the full binary-search optimizer (Theorem 1.1 /
  Lemma 2.2), the MMW framework (Theorem 2.1) and the fast
  exponential-dot-product oracle (Theorem 4.1).
* :mod:`repro.linalg`, :mod:`repro.operators` — the PSD linear-algebra and
  constraint-representation substrates.
* :mod:`repro.parallel` — the work–depth cost model and execution backends.
* :mod:`repro.lp` — positive LP solvers (Young, Luby–Nisan), the diagonal
  special case.
* :mod:`repro.baselines` — width-dependent MMW, a Jain–Yao style primal
  updater, and exact references.
* :mod:`repro.problems` — synthetic and application-derived workloads.
* :mod:`repro.instrumentation`, :mod:`repro.io` — experiment plumbing.

Quickstart
----------
>>> import numpy as np
>>> from repro import NormalizedPackingSDP, approx_psdp
>>> from repro.problems import random_packing_sdp
>>> problem = random_packing_sdp(n=6, m=8, rng=0)
>>> result = approx_psdp(problem, epsilon=0.25)
>>> result.optimum_lower <= result.optimum_upper
True
"""

from repro.config import ReproConfig, config_override, get_config, set_config
from repro.core import (
    DecisionOptions,
    DecisionOutcome,
    DecisionResult,
    NormalizedPackingSDP,
    PositiveSDP,
    SolveResult,
    SolveStatus,
    SolverOptions,
    approx_psdp,
    big_dot_exp,
    decision_psdp,
    decision_psdp_phased,
    SolverCheckpoint,
    instance_rng,
    normalize_sdp,
    solve_many,
    verify_dual,
    verify_primal,
)
from repro.exceptions import (
    BudgetExhaustedError,
    CertificateError,
    CheckpointError,
    FaultInjected,
    InvalidProblemError,
    NotPositiveSemidefiniteError,
    NumericalError,
    ReproError,
    SerializationError,
    SolverError,
)
from repro.operators import ConstraintCollection, as_operator
from repro.service import (
    CircuitBreaker,
    RequestOutcome,
    ServiceResponse,
    SolveService,
    VirtualClock,
    WorkerPool,
)

__all__ = [
    "ReproConfig",
    "config_override",
    "get_config",
    "set_config",
    "DecisionOptions",
    "DecisionOutcome",
    "DecisionResult",
    "NormalizedPackingSDP",
    "PositiveSDP",
    "SolveResult",
    "SolveStatus",
    "SolverCheckpoint",
    "SolverOptions",
    "approx_psdp",
    "big_dot_exp",
    "decision_psdp",
    "decision_psdp_phased",
    "instance_rng",
    "normalize_sdp",
    "solve_many",
    "verify_dual",
    "verify_primal",
    "BudgetExhaustedError",
    "CertificateError",
    "CheckpointError",
    "FaultInjected",
    "InvalidProblemError",
    "NotPositiveSemidefiniteError",
    "NumericalError",
    "ReproError",
    "SerializationError",
    "SolverError",
    "ConstraintCollection",
    "as_operator",
    "CircuitBreaker",
    "RequestOutcome",
    "ServiceResponse",
    "SolveService",
    "VirtualClock",
    "WorkerPool",
]

__version__ = "1.0.0"
