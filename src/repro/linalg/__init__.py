"""Dense PSD linear-algebra substrate.

This subpackage provides the matrix primitives the positive-SDP solver is
built on:

* :mod:`repro.linalg.psd` — positive-semidefiniteness checks, Loewner-order
  comparisons, projection to the PSD cone.
* :mod:`repro.linalg.factorization` — Gram factorizations ``A = Q Q^T``,
  inverse square roots ``C^{-1/2}`` (Appendix A of the paper), pivoted
  Cholesky.
* :mod:`repro.linalg.expm` — exact (eigendecomposition-based) matrix
  exponentials and exponential-weighted trace products, the reference
  implementation of the oracle used in each solver iteration.
* :mod:`repro.linalg.taylor` — the truncated-Taylor approximation of
  ``exp(B)`` from Lemma 4.2 (Arora–Kale Lemma 6), with the paper's degree
  rule ``k = max(e^2 * kappa, ln(2/eps))``.
* :mod:`repro.linalg.taylor_blocked` — the blocked/fused evaluation of the
  same polynomial on an entire ``(m, s)`` block at once: Horner-style fused
  products against a dense or sparse ``Psi`` or a sparse scaled factor
  stack.
* :mod:`repro.linalg.taylor_gram` — the rank-adaptive exponential engine:
  the ``R x R`` Gram-twin spectral kernel (``2R <= 1.1 m``), the
  measured-cost kernel selection policy, and the
  :class:`~repro.linalg.taylor_gram.TaylorEngine` that builds each call's
  kernel from that call's weights.
* :mod:`repro.linalg.trace_estimation` — the oracle's trace normalisation
  ``Tr[exp(Psi)]`` in the degenerate-sketch regime from the smaller twin:
  the exact ``R x R`` Gram spectrum whenever ``R <= m``, replacing the
  per-call full-identity Taylor apply, which stays for ``R > m``.
* :mod:`repro.linalg.sketching` — Johnson–Lindenstrauss Gaussian sketching
  used by the nearly-linear-work oracle of Theorem 4.1.
* :mod:`repro.linalg.norms` — the certified Lemma 4.2 ``kappa`` rule,
  spectral-norm estimation (power iteration and Lanczos), trace inner
  products, and eigenvalue helpers.
"""

from repro.linalg.psd import (
    is_psd,
    check_psd,
    min_eigenvalue,
    max_eigenvalue,
    loewner_leq,
    project_to_psd,
    nearest_psd,
    random_psd,
)
from repro.linalg.factorization import (
    gram_factor,
    gram_factor_lowrank,
    inverse_sqrt,
    sqrt_psd,
    pivoted_cholesky,
)
from repro.linalg.expm import (
    expm_psd,
    expm_eigh,
    expm_dot,
    expm_dot_many,
    expm_trace,
    expm_normalized,
)
from repro.linalg.taylor import (
    taylor_degree,
    taylor_expm_apply,
    taylor_expm_matrix,
    TaylorExpmOperator,
)
from repro.linalg.taylor_blocked import BlockedTaylorKernel
from repro.linalg.taylor_gram import (
    GramTaylorKernel,
    TaylorEngine,
    select_taylor_mode,
)
from repro.linalg.trace_estimation import (
    TraceEstimate,
    TraceEstimator,
    gram_exp_trace,
    select_trace_mode,
)
from repro.linalg.sketching import (
    jl_dimension,
    gaussian_sketch,
    sketch_columns,
    SketchedNormEstimator,
)
from repro.linalg.norms import (
    spectral_norm,
    spectral_norm_power,
    spectral_norm_lanczos,
    top_eigenvalue,
    trace_product,
    frobenius_inner,
)

__all__ = [
    "is_psd",
    "check_psd",
    "min_eigenvalue",
    "max_eigenvalue",
    "loewner_leq",
    "project_to_psd",
    "nearest_psd",
    "random_psd",
    "gram_factor",
    "gram_factor_lowrank",
    "inverse_sqrt",
    "sqrt_psd",
    "pivoted_cholesky",
    "expm_psd",
    "expm_eigh",
    "expm_dot",
    "expm_dot_many",
    "expm_trace",
    "expm_normalized",
    "taylor_degree",
    "taylor_expm_apply",
    "taylor_expm_matrix",
    "TaylorExpmOperator",
    "BlockedTaylorKernel",
    "GramTaylorKernel",
    "TaylorEngine",
    "select_taylor_mode",
    "TraceEstimate",
    "TraceEstimator",
    "gram_exp_trace",
    "select_trace_mode",
    "jl_dimension",
    "gaussian_sketch",
    "sketch_columns",
    "SketchedNormEstimator",
    "spectral_norm",
    "spectral_norm_power",
    "spectral_norm_lanczos",
    "top_eigenvalue",
    "trace_product",
    "frobenius_inner",
]
