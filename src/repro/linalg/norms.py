"""Spectral norms, trace inner products, and related estimators.

The solver needs ``||Phi||_2`` upper bounds (to pick the Taylor degree in
Theorem 4.1, Lemma 3.5 guarantees ``||Phi||_2 <= O(log(n)/eps)`` for the
matrices it exponentiates) and trace inner products ``A . B = Tr[A B]``
throughout.  :func:`certified_lambda_max` is the one rule that turns a
spectrum, a small matrix or a matvec into a bound
``lambda >= lambda_max(Phi)``, and :func:`certified_kappa` floors it at 1
for the Lemma 4.2 ``kappa >= ||Phi||_2``.
:func:`proves_lambda_max_below` proves a given bound with one Cholesky
instead of computing a spectrum, and
:func:`square_decides_lambda_max_below` settles it, when it can, from the
matrix's square alone;
for matrices given only through matrix–vector products we also provide
power iteration and a Lanczos-based estimator built on
``scipy.sparse.linalg.eigsh``.

The estimators here are drivers over the caller's matvec callable: they
hand it NumPy vectors and consume NumPy vectors back, so the packed and
Taylor kernels plug in unchanged.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf

from repro.config import get_config
from repro.exceptions import NumericalError
from repro.robustness.faultinject import fault_hook
from repro.utils.random_utils import RandomState, as_generator
from repro.utils.validation import check_symmetric


def trace_product(a: np.ndarray | sp.spmatrix, b: np.ndarray | sp.spmatrix) -> float:
    """Trace inner product ``A . B = Tr[A B] = sum_ij A_ij B_ij`` (Section 2.1).

    For symmetric inputs the elementwise form is used because it is
    ``O(m^2)`` rather than the ``O(m^3)`` of forming the product ``A B``.
    """
    if sp.issparse(a) or sp.issparse(b):
        a_sp = sp.csr_matrix(a)
        b_sp = sp.csr_matrix(b)
        if a_sp.shape != b_sp.shape:
            raise ValueError(f"shape mismatch: {a_sp.shape} vs {b_sp.shape}")
        return float(a_sp.multiply(b_sp).sum())
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError(f"shape mismatch: {a_arr.shape} vs {b_arr.shape}")
    return float(np.sum(a_arr * b_arr))


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product; identical to :func:`trace_product` for symmetric inputs."""
    return trace_product(a, b)


def spectral_norm_power(
    matvec: Callable[[np.ndarray], np.ndarray] | np.ndarray | sp.spmatrix,
    dim: int | None = None,
    tol: float | None = None,
    maxiter: int | None = None,
    rng: RandomState = None,
    v0: np.ndarray | None = None,
    return_vector: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Estimate the spectral norm of a symmetric PSD operator by power iteration.

    Accepts a dense matrix, a sparse matrix, or a matvec callable (in which
    case ``dim`` is required).  Convergence is declared when the Rayleigh
    quotient changes by less than ``tol`` relatively between iterations.

    Parameters
    ----------
    v0:
        Optional start vector (normalised internally; ``rng`` is not
        consumed when given).  A start vector forfeits the random start's
        overlap guarantee: if the operator's dominant eigendirection is
        orthogonal to ``v0``, the stopping rule fires on another direction
        and under-estimates the norm.  The Rayleigh quotient is a lower
        estimate in any case, which is why the Lemma 4.2 degree takes its
        ``kappa`` from :func:`certified_kappa` instead.
    return_vector:
        When ``True`` return ``(estimate, vector)`` where ``vector`` is the
        last normalised iterate.
    """
    cfg = get_config()
    tol = cfg.power_iteration_tol if tol is None else tol
    maxiter = cfg.power_iteration_maxiter if maxiter is None else maxiter

    if callable(matvec) and not isinstance(matvec, np.ndarray) and not sp.issparse(matvec):
        apply_op = matvec
        if dim is None:
            raise ValueError("dim is required when passing a matvec callable")
    elif sp.issparse(matvec):
        mat = matvec.tocsr()
        apply_op = lambda v: mat @ v  # noqa: E731
        dim = mat.shape[0]
    else:
        dense = check_symmetric(np.asarray(matvec, dtype=np.float64), "matrix")
        apply_op = lambda v: dense @ v  # noqa: E731
        dim = dense.shape[0]

    if dim == 0:
        return (0.0, np.zeros(0)) if return_vector else 0.0
    if v0 is not None:
        vec = np.asarray(v0, dtype=np.float64).ravel()
        if vec.shape[0] != dim:
            raise ValueError(f"v0 must have length {dim}, got {vec.shape[0]}")
        norm0 = float(np.linalg.norm(vec))
        if norm0 <= 1e-300:
            v0 = None
        else:
            vec = vec / norm0
    if v0 is None:
        gen = as_generator(rng)
        vec = gen.standard_normal(dim)
        vec /= np.linalg.norm(vec)
    estimate = 0.0

    def result(value: float):
        return (value, vec) if return_vector else value

    for _ in range(maxiter):
        new_vec = apply_op(vec)
        norm = float(np.linalg.norm(new_vec))
        if norm <= 1e-300:
            return result(0.0)
        new_estimate = float(vec @ new_vec)
        vec = new_vec / norm
        if abs(new_estimate - estimate) <= tol * max(abs(new_estimate), 1e-300):
            return result(max(new_estimate, 0.0))
        estimate = new_estimate
    return result(max(estimate, 0.0))


def top_eigenvalue(
    matrix: np.ndarray | sp.spmatrix | Callable[[np.ndarray], np.ndarray],
    dim: int | None = None,
    tol: float = 1e-10,
    rng: RandomState = None,
    dense_cutoff: int = 64,
    maxiter: int | None = None,
    v0: np.ndarray | None = None,
    return_vector: bool = False,
    info: dict | None = None,
) -> float | tuple[float, np.ndarray | None]:
    """Largest eigenvalue of a symmetric PSD matrix, cheaply but reliably.

    For tiny matrices (``dim <= dense_cutoff``) a dense ``eigvalsh`` is both
    fastest and exact; above the cutoff the value is computed by Lanczos
    (ARPACK ``eigsh`` with genuine convergence control) at one
    matrix–vector product per sweep instead of the ``O(m^3)``
    eigendecomposition, falling back to power iteration only if ARPACK
    fails to converge.  Matvec-callable inputs run the same Lanczos through
    a :class:`scipy.sparse.linalg.LinearOperator`, so the matrix behind the
    callable is never materialised (tiny callables below the cutoff are
    materialised through ``dim`` matvecs and handed to ``eigvalsh``, which
    is both cheaper and exact at that size).  A Ritz value never exceeds
    the top eigenvalue, so where a *bound* is needed — the Lemma 4.2
    kappa, and every ``lambda_max`` the decision solvers rescale a dual by
    — :func:`certified_lambda_max` adds the Ritz residual to it; Lanczos is
    preferred over the margin-free power iteration for that residual's
    sake.

    Parameters
    ----------
    matrix:
        Symmetric PSD matrix (dense or scipy sparse) or a matvec callable
        ``v -> A @ v`` (requires ``dim``).
    dim:
        Ambient dimension, required only for callable input.
    tol:
        Convergence tolerance of the iterative estimators.
    rng:
        Randomness source for the Lanczos start vector when no usable
        ``v0`` is given, and for the power-iteration fallback.  Callers
        that also consume randomness elsewhere should pass a *spawned*
        generator so eigenvalue estimation cannot perturb other streams
        (see the decision solver's usage).
    dense_cutoff:
        Dimension at or below which the exact dense ``eigvalsh`` is used.
    maxiter:
        Iteration cap forwarded to the power-iteration fallback.
    v0:
        Optional Lanczos start vector (:func:`certified_lambda_max` passes
        one ``standard_normal(dim)`` draw of its generator).  ``None`` draws
        a Gaussian start vector from ``rng``: ARPACK's own starting residual
        is seeded from OS entropy, so leaving it to ARPACK would make the
        returned bits and the sweep count vary from run to run.
    return_vector:
        When ``True`` return ``(value, vector)`` where ``vector`` is the
        converged top eigenvector (whose residual bounds the Ritz value's
        error), or ``None`` on paths that do not produce one.
    info:
        Optional dict filled with the measured cost of the call:
        ``info["matvecs"]`` (operator applications performed — ``dim`` for
        the dense ``eigvalsh`` paths, the ARPACK/power sweep count
        otherwise) and ``info["method"]`` (``"eigvalsh"``, ``"lanczos"``
        or ``"power"``).  The decision solvers charge their eigenvalue
        work from these counts instead of a pessimistic a-priori constant.

    Returns
    -------
    float or (float, numpy.ndarray | None)
        The largest eigenvalue (clamped at 0 for the iterative paths),
        plus the converged eigenvector when ``return_vector`` is set.
    """
    is_callable = (
        callable(matrix) and not isinstance(matrix, np.ndarray) and not sp.issparse(matrix)
    )
    if is_callable:
        if dim is None:
            raise ValueError("dim is required when passing a matvec callable")
    else:
        dim = matrix.shape[0]

    def done(value: float, vector: np.ndarray | None, method: str, matvecs: int):
        if info is not None:
            info["method"] = method
            info["matvecs"] = int(matvecs)
        return (value, vector) if return_vector else value

    if dim == 0:
        return done(0.0, np.zeros(0), "eigvalsh", 0)

    if dim <= dense_cutoff:
        if is_callable:
            # Materialising through dim matvecs is one Lanczos restart's
            # worth of work at this size, and eigvalsh is exact.  Columns
            # are applied one vector at a time: the matvec contract only
            # promises single vectors (power iteration never passed more).
            eye = np.eye(dim)
            dense = np.empty((dim, dim), dtype=np.float64)
            for j in range(dim):
                dense[:, j] = np.asarray(
                    matrix(eye[:, j]), dtype=np.float64
                ).ravel()
        else:
            dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        vals, vecs = np.linalg.eigh(dense)
        return done(float(vals[-1]), vecs[:, -1], "eigvalsh", dim)

    counted = {"matvecs": 0}
    if is_callable:
        apply_op = matrix
    elif sp.issparse(matrix):
        csr = matrix.tocsr()
        apply_op = lambda v: csr @ v  # noqa: E731
    else:
        dense_mat = np.asarray(matrix, dtype=np.float64)
        apply_op = lambda v: dense_mat @ v  # noqa: E731

    def counting_matvec(v: np.ndarray) -> np.ndarray:
        counted["matvecs"] += 1
        return apply_op(v)

    operator = spla.LinearOperator((dim, dim), matvec=counting_matvec, dtype=np.float64)
    if v0 is not None:
        v0 = np.asarray(v0, dtype=np.float64).ravel()
        if v0.shape[0] != dim:
            raise ValueError(f"v0 must have length {dim}, got {v0.shape[0]}")
        if not np.isfinite(v0).all() or float(np.linalg.norm(v0)) <= 1e-300:
            v0 = None
    if v0 is None:
        v0 = as_generator(rng).standard_normal(dim)
    fault_hook("lanczos")
    try:
        vals, vecs = spla.eigsh(operator, k=1, which="LA", tol=tol, v0=v0)
        # Clamp at 0 per the PSD contract: ARPACK can return a -1e-16-ish
        # Ritz value for numerically-zero operators.
        return done(max(float(vals[0]), 0.0), vecs[:, 0], "lanczos", counted["matvecs"])
    # ArpackError only (not bare RuntimeError): an exception raised by the
    # caller's own matvec must propagate, not silently degrade the
    # certificate-critical estimate to the power-iteration fallback.
    except spla.ArpackError:  # pragma: no cover - ARPACK failure
        counted["matvecs"] = 0
        estimate, vec = spectral_norm_power(
            counting_matvec,
            dim=dim,
            tol=tol,
            maxiter=maxiter,
            rng=rng,
            v0=v0,
            return_vector=True,
        )
        return done(estimate, vec, "power", counted["matvecs"])


#: Largest ``min(m, R)`` at which the fast oracle's ``kappa`` and the psi
#: states' ``lambda_max`` come from a dense ``eigvalsh`` of the smaller of
#: ``Psi``'s two Gram twins rather than from Lanczos.  Measured on a 2-core
#: x86 box with OpenBLAS pinned to one thread: at ``R = 96``
#: ``eigvalsh(S)`` takes 0.41 ms, against 0.44 ms for a warm-started power
#: iteration and 0.63 ms for a warm ARPACK call at tol 1e-6; ``eigvalsh``
#: takes 0.79 ms at ``d = 128`` and 9 ms at ``d = 400``.
KAPPA_EIG_CUTOFF = 128

#: Relative slack on the top eigenvalue in :func:`certified_lambda_max`; it
#: covers the backward error of the dense symmetric eigensolvers that
#: supply it (``eigvalsh``, ``eigh``, and ``dsyevr`` for the top eigenvalue
#: alone).  Their absolute error on a ``d x d`` matrix ``S`` is a small
#: multiple of ``d u ||S||_2`` (``u`` the unit roundoff), under
#: ``1e-9 ||S||_2`` for any ``d`` a dense eigensolver can take.
KAPPA_SLACK = 1e-9

#: Twice the unit roundoff of float64.
_EPS = float(np.finfo(np.float64).eps)


def certified_lambda_max(
    source: np.ndarray | sp.spmatrix | Callable[[np.ndarray], np.ndarray],
    dim: int | None = None,
    rng: RandomState = None,
    info: dict | None = None,
) -> float:
    """The certified bound ``(1 + KAPPA_SLACK) * lambda >= lambda_max(Psi)``.

    ``lambda`` is the top of an exact spectrum wherever one is affordable:

    * a 1-D ``source`` is a spectrum already computed — of ``Psi`` or of
      a Gram twin ``S = diag(sqrt(w)) Q^T Q diag(sqrt(w))``, which shares
      ``Psi``'s nonzero eigenvalues — and ``lambda`` is its largest entry;
    * a square dense or sparse matrix of size at most
      :data:`KAPPA_EIG_CUTOFF` gets one ``eigvalsh``;
    * anything else — a larger matrix, or a matvec callable (which needs
      ``dim``) — runs :func:`top_eigenvalue` from one
      ``standard_normal(dim)`` draw of ``rng`` and takes
      ``lambda = theta + ||Psi v - theta v||``.  For symmetric ``Psi`` an
      eigenvalue lies within the residual norm of the Ritz value
      ``theta``, and Lanczos from a random start converges to the top one.

    ``info["matvecs"]`` counts the operator applications: the Lanczos
    sweeps plus the residual's one, or the size of the eigendecomposed
    spectrum or matrix (:func:`top_eigenvalue`'s dense convention).

    A non-finite ``lambda`` raises
    :class:`~repro.exceptions.NumericalError` at site
    ``"trace_estimation"``.
    """
    info = {} if info is None else info
    if callable(source) and not isinstance(source, np.ndarray) and not sp.issparse(source):
        if dim is None:
            raise ValueError("dim is required when passing a matvec callable")
        matvec = source
    elif source.ndim == 1 or source.shape[0] <= KAPPA_EIG_CUTOFF:
        matvec = None
        spectrum = source
        if source.ndim == 2 and source.shape[0] > 0:
            dense = source.toarray() if sp.issparse(source) else source
            spectrum = np.linalg.eigvalsh(np.asarray(dense, dtype=np.float64))
        lam = float(spectrum.max()) if spectrum.size else 0.0
        info["matvecs"] = source.shape[0]
    else:
        matrix = source.tocsr() if sp.issparse(source) else np.asarray(source, dtype=np.float64)
        matvec, dim = (lambda v: matrix @ v), matrix.shape[0]  # noqa: E731
    if matvec is not None:
        lam, info["matvecs"] = 0.0, 0
        if dim > 0:
            v0 = as_generator(rng).standard_normal(dim)
            theta, vec = top_eigenvalue(matvec, dim=dim, v0=v0, return_vector=True, info=info)
            residual = np.asarray(matvec(vec), dtype=np.float64).ravel() - theta * vec
            lam = theta + float(np.linalg.norm(residual))
            info["matvecs"] += 1
    if not np.isfinite(lam):
        raise NumericalError(
            "the spectrum bounding ||Psi||_2 is not finite",
            site="trace_estimation",
        )
    return (1.0 + KAPPA_SLACK) * lam


def certified_kappa(
    source: np.ndarray | sp.spmatrix | Callable[[np.ndarray], np.ndarray],
    dim: int | None = None,
    rng: RandomState = None,
) -> float:
    """Lemma 4.2's ``kappa = max(1, certified_lambda_max(source))``; a NaN raises."""
    return max(1.0, certified_lambda_max(source, dim=dim, rng=rng))


def proves_lambda_max_below(matrix: np.ndarray, bound: float) -> bool:
    """Whether one Cholesky proves ``lambda_max(matrix) < bound``.

    ``matrix`` is a symmetric ``d x d`` array (``d >= 1``) with a
    non-negative diagonal, such as a Gram twin.  A floating-point Cholesky of
    ``A = c I - matrix`` that runs to completion returns ``R`` with
    ``R^T R = A + E`` and ``||E||_2 <= gamma_{d+1} / (1 - gamma_{d+1}) Tr(A)``
    (Demmel's backward error; Rump, "Verification of positive
    definiteness", BIT 2006), and forming ``A``'s diagonal adds at most
    ``u c``.  Shrinking ``c = bound (1 - 2 (d + 1)^2 u)`` covers both, so
    a completed factorization proves ``matrix``'s top eigenvalue is below
    ``bound``.  A failed one proves nothing.

    The Cholesky is skipped when a diagonal entry, a Rayleigh quotient,
    already reaches ``c``.  A factor with a non-finite diagonal is never
    accepted: OpenBLAS's ``dpotrf`` completes on a matrix holding a NaN,
    and a NaN anywhere in the triangle it reads reaches the diagonal of
    the factor, whose finite entries are below ``sqrt(c)``, so their sum
    is finite exactly when they all are.
    """
    d = matrix.shape[0]
    c = bound * (1.0 - (d + 1) ** 2 * _EPS)
    if not matrix.diagonal().max() < c:
        return False
    shifted = np.negative(matrix)
    shifted.reshape(-1)[:: d + 1] += c
    # The transpose is the Fortran-ordered view LAPACK factors in place.
    factor, info = dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)
    return info == 0 and math.isfinite(np.add.reduce(factor.diagonal()))


def square_decides_lambda_max_below(square: np.ndarray, bound: float) -> bool | None:
    """Whether ``square = fl(S @ S)`` alone settles ``lambda_max(S) < bound``.

    ``True`` proves it and ``False`` disproves it; ``None`` leaves it to
    :func:`proves_lambda_max_below`.  ``S`` is a symmetric ``d x d`` array
    (``d >= 1``) that is positive semidefinite up to rounding, such as a
    Gram twin.  With ``c = bound`` and ``δ = 2 (d + 1)^2 ε`` (``ε`` twice
    the unit roundoff ``u``, as in :func:`proves_lambda_max_below`):

    * **Upper bound.** ``S^2`` has the eigenvalues ``lambda_i^2``, so
      ``lambda_max(S)^4 <= ||S^2||_F^2``.  Each entry of ``T = square`` is a
      length-``d`` dot product, so ``|T - S^2| <= gamma_d |S| |S|``
      entrywise (Higham, *Accuracy and Stability of Numerical Algorithms*,
      §3.5), and ``|| |S| |S| ||_F <= ||S||_F^2 <= sqrt(d) ||S^2||_F``;
      the computed sum of squares ``f`` of ``T``'s ``d^2`` entries is at
      least ``(1 - gamma_{d^2}) ||T||_F^2``.  Together
      ``lambda_max(S)^4 <= f / ((1 - gamma_{d^2}) (1 - sqrt(d) gamma_d)^2)``,
      and ``f < c^4 (1 - δ)`` proves ``lambda_max(S) < c``: the margin
      covers the ``(d^2 + 2 d^{3/2}) u`` of both factors with room for
      the few roundings of the limit itself.
    * **Lower bound.** A diagonal entry ``T_cc`` sums the non-negative
      ``S_cl^2``, so ``(S^2)_cc >= T_cc / (1 + gamma_d)``, and
      ``(S^2)_cc = ||S e_c||^2 <= ||S||_2^2``.  A Gram twin's negative
      eigenvalues are rounding-sized, so ``||S||_2 = lambda_max(S)``
      whenever it reaches ``c``, and ``T_cc >= c^2 (1 + δ)`` proves
      ``lambda_max(S) >= c``, where no Cholesky of
      :func:`proves_lambda_max_below` can complete.  A refutation sends
      the caller to the exact top eigenvalue, so it can cost time, never
      a wrong bound.

    Both tests are comparisons, so a NaN in ``square`` (a NaN or an inf
    anywhere in ``S`` reaches it through the product) makes both false and
    returns ``None``.
    """
    d = square.shape[-1]
    margin = 2.0 * (d + 1) ** 2 * _EPS
    limit = bound * bound
    if np.vdot(square, square) < limit * limit * (1.0 - margin):
        return True
    if square.diagonal().max() >= limit * (1.0 + margin):
        return False
    return None


def spectral_norm_lanczos(matrix: np.ndarray | sp.spmatrix, tol: float = 1e-8) -> float:
    """Largest eigenvalue of a symmetric matrix via Lanczos (``eigsh``).

    Falls back to a dense ``eigvalsh`` for very small matrices where ARPACK
    cannot run (``k`` must be < dim).
    """
    dim = matrix.shape[0]
    if dim <= 2 or (not sp.issparse(matrix) and dim <= 64):
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        dense = check_symmetric(dense, "matrix")
        if dim == 0:
            return 0.0
        return float(np.linalg.eigvalsh(dense)[-1])
    try:
        vals = spla.eigsh(matrix, k=1, which="LA", tol=tol, return_eigenvectors=False)
    except (spla.ArpackNoConvergence, RuntimeError) as exc:  # pragma: no cover
        raise NumericalError(f"Lanczos eigenvalue estimation failed: {exc}") from exc
    return float(vals[0])


def spectral_norm(matrix: np.ndarray | sp.spmatrix, method: str = "auto") -> float:
    """Spectral norm (largest eigenvalue) of a symmetric PSD matrix.

    ``method`` is one of ``"auto"``, ``"dense"``, ``"lanczos"``, ``"power"``.
    ``"auto"`` uses a dense eigendecomposition for small matrices and Lanczos
    otherwise.
    """
    if method not in {"auto", "dense", "lanczos", "power"}:
        raise ValueError(f"unknown method {method!r}")
    dim = matrix.shape[0]
    if method == "power":
        return spectral_norm_power(matrix)
    if method == "lanczos":
        return spectral_norm_lanczos(matrix)
    if method == "dense" or dim <= 256 or not sp.issparse(matrix):
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        dense = check_symmetric(dense, "matrix")
        if dim == 0:
            return 0.0
        return float(np.linalg.eigvalsh(dense)[-1])
    return spectral_norm_lanczos(matrix)
