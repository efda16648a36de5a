"""Spectral norms, trace inner products, and related estimators.

The solver needs ``||Phi||_2`` upper bounds (to pick the Taylor degree in
Theorem 4.1, Lemma 3.5 guarantees ``||Phi||_2 <= O(log(n)/eps)`` for the
matrices it exponentiates) and trace inner products ``A . B = Tr[A B]``
throughout.  For matrices given only through matrix–vector products we
provide power iteration and a Lanczos-based estimator built on
``scipy.sparse.linalg.eigsh``.

The estimators here are host-side drivers: they hand NumPy vectors to the
caller's matvec callable and consume NumPy vectors back.  Array-backend
acceleration (see :mod:`repro.backend`) happens *inside* those callables —
the packed/Taylor kernels transfer at their own boundaries — so the
Lanczos/power iterations themselves are backend-agnostic by construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
        Optional warm-start vector (normalised internally; ``rng`` is not
        consumed when given).  The decision solvers' iterates change mildly
        per step, so re-estimating ``||Psi||_2`` from the previous call's
        converged vector takes a handful of iterations instead of a cold
        start's hundreds — the fast oracle threads this through
        ``return_vector``.  Caution: a pure warm start forfeits the random
        start's overlap guarantee — if the operator's dominant
        eigendirection has rotated away from ``v0``, the stopping rule can
        fire on the stale direction and under-estimate the norm.  Callers
        re-estimating a *changing* operator should blend fresh randomness
        into ``v0`` (see ``repro.core.dotexp.NORM_RESTART_MIX``).
    return_vector:
        When ``True`` return ``(estimate, vector)`` where ``vector`` is the
        last normalised iterate (the warm start for the next call).
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


def batched_spectral_norm_power(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float | None = None,
    maxiter: int | None = None,
    fallback_rngs: "list | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run :func:`spectral_norm_power` on a batch of operators in lockstep.

    The batched counterpart used by :func:`repro.core.batch.solve_many`:
    every slice follows the sequential estimator's exact update sequence
    (norm, Rayleigh quotient, normalisation, relative-change stop), but the
    matvec and both inner products run as stacked GEMMs over the
    still-active slices, so each slice's trajectory — and therefore its
    estimate, its converged vector, and its sweep count — is bit-identical
    to a sequential :func:`spectral_norm_power` call on that slice alone.

    Parameters
    ----------
    apply_fn:
        Batched matvec ``apply_fn(vecs, rows)``: maps an ``(A, m)`` stack of
        vectors to the ``(A, m)`` stack of per-slice products ``Psi_b v_b``.
        ``rows`` is ``None`` while every slice is still iterating, and an
        index array selecting the still-active slices once some have
        converged — converged slices drop out of the GEMMs entirely instead
        of riding along as dead weight.
    v0:
        ``(B, m)`` stack of start vectors (normalised internally, exactly
        like the sequential ``v0`` path; ``fallback_rngs`` is only consumed
        for rows whose start vector is degenerate).
    tol, maxiter:
        As in :func:`spectral_norm_power` (config defaults when ``None``).
    fallback_rngs:
        Optional per-slice generators for the degenerate-``v0`` cold start
        (sequentially a fresh Gaussian draw); ``None`` raises on a
        degenerate row instead.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``(estimates, vectors)``: the ``(B,)`` norm estimates and the
        ``(B, m)`` stack of last normalised iterates (the warm starts for
        the next call).
    """
    cfg = get_config()
    tol = cfg.power_iteration_tol if tol is None else tol
    maxiter = cfg.power_iteration_maxiter if maxiter is None else maxiter
    vecs = np.asarray(v0, dtype=np.float64)
    if vecs.ndim != 2:
        raise ValueError(f"v0 must be a (B, m) stack, got ndim={vecs.ndim}")
    batch, dim = vecs.shape
    out_est = np.zeros(batch, dtype=np.float64)
    out_vec = np.array(vecs, copy=True)
    if batch == 0 or dim == 0:
        return out_est, out_vec
    norms0 = np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0, 0])
    degenerate = norms0 <= 1e-300
    vecs = vecs / np.where(degenerate, 1.0, norms0)[:, None]
    for b in np.flatnonzero(degenerate):
        if fallback_rngs is None:
            raise ValueError("degenerate v0 row and no fallback rng given")
        fresh = as_generator(fallback_rngs[b]).standard_normal(dim)
        fresh /= np.linalg.norm(fresh)
        vecs[b] = fresh
    estimates = np.zeros(batch, dtype=np.float64)
    rows = np.arange(batch)
    for _ in range(maxiter):
        new_vecs = apply_fn(vecs, None if rows.shape[0] == batch else rows)
        norms = np.sqrt(np.matmul(new_vecs[:, None, :], new_vecs[:, :, None])[:, 0, 0])
        dead = norms <= 1e-300
        new_estimates = np.matmul(vecs[:, None, :], new_vecs[:, :, None])[:, 0, 0]
        divided = new_vecs / np.where(dead, 1.0, norms)[:, None]
        converged = np.abs(new_estimates - estimates) <= tol * np.maximum(
            np.abs(new_estimates), 1e-300
        )
        finishing = dead | converged
        if finishing.any():
            # Sequential semantics: a vanishing iterate returns estimate 0
            # with the *previous* normalised vector.
            if dead.any():
                out_est[rows[dead]] = 0.0
                out_vec[rows[dead]] = vecs[dead]
            settled = converged & ~dead
            if settled.any():
                out_est[rows[settled]] = np.maximum(new_estimates[settled], 0.0)
                out_vec[rows[settled]] = divided[settled]
            keep = ~finishing
            rows = rows[keep]
            if rows.shape[0] == 0:
                return out_est, out_vec
            vecs = divided[keep]
            estimates = new_estimates[keep]
        else:
            vecs = divided
            estimates = new_estimates
    out_est[rows] = np.maximum(estimates, 0.0)
    out_vec[rows] = vecs
    return out_est, out_vec


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
    is both cheaper and exact at that size).  The decision solvers use
    this for their periodic certificate checks, history records, and the
    final dual rescaling, charging the *measured* cost (see ``info``) to
    the work–depth tracker; the certificate uses demand an accurate value
    (an underestimate would overstate dual feasibility), which is why
    Lanczos is preferred over the margin-free power iteration above the
    cutoff.

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
        Optional warm-start vector for the Lanczos iteration.  The decision
        solvers' iterates change mildly per step, so seeding ARPACK with
        the previous call's converged eigenvector cuts the sweep count from
        dozens to a handful.  Unlike power iteration, Lanczos convergence
        is certified by the Ritz residual rather than Rayleigh-quotient
        stagnation, so a stale ``v0`` costs extra sweeps but cannot silently
        return the wrong eigenvalue.  ``None`` draws a Gaussian start
        vector from ``rng``: ARPACK's own starting residual is seeded from
        OS entropy, so leaving it to ARPACK would make the returned bits
        and the sweep count vary from run to run.
    return_vector:
        When ``True`` return ``(value, vector)`` where ``vector`` is the
        converged top eigenvector (the warm start for the next call), or
        ``None`` on paths that do not produce one.
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
