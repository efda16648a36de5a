"""Positive packing LP problem class and conversions to/from diagonal SDPs.

A positive packing LP is

.. math:: \\max\\; 1^T x \\quad \\text{s.t.}\\quad P x \\le 1,\\; x \\ge 0,

with a non-negative constraint matrix ``P`` (here ``m`` rows = packing
constraints, ``n`` columns = variables).  Identifying row ``j`` with the
``j``-th diagonal entry, the same program is the packing SDP
``sum_i x_i A_i <= I`` with ``A_i = diag(P[:, i])`` — the conversion
functions below make that identification explicit, which is how experiment
E7 runs the SDP solver and the LP solvers on literally the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.operators.collection import ConstraintCollection
from repro.operators.diagonal import DiagonalPSDOperator
from repro.core.problem import NormalizedPackingSDP


@dataclass
class PackingLP:
    """A positive packing LP ``max 1^T x`` s.t. ``P x <= 1``, ``x >= 0``.

    Attributes
    ----------
    matrix:
        Dense non-negative array of shape ``(m, n)`` (rows are constraints).
    name:
        Optional instance name for reports.
    """

    matrix: np.ndarray
    name: str = "packing-lp"

    def __init__(self, matrix: np.ndarray | sp.spmatrix, name: str = "packing-lp") -> None:
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise InvalidProblemError(f"constraint matrix must be 2-D, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise InvalidProblemError("constraint matrix contains NaN or infinite entries")
        if np.any(matrix < 0):
            raise InvalidProblemError("positive LPs require a non-negative constraint matrix")
        if np.any(matrix.sum(axis=0) == 0):
            raise InvalidProblemError("every variable must appear in at least one constraint")
        self.matrix = matrix
        self.name = name

    # ------------------------------------------------------------------ shape
    @property
    def num_constraints(self) -> int:
        """Number of packing constraints (matrix rows)."""
        return self.matrix.shape[0]

    @property
    def num_variables(self) -> int:
        """Number of variables (matrix columns)."""
        return self.matrix.shape[1]

    @property
    def width(self) -> float:
        """The LP width ``max_ij P_ij`` (after right-hand sides are normalized to 1)."""
        return float(self.matrix.max(initial=0.0))

    # ------------------------------------------------------------------ evaluation
    def value(self, x: np.ndarray) -> float:
        """Objective ``1^T x``."""
        return float(np.sum(np.asarray(x, dtype=np.float64)))

    def feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Check ``x >= 0`` and ``P x <= 1 + tol``."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.num_variables or np.any(x < -tol):
            return False
        return bool(np.all(self.matrix @ x <= 1.0 + tol))

    def slack(self, x: np.ndarray) -> np.ndarray:
        """Constraint slacks ``1 - P x`` (negative entries indicate violations)."""
        return 1.0 - self.matrix @ np.asarray(x, dtype=np.float64)


def packing_lp_from_diagonal_sdp(problem: NormalizedPackingSDP) -> PackingLP:
    """Convert a packing SDP whose constraints are all diagonal into a packing LP.

    Raises
    ------
    InvalidProblemError
        If any constraint operator is not (numerically) diagonal.
    """
    columns = []
    for op in problem.constraints:
        if isinstance(op, DiagonalPSDOperator):
            columns.append(op.diagonal)
            continue
        dense = op.to_dense()
        off_diag = dense - np.diag(np.diag(dense))
        if np.abs(off_diag).max(initial=0.0) > 1e-10 * max(1.0, np.abs(dense).max()):
            raise InvalidProblemError(
                "constraint matrices must be diagonal to convert the SDP to a packing LP"
            )
        columns.append(np.diag(dense))
    matrix = np.column_stack(columns)
    return PackingLP(matrix, name=f"{problem.name}-as-lp")


def diagonal_sdp_from_packing_lp(lp: PackingLP) -> NormalizedPackingSDP:
    """Embed a packing LP as a diagonal packing SDP (the E7 identification)."""
    operators = [DiagonalPSDOperator(lp.matrix[:, j]) for j in range(lp.num_variables)]
    return NormalizedPackingSDP(
        ConstraintCollection(operators, validate=False), name=f"{lp.name}-as-sdp"
    )
