"""Batched constraint collections.

``ConstraintCollection`` wraps the list of constraint operators
``A_1, ..., A_n`` of a packing/covering SDP and provides the *batched*
operations the decision solver performs every iteration:

* ``weighted_sum(x)`` — build ``Psi = sum_i x_i A_i`` as a dense matrix;
* ``dots(W)`` — all trace products ``A_i . W`` at once;
* ``traces()`` — the vector ``(Tr[A_1], ..., Tr[A_n])``;
* ``gram_factors()`` — the factors ``Q_i`` for the Theorem 4.1 oracle;
* ``total_nnz`` — the work parameter ``q`` of Corollary 1.2.

The batched operations optionally run through a
:class:`repro.parallel.backends.ExecutionBackend` so that per-constraint
work is expressed as a parallel map (constant depth over ``n`` in the
work–depth model) and so its work/depth is recorded by the cost tracker.

One reduction order per collection
----------------------------------
:meth:`ConstraintCollection.packed` builds (and caches) a
:class:`repro.operators.packed.PackedGramFactors` view: all Gram factors
stacked into one ``(m, sum_i r_i)`` matrix with column offsets.  Which
rounding order the reductions use is decided by the operator kinds
alone, never by which caches exist:

* ``traces()`` is always the per-operator sum;
* ``weighted_sum``/``dots`` go through the packed view exactly when every
  operator's factor is *exact* (``Q Q^T = A`` by construction: factorized,
  low-rank, diagonal representations), building the view on first use —
  each becomes a single GEMM plus a segment reduction instead of an
  ``n``-term Python loop.  Dense/sparse operators, whose factors come from
  a truncated eigendecomposition, always keep the reference operations
  (the fast oracle may still use their packed factors).

Solving one collection object twice, or a deep copy of it, therefore
returns the same bits as solving a collection built fresh from the same
arrays.  The packed path charges the same ``O(q)`` work (``q`` = total
factor nonzeros) and polylogarithmic depth in the cost model; only the
wall-clock constants change.

The packed view also caches the weight-independent Taylor artifacts (the
``R x R`` Gram matrix ``Q^T Q``, the sparse-``Psi`` symbolic pattern, the
auto-selected representation).  Per-solve state — the
:class:`~repro.linalg.taylor_gram.TaylorEngine`, the trace estimator, the
psi state — lives on the solve that owns it.

Dense-collection fallback
-------------------------
All-dense collections never take the packed route, so
``weighted_sum`` batches them differently: the dense matrices are stacked
once into a cached ``(n, m, m)`` array (within a memory cap) and the sum
becomes a single ``tensordot`` contraction over the weights instead of an
``n``-term accumulation loop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InvalidProblemError
from repro.operators.dense import DensePSDOperator
from repro.operators.packed import PackedGramFactors
from repro.operators.psd_operator import PSDOperator, as_operator

#: memory cap (bytes) on the cached dense ``(n, m, m)`` stack used to batch
#: ``weighted_sum`` for all-dense collections without an exact packed view.
DENSE_STACK_MAX_BYTES = 1 << 27


class ConstraintCollection:
    """An immutable ordered collection of PSD constraint operators.

    One collection may be solved by several solves at once (thread-mode
    service jobs that carry the same submitted collection share it).
    That is safe because every lazily built attribute of a collection and
    of its packed view is written once, from the operators alone, and
    never mutated in place: a concurrent first build at worst computes the
    same bits twice.
    """

    def __init__(self, operators: Iterable, validate: bool = True) -> None:
        ops = [as_operator(op, validate=validate) for op in operators]
        if not ops:
            raise InvalidProblemError("constraint collection must contain at least one matrix")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise InvalidProblemError(f"all constraint matrices must share one dimension, got {sorted(dims)}")
        if validate:
            for i, op in enumerate(ops):
                # A zero-rank factor stack makes the normalized problem
                # ill-posed: A_i . W = 0 keeps constraint i in the
                # qualifying set forever while x_i grows against a zero
                # matrix.  (Zero-rank *blocks* inside a hand-built
                # PackedGramFactors remain supported; this guards solver
                # inputs.)
                if getattr(op, "rank", None) == 0:
                    raise InvalidProblemError(
                        f"constraint {i} has a zero-rank factor (A_i = 0); "
                        "remove zero constraints before solving"
                    )
        self._operators: list[PSDOperator] = ops
        self.dim = ops[0].dim
        self.size = len(ops)
        self._packed: PackedGramFactors | None = None
        self._packed_by_backend: dict[str, PackedGramFactors] = {}
        self._exact_factors = all(op.gram_factor_is_exact for op in ops)
        self._dense_stack: np.ndarray | None = None
        self._dense_stack_checked = False
        self._op_work: list[float] | None = None
        self._total_nnz: int | None = None

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[PSDOperator]:
        return iter(self._operators)

    def __getitem__(self, index: int) -> PSDOperator:
        return self._operators[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintCollection(n={self.size}, dim={self.dim}, nnz={self.total_nnz})"

    # ------------------------------------------------------------------ batched ops
    @property
    def operators(self) -> Sequence[PSDOperator]:
        """The wrapped operators, in constraint order (immutable view)."""
        return tuple(self._operators)

    @property
    def total_nnz(self) -> int:
        """Total stored nonzeros across the collection (the ``q`` of Cor. 1.2
        when operators are factorized, and the input-size proxy otherwise).

        Cached on first access — the collection is immutable and the fast
        oracle reads ``q`` for its work charge on every call."""
        if self._total_nnz is None:
            self._total_nnz = int(sum(op.nnz for op in self._operators))
        return self._total_nnz

    @property
    def operator_work(self) -> list[float]:
        """Per-operator work charges ``max(nnz(A_i), 1)``, computed once.

        Counting nonzeros scans each operator's storage, so the list is
        cached — the collection is immutable and ``dots`` needs it every
        solver iteration for its work–depth charges.
        """
        if self._op_work is None:
            self._op_work = [float(max(op.nnz, 1)) for op in self._operators]
        return self._op_work

    def packed(self, backend=None) -> PackedGramFactors:
        """The cached packed Gram-factor view (built on first access).

        Building the view requires a Gram factor per operator — free for
        factorized/low-rank/diagonal representations, one eigendecomposition
        for dense ones — so it is only constructed on demand.

        ``backend`` selects the array backend of the returned view (see
        :mod:`repro.backend`).  Views are cached per backend name; the
        default NumPy view is the one the collection's own batched
        operations use, so requesting a torch view never perturbs the
        NumPy fast path.
        """
        from repro.backend import get_array_backend

        resolved = get_array_backend(backend)
        if resolved.is_numpy:
            if self._packed is None:
                self._packed = PackedGramFactors.from_collection(self)
            return self._packed
        cached = self._packed_by_backend.get(resolved.name)
        if cached is None:
            cached = PackedGramFactors.from_collection(self, backend=resolved)
            self._packed_by_backend[resolved.name] = cached
        return cached

    @property
    def packed_view(self) -> PackedGramFactors | None:
        """The packed view if it has already been built, else ``None``."""
        return self._packed

    @property
    def has_exact_factors(self) -> bool:
        """Whether every operator's Gram factor is exact (``Q Q^T = A`` by
        construction), i.e. whether ``weighted_sum``/``dots`` run through
        the packed view (see
        :attr:`~repro.operators.psd_operator.PSDOperator.gram_factor_is_exact`)."""
        return self._exact_factors

    def traces(self) -> np.ndarray:
        """Vector of traces ``Tr[A_i]`` (always the per-operator sum)."""
        return np.array([op.trace() for op in self._operators], dtype=np.float64)

    def spectral_norms(self) -> np.ndarray:
        """Vector of spectral norms ``||A_i||_2`` (the per-constraint widths)."""
        return np.array([op.spectral_norm() for op in self._operators], dtype=np.float64)

    def width(self) -> float:
        """The width parameter ``rho = max_i ||A_i||_2`` of the instance."""
        return float(self.spectral_norms().max())

    def _dense_stacked(self) -> np.ndarray | None:
        """Cached ``(n, m, m)`` stack of dense constraint matrices, or ``None``.

        Built lazily, and only for all-dense collections (whose eigh-derived
        factors are inexact, so the packed route never applies) within the
        :data:`DENSE_STACK_MAX_BYTES` memory cap.  The stack turns the
        ``weighted_sum`` fallback loop into one ``tensordot`` contraction
        without changing operator semantics — each slice *is* the operator's
        dense matrix.
        """
        if not self._dense_stack_checked:
            fits = self.size * self.dim * self.dim * 8 <= DENSE_STACK_MAX_BYTES
            if fits and all(
                isinstance(op, DensePSDOperator) for op in self._operators
            ):
                self._dense_stack = np.stack(
                    [op.to_dense() for op in self._operators]
                )
            # Set only once the stack exists: a concurrent solve must never
            # see the check done with the stack still missing.
            self._dense_stack_checked = True
        return self._dense_stack

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """Dense matrix ``sum_i weights[i] * A_i``.

        Weights must be non-negative (the sum must stay PSD); zero weights
        are skipped so the cost is proportional to the support of ``weights``.
        Exact-factor collections route through a single rank-``R`` GEMM
        over the packed view; all-dense collections batch the sum as one
        ``tensordot`` over a cached ``(n, m, m)`` stack; everything else
        keeps the per-operator accumulation loop.
        """
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != self.size:
            raise InvalidProblemError(
                f"expected {self.size} weights, got {weights.shape[0]}"
            )
        if not np.all(np.isfinite(weights)):
            # NaN slips through the sign check below (NaN compares False
            # to everything), so non-finiteness is rejected explicitly.
            raise InvalidProblemError("weights contain non-finite entries")
        if np.any(weights < 0):
            raise InvalidProblemError("weights must be non-negative")
        if self._exact_factors:
            return self.packed().weighted_sum(weights)
        stack = self._dense_stacked()
        if stack is not None:
            active = np.flatnonzero(weights)
            if active.shape[0] == 0:
                return np.zeros((self.dim, self.dim), dtype=np.float64)
            if 4 * active.shape[0] >= self.size:
                acc = np.tensordot(weights, stack, axes=1)
            else:
                # Sparse support (incremental solver deltas): contract only
                # the active slices.
                acc = np.tensordot(weights[active], stack[active], axes=1)
            return 0.5 * (acc + acc.T)
        acc = np.zeros((self.dim, self.dim), dtype=np.float64)
        for weight, op in zip(weights, self._operators):
            if weight != 0.0:
                op.add_to(acc, float(weight))
        return 0.5 * (acc + acc.T)

    def dots(self, weight_matrix: np.ndarray, backend=None) -> np.ndarray:
        """All trace products ``A_i . W`` as a vector of length ``n``.

        When ``backend`` is given, the products are included in its
        work–depth accounting with per-item work ``nnz(A_i)`` and unit
        depth.  Exact-factor collections compute the products as one GEMM
        plus a segment reduction over the packed view and charge the
        backend the identical per-item costs through
        :meth:`~repro.parallel.backends.ExecutionBackend.charge_batched`;
        the others run through the backend's parallel ``map``.
        """
        weight_matrix = np.asarray(weight_matrix, dtype=np.float64)
        if weight_matrix.shape != (self.dim, self.dim):
            raise InvalidProblemError(
                f"weight matrix must have shape {(self.dim, self.dim)}, got {weight_matrix.shape}"
            )
        if self._exact_factors:
            if backend is not None:
                backend.charge_batched(
                    self.size,
                    work_per_item=self.operator_work,
                    label="constraint-dots",
                )
            return self.packed().dots(weight_matrix)
        if backend is None:
            return np.array([op.dot(weight_matrix) for op in self._operators], dtype=np.float64)
        results = backend.map(
            lambda op: op.dot(weight_matrix),
            self._operators,
            work_per_item=self.operator_work,
            label="constraint-dots",
        )
        return np.asarray(list(results), dtype=np.float64)

    def gram_factors(self) -> list[np.ndarray]:
        """Gram factors ``Q_i`` (dense) for every constraint."""
        return [op.gram_factor() for op in self._operators]

    def to_dense_list(self) -> list[np.ndarray]:
        """Dense copies of every constraint matrix (for tests / reference solvers)."""
        return [op.to_dense() for op in self._operators]

    # ------------------------------------------------------------------ transforms
    def scaled(self, coeffs: np.ndarray) -> "ConstraintCollection":
        """Return a new collection with each ``A_i`` scaled by ``coeffs[i] >= 0``."""
        coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
        if coeffs.shape[0] != self.size:
            raise InvalidProblemError(f"expected {self.size} coefficients, got {coeffs.shape[0]}")
        if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0):
            raise InvalidProblemError("scaling coefficients must be finite and non-negative")
        return ConstraintCollection(
            [op.scaled(float(c)) for op, c in zip(self._operators, coeffs)], validate=False
        )

    def subset(self, indices: Sequence[int]) -> "ConstraintCollection":
        """Return the sub-collection with the given constraint indices."""
        indices = list(indices)
        if not indices:
            raise InvalidProblemError("subset must contain at least one index")
        return ConstraintCollection([self._operators[i] for i in indices], validate=False)
