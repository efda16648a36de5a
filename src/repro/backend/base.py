"""The array-backend contract: one namespace object per array library.

Every hot kernel in this repository is a GEMM + segment reduction over one
packed factor stack (see :mod:`repro.operators.packed`).  That shape ports
unchanged across NumPy and torch — what differs is only *which*
library executes the arithmetic.  :class:`ArrayBackend` is the namespace
object the kernels route through: ~20 primitives covering construction and
transfer (``asarray``/``to_numpy``), the dense kernels (``matmul``,
``einsum``, ``eigvalsh``/``eigh``, ``norm``), the segment reductions, and
column take/scatter plus dtype/device introspection.

Contract rules (enforced by ``tests/test_backend_conformance.py`` and the
``tools/check_backend_purity.py`` lint):

* **The NumPy backend is a literal pass-through.**  Nine test suites assert
  bit-identical certified decisions, so
  :class:`~repro.backend.numpy_backend.NumPyBackend` wraps the exact
  ``np.*`` calls the kernels used to make, with the same arguments — the
  refactor must not change a single bit on the default backend.
* **Charges are computed from shapes, never from arrays.**  The
  :class:`~repro.parallel.backends.ExecutionBackend` work–depth charges are
  machine-independent model quantities; routing the arithmetic through
  torch must leave every charge (and every iteration count)
  identical.  No primitive here reports costs — callers derive work from
  ``shape``/``nnz`` alone.
* **Host state stays NumPy; device arrays live inside kernels.**
  Bookkeeping (weights, offsets, counters, checkpoints) is host-side
  ``numpy`` everywhere.  Kernels transfer their immutable operands once at
  construction (``asarray``) and convert results back at the
  ``apply``/``matvec`` boundary (``to_numpy``).  Sparse (scipy) paths are
  NumPy-only: non-NumPy backends densify (the packed stack's dense
  fallback) and restrict the Taylor-mode policy to the dense
  representations.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """Namespace object exposing the array primitives the engine uses.

    Subclasses wrap one array library (NumPy, torch).  ``Array`` below
    means the backend's native array type (``np.ndarray``,
    ``torch.Tensor``); primitives accept host NumPy arrays wherever a
    transfer is implied and say so explicitly.
    """

    #: Registry name (``"numpy"``, ``"torch"``).
    name: str = "abstract"

    @property
    def is_numpy(self) -> bool:
        """Whether this backend executes directly on host NumPy arrays.

        The fused batched path (:mod:`repro.core.batch`) and every sparse
        (scipy) representation require a NumPy-resident stack; callers gate
        on this instead of comparing names.
        """
        return self.name == "numpy"

    # ------------------------------------------------------------ transfer
    @abc.abstractmethod
    def asarray(self, x: Any, dtype: Any = None) -> Any:
        """Device array from ``x`` (no copy when already native + right dtype)."""

    @abc.abstractmethod
    def to_numpy(self, x: Any) -> np.ndarray:
        """Host ``np.ndarray`` view/copy of a device array (identity on NumPy)."""

    @abc.abstractmethod
    def copy(self, x: Any) -> Any:
        """A mutable copy of a device array."""

    # ------------------------------------------------------ construction
    @abc.abstractmethod
    def empty(self, shape: Sequence[int] | int, dtype: Any = np.float64) -> Any:
        """Uninitialised device array."""

    @abc.abstractmethod
    def empty_like(self, x: Any) -> Any:
        """Uninitialised device array with ``x``'s shape and dtype."""

    @abc.abstractmethod
    def zeros(self, shape: Sequence[int] | int, dtype: Any = np.float64) -> Any:
        """Zero-filled device array."""

    @abc.abstractmethod
    def eye(self, n: int, dtype: Any = np.float64) -> Any:
        """Identity matrix — dtype is **explicit** so kernels preserve their
        stack dtype instead of inheriting NumPy's float64 default."""

    # -------------------------------------------------------- introspection
    @abc.abstractmethod
    def dtype_of(self, x: Any) -> np.dtype:
        """The array's dtype as a host ``np.dtype``."""

    @abc.abstractmethod
    def device_of(self, x: Any) -> str:
        """Human-readable device of the array (``"cpu"``, ``"cuda:0"``, …)."""

    def canonical_dtype(self, x: Any) -> np.dtype:
        """The working dtype a kernel should adopt for operand ``x``:
        ``float32`` inputs stay ``float32``; everything else runs in the
        reference ``float64``."""
        dtype = np.dtype(self.dtype_of(x))
        return np.dtype(np.float32) if dtype == np.float32 else np.dtype(np.float64)

    # ------------------------------------------------------------- kernels
    @abc.abstractmethod
    def matmul(self, a: Any, b: Any, out: Any = None) -> Any:
        """Matrix product ``a @ b``, writing into ``out`` when given (the
        Taylor recurrences ping-pong two preallocated buffers)."""

    @abc.abstractmethod
    def einsum(self, subscripts: str, *operands: Any) -> Any:
        """Einstein summation (the kernels use ``"ij,ij->j"`` column dots
        and the batched ``"bij,bij->bj"`` form)."""

    @abc.abstractmethod
    def norm(self, x: Any) -> float:
        """Frobenius / 2-norm of a vector or matrix, as a host float."""

    @abc.abstractmethod
    def eigvalsh(self, a: Any) -> Any:
        """Ascending eigenvalues of a symmetric matrix (or stack of them)."""

    @abc.abstractmethod
    def eigh(self, a: Any) -> tuple[Any, Any]:
        """Eigen-decomposition of a symmetric matrix as an ``(w, v)`` tuple."""

    # ---------------------------------------------------- segment reductions
    @abc.abstractmethod
    def segment_sums(self, values: Any, offsets: np.ndarray) -> Any:
        """Per-segment sums of ``values`` over ``[offsets[i], offsets[i+1])``.

        ``offsets`` is always a host int64 array (part of the packed stack's
        immutable host layout).  Zero-width segments sum to 0.  Must match
        the NumPy reference implementation exactly in exact arithmetic;
        the NumPy backend must match it bitwise.
        """

    @abc.abstractmethod
    def batched_segment_sums(self, values: Any, offsets: np.ndarray) -> Any:
        """Row-wise :meth:`segment_sums` over a ``(B, R)`` batch."""

    # ------------------------------------------------------------- indexing
    @abc.abstractmethod
    def repeat(self, values: Any, repeats: np.ndarray) -> Any:
        """Per-element repetition (the weight expansion ``repeat(w, ranks)``)."""

    @abc.abstractmethod
    def take_columns(self, x: Any, indices: np.ndarray) -> Any:
        """Column gather ``x[:, indices]`` (host index array)."""

    @abc.abstractmethod
    def put_columns(self, x: Any, indices: np.ndarray, values: Any) -> None:
        """Column scatter ``x[:, indices] = values`` in place (host indices)."""

    @abc.abstractmethod
    def isfinite_all(self, x: Any) -> bool:
        """Whether every entry is finite, as a host bool (the kernels'
        fault-detection boundary check)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
