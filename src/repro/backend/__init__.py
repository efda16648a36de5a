"""Pluggable array backends (NumPy default; torch optional).

The registry resolves a *spec* — ``None``, a name, or an already-built
:class:`~repro.backend.base.ArrayBackend` — into a backend instance:

>>> from repro.backend import get_array_backend
>>> get_array_backend().name
'numpy'

Optional backends are probed without importing them
(:func:`available_backends`), constructed lazily on first request, and
cached.  Requesting a backend whose library is not installed raises
:class:`~repro.exceptions.BackendError` — callers that want auto-skip
behaviour (the conformance suite, the E20 benchmark) iterate
:func:`available_backends` instead.

See ``docs/BACKENDS.md`` for the backend contract: the NumPy backend is a
bit-identity pass-through, work–depth charges are shape-derived and
therefore identical across backends, and host state stays NumPy with
device arrays confined to kernel internals.
"""

from __future__ import annotations

import importlib.util

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumPyBackend
from repro.exceptions import BackendError

__all__ = [
    "ArrayBackend",
    "NUMPY",
    "available_backends",
    "get_array_backend",
]

#: The shared default backend instance (stateless; safe to share globally).
NUMPY = NumPyBackend()

_OPTIONAL = ("torch",)
_CACHE: dict[str, ArrayBackend] = {"numpy": NUMPY}


def available_backends() -> tuple[str, ...]:
    """Names of the installed array backends (``"numpy"`` always first).

    Optional libraries are probed via ``importlib.util.find_spec`` so the
    check itself never imports torch (a heavyweight import).
    """
    names = ["numpy"]
    for name in _OPTIONAL:
        try:
            spec = importlib.util.find_spec(name)
        except (ImportError, ValueError):  # pragma: no cover - broken install
            spec = None
        if spec is not None:
            names.append(name)
    return tuple(names)


def get_array_backend(spec: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """Resolve a backend spec to an :class:`ArrayBackend` instance.

    ``None`` and ``"numpy"`` return the shared :data:`NUMPY` singleton;
    ``"torch"`` constructs (and caches) the optional backend,
    raising :class:`~repro.exceptions.BackendError` when the library is not
    installed; an :class:`ArrayBackend` instance passes through unchanged.
    """
    if spec is None:
        return NUMPY
    if isinstance(spec, ArrayBackend):
        return spec
    name = str(spec).lower()
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    if name == "torch":
        try:
            from repro.backend.torch_backend import TorchBackend

            backend: ArrayBackend = TorchBackend()
        except ImportError as exc:
            raise BackendError(
                "array backend 'torch' requested but torch is not installed"
            ) from exc
    else:
        raise BackendError(
            f"unknown array backend {spec!r}; expected one of "
            f"('numpy', 'torch') or an ArrayBackend instance"
        )
    _CACHE[name] = backend
    return backend
