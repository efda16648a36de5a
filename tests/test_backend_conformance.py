"""Cross-backend differential conformance suite (E20).

Every test runs once per *installed* array backend through the ``backend``
conftest fixture — NumPy always, torch automatically when present.
The contract under test (see ``docs/BACKENDS.md``):

* the NumPy backend is a literal pass-through, so its results are
  **bit-identical** to the pre-backend reference paths;
* non-NumPy float64 backends match NumPy to ``ATOL`` on every kernel
  primitive, and produce *identical* certified decisions, iteration
  counts, and work–depth charges on fixed seeds (charges are shape-derived
  and cannot depend on the backend at all).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NUMPY, available_backends, get_array_backend
from repro.backend.numpy_backend import batched_segment_sums, segment_sums
from repro.core.decision import DecisionOptions, decision_psdp
from repro.exceptions import BackendError, InvalidProblemError
from repro.linalg.psd import random_psd
from repro.linalg.taylor_blocked import BlockedTaylorKernel, densified_psi
from repro.linalg.taylor_gram import GramTaylorKernel
from repro.linalg.trace_estimation import gram_exp_trace
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import PackedGramFactors

#: Float64 agreement across backends (same BLAS-level algorithms, possibly
#: different reduction orders).
ATOL = 1e-12


def _tolerances(backend):
    """(rtol, atol) for comparisons against the NumPy reference."""
    if backend.is_numpy:
        return 0.0, 0.0
    return ATOL, ATOL


def _assert_matches(backend, got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if backend.is_numpy:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=ATOL, atol=ATOL)


def _collection(seed: int = 7, m: int = 10, n: int = 5) -> ConstraintCollection:
    rng = np.random.default_rng(seed)
    mats = [random_psd(m, scale=0.4 + 0.3 * i, rng=rng) for i in range(n)]
    return ConstraintCollection(mats)


# --------------------------------------------------------------------- registry
def test_available_backends_starts_with_numpy():
    names = available_backends()
    assert names[0] == "numpy"
    assert len(set(names)) == len(names)


def test_get_array_backend_resolves_specs(backend):
    assert get_array_backend(backend.name) is get_array_backend(backend.name)
    assert get_array_backend(backend) is backend


def test_get_array_backend_rejects_unknown_names():
    with pytest.raises(BackendError):
        get_array_backend("tensorflow")


def test_missing_optional_backend_raises_backend_error():
    if "torch" not in available_backends():
        with pytest.raises(BackendError):
            get_array_backend("torch")


# ------------------------------------------------------------------- primitives
def test_roundtrip_and_introspection(backend):
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    dev = backend.asarray(x)
    assert backend.dtype_of(dev) == np.dtype(np.float64)
    assert isinstance(backend.device_of(dev), str)
    np.testing.assert_array_equal(backend.to_numpy(dev), x)
    assert backend.isfinite_all(dev)
    bad = x.copy()
    bad[0, 0] = np.nan
    assert not backend.isfinite_all(backend.asarray(bad))


def test_copy_is_independent(backend):
    x = np.ones((2, 2))
    dev = backend.asarray(x)
    dup = backend.copy(dev)
    dup += 1.0
    np.testing.assert_array_equal(backend.to_numpy(dev), x)


def test_matmul_einsum_eigh_norm(backend):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((4, 5))
    _assert_matches(backend, backend.to_numpy(
        backend.matmul(backend.asarray(a), backend.asarray(b))), a @ b)
    _assert_matches(backend, backend.to_numpy(
        backend.einsum("ij,ij->j", backend.asarray(a), backend.asarray(a))),
        np.einsum("ij,ij->j", a, a))
    assert backend.norm(backend.asarray(a)) == pytest.approx(
        float(np.linalg.norm(a)), abs=ATOL)

    sym = a @ a.T
    _assert_matches(backend, backend.to_numpy(
        backend.eigvalsh(backend.asarray(sym))), np.linalg.eigvalsh(sym))
    w, v = backend.eigh(backend.asarray(sym))
    w, v = backend.to_numpy(w), backend.to_numpy(v)
    _assert_matches(backend, w, np.linalg.eigh(sym)[0])
    # Eigenvectors are sign/rotation ambiguous: check the reconstruction.
    np.testing.assert_allclose((v * w) @ v.T, sym, atol=1e-10)


def test_construction_primitives(backend):
    eye = backend.to_numpy(backend.eye(4))
    np.testing.assert_array_equal(eye, np.eye(4))
    zeros = backend.to_numpy(backend.zeros((2, 3)))
    np.testing.assert_array_equal(zeros, np.zeros((2, 3)))
    assert backend.to_numpy(backend.empty((2, 2))).shape == (2, 2)
    assert backend.dtype_of(backend.zeros(3, dtype=np.float32)) == np.float32


def test_segment_sums_conformance(backend):
    values = np.array([1.0, 2.0, 3.0, -1.5, 0.25])
    offsets = np.array([0, 2, 2, 5])  # includes an empty segment
    want = segment_sums(values, offsets)
    got = backend.to_numpy(backend.segment_sums(backend.asarray(values), offsets))
    _assert_matches(backend, got, want)


def test_batched_segment_sums_conformance(backend):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, 7))
    offsets = np.array([0, 3, 3, 6, 7])
    want = batched_segment_sums(values, offsets)
    got = backend.to_numpy(
        backend.batched_segment_sums(backend.asarray(values), offsets)
    )
    _assert_matches(backend, got, want)


def test_column_indexing(backend):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    idx = np.array([4, 1, 3])
    dev = backend.asarray(x.copy())
    _assert_matches(backend, backend.to_numpy(
        backend.take_columns(dev, idx)), x[:, idx])
    backend.put_columns(dev, idx, backend.asarray(np.zeros((4, 3))))
    host = backend.to_numpy(dev)
    assert np.all(host[:, idx] == 0.0)
    np.testing.assert_array_equal(host[:, [0, 2, 5]], x[:, [0, 2, 5]])
    reps = np.array([2, 0, 3])
    _assert_matches(backend, backend.to_numpy(
        backend.repeat(backend.asarray(np.array([1.0, 2.0, 3.0])), reps)),
        np.repeat(np.array([1.0, 2.0, 3.0]), reps))


# ---------------------------------------------------------------- packed kernels
def test_packed_kernels_conformance(backend):
    collection = _collection()
    ref = PackedGramFactors.from_collection(collection)
    view = PackedGramFactors.from_collection(collection, backend=backend)
    assert view.backend is backend
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.1, 1.0, size=len(collection))

    _assert_matches(backend, view.weighted_sum(weights), ref.weighted_sum(weights))
    _assert_matches(backend, view.traces(), ref.traces())
    _assert_matches(backend, view.column_sq_norms(), ref.column_sq_norms())

    sym = random_psd(collection.dim, rng=rng)
    _assert_matches(backend, view.dots(sym), ref.dots(sym))

    block = rng.standard_normal((collection.dim, 3))
    _assert_matches(
        backend, view.matvec_fn(weights)(block), ref.matvec_fn(weights)(block)
    )

    transform = rng.standard_normal((collection.dim, collection.dim))
    _assert_matches(
        backend,
        view.estimates_from_transform(transform),
        ref.estimates_from_transform(transform),
    )


def test_packed_sparse_stack_densifies_on_non_numpy(backend):
    import scipy.sparse as sp

    rng = np.random.default_rng(9)
    dense_factor = rng.standard_normal((8, 2)) * (rng.random((8, 2)) < 0.3)
    collection = ConstraintCollection([dense_factor @ dense_factor.T])
    sparse_q = sp.csr_matrix(collection.packed().matrix)
    view = PackedGramFactors([sparse_q], backend=backend)
    if backend.is_numpy:
        assert view.is_sparse
    else:
        assert not view.is_sparse  # forced densification


# ----------------------------------------------------------------- taylor kernels
def test_blocked_taylor_apply_conformance(backend):
    rng = np.random.default_rng(4)
    q = rng.standard_normal((9, 5))
    col_w = rng.uniform(0.0, 1.0, size=5)
    block = rng.standard_normal((9, 4))
    psi = densified_psi(q, col_w)
    want = BlockedTaylorKernel.from_matrix(psi).apply(block, degree=6, scale=0.5)
    got = BlockedTaylorKernel.from_matrix(psi, backend=backend).apply(block, degree=6, scale=0.5)
    _assert_matches(backend, got, want)


def test_gram_taylor_apply_conformance(backend):
    rng = np.random.default_rng(6)
    q = rng.standard_normal((12, 4))
    col_w = rng.uniform(0.0, 1.0, size=4)
    block = rng.standard_normal((12, 5))
    ref = GramTaylorKernel(q, col_w)
    ker = GramTaylorKernel(q, col_w, backend=backend)
    _assert_matches(
        backend, ker.apply(block, degree=7, scale=0.5), ref.apply(block, degree=7, scale=0.5)
    )
    _assert_matches(
        backend, ker.factor_column_values(7, scale=0.5), ref.factor_column_values(7, scale=0.5)
    )


def test_gram_kernel_matvec_conformance(backend):
    rng = np.random.default_rng(8)
    q = rng.standard_normal((10, 3))
    col_w = rng.uniform(0.1, 1.0, size=3)
    ref = GramTaylorKernel(q, col_w)
    ker = GramTaylorKernel(q, col_w, backend=backend)
    vec = rng.standard_normal(10)
    block = rng.standard_normal((10, 2))
    _assert_matches(backend, ker.matvec(vec), ref.matvec(vec))
    _assert_matches(backend, ker.matvec(block), ref.matvec(block))


def test_sparse_taylor_kernel_rejects_non_numpy(backend):
    import scipy.sparse as sp

    if backend.is_numpy:
        pytest.skip("sparse kernels are supported on the NumPy backend")
    q = sp.random(8, 3, density=0.5, random_state=1, format="csr")
    with pytest.raises(InvalidProblemError):
        GramTaylorKernel(q, np.ones(3), backend=backend)


# ------------------------------------------------------------- trace estimation
def test_gram_exp_trace_conformance(backend):
    rng = np.random.default_rng(10)
    q = rng.standard_normal((14, 4))
    col_w = rng.uniform(0.0, 1.0, size=4)
    gram = q.T @ q
    want = gram_exp_trace(gram, col_w, 14, degree=8, scale=0.5)
    got = gram_exp_trace(gram, col_w, 14, degree=8, scale=0.5, backend=backend)
    if backend.is_numpy:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=ATOL)


# -------------------------------------------------------- decision equivalence
def test_fixed_seed_decision_equivalence(backend):
    """The paper-level contract: backends change arithmetic, not decisions.

    Fixed-seed fast-oracle solves must certify the same outcome with the
    same iteration count and *identical* work–depth charges (charges are
    derived from shapes, never from array values, so any drift here is a
    backend leaking into the cost model).
    """
    collection = _collection(seed=20, m=8, n=4)
    kwargs = dict(epsilon=0.3, oracle="fast", rng=77)
    ref = decision_psdp(collection, **kwargs, array_backend="numpy")
    res = decision_psdp(collection, **kwargs, array_backend=backend)

    assert res.outcome == ref.outcome
    assert res.iterations == ref.iterations
    assert res.early_exit == ref.early_exit
    assert res.work_depth.work == ref.work_depth.work
    assert res.work_depth.depth == ref.work_depth.depth
    assert res.work_depth.events == ref.work_depth.events
    if backend.is_numpy:
        np.testing.assert_array_equal(res.dual_x, ref.dual_x)
        assert res.dual_value == ref.dual_value
    else:
        np.testing.assert_allclose(res.dual_x, ref.dual_x, rtol=1e-9, atol=1e-12)
        assert res.dual_value == pytest.approx(ref.dual_value, rel=1e-9)


def test_decision_options_backend_string_normalises():
    opts = DecisionOptions(backend="numpy")
    assert opts.backend is None
    assert opts.array_backend == "numpy"
    assert NUMPY.is_numpy


# --------------------------------------------------------------- dtype discipline
def test_blocked_taylor_float32_stack_never_upcasts(backend):
    """A float32 stack stays float32 through the blocked Taylor path.

    Guards the latent upcasts the backend refactor removed: the ping-pong
    buffers and the densified ``Psi`` used to default to float64 regardless
    of the stack dtype.
    """
    rng = np.random.default_rng(13)
    q = rng.standard_normal((8, 3)).astype(np.float32)
    col_w = rng.uniform(0.1, 1.0, size=3).astype(np.float32)
    block = rng.standard_normal((8, 4)).astype(np.float32)

    psi = densified_psi(q, col_w)
    assert psi.dtype == np.float32
    kernel = BlockedTaylorKernel.from_matrix(psi, backend=backend)
    assert kernel.dtype == np.float32
    assert kernel.apply(block, degree=5, scale=0.5).dtype == np.float32
    assert kernel.matvec(block).dtype == np.float32

    gram_kernel = GramTaylorKernel(q, col_w, backend=backend)
    assert gram_kernel.dtype == np.float32
    assert gram_kernel.apply(block, degree=5, scale=0.5).dtype == np.float32


def test_blocked_taylor_float64_default_dtype_unchanged():
    """Non-float32 inputs (including ints) still compute in float64."""
    q = np.arange(12, dtype=np.int64).reshape(4, 3)
    kernel = BlockedTaylorKernel.from_matrix(q @ q.T)
    assert kernel.dtype == np.float64
    out = kernel.apply(np.eye(4), degree=4, scale=0.5)
    assert out.dtype == np.float64
