"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, get_array_backend
from repro.linalg.psd import random_psd
from repro.operators.collection import ConstraintCollection
from repro.core.problem import NormalizedPackingSDP


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator shared by tests."""
    return np.random.default_rng(20120522)


@pytest.fixture(params=available_backends())
def backend(request):
    """Every installed array backend, resolved to an instance.

    Parameterising over :func:`repro.backend.available_backends` makes the
    conformance suite self-extending: tests written against this fixture
    run NumPy-only where torch is absent and pick it up automatically
    (no skip bookkeeping) where it is installed.
    """
    return get_array_backend(request.param)


@pytest.fixture
def small_psd(rng: np.random.Generator) -> np.ndarray:
    """A 5x5 full-rank PSD matrix with unit spectral norm."""
    return random_psd(5, rng=rng)


@pytest.fixture
def small_collection(rng: np.random.Generator) -> ConstraintCollection:
    """Four random 5x5 PSD constraints of varying scale."""
    mats = [random_psd(5, scale=s, rng=rng) for s in (0.5, 1.0, 1.5, 2.0)]
    return ConstraintCollection(mats)


@pytest.fixture
def small_problem(small_collection: ConstraintCollection) -> NormalizedPackingSDP:
    """A small normalized packing SDP used across solver tests."""
    return NormalizedPackingSDP(small_collection, name="fixture-problem")
