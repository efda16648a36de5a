"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.psd import random_psd
from repro.operators.collection import ConstraintCollection
from repro.core.problem import NormalizedPackingSDP


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator shared by tests."""
    return np.random.default_rng(20120522)


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
