"""Hypothesis property tests for the packed-kernel invariants (tier-1).

The properties pin the reference semantics of the segment reductions, the
packed stack and the Gram-spectrum trace:

* segment sums respect arbitrary (possibly empty / zero-rank) offset
  layouts and always total to the grand sum;
* the packed round-trip ``build -> weighted_sum`` equals the naive
  ``sum_i w_i A_i``;
* the Gram-spectrum trace of the truncated exponential is monotone in the
  degree on PSD inputs (each added Taylor term of ``exp`` is PSD, so
  traces grow).
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg.trace_estimation import gram_exp_trace
from repro.operators.packed import PackedGramFactors, batched_segment_sums, segment_sums


@st.composite
def segmented_values(draw):
    """(values, offsets) with arbitrary segment widths, empties included."""
    widths = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=6)
    )
    total = sum(widths)
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
            min_size=total,
            max_size=total,
        )
    )
    offsets = np.concatenate([[0], np.cumsum(widths, dtype=np.int64)])
    return np.asarray(values, dtype=np.float64), offsets


@settings(max_examples=60, deadline=None)
@given(segmented_values())
def test_segment_sums_partition_invariants(data):
    values, offsets = data
    sums = segment_sums(values, offsets)
    assert sums.shape == (offsets.shape[0] - 1,)
    # Empty segments are exactly zero; the partition conserves the total.
    widths = np.diff(offsets)
    assert np.all(sums[widths == 0] == 0.0)
    np.testing.assert_allclose(sums.sum(), values.sum(), rtol=1e-9, atol=1e-6)
    # Per-segment agreement with the obvious slice reduction.
    for i in range(widths.shape[0]):
        lo, hi = offsets[i], offsets[i + 1]
        np.testing.assert_allclose(
            sums[i], values[lo:hi].sum(), rtol=1e-9, atol=1e-6
        )


@settings(max_examples=40, deadline=None)
@given(segmented_values(), st.integers(min_value=1, max_value=3))
def test_batched_segment_sums_matches_rows(data, batch):
    values, offsets = data
    stacked = np.tile(values, (batch, 1)) * np.arange(1, batch + 1)[:, None]
    out = batched_segment_sums(stacked, offsets)
    assert out.shape == (batch, offsets.shape[0] - 1)
    for b in range(batch):
        np.testing.assert_array_equal(out[b], segment_sums(stacked[b], offsets))


@st.composite
def factor_stacks(draw):
    """A small list of per-constraint Gram factors with mixed ranks."""
    m = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    ranks = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    factors = [rng.standard_normal((m, r)) for r in ranks]
    weights = rng.uniform(0.0, 2.0, size=n)
    return factors, weights


@settings(max_examples=40, deadline=None)
@given(factor_stacks())
def test_packed_weighted_sum_round_trip(data):
    factors, weights = data
    packed = PackedGramFactors(factors)
    got = packed.weighted_sum(weights)
    want = sum(w * (q @ q.T) for w, q in zip(weights, factors))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
    # The packed traces are the factor Frobenius norms, segment-summed.
    np.testing.assert_allclose(
        packed.traces(),
        [float(np.sum(q * q)) for q in factors],
        rtol=1e-10,
        atol=1e-10,
    )


@settings(max_examples=30, deadline=None)
@given(factor_stacks(), st.integers(min_value=2, max_value=8))
def test_gram_trace_degree_monotonicity(data, degree):
    """Adding a Taylor term of ``exp`` on a PSD ``Psi`` never shrinks the trace."""
    factors, weights = data
    packed = PackedGramFactors(factors)
    assume(packed.total_rank <= packed.dim)  # the Gram-spectrum trace's domain
    gram = packed.gram_matrix()
    col_w = packed.expand_weights(weights)
    lo = gram_exp_trace(gram, col_w, packed.dim, degree, scale=0.5)
    hi = gram_exp_trace(gram, col_w, packed.dim, degree + 1, scale=0.5)
    assert hi >= lo - 1e-9 * max(abs(lo), 1.0)
