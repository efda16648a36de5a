"""Tests for the work-depth cost model, execution backends, and scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import BackendError
from repro.parallel import (
    BrentSchedule,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkDepthTracker,
    get_backend,
    simulate_schedule,
)
from repro.parallel.scheduler import speedup_curve


class TestWorkDepthTracker:
    def test_sequential_charges_add(self):
        tracker = WorkDepthTracker()
        tracker.charge(10, 2)
        tracker.charge(5, 1)
        assert tracker.work == 15
        assert tracker.depth == 3

    def test_depth_defaults_to_work(self):
        tracker = WorkDepthTracker()
        tracker.charge(7)
        assert tracker.depth == 7

    def test_parallel_region_max_depth(self):
        tracker = WorkDepthTracker()
        with tracker.parallel():
            tracker.charge(10, 4)
            tracker.charge(20, 6)
        assert tracker.work == 30
        assert tracker.depth == 6

    def test_nested_parallel_regions(self):
        tracker = WorkDepthTracker()
        with tracker.parallel():
            tracker.charge(5, 5)
            with tracker.parallel():
                tracker.charge(3, 3)
                tracker.charge(4, 4)
        assert tracker.work == 12
        assert tracker.depth == 5  # max(5, max(3, 4))

    def test_labels_accumulate(self):
        tracker = WorkDepthTracker()
        tracker.charge(3, 1, label="oracle")
        tracker.charge(4, 1, label="oracle")
        assert tracker.report().by_label["oracle"] == 7

    def test_negative_rejected(self):
        tracker = WorkDepthTracker()
        with pytest.raises(ValueError):
            tracker.charge(-1)
        with pytest.raises(ValueError):
            tracker.charge(1, -2)

    def test_reset_and_merge(self):
        tracker = WorkDepthTracker()
        tracker.charge(5, 5)
        other = WorkDepthTracker()
        other.charge(3, 2)
        tracker.merge(other)
        assert tracker.work == 8
        tracker.reset()
        assert tracker.work == 0 and tracker.depth == 0

    def test_report_parallelism(self):
        tracker = WorkDepthTracker()
        tracker.charge(100, 5)
        assert tracker.report().parallelism == pytest.approx(20.0)


class TestBackends:
    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_map_preserves_order(self, backend_name):
        backend = get_backend(backend_name)
        try:
            result = backend.map(lambda v: v * v, range(10))
            assert result == [v * v for v in range(10)]
        finally:
            backend.close()

    def test_process_backend_with_picklable_function(self):
        backend = ProcessBackend(max_workers=1)
        try:
            result = backend.map(abs, [-1, -2, 3])
            assert result == [1, 2, 3]
        finally:
            backend.close()

    def test_map_charges_tracker(self):
        tracker = WorkDepthTracker()
        backend = SerialBackend(tracker=tracker)
        backend.map(lambda v: v, range(8), work_per_item=2.0, label="unit")
        assert tracker.work == 16
        assert tracker.depth == 2

    def test_per_item_work_list(self):
        tracker = WorkDepthTracker()
        backend = SerialBackend(tracker=tracker)
        backend.map(lambda v: v, [1, 2, 3], work_per_item=[1.0, 5.0, 2.0])
        assert tracker.work == 8
        assert tracker.depth == 5

    def test_charge_batched_charges_what_map_charges(self):
        """One batched kernel must charge exactly what the mapped
        per-item loop charges: same work, same depth, same label."""
        work = [1.0, 5.0, 2.0, 3.0]
        mapped, batched = WorkDepthTracker(), WorkDepthTracker()
        SerialBackend(tracker=mapped).map(
            lambda v: v, range(4), work_per_item=work, label="constraint-dots"
        )
        SerialBackend(tracker=batched).charge_batched(
            4, work_per_item=work, label="constraint-dots"
        )
        assert batched.work == mapped.work
        assert batched.depth == mapped.depth
        assert batched.by_label == mapped.by_label

    def test_per_item_work_length_mismatch(self):
        backend = SerialBackend(tracker=WorkDepthTracker())
        with pytest.raises(BackendError):
            backend.map(lambda v: v, [1, 2], work_per_item=[1.0])

    def test_empty_map(self):
        assert SerialBackend().map(lambda v: v, []) == []

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            get_backend("gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(BackendError):
            ThreadBackend(max_workers=0)

    def test_context_manager(self):
        with ThreadBackend(max_workers=2) as backend:
            assert backend.map(len, ["ab", "c"]) == [2, 1]


class TestScheduler:
    def test_brent_bounds(self):
        tracker = WorkDepthTracker()
        tracker.charge(1000, 10)
        schedule = simulate_schedule(tracker, processors=10)
        assert schedule.time_upper == pytest.approx(110.0)
        assert schedule.time_lower == pytest.approx(100.0)
        assert schedule.speedup_lower <= schedule.speedup_upper

    def test_single_processor_no_speedup(self):
        tracker = WorkDepthTracker()
        tracker.charge(50, 5)
        schedule = simulate_schedule(tracker, processors=1)
        assert schedule.speedup_upper <= 1.0 + 1e-9

    def test_invalid_processors(self):
        tracker = WorkDepthTracker()
        tracker.charge(1, 1)
        with pytest.raises(ValueError):
            simulate_schedule(tracker, processors=0)

    def test_speedup_curve_monotone(self):
        tracker = WorkDepthTracker()
        tracker.charge(10_000, 10)
        curve = speedup_curve(tracker, [1, 2, 4, 8, 16])
        speedups = [point.speedup_lower for point in curve]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))

    def test_efficiency_bounded(self):
        tracker = WorkDepthTracker()
        tracker.charge(100, 50)
        schedule = simulate_schedule(tracker, processors=4)
        assert 0 < schedule.efficiency <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    works=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
    depths=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
)
def test_parallel_region_invariants(works, depths):
    """Property: work adds and depth is the max across any parallel region."""
    n = min(len(works), len(depths))
    works, depths = works[:n], depths[:n]
    depths = [min(w, d) for w, d in zip(works, depths)]
    tracker = WorkDepthTracker()
    with tracker.parallel():
        for w, d in zip(works, depths):
            tracker.charge(w, d)
    assert tracker.work == pytest.approx(sum(works))
    assert tracker.depth == pytest.approx(max(depths) if depths else 0.0)
    assert tracker.depth <= tracker.work + 1e-9
