"""The work–depth cost model.

Work = total number of primitive operations; depth (span) = length of the
longest chain of sequentially dependent operations.  The paper's Theorem 1.1
and Corollary 1.2 are statements about these two quantities, so the
reproduction measures them directly: every execution-backend ``map`` in
:mod:`repro.parallel.backends` and every solver iteration charges its work
and depth to a :class:`WorkDepthTracker`.

Composition rules implemented here (the standard ones, see e.g. JáJá 1992):

* sequential composition: work adds, depth adds;
* parallel composition (a ``parallel_region``): work adds, depth is the
  *maximum* over the parallel branches.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class WorkDepthReport:
    """Immutable summary of accumulated work and depth.

    Attributes
    ----------
    work:
        Total primitive operations charged.
    depth:
        Critical-path length.
    events:
        Number of charge events (useful to sanity check instrumentation).
    by_label:
        Work broken down by the label passed to ``charge``/``map``.
    """

    work: float
    depth: float
    events: int
    by_label: dict[str, float] = field(default_factory=dict)

    @property
    def parallelism(self) -> float:
        """Average parallelism ``work / depth`` (the speedup ceiling)."""
        return self.work / self.depth if self.depth > 0 else float("inf")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkDepthReport(work={self.work:.3g}, depth={self.depth:.3g}, "
            f"parallelism={self.parallelism:.3g}, events={self.events})"
        )


class WorkDepthTracker:
    """Accumulates work and depth with support for nested parallel regions.

    Outside any parallel region, ``charge(work, depth)`` behaves like
    sequential composition.  Inside a :func:`parallel_region` (entered via
    :meth:`parallel` or the module-level context manager), charges from the
    enclosed branches add their work but contribute only the maximum of
    their depths when the region closes.
    """

    def __init__(self) -> None:
        self.work: float = 0.0
        self.depth: float = 0.0
        self.events: int = 0
        self.by_label: dict[str, float] = {}
        # Stack of (accumulated_parallel_work, max_branch_depth) frames.
        self._region_stack: list[list[float]] = []

    # ------------------------------------------------------------------ charging
    def charge(self, work: float, depth: float | None = None, label: str = "") -> None:
        """Charge ``work`` operations with critical path ``depth`` (default: same).

        ``depth`` defaults to ``work`` (a purely sequential fragment).
        """
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        depth = work if depth is None else depth
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.events += 1
        if label:
            self.by_label[label] = self.by_label.get(label, 0.0) + work
        if self._region_stack:
            frame = self._region_stack[-1]
            frame[0] += work
            frame[1] = max(frame[1], depth)
        else:
            self.work += work
            self.depth += depth

    @contextmanager
    def parallel(self) -> Iterator["WorkDepthTracker"]:
        """Open a parallel region: enclosed charges add work, max their depths."""
        self._region_stack.append([0.0, 0.0])
        try:
            yield self
        finally:
            region_work, region_depth = self._region_stack.pop()
            # The closed region behaves like a single charge to the enclosing scope.
            self.events += 1
            if self._region_stack:
                frame = self._region_stack[-1]
                frame[0] += region_work
                frame[1] = max(frame[1], region_depth)
            else:
                self.work += region_work
                self.depth += region_depth

    # ------------------------------------------------------------------ reporting
    def report(self) -> WorkDepthReport:
        """Snapshot of the accumulated totals."""
        return WorkDepthReport(
            work=self.work,
            depth=self.depth,
            events=self.events,
            by_label=dict(self.by_label),
        )

    def export_state(self) -> dict:
        """Checkpointable snapshot of the accumulated totals.

        Captured only between iterations (never inside an open parallel
        region), so the region stack is not part of the snapshot.
        """
        return {
            "work": float(self.work),
            "depth": float(self.depth),
            "events": int(self.events),
            "by_label": dict(self.by_label),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.work = float(state["work"])
        self.depth = float(state["depth"])
        self.events = int(state["events"])
        self.by_label = dict(state["by_label"])
        self._region_stack.clear()

    def reset(self) -> None:
        """Zero all accumulated work, depth, events, and labels."""
        self.work = 0.0
        self.depth = 0.0
        self.events = 0
        self.by_label.clear()
        self._region_stack.clear()

    def merge(self, other: "WorkDepthTracker | WorkDepthReport") -> None:
        """Sequentially compose another tracker's totals into this one."""
        self.work += other.work
        self.depth += other.depth
        self.events += other.events
        for label, amount in other.by_label.items():
            self.by_label[label] = self.by_label.get(label, 0.0) + amount


@contextmanager
def parallel_region(tracker: WorkDepthTracker | None) -> Iterator[WorkDepthTracker | None]:
    """Module-level convenience: no-op when ``tracker`` is ``None``."""
    if tracker is None:
        yield None
        return
    with tracker.parallel():
        yield tracker
