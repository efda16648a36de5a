"""Span tracing of the solver's layers from outside ``src/``.

A traced run wraps each layer's public entry point at the name its caller
looks it up under (a module attribute such as
``repro.core.solver.decision_psdp``, or a method on the class that owns
it), records one span per call -- name, start, end, parent -- and puts
every original back when the run ends.  Spans stay in memory; the
per-layer summary derives calls, inclusive time and self time from them.
A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (layer name, module path, attribute path inside the module).  Module
#: attributes are patched in the module that *calls* them, so each entry
#: names the caller's lookup site; methods are patched on the class that
#: defines them.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("solver", "repro.core.solver", "approx_psdp"),
    ("decision", "repro.core.decision", "decision_psdp"),
    ("decision", "repro.core.solver", "decision_psdp"),
    ("decision", "repro.core.batch", "decision_psdp"),
    ("decision", "repro.service.executor", "decision_psdp"),
    ("dotexp", "repro.core.dotexp", "FastDotExpOracle.__call__"),
    ("norms.kappa", "repro.core.dotexp", "spectral_norm_power"),
    ("taylor.apply", "repro.linalg.taylor_blocked", "_FusedTaylorApplyBase.apply"),
    ("taylor.engine_update", "repro.linalg.taylor_gram", "TaylorEngine.kernel_for"),
    ("trace", "repro.linalg.trace_estimation", "TraceEstimator.estimate"),
    ("psi_state.update", "repro.core.psi_state", "DensePsiState.add_delta"),
    ("psi_state.update", "repro.core.psi_state", "ImplicitPsiState.add_delta"),
    ("psi_state.lambda_max", "repro.core.psi_state", "DensePsiState.lambda_max"),
    ("psi_state.lambda_max", "repro.core.psi_state", "ImplicitPsiState.lambda_max"),
    ("certificates", "repro.core.solver", "verify_dual"),
    ("certificates", "repro.core.solver", "verify_primal"),
    ("packed.build", "repro.operators.collection", "ConstraintCollection.packed"),
    ("batch", "repro.service.executor", "solve_many"),
    ("checkpoint.capture", "repro.core.decision", "capture_checkpoint"),
    ("checkpoint.capture", "repro.core.batch", "capture_checkpoint"),
    ("checkpoint.restore", "repro.core.decision", "restore_checkpoint"),
    ("service.submit", "repro.service.solve_service", "SolveService.submit"),
    ("service.step", "repro.service.solve_service", "SolveService.step"),
    ("executor", "repro.service.executor", "WorkerPool.submit"),
)


def _decision_iterations(args: tuple, kwargs: dict, result: Any) -> float:
    """Iterations one ``decision_psdp`` call executed (a resume starts late)."""
    resume = kwargs.get("resume_from")
    start = resume.iteration if resume is not None else 0
    return float(result.iterations - start)


def _batch_instances(args: tuple, kwargs: dict, result: Any) -> float:
    """Instances one ``solve_many`` call received."""
    return float(len(result))


#: Per-layer hooks that read a unit count off the call's return value.
UNIT_HOOKS: dict[str, Callable[[tuple, dict, Any], float]] = {
    "decision": _decision_iterations,
    "batch": _batch_instances,
}


@dataclass
class LayerStats:
    """Aggregate of one layer's spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, units]`` list per call.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans, stack = self.spans, self._stack
        hook = UNIT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def layers(self) -> dict[str, LayerStats]:
        """Calls, inclusive seconds, self seconds and units per layer."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, LayerStats] = {}
        for (name, start, end, _, units), child_s in zip(self.spans, covered):
            stats = out.setdefault(name, LayerStats())
            stats.calls += 1
            stats.total_s += end - start
            stats.self_s += end - start - child_s
            stats.units += units
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        spans = self.spans
        return sum(
            1
            for name, _, _, up, _ in spans
            if name == child and up >= 0 and spans[up][0] == parent
        )


def _resolve(module_path: str, attr_path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every :data:`PATCH_POINTS` entry for the ``with`` block, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, module_path, attr_path in PATCH_POINTS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
