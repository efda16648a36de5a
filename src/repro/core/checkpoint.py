"""Checkpoint/resume for the decision solvers.

A :class:`SolverCheckpoint` captures everything a decision solve needs to
continue **bit-identically**: the weight vector and iteration index, the
solver's loop accumulators (primal averages, last oracle values, the phased
solver's mid-phase mask), the psi-state's incrementally-maintained buffers
and the Lanczos start-vector stream, the fast oracle's sketch rng / Taylor-engine
buffers / trace-estimator stream position, the supervisor's
ladder position and recovery-event trail, and the work–depth totals.  The
contract — certified by the chaos suite — is::

    interrupt at iteration k  +  resume_from=checkpoint
        ==  the uninterrupted run        (same seeds, same options)

field for field: same certified decision, same dual witness bitwise, same
history records, same counters, same recovery events.

Checkpoints are produced automatically by :func:`~repro.core.decision.decision_psdp`
and :func:`~repro.core.decision_phased.decision_psdp_phased` when a
``wall_clock_budget``/``iteration_budget`` exhausts (attached to
``result.metadata["checkpoint"]``) and, on demand, every
``DecisionOptions.checkpoint_every`` iterations (the latest one rides on a
``FAILED`` result so even a crashed solve is resumable).  They round-trip
to disk through :func:`repro.io.serialization.save_checkpoint` /
``load_checkpoint`` (versioned header, shape validation, checksum — a
truncated or corrupted file raises
:class:`~repro.exceptions.CheckpointError`, never garbage results).

Resume reconstructs the solver's plumbing exactly as a fresh run would
(same construction order, hence the same spawned rng streams), then applies
the checkpoint: structural ladder position first (rebuild a demoted dense
state or Taylor engine), then buffers, counters and rng states.  Any draws
consumed during construction are overwritten by the import, so the resumed
stream position equals the interrupted one.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import CheckpointError
from repro.instrumentation.history import IterationRecord

__all__ = ["CHECKPOINT_VERSION", "SolverCheckpoint", "capture_checkpoint", "restore_checkpoint"]

#: Format version stamped into every checkpoint (and its on-disk header).
CHECKPOINT_VERSION = 1


def _copy_or_none(array: np.ndarray | None) -> np.ndarray | None:
    return None if array is None else np.array(array)


def _tree_equal(a: Any, b: Any) -> bool:
    """Recursive exact equality over dict/list/array/scalar trees.

    Arrays compare with :func:`numpy.array_equal` (bitwise for the float
    payloads captured here); floats compare with ``nan == nan`` true so a
    checkpointed ``nan`` statistic does not break equality.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(_tree_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_tree_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (a != a and b != b) or a == b
    return type(a) is type(b) and a == b


@dataclass
class SolverCheckpoint:
    """Complete resumable state of one decision solve at an iteration boundary.

    Attributes
    ----------
    solver:
        Which solver captured it — ``"psdp"`` or ``"phased"``.  A resume
        validates this against the resuming entry point.
    iteration:
        The loop-top iteration index ``t`` the capture happened at.
    meta:
        Validation fingerprint: ``n``, ``m``, ``epsilon``, ``oracle`` kind,
        ``strict`` flag, whether the run was supervised and collected
        history.  A resume refuses (typed :class:`~repro.exceptions.CheckpointError`)
        when any of these mismatch the resuming call.
    loop:
        The solver-loop accumulators (weight vector ``x``, primal tracking
        sums, last oracle values).
    phase:
        The phased solver's outer/inner position (``None`` for ``psdp``):
        phase count, and — for mid-phase captures — the active update mask,
        the phase-start norm and the phase's oracle values.
    oracle / psi / supervisor / tracker:
        The component snapshots (each component's ``export_state()``).
    eig_rng:
        ``bit_generator.state`` of the spawned eigenvalue generator.
    history:
        Recorded :class:`~repro.instrumentation.history.IterationRecord`
        dicts up to the capture point (``None`` when history was off).
    version:
        :data:`CHECKPOINT_VERSION` at capture.

    Equality compares every field *except* the supervisor's wall-clock
    ``elapsed`` entry, array-aware — so two captures of the same logical
    state (e.g. batched vs. sequential) compare equal, and results whose
    metadata carries a checkpoint still support the test suite's plain
    ``metadata == metadata`` comparisons.
    """

    solver: str
    iteration: int
    meta: dict[str, Any]
    loop: dict[str, Any]
    phase: dict[str, Any] | None
    oracle: dict[str, Any]
    psi: dict[str, Any]
    supervisor: dict[str, Any] | None
    eig_rng: dict[str, Any] | None
    tracker: dict[str, Any]
    history: list[dict[str, Any]] | None
    version: int = CHECKPOINT_VERSION
    #: ``time.monotonic()`` timestamp of the capture — the executor's worker
    #: heartbeat: a worker that keeps capturing periodic checkpoints is alive,
    #: one whose latest ``captured_at`` goes stale is stalled.  Wall-clock
    #: only; excluded from equality (like the supervisor's ``elapsed``) so
    #: bit-identity comparisons between runs are unaffected.
    captured_at: float | None = None

    def _eq_payload(self) -> dict[str, Any]:
        supervisor = self.supervisor
        if isinstance(supervisor, dict):
            supervisor = {k: v for k, v in supervisor.items() if k != "elapsed"}
        return {
            "solver": self.solver,
            "iteration": self.iteration,
            "meta": self.meta,
            "loop": self.loop,
            "phase": self.phase,
            "oracle": self.oracle,
            "psi": self.psi,
            "supervisor": supervisor,
            "eig_rng": self.eig_rng,
            "tracker": self.tracker,
            "history": self.history,
            "version": self.version,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverCheckpoint):
            return NotImplemented
        return _tree_equal(self._eq_payload(), other._eq_payload())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverCheckpoint(solver={self.solver!r}, iteration={self.iteration}, "
            f"n={self.meta.get('n')}, m={self.meta.get('m')})"
        )

    # ------------------------------------------------------------------ disk
    def save(self, path) -> None:
        """Write the checkpoint to ``path`` (versioned ``.npz`` with checksum)."""
        from repro.io.serialization import save_checkpoint

        save_checkpoint(path, self)

    @staticmethod
    def load(path) -> "SolverCheckpoint":
        """Read a checkpoint written by :meth:`save`; validates the checksum."""
        from repro.io.serialization import load_checkpoint

        return load_checkpoint(path)

    def to_payload(self) -> dict[str, Any]:
        """The checkpoint as one nested dict (the serialization layer's input)."""
        return {
            "version": self.version,
            "solver": self.solver,
            "iteration": self.iteration,
            "meta": self.meta,
            "loop": self.loop,
            "phase": self.phase,
            "oracle": self.oracle,
            "psi": self.psi,
            "supervisor": self.supervisor,
            "eig_rng": self.eig_rng,
            "tracker": self.tracker,
            "history": self.history,
            "captured_at": self.captured_at,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "SolverCheckpoint":
        """Rebuild a checkpoint from :meth:`to_payload` output.

        Raises :class:`~repro.exceptions.CheckpointError` on missing fields
        or an unknown format version.
        """
        try:
            version = int(payload["version"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version} "
                    f"(this build reads version {CHECKPOINT_VERSION})"
                )
            return SolverCheckpoint(
                solver=str(payload["solver"]),
                iteration=int(payload["iteration"]),
                meta=dict(payload["meta"]),
                loop=dict(payload["loop"]),
                phase=None if payload["phase"] is None else dict(payload["phase"]),
                oracle=dict(payload["oracle"]),
                psi=dict(payload["psi"]),
                supervisor=(
                    None if payload["supervisor"] is None else dict(payload["supervisor"])
                ),
                eig_rng=None if payload["eig_rng"] is None else dict(payload["eig_rng"]),
                tracker=dict(payload["tracker"]),
                history=(
                    None
                    if payload["history"] is None
                    else [dict(rec) for rec in payload["history"]]
                ),
                version=version,
                captured_at=(
                    None
                    if payload.get("captured_at") is None
                    else float(payload["captured_at"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc


def capture_checkpoint(run, iteration: int, phase: dict[str, Any] | None = None) -> SolverCheckpoint:
    """Snapshot a running :class:`~repro.core.decision.DecisionRun` at an iteration boundary.

    ``phase`` is the phased solver's position (``phases`` count, plus the
    active ``mask``, ``phase_start_norm`` and ``values`` for a mid-phase
    capture).  Every array is copied so the solve can keep mutating its
    state without disturbing the checkpoint.  ``captured_at`` is
    ``time.monotonic()`` at call time — periodic captures double as
    worker-liveness heartbeats.
    """
    return SolverCheckpoint(
        solver=run.solver,
        iteration=int(iteration),
        meta={
            "n": int(run.n),
            "m": int(run.m),
            "epsilon": float(run.eps),
            "oracle": run.oracle_kind,
            "strict": bool(run.opts.strict),
            "supervised": True,
            "collect_history": run.history is not None,
        },
        loop={
            "primal_sum": _copy_or_none(run.primal_sum),
            "primal_rounds": int(run.primal_rounds),
            "last_density": _copy_or_none(run.last_density),
            "dots_sum": _copy_or_none(run.dots_sum),
            "last_values": _copy_or_none(run.last_values),
        },
        phase=None if phase is None else {
            "phases": int(phase.get("phases", 0)),
            "mask": _copy_or_none(phase.get("mask")),
            "phase_start_norm": phase.get("phase_start_norm"),
            "values": _copy_or_none(phase.get("values")),
        },
        oracle=run.oracle.export_state(),
        psi=run.state.export_state(),
        supervisor=run.supervisor.export_state(),
        eig_rng=copy.deepcopy(dict(run.eig_rng.bit_generator.state)),
        tracker=run.tracker.export_state(),
        history=None if run.history is None else [rec.as_dict() for rec in run.history],
        captured_at=time.monotonic(),
    )


def restore_checkpoint(ckpt: SolverCheckpoint, run) -> dict[str, Any] | None:
    """Apply a checkpoint to a freshly constructed :class:`~repro.core.decision.DecisionRun`.

    Validates the checkpoint against the run (typed
    :class:`~repro.exceptions.CheckpointError` on any mismatch, and for a
    capture taken without fault supervision), rebuilds a demoted-dense psi
    state when the capture happened mid-ladder, imports every component
    snapshot and reinstates the loop state on ``run``.  Returns the
    interrupted phase's ``mask``, ``values`` and ``phase_start_norm`` for a
    mid-phase capture of the phased solver, else ``None``.
    """
    if not isinstance(ckpt, SolverCheckpoint):
        raise CheckpointError(
            f"resume_from must be a SolverCheckpoint, got {type(ckpt).__name__}"
        )
    if ckpt.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {ckpt.version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if ckpt.solver != run.solver:
        raise CheckpointError(
            f"checkpoint was captured by the {ckpt.solver!r} solver; "
            f"cannot resume it with {run.solver!r}"
        )
    expect = {
        "n": run.n, "m": run.m, "epsilon": float(run.eps),
        "oracle": run.oracle_kind, "strict": run.opts.strict,
    }
    for key, value in expect.items():
        have = ckpt.meta.get(key)
        if have != value:
            raise CheckpointError(
                f"checkpoint/options mismatch on {key!r}: "
                f"checkpoint has {have!r}, resuming call has {value!r}"
            )
    if ckpt.meta.get("supervised") is not True:
        raise CheckpointError(
            "checkpoint was captured without fault supervision; every solve "
            "is supervised now, so it cannot be resumed — re-solve instead"
        )
    if ckpt.meta.get("collect_history") != (run.history is not None):
        raise CheckpointError(
            "checkpoint/options mismatch on 'collect_history': resume with "
            "the same history setting the checkpoint was captured under"
        )

    # Ladder position first: a capture after an implicit→dense demotion
    # resumes on a dense state even though the fresh construction picked
    # the implicit one.  The reverse direction is an options mismatch.
    state = run.state
    psi_mode = ckpt.psi.get("mode")
    if psi_mode != state.mode:
        if psi_mode == "dense" and state.mode == "implicit":
            from repro.core.psi_state import DensePsiState

            state = DensePsiState(run.constraints, state.x, eig_rng=run.eig_rng)
            run.supervisor.state = state
        else:
            raise CheckpointError(
                f"checkpoint psi-state mode {psi_mode!r} cannot be resumed "
                f"on a {state.mode!r} state (options mismatch)"
            )
    state.import_state(ckpt.psi)
    try:
        run.oracle.import_state(ckpt.oracle)
    except AttributeError as exc:
        raise CheckpointError(
            f"oracle {type(run.oracle).__name__} does not support checkpoint resume"
        ) from exc
    run.supervisor.import_state(ckpt.supervisor)
    if ckpt.eig_rng is not None:
        run.eig_rng.bit_generator.state = copy.deepcopy(ckpt.eig_rng)
    run.tracker.import_state(ckpt.tracker)
    if run.history is not None and ckpt.history is not None:
        run.history.records[:] = [IterationRecord(**rec) for rec in ckpt.history]

    loop = ckpt.loop
    run.t = int(ckpt.iteration)
    run.primal_sum = _copy_or_none(loop.get("primal_sum"))
    run.primal_rounds = int(loop.get("primal_rounds", 0))
    run.last_density = _copy_or_none(loop.get("last_density"))
    run.dots_sum = _copy_or_none(loop.get("dots_sum"))
    run.last_values = _copy_or_none(loop.get("last_values"))
    if ckpt.phase is None:
        return None
    run.phases = int(ckpt.phase.get("phases", 0))
    if ckpt.phase.get("mask") is None:
        return None
    return {
        "mask": np.array(ckpt.phase["mask"], dtype=bool),
        "values": np.array(ckpt.phase["values"], dtype=np.float64),
        "phase_start_norm": float(ckpt.phase["phase_start_norm"]),
    }
