"""Checkpoint/resume contract: interrupt-anywhere, resume bit-identically.

The :class:`~repro.core.checkpoint.SolverCheckpoint` contract under test:

* a budget-exhausted solve attaches ``metadata["checkpoint"]`` capturing
  *everything* (weight vector, iteration index, phase state, eigensolver
  rng generator state, supervisor ladder position, oracle/psi/trace
  counters, history prefix) needed to continue;
* ``decision_psdp(..., resume_from=ckpt)`` — and the phased variant,
  including resume *inside* a phase — continues so that
  interrupt-at-``k``-then-resume equals the uninterrupted run
  field-for-field, bitwise on arrays;
* checkpoints round-trip to disk through
  :mod:`repro.io.serialization` (versioned header, SHA-256 checksum) and
  a truncated/corrupted file raises a typed
  :class:`~repro.exceptions.CheckpointError`;
* ``solve_many`` emits the *same* per-instance checkpoints as the
  sequential solver at the same iteration, and ``rng_indices`` pins an
  instance's random stream independently of batch composition.
"""

import numpy as np
import pytest

from repro.core.batch import instance_rng, solve_many
from repro.core.checkpoint import CHECKPOINT_VERSION, SolverCheckpoint
from repro.core.decision import DecisionOptions, decision_psdp
from repro.core.decision_phased import decision_psdp_phased
from repro.core.result import SolveStatus
from repro.exceptions import CheckpointError, InvalidProblemError, SerializationError
from repro.io.serialization import load_checkpoint, save_checkpoint, save_normalized_sdp

from helpers import assert_results_identical, factorized_family
from test_decision_packed_regressions import _concentrated_sparse_collection


def small_collection(seed=11, n=8, m=24):
    # A fresh collection per call; re-solving one object would return the
    # same bits (tests/test_determinism.py).
    return factorized_family(seed, n=n, m=m, rank=2, scale=0.35)


def solve_opts(**overrides):
    base = dict(epsilon=0.25, oracle="fast", rng=3, collect_history=True)
    base.update(overrides)
    return base


class TestOptionsValidation:
    """Bad budgets/cadences are caught at construction, not mid-solve."""

    def test_negative_wall_clock_budget_rejected(self):
        with pytest.raises(InvalidProblemError, match="wall_clock_budget"):
            DecisionOptions(wall_clock_budget=-1.0)

    def test_negative_iteration_budget_rejected(self):
        with pytest.raises(InvalidProblemError, match="iteration_budget"):
            DecisionOptions(iteration_budget=-3)

    def test_negative_max_recoveries_rejected(self):
        with pytest.raises(InvalidProblemError, match="max_recoveries"):
            DecisionOptions(max_recoveries=-1)

    @pytest.mark.parametrize("cadence", [0, -5])
    def test_non_positive_checkpoint_every_rejected(self, cadence):
        with pytest.raises(InvalidProblemError, match="checkpoint_every"):
            DecisionOptions(checkpoint_every=cadence)


class TestCaptureSemantics:
    """When checkpoints appear and what they carry."""

    def test_budget_exhaustion_attaches_checkpoint(self):
        result = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        )
        assert result.status == SolveStatus.BUDGET_EXHAUSTED
        ckpt = result.metadata["checkpoint"]
        assert isinstance(ckpt, SolverCheckpoint)
        assert ckpt.solver == "psdp"
        assert ckpt.iteration == 3
        assert ckpt.version == CHECKPOINT_VERSION

    def test_phased_budget_exhaustion_attaches_checkpoint(self):
        result = decision_psdp_phased(
            small_collection(), **solve_opts(iteration_budget=2)
        )
        assert result.status == SolveStatus.BUDGET_EXHAUSTED
        ckpt = result.metadata["checkpoint"]
        assert isinstance(ckpt, SolverCheckpoint)
        assert ckpt.solver == "phased"
        # A mid-phase capture carries the live phase mask so resume can
        # re-enter the inner loop without re-calling the oracle.
        assert ckpt.phase is not None
        assert ckpt.phase["mask"] is not None

    def test_certified_run_has_no_checkpoint(self):
        result = decision_psdp(small_collection(), **solve_opts())
        assert result.status == SolveStatus.CERTIFIED
        assert "checkpoint" not in result.metadata

    def test_checkpoint_equality_is_array_aware(self):
        result = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        )
        ckpt = result.metadata["checkpoint"]
        again = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
        assert ckpt == again
        other = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=4)
        ).metadata["checkpoint"]
        assert ckpt != other

    def test_resume_rejects_cross_problem_checkpoint(self):
        ckpt = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
        with pytest.raises(CheckpointError):
            decision_psdp(
                factorized_family(11, n=5, m=24),
                **solve_opts(),
                resume_from=ckpt,
            )

    def test_resume_rejects_wrong_solver_checkpoint(self):
        ckpt = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
        with pytest.raises(CheckpointError):
            decision_psdp_phased(small_collection(), **solve_opts(), resume_from=ckpt)

    def test_resume_rejects_unsupervised_checkpoint(self):
        # Every solve is supervised, so a capture whose metadata says it ran
        # without a supervisor (it carries no ladder state) cannot resume.
        ckpt = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
        ckpt.meta["supervised"] = False
        ckpt.supervisor = None
        with pytest.raises(CheckpointError, match="supervision"):
            decision_psdp(small_collection(), **solve_opts(), resume_from=ckpt)

    @pytest.mark.parametrize(
        "edit, match, make",
        [
            (lambda oracle: oracle.update(engine_enabled=False), "per-call blocked", None),
            (lambda oracle: oracle["trace"].update(mode="hutchinson"), "no longer exists", None),
            (lambda oracle: oracle["trace"].update(mode="deflated"), "no longer exists", None),
            (lambda oracle: oracle.update(trace=None), "without a trace estimator", None),
            (lambda oracle: oracle["engine"].update(mode="dense-factors"), "Taylor engine", None),
            # The removed sparse-Psi engine mode, on a sparse stack it ran on.
            (
                lambda oracle: oracle["engine"].update(mode="sparse-psi"),
                "Taylor engine",
                _concentrated_sparse_collection,
            ),
        ],
        ids=[
            "engine-off-blocked-on", "stochastic-trace", "deflated-trace",
            "no-trace-estimator", "dense-factors-engine", "sparse-psi-engine",
        ],
    )
    def test_resume_rejects_removed_oracle_options(self, edit, match, make):
        # Version-1 oracle payloads that only a removed fast-oracle option
        # could have written fail typed instead of resuming on another path.
        make = make or small_collection
        ckpt = decision_psdp(
            make(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
        edit(ckpt.oracle)
        with pytest.raises(CheckpointError, match=match):
            decision_psdp(make(), **solve_opts(), resume_from=ckpt)


class TestResumeBitIdentical:
    """Interrupt at iteration ``k`` then resume == uninterrupted run."""

    def test_every_interrupt_point_resumes_identically(self):
        baseline = decision_psdp(small_collection(), **solve_opts())
        assert baseline.status == SolveStatus.CERTIFIED
        for k in range(1, baseline.iterations):
            partial = decision_psdp(
                small_collection(), **solve_opts(iteration_budget=k)
            )
            assert partial.status == SolveStatus.BUDGET_EXHAUSTED, f"k={k}"
            resumed = decision_psdp(
                small_collection(),
                **solve_opts(),
                resume_from=partial.metadata["checkpoint"],
            )
            assert_results_identical(resumed, baseline, label=f"resume@{k}")

    def test_phased_every_interrupt_point_resumes_identically(self):
        baseline = decision_psdp_phased(small_collection(), **solve_opts())
        assert baseline.status == SolveStatus.CERTIFIED
        for k in range(1, baseline.iterations):
            partial = decision_psdp_phased(
                small_collection(), **solve_opts(iteration_budget=k)
            )
            assert partial.status == SolveStatus.BUDGET_EXHAUSTED, f"k={k}"
            resumed = decision_psdp_phased(
                small_collection(),
                **solve_opts(),
                resume_from=partial.metadata["checkpoint"],
            )
            assert_results_identical(resumed, baseline, label=f"phased-resume@{k}")

    def test_exact_oracle_resume_identical(self):
        def coll():
            return factorized_family(5, n=6, m=10)

        baseline = decision_psdp(coll(), **solve_opts(oracle="exact"))
        partial = decision_psdp(
            coll(), **solve_opts(oracle="exact", iteration_budget=2)
        )
        resumed = decision_psdp(
            coll(),
            **solve_opts(oracle="exact"),
            resume_from=partial.metadata["checkpoint"],
        )
        assert_results_identical(resumed, baseline, label="exact-resume")

    def test_chained_resumes_identical(self):
        # Interrupt, resume with another budget, interrupt again, finish:
        # multi-hop continuation still lands on the baseline bits.
        baseline = decision_psdp(small_collection(), **solve_opts())
        partial = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=2)
        )
        mid = decision_psdp(
            small_collection(),
            **solve_opts(iteration_budget=4),
            resume_from=partial.metadata["checkpoint"],
        )
        assert mid.status == SolveStatus.BUDGET_EXHAUSTED
        assert mid.iterations == 4
        resumed = decision_psdp(
            small_collection(), **solve_opts(), resume_from=mid.metadata["checkpoint"]
        )
        assert_results_identical(resumed, baseline, label="chained-resume")

    def test_resume_with_exhausted_budget_recheckpoints(self):
        partial = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        )
        again = decision_psdp(
            small_collection(),
            **solve_opts(iteration_budget=3),
            resume_from=partial.metadata["checkpoint"],
        )
        assert again.status == SolveStatus.BUDGET_EXHAUSTED
        assert again.iterations == 3
        assert again.metadata["checkpoint"] == partial.metadata["checkpoint"]


class TestDiskRoundTrip:
    """Versioned, checksummed persistence through ``repro.io.serialization``."""

    def _checkpoint(self):
        return decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]

    def test_round_trip_preserves_equality(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "state.npz"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path) == ckpt

    def test_resume_from_disk_identical(self, tmp_path):
        baseline = decision_psdp(small_collection(), **solve_opts())
        partial = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        )
        path = tmp_path / "state.npz"
        partial.metadata["checkpoint"].save(path)
        resumed = decision_psdp(
            small_collection(), **solve_opts(), resume_from=SolverCheckpoint.load(path)
        )
        assert_results_identical(resumed, baseline, label="disk-resume")

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "state.npz"
        save_checkpoint(path, self._checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bit_flip_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "state.npz"
        save_checkpoint(path, self._checkpoint())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_problem_archive_is_not_a_checkpoint(self, tmp_path):
        from repro.problems.random_instances import random_packing_sdp

        problem = random_packing_sdp(4, 6, rng=0)
        path = tmp_path / "problem.npz"
        save_normalized_sdp(path, problem)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_save_rejects_non_checkpoint(self, tmp_path):
        with pytest.raises(SerializationError):
            save_checkpoint(tmp_path / "state.npz", {"not": "a checkpoint"})


class TestBatchCheckpoints:
    """``solve_many`` budget exhaustion checkpoints match sequential."""

    def _batch(self, size=3):
        return [small_collection(seed=7 + 11 * i) for i in range(size)]

    def test_per_instance_checkpoints_match_sequential(self):
        budget = 5
        batched = solve_many(
            self._batch(), epsilon=0.25, oracle="fast", rng=3,
            iteration_budget=budget,
        )
        for i, (coll, result) in enumerate(zip(self._batch(), batched)):
            assert result.status == SolveStatus.BUDGET_EXHAUSTED
            sequential = decision_psdp(
                coll, epsilon=0.25, oracle="fast",
                rng=instance_rng(3, i), iteration_budget=budget,
            )
            assert result.metadata["checkpoint"] == sequential.metadata["checkpoint"], (
                f"instance {i}: batched checkpoint differs from sequential"
            )

    def test_batched_checkpoint_resumes_to_sequential_result(self):
        batched = solve_many(
            self._batch(), epsilon=0.25, oracle="fast", rng=3, iteration_budget=5
        )
        for i, (coll, partial) in enumerate(zip(self._batch(), batched)):
            baseline = decision_psdp(
                coll, epsilon=0.25, oracle="fast", rng=instance_rng(3, i)
            )
            resumed = decision_psdp(
                coll, epsilon=0.25, oracle="fast",
                resume_from=partial.metadata["checkpoint"],
            )
            assert_results_identical(resumed, baseline, label=f"batch-resume[{i}]")

    def test_rng_indices_pin_instance_streams(self):
        # Solving instance #2 alone with rng_indices=[2] must reproduce its
        # result from the full batch — the stream follows the index, not
        # the batch position.
        full = solve_many(self._batch(), epsilon=0.25, oracle="fast", rng=3)
        alone = solve_many(
            [self._batch()[2]], epsilon=0.25, oracle="fast", rng=3,
            rng_indices=[2],
        )
        assert_results_identical(alone[0], full[2], label="rng_indices")

    def test_rng_indices_length_mismatch_rejected(self):
        with pytest.raises(InvalidProblemError):
            solve_many(
                self._batch(), epsilon=0.25, oracle="fast", rng=3,
                rng_indices=[0, 1],
            )


class TestHardenedProblemLoaders:
    """The problem loaders reject corrupted archives with typed errors."""

    def _saved_problem(self, tmp_path):
        from repro.problems.random_instances import random_packing_sdp

        problem = random_packing_sdp(4, 6, rng=0)
        path = tmp_path / "problem.npz"
        save_normalized_sdp(path, problem)
        return path

    def test_truncated_problem_archive(self, tmp_path):
        path = self._saved_problem(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        from repro.io.serialization import load_normalized_sdp

        with pytest.raises(SerializationError):
            load_normalized_sdp(path)

    def test_nan_poisoned_constraints(self, tmp_path):
        from repro.io.serialization import load_normalized_sdp

        path = self._saved_problem(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
        stacked = np.array(payload["constraints"])
        stacked[0, 0, 0] = np.nan
        payload["constraints"] = stacked
        np.savez_compressed(path, **payload)
        with pytest.raises(SerializationError, match="non-finite"):
            load_normalized_sdp(path)


class TestAtomicSaves:
    """Write-then-rename persistence: a killed save never corrupts state.

    The executor's process-mode heartbeat writes checkpoints while the
    watchdog may kill the worker at any instant, so every saver in
    ``repro.io.serialization`` goes through ``_atomic_savez``: the archive
    is written to a same-directory temp file, fsynced, and ``os.replace``d
    onto the destination — readers see the previous complete file or the
    new complete file, never a truncated archive.
    """

    def _checkpoint(self):
        return decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]

    def test_successful_save_leaves_no_temp_files(self, tmp_path):
        save_checkpoint(tmp_path / "state.npz", self._checkpoint())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.npz"]

    def test_interrupted_save_preserves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.npz"
        first = self._checkpoint()
        save_checkpoint(path, first)
        blob = path.read_bytes()

        import numpy as _np

        from repro.io import serialization as ser

        def die_mid_write(fileobj, **entries):
            fileobj.write(b"partial garbage")
            raise KeyboardInterrupt("worker killed mid-save")

        monkeypatch.setattr(ser.np, "savez_compressed", die_mid_write)
        second = decision_psdp(
            small_collection(), **solve_opts(iteration_budget=5)
        ).metadata["checkpoint"]
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, second)
        monkeypatch.setattr(ser.np, "savez_compressed", _np.savez_compressed)

        # The destination still holds the first checkpoint, bit for bit,
        # and the aborted temp file was cleaned up.
        assert path.read_bytes() == blob
        assert load_checkpoint(path) == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.npz"]


class TestHeartbeatOption:
    """``DecisionOptions.heartbeat`` fires at the periodic-capture cadence."""

    def test_heartbeat_receives_periodic_checkpoints(self):
        beats = []
        result = decision_psdp(
            small_collection(),
            **solve_opts(
                checkpoint_every=3,
                heartbeat=lambda ckpt, instance: beats.append((ckpt, instance)),
            ),
        )
        assert beats, "no heartbeat fired"
        iterations = [ckpt.iteration for ckpt, _ in beats]
        assert iterations == sorted(set(iterations))
        assert all(it % 3 == 0 for it in iterations)
        # Solo solves tag the beat with instance=None; the final beat's
        # checkpoint resumes to the identical converged result.
        assert all(instance is None for _, instance in beats)
        resumed = decision_psdp(
            small_collection(), **solve_opts(), resume_from=beats[-1][0]
        )
        assert_results_identical(resumed, result, label="heartbeat-resume")

    def test_batched_heartbeat_tags_instance_indices(self):
        beats = []
        collections = [small_collection(seed=7 + 11 * i) for i in range(3)]
        solve_many(
            collections,
            epsilon=0.25,
            oracle="fast",
            rng=3,
            checkpoint_every=3,
            heartbeat=lambda ckpt, instance: beats.append((ckpt, instance)),
            rng_indices=[5, 6, 7],
        )
        tagged = {instance for _, instance in beats}
        assert tagged <= {5, 6, 7} and tagged, f"unexpected instance tags: {tagged}"

    def test_heartbeat_exception_propagates(self):
        # Cooperative cancellation: the executor's kill lands by raising
        # out of the heartbeat, which must abort the solve.
        class Abort(RuntimeError):
            pass

        def bomb(ckpt, instance):
            raise Abort("cancelled")

        with pytest.raises(Abort):
            decision_psdp(
                small_collection(), **solve_opts(checkpoint_every=3, heartbeat=bomb)
            )

    def test_captured_at_stamp_excluded_from_equality(self):
        a = self._capture()
        b = self._capture()
        assert a.captured_at is not None and b.captured_at is not None
        object.__setattr__(b, "captured_at", a.captured_at + 123.0)
        assert a == b, "captured_at must not participate in checkpoint equality"

    def _capture(self):
        return decision_psdp(
            small_collection(), **solve_opts(iteration_budget=3)
        ).metadata["checkpoint"]
