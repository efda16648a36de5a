"""Batched multi-instance decision solving (``solve_many``).

The paper's algorithm is pitched at parallel throughput, but the engine
built across PRs 1-6 is a deep *single-instance* pipeline.  This module is
the serving primitive on top of it: :func:`solve_many` takes ``B``
independent packing-SDP instances and runs them in lockstep, so the
per-iteration heavy kernels execute as batched GEMMs over ``(B, R, R)``
stacks instead of ``B`` separate small-matrix calls.  One batched product
squares every row's Gram twin, and each row takes its sequential call's
route to its Taylor degree (its oracle's ``gram_degree``): the square
proves or disproves the floor degree, one Cholesky decides the cases
between, and a row whose floor is not proved takes the twin's top
eigenvalue, and with it the Lemma 4.2 kappa, from one ``dsyevr``.  The
rows at each degree then share one batched product evaluation of their
column values and traces, and the segment sums run over every row at
once.

Equivalence contract
--------------------
``solve_many(problems, options)[i]`` certifies **exactly** the result of::

    decision_psdp(problems[i],
                  options=replace(options, rng=instance_rng(options.rng, i)))

bit-for-bit: same outcome, dual vector, counters, work-depth charges and
metadata (up to the supervisor's wall-clock ``elapsed`` reading).  Each
instance's randomness is a :func:`instance_rng` stream derived from the
instance *index*, never from batch position or a shared spawning sequence,
so results are invariant to batch composition and to the order in which
batchmates terminate.

Fusion gate and lockstep layout
-------------------------------
Instances are grouped by ``(m, n, ranks)``; each shape-homogeneous group
runs the fused loop when the options and the instance land on the fast
oracle's degenerate-sketch Gram path (see ``_fused_key``).  Everything
else — exact oracles, history collection, caller-supplied execution
backends, sparse stacks, shapes past the Gram gate — transparently falls
back to per-instance :func:`~repro.core.decision.decision_psdp` calls with
the same per-index rng streams, so the contract above holds
unconditionally.

Inside a fused group every instance is its **own**
:class:`~repro.core.decision.DecisionRun` — oracle, Taylor engine, trace
estimator, psi state, supervisor, tracker, exits and captures — and only
the shape-uniform numeric kernels of the oracle pass are batched.
Instances exit as they certify (primal/dual early exits, budget
exhaustion, loop-condition exits); the surviving rows are recompacted so
the batched GEMMs never carry dead instances.

Fault isolation
---------------
Supervision demotes only the faulted instance, never the batch: any
per-instance numerical failure inside the fused kernels ejects that one
instance, which is re-solved sequentially on its own collection from its
own rng stream.
Organic failures deterministically replay under the sequential
supervisor's demotion ladder, reproducing the sequential result exactly;
an injected fault that was consumed by the discarded batched attempt
leaves a clean re-solve, which is then reported as ``DEGRADED`` with a
synthetic ``batched -> sequential`` recovery event so chaos runs can see
the ejection.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.config import get_config
from repro.exceptions import BudgetExhaustedError, InvalidProblemError, NumericalError
from repro.linalg.sketching import jl_dimension
from repro.linalg.taylor_gram import gram_twin, product_evaluation
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import batched_segment_sums
from repro.robustness.faultinject import fault_hook, fault_hook_array
# Fused instances capture through their DecisionRun; the name stays
# importable here because perfbench/tracing.py patches it at this module.
from repro.core.checkpoint import capture_checkpoint  # noqa: F401
from repro.core.decision import (
    DecisionOptions,
    DecisionRun,
    _resolve_constraints,
    decision_psdp,
    resolve_decision_options,
)
from repro.core.result import DecisionResult, SolveStatus
from repro.utils.random_utils import RandomState

__all__ = ["instance_rng", "solve_many"]


def instance_rng(rng: RandomState, index: int) -> np.random.SeedSequence:
    """The rng stream of instance ``index`` under :func:`solve_many`.

    Resolves ``rng`` to its base :class:`numpy.random.SeedSequence` exactly
    like :func:`~repro.utils.random_utils.spawn_generators` (a ``Generator``
    contributes its own seed sequence, ``None`` the package default seed),
    then derives the child deterministically by *extending the spawn key*
    with the instance index — never by calling ``spawn()`` on a shared,
    stateful object.  Repeated calls with the same arguments therefore
    return identical streams regardless of how many instances were
    processed in between, which is what makes batched results independent
    of batch composition and exit order.
    """
    if isinstance(rng, np.random.Generator):
        base = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
        if base is None:  # pragma: no cover - exotic bit generators
            base = np.random.SeedSequence(get_config().default_seed)
    elif isinstance(rng, np.random.SeedSequence):
        base = rng
    else:
        base = np.random.SeedSequence(
            get_config().default_seed if rng is None else rng
        )
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + (int(index),)
    )


def _fused_key(
    opts: DecisionOptions, constraints: ConstraintCollection
) -> tuple | None:
    """Group key when (opts, instance) can run the fused lockstep; else ``None``.

    The fused loop reproduces the sequential solver bit-for-bit only on the
    configuration the batched kernels mirror: the fast oracle's
    degenerate-sketch Gram path over dense exact-factor stacks, implicit
    psi state, no history/primal tracking and no wall clock (the
    per-iteration elapsed() reads would diverge between lockstep and
    sequential runs).  Every ``lambda_max`` runs on each instance's own
    run and its own spawned generator, so ``m`` needs no gate of its own.
    The gate reads the collection's own packed view; building it changes
    no later solve's bits.
    """
    if not (isinstance(opts.oracle, str) and opts.oracle == "fast"):
        return None
    if opts.backend is not None:
        return None
    if opts.collect_history:
        return None
    if opts.track_primal_average not in (None, False):
        return None
    if opts.psi_state not in ("auto", "implicit"):
        return None
    if opts.wall_clock_budget is not None:
        return None
    eps = float(opts.epsilon)
    if not (0.0 < eps < 1.0):
        return None
    oracle_eps = opts.oracle_eps if opts.oracle_eps is not None else eps / 4.0
    if not (0.0 < float(oracle_eps) < 1.0):
        return None
    if not constraints.has_exact_factors:
        return None
    packed = constraints.packed()
    if packed.is_sparse:
        return None
    m = constraints.dim
    if m <= 0 or packed.total_rank <= 0:
        return None
    if packed.auto_taylor_mode() != "gram":
        # The Gram Taylor gate (2R <= 1.1 m) implies R <= m, the Gram trace.
        return None
    if min(jl_dimension(m, float(oracle_eps) / 2.0, constant=8.0), m) < m:
        return None
    return (m, len(constraints), tuple(int(r) for r in packed.ranks))


def _sequential_result(problem: Any, opts: DecisionOptions, index: int) -> DecisionResult:
    """The contract's sequential solve for instance ``index``."""
    heartbeat = opts.heartbeat
    if heartbeat is not None:
        # The solo solver reports ``instance=None``; re-tag its beats with
        # this instance's rng index so executor watchdogs can attribute the
        # shipped checkpoints to the right request.
        def tagged(checkpoint, _instance, _cb=heartbeat, _idx=index):
            _cb(checkpoint, _idx)

        opts = dataclasses.replace(opts, heartbeat=tagged)
    return decision_psdp(
        problem, options=dataclasses.replace(opts, rng=instance_rng(opts.rng, index))
    )


def _eject(run: DecisionRun, opts: DecisionOptions, site: str, detail: str) -> DecisionResult:
    """Re-solve one faulted fused instance sequentially; returns its result.

    The re-solve replays the instance's exact rng stream on its own
    constraint collection (whose caches never change a result's bits): an
    *organic* failure recurs at the same point and flows through the
    sequential supervisor's demotion ladder, so the result is exactly what
    ``decision_psdp`` would have returned.  When the
    re-solve instead comes back pristine (``CERTIFIED``, zero recovery
    events), the failure was an injected fault consumed by the discarded
    batched attempt — the result is then marked ``DEGRADED`` with a
    synthetic ``batched -> sequential`` recovery event so chaos harnesses
    observe the ejection.
    """
    result = _sequential_result(run.constraints, opts, run.instance)
    events = result.metadata.get("recovery_events") or []
    if result.status == SolveStatus.CERTIFIED and not events:
        result.metadata["recovery_events"] = [
            {
                "site": site,
                "kind": "BatchEjection",
                "from_mode": "batched",
                "to_mode": "sequential",
                "iteration": int(run.t),
                "detail": detail,
            }
        ]
        sup = result.metadata.get("supervisor")
        if isinstance(sup, dict):
            sup["recoveries"] = int(sup.get("recoveries", 0)) + 1
        result.status = SolveStatus.DEGRADED
        result.metadata["solve_status"] = SolveStatus.DEGRADED.value
    return result


def _certify(run: DecisionRun, opts: DecisionOptions) -> DecisionResult | None:
    """One fused instance's early certificate check."""
    try:
        measured = run.supervisor.lambda_max(iteration=run.t)
    except BudgetExhaustedError:
        return run.failed()
    if run.state.mode != "implicit":
        # The check demoted this instance's state to dense; the fused loop
        # only mirrors the implicit path, so hand the instance back to the
        # sequential solver (which replays the same demotion).
        return _eject(
            run, opts, "psi_state.matvec",
            "state demoted to dense during batched certificate check",
        )
    return run.certificate_exit(measured)


def _compact(
    active: list, results: list, *stacks: np.ndarray
) -> tuple[list, list[np.ndarray]]:
    """Drop members whose result is set; slice the batch stacks to match."""
    keep = [b for b, (index, _) in enumerate(active) if results[index] is None]
    if len(keep) == len(active):
        return active, list(stacks)
    sel = np.asarray(keep, dtype=np.int64)
    return [active[b] for b in keep], [stack[sel] for stack in stacks]


def _solve_group(members: list, opts: DecisionOptions, results: list) -> None:
    """Run one shape-homogeneous group through the fused lockstep loop.

    ``members`` are ``(index, run)`` pairs; each instance's result lands in
    ``results[index]``.  Every exit and bookkeeping step is the instance's
    own :class:`~repro.core.decision.DecisionRun` — the sequential
    solver's — and only the oracle pass runs as batched kernels.  That
    pass forms the twins ``S`` and their squares ``S^2`` as two batched
    stacks, takes each row's degree from its oracle's
    :meth:`~repro.core.dotexp.FastDotExpOracle.gram_degree` on its rows of
    both (the square, one Cholesky only where the square decides
    nothing, one ``dsyevr`` where the floor is not proved) and runs one
    batched :func:`~repro.linalg.taylor_gram.product_evaluation` per
    distinct degree, which reads the same squares; each row equals its
    sequential call bitwise.
    """
    run0 = members[0][1]
    n, m, check_every = run0.n, run0.m, run0.check_every
    active = list(members)
    packs = [run.constraints.packed() for _, run in active]
    offsets = packs[0].offsets
    ranks = np.asarray(packs[0].ranks, dtype=np.int64)
    # The weight-independent Q^T Q each sequential call's Gram kernel reads
    # from its packed view's cache.
    gram_stack = np.stack([p.gram_matrix() for p in packs])

    t = 0
    while True:
        # --- loop condition, then budgets (per instance) ------------------
        for index, run in active:
            results[index] = run.budget_exit() if run.running() else run.loop_exit()
        active, (gram_stack,) = _compact(active, results, gram_stack)
        if not active:
            return
        t += 1
        for _, run in active:
            run.t = t

        # --- oracle pass: batched numeric core, per-instance bookkeeping --
        x_stack = np.stack([run.x for _, run in active])
        negative = np.any(x_stack < 0, axis=1)
        if negative.any():
            # expand_weights raises on negative weights sequentially; the
            # per-instance re-solve reproduces that exact error.
            for b in np.flatnonzero(negative):
                index, run = active[b]
                results[index] = _eject(
                    run, opts, "expand_weights", "negative constraint weights in batched solve"
                )
            active, (x_stack, gram_stack) = _compact(active, results, x_stack, gram_stack)
            if not active:
                return
        batch = len(active)
        colw_stack = np.repeat(x_stack, ranks, axis=1)

        # Each row finds its degree as its sequential call does, from its
        # Gram twin S = diag(sqrt w) Q^T Q diag(sqrt w) and the square S^2,
        # one batched product for every row: S^2 proves or disproves the
        # floor, one Cholesky decides the band between, and a row above the
        # floor takes its top eigenvalue from one dsyevr.  A row whose top
        # eigenvalue failed or whose trace-estimation fault is due is
        # ejected here.
        with np.errstate(invalid="ignore", over="ignore"):
            twins = gram_twin(gram_stack, colw_stack)
            squares = twins @ twins
        degrees = np.empty(batch, dtype=np.int64)
        for b, (index, run) in enumerate(active):
            try:
                fault_hook("trace_estimation", kernel_mode="gram")
                degrees[b] = run.oracle.gram_degree(twins[b], squares[b])
            except NumericalError as exc:
                results[index] = _eject(
                    run, opts, exc.site, f"Gram twin failed in batched solve: {exc}"
                )
        active, (gram_stack, colw_stack, twins, squares, degrees) = _compact(
            active, results, gram_stack, colw_stack, twins, squares, degrees
        )
        if not active:
            return
        batch = len(active)

        # Column values and traces by R x R products, one batched call per
        # degree: the sequential flat pass runs the same function on one row.
        # With one degree (every row at the floor, as a rule) the stacks go
        # in uncopied.
        with np.errstate(invalid="ignore", over="ignore"):
            if (degrees == degrees[0]).all():
                col_vals, traces_stack = product_evaluation(
                    gram_stack, colw_stack, twins, squares, int(degrees[0]), m
                )
            else:
                col_vals = np.empty(colw_stack.shape)
                traces_stack = np.empty(batch)
                for degree in np.unique(degrees):
                    rows = degrees == degree
                    col_vals[rows], traces_stack[rows] = product_evaluation(
                        gram_stack[rows], colw_stack[rows], twins[rows], squares[rows],
                        int(degree), m,
                    )
        fault_hook_array("taylor_gram.apply", col_vals)
        finite = np.isfinite(col_vals).all(axis=1)
        if not finite.all():
            for b in np.flatnonzero(~finite):
                index, run = active[b]
                results[index] = _eject(
                    run, opts, "taylor_gram.apply",
                    "non-finite fused Gram column values in batched solve",
                )
            active, (gram_stack, col_vals, traces_stack, degrees) = _compact(
                active, results, gram_stack, col_vals, traces_stack, degrees
            )
            if not active:
                return
            batch = len(active)

        dots_stack = batched_segment_sums(col_vals, offsets)
        # Rows whose trace overflowed are ejected below — the sequential
        # re-solve reproduces the exact error for that instance alone.
        values_stack = np.empty((batch, n), dtype=np.float64)
        for b, (index, run) in enumerate(active):
            trace = float(traces_stack[b])
            if not np.isfinite(trace):
                results[index] = _eject(
                    run, opts, "trace_estimation",
                    "Gram-spectrum trace evaluation failed in batched solve",
                )
                continue
            estimate = run.oracle.trace_estimator.record_gram_estimate(
                trace, int(degrees[b])
            )
            if trace <= 0:
                results[index] = _eject(
                    run, opts, "trace_estimation", "sketched trace estimate is non-positive"
                )
                continue
            work = run.oracle.record_fused_call(int(degrees[b]), estimate)
            run.tracker.charge(work, run.log_depth, label="oracle")
            values_stack[b] = dots_stack[b] / trace

        # --- the rest of the iteration is each run's own step -------------
        for b, (index, run) in enumerate(active):
            if results[index] is not None:
                continue
            mask = run.select(np.array(values_stack[b]))
            if mask.any():
                run.update(mask)
            else:
                results[index] = run.density_exit()
        if check_every and t % check_every == 0:
            for index, run in active:
                if results[index] is None:
                    results[index] = _certify(run, opts)
        for index, run in active:
            if results[index] is None:
                run.tick()
        active, (gram_stack,) = _compact(active, results, gram_stack)


def solve_many(
    problems: Sequence[Any],
    epsilon: float | None = None,
    options: DecisionOptions | None = None,
    *,
    rng_indices: Sequence[int] | None = None,
    **overrides: Any,
) -> list[DecisionResult]:
    """Solve ``B`` independent ε-decision problems, batched where possible.

    Parameters
    ----------
    problems:
        Sequence of instances, each anything
        :func:`~repro.core.decision.decision_psdp` accepts (a
        :class:`~repro.core.problem.NormalizedPackingSDP`, a
        :class:`~repro.operators.ConstraintCollection`, or a list of PSD
        matrices).  Shapes may be ragged across the batch; instances are
        grouped by ``(m, n, ranks)`` and each shape-homogeneous group that
        clears the fusion gate runs the lockstep batched-GEMM loop, the
        rest solve sequentially.
    epsilon:
        Accuracy parameter; overrides the one in ``options`` (same calling
        convention as ``decision_psdp``).
    options:
        One :class:`~repro.core.decision.DecisionOptions` bundle applied to
        every instance; fields can be overridden with keyword arguments.
    rng_indices:
        Optional per-instance rng stream indices (default ``0..B-1``, the
        batch positions).  ``results[i]`` then matches
        ``decision_psdp(problems[i], rng=instance_rng(options.rng,
        rng_indices[i]))``: a caller that re-submits the same logical
        instance across differently-composed batches (the solve service's
        retry path) pins its stream by passing the same index every time.

    Returns
    -------
    list[DecisionResult]
        ``results[i]`` is bit-identical to
        ``decision_psdp(problems[i], options=replace(options,
        rng=instance_rng(options.rng, i)))`` — same outcome, certified
        dual, counters and metadata — regardless of batch composition, the
        order in which batchmates terminate, or earlier solves of the same
        collection objects (the supervisor's wall-clock ``elapsed``
        metadata reading is the one excluded field).
    """
    opts = resolve_decision_options(epsilon, options, overrides)
    problems = list(problems)
    if rng_indices is not None and len(rng_indices) != len(problems):
        raise InvalidProblemError(
            f"rng_indices has {len(rng_indices)} entries for {len(problems)} problems"
        )
    results: list[DecisionResult | None] = [None] * len(problems)
    groups: dict[tuple, list] = {}
    for index, problem in enumerate(problems):
        rng_index = index if rng_indices is None else int(rng_indices[index])
        constraints = _resolve_constraints(problem)
        key = _fused_key(opts, constraints)
        if key is None:
            results[index] = _sequential_result(constraints, opts, rng_index)
            continue
        # The rng stream is keyed by ``rng_index``, so it follows the
        # request, not its position in whatever batch it lands in.
        run = DecisionRun(
            constraints,
            dataclasses.replace(opts, rng=instance_rng(opts.rng, rng_index)),
            instance=rng_index,
        )
        groups.setdefault(key, []).append((index, run))
    for members in groups.values():
        _solve_group(members, opts, results)
    return results  # type: ignore[return-value]
