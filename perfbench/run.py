"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload optimize-factorized --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up the workload -- imports once, then input generation
and an untimed warm-up ``SETUP_ROUNDS`` times; ``setup_s`` is the import
time plus the median round -- then runs operations on fresh inputs for
``--seconds`` and reports the end-to-end metrics.  One process and one
thread run everything, with BLAS pinned to one thread.
``--trace 1`` runs the workload's fixed number of operations twice on the
same inputs, untraced and then with a span around every layer's entry
point, and reports the per-layer metrics plus the tracing overhead.  The
two passes must produce identical result bits and counts, and a traced
run's counts must match any earlier traced run of the same seed and
source tree.

Every output is verified (see ``checks.py``).  The run prints a record of
its environment, one ``metric <name> <value> <unit>`` line per metric, and
as its last line a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status is 0 when every check passed, 1 when one
failed, and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
COUNTS_DIR = os.path.join(ROOT, ".perfbench", "counts")
WORKLOAD_NAMES = ("optimize-factorized", "decision-sparse", "service-mixed")

#: (name, unit) of every end-to-end metric, reported by ``--trace 0`` runs.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported by ``--trace 1`` runs.
PER_LAYER = (
    ("solver.decision_calls", "count"),
    ("decision.iterations", "count"),
    ("decision.self_s", "s"),
    ("decision.ms_per_iteration", "ms"),
    ("dotexp.calls", "count"),
    ("dotexp.self_s", "s"),
    ("dotexp.model_work", "work"),
    ("norms.kappa_calls", "count"),
    ("norms.kappa_s", "s"),
    ("taylor.apply_s", "s"),
    ("taylor.matvecs", "count"),
    ("taylor.engine_update_s", "s"),
    ("taylor.engine_update_work", "work"),
    ("trace.calls", "count"),
    ("trace.s", "s"),
    ("psi_state.update_s", "s"),
    ("psi_state.update_work", "work"),
    ("psi_state.lambda_max_s", "s"),
    ("psi_state.lambda_max_matvecs", "count"),
    ("certificates.calls", "count"),
    ("packed.build_s", "s"),
    ("batch.fused_share", "ratio"),
    ("checkpoint.captures", "count"),
    ("checkpoint.resumes", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("executor.jobs", "count"),
    ("supervisor.recoveries", "count"),
    ("tracing.overhead_s", "s"),
)

#: Self seconds of layers that only some workloads exercise.  Traced runs
#: print them but leave them out of the JSON metrics, where a layer a
#: workload never calls would read 0 s on every run.
WORKLOAD_SPECIFIC_TIMES = (
    ("solver.self_s", ("solver",)),
    ("certificates.s", ("certificates",)),
    ("batch.s", ("batch",)),
    ("checkpoint.s", ("checkpoint.capture", "checkpoint.restore")),
    ("service.submit_s", ("service.submit",)),
    ("service.step_s", ("service.step",)),
    ("executor.run_s", ("executor",)),
)

#: Per-layer metrics that must repeat exactly across runs of one seed.
REPEATING_UNITS = ("count", "work", "ratio")

#: Counts exempt from the repeat check: when ``lambda_max`` has no warm start
#: its Lanczos begins from ARPACK's default start vector, which is not seeded,
#: so the sweep count varies from run to run.
UNSEEDED_COUNTS = ("psi_state.lambda_max_matvecs",)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("the seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_record(args: argparse.Namespace, import_s: float) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "import_s": import_s,
    }


def set_up(workload_class, seed: int, pool: int, rounds: int):
    """Build inputs and warm up ``rounds`` times; returns the last set and the median time."""
    times = []
    for _ in range(rounds):
        began = time.perf_counter()
        workload = workload_class(seed)
        inputs = workload.inputs(pool)
        workload.warm_up()
        times.append(time.perf_counter() - began)
    return workload, inputs, statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("inf")


def timed_run(workload_class, args, record: dict) -> tuple[dict, object]:
    workload, inputs, setup_s = set_up(
        workload_class, args.seed, workload_class.pool_size, SETUP_ROUNDS
    )
    window = workload.run(inputs, args.seconds)
    latencies = window.latencies_s
    p90 = percentile(latencies, 90)
    record.update(
        setup_rounds=SETUP_ROUNDS,
        latency_samples=len(latencies),
        samples_above_p90=sum(1 for value in latencies if value > p90),
        window_s=window.window_s,
        completed_in_window=window.in_window,
    )
    metrics = {
        "setup_s": record["import_s"] + setup_s,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * p90,
        "throughput_per_s": window.in_window / window.window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, window


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in sorted(os.walk(top)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def compare_with_earlier_runs(args, repeating: dict) -> list[str]:
    """Flag counts that differ from an earlier traced run of this seed and source."""
    os.makedirs(COUNTS_DIR, exist_ok=True)
    path = os.path.join(
        COUNTS_DIR, f"{args.workload}-seed{args.seed}-{source_digest()[:16]}.json"
    )
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        return [
            f"count {name} = {value!r} differs from an earlier run's {earlier.get(name)!r}"
            for name, value in repeating.items()
            if earlier.get(name) != value
        ]
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "w") as handle:
        json.dump(repeating, handle, sort_keys=True)
    os.replace(scratch, path)
    return []


def traced_run(workload_class, args, record: dict) -> tuple[dict, object, list[str]]:
    from tracing import LayerStats, Tracer, traced_layers

    workload, inputs, _ = set_up(workload_class, args.seed, workload_class.traced_ops, 1)
    untraced = workload.run(inputs)
    tracer = Tracer()
    inputs = workload.inputs(workload_class.traced_ops)
    with traced_layers(tracer):
        traced = workload.run(inputs)

    flags = [f"untraced pass: {message}" for message in untraced.failures]
    if traced.digest != untraced.digest:
        flags.append("traced and untraced passes returned different result bits")
    flags += [
        f"count {name} differs between passes: "
        f"{untraced.counts.get(name)!r} untraced, {traced.counts.get(name)!r} traced"
        for name in sorted(set(traced.counts) | set(untraced.counts))
        if name not in UNSEEDED_COUNTS and traced.counts.get(name) != untraced.counts.get(name)
    ]

    layers = tracer.layers()

    def layer(name: str) -> LayerStats:
        return layers.get(name, LayerStats())

    counts = traced.counts
    decision = layer("decision")
    batch = layer("batch")
    fused = batch.units - tracer.child_calls("decision", "batch")
    metrics = {
        "solver.decision_calls": counts.get("solver.decision_calls", 0),
        "decision.iterations": counts.get("decision.iterations", 0),
        "decision.self_s": decision.self_s,
        "decision.ms_per_iteration": (
            1e3 * decision.total_s / decision.units if decision.units else 0.0
        ),
        "dotexp.calls": layer("dotexp").calls,
        "dotexp.self_s": layer("dotexp").self_s,
        "dotexp.model_work": counts.get("dotexp.model_work", 0.0),
        "norms.kappa_calls": layer("norms.kappa").calls,
        "norms.kappa_s": layer("norms.kappa").self_s,
        "taylor.apply_s": layer("taylor.apply").self_s,
        "taylor.matvecs": counts.get("taylor.matvecs", 0),
        "taylor.engine_update_s": layer("taylor.engine_update").self_s,
        "taylor.engine_update_work": counts.get("taylor.engine_update_work", 0.0),
        "trace.calls": layer("trace").calls,
        "trace.s": layer("trace").self_s,
        "psi_state.update_s": layer("psi_state.update").self_s,
        "psi_state.update_work": counts.get("psi_state.update_work", 0.0),
        "psi_state.lambda_max_s": layer("psi_state.lambda_max").self_s,
        "psi_state.lambda_max_matvecs": counts.get("psi_state.lambda_max_matvecs", 0),
        "certificates.calls": layer("certificates").calls,
        "packed.build_s": layer("packed.build").self_s,
        "batch.fused_share": fused / batch.units if batch.units else 0.0,
        "checkpoint.captures": layer("checkpoint.capture").calls,
        "checkpoint.resumes": counts.get("checkpoint.resumes", 0),
        "service.cache_hit_ratio": counts.get("service.cache_hit_ratio", 0.0),
        "executor.jobs": layer("executor").calls,
        "supervisor.recoveries": counts.get("supervisor.recoveries", 0),
        "tracing.overhead_s": traced.window_s - untraced.window_s,
    }
    metrics.update(
        (name, sum(layer(part).self_s for part in parts))
        for name, parts in WORKLOAD_SPECIFIC_TIMES
    )
    units = dict(PER_LAYER)
    repeating = {
        name: metrics[name]
        for name, unit in units.items()
        if unit in REPEATING_UNITS and name not in UNSEEDED_COUNTS
    }
    flags += compare_with_earlier_runs(args, repeating)
    record.update(
        traced_ops=workload_class.traced_ops,
        spans=len(tracer.spans),
        untraced_s=untraced.window_s,
        traced_s=traced.window_s,
        tracing_overhead_share=traced.window_s / untraced.window_s - 1.0,
        layers={
            name: {"calls": stats.calls, "total_s": stats.total_s, "self_s": stats.self_s}
            for name, stats in sorted(layers.items())
        },
    )
    return metrics, traced, flags


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"  # before NumPy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    record = run_record(args, time.perf_counter() - started)
    workload_class = WORKLOADS[args.workload]

    if args.trace:
        metrics, result, flags = traced_run(workload_class, args, record)
        table = PER_LAYER
        printed = PER_LAYER + tuple((name, "s") for name, _ in WORKLOAD_SPECIFIC_TIMES)
    else:
        metrics, result = timed_run(workload_class, args, record)
        flags = []
        table = printed = END_TO_END

    print(f"record {json.dumps(record, sort_keys=True)}")
    for name, unit in printed:
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"metric failed_share {result.failed / max(result.attempted, 1)!r} ratio")
    for message in result.failures + flags:
        print(f"check FAILED {message}")
    correct = not result.failures and not flags
    print(f"check {'passed' if correct else 'FAILED'}: {result.attempted} operations verified")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in table
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
