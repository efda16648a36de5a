"""Tests of the benchmark itself.

Run from the repository root (takes about two minutes)::

    python3 -m pytest -q perfbench/selftest.py

They check that the command prints exactly the metrics ``BENCHMARK.json``
names, that a short run of every workload completes with every output
verified, that count metrics repeat across runs of one seed, that each
output check rejects a tampered result, and that the command fails cleanly
where the program under test is missing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
from checks import check_decision, check_identical, check_optimum, check_response  # noqa: E402
from repro.core.decision import DecisionOptions, decision_psdp  # noqa: E402
from repro.core.solver import approx_psdp  # noqa: E402
from repro.problems.random_instances import random_factorized_packing_sdp  # noqa: E402
from repro.service import RequestOutcome, SolveService  # noqa: E402
from workloads import WORKLOADS, ServiceMixed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_short_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    lines = proc.stdout.splitlines()
    for metric in spec:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert f"metric {metric['name']} {value['value']!r} {metric['unit']}" in lines


def test_counts_repeat_across_runs_of_one_seed():
    first, second = (
        result_line(run_bench("--workload", "service-mixed", "--seed", "4", "--trace", "1"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    units = dict(bench.PER_LAYER)
    for name, value in first["metrics"].items():
        if units[name] in bench.REPEATING_UNITS and name not in bench.UNSEEDED_COUNTS:
            assert second["metrics"][name] == value, name


def test_fails_without_the_program():
    parent = os.path.join(ROOT, ".perfbench")
    os.makedirs(parent, exist_ok=True)
    bare = tempfile.mkdtemp(dir=parent)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "decision-sparse", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_optimum_check_rejects_tampered_results():
    problem = random_factorized_packing_sdp(6, 12, rank=2, rng=0)
    result = approx_psdp(problem, epsilon=0.5, oracle="fast", rng=0)
    assert check_optimum(problem.constraints, result, 0.5) == []
    scaled = dataclasses.replace(result, dual_x=1.1 * result.dual_x)
    assert check_optimum(problem.constraints, scaled, 0.5)
    widened = dataclasses.replace(result, optimum_upper=1.02 * 1.5 * result.optimum_lower)
    assert check_optimum(problem.constraints, widened, 0.5)


def test_decision_check_rejects_tampered_results():
    problem = random_factorized_packing_sdp(60, 40, rank=2, density=0.3, rng=1)
    result = decision_psdp(problem, epsilon=0.2, oracle="fast", rng=1)
    assert result.is_dual
    assert check_decision(problem.constraints, result) == []
    scaled = dataclasses.replace(result, dual_x=1.1 * result.dual_x)
    assert check_decision(problem.constraints, scaled)
    assert check_identical(result.dual_x, result.dual_x.copy()) == []
    assert check_identical(result.dual_x, 1.1 * result.dual_x)


def test_decision_check_rejects_a_tampered_primal():
    problem = random_factorized_packing_sdp(20, 40, rank=2, density=0.3, rng=1)
    result = decision_psdp(problem, epsilon=0.2, oracle="fast", rng=1)
    assert result.is_primal
    assert check_decision(problem.constraints, result) == []
    halved = dataclasses.replace(result, primal_y=0.5 * result.primal_y)
    assert check_decision(problem.constraints, halved)


def test_service_check_rejects_tampered_responses():
    factors = ServiceMixed(0).make_input(0)
    service = SolveService(options=DecisionOptions(epsilon=0.25, oracle="fast"), seed=0)
    first = service.submit(ServiceMixed.collection(factors))
    service.drain()
    original = service.response(first)
    hit = service.response(service.submit(ServiceMixed.collection(factors)))
    constraints = ServiceMixed.collection(factors)
    assert hit.from_cache
    assert check_response(constraints, original) == []
    assert check_response(constraints, hit, original) == []
    tampered = dataclasses.replace(
        hit, result=dataclasses.replace(hit.result, dual_x=1.1 * hit.result.dual_x)
    )
    assert check_response(constraints, tampered, original)
    shed = dataclasses.replace(original, outcome=RequestOutcome.SHED)
    assert check_response(constraints, shed)
