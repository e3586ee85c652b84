"""Smoke test of the benchmark at tiny sizes, with every output check on.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGPROF, run._alarm)
    yield
    signal.signal(signal.SIGPROF, previous)


def first_op(name: str):
    workload = workloads.SETUPS[name](0, tiny=True)
    op = workload.ops[0]
    return workload, op, workload.instances[op.gid]


@pytest.mark.parametrize("name", NAMES)
def test_one_op_passes_its_checks(name, alarm):
    workload, op, inst = first_op(name)
    records = [(0, run.run_op(op, inst))]
    run.check(workload, records, tail=[])
    outcome = records[0][1]
    assert outcome.status == "ok", outcome.detail
    assert 0 < outcome.latency < run.DEADLINE_S


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_run_reports_every_metric(name, trace):
    result = run.run(name, seed=0, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    json.dumps(result, allow_nan=False)


def test_an_answer_that_differs_from_the_reference_fails(alarm):
    workload, op, inst = first_op("decide-kernels")
    outcome = run.run_op(op, inst)
    outcome.answer = not outcome.answer
    run.check(workload, [(0, outcome)], tail=[])
    assert outcome.status == "wrong" and outcome.latency == math.inf


def test_percentile_interpolates_and_keeps_failures_at_inf():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.percentile([1.0, 2.0, math.inf], 0.5) == 2.0
    assert run.percentile([1.0, 2.0, math.inf], 0.9) == math.inf
    assert run.percentile([1.0, math.inf, math.inf], 0.9) == math.inf
