"""Tiny-size self-check of the benchmark.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(takes about half a minute). It checks that every metric BENCHMARK.json
names is emitted with its unit, that the ground truth counts a deliberately
wrong verdict as failed, and that the benchmark refuses to run without the
matholab sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groundtruth
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    return result


def _assert_metrics(result, declared):
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(workload):
    _assert_metrics(_result(_run(workload, 0)), SPEC["end_to_end"])


def test_per_layer_metrics_are_emitted_with_units(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run("scenario_mix", 1, "--spans", str(spans))
    _assert_metrics(_result(proc), SPEC["per_layer"])
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["spans"] == len(spans.read_text(encoding="utf-8").splitlines()) > 0
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert first[0] == "cli.parse" and first[4] == -1


def _library_value_error():
    from matholab.blaschke import PotapovFactor
    try:
        PotapovFactor(0.99, [[1.0]], [[1.0]])
    except ValueError as exc:
        return exc
    raise AssertionError("a pole beyond the cap was accepted")


def _numpy_value_error():
    try:
        np.ones(2) + np.ones(3)
    except ValueError as exc:
        return exc
    raise AssertionError("mismatched shapes were added")


def test_ground_truth_counts_a_wrong_verdict_as_failed():
    judge = groundtruth.judge
    accept = {"overall": "accept"}
    assert judge(accept, {"overall": "accept"}) == groundtruth.CORRECT
    assert judge({"overall": "reject"}, {"overall": "accept"}) == groundtruth.WRONG
    assert judge({"class": "in-kernel"}, {"class": "not-in-kernel"}) == groundtruth.WRONG
    assert groundtruth.WRONG in groundtruth.FAILED
    assert judge(accept, None, RuntimeError("boom")) == groundtruth.RAISED
    assert judge(accept, None, _numpy_value_error()) == groundtruth.RAISED
    assert groundtruth.RAISED in groundtruth.FAILED
    # incomplete answers lower the correct share but are not failures
    assert judge(accept, {"overall": "reject"}) == groundtruth.FALSE_REJECT
    assert judge({"overall": "accept", "class": "in-kernel"},
                 {"overall": "reject", "class": "not-in-kernel"}) == groundtruth.WRONG
    assert judge(accept, None, _library_value_error()) == groundtruth.DECLINED
    assert judge({"overall": "accept", "class": "in-kernel"},
                 {"overall": "undecided", "class": "in-kernel"}) == groundtruth.UNDECIDED
    for outcome in (groundtruth.FALSE_REJECT, groundtruth.DECLINED, groundtruth.UNDECIDED):
        assert outcome not in groundtruth.FAILED

    # a real request whose expected verdict is flipped must be scored as failed
    request = next(r for r in workloads.scenario_mix(3, workloads.MEASURED)
                   if r.cell.startswith("space"))
    right = run.measure(iter([request]), 0.0)
    assert right.outcomes == {groundtruth.CORRECT: 1}
    flipped = workloads.Request(request.cell, request.run, {"overall": "reject"})
    wrong = run.measure(iter([flipped]), 0.0)
    assert wrong.outcomes == {groundtruth.WRONG: 1}
    assert run._result(wrong, {})["correct"] is False


def test_a_measured_run_ends_on_a_cycle_boundary():
    prefix, cycle = workloads.SCHEDULE["scenario_mix"]
    sample = run.measure(workloads.scenario_mix(3, workloads.MEASURED), 0.0,
                         whole=(prefix, cycle))
    assert len(sample.latencies) == prefix + cycle
    assert len(sample.cells) == cycle
    assert all(sum(c.values()) == 1 for c in sample.cells.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("scenario_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_reports_the_samples_beyond_it():
    assert run.tail([0.001 * i for i in range(5)]) == (0.004, 100.0, 0)
    value, percentile, beyond = run.tail([0.001 * i for i in range(21)])
    assert (value, beyond) == (0.010, run.TAIL_BEYOND) and percentile == 50.0
