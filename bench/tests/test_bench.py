"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench/tests -q

The traced-run tests start bench/run.py in subprocesses and take about
two minutes, most of it two traced passes of mi-large.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mi-large", "mi-sweep", "audit-battery", "oracle-mix")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [result_line(bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1"))
                for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["linalg.decomp_n3"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_names_every_per_layer_metric(traced_twice, workload):
    res = traced_twice[workload][0]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_only_the_known_defect_fails(traced_twice):
    for workload, (res, _) in traced_twice.items():
        expected = 2 if workload == "mi-large" else 0  # one request, in both passes of the traced run
        assert res["failed"] == expected, workload


def test_untraced_run_reports_end_to_end_metrics():
    res = result_line(bench("--workload", "audit-battery", "--seed", "11", "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 3
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_corrupted_reference_raises_error_rate(tmp_path):
    reference = workloads.load_reference()
    clean = worker.run("mi-sweep", 0, 0.0, False, tmp_path, reference=reference)
    assert clean["failed"] == 0
    corrupted = copy.deepcopy(reference)
    series = corrupted["workloads"]["mi-sweep"]["mi [[0,1],[2,3]] r16 c1"]["series"]
    series[-1] *= 1.0 + 1e-6
    result = worker.run("mi-sweep", 0, 0.0, False, tmp_path, reference=corrupted)
    assert result["failed"] == 1 and result["attempted"] == 96
    assert result["unexpected"] and "reference" in result["unexpected"][0]


def test_cfh_gate_fails_when_uncertainty_misses_the_oracle():
    req = workloads.converge_request([[0, 1], [2, 3]], (32, 64))
    oracle = workloads.cfh_mutual_information([[0, 1], [2, 3]])
    assert oracle == pytest.approx(math.log(4 / 3) / 3, rel=1e-15)
    ok = {"rc": 0, "stdout": json.dumps({"extrapolated": oracle + 1e-6, "uncertainty": 2e-6}), "stderr": ""}
    bad = {"rc": 0, "stdout": json.dumps({"extrapolated": oracle + 1e-6, "uncertainty": 5e-7}), "stderr": ""}
    assert req.gate(ok, {}) == []
    assert [gate for gate, _ in req.gate(bad, {})] == ["cfh"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mi-sweep", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
