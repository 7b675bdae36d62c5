"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about five minutes: every case is a short subprocess run of the
benchmark). They are not part of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SIMULATED = (
    "violation_ratio",
    "batch_work",
    "decision_lag_ticks_p50",
    "decision_lag_ticks_p99",
)


def run_bench(workload: str, trace: int, hash_seed: str = "0", cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def digest_of(completed) -> str:
    lines = completed.stdout.splitlines()
    return next(line for line in lines if line.startswith("decision digest:"))


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == spec.benchmark_json()


@pytest.mark.parametrize("workload", [w["name"] for w in spec.WORKLOADS])
def test_simulated_metrics_ignore_hash_seed(workload):
    first = run_bench(workload, trace=0, hash_seed="0")
    second = run_bench(workload, trace=0, hash_seed="12345")
    a, b = result_of(first), result_of(second)
    assert a["correct"] and b["correct"]
    assert a["failed"] == 0
    for name in SIMULATED:
        assert repr(a["metrics"][name]["value"]) == repr(b["metrics"][name]["value"])
    assert digest_of(first) == digest_of(second)
    # Every end-to-end metric prints with its unit, in the report too.
    for name, unit, _, _ in spec.END_TO_END:
        assert a["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and unit in line.split()
            for line in first.stdout.splitlines()
        )
    assert set(a["metrics"]) == {name for name, *_ in spec.END_TO_END}


def test_traced_runs_report_every_layer():
    results = {}
    for workload in [w["name"] for w in spec.WORKLOADS]:
        completed = run_bench(workload, trace=1)
        result = result_of(completed)
        assert result["correct"], completed.stdout
        assert "check: tracing changes no outcome: ok" in completed.stdout
        assert "period.unattributed_share" in result["metrics"]
        for name, unit, _ in spec.PER_LAYER:
            assert result["metrics"][name]["unit"] == unit
        results[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    service_only = ("service.share", "assembler.offer.calls", "service.poll.self_us_p50")
    for name in service_only:
        assert results["service-stream"][name] > 0
        assert results["host-steady"][name] == 0
        assert results["fleet-churn"][name] == 0
    assert results["fleet-churn"]["fleet.share"] > 0
    assert results["fleet-churn"]["mds.place.share"] > results["host-steady"]["mds.place.share"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("host-steady", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
