"""Smoke tests of the benchmark itself (small scale, a few seconds each).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import batch_child  # noqa: E402
import run as bench  # noqa: E402

WORKLOADS = ("paper-full", "serve-repeat")


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, *extra: str, seconds: int = 2) -> dict:
    return result_of(invoke(
        "--workload", workload, "--seed", "7", "--seconds", str(seconds),
        "--trace", str(trace), "--smoke", *extra,
    ))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    # Six seconds at 10 sessions/s leave room for resumed sessions, which
    # reopen sessions at least 48 sessions older.
    result = smoke(workload, 1, seconds=6)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == bench.PER_LAYER
    assert metrics["sql.parser.calls"]["value"] > 0
    assert abs(metrics["trace.coverage_ratio"]["value"] - 1.0) < 0.05
    if workload == "paper-full":
        assert metrics["obs.overhead_ratio"]["value"] > 0
        assert metrics["serve.handle.calls"]["value"] == 0
    else:
        assert metrics["serve.transport_wait_ms"]["value"] > 0
    if workload == "serve-repeat":
        assert metrics["llm.dispatch.hit_ratio"]["value"] > 0
        assert metrics["durability.journal.calls"]["value"] > 0
        assert metrics["serve.sessions.resumed"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answers_are_counted_not_swallowed(workload):
    result = smoke(workload, 0, "--inject-wrong", "2")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_speed_probe_scales_to_the_reference_speed():
    probe = batch_child.SpeedProbe()
    ref = batch_child.PROBE_REF_S
    # Ten seconds of chunks every 20 ms: twice the reference time in the
    # first five seconds (a machine at half speed), the reference after.
    for index in range(500):
        end = index * 0.02 + 0.01
        probe.ends.append(end)
        probe.seconds.append(2 * ref if end < 5.0 else ref)
    assert probe.factor(2.0, (0.0, 10.0)) == pytest.approx(0.5)
    assert probe.factor(8.0, (0.0, 10.0)) == pytest.approx(1.0)
    # Measured seconds less the chunks, halved in the slow half.
    slow, fast = 5.0 - 250 * 2 * ref, 5.0 - 250 * ref
    assert probe.scaled(0.0, 10.0) == pytest.approx(slow / 2 + fast)
    # A window without enough chunks falls back to the whole phase.
    assert probe.factor(20.0, (0.0, 5.0)) == pytest.approx(0.5)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = invoke("--workload", "paper-full", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
