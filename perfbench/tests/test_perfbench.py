"""The benchmark's own tests, at tiny scale (a few seconds in total).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import replay
from perfbench.workloads import TINY, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_listed_metric_is_emitted_with_its_unit(name, trace):
    _, metrics, ledger, details = run_workload(
        name, TINY[name].default_seed, seconds=0.2, trace=trace, tiny=True
    )
    listed = SPEC["per_layer" if trace else "end_to_end"]
    for entry in listed:
        metric = metrics[entry["name"]]
        assert metric.unit == entry["unit"], entry["name"]
        assert isinstance(metric.value, (int, float)), entry["name"]
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.messages
    if trace:
        # Layer self times plus unattributed time add up to each epoch.
        assert details["layers"]["max_residual_s"] < 1e-9


def test_tampered_assignment_counts_as_failed(monkeypatch):
    def tampered(result):
        copy = snapshot(result)
        assigned = copy.assignment.assigned_tunnel
        assigned[assigned > 0] = 0
        return copy

    snapshot = replay.snapshot_result
    monkeypatch.setattr(replay, "snapshot_result", tampered)
    _, metrics, ledger, _ = run_workload(
        "twan-20k-diurnal", 5, seconds=0.2, trace=False, tiny=True
    )
    assert ledger.failed > 0
    assert metrics["failed_fraction"].value == ledger.failed / ledger.attempted
    assert any("installed paths differ" in m for m in ledger.messages)


def test_tail_percentile_leaves_ten_samples_beyond():
    from perfbench.measure import tail_metric, tail_percentile

    assert tail_percentile(19) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    metric = tail_metric([float(i) for i in range(1, 101)], "ms")
    assert (metric.value, metric.note, metric.n) == (90.0, "p90", 100)


def test_fixed_percentile_keeps_ten_samples_beyond():
    from perfbench.measure import percentile_metric

    samples = [float(i) for i in range(1, 1001)]
    assert percentile_metric(samples, "ms", 90).value == 900.0
    metric = percentile_metric(samples[:50], "ms", 90)
    assert (metric.value, metric.note) == (40.0, "p80")
    assert percentile_metric(samples[:10], "ms", 90).note == "p50"


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_prints_the_result_as_its_last_line():
    proc = _run_cli(
        ROOT,
        "--workload", "stream-flash-crowd",
        "--seed", "3",
        "--seconds", "0.2",
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run_cli(
        tmp_path,
        "--workload", "twan-20k-diurnal",
        "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
