"""Appendix A.2: FastSSP accuracy, error bound, and speed vs exact DP."""

from __future__ import annotations

import numpy as np

from repro.core import dp_ssp, fast_ssp
from repro.experiments import fastssp_study
from repro.obs import monotonic

from conftest import run_once


def test_appendix_fastssp_accuracy(benchmark):
    rows = run_once(
        benchmark, fastssp_study.run, num_instances=20, num_items=500
    )
    mean_fast = float(np.mean([r.fastssp_fill for r in rows]))
    mean_opt = float(np.mean([r.optimal_fill for r in rows]))
    mean_greedy = float(np.mean([r.greedy_fill for r in rows]))
    holds = all(r.bound_holds for r in rows)
    print(
        f"\nApp. A.2: mean fill — FastSSP {mean_fast:.5f}, "
        f"exact DP {mean_opt:.5f}, greedy {mean_greedy:.5f}; "
        f"error bound holds on all instances: {holds}"
    )
    benchmark.extra_info["mean_fastssp_fill"] = mean_fast
    benchmark.extra_info["bound_holds"] = holds
    assert holds
    assert mean_fast > 0.999


def test_appendix_fastssp_speedup(benchmark):
    """FastSSP's complexity is independent of |I_k| * F (the DP's cost)."""
    rng = np.random.default_rng(0)
    values = rng.lognormal(-1, 1, size=5_000)
    capacity = float(values.sum()) * 0.5

    def run_fast():
        return fast_ssp(values, capacity, epsilon=0.1)

    result = benchmark.pedantic(run_fast, rounds=3, iterations=1)
    # Compare against the exact DP on the integer-scaled twin.
    scale = 50_000 / capacity
    int_values = np.floor(values * scale).astype(np.int64)
    t0 = monotonic()
    dp_ssp(int_values, int(capacity * scale))
    dp_seconds = monotonic() - t0
    print(
        f"\nApp. A.2 speed: exact DP {dp_seconds * 1e3:.0f} ms on the "
        f"same instance; FastSSP fill={result.utilization:.5f}"
    )
    benchmark.extra_info["dp_seconds"] = dp_seconds
    assert result.utilization > 0.99
