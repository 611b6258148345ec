"""Ablation: FastSSP's precision knob ε' (App. A.2).

Smaller ε' means more clusters and finer quantization — better fill,
slower solve.  This sweep quantifies the trade the paper's "controllable
precision" claim rests on.
"""

from __future__ import annotations

import numpy as np

from repro.core import fast_ssp
from repro.obs import monotonic


def test_ablation_fastssp_epsilon(benchmark):
    # Lumpy regime: a few hundred similar-sized demands against an
    # awkward capacity — where quantization precision actually matters
    # (with thousands of tiny flows the greedy step fills any gap).
    rng = np.random.default_rng(0)
    values = rng.uniform(0.8, 2.0, size=300)
    capacity = float(values.sum()) * 0.371

    def sweep():
        rows = []
        for epsilon in (0.5, 0.3, 0.1, 0.05, 0.02):
            t0 = monotonic()
            result = fast_ssp(values, capacity, epsilon=epsilon)
            elapsed = monotonic() - t0
            rows.append((epsilon, result.utilization, elapsed,
                         result.num_clusters))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFastSSP ε' ablation (300 lumpy demands, F = 37% of total):")
    print(f"  {'epsilon':>8s} {'fill':>9s} {'time':>9s} {'clusters':>9s}")
    for epsilon, fill, elapsed, clusters in rows:
        print(
            f"  {epsilon:8.2f} {fill:9.6f} {elapsed * 1e3:7.1f}ms "
            f"{clusters:9d}"
        )
        benchmark.extra_info[f"fill_eps_{epsilon}"] = fill
    fills = [fill for _, fill, _, _ in rows]
    clusters = [c for _, _, _, c in rows]
    # Every precision setting stays within its error-bound regime (the
    # approximation is not per-instance monotone in ε', only bounded).
    assert min(fills) > 0.99
    # Cluster count grows as ~3/ε' — the knob really is precision.
    assert clusters == sorted(clusters)
