"""Batched SSP throughput (§8, "Parallelism in SSP").

A production interval produces O(N²) subset-sum instances, most of them
uncontended (the allocation covers the demand).  The array-batched
kernel resolves those fast paths in one vectorized pass and runs only
the contended rest through the full FastSSP; this bench measures it
against naive per-instance solving on a realistic mix and checks that
every result is bit-identical to the per-instance solve.
"""

from __future__ import annotations

import numpy as np

from repro.core import fast_ssp, fast_ssp_batch
from repro.obs import monotonic


def _make_instances(num=2_000, contended_fraction=0.1, seed=0):
    rng = np.random.default_rng(seed)
    instances = []
    for _i in range(num):
        values = rng.lognormal(-1, 1, size=int(rng.integers(5, 80)))
        total = float(values.sum())
        if rng.uniform() < contended_fraction:
            capacity = total * rng.uniform(0.3, 0.9)  # contended
        else:
            capacity = total * rng.uniform(1.0, 3.0)  # fits entirely
        instances.append((values, capacity))
    return instances


def test_batch_ssp_throughput(benchmark):
    instances = _make_instances()
    flat = np.concatenate([values for values, _ in instances])
    offsets = np.concatenate(
        ([0], np.cumsum([values.size for values, _ in instances]))
    ).astype(np.int64)
    capacities = np.array([cap for _, cap in instances], dtype=np.float64)

    batched = benchmark.pedantic(
        fast_ssp_batch,
        args=(flat, offsets, capacities),
        rounds=3,
        iterations=1,
    )
    t0 = monotonic()
    naive = [fast_ssp(values, cap) for values, cap in instances]
    naive_seconds = monotonic() - t0

    mismatches = sum(
        1 for i, ref in enumerate(naive) if batched.result(i) != ref
    )
    print(
        f"\nBatch SSP: {len(instances)} instances "
        f"(~10% contended); naive per-instance {naive_seconds * 1e3:.0f} "
        f"ms; results identical: {mismatches == 0}"
    )
    benchmark.extra_info["naive_seconds"] = naive_seconds
    assert mismatches == 0
