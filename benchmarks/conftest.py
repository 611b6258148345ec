"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure (see DESIGN.md's
per-experiment index), runs it once per round (the experiments are
deterministic), prints the rows/series the paper reports, and stores the
headline numbers in ``benchmark.extra_info`` so the JSON output carries
the reproduction data alongside the timings.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round/iteration and return its result."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def record_kernel_fills(monkeypatch) -> list[dict]:
    """Log every batched second-stage fill the optimizer makes.

    Wraps :func:`repro.core.pairfill.fill_pairs_batch` (the array FastSSP
    kernel, as the optimizer's contended step calls it) so each call's
    inputs, outputs and kernel seconds are appended to the returned
    list.  :func:`time_scalar_fill` replays the log through the scalar
    per-pair reference to price the kernel against it.
    """
    from repro.core import pairfill
    from repro.obs import monotonic

    kernel = pairfill.fill_pairs_batch
    calls: list[dict] = []

    def recording(pair_volumes, pair_allocs, pair_orders, epsilon,
                  phase_out=None):
        t0 = monotonic()
        out = kernel(
            pair_volumes,
            pair_allocs,
            pair_orders,
            epsilon=epsilon,
            phase_out=phase_out,
        )
        calls.append(
            {
                "args": (pair_volumes, pair_allocs, pair_orders, epsilon),
                "out": out,
                "seconds": monotonic() - t0,
            }
        )
        return out

    monkeypatch.setattr(pairfill, "fill_pairs_batch", recording)
    return calls


def time_scalar_fill(calls: list[dict]) -> tuple[float, float]:
    """Re-fill logged kernel inputs with the scalar per-pair reference.

    Runs :func:`repro.core.pairfill.fill_pair` on every pair of every
    call in ``calls`` (see :func:`record_kernel_fills`), asserts each
    result equals the kernel's bit for bit, and returns
    ``(kernel_s, scalar_s)`` — the summed seconds of both on the same
    inputs.
    """
    import numpy as np

    from repro.core.pairfill import fill_pair
    from repro.obs import monotonic

    kernel_s = scalar_s = 0.0
    for call in calls:
        kernel_s += call["seconds"]
        volumes, allocs, orders, epsilon = call["args"]
        t0 = monotonic()
        ref = [
            fill_pair(v, a, o, epsilon)
            for v, a, o in zip(volumes, allocs, orders)
        ]
        scalar_s += monotonic() - t0
        for (assigned, placed), (ref_a, ref_p) in zip(call["out"], ref):
            np.testing.assert_array_equal(assigned, ref_a)
            assert placed.tobytes() == ref_p.tobytes()
    return kernel_s, scalar_s
