"""Interval hot-path benchmark: the control loop's per-interval contracts.

Replays ten diurnal intervals on the 100-site TWAN topology with the
default synthetic trace through three solver configurations — the cold
solver (triage + the contended FastSSP array kernel) and the incremental
engine at delta thresholds 0.0 (bit-exact) and 1.5 (fast path live) —
and asserts the equivalence and speed contracts between them:

* every batched-kernel fill of the cold replay is re-run through the
  scalar per-pair reference (:func:`repro.core.pairfill.fill_pair`) and
  must agree bit for bit;
* the incremental engine at threshold 0.0 must reproduce the cold
  replay's assignment digest (SHA-256 of every interval's assignment
  arrays);
* at threshold 1.5 the engine must beat the cold replay's stage1+stage2
  time by >= 1.3x with both reuse mechanisms observably firing, while
  keeping the satisfied volume within 2% of cold;
* flow simulation plus congestion-aware latency over the replay must
  stay at or below 0.75x of the pre-columnar (per-pair Python loop)
  implementations.

The repo's performance record is ``perfbench/`` (repeated runs, time
per layer); ``BENCH_interval_solve.json`` holds only soak and stream
records, and this benchmark writes nothing.
"""

from __future__ import annotations

import pytest

from repro.core import MegaTEOptimizer
from repro.experiments import run_interval_replay
from repro.experiments.common import build_scenario
from repro.obs import monotonic
from repro.simulation import compute_flow_latencies, simulate
from repro.traffic import DiurnalSequence

from conftest import record_kernel_fills, time_scalar_fill

pytestmark = pytest.mark.perf

REPLAY_CONFIG = dict(
    topology_name="twan",
    total_endpoints=20_000,
    num_site_pairs=60,
    target_load=1.0,
    seed=42,
    sequence_seed=5,
    num_intervals=10,
)

#: Flow simulation + congestion-aware latency on this replay config
#: (seconds, summed over the 10 intervals; measured on the per-pair
#: Python-loop implementations immediately before the CSR refactor).
PRE_COLUMNAR_FLOWSIM_PLUS_LATENCY_S = 0.0786


#: Delta threshold of the benchmark's live incremental leg (generous:
#: diurnal per-pair deltas reach ~30-80% relative; the link-headroom
#: guard, not the threshold, is the binding feasibility check).
INCREMENTAL_THRESHOLD = 1.5


def _flowsim_plus_latency_s() -> float:
    """Seconds of flow simulation + latency over the standard replay."""
    cfg = REPLAY_CONFIG
    scenario = build_scenario(
        cfg["topology_name"],
        total_endpoints=cfg["total_endpoints"],
        num_site_pairs=cfg["num_site_pairs"],
        target_load=cfg["target_load"],
        seed=cfg["seed"],
    )
    sequence = DiurnalSequence(
        base=scenario.demands, seed=cfg["sequence_seed"]
    )
    optimizer = MegaTEOptimizer()
    seconds = 0.0
    for i in range(cfg["num_intervals"]):
        result = optimizer.solve(scenario.topology, sequence.matrix(i))
        t0 = monotonic()
        simulate(scenario.topology, result)
        compute_flow_latencies(
            scenario.topology, result, metric="ms", congestion_aware=True
        )
        seconds += monotonic() - t0
    return seconds


def test_interval_solve_breakdown(monkeypatch):
    # Every batched-kernel fill of the cold replay is logged and
    # re-filled by the scalar per-pair reference: bit-identical results.
    calls = record_kernel_fills(monkeypatch)
    batched = run_interval_replay(
        optimizer=MegaTEOptimizer(), **REPLAY_CONFIG
    )
    monkeypatch.undo()
    assert batched.ssp_batch_phase_s
    time_scalar_fill(calls)

    # Incremental engine, threshold 0.0: reuse restricted to bit-identical
    # inputs, so the whole replay must reproduce the cold digest exactly.
    inc_exact = run_interval_replay(
        optimizer=MegaTEOptimizer(incremental=True, delta_threshold=0.0),
        **REPLAY_CONFIG,
    )
    assert inc_exact.assignment_digest == batched.assignment_digest

    # Incremental engine, live fast path: must beat the batched baseline
    # measured in this same process (machine-independent comparison) by
    # >= 1.3x on stage1+stage2, with both reuse mechanisms firing.
    incremental = run_interval_replay(
        optimizer=MegaTEOptimizer(
            incremental=True, delta_threshold=INCREMENTAL_THRESHOLD
        ),
        **REPLAY_CONFIG,
    )

    solver_s = batched.stage1_lp_s + batched.stage2_ssp_s
    inc_solver_s = incremental.stage1_lp_s + incremental.stage2_ssp_s
    assert incremental.lp_solves_skipped > 0
    assert incremental.ssp_state_reused > 0
    assert inc_solver_s * 1.3 <= solver_s
    # Quality floor: patching trades exact LP re-optimization for speed;
    # the satisfied volume must stay within 2% of the cold solve.
    assert incremental.satisfied_volume >= 0.98 * batched.satisfied_volume

    # The CSR refactor's acceptance bar: flow simulation + latency at
    # least 25% faster than the per-pair loops they replaced.
    realize_s = _flowsim_plus_latency_s()
    print(
        f"\n{batched.num_intervals}-interval replay on "
        f"{REPLAY_CONFIG['topology_name']} "
        f"({batched.num_flows:,} flows/interval): incremental "
        f"{solver_s / inc_solver_s:.2f}x vs cold on stage1+stage2; "
        f"flowsim+latency {realize_s * 1e3:.1f} ms (pre-columnar "
        f"{PRE_COLUMNAR_FLOWSIM_PLUS_LATENCY_S * 1e3:.1f} ms)"
    )
    assert realize_s <= 0.75 * PRE_COLUMNAR_FLOWSIM_PLUS_LATENCY_S
