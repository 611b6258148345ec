"""Per-layer metrics of the ``core`` layer, read from what ``solve`` returns.

The solver's internal split comes from ``TEResult.stats["phase_s"]`` and
``["ssp_batch_phase_s"]``, which ``MegaTEOptimizer.solve`` fills from its
own spans; the benchmark adds no timer inside the program.  Every value
is a mean per solve.
"""

from __future__ import annotations

from repro.core.fastssp_batch import SSP_PHASE_KEYS
from repro.core.types import StatKey

from .measure import Metric, mean

#: ``phase_s`` key -> per-layer metric name.
PHASE_METRICS = {
    StatKey.PHASE_LP_SOLVE: "core.lp_ms",
    StatKey.PHASE_TRIAGE: "core.triage_ms",
    StatKey.PHASE_CONTENDED_SSP: "core.contended_fill_ms",
    StatKey.PHASE_RESIDUAL_UPDATE: "core.residual_ms",
    StatKey.PHASE_MATRIX_BUILD: "core.matrix_build_ms",
    StatKey.PHASE_DELTA_PATCH: "core.delta_patch_ms",
}

#: ``stats`` counter key -> per-layer metric name.
COUNT_METRICS = {
    StatKey.LP_SOLVES: "core.lp_solves",
    StatKey.LP_SOLVES_SKIPPED: "core.lp_solves_skipped",
    StatKey.NUM_UNCONTENDED_PAIRS: "core.uncontended_pairs",
    StatKey.NUM_CONTENDED_PAIRS: "core.contended_pairs",
    StatKey.SSP_STATE_REUSED: "core.ssp_state_reused",
}


def solve_metrics(
    stats: list[dict], solve_s: list[float], verify_s: list[float]
) -> dict[str, Metric]:
    """Mean per-solve ``core.*`` metrics.

    Args:
        stats: Each solve's ``TEResult.stats``.
        solve_s: Wall seconds of each ``solve`` call, timed outside.
        verify_s: Seconds ``check_feasibility`` took on each result.
    """
    n = len(stats)
    out: dict[str, Metric] = {}
    for key, name in PHASE_METRICS.items():
        out[name] = Metric(
            1e3 * mean(r[StatKey.PHASE_S].get(key, 0.0) for r in stats),
            "ms",
            n=n,
        )
    for key in SSP_PHASE_KEYS:
        out[f"core.ssp.{key}_ms"] = Metric(
            1e3
            * mean(
                r.get(StatKey.SSP_BATCH_PHASE_S, {}).get(key, 0.0)
                for r in stats
            ),
            "ms",
            n=n,
        )
    for key, name in COUNT_METRICS.items():
        out[name] = Metric(
            mean(r.get(key, 0) for r in stats), "count", n=n
        )
    contended = sum(r[StatKey.NUM_CONTENDED_PAIRS] for r in stats)
    pairs = contended + sum(
        r[StatKey.NUM_UNCONTENDED_PAIRS] for r in stats
    )
    out["core.contended_share"] = Metric(
        contended / pairs if pairs else 0.0, "share", n=n
    )
    out["core.solve_unattributed_ms"] = Metric(
        1e3
        * mean(
            wall - sum(r[StatKey.PHASE_S].values())
            for r, wall in zip(stats, solve_s)
        ),
        "ms",
        n=n,
    )
    out["core.verify_ms"] = Metric(1e3 * mean(verify_s), "ms", n=n)
    return out
