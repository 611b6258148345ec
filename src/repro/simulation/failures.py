"""Failure-recovery study: satisfied demand through a link-failure event.

Paper §6.3 / Figure 12: when fibers fail, every TE scheme recomputes on the
surviving topology — but flows keep being offered throughout.  During the
recomputation window, flows whose assigned tunnel crossed a failed link are
dropped; after the new allocation lands, the scheme carries whatever it can
on the degraded network.  A slower solver therefore loses more traffic:
NCFlow's ~100 s recompute at 5650 endpoints costs it up to 8.2% satisfied
demand against MegaTE's sub-second recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..topology.failures import FailureScenario

if TYPE_CHECKING:
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = [
    "FailureStudyOutcome",
    "degraded_topology",
    "run_failure_study",
    "surviving_volume",
]


def degraded_topology(
    topology: "TwoLayerTopology",
    fibers,
    cache: dict | None = None,
) -> "TwoLayerTopology":
    """``topology`` with every duplex fiber in ``fibers`` failed.

    Memoized in ``cache`` by fiber set: a repeat failure reuses one
    topology object, keeping per-topology solver caches effective.
    """
    key = tuple(sorted(fibers))
    if not key:
        return topology
    if cache is None:
        cache = {}
    if key not in cache:
        cache[key] = topology.with_failures(
            FailureScenario(fibers=key).failed_links
        )
    return cache[key]


@dataclass(frozen=True)
class FailureStudyOutcome:
    """Result of one scheme through one failure scenario.

    Attributes:
        scheme: TE scheme name.
        satisfied_before: Satisfied fraction on the healthy network.
        surviving_fraction: Fraction still delivered during recomputation
            (old assignment, minus flows on failed tunnels).
        satisfied_after: Satisfied fraction of the new allocation on the
            degraded network.
        recompute_seconds: Recomputation time used for the window.
        interval_seconds: The TE interval the event is averaged over.
        effective_satisfied: Time-weighted satisfied fraction across the
            interval — the Figure 12 metric.
    """

    scheme: str
    satisfied_before: float
    surviving_fraction: float
    satisfied_after: float
    recompute_seconds: float
    interval_seconds: float
    effective_satisfied: float


def surviving_volume(
    topology: "TwoLayerTopology",
    result: "TEResult",
    failed_links: set[tuple[str, str]],
) -> float:
    """Volume of assigned flows whose tunnels avoid every failed link."""
    catalog = topology.catalog
    total = 0.0
    for k, pair in enumerate(result.demands):
        assigned = result.assignment.per_pair[k]
        tunnels = catalog.tunnels(k)
        for t_index in np.unique(assigned):
            if t_index < 0 or t_index >= len(tunnels):
                continue
            tunnel = tunnels[int(t_index)]
            if any(key in failed_links for key in tunnel.links):
                continue
            total += float(pair.volumes[assigned == t_index].sum())
    return total


def run_failure_study(
    topology: "TwoLayerTopology",
    demands: "DemandMatrix",
    solver,
    scenario: "FailureScenario",
    interval_seconds: float = 300.0,
    recompute_seconds: float | None = None,
    runtime_scale: float = 1.0,
) -> FailureStudyOutcome:
    """Run one scheme through one failure event.

    Args:
        topology: Healthy topology.
        demands: The interval's demand matrix.
        solver: Any object with ``scheme_name`` and
            ``solve(topology, demands) -> TEResult``.
        scenario: The fibers that fail.
        interval_seconds: TE interval the event is averaged over (paper
            default 5 minutes).
        recompute_seconds: Override the recomputation window; ``None``
            uses the solver's measured runtime on the degraded topology.
        runtime_scale: Multiplier on measured runtime when extrapolating
            from this container to the paper's testbed scale.

    Returns:
        A :class:`FailureStudyOutcome` with the time-weighted satisfied
        fraction.
    """
    before = solver.solve(topology, demands)
    failed = set(scenario.failed_links)
    after = solver.solve(
        degraded_topology(topology, scenario.fibers), demands
    )

    window = (
        recompute_seconds
        if recompute_seconds is not None
        else after.runtime_s * runtime_scale
    )
    window = min(window, interval_seconds)
    total = demands.total_demand
    surviving_frac = (
        surviving_volume(topology, before, failed) / total
        if total > 0
        else 1.0
    )
    effective = (
        window * surviving_frac
        + (interval_seconds - window) * after.satisfied_fraction
    ) / interval_seconds
    return FailureStudyOutcome(
        scheme=solver.scheme_name,
        satisfied_before=before.satisfied_fraction,
        surviving_fraction=surviving_frac,
        satisfied_after=after.satisfied_fraction,
        recompute_seconds=window,
        interval_seconds=interval_seconds,
        effective_satisfied=effective,
    )
