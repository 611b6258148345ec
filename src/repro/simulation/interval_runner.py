"""Multi-interval TE simulation: a day in the life of a control loop.

Drives a demand-matrix sequence (e.g. a :class:`DiurnalSequence`) through
a TE scheme interval by interval, realizing each allocation on the network
and collecting the time series the production studies report: satisfied
demand, delivered volume, per-class latency, peak utilization.

The loop itself is :func:`repro.simulation.streaming.control_loop` fed
one whole-matrix event per interval under the oracle trigger, so
every interval is solved again.  Stale measured inputs — the
paper's weak coupling, where the controller only knows what it
measured — are the loop's one-epoch actuation delay: the allocation
serving interval ``n`` was solved on interval ``n-1``'s demands.
Forecast-driven solving lives in the stream loop's predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.qos import QoSClass
from ..obs import get_registry, get_tracer
from .latency import compute_flow_latencies
from .streaming import MatrixSet, OracleTrigger, control_loop

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["IntervalRecord", "IntervalSeries", "run_intervals"]

#: The flow-identity columns every interval must share with the first
#: (the loop carries only volumes from one interval to the next).
_FLOW_COLUMNS = (
    "offsets", "qos", "src_endpoints", "dst_endpoints", "has_endpoints"
)


@dataclass(frozen=True)
class IntervalRecord:
    """Measurements of one TE interval.

    Attributes:
        interval: Interval index.
        planned_satisfied: Solver's satisfied fraction on the demands it
            optimized for.
        delivered_fraction: Fraction of the *actual* interval traffic
            delivered end to end (differs when solving on stale demands).
        qos1_latency_ms: Volume-weighted class-1 latency.
        max_utilization: Peak link utilization.
        runtime_s: Runtime of the solve issued this interval.
    """

    interval: int
    planned_satisfied: float
    delivered_fraction: float
    qos1_latency_ms: float
    max_utilization: float
    runtime_s: float


@dataclass
class IntervalSeries:
    """A whole run's records plus aggregates."""

    records: list[IntervalRecord] = field(default_factory=list)

    @property
    def mean_delivered(self) -> float:
        if not self.records:
            return float("nan")
        return float(
            np.mean([r.delivered_fraction for r in self.records])
        )

    @property
    def worst_interval(self) -> IntervalRecord | None:
        if not self.records:
            return None
        return min(self.records, key=lambda r: r.delivered_fraction)

    @property
    def mean_qos1_latency_ms(self) -> float:
        values = [
            r.qos1_latency_ms
            for r in self.records
            if not np.isnan(r.qos1_latency_ms)
        ]
        return float(np.mean(values)) if values else float("nan")


def run_intervals(
    topology: "TwoLayerTopology",
    matrices: Iterable["DemandMatrix"],
    solver,
    stale_inputs: bool = False,
) -> IntervalSeries:
    """Run a TE scheme across a sequence of intervals.

    Args:
        topology: The (static) topology.
        matrices: One demand matrix per interval, in order; all share
            one flow layout, QoS and endpoint columns (only volumes
            change), else :class:`ValueError`.
        solver: Any scheme with ``solve(topology, demands) -> TEResult``.
        stale_inputs: Serve interval ``n`` with the allocation solved on
            interval ``n-1``'s demands, as the measurement-driven
            production loop does (interval 0 uses its own demands as a
            bootstrap).

    Returns:
        An :class:`IntervalSeries`; each record's delivered fraction is
        measured against the interval's *actual* traffic.
    """
    matrices = list(matrices)
    series = IntervalSeries()
    if not matrices:
        return series
    first = matrices[0].table
    for n, matrix in enumerate(matrices):
        table = matrix.table
        for column in _FLOW_COLUMNS:
            a, b = getattr(table, column), getattr(first, column)
            if a is not b and not np.array_equal(a, b):
                raise ValueError(
                    "interval matrices must keep flow identities "
                    f"(interval {n} changed {column})"
                )
    epochs = control_loop(
        topology,
        matrices[0],
        (
            MatrixSet(time=float(n), volumes=m.table.volumes)
            for n, m in enumerate(matrices)
        ),
        len(matrices),
        1.0,
        OracleTrigger(),
        solver,
        delay=int(stale_inputs),
    )
    tracer = get_tracer()
    registry = get_registry()
    for n in range(len(matrices)):
        with tracer.span("sim.interval", interval=n) as sp:
            ep = next(epochs)
            latencies = compute_flow_latencies(
                topology, ep.realized, metric="ms"
            )
            total = ep.raw.total_demand
            record = IntervalRecord(
                interval=n,
                planned_satisfied=ep.actuated.satisfied_fraction,
                delivered_fraction=(
                    ep.sim.delivered_volume / total if total > 0 else 1.0
                ),
                qos1_latency_ms=latencies.volume_weighted_mean(
                    QoSClass.CLASS1
                ),
                max_utilization=ep.sim.max_utilization,
                runtime_s=(
                    ep.result.runtime_s if ep.result is not None else 0.0
                ),
            )
            series.records.append(record)
            sp.set_attribute(
                "delivered_fraction", record.delivered_fraction
            )
            if registry.enabled:
                registry.counter(
                    "megate_sim_intervals_total",
                    "Simulated TE intervals completed",
                ).inc()
                registry.gauge(
                    "megate_sim_delivered_fraction",
                    "Delivered traffic fraction of the latest interval",
                ).set(record.delivered_fraction)
                registry.gauge(
                    "megate_sim_max_utilization",
                    "Highest link utilization in the latest interval",
                ).set(record.max_utilization)
    return series
