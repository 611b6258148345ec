"""Conventional TE: aggregated site-level MCF + five-tuple hash splitting.

This is both the paper's motivating strawman (§2) and the "traditional
approach" MegaTE replaced in production (§7): the control plane solves a
multi-commodity flow problem over *aggregated* site-pair demands, and the
data plane splits the aggregate across tunnels by hashing each packet's
five tuple — blind to which virtual instance (and which QoS class) a flow
belongs to.

Two consequences the experiments measure:

* Flows of the same instance land on different tunnels, and any churn in
  the five tuple (new connections, new source ports) re-rolls the hash —
  producing the unstable, bimodal latencies of Figure 2.  The ``epoch``
  argument models that churn: each epoch re-seeds the hash.
* Time-sensitive flows are routed with the same coin as bulk flows, so a
  share of QoS-1 traffic rides the long tunnels (Figures 11 and 15).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import monotonic
from ..core.formulation import MaxAllFlowProblem
from ..core.siteflow import solve_max_site_flow
from ..core.types import FlowAssignment, TEResult, UNASSIGNED

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["ConventionalMCF", "hash_to_unit", "hash_realize"]


def hash_to_unit(
    src: np.ndarray, dst: np.ndarray, epoch: int
) -> np.ndarray:
    """Deterministic per-flow hash to [0, 1) — the router's ECMP coin.

    A splitmix64-style mix of the endpoint ids and the epoch.  Changing
    ``epoch`` models five-tuple churn (e.g. a reconnect with a new source
    port): the same endpoint pair can land on a different tunnel.
    """
    epoch_mix = np.uint64((epoch * 0x94D049BB133111EB) % (1 << 64))
    x = (
        src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + dst.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        + epoch_mix
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2**64)


class ConventionalMCF:
    """Aggregated MCF control plane with hash-split data plane.

    Args:
        hash_salt: Base salt for the ECMP hash.
    """

    scheme_name = "Conventional-MCF"

    def __init__(self, hash_salt: int = 0) -> None:
        self.hash_salt = hash_salt

    def solve(
        self,
        topology: "TwoLayerTopology",
        demands: "DemandMatrix",
        epoch: int = 0,
    ) -> TEResult:
        """Solve the aggregate MCF and realize per-flow hash assignment.

        Args:
            topology: The contracted topology.
            demands: Endpoint-granular demands (aggregated internally —
                conventional TE never sees individual flows).
            epoch: Hash epoch modelling five-tuple churn over time.
        """
        problem = MaxAllFlowProblem(topology, demands)
        start = monotonic()
        site_alloc = solve_max_site_flow(problem, demands.site_demands())
        assignment, satisfied = self.hash_assign(
            topology, demands, site_alloc, epoch
        )
        runtime = monotonic() - start
        return TEResult(
            scheme=self.scheme_name,
            assignment=assignment,
            demands=demands,
            satisfied_volume=satisfied,
            runtime_s=runtime,
            site_allocation=site_alloc,
            stats={
                "aggregate_allocation": site_alloc.total,
                "epoch": epoch,
            },
        )

    def hash_assign(
        self,
        topology: "TwoLayerTopology",
        demands: "DemandMatrix",
        site_alloc,
        epoch: int = 0,
    ) -> tuple[FlowAssignment, float]:
        """Realize the data-plane hash split for one epoch.

        Separated from :meth:`solve` so day-long studies (Figure 2) can
        re-roll the hash every epoch without re-solving the MCF.

        Returns:
            ``(assignment, satisfied_volume)``.
        """
        return hash_realize(
            topology,
            demands,
            site_alloc,
            epoch=epoch + self.hash_salt * 7919,
        )


def hash_realize(
    topology: "TwoLayerTopology",
    demands: "DemandMatrix",
    site_alloc,
    epoch: int = 0,
) -> tuple[FlowAssignment, float]:
    """Realize an aggregate per-tunnel allocation by five-tuple hashing.

    This is how every aggregated TE scheme's decisions reach individual
    flows in a conventional data plane: a flow's hash picks a tunnel with
    probability proportional to the tunnel's aggregate share, blind to the
    flow's QoS class.  NCFlow- and TEAL-style schemes use this too — only
    MegaTE's SR header can pin a specific flow to a specific tunnel.

    Returns:
        ``(assignment, satisfied_volume)`` where satisfied volume counts
        the flows the hash admitted.
    """
    assignment = FlowAssignment.rejecting_all(demands)
    satisfied = 0.0
    catalog = topology.catalog
    for k in range(catalog.num_pairs):
        pair = demands.pair(k)
        if pair.num_pairs == 0:
            continue
        alloc = np.asarray(site_alloc.per_pair[k], dtype=np.float64)
        total_alloc = float(alloc.sum())
        demand_total = pair.total
        if total_alloc <= 0 or demand_total <= 0 or alloc.size == 0:
            continue
        # Admission probability + tunnel shares from the aggregate.
        admit = min(1.0, total_alloc / demand_total)
        shares = alloc / total_alloc
        boundaries = np.cumsum(shares) * admit
        if pair.src_endpoints is not None:
            src_ids = pair.src_endpoints
            dst_ids = pair.dst_endpoints
        else:
            src_ids = np.arange(pair.num_pairs, dtype=np.int64)
            dst_ids = np.full(pair.num_pairs, k, dtype=np.int64)
        coins = hash_to_unit(src_ids, dst_ids, epoch)
        chosen = np.searchsorted(boundaries, coins, side="right")
        chosen = np.where(coins < admit, chosen, UNASSIGNED).astype(
            np.int32
        )
        # A coin exactly at the last boundary maps past the end.
        chosen[chosen >= alloc.size] = alloc.size - 1
        assignment.per_pair[k] = chosen
        satisfied += float(pair.volumes[chosen >= 0].sum())
    return assignment, satisfied
