"""The MaxAllFlow problem container (paper §4.1, Table 1).

Bundles topology, tunnels and endpoint-granular demands into the TE input,
validates their alignment, and exposes the indexing that solvers share:
flattened ``(k, t)`` variable offsets and the link-incidence structure
``L(t, e)``.

The indexing itself lives in the per-topology
:class:`~repro.core.siteflow.SiteFlowSolver` cache: a fresh problem is
built every TE interval, but the topology persists across intervals, so
delegating keeps the interval hot path free of re-derivation work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a core <-> traffic cycle
    from .siteflow import SiteFlowSolver
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["MaxAllFlowProblem"]


@dataclass
class MaxAllFlowProblem:
    """TE input: maximize satisfied endpoint demand over tunnels.

    Attributes:
        topology: Contracted two-layer topology (sites, tunnels, endpoints).
        demands: Endpoint-pair demands per site pair, aligned with the
            topology's tunnel-catalog pair ordering.
    """

    topology: "TwoLayerTopology"
    demands: "DemandMatrix"

    def __post_init__(self) -> None:
        if self.demands.num_site_pairs != self.topology.catalog.num_pairs:
            raise ValueError(
                "demand matrix does not align with tunnel catalog "
                f"({self.demands.num_site_pairs} vs "
                f"{self.topology.catalog.num_pairs} site pairs)"
            )

    @cached_property
    def siteflow_solver(self) -> "SiteFlowSolver":
        """The topology's cached first-stage solver and shared indexing."""
        from .siteflow import SiteFlowSolver  # deferred: import cycle

        return SiteFlowSolver.for_topology(self.topology)

    @property
    def effective_epsilon(self) -> float:
        """The ``ε`` of objective (1): ``0.1 / max(w_t)``.

        Small enough that the path-length preference never dominates
        throughput.
        """
        return self.siteflow_solver.default_epsilon

    @property
    def link_index(self) -> dict[tuple[str, str], int]:
        """Directed link key -> row index, shared by all LP builders."""
        return self.siteflow_solver.link_index

    @cached_property
    def capacities(self) -> np.ndarray:
        """Capacity vector aligned with :attr:`link_index`.

        A per-problem copy, so callers may scale or edit it without
        touching the topology-level cache.
        """
        return self.siteflow_solver.capacities.copy()

    @property
    def tunnel_offsets(self) -> np.ndarray:
        """Start offset of each site pair's tunnels in the flat (k,t) space.

        ``offsets[k] .. offsets[k+1]`` are the flat variable indices of
        ``T_k``; ``offsets[-1]`` is the total tunnel count.
        """
        return self.siteflow_solver.tunnel_offsets

    @property
    def num_tunnel_vars(self) -> int:
        """Total tunnels across all site pairs."""
        return self.siteflow_solver.num_tunnel_vars

    @property
    def tunnel_weights(self) -> np.ndarray:
        """``w_t`` per flat tunnel variable."""
        return self.siteflow_solver.tunnel_weights

    def tunnel_link_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Sparse COO of ``L(t, e)``: (link_row, flat_tunnel_col) pairs."""
        solver = self.siteflow_solver
        return solver.incidence_rows, solver.incidence_cols
