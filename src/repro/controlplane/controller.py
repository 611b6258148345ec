"""The TE controller: computes allocations and publishes them to the DB.

In MegaTE's bottom-up loop (§3.2, Figure 4(b)) the controller never talks
to endpoints.  It runs the optimizer each TE interval (or upon failure),
writes each endpoint's segment-routing configuration into the TE database
under an incremented version, and lets agents pull at their own pace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.twostage import MegaTEOptimizer
from .database import TEDatabase

if TYPE_CHECKING:
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["EndpointConfig", "TEController", "VERSION_KEY"]

#: Database key holding the global TE configuration version.
VERSION_KEY = "te:version"


@dataclass(frozen=True)
class EndpointConfig:
    """One endpoint's TE configuration, as stored in the database.

    Attributes:
        endpoint_id: The endpoint this config belongs to.
        version: TE configuration version it was published under.
        paths: Mapping from destination endpoint id to the site-level path
            (tuple of sites) its flows must ride — the input to the host's
            SR header insertion.
    """

    endpoint_id: int
    version: int
    paths: dict[int, tuple[str, ...]]


def config_key(endpoint_id: int) -> str:
    """Database key of one endpoint's configuration."""
    return f"te:cfg:{endpoint_id}"


class TEController:
    """Periodic TE recomputation + versioned publication.

    Args:
        database: The TE database configs are published to.
        optimizer: TE solver; defaults to :class:`MegaTEOptimizer`.
    """

    def __init__(
        self,
        database: TEDatabase,
        optimizer: MegaTEOptimizer | None = None,
    ) -> None:
        self.database = database
        self.optimizer = optimizer or MegaTEOptimizer()
        self.current_version = 0
        self.last_result: "TEResult | None" = None
        #: Paths of the last config written per endpoint: a publish
        #: skips endpoints whose paths did not change (most endpoints,
        #: most intervals).
        self._published_paths: dict[int, dict[int, tuple[str, ...]]] = {}
        #: Endpoint configs written during the most recent publish.
        self.last_publish_writes = 0

    def run_interval(
        self,
        topology: "TwoLayerTopology",
        demands: "DemandMatrix",
        now: float = 0.0,
    ) -> "TEResult":
        """Solve one TE interval and publish the result.

        Returns:
            The optimizer's :class:`~repro.core.types.TEResult`.
        """
        result = self.optimizer.solve(topology, demands)
        self.publish(topology, result, now=now)
        return result

    def publish(
        self,
        topology: "TwoLayerTopology",
        result: "TEResult",
        now: float = 0.0,
    ) -> int:
        """Write per-endpoint configs and bump the global version.

        Only endpoints that actually source flows get a config entry, and
        only endpoints whose paths *changed* since the last publish are
        rewritten — the common case in production, where successive
        intervals repin few flows.  The version key is
        written **last** so an agent that sees the new version is
        guaranteed to find the new configs (write ordering is the paper's
        eventual-consistency correctness argument).
        """
        catalog = topology.catalog
        next_version = self.current_version + 1
        per_endpoint: dict[int, dict[int, tuple[str, ...]]] = {}
        # One pass over the flat assignment: flows with a tunnel whose
        # pair carries endpoint ids, in ascending flow order (pair-major,
        # matching the legacy per-pair iteration).
        table = result.demands.table
        assigned = result.assignment.assigned_tunnel
        pair_of_flow = table.pair_ids()
        publishable = (assigned >= 0) & table.has_endpoints[pair_of_flow]
        paths_of: dict[int, list[tuple[str, ...]]] = {}
        for i in np.flatnonzero(publishable):
            k = int(pair_of_flow[i])
            paths = paths_of.get(k)
            if paths is None:
                paths = paths_of[k] = [
                    t.path for t in catalog.tunnels(k)
                ]
            src = int(table.src_endpoints[i])
            dst = int(table.dst_endpoints[i])
            per_endpoint.setdefault(src, {})[dst] = paths[int(assigned[i])]
        writes = 0
        for endpoint_id, paths in per_endpoint.items():
            if self._published_paths.get(endpoint_id) == paths:
                continue
            self.database.put(
                config_key(endpoint_id),
                EndpointConfig(
                    endpoint_id=endpoint_id,
                    version=next_version,
                    paths=paths,
                ),
                now=now,
            )
            self._published_paths[endpoint_id] = paths
            writes += 1
        self.database.put(VERSION_KEY, next_version, now=now)
        self.current_version = next_version
        self.last_result = result
        self.last_publish_writes = writes
        return next_version
