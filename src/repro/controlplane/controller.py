"""The TE controller: computes allocations and publishes them to the DB.

In MegaTE's bottom-up loop (§3.2, Figure 4(b)) the controller never talks
to endpoints.  It runs the optimizer each TE interval (or upon failure),
writes each endpoint's segment-routing configuration into the TE database
under an incremented version, and lets agents pull at their own pace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from ..core.twostage import MegaTEOptimizer
from ..obs import get_tracer
from .database import TEDatabase

if TYPE_CHECKING:
    from ..core.flowtable import FlowTable
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology
    from ..topology.tunnels import TunnelCatalog
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


class _FlowState:
    """What the controller last published, per flow of one flow layout.

    Attributes:
        offsets, src, dst: The layout (pair CSR offsets and endpoint id
            columns) this state belongs to.
        published: int32 per flow — id of the path the flow's endpoint
            config last carried for it (``-1``: none).  An entry moves
            only once its endpoint's config is in the database.
        order: Flow ids stably sorted by source endpoint.
        endpoints: Distinct source endpoint ids, ascending.
        starts: Endpoint ``endpoints[j]``'s flows are
            ``order[starts[j]:starts[j + 1]]``, in flow order.
    """

    def __init__(self, table: "FlowTable") -> None:
        self.offsets = table.offsets
        self.src = table.src_endpoints
        self.dst = table.dst_endpoints
        self.published = np.full(table.num_flows, -1, dtype=np.int32)
        self.order = np.argsort(self.src, kind="stable")
        sorted_src = self.src[self.order]
        self.endpoints, first = np.unique(sorted_src, return_index=True)
        self.starts = np.append(first, sorted_src.size)

    def matches(self, table: "FlowTable") -> bool:
        """Is ``table`` the flow layout this state was built for?"""
        return all(
            mine is theirs or np.array_equal(mine, theirs)
            for mine, theirs in (
                (self.offsets, table.offsets),
                (self.src, table.src_endpoints),
                (self.dst, table.dst_endpoints),
            )
        )

    def flows_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flows of the endpoints at ``rows`` of :attr:`endpoints`.

        Returns:
            The flows, endpoint-major and in flow order per endpoint, and
            CSR bounds: row ``rows[j]``'s flows sit at
            ``bounds[j]:bounds[j + 1]``.
        """
        lo = self.starts[rows]
        counts = self.starts[rows + 1] - lo
        bounds = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        at = np.arange(bounds[-1]) + np.repeat(lo - bounds[:-1], counts)
        return self.order[at], bounds


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
        #: Endpoint configs written during the most recent publish.
        self.last_publish_writes = 0
        #: Simulated time the most recent successful publish's version
        #: key landed at: when its configs became visible to agents.
        self.last_publish_ready_s: float | None = None
        self._state: _FlowState | None = None
        #: Interned site paths: a path's id is its index here.
        self._paths: list[tuple[str, ...]] = []
        self._path_id: dict[tuple[str, ...], int] = {}

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
        """Write changed per-endpoint configs and bump the global version.

        An endpoint's config maps each destination of its flows that has
        a tunnel (on a pair carrying endpoint ids) to that tunnel's site
        path; a later flow to the same destination overwrites an earlier
        one, and an endpoint left with no such flow keeps its previous
        config.

        The publish is a columnar diff.  The controller keeps, per flow,
        the path it last published; the flows whose path moved name the
        candidate endpoints (one ``np.unique``), and only those
        endpoints' configs are built and compared with what they last
        carried.  Endpoints whose config changed are rewritten — a few
        percent of them in a typical interval.  A flow's published path
        moves only once its endpoint's write lands, so a publish that
        fails part way resumes on the next call.  The state is rebuilt
        (and every endpoint with a publishable flow rewritten) when the
        flow layout changes.

        Writes are paced: each lands in the first simulated second, from
        ``now`` on, in which its shard still has capacity, so a large
        publish (the bootstrap) spreads over seconds instead of being
        rejected.  The version key is written **last** so an agent that
        sees the new version is guaranteed to find the new configs (write
        ordering is the paper's eventual-consistency correctness
        argument); it lands at the second the last config lands — or the
        next second with room, when its shard has none left there — and
        that time is :attr:`last_publish_ready_s`.

        Returns:
            The published version.
        """
        database = self.database
        next_version = self.current_version + 1
        with get_tracer().span("te.publish") as span:
            table = result.demands.table
            state = self._state
            if state is None or not state.matches(table):
                state = self._state = _FlowState(table)
            current = self._flow_paths(
                topology.catalog, table, result.assignment.assigned_tunnel
            )
            changed = np.flatnonzero(current != state.published)
            rows = np.searchsorted(
                state.endpoints, np.unique(state.src[changed])
            )
            flows, bounds = state.flows_of(rows)
            fresh = self._configs(flows, current[flows], bounds, state.dst)
            stale = self._configs(
                flows, state.published[flows], bounds, state.dst
            )
            # An equal config needs no write; an empty one keeps the
            # endpoint's previous config.
            write = [j for j, cfg in enumerate(fresh) if cfg and cfg != stale[j]]
            same = [j for j, cfg in enumerate(fresh) if cfg and cfg == stale[j]]
            self._settle(state, rows[same], current)
            written = rows[write]
            endpoints = state.endpoints[written].tolist()
            keys = [config_key(e) for e in endpoints]
            seconds, ready = self._pace(keys, now)
            sequence = np.argsort(seconds, kind="stable")
            landed = 0
            try:
                for i in sequence.tolist():
                    database.put(
                        keys[i],
                        EndpointConfig(
                            endpoint_id=endpoints[i],
                            version=next_version,
                            paths=fresh[write[i]],
                        ),
                        now=self._stamp(int(seconds[i]), now),
                    )
                    landed += 1
            finally:
                self._settle(state, written[sequence[:landed]], current)
                self.last_publish_writes = landed
            ready_s = self._stamp(ready, now)
            database.put(VERSION_KEY, next_version, now=ready_s)
            span.set_attribute("changed_flows", int(changed.size))
            span.set_attribute("writes", landed)
            span.set_attribute("seconds_spanned", ready_s - now)
        self.current_version = next_version
        self.last_result = result
        self.last_publish_ready_s = ready_s
        return next_version

    # -- publish internals ---------------------------------------------------

    def _flow_paths(
        self,
        catalog: "TunnelCatalog",
        table: "FlowTable",
        assigned: np.ndarray,
    ) -> np.ndarray:
        """Path id each flow's config should carry (``-1``: none)."""
        current = np.full(assigned.size, -1, dtype=np.int32)
        bounds = table.offsets.tolist()
        pairs = np.flatnonzero(table.has_endpoints & (table.counts > 0))
        for k in pairs.tolist():
            lo, hi = bounds[k], bounds[k + 1]
            # Entry 0 is "no tunnel" (unassigned flows, -1, land on it);
            # a tunnel index past the pair's tunnels raises IndexError.
            row = [-1] + [self._intern(t.path) for t in catalog.tunnels(k)]
            np.take(
                np.asarray(row, dtype=np.int32),
                assigned[lo:hi] + 1,
                out=current[lo:hi],
            )
        return current

    def _intern(self, path: tuple[str, ...]) -> int:
        pid = self._path_id.get(path)
        if pid is None:
            pid = self._path_id[path] = len(self._paths)
            self._paths.append(path)
        return pid

    def _configs(
        self,
        flows: np.ndarray,
        path_ids: np.ndarray,
        bounds: np.ndarray,
        dst: np.ndarray,
    ) -> list[dict[int, tuple[str, ...]]]:
        """``dst -> path`` per endpoint segment of ``flows`` (see flows_of)."""
        keep = path_ids >= 0
        cut = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=cut[1:])
        counts = np.diff(cut[bounds]).tolist()
        paths = self._paths
        pairs = zip(
            dst[flows[keep]].tolist(),
            [paths[p] for p in path_ids[keep].tolist()],
        )
        return [dict(islice(pairs, n)) for n in counts]

    @staticmethod
    def _settle(
        state: _FlowState, rows: np.ndarray, current: np.ndarray
    ) -> None:
        """Record that the endpoints at ``rows`` now carry ``current``."""
        flows, _ = state.flows_of(rows)
        state.published[flows] = current[flows]

    def _pace(self, keys: list[str], now: float) -> tuple[np.ndarray, int]:
        """Landing second of each config write, and of the version key.

        Each shard takes its writes, in order, in the first seconds from
        ``now`` on where it has headroom.  The version key's shard keeps
        one slot per second free (when it has more than one) so the key
        can land in the same second as the last config.
        """
        database = self.database
        first = int(now)
        version_shard = database.shard_of(VERSION_KEY)
        shards = np.fromiter(
            (database.shard_of(k) for k in keys), dtype=np.int64,
            count=len(keys),
        )
        seconds = np.empty(len(keys), dtype=np.int64)
        last = first
        for shard in np.unique(shards).tolist():
            queue = np.flatnonzero(shards == shard)
            reserve = int(shard == version_shard)
            second = first
            placed = 0
            while placed < queue.size:
                room = database.headroom(shard, second)
                if room > 1:
                    room -= reserve
                take = min(room, queue.size - placed)
                seconds[queue[placed:placed + take]] = second
                placed += take
                second += 1
            last = max(last, second - 1)
        ready = last
        on_version_shard = seconds[shards == version_shard]
        while database.headroom(version_shard, ready) <= np.count_nonzero(
            on_version_shard == ready
        ):
            ready += 1
        return seconds, ready

    @staticmethod
    def _stamp(second: int, now: float) -> float:
        """Time a write landing in ``second`` is issued at."""
        return now if second <= now else float(second)
