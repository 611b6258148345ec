"""The sync plane on the simulated clock: publisher, store, agent fleet.

:class:`~repro.controlplane.controller.TEController` publishes a version
by writing every endpoint config first and the version key strictly
last, so an agent that observes the new version is guaranteed to find
the new configs.  Under injected store faults a publish can fail *mid
sequence*; :class:`ResumablePublisher` keeps that ordering invariant
while surviving the faults: failed writes stay queued and resume on the
next pump, and a newer publish supersedes a stalled one.

:class:`SyncFleet` is the whole plane — a fault-wrapped sharded store,
the publisher, a fleet of retrying endpoint agents and the shard-health
monitor — advanced one tick at a time with the sync invariants checked
on every tick.  The chaos study (:mod:`repro.experiments.chaos_sync`)
and the soak engine (:mod:`repro.simulation.soak`) both drive it; each
keeps its own sampling statistics.
"""

from __future__ import annotations

from .agent import EndpointAgent, RetryPolicy
from .consistency import spread_offsets
from .controller import EndpointConfig, VERSION_KEY, config_key
from .database import SyncError, TEDatabase
from .failover import orchestrate_shard_failover
from .faults import FaultPlan, FaultyTEDatabase
from .watcher import ShardHealthMonitor

__all__ = ["ResumablePublisher", "SyncFleet"]


class ResumablePublisher:
    """Writes config versions through a faulty store, resumably.

    Mirrors the controller's write ordering — configs first, the version
    key strictly last — but survives mid-publish faults: failed writes
    stay queued and resume on the next tick, so an agent that sees the
    new version is still guaranteed to find the new configs.

    Attributes:
        published_version: Newest version whose version-key flip landed.
    """

    def __init__(self, database: TEDatabase, num_agents: int) -> None:
        self.database = database
        self.num_agents = num_agents
        self.published_version = 0
        self._target_version = 0
        self._pending: list[int] = []
        self._flip_pending = False

    def start(self, version: int) -> None:
        """Queue a publish (supersedes any still-pending one)."""
        self._target_version = version
        self._pending = list(range(self.num_agents))
        self._flip_pending = True

    def pump(self, now: float, budget: int = 1000) -> None:
        """Push queued writes until one fails or the queue drains."""
        if not self._flip_pending:
            return
        wrote = 0
        while self._pending and wrote < budget:
            endpoint = self._pending[0]
            config = EndpointConfig(
                endpoint_id=endpoint,
                version=self._target_version,
                paths={
                    (endpoint + 1)
                    % self.num_agents: ("siteA", "siteB")
                },
            )
            try:
                self.database.put(
                    config_key(endpoint), config, now=now
                )
            except SyncError:
                return  # resume next tick
            self._pending.pop(0)
            wrote += 1
        if self._pending:
            return
        try:
            stored = self.database.put(VERSION_KEY, None, now=now)
        except SyncError:
            return  # version flip resumes next tick
        self.published_version = stored
        self._flip_pending = False


class SyncFleet:
    """Fault-wrapped store, resumable publisher and retrying agent fleet.

    Each :meth:`tick` runs failover (detect → re-shard → reconcile, when
    ``manage_failover``) → pump → poll, then checks three invariants:
    no agent is newer than published, no agent rolls back, and no agent
    vouches for (``serving_paths``) a config past its staleness bound.
    Breaches land in :attr:`violations`; a healthy plane leaves it empty.
    """

    def __init__(
        self,
        plan: FaultPlan,
        num_agents: int,
        num_shards: int,
        poll_period_s: float,
        staleness_slo_s: float,
        seed: int = 0,
        manage_failover: bool = True,
    ) -> None:
        self.database = FaultyTEDatabase(
            TEDatabase(
                num_shards=num_shards,
                shard_capacity_qps=1_000_000,
                enforce_capacity=True,
            ),
            plan,
        )
        offsets = spread_offsets(num_agents, poll_period_s, seed=seed)
        self.agents = [
            EndpointAgent(
                endpoint_id=e,
                poll_period_s=poll_period_s,
                poll_offset_s=float(offsets[e]),
                retry_policy=RetryPolicy(
                    max_retries=3,
                    backoff_base_s=0.2,
                    backoff_cap_s=2.0,
                    poll_budget_s=poll_period_s / 2.0,
                    seed=seed,
                ),
                max_staleness_s=staleness_slo_s,
            )
            for e in range(num_agents)
        ]
        self.monitor = ShardHealthMonitor(down_after=2, up_after=1)
        self.publisher = ResumablePublisher(self.database, num_agents)
        self.manage_failover = manage_failover
        self.violations: list[str] = []
        self.resharded_keys = 0
        self._versions = [0] * num_agents

    def converged_fraction(self) -> float:
        """Share of agents on the newest published version."""
        published = self.publisher.published_version
        on = sum(a.local_version == published for a in self.agents)
        return on / len(self.agents) if self.agents else 1.0

    def tick(self, now: float, until_converged: bool = False) -> bool:
        """Failover → pump → poll, then check the invariants.

        With ``until_converged`` (a clear-weather grace tick) the poll
        is skipped once every agent is on the published version; the
        return value says whether it was.
        """
        if self.manage_failover:
            self.resharded_keys += orchestrate_shard_failover(
                self.database, now, monitor=self.monitor
            ).resharded_keys
        self.publisher.pump(now)
        if until_converged and self.converged_fraction() == 1.0:
            return True
        for agent in self.agents:
            agent.maybe_poll(self.database, now=now)
        published = self.publisher.published_version
        for idx, agent in enumerate(self.agents):
            version = agent.local_version
            if version > published:
                self.violations.append(
                    f"t={now:.0f}s agent {idx} at v{version} "
                    f"> published v{published}"
                )
            if version < self._versions[idx]:
                self.violations.append(
                    f"t={now:.0f}s agent {idx} rolled back "
                    f"v{self._versions[idx]} -> v{version}"
                )
            self._versions[idx] = version
            staleness = agent.staleness_s(now)
            if (
                staleness > agent.max_staleness_s
                and agent.serving_paths(now) is not None
            ):
                self.violations.append(
                    f"t={now:.0f}s agent {idx} served a config "
                    f"{staleness:.1f}s stale past its "
                    f"{agent.max_staleness_s:.1f}s bound"
                )
        return False
