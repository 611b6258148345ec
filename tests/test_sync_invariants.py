"""The sync-plane invariant checks fire when an agent misbehaves.

The chaos and soak suites assert that a healthy plane reports zero
violations; this file shows the checks can catch one.  The
:class:`~repro.controlplane.publisher.SyncFleet` both harnesses drive
is handed a fleet whose endpoint 0 breaks one invariant — it jumps
ahead of the published version, rolls back, or keeps vouching for a
config past its staleness bound — and each breach must surface in the
soak report's ``violations`` and in the chaos row's
``invariant_violations``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.controlplane import EndpointAgent, publisher
from repro.experiments import chaos_sync
from repro.experiments.common import build_scenario
from repro.simulation.soak import run_soak
from repro.traffic import DiurnalSequence

#: Fault -> the text its violation message carries.
FAULTS = {
    "newer": "> published",
    "rollback": "rolled back",
    "stale": "past its",
}


@pytest.fixture(scope="module")
def small_scenario():
    sc = build_scenario(
        "twan",
        total_endpoints=2_000,
        num_site_pairs=24,
        target_load=1.4,
        seed=7,
    )
    return sc.topology, DiurnalSequence(base=sc.demands, seed=5)


@pytest.fixture(autouse=True)
def _registry_guard():
    yield
    obs.reset()
    obs.set_enabled(False)


def _broken_agent(fault: str) -> type[EndpointAgent]:
    """An agent class whose endpoint 0 breaks one sync invariant."""

    class BrokenAgent(EndpointAgent):
        def maybe_poll(self, database, now):
            installed = self.endpoint_id == 0 and self.local_version > 0
            if installed and fault == "stale":
                return False  # stop refreshing: staleness grows
            polled = super().maybe_poll(database, now=now)
            if installed and fault == "newer":
                self.local_version += 1_000
            elif installed and fault == "rollback":
                self.local_version -= 1
            return polled

        def serving_paths(self, now):
            if fault == "stale":
                return self.paths  # vouches regardless of its bound
            return super().serving_paths(now)

    return BrokenAgent


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_broken_agent_is_reported_by_soak_and_chaos(
    fault, small_scenario, monkeypatch
):
    monkeypatch.setattr(publisher, "EndpointAgent", _broken_agent(fault))
    expected = FAULTS[fault]

    topology, sequence = small_scenario
    soak = run_soak(topology, sequence, 2, (), num_agents=4, seed=0)
    sync = [v for v in soak.violations if v.startswith("sync invariant")]
    assert any(expected in v for v in sync), soak.violations

    chaos = chaos_sync.simulate(
        intensity=0.0,
        seed=0,
        num_agents=4,
        num_shards=2,
        horizon_s=120.0,
        publish_period_s=40.0,
        poll_period_s=5.0,
    )
    assert chaos.row.invariant_violations == len(chaos.violations) > 0
    assert any(expected in v for v in chaos.violations), chaos.violations
