"""The columnar delta publish of :class:`TEController`.

``LegacyPublisher`` is the dict-building publish the columnar diff
replaced: one Python pass over every flow builds each source endpoint's
``dst -> path`` dict, and dicts equal to the last written one are
skipped.  It is kept here as the oracle the differential test holds the
controller to, config for config and version for version.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane import (
    EndpointConfig,
    SyncError,
    TEController,
    TEDatabase,
    VERSION_KEY,
    config_key,
)
from repro.controlplane.faults import FaultyTEDatabase
from repro.core import MegaTEOptimizer
from repro.core.flowtable import FlowTable
from repro.core.types import FlowAssignment, TEResult
from repro.topology import SiteNetwork, TwoLayerTopology
from repro.topology.endpoints import EndpointLayout
from repro.topology.tunnels import Tunnel, TunnelCatalog
from repro.traffic import DemandMatrix


class LegacyPublisher:
    """The per-flow dict-building publish (the oracle)."""

    def __init__(self, database: TEDatabase) -> None:
        self.database = database
        self.current_version = 0
        self.last_publish_writes = 0
        self._published_paths: dict[int, dict[int, tuple[str, ...]]] = {}

    def publish(self, topology, result, now: float = 0.0) -> int:
        catalog = topology.catalog
        next_version = self.current_version + 1
        per_endpoint: dict[int, dict[int, tuple[str, ...]]] = {}
        table = result.demands.table
        assigned = result.assignment.assigned_tunnel
        pair_of_flow = table.pair_ids()
        publishable = (assigned >= 0) & table.has_endpoints[pair_of_flow]
        for i in np.flatnonzero(publishable):
            paths = [t.path for t in catalog.tunnels(int(pair_of_flow[i]))]
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
        self.last_publish_writes = writes
        return next_version


class FlakyDatabase(TEDatabase):
    """Raises :class:`SyncError` on the ``fail_at``-th put (0-based)."""

    def __init__(self) -> None:
        super().__init__(num_shards=2, enforce_capacity=False)
        self.fail_at: int | None = None
        self.puts = 0

    def put(self, key, value, now: float = 0.0) -> int:
        if self.fail_at is not None and self.puts == self.fail_at:
            self.fail_at = None
            raise SyncError("injected write failure")
        self.puts += 1
        return super().put(key, value, now=now)


class RecordingDatabase(TEDatabase):
    """Logs every accepted put as ``(key, now)``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.log: list[tuple[str, float]] = []

    def put(self, key, value, now: float = 0.0) -> int:
        version = super().put(key, value, now=now)
        self.log.append((key, now))
        return version


# -- a small hand-built world -------------------------------------------------

SITES = ("a", "b", "c", "d")

#: Two catalogs over the same pairs: the second swaps pair 0's tunnel
#: order and gives pair 1 a path the first never had.
CATALOGS = (
    {
        0: [("a", "b"), ("a", "c", "b")],
        1: [("a", "d"), ("a", "b", "d"), ("a", "c", "d")],
        2: [("b", "d")],
    },
    {
        0: [("a", "c", "b"), ("a", "b")],
        1: [("a", "d"), ("a", "c", "b", "d"), ("a", "c", "d")],
        2: [("b", "d")],
    },
)


def make_topology(choice: int) -> TwoLayerTopology:
    net = SiteNetwork(name="publish")
    for u, v in (("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"),
                 ("b", "d"), ("c", "d")):
        net.add_duplex_link(u, v, capacity=10.0, latency_ms=1.0)
    catalog = TunnelCatalog(net)
    for k, paths in sorted(CATALOGS[choice].items()):
        catalog.add_pair(
            paths[0][0],
            paths[0][-1],
            [
                Tunnel(src=p[0], dst=p[-1], path=p, weight=float(w))
                for w, p in enumerate(paths)
            ],
        )
    layout = EndpointLayout({site: 4 for site in SITES})
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


def make_result(table: FlowTable, assigned) -> TEResult:
    return TEResult(
        scheme="test",
        assignment=FlowAssignment.from_flat(
            np.asarray(assigned, dtype=np.int32), table.offsets
        ),
        demands=DemandMatrix.from_table(table),
        satisfied_volume=0.0,
        runtime_s=0.0,
    )


def stored(database: TEDatabase) -> dict:
    """Every key's ``(value, version)`` across all shards."""
    return {
        key: database.get(key)
        for shard in range(database.num_shards)
        for key in database.shard_keys(shard)
    }


@st.composite
def publish_runs(draw):
    """A flow layout plus a sequence of (catalog, assignment, failure)."""
    counts = [draw(st.integers(0, 7)) for _ in range(3)]
    n = sum(counts)
    # A small endpoint id range makes duplicate (src, dst) flows and
    # endpoints spread over several pairs common.
    src = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    has_endpoints = [True, True, draw(st.booleans())]
    table = FlowTable(
        np.concatenate(([0], np.cumsum(counts))),
        np.ones(n),
        np.ones(n, dtype=np.int8),
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(has_endpoints),
    )
    tunnels = [len(CATALOGS[0][k]) for k in range(3)]
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        assigned = [
            draw(st.integers(-1, tunnels[k] - 1))
            for k, c in enumerate(counts)
            for _ in range(c)
        ]
        catalog = draw(st.integers(0, 1))
        fail_at = draw(st.none() | st.integers(0, 8))
        steps.append((catalog, assigned, fail_at))
    return table, steps


@settings(max_examples=150, deadline=None)
@given(publish_runs())
def test_columnar_publish_matches_legacy_oracle(run):
    table, steps = run
    topologies = [make_topology(0), make_topology(1)]
    database, reference_db = FlakyDatabase(), FlakyDatabase()
    controller = TEController(database, optimizer=MegaTEOptimizer())
    oracle = LegacyPublisher(reference_db)
    for choice, assigned, fail_at in steps:
        topology = topologies[choice]
        result = make_result(table, assigned)
        if fail_at is not None:
            database.fail_at = reference_db.fail_at = fail_at
            for publisher in (controller, oracle):
                try:
                    publisher.publish(topology, result, now=0.0)
                except SyncError:
                    pass
            database.fail_at = reference_db.fail_at = None
        # The publish proper, or the retry after an injected failure.
        controller.publish(topology, result, now=0.0)
        oracle.publish(topology, result, now=0.0)
        assert controller.current_version == oracle.current_version
        assert stored(database) == stored(reference_db)
        # Republishing an unchanged result writes no config.
        controller.publish(topology, result, now=0.0)
        oracle.publish(topology, result, now=0.0)
        assert controller.last_publish_writes == 0
        assert oracle.last_publish_writes == 0
        assert stored(database) == stored(reference_db)


def test_layout_change_rebuilds_state():
    topology = make_topology(0)
    database = TEDatabase(enforce_capacity=False)
    controller = TEController(database, optimizer=MegaTEOptimizer())
    first = FlowTable(
        np.array([0, 2, 2, 2]), np.ones(2), np.ones(2, dtype=np.int8),
        np.array([0, 1]), np.array([2, 3]),
    )
    controller.publish(topology, make_result(first, [0, 1]))
    # Same flow count, different sources: endpoint 5 is new.
    second = FlowTable(
        np.array([0, 2, 2, 2]), np.ones(2), np.ones(2, dtype=np.int8),
        np.array([0, 5]), np.array([2, 3]),
    )
    controller.publish(topology, make_result(second, [0, 1]))
    config, _ = database.get(config_key(5))
    assert config.paths == {3: ("a", "c", "b")}
    # The state follows the new layout: an equal copy of it reuses it.
    copy = FlowTable(
        second.offsets.copy(), np.ones(2), np.ones(2, dtype=np.int8),
        second.src_endpoints.copy(), second.dst_endpoints.copy(),
    )
    controller.publish(topology, make_result(copy, [0, 1]))
    assert controller.last_publish_writes == 0


def test_tunnel_index_beyond_the_pair_raises():
    topology = make_topology(0)
    table = FlowTable(
        np.array([0, 1, 1, 1]), np.ones(1), np.ones(1, dtype=np.int8),
        np.array([0]), np.array([1]),
    )
    controller = TEController(TEDatabase(), optimizer=MegaTEOptimizer())
    with pytest.raises(IndexError):
        controller.publish(topology, make_result(table, [2]))


# -- pacing -------------------------------------------------------------------


def many_configs_result(endpoints: int):
    """One flow per source endpoint on pair 0: ``endpoints`` configs."""
    table = FlowTable(
        np.array([0, endpoints, endpoints, endpoints]),
        np.ones(endpoints),
        np.ones(endpoints, dtype=np.int8),
        np.arange(endpoints, dtype=np.int64),
        np.zeros(endpoints, dtype=np.int64),
    )
    return make_result(table, np.zeros(endpoints, dtype=np.int32))


def test_publish_paces_writes_under_shard_capacity():
    """More configs than one second holds: spread, never rejected."""
    database = RecordingDatabase(
        num_shards=2, shard_capacity_qps=5, enforce_capacity=True
    )
    controller = TEController(database, optimizer=MegaTEOptimizer())
    now = 3.0
    controller.publish(make_topology(0), many_configs_result(37), now=now)
    assert controller.last_publish_writes == 37
    for shard in range(2):
        assert database.stats(shard).rejected == 0
        assert database.stats(shard).peak_qps <= 5
    keys = [key for key, _ in database.log]
    assert keys[-1] == VERSION_KEY
    assert keys.count(VERSION_KEY) == 1
    config_seconds = [int(t) for key, t in database.log[:-1]]
    assert config_seconds == sorted(config_seconds)
    ready = controller.last_publish_ready_s
    assert ready == max(config_seconds) > now
    assert database.log[-1][1] == ready
    assert database.get(VERSION_KEY, now=ready)[0] == 1


def test_pacing_respects_load_already_in_the_second():
    database = RecordingDatabase(
        num_shards=1, shard_capacity_qps=4, enforce_capacity=True
    )
    for _ in range(3):
        database.get_version(VERSION_KEY, now=0.0)
    controller = TEController(database, optimizer=MegaTEOptimizer())
    controller.publish(make_topology(0), many_configs_result(6), now=0.0)
    assert database.stats(0).rejected == 0
    # One slot left at t=0.  The version key's shard keeps one slot per
    # second free for the key, so later seconds take at most 3 configs.
    assert [t for _, t in database.log] == [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert controller.last_publish_ready_s == 2.0


def test_faulty_database_forwards_headroom():
    inner = TEDatabase(num_shards=2, shard_capacity_qps=10)
    faulty = FaultyTEDatabase(inner)
    inner.put("k", 1, now=7.5)
    shard = inner.shard_of("k")
    assert faulty.headroom(shard, 7.0) == inner.headroom(shard, 7.9) == 9
    assert faulty.headroom(shard, 8.0) == 10


def test_small_publish_lands_at_now(tiny_topology, tiny_demands):
    database = RecordingDatabase(enforce_capacity=True)
    controller = TEController(database, optimizer=MegaTEOptimizer())
    controller.run_interval(tiny_topology, tiny_demands, now=12.5)
    assert {t for _, t in database.log} == {12.5}
    assert controller.last_publish_ready_s == 12.5


# -- observability ------------------------------------------------------------


def test_publish_span_attributes():
    was = obs.telemetry_enabled()
    try:
        obs.set_enabled(True)
        obs.reset()
        database = TEDatabase(
            num_shards=2, shard_capacity_qps=5, enforce_capacity=True
        )
        controller = TEController(database, optimizer=MegaTEOptimizer())
        controller.publish(make_topology(0), many_configs_result(12), now=0.0)
        spans = [
            s for s in obs.get_tracer().finished_spans()
            if s.name == "te.publish"
        ]
    finally:
        obs.set_enabled(was)
        obs.reset()
    assert len(spans) == 1
    attrs = spans[0].attributes
    assert attrs["changed_flows"] == 12
    assert attrs["writes"] == 12
    assert attrs["seconds_spanned"] == controller.last_publish_ready_s > 0


def test_publish_span_not_collected_when_tracing_is_off():
    was = obs.telemetry_enabled()
    try:
        obs.set_enabled(False)
        obs.reset()
        controller = TEController(TEDatabase(), optimizer=MegaTEOptimizer())
        controller.publish(make_topology(0), many_configs_result(3))
        assert len(obs.get_tracer()) == 0
    finally:
        obs.set_enabled(was)
        obs.reset()
