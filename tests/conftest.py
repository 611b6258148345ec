"""Shared fixtures: small, fast topologies and demand matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import (
    PRIORITY_ORDER,
    FlowAssignment,
    MaxAllFlowProblem,
    MegaTEOptimizer,
    SiteFlowSolver,
    fill_pair,
)
from repro.topology import (
    SiteNetwork,
    TwoLayerTopology,
    b4,
    build_tunnels,
    contract,
)
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix, PairDemands, generate_demands


@pytest.fixture(scope="session")
def b4_network() -> SiteNetwork:
    return b4()


@pytest.fixture(scope="session")
def b4_topology(b4_network) -> TwoLayerTopology:
    """B4 with 12 sampled site pairs, 3 tunnels each, ~600 endpoints."""
    sites = b4_network.sites
    pairs = [
        (sites[i], sites[j])
        for i, j in [
            (0, 5), (0, 9), (1, 7), (2, 10), (3, 11), (4, 8),
            (5, 0), (6, 1), (7, 3), (8, 2), (9, 6), (11, 4),
        ]
    ]
    return contract(
        b4_network,
        site_pairs=pairs,
        tunnels_per_pair=3,
        total_endpoints=600,
        seed=7,
    )


@pytest.fixture(scope="session")
def b4_demands(b4_topology) -> DemandMatrix:
    """A binding demand matrix on the B4 fixture (load slightly over 1)."""
    return generate_demands(
        b4_topology,
        seed=11,
        target_load=1.15,
        pairs_per_endpoint=1.0,
    )


@pytest.fixture()
def tiny_topology() -> TwoLayerTopology:
    """Two sites, two disjoint paths (one short, one long), 8 endpoints."""
    net = SiteNetwork(name="tiny")
    net.add_duplex_link("a", "b", capacity=10.0, latency_ms=5.0)
    net.add_duplex_link("a", "r", capacity=10.0, latency_ms=10.0)
    net.add_duplex_link("r", "b", capacity=10.0, latency_ms=10.0)
    catalog = build_tunnels(
        net, site_pairs=[("a", "b")], tunnels_per_pair=2
    )
    layout = EndpointLayout({"a": 4, "b": 4, "r": 0})
    return TwoLayerTopology(network=net, catalog=catalog, layout=layout)


def make_pair_demands(
    volumes, qos=None, with_endpoints=False, seed=0
) -> PairDemands:
    """Helper: build PairDemands from plain lists."""
    volumes = np.asarray(volumes, dtype=np.float64)
    if qos is None:
        qos = np.full(volumes.size, 2, dtype=np.int8)
    kwargs = {}
    if with_endpoints:
        # Unique (src, dst) endpoint pairs: a demand d_k^i is *the* demand
        # of one endpoint pair, so pairs must not repeat.
        n = volumes.size
        side = int(np.ceil(np.sqrt(max(n, 1))))
        idx = np.arange(n)
        kwargs["src_endpoints"] = idx % side
        kwargs["dst_endpoints"] = 1000 + idx // side
    return PairDemands(volumes=volumes, qos=np.asarray(qos, dtype=np.int8), **kwargs)


@pytest.fixture()
def tiny_demands() -> DemandMatrix:
    """Demands on the tiny topology: 6 flows totalling 18 Gbps vs 20 Gbps."""
    return DemandMatrix(
        [
            make_pair_demands(
                [5.0, 4.0, 3.0, 3.0, 2.0, 1.0],
                qos=[1, 1, 2, 2, 3, 3],
                with_endpoints=True,
            )
        ]
    )


@dataclass
class ReferenceSolve:
    """Outcome of :func:`reference_solve`."""

    assignment: FlowAssignment
    satisfied_volume: float
    satisfied_by_class: dict[int, float]
    site_allocation: np.ndarray  # flat per-tunnel placed volume


def reference_solve(
    topology: TwoLayerTopology,
    demands: DemandMatrix,
    fastssp_epsilon: float = 0.1,
) -> ReferenceSolve:
    """The two-stage solve with no triage and no batching.

    Per QoS class in priority order: the stage-1 :class:`SiteFlowSolver`
    LP over the residual capacities, then the scalar per-pair
    :func:`~repro.core.pairfill.fill_pair` on *every* site pair, then
    the residual update.  It mirrors the defaults of
    :class:`MegaTEOptimizer` (class order, per-class tunnel attribute
    and LP epsilon, accumulation order), so the optimizer's triage plus
    batched kernel must reproduce it bit for bit.
    """
    problem = MaxAllFlowProblem(topology, demands)
    solver = SiteFlowSolver.for_topology(topology)
    offsets = solver.tunnel_offsets
    residual = problem.capacities.astype(np.float64).copy()
    table = demands.table
    assignment = FlowAssignment.rejecting_all(demands)
    combined = np.zeros(solver.num_tunnel_vars, dtype=np.float64)
    total = 0.0
    by_class: dict[int, float] = {}
    for qos in PRIORITY_ORDER:
        cls_idx = np.flatnonzero(table.qos == qos.value)
        cls_vol = table.volumes[cls_idx]
        seg = np.searchsorted(cls_idx, table.offsets)
        class_demands = np.array(
            [
                float(cls_vol[seg[k] : seg[k + 1]].sum())
                for k in range(solver.num_pairs)
            ]
        )
        if not np.any(class_demands > 0):
            continue
        attribute = MegaTEOptimizer.DEFAULT_CLASS_ATTRIBUTE[qos]
        if attribute == "weight":
            weights = None
            lp_epsilon = problem.effective_epsilon
        else:
            weights = solver.tunnel_attribute(attribute)
            max_w = float(weights.max())
            lp_epsilon = 0.3 / max_w if max_w > 0 else 0.0
        orders, _ = solver.fill_orders(attribute)
        alloc = solver.split(
            solver.solve_flat(
                class_demands,
                capacities=residual,
                tunnel_weights=weights,
                epsilon=lp_epsilon,
            )
        )
        placed_flat = np.zeros(solver.num_tunnel_vars, dtype=np.float64)
        satisfied = 0.0
        for k in range(solver.num_pairs):
            volumes = cls_vol[seg[k] : seg[k + 1]]
            assigned, placed = fill_pair(
                volumes, alloc.per_pair[k], orders[k], fastssp_epsilon
            )
            mask = assigned >= 0
            flows = cls_idx[seg[k] : seg[k + 1]]
            assignment.assigned_tunnel[flows[mask]] = assigned[mask]
            satisfied += float(volumes[mask].sum())
            combined[offsets[k] : offsets[k + 1]] += placed
            placed_flat[offsets[k] : offsets[k + 1]] = placed
        np.subtract.at(
            residual,
            solver.incidence_rows,
            placed_flat[solver.incidence_cols],
        )
        np.maximum(residual, 0.0, out=residual)
        total += satisfied
        by_class[qos.value] = satisfied
    return ReferenceSolve(assignment, total, by_class, combined)
