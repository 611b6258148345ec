"""MaxSiteFlow: the first-stage, site-level LP (paper Eq. 2).

After ``SiteMerge`` aggregates endpoint demands into per-site-pair demands
``D_k``, the first stage solves a classic multi-commodity flow LP over the
pre-established tunnels:

    max  Σ F_{k,t} − ε Σ w_t F_{k,t}
    s.t. Σ_t F_{k,t} ≤ D_k              (demand)
         Σ_{k,t} F_{k,t} L(t,e) ≤ c_e   (capacity)
         F_{k,t} ≥ 0

Solved with HiGHS via :func:`scipy.optimize.linprog` on sparse matrices —
the role Gurobi plays in the paper.

The LP's *structure* — variable offsets, the link-tunnel incidence, the
stacked constraint matrix — depends only on the topology, not on the
demands or residual capacities of a particular call.  The control loop
re-solves the same topology once per QoS class per TE interval, so
:class:`SiteFlowSolver` builds that scaffolding exactly once per topology
and reuses it across classes and intervals; per call only the objective
coefficients and the right-hand side change.  :func:`solve_max_site_flow`
remains as a thin compatibility wrapper over the cached solver.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..obs import get_registry, get_tracer
from .types import SiteAllocation

if TYPE_CHECKING:  # imported lazily to avoid a cycle with formulation
    from .formulation import MaxAllFlowProblem
    from ..topology.contraction import TwoLayerTopology

__all__ = ["SiteFlowSolver", "solve_max_site_flow", "max_concurrent_scale"]


#: Per-topology solver cache: id(topology) -> (weakref, solver).  The
#: weakref both validates the entry (id reuse after GC cannot alias a new
#: topology onto a stale solver) and lets dead topologies' entries be
#: purged.  The solver itself holds no strong reference to the topology.
_SOLVER_CACHE: dict[int, tuple[weakref.ref, "SiteFlowSolver"]] = {}
_SOLVER_CACHE_LOCK = threading.Lock()


def _purge_dead_entries_locked() -> None:
    """Drop cache entries whose topology has been collected.

    Called on every insert (with :data:`_SOLVER_CACHE_LOCK` held), so the
    cache never grows beyond live-topologies + 1 even under topology
    churn — dead ids must not linger until their exact id is reused.
    Deliberately *not* a weakref callback: callbacks can fire during any
    allocation, including while the lock is held, and the lock is not
    reentrant.
    """
    dead = [k for k, (ref, _) in _SOLVER_CACHE.items() if ref() is None]
    for k in dead:
        del _SOLVER_CACHE[k]


class SiteFlowSolver:
    """Persistent MaxSiteFlow scaffolding for one (immutable) topology.

    Built once per topology, then reused across QoS classes and TE
    intervals.  Cached here:

    * link indexing and the capacity vector;
    * flat ``(k, t)`` variable offsets and default tunnel weights;
    * the link-tunnel incidence ``L(t, e)`` in COO arrays *and* as a CSR
      matrix (for vectorized residual-capacity accounting);
    * the stacked LP constraint matrix (demand rows over capacity rows)
      in CSR form — the expensive part of each legacy solve call;
    * per-attribute flat tunnel values and per-pair fill orders, used by
      the second stage's tunnel-preference policies.

    Per :meth:`solve` call only the cost vector and ``b_ub`` are
    assembled, so a call is essentially one HiGHS invocation.  Results
    are bit-identical to building the matrices from scratch.

    The topology is assumed immutable once contracted (``Link`` is
    frozen; failure scenarios produce *new* topology objects), which is
    what makes the caching sound.
    """

    def __init__(self, topology: "TwoLayerTopology") -> None:
        with get_tracer().span("siteflow.build") as sp:
            self._build(topology)
            sp.set_attribute("num_pairs", self.num_pairs)
        #: Wall-clock spent building the scaffolding (observability).
        self.build_seconds = sp.duration_s
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "megate_siteflow_builds_total",
                "SiteFlowSolver scaffolding builds (cache misses)",
            ).inc()
            registry.histogram(
                "megate_siteflow_build_seconds",
                "Time to build the LP scaffolding for one topology",
            ).observe(self.build_seconds)

    def _build(self, topology: "TwoLayerTopology") -> None:
        catalog = topology.catalog
        self.catalog = catalog
        self.num_pairs = catalog.num_pairs
        self.link_index: dict[tuple[str, str], int] = {
            link.key: idx
            for idx, link in enumerate(topology.network.links)
        }
        self.capacities = np.array(
            [link.capacity for link in topology.network.links],
            dtype=np.float64,
        )
        counts = [
            len(catalog.tunnels(k)) for k in range(self.num_pairs)
        ]
        self.tunnel_offsets = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self.num_tunnel_vars = int(self.tunnel_offsets[-1])

        weights = np.empty(self.num_tunnel_vars, dtype=np.float64)
        rows: list[int] = []
        cols: list[int] = []
        pos = 0
        for k in range(self.num_pairs):
            for tunnel in catalog.tunnels(k):
                weights[pos] = tunnel.weight
                for key in tunnel.links:
                    rows.append(self.link_index[key])
                    cols.append(pos)
                pos += 1
        self.tunnel_weights = weights
        #: COO arrays of ``L(t, e)`` in build order (pair-major, then
        #: tunnel, then the tunnel's link sequence) — the exact order the
        #: residual-accounting update must apply subtractions in to stay
        #: bit-identical with per-tunnel bookkeeping.
        self.incidence_rows = np.asarray(rows, dtype=np.int64)
        self.incidence_cols = np.asarray(cols, dtype=np.int64)

        num_links = self.capacities.size
        num_vars = self.num_tunnel_vars
        if num_vars:
            demand_rows = np.repeat(
                np.arange(self.num_pairs), np.diff(self.tunnel_offsets)
            )
            demand_matrix = sparse.coo_matrix(
                (np.ones(num_vars), (demand_rows, np.arange(num_vars))),
                shape=(self.num_pairs, num_vars),
            )
            capacity_matrix = sparse.coo_matrix(
                (
                    np.ones(self.incidence_rows.size),
                    (self.incidence_rows, self.incidence_cols),
                ),
                shape=(num_links, num_vars),
            )
            #: The stacked LP constraint matrix, built once.
            self.constraint_matrix = sparse.vstack(
                [demand_matrix, capacity_matrix], format="csr"
            )
            #: ``L(t, e)`` as CSR (links × tunnels) for one-spmv loads.
            self.link_tunnel_matrix = capacity_matrix.tocsr()
        else:
            self.constraint_matrix = None
            self.link_tunnel_matrix = sparse.csr_matrix(
                (num_links, 0), dtype=np.float64
            )

        max_weight = float(weights.max()) if weights.size else 0.0
        #: The auto-scaled ε of objective (1): ``0.1 / max(w_t)``.
        self.default_epsilon = (
            0.1 / max_weight if max_weight > 0 else 0.0
        )
        self._attribute_cache: dict[str, np.ndarray] = {
            "weight": weights
        }
        self._fill_order_cache: dict[
            str, tuple[list[np.ndarray], np.ndarray]
        ] = {}
        self._incidence_col_bounds: np.ndarray | None = None

    @classmethod
    def for_topology(
        cls, topology: "TwoLayerTopology"
    ) -> "SiteFlowSolver":
        """The cached solver for a topology (built on first use)."""
        key = id(topology)
        with _SOLVER_CACHE_LOCK:
            entry = _SOLVER_CACHE.get(key)
            if entry is not None and entry[0]() is topology:
                return entry[1]
        solver = cls(topology)
        with _SOLVER_CACHE_LOCK:
            _purge_dead_entries_locked()
            _SOLVER_CACHE[key] = (weakref.ref(topology), solver)
        return solver

    def tunnel_attribute(self, attribute: str) -> np.ndarray:
        """Flat per-tunnel values of one attribute (cached)."""
        cached = self._attribute_cache.get(attribute)
        if cached is None:
            values = np.empty(self.num_tunnel_vars, dtype=np.float64)
            pos = 0
            for k in range(self.num_pairs):
                for tunnel in self.catalog.tunnels(k):
                    values[pos] = getattr(tunnel, attribute)
                    pos += 1
            self._attribute_cache[attribute] = cached = values
        return cached

    @property
    def incidence_col_bounds(self) -> np.ndarray:
        """Segment bounds of each tunnel column within the incidence.

        ``incidence_cols`` is non-decreasing (built pair-major, tunnel by
        tunnel), so tunnel ``c``'s link rows are
        ``incidence_rows[bounds[c]:bounds[c + 1]]`` — the lookup the
        delta fast path uses for per-tunnel link-headroom minima.
        """
        if self._incidence_col_bounds is None:
            self._incidence_col_bounds = np.searchsorted(
                self.incidence_cols, np.arange(self.num_tunnel_vars + 1)
            )
        return self._incidence_col_bounds

    def fill_orders(
        self, attribute: str
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-pair tunnel fill orders for one preference attribute.

        Returns:
            ``(orders, ordered_cols)``: for each pair ``k``,
            ``orders[k]`` is the stable ascending argsort of its tunnels'
            attribute values (the MaxEndpointFlow fill order), and
            ``ordered_cols`` is the flat column permutation whose slice
            ``offsets[k]:offsets[k+1]`` lists pair ``k``'s flat variable
            indices in that order.
        """
        cached = self._fill_order_cache.get(attribute)
        if cached is None:
            values = self.tunnel_attribute(attribute)
            offsets = self.tunnel_offsets
            orders = [
                np.argsort(
                    values[offsets[k] : offsets[k + 1]], kind="stable"
                )
                for k in range(self.num_pairs)
            ]
            if self.num_tunnel_vars:
                ordered_cols = np.concatenate(
                    [
                        offsets[k] + orders[k]
                        for k in range(self.num_pairs)
                    ]
                )
            else:
                ordered_cols = np.empty(0, dtype=np.int64)
            self._fill_order_cache[attribute] = cached = (
                orders,
                ordered_cols,
            )
        return cached

    def solve_flat(
        self,
        site_demands: np.ndarray,
        capacities: np.ndarray | None = None,
        tunnel_weights: np.ndarray | None = None,
        epsilon: float | None = None,
    ) -> np.ndarray:
        """Solve the LP and return the flat ``F_{k,t}`` vector.

        Args mirror :func:`solve_max_site_flow`; ``epsilon=None``
        auto-scales exactly the way the legacy function did.  One
        stateless ``linprog(method="highs")`` call, so the result
        depends only on the arguments.
        """
        site_demands = np.asarray(site_demands, dtype=np.float64)
        if site_demands.shape != (self.num_pairs,):
            raise ValueError(
                "site_demands must have one entry per site pair"
            )
        if np.any(site_demands < 0):
            raise ValueError("site demands must be non-negative")
        caps = self.capacities if capacities is None else capacities
        if caps.shape != self.capacities.shape:
            raise ValueError("capacities must align with the link index")
        num_vars = self.num_tunnel_vars
        if num_vars == 0:
            return np.empty(0, dtype=np.float64)
        weights = (
            self.tunnel_weights
            if tunnel_weights is None
            else tunnel_weights
        )
        if weights.shape != (num_vars,):
            raise ValueError(
                "tunnel_weights must have one entry per tunnel"
            )
        if epsilon is None:
            if tunnel_weights is None:
                eps = self.default_epsilon
            else:
                max_weight = float(weights.max()) if weights.size else 0.0
                eps = 0.1 / max_weight if max_weight > 0 else 0.0
        else:
            eps = epsilon
        cost = -(1.0 - eps * weights)
        b_ub = np.concatenate([site_demands, np.maximum(caps, 0.0)])
        with get_tracer().span("siteflow.lp_solve"):
            outcome = linprog(
                cost,
                A_ub=self.constraint_matrix,
                b_ub=b_ub,
                bounds=(0.0, None),
                method="highs",
            )
        if not outcome.success:
            raise RuntimeError(f"MaxSiteFlow LP failed: {outcome.message}")
        return np.maximum(outcome.x, 0.0)

    def split(self, flat: np.ndarray) -> SiteAllocation:
        """View a flat ``F_{k,t}`` vector as a :class:`SiteAllocation`."""
        if flat.size == 0:
            flat = np.zeros(self.num_tunnel_vars, dtype=np.float64)
        return SiteAllocation.from_flat(
            np.asarray(flat, dtype=np.float64).copy(),
            self.tunnel_offsets,
        )

    def solve(
        self,
        site_demands: np.ndarray,
        capacities: np.ndarray | None = None,
        tunnel_weights: np.ndarray | None = None,
        epsilon: float | None = None,
    ) -> SiteAllocation:
        """Solve the LP and return the allocation per site pair."""
        return self.split(
            self.solve_flat(
                site_demands,
                capacities=capacities,
                tunnel_weights=tunnel_weights,
                epsilon=epsilon,
            )
        )


def solve_max_site_flow(
    problem: MaxAllFlowProblem,
    site_demands: np.ndarray,
    capacities: np.ndarray | None = None,
    tunnel_weights: np.ndarray | None = None,
    epsilon: float | None = None,
) -> SiteAllocation:
    """Solve the MaxSiteFlow LP (compatibility wrapper).

    Thin shim over the per-topology :class:`SiteFlowSolver`; repeated
    calls on the same topology reuse its cached constraint matrices.

    Args:
        problem: The TE input (provides tunnels, weights, link incidence).
        site_demands: ``D_k`` per site pair — typically
            ``problem.demands.site_demands(qos)`` from ``SiteMerge``.
        capacities: Optional residual link capacities (aligned with
            ``problem.link_index``); defaults to the full capacities.
            The QoS priority loop passes shrinking residuals here.
        tunnel_weights: Optional override for ``w_t`` per flat tunnel
            variable — e.g. per-Gbps cost instead of latency when
            allocating bulk traffic.
        epsilon: Optional override for the objective's ε; defaults to
            ``0.1 / max(w)`` of the effective weights so the shortness
            term never dominates throughput.

    Returns:
        The optimal ``F_{k,t}`` as a :class:`SiteAllocation`.

    Raises:
        RuntimeError: if HiGHS fails (should not happen: the LP is always
            feasible, F = 0 works).
    """
    solver = SiteFlowSolver.for_topology(problem.topology)
    return solver.solve(
        np.asarray(site_demands, dtype=np.float64),
        capacities=capacities,
        tunnel_weights=tunnel_weights,
        epsilon=epsilon,
    )


def max_concurrent_scale(
    problem: MaxAllFlowProblem,
    site_demands: np.ndarray,
    capacities: np.ndarray | None = None,
) -> float:
    """Maximum concurrent-flow scale ``α*`` for a demand mix.

    Solves ``max α`` subject to every site pair carrying at least
    ``α · D_k`` over its tunnels within link capacities — the standard
    maximum concurrent flow LP.  ``α* · ΣD`` is the carriage capacity of
    the network *for this traffic mix*, which is what demand-load
    calibration needs (a plain max-flow overestimates it by abandoning
    unfavourable site pairs).

    Returns:
        ``α*`` (may exceed 1 when the network is underloaded); ``inf``
        when there is no demand.
    """
    catalog = problem.topology.catalog
    if site_demands.shape != (catalog.num_pairs,):
        raise ValueError("site_demands must have one entry per site pair")
    if np.any(site_demands < 0):
        raise ValueError("site demands must be non-negative")
    caps = problem.capacities if capacities is None else capacities
    num_vars = problem.num_tunnel_vars
    offsets = problem.tunnel_offsets
    active = np.flatnonzero(site_demands > 0)
    if num_vars == 0 or active.size == 0:
        return float("inf")

    # Variables: [F_{k,t} ..., alpha]; maximize alpha.
    cost = np.zeros(num_vars + 1)
    cost[-1] = -1.0

    # alpha * D_k - sum_t F_{k,t} <= 0 for demand-carrying pairs.
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for row, k in enumerate(active):
        for col in range(offsets[k], offsets[k + 1]):
            rows.append(row)
            cols.append(int(col))
            vals.append(-1.0)
        rows.append(row)
        cols.append(num_vars)
        vals.append(float(site_demands[k]))
    demand_matrix = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(active.size, num_vars + 1)
    )

    link_rows, link_cols = problem.tunnel_link_incidence()
    capacity_matrix = sparse.coo_matrix(
        (np.ones(link_rows.size), (link_rows, link_cols)),
        shape=(caps.size, num_vars + 1),
    )
    a_ub = sparse.vstack([demand_matrix, capacity_matrix], format="csr")
    b_ub = np.concatenate(
        [np.zeros(active.size), np.maximum(caps, 0.0)]
    )
    outcome = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, None),
        method="highs",
    )
    if not outcome.success:
        raise RuntimeError(
            f"max concurrent flow LP failed: {outcome.message}"
        )
    return float(outcome.x[-1])
