"""The MegaTE two-stage optimizer (paper Algorithm 1 + §4.1 QoS loop).

Per QoS class, in priority order:

1. **SiteMerge** — aggregate the class's endpoint demands to ``D_k``.
2. **MaxSiteFlow** — site-level LP over residual link capacities, yielding
   ``F_{k,t}``.
3. **MaxEndpointFlow** — per site pair, walk the tunnels in ascending
   weight and fill each tunnel's ``F_{k,t}`` with endpoint flows via
   :func:`~repro.core.fastssp.fast_ssp`; a flow lands on exactly one tunnel
   or is rejected.
4. Subtract the class's placed traffic from link capacities and move to the
   next class.

Interval hot path (§8 "Parallelism in SSP" + GATE/TEAL-style batching,
on CPU):

* Stage 1 reuses the per-topology :class:`SiteFlowSolver` — constraint
  matrices are built once per topology, not per class per interval.
* The interval state is columnar: the demand matrix's CSR
  :class:`~repro.core.flowtable.FlowTable` supplies flat ``volumes`` /
  ``qos`` columns, each QoS class is one mask + ``searchsorted`` over the
  offsets (no per-pair re-flattening), and the assignment / allocation
  are written through their flat vectors.
* Stage 2 first *triages* the site pairs in one vectorized comparison
  straight from the CSR segment bounds: a pair whose class demand fits
  entirely into its most-preferred positive allocation — the
  overwhelming majority in production — is resolved without touching
  FastSSP.  Only the contended residue runs the full sequential tunnel
  fill, all of a class's contended pairs at once through
  :func:`~repro.core.pairfill.fill_pairs` (one array-batched FastSSP
  kernel call per fill-order step — the paper's parallel per-pair SSPs
  as one array program).
* Residual-capacity accounting applies the class's placed volumes
  through the precomputed link-tunnel incidence in one
  ``np.subtract.at`` call — entry order matches the per-tunnel
  bookkeeping it replaces, so the update is bit-identical.

The batched fill is bit-identical to the scalar per-pair reference
:func:`~repro.core.pairfill.fill_pair` (property-tested);
``TEResult.stats["phase_s"]`` carries the per-phase timing breakdown.

Incremental mode (``incremental=True``) additionally threads state
across consecutive ``solve`` calls on the same topology and flow
population — the TE interval loop — patching the previous interval's
LP allocation under a demand-delta/headroom guard and warm-starting
contended second-stage pairs from their previous assignment; see
:mod:`repro.core.incremental` for the guards and the equivalence
contract (``delta_threshold=0.0`` is bit-exact with the cold path).
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ..obs import get_registry, get_tracer, monotonic
from .formulation import MaxAllFlowProblem
from .incremental import (
    ClassLPState,
    IncrementalState,
    patch_class_allocation,
)
from .pairfill import fill_pairs
from .qos import PRIORITY_ORDER, QoSClass
from .siteflow import SiteFlowSolver
from .types import (
    PHASE_KEYS,
    FlowAssignment,
    SiteAllocation,
    StatKey,
    TEResult,
)

if TYPE_CHECKING:  # imported lazily to avoid a core <-> traffic cycle
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["MegaTEOptimizer", "PHASE_KEYS"]


def _first_positive_columns(
    alloc_flat: np.ndarray,
    ordered_cols: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Per pair, the flat column of its first positive-allocation tunnel.

    "First" is in fill order (``ordered_cols`` lists each pair's flat
    variable indices in that order).  Returns -1 for pairs whose tunnels
    all received a zero allocation (or that have no tunnels).  One
    vectorized pass: a masked position array reduced per pair segment.
    """
    num_pairs = offsets.size - 1
    num_vars = alloc_flat.size
    first_cols = np.full(num_pairs, -1, dtype=np.int64)
    if num_vars == 0 or num_pairs == 0:
        return first_cols
    alloc_ordered = alloc_flat[ordered_cols]
    ordered_pos = np.where(
        alloc_ordered > 0.0, np.arange(num_vars), num_vars
    )
    # reduceat over the non-empty pairs only: their offsets are strictly
    # increasing and in range, and because empty pairs span no positions
    # each segment covers exactly one pair's tunnels.  (Clamping all
    # starts instead would truncate the last non-empty pair's segment
    # when trailing pairs — e.g. all-tunnels-dead pairs from a failure
    # scenario — are empty.)  Empty pairs keep the sentinel.
    nonempty = np.flatnonzero(np.diff(offsets) > 0)
    first = np.full(num_pairs, num_vars, dtype=np.int64)
    if nonempty.size:
        first[nonempty] = np.minimum.reduceat(
            ordered_pos, offsets[nonempty]
        )
    found = first < num_vars
    first_cols[found] = ordered_cols[first[found]]
    return first_cols


class MegaTEOptimizer:
    """Endpoint-granular TE via topology contraction and FastSSP.

    Args:
        fastssp_epsilon: Precision knob ``ε'`` of FastSSP (App. A.2).
        qos_order: Priority order of QoS classes; defaults to the paper's
            class 1 → 2 → 3.
        incremental: Carry solve state across consecutive
            :meth:`solve` calls on the same topology and flow
            population (the TE interval loop) — see
            :mod:`repro.core.incremental`.  ``False`` (default) solves
            every interval cold.
        delta_threshold: Per-pair relative demand-change bound for the
            LP delta fast path (``0.0`` = bit-exact reuse only, so the
            incremental run reproduces the cold digests exactly; a
            positive value also warm-starts contended second-stage
            pairs from the previous interval's assignment).  Must be
            ``>= 0`` in every mode.

    Each class's allocation prefers the tunnel attribute of
    :attr:`DEFAULT_CLASS_ATTRIBUTE` (the ``w_t`` of its MaxSiteFlow
    objective and the fill order of its MaxEndpointFlow stage): latency
    (``weight``) for classes 1-2 and per-Gbps cost for class 3 — §7's
    production policy: time-sensitive traffic takes the fast premium
    paths, bulk transfer is "accurately dispatched to the low-cost
    path".
    """

    scheme_name = "MegaTE"

    #: Per-class tunnel preference (see class docstring).
    DEFAULT_CLASS_ATTRIBUTE: dict[QoSClass, str] = {
        QoSClass.CLASS1: "weight",
        QoSClass.CLASS2: "weight",
        QoSClass.CLASS3: "cost_per_gbps",
    }

    def __init__(
        self,
        fastssp_epsilon: float = 0.1,
        qos_order: tuple[QoSClass, ...] = PRIORITY_ORDER,
        incremental: bool = False,
        delta_threshold: float = 0.0,
    ) -> None:
        if not 0 < fastssp_epsilon < 1:
            raise ValueError("fastssp_epsilon must be in (0, 1)")
        # Written as a negation so NaN is rejected too.
        if not delta_threshold >= 0:
            raise ValueError("delta_threshold must be >= 0")
        self.fastssp_epsilon = fastssp_epsilon
        self.qos_order = qos_order
        self.incremental = bool(incremental)
        self.delta_threshold = delta_threshold
        self._state: IncrementalState | None = None

    def reset_incremental_state(self) -> None:
        """Drop carried cross-interval state (next solve runs cold)."""
        self._state = None

    def close(self) -> None:
        """No-op: the optimizer holds no external resources.

        Kept, with the context-manager protocol, so callers written as
        ``with MegaTEOptimizer(...) as opt:`` or ending in ``close()``
        keep working.
        """

    def __enter__(self) -> "MegaTEOptimizer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def solve(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        """Compute the TE allocation for one interval.

        The whole solve runs under a ``te.solve`` span with one child
        span per phase (``te.phase.*``) — the same measurements that
        populate ``stats["phase_s"]``, so the trace and the stats dict
        can never disagree.  Telemetry never affects the result: the
        assignment is bit-identical with tracing on or off.

        Returns:
            A :class:`TEResult` whose assignment satisfies constraints
            (1a)-(1c): no link overloaded, at most one tunnel per flow.
            ``stats["phase_s"]`` breaks the runtime down by phase (see
            :data:`PHASE_KEYS`).
        """
        with get_tracer().span(
            "te.solve", scheme=self.scheme_name
        ) as span:
            result = self._solve_impl(topology, demands)
            span.set_attribute("num_flows", result.assignment.num_flows())
            span.set_attribute(
                "satisfied_fraction", result.satisfied_fraction
            )
        self._record_metrics(result)
        return result

    def _record_metrics(self, result: TEResult) -> None:
        """Fold one solve's diagnostics into the shared metrics registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        stats = result.stats
        registry.counter(
            "megate_solves_total", "TE interval solves completed"
        ).inc()
        pair_kinds = registry.counter(
            "megate_pairs_total",
            "Second-stage site pairs by triage outcome",
            labelnames=("kind",),
        )
        pair_kinds.labels(kind="uncontended").inc(
            stats[StatKey.NUM_UNCONTENDED_PAIRS]
        )
        pair_kinds.labels(kind="contended").inc(
            stats[StatKey.NUM_CONTENDED_PAIRS]
        )
        lp = registry.counter(
            "megate_lp_solves_total",
            "Stage-1 LP solves by outcome",
            labelnames=("outcome",),
        )
        lp.labels(outcome="solved").inc(stats[StatKey.LP_SOLVES])
        lp.labels(outcome="skipped").inc(stats[StatKey.LP_SOLVES_SKIPPED])
        reuse = registry.counter(
            "megate_incremental_reuse_total",
            "Incremental-engine fast paths taken",
            labelnames=("path",),
        )
        reuse.labels(path="delta_patch").inc(
            stats[StatKey.PAIRS_DELTA_PATCHED]
        )
        reuse.labels(path="ssp_state").inc(stats[StatKey.SSP_STATE_REUSED])
        phase_hist = registry.histogram(
            "megate_phase_seconds",
            "Per-interval solver phase durations",
            labelnames=("phase",),
        )
        for name, seconds in stats[StatKey.PHASE_S].items():
            phase_hist.labels(phase=name).observe(seconds)
        registry.histogram(
            "megate_solve_seconds", "Whole-interval solve duration"
        ).observe(result.runtime_s)
        registry.gauge(
            "megate_satisfied_fraction",
            "Satisfied demand fraction of the latest solve",
        ).set(result.satisfied_fraction)

    def _solve_impl(
        self, topology: TwoLayerTopology, demands: DemandMatrix
    ) -> TEResult:
        tracer = get_tracer()
        problem = MaxAllFlowProblem(topology, demands)
        start = monotonic()
        phase = dict.fromkeys(PHASE_KEYS, 0.0)
        with tracer.span("te.phase.matrix_build") as sp:
            solver = SiteFlowSolver.for_topology(topology)
        phase[StatKey.PHASE_MATRIX_BUILD] = sp.duration_s
        offsets = solver.tunnel_offsets
        num_pairs = solver.num_pairs
        if demands.num_site_pairs != num_pairs:
            raise ValueError(
                f"demand matrix has {demands.num_site_pairs} site pairs, "
                f"catalog has {num_pairs}"
            )

        residual = problem.capacities.astype(np.float64).copy()
        # Columnar interval state: the demand table's flat columns and the
        # flat assignment / allocation vectors every phase reads + writes.
        table = demands.table
        d_offsets = table.offsets
        flat_volumes = table.volumes
        flat_qos = table.qos
        assignment = FlowAssignment.rejecting_all(demands)
        assigned_flat = assignment.assigned_tunnel
        combined = SiteAllocation.from_flat(
            np.zeros(solver.num_tunnel_vars, dtype=np.float64), offsets
        )
        combined_values = combined.values
        satisfied = 0.0
        stage1_s = 0.0
        stage2_s = 0.0
        num_uncontended = 0
        num_contended = 0
        per_class_satisfied: dict[int, float] = {}

        # Incremental mode: revalidate the carried state against this
        # interval's topology and flow population; a mismatch solves
        # cold and re-seeds the state.
        state: IncrementalState | None = None
        carried = False
        if self.incremental:
            if self._state is None:
                self._state = IncrementalState()
            state = self._state
            carried = state.revalidate(topology, demands)
        lp_solves = 0
        lp_solves_skipped = 0
        pairs_delta_patched = 0
        ssp_state_reused = 0
        ssp_batch_phase: dict[str, float] = {}

        for qos in self.qos_order:
            # SiteMerge, columnar: one mask over the flat qos column gives
            # the class's global flow indices; ``searchsorted`` against
            # the CSR offsets recovers each pair's segment.  ``cls_vol``
            # gathers the class volumes once — triage, the pair solves,
            # and the scatter all slice it instead of re-flattening.
            cls_idx = np.flatnonzero(flat_qos == qos.value)
            cls_vol = flat_volumes[cls_idx]
            seg = np.searchsorted(cls_idx, d_offsets)
            # Per-pair sums (not one reduceat) so each D_k is bit-identical
            # to the legacy per-pair ``volumes.sum()`` feeding the LP.
            class_demands = np.array(
                [
                    float(cls_vol[seg[k] : seg[k + 1]].sum())
                    for k in range(num_pairs)
                ]
            )
            if not np.any(class_demands > 0):
                continue

            # Stage 1 under one span; the span renames itself to the
            # ``delta_patch`` phase when the fast path absorbed the LP.
            with tracer.span("te.phase.lp_solve", qos=qos.value) as sp:
                attribute = self.DEFAULT_CLASS_ATTRIBUTE.get(qos, "weight")
                # Overridden weights (e.g. cost for bulk) get a stronger
                # ε so the LP actively steers toward preferred tunnels;
                # throughput still dominates (coefficients stay >= 0.7).
                if attribute == "weight":
                    class_weights = None
                    class_epsilon: float | None = problem.effective_epsilon
                else:
                    class_weights = solver.tunnel_attribute(attribute)
                    class_epsilon = None
                    if class_weights.size:
                        max_w = float(class_weights.max())
                        class_epsilon = 0.3 / max_w if max_w > 0 else 0.0
                orders, ordered_cols = solver.fill_orders(attribute)
                population_same = (
                    state.sync_class_population(qos.value, cls_idx)
                    if state is not None
                    else False
                )
                residual_in = (
                    residual.copy() if state is not None else None
                )
                alloc_flat = None
                if state is not None and carried:
                    cls_state = state.lp.get(qos.value)
                    if cls_state is not None:
                        patch = patch_class_allocation(
                            solver,
                            cls_state,
                            class_demands,
                            residual,
                            ordered_cols,
                            self.delta_threshold,
                        )
                        if patch.alloc is not None:
                            alloc_flat = patch.alloc
                            lp_solves_skipped += 1
                            pairs_delta_patched += patch.pairs_patched
                patched = alloc_flat is not None
                if not patched:
                    alloc_flat = solver.solve_flat(
                        class_demands,
                        capacities=residual,
                        tunnel_weights=class_weights,
                        epsilon=class_epsilon,
                    )
                    lp_solves += 1
                else:
                    sp.name = "te.phase.delta_patch"
                site_alloc = solver.split(alloc_flat)
            dt = sp.duration_s
            stage1_s += dt
            phase[
                StatKey.PHASE_DELTA_PATCH
                if patched
                else StatKey.PHASE_LP_SOLVE
            ] += dt
            placed_flat = np.zeros(solver.num_tunnel_vars)
            contrib: dict[int, float] = {}

            # Triage, columnar: a pair whose whole class demand fits its
            # first positive-allocation tunnel needs no FastSSP.
            # Candidates (non-empty class segment, some positive
            # allocation) and the fits/contended split come straight from
            # the CSR segment bounds — no per-instance objects.  The
            # SiteMerge sums are the totals, so the split is bit-identical
            # to summing each pair's volumes.
            with tracer.span("te.phase.triage", qos=qos.value) as sp:
                first_cols = _first_positive_columns(
                    alloc_flat, ordered_cols, offsets
                )
                candidates = np.flatnonzero(
                    (seg[1:] > seg[:-1]) & (first_cols >= 0)
                )
                fits_mask = (
                    class_demands[candidates]
                    <= alloc_flat[first_cols[candidates]]
                )
                fits_pos = np.flatnonzero(fits_mask)
                contended_pos = np.flatnonzero(~fits_mask)
            dt = sp.duration_s
            stage2_s += dt
            phase[StatKey.PHASE_TRIAGE] += dt

            # Uncontended pairs: everything rides the preferred tunnel;
            # scatter the select-all results directly into the flat
            # assignment / allocation vectors.
            for k in candidates[fits_pos]:
                col = first_cols[k]
                t_local = int(col - offsets[k])
                total = class_demands[k]
                assigned_flat[cls_idx[seg[k] : seg[k + 1]]] = t_local
                combined_values[col] += total
                placed_flat[col] += total
                contrib[int(k)] = float(total)
                num_uncontended += 1

            with tracer.span(
                "te.phase.contended_ssp", qos=qos.value
            ) as sp:
                contended_ks = [int(k) for k in candidates[contended_pos]]
                # Carried second-stage state: each contended pair's
                # previous assignment is re-validated against the new
                # volumes and allocation, and pairs whose warm fill lands
                # within the FastSSP precision target skip the cold
                # solve.  Only sound when the class's flow population is
                # unchanged (the assignment indexes flow positions) and
                # disabled at threshold 0 to keep the bit-exactness
                # contract.
                warm_active = (
                    state is not None
                    and carried
                    and population_same
                    and self.delta_threshold > 0.0
                )
                filled = fill_pairs(
                    [cls_vol[seg[k] : seg[k + 1]] for k in contended_ks],
                    [site_alloc.per_pair[k] for k in contended_ks],
                    [orders[k] for k in contended_ks],
                    self.fastssp_epsilon,
                    prev_assigned=(
                        [
                            state.ssp_assigned.get((qos.value, k))
                            for k in contended_ks
                        ]
                        if warm_active
                        else None
                    ),
                    phase_out=ssp_batch_phase,
                )
                ssp_state_reused += sum(warm for _, _, warm in filled)
                sp.set_attribute("num_pairs", len(filled))
            dt = sp.duration_s
            stage2_s += dt
            phase[StatKey.PHASE_CONTENDED_SSP] += dt
            num_contended += len(filled)

            for k, (assigned_k, placed_k, _) in zip(contended_ks, filled):
                idx = cls_idx[seg[k] : seg[k + 1]]
                volumes = cls_vol[seg[k] : seg[k + 1]]
                mask = assigned_k >= 0
                assigned_flat[idx[mask]] = assigned_k[mask]
                contrib[k] = float(volumes[mask].sum())
                combined_values[offsets[k] : offsets[k + 1]] += placed_k
                placed_flat[offsets[k] : offsets[k + 1]] = placed_k

            if state is not None:
                state.lp[qos.value] = ClassLPState(
                    demands=class_demands,
                    alloc_flat=alloc_flat.copy(),
                    residual_in=residual_in,
                )
                for k, (assigned_k, _, _) in zip(contended_ks, filled):
                    state.ssp_assigned[(qos.value, k)] = assigned_k

            # Accumulate in pair order so the float sum matches the
            # reference loop bit for bit.
            class_satisfied = 0.0
            for k in sorted(contrib):
                class_satisfied += contrib[k]

            # Consume residual capacity on the links each tunnel uses:
            # one unbuffered scatter-subtract through the precomputed
            # incidence, applied in the same entry order as per-tunnel
            # bookkeeping (hence bit-identical to it).
            with tracer.span(
                "te.phase.residual_update", qos=qos.value
            ) as sp:
                np.subtract.at(
                    residual,
                    solver.incidence_rows,
                    placed_flat[solver.incidence_cols],
                )
                np.maximum(residual, 0.0, out=residual)
            phase[StatKey.PHASE_RESIDUAL_UPDATE] += sp.duration_s

            satisfied += class_satisfied
            per_class_satisfied[qos.value] = class_satisfied

        runtime = monotonic() - start
        return TEResult(
            scheme=self.scheme_name,
            assignment=assignment,
            demands=demands,
            satisfied_volume=satisfied,
            runtime_s=runtime,
            site_allocation=combined,
            stats={
                StatKey.STAGE1_LP_S: stage1_s,
                StatKey.STAGE2_SSP_S: stage2_s,
                StatKey.FASTSSP_EPSILON: self.fastssp_epsilon,
                StatKey.SATISFIED_BY_CLASS: per_class_satisfied,
                StatKey.PHASE_S: phase,
                StatKey.NUM_UNCONTENDED_PAIRS: num_uncontended,
                StatKey.NUM_CONTENDED_PAIRS: num_contended,
                StatKey.LP_SOLVES: lp_solves,
                StatKey.LP_SOLVES_SKIPPED: lp_solves_skipped,
                StatKey.PAIRS_DELTA_PATCHED: pairs_delta_patched,
                StatKey.SSP_STATE_REUSED: ssp_state_reused,
                StatKey.INCREMENTAL: self.incremental,
                StatKey.SSP_BATCH_PHASE_S: ssp_batch_phase,
            },
        )
