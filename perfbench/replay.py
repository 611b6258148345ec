"""Replay workloads: a closed loop of cold TE epochs, published and pulled.

One epoch is what MegaTE's controller does every TE interval (PAPER
§3.1-3.2): build the interval's demand matrix, solve it with a cold
default :class:`MegaTEOptimizer` (site LP, then FastSSP per contended
site pair), publish every changed endpoint config to the TE database
under a new version, let a fixed seeded sample of endpoint agents pull,
then realize the allocation (flow simulation and latency).  Epochs run
back to back; each starts when the previous one returns.

The TE database is the paper's deployment: 2 shards of
``SHARD_CAPACITY_QPS`` with capacity enforced.  ``TEController.publish``
stamps every write of one publish with the same simulated second, so at
a million endpoints the bootstrap publish exceeds 160k writes in one
second and raises ``QueryRejected``; the set-up records that and the
warm-up epoch writes the rest.

Checks on every epoch, outside the timed epoch: ``check_feasibility`` on
the benchmark's copy of the result, a repeat digest (an interval solved
again must give the same assignment), the sampled agents' installed
paths and version against what publish wrote, and once per run the
pinned digest of the default-seed sequence.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.controlplane import EndpointAgent, TEController, TEDatabase
from repro.controlplane.database import SHARD_CAPACITY_QPS, SyncError
from repro.core import MegaTEOptimizer
from repro.core.types import FlowAssignment, TEResult, check_feasibility
from repro.experiments.common import build_scenario
from repro.obs import get_tracer, monotonic
from repro.simulation import compute_flow_latencies, simulate
from repro.traffic import DiurnalSequence

from .measure import (
    Ledger,
    Metric,
    mean,
    median_metric,
    peak_rss_mb,
    percentile_metric,
    tail_metric,
    trace_metrics,
)
from .solver import solve_metrics

#: Simulated seconds between TE epochs (the paper's 5-minute interval).
INTERVAL_S = 300.0

#: Agents spread their polls over this window after a publish (§3.2).
POLL_WINDOW_S = 10.0

#: Layer spans the benchmark opens inside one epoch, in call order.
EPOCH_LAYERS = (
    "traffic.matrix",
    "core.solve",
    "controlplane.publish",
    "controlplane.pull",
    "simulation.flowsim",
    "simulation.latency",
)


@dataclass(frozen=True)
class ReplayConfig:
    """One replay workload.

    Attributes:
        name: Workload name.
        total_endpoints: TWAN endpoint-layer size.
        target_load: Offered load relative to carriage capacity.
        flat: Use the columnar trace generator (million scale).
        intervals: Epochs cycle over the first ``intervals`` intervals
            of the diurnal sequence; the pinned digest covers them.
        pinned_digest: SHA-256 over those intervals' assignments at
            ``default_seed`` (``None``: repeat digests only).
        default_seed: Diurnal sequence seed of the pinned digest.
        scenario_seed: Topology, endpoint layout and base trace seed;
            fixed, so every workload seed replays the same network.
        num_site_pairs: Demand-carrying site pairs.
        agents: Size of the sampled source-endpoint agent fleet.
        setup_repeats: Set-ups per run; ``setup_s`` is their median.
    """

    name: str
    total_endpoints: int
    target_load: float
    flat: bool
    intervals: int
    pinned_digest: str | None
    setup_repeats: int
    default_seed: int = 5
    scenario_seed: int = 42
    num_site_pairs: int = 60
    agents: int = 1000


def snapshot_result(result: TEResult) -> TEResult:
    """The benchmark's own copy of a result, which every check reads."""
    assignment = result.assignment
    return dataclasses.replace(
        result,
        assignment=FlowAssignment.from_flat(
            assignment.assigned_tunnel.copy(), assignment.offsets
        ),
    )


def assignment_bytes(result: TEResult) -> bytes:
    """What the replay digest hashes: the flat assignment array."""
    return np.ascontiguousarray(result.assignment.assigned_tunnel).tobytes()


class AgentFleet:
    """A fixed, seeded sample of source-endpoint agents.

    Tracks what ``TEController.publish`` must have written for each
    sampled endpoint, mirroring its rules: only flows with a tunnel on a
    pair that carries endpoint ids are published, later flows overwrite
    earlier ones for the same destination, and an endpoint with nothing
    to publish keeps its previous config.
    """

    def __init__(self, scenario, size: int, seed: int) -> None:
        table = scenario.demands.table
        pair_of_flow = table.pair_ids()
        publishable = table.has_endpoints[pair_of_flow]
        sources = np.unique(table.src_endpoints[publishable])
        rng = np.random.default_rng(seed)
        chosen = np.sort(
            rng.choice(sources, size=min(size, sources.size), replace=False)
        )
        self.num_sources = int(sources.size)
        step = POLL_WINDOW_S / max(1, chosen.size)
        self.agents = [
            EndpointAgent(endpoint_id=int(e), poll_offset_s=i * step)
            for i, e in enumerate(chosen)
        ]
        self.flows = np.flatnonzero(
            publishable & np.isin(table.src_endpoints, chosen)
        )
        self._src = table.src_endpoints[self.flows].tolist()
        self._dst = table.dst_endpoints[self.flows].tolist()
        self._pair = pair_of_flow[self.flows].tolist()
        catalog = scenario.topology.catalog
        self._paths = {
            k: [t.path for t in catalog.tunnels(k)] for k in set(self._pair)
        }
        self.expected: dict[int, dict[int, tuple[str, ...]]] = {
            int(e): {} for e in chosen
        }

    def poll_all(self, database: TEDatabase, now: float) -> tuple[int, list]:
        """Every agent polls once, spread over the window after ``now``."""
        installs = 0
        errors = []
        for agent in self.agents:
            try:
                installs += agent.poll(
                    database, now + 1.0 + agent.poll_offset_s
                )
            except SyncError as exc:
                errors.append((agent.endpoint_id, exc))
        return installs, errors

    def published(self, result: TEResult, written: int | None = None) -> None:
        """Record what a publish of ``result`` wrote.

        Args:
            written: For a first publish that failed part way, the
                number of configs it wrote before failing.  Publish
                writes endpoints in the order their first publishable
                flow appears, so exactly the first ``written`` of them
                hold this result's paths.
        """
        assigned = result.assignment.assigned_tunnel[self.flows].tolist()
        fresh: dict[int, dict[int, tuple[str, ...]]] = {}
        for src, dst, k, t in zip(self._src, self._dst, self._pair, assigned):
            if t >= 0:
                fresh.setdefault(src, {})[dst] = self._paths[k][t]
        if written is not None:
            table = result.demands.table
            publishable = (result.assignment.assigned_tunnel >= 0) & (
                table.has_endpoints[table.pair_ids()]
            )
            sources, first = np.unique(
                table.src_endpoints[publishable], return_index=True
            )
            done = set(sources[np.argsort(first)[:written]].tolist())
            fresh = {e: p for e, p in fresh.items() if e in done}
        self.expected.update(fresh)

    def mismatches(self, version: int) -> list[str]:
        """Agents whose installed version or paths differ from publish."""
        out = []
        for agent in self.agents:
            if agent.local_version != version:
                out.append(
                    f"agent {agent.endpoint_id}: version "
                    f"{agent.local_version} != published {version}"
                )
            elif agent.paths != self.expected[agent.endpoint_id]:
                out.append(
                    f"agent {agent.endpoint_id}: installed paths differ "
                    "from the published config"
                )
        return out


@dataclass
class Epoch:
    """What one epoch produced, for the checks and the metrics."""

    epoch: int
    interval: int
    result: TEResult | None
    wall_s: float
    solve_s: float
    config_ready_s: float
    publish_error: SyncError | None
    poll_errors: list
    installs: int
    writes: int
    queries: int
    offered: float
    offered_q1: float
    delivered: float
    qos1_delivered: float
    stats: dict | None
    traced: bool
    verify_s: float = 0.0


class ReplayRun:
    """Set-up, epochs and checks of one replay workload in one process."""

    def __init__(self, cfg: ReplayConfig, seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.ledger = Ledger()
        self.digests: dict[int, bytes] = {}
        self.tracer = get_tracer()

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Build, bootstrap-publish and warm up; returns the seconds taken."""
        cfg = self.cfg
        self.known_setup: list[str] = []
        with self.tracer.span("bench.setup") as span:
            with self.tracer.span("traffic.scenario_build") as build:
                self.scenario = build_scenario(
                    "twan",
                    total_endpoints=cfg.total_endpoints,
                    num_site_pairs=cfg.num_site_pairs,
                    target_load=cfg.target_load,
                    seed=cfg.scenario_seed,
                    flat=cfg.flat,
                )
            self.topology = self.scenario.topology
            self._qos1 = self.scenario.demands.table.qos == 1
            self.sequence = DiurnalSequence(
                base=self.scenario.demands, seed=self.seed
            )
            self.database = TEDatabase(
                num_shards=2,
                shard_capacity_qps=SHARD_CAPACITY_QPS,
                enforce_capacity=True,
            )
            self.controller = TEController(self.database)
            self.fleet = AgentFleet(self.scenario, cfg.agents, self.seed)
            # Bootstrap: every source endpoint's config, at t = 0.
            optimizer = MegaTEOptimizer()
            bootstrap = optimizer.solve(
                self.topology, self.sequence.matrix(0)
            )
            optimizer.close()
            try:
                self.controller.publish(self.topology, bootstrap, now=0.0)
            except SyncError as exc:
                written = self.database.total_queries()
                self.known_setup.append(
                    f"bootstrap publish raised {type(exc).__name__} "
                    f"({exc}) after {written} accepted writes"
                )
                self.fleet.published(bootstrap, written=written)
            else:
                self.fleet.published(bootstrap)
            self.warmup = self.epoch(-1, now=INTERVAL_S)
        self.scenario_build_s = build.duration_s
        return span.duration_s

    def setup_repeated(self) -> list[float]:
        """Set up ``setup_repeats`` times, keeping the last; check it."""
        times = []
        for _ in range(self.cfg.setup_repeats):
            # Drop the previous set-up before building the next one.
            self.scenario = self.fleet = self.database = None
            self.controller = self.sequence = self.warmup = None
            gc.collect()
            times.append(self.setup())
        self.ledger.known.extend(self.known_setup)
        self.check(self.warmup)
        return times

    # -- one epoch ------------------------------------------------------------

    def epoch(self, index: int, now: float) -> Epoch:
        """One controller epoch: matrix, solve, publish, pull, realize."""
        tracer = self.tracer
        interval = index % self.cfg.intervals
        queries0 = self.database.total_queries()
        result = None
        publish_error = None
        poll_errors: list = []
        installs = writes = 0
        solve_s = config_ready_s = 0.0
        with tracer.span("bench.epoch", epoch=index) as ep:
            with tracer.span("traffic.matrix", epoch=index):
                demands = self.sequence.matrix(interval)
            optimizer = MegaTEOptimizer()
            try:
                with tracer.span("core.solve", epoch=index) as solve:
                    result = optimizer.solve(self.topology, demands)
            except Exception as exc:  # a failing solve must not end the run
                self.ledger.fail(
                    f"epoch {index}: solve raised {type(exc).__name__}: {exc}"
                )
            finally:
                optimizer.close()
            if result is not None:
                solve_s = solve.duration_s
                with tracer.span(
                    "controlplane.publish", epoch=index
                ) as publish:
                    try:
                        self.controller.publish(
                            self.topology, result, now=now
                        )
                    except SyncError as exc:
                        publish_error = exc
                config_ready_s = publish.end_s - ep.start_s
                writes = self.controller.last_publish_writes
                with tracer.span("controlplane.pull", epoch=index):
                    installs, poll_errors = self.fleet.poll_all(
                        self.database, now
                    )
                with tracer.span("simulation.flowsim", epoch=index):
                    sim = simulate(self.topology, result)
                with tracer.span("simulation.latency", epoch=index):
                    compute_flow_latencies(
                        self.topology,
                        result,
                        metric="ms",
                        congestion_aware=True,
                    )
        offered = offered_q1 = delivered = qos1_delivered = 0.0
        if result is not None:
            volumes = result.demands.table.volumes
            fractions = np.concatenate(sim.flow_delivery)
            offered = float(volumes.sum())
            offered_q1 = float(volumes[self._qos1].sum())
            delivered = sim.delivered_volume
            qos1_delivered = float(
                (volumes[self._qos1] * fractions[self._qos1]).sum()
            )
        return Epoch(
            epoch=index,
            interval=interval,
            result=result,
            wall_s=ep.duration_s,
            solve_s=solve_s,
            config_ready_s=config_ready_s,
            publish_error=publish_error,
            poll_errors=poll_errors,
            installs=installs,
            writes=writes,
            queries=self.database.total_queries() - queries0,
            offered=offered,
            offered_q1=offered_q1,
            delivered=delivered,
            qos1_delivered=qos1_delivered,
            stats=None if result is None else result.stats,
            traced=tracer.enabled,
        )

    # -- checks ---------------------------------------------------------------

    def check(self, ep: Epoch) -> None:
        """Count the epoch's operations and failures.

        Operations: the solve, the publish, and one pull per sampled
        agent.  The solve fails when it raised (already counted), fails
        ``check_feasibility``, or breaks the interval's repeat digest;
        the publish fails on ``SyncError``; a pull fails on
        ``SyncError`` or when the agent's installed version or paths
        differ from what publish wrote.
        """
        ledger = self.ledger
        ledger.attempt(2 + len(self.fleet.agents))
        if ep.result is None:
            return
        copy = snapshot_result(ep.result)
        with self.tracer.span("core.verify", epoch=ep.epoch) as verify:
            report = check_feasibility(self.topology, copy)
        ep.verify_s = verify.duration_s
        digest = hashlib.sha256(assignment_bytes(copy)).digest()
        reference = self.digests.setdefault(ep.interval, digest)
        if not report.feasible:
            ledger.fail(
                f"epoch {ep.epoch}: infeasible solve "
                f"(max overload {report.max_overload:.3g})"
            )
        elif digest != reference:
            ledger.fail(
                f"epoch {ep.epoch}: interval {ep.interval} repeat digest "
                "changed"
            )
        if ep.publish_error is not None:
            ledger.fail(
                f"epoch {ep.epoch}: publish raised "
                f"{type(ep.publish_error).__name__}: {ep.publish_error}"
            )
        else:
            self.fleet.published(copy)
        for endpoint, exc in ep.poll_errors:
            ledger.fail(
                f"epoch {ep.epoch}: agent {endpoint} poll raised "
                f"{type(exc).__name__}: {exc}"
            )
        for message in self.fleet.mismatches(self.controller.current_version):
            ledger.fail(f"epoch {ep.epoch}: {message}")

    def check_pinned(self) -> str:
        """Re-solve the default-seed sequence and compare its digest."""
        cfg = self.cfg
        if cfg.pinned_digest is None:
            return "none pinned"
        self.ledger.attempt()
        sequence = DiurnalSequence(
            base=self.scenario.demands, seed=cfg.default_seed
        )
        digest = hashlib.sha256()
        for interval in range(cfg.intervals):
            optimizer = MegaTEOptimizer()
            result = optimizer.solve(self.topology, sequence.matrix(interval))
            optimizer.close()
            digest.update(assignment_bytes(result))
        got = digest.hexdigest()
        if got != cfg.pinned_digest:
            self.ledger.fail(
                f"pinned digest {got[:8]}... != {cfg.pinned_digest[:8]}... "
                f"(seed {cfg.default_seed}, {cfg.intervals} intervals)"
            )
            return f"MISMATCH {got}"
        return f"ok {got[:8]}..."


def layer_of(chain) -> str:
    """An epoch span's layer: the innermost benchmark layer span above it."""
    for span in reversed(chain[1:]):
        if span.name in EPOCH_LAYERS:
            return span.name
    return chain[1].name


def run_replay(cfg: ReplayConfig, seed: int, seconds: float, trace: bool):
    """Run one replay workload; returns ``(metrics, ledger, details)``.

    With ``trace`` the tracer collects spans on even epochs only; odd
    epochs run untraced, so the same run measures the trace overhead.
    """
    tracer = get_tracer()
    tracer.reset()
    run = ReplayRun(cfg, seed)
    setup_times = run.setup_repeated()

    epochs: list[Epoch] = []
    deadline = monotonic() + seconds
    while not epochs or monotonic() < deadline:
        index = len(epochs)
        tracer.enabled = trace and index % 2 == 0
        ep = run.epoch(index, now=INTERVAL_S * (index + 2))
        tracer.enabled = False
        run.check(ep)
        ep.result = None  # the metrics need only the epoch's numbers
        epochs.append(ep)
    pinned = run.check_pinned()

    done = [e for e in epochs if e.stats is not None]
    epoch_ms = [1e3 * e.wall_s for e in epochs]
    solve_ms = [1e3 * e.solve_s for e in done]
    flows = run.scenario.num_flows
    metrics: dict[str, Metric] = {
        "setup_s": median_metric(setup_times, "s"),
        "epoch_ms.p50": median_metric(epoch_ms, "ms"),
        "epoch_ms.tail": tail_metric(epoch_ms, "ms"),
        "solve_ms.p50": median_metric(solve_ms, "ms"),
        "solve_ms.p90": percentile_metric(solve_ms, "ms", 90),
        "solve_ms.tail": tail_metric(solve_ms, "ms"),
        "config_ready_ms.p50": median_metric(
            [1e3 * e.config_ready_s for e in done], "ms"
        ),
        "flows_per_s": Metric(
            flows * len(epochs) / sum(e.wall_s for e in epochs),
            "flows/s",
            n=len(epochs),
        ),
        "satisfied_fraction": Metric(
            sum(e.delivered for e in done) / sum(e.offered for e in done),
            "share",
            n=len(done),
        ),
        "qos1_fraction": Metric(
            sum(e.qos1_delivered for e in done)
            / sum(e.offered_q1 for e in done),
            "share",
            n=len(done),
        ),
        "failed_fraction": Metric(
            run.ledger.failed_fraction, "share", n=run.ledger.attempted
        ),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
    }
    details = {
        "flows": flows,
        "endpoints": run.scenario.num_endpoints,
        "source_endpoints": run.fleet.num_sources,
        "sampled_agents": len(run.fleet.agents),
        "epochs": len(epochs),
        "pinned_digest": pinned,
        "setup_s": setup_times,
        "epoch_ms": epoch_ms,
        "solve_ms": solve_ms,
    }
    if trace:
        spans = tracer.finished_spans()
        metrics.update(
            _layer_metrics(run, [e for e in epochs if e.traced], spans)
        )
        shares, details["layers"] = trace_metrics(
            spans,
            "bench.epoch",
            layer_of,
            missing_layer="the replay loop between layer calls "
            "(optimizer construction and close)",
            traced_s=[e.wall_s for e in epochs if e.traced],
            untraced_s=[e.wall_s for e in epochs if not e.traced],
        )
        metrics.update(shares)
    return metrics, run.ledger, details


def _layer_metrics(run: ReplayRun, traced: list[Epoch], spans):
    """Per-layer metrics of the traced epochs (spans + solver stats)."""
    epoch_ids = {s.span_id for s in spans if s.name == "bench.epoch"}
    per_layer: dict[str, float] = dict.fromkeys(EPOCH_LAYERS, 0.0)
    for span in spans:
        if span.name in per_layer and span.parent_id in epoch_ids:
            per_layer[span.name] += span.duration_s
    n = len(traced)
    writes = mean(e.writes for e in traced)
    database = run.database
    out: dict[str, Metric] = {
        "traffic.scenario_build_s": Metric(run.scenario_build_s, "s"),
        "traffic.matrix_ms": Metric(
            1e3 * per_layer["traffic.matrix"] / n, "ms", n=n
        ),
        "controlplane.publish_ms": Metric(
            1e3 * per_layer["controlplane.publish"] / n, "ms", n=n
        ),
        "controlplane.pull_ms": Metric(
            1e3 * per_layer["controlplane.pull"] / n, "ms", n=n
        ),
        "controlplane.config_writes": Metric(writes, "count", n=n),
        "controlplane.write_share": Metric(
            writes / run.fleet.num_sources, "share", n=n
        ),
        "controlplane.installs": Metric(
            mean(e.installs for e in traced), "count", n=n
        ),
        "controlplane.db_queries": Metric(
            mean(e.queries for e in traced), "count", n=n
        ),
        "controlplane.db_rejected": Metric(
            sum(
                database.stats(s).rejected
                for s in range(database.num_shards)
            ),
            "count",
            note="per run, set-up included",
        ),
        "simulation.flowsim_ms": Metric(
            1e3 * per_layer["simulation.flowsim"] / n, "ms", n=n
        ),
        "simulation.latency_ms": Metric(
            1e3 * per_layer["simulation.latency"] / n, "ms", n=n
        ),
        "simulation.shed_volume": Metric(0.0, "Gbps", note="no admission"),
        "simulation.solves_full": Metric(1.0, "count", n=n),
        "simulation.solves_delta": Metric(0.0, "count", n=n),
        "simulation.noop_epochs": Metric(0.0, "count", n=n),
    }
    done = [e for e in traced if e.stats is not None]
    out.update(
        solve_metrics(
            [e.stats for e in done],
            [e.solve_s for e in done],
            [e.verify_s for e in done],
        )
    )
    return out
