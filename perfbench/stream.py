"""Stream workload: the online control loop under a flash crowd.

``run_stream`` owns its loop, so the benchmark times it from outside
through the objects it passes in:

* :class:`TimedOptimizer` wraps the ``MegaTEOptimizer`` and times each
  ``solve`` call (a ``core.solve`` span);
* :class:`TimedAdmission` is an ``AdmissionController`` whose ``admit``
  is timed (a ``simulation.admission`` span);
* :class:`TickClock` is passed as the predictor.  It forecasts nothing
  (``predict`` returns ``None``, which ``run_stream`` treats exactly as
  running without a predictor) and ``run_stream`` calls its
  ``observe`` once at the end of every tick, so the time between two
  calls is one tick.  It opens one ``bench.tick`` span per tick.

The study configuration is pinned here (it mirrors the stream study's
defaults) so the workload does not move when those defaults do.  The
scenario is fixed; the workload seed drives the event stream.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass

from repro.core import MegaTEOptimizer
from repro.core.types import FlowAssignment, TEResult, check_feasibility
from repro.experiments.common import build_scenario
from repro.obs import get_tracer, monotonic
from repro.simulation.admission import AdmissionConfig, AdmissionController
from repro.simulation.streaming import (
    NOOP,
    make_trigger,
    run_stream,
    stream_scenario_events,
)

from .measure import (
    Ledger,
    Metric,
    median_metric,
    peak_rss_mb,
    percentile_metric,
    tail_metric,
    trace_metrics,
)
from .solver import solve_metrics

#: Spans the benchmark's shims open inside a tick.
TICK_LAYERS = ("core.solve", "simulation.admission")

#: The program's own spans that sit directly under a tick, by layer.
PROGRAM_LAYERS = {
    "stream.event": "simulation.events",
    "sim.flowsim": "simulation.flowsim",
    "stream.solve": "simulation.loop",
}


@dataclass(frozen=True)
class StreamConfig:
    """The stream workload (the stream study's pinned defaults).

    Attributes:
        pinned_identity: ``StreamReport.identity_digest()`` at
            ``default_seed`` (``None``: repeat check only).
        setup_repeats: Set-ups per run; ``setup_s`` is their median.
    """

    name: str
    pinned_identity: str | None
    setup_repeats: int
    scenario: str = "flash-crowd"
    total_endpoints: int = 6_000
    num_site_pairs: int = 36
    target_load: float = 0.8
    scenario_seed: int = 0
    default_seed: int = 0
    num_epochs: int = 96
    tick_s: float = 30.0
    threshold: float = 0.25
    refresh_s: float = 600.0
    period_s: float = 300.0
    budget_factor: float = 1.15


class TickClock:
    """Predictor stand-in that marks tick boundaries; see module doc."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []
        self._span = None

    def start(self) -> None:
        self._open()

    def _open(self) -> None:
        self._span = get_tracer().span("bench.tick", epoch=len(self.ticks))
        self._span.__enter__()

    @property
    def tick(self) -> int:
        return len(self.ticks)

    @property
    def tick_start(self) -> float:
        return self._span.start_s

    def predict(self):
        return None

    def observe(self, matrix) -> None:
        self._span.__exit__(None, None, None)
        self.ticks.append((self._span.start_s, self._span.end_s))
        self._open()

    def finish(self) -> None:
        """Close the span opened after the last tick (the loop's exit)."""
        self._span.name = "bench.stream_exit"
        self._span.__exit__(None, None, None)


@dataclass
class Solve:
    """One timed ``solve`` inside a tick.

    ``result`` is the benchmark's copy of the solve's result; the check
    reads it and then drops it, keeping only ``stats``.
    """

    tick: int
    tick_start: float
    start: float
    end: float
    result: TEResult | None
    stats: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class TimedOptimizer:
    """Times and keeps every ``solve`` of the optimizer it wraps."""

    def __init__(self, optimizer: MegaTEOptimizer, clock: TickClock) -> None:
        self._optimizer = optimizer
        self._clock = clock
        self.solves: list[Solve] = []

    def reset_incremental_state(self) -> None:
        self._optimizer.reset_incremental_state()

    def solve(self, topology, demands) -> TEResult:
        with get_tracer().span("core.solve", epoch=self._clock.tick) as span:
            result = self._optimizer.solve(topology, demands)
        copy = dataclasses.replace(
            result,
            assignment=FlowAssignment.from_flat(
                result.assignment.assigned_tunnel.copy(),
                result.assignment.offsets,
            ),
        )
        self.solves.append(
            Solve(
                tick=self._clock.tick,
                tick_start=self._clock.tick_start,
                start=span.start_s,
                end=span.end_s,
                result=copy,
                stats=result.stats,
            )
        )
        return result

    def close(self) -> None:
        self._optimizer.close()


class TimedAdmission(AdmissionController):
    """An admission controller whose every ``admit`` call is timed."""

    def __init__(self, budgets, config=None) -> None:
        super().__init__(budgets, config=config)
        self.seconds: list[float] = []
        self.clock: TickClock | None = None

    def admit(self, table):
        with get_tracer().span(
            "simulation.admission", epoch=self.clock.tick
        ) as span:
            outcome = super().admit(table)
        self.seconds.append(span.duration_s)
        return outcome


@dataclass
class StreamRun:
    """One pass of the whole event stream through ``run_stream``."""

    report: object
    ticks: list[tuple[float, float]]
    solves: list[Solve]
    admission_s: list[float]
    traced: bool
    verify_s: list[float] = dataclasses.field(default_factory=list)


class StreamWorkload:
    """Set-up, stream passes and checks of the stream workload."""

    def __init__(self, cfg: StreamConfig, seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.ledger = Ledger()
        self.reference: str | None = None

    def setup(self) -> float:
        """Build the scenario and events and run one warm-up pass."""
        cfg = self.cfg
        with get_tracer().span("bench.setup") as span:
            with get_tracer().span("traffic.scenario_build") as build:
                self.scenario = build_scenario(
                    "twan",
                    total_endpoints=cfg.total_endpoints,
                    num_site_pairs=cfg.num_site_pairs,
                    target_load=cfg.target_load,
                    seed=cfg.scenario_seed,
                )
            self.events = stream_scenario_events(
                cfg.scenario,
                cfg.num_site_pairs,
                cfg.num_epochs,
                tick_s=cfg.tick_s,
                seed=self.seed,
            )
            self.warmup = self.stream_once()
        self.scenario_build_s = build.duration_s
        return span.duration_s

    def setup_repeated(self) -> list[float]:
        times = []
        for _ in range(self.cfg.setup_repeats):
            self.scenario = self.events = self.warmup = None
            gc.collect()
            times.append(self.setup())
        self.check(self.warmup)
        return times

    def stream_once(self) -> StreamRun:
        """One full ``run_stream`` pass with fresh trigger, solver, shims."""
        cfg = self.cfg
        clock = TickClock()
        admission = TimedAdmission.for_matrix(
            self.scenario.demands,
            AdmissionConfig(budget_factor=cfg.budget_factor),
        )
        admission.clock = clock
        trigger = make_trigger(
            "hybrid",
            threshold=cfg.threshold,
            period_s=cfg.period_s,
            refresh_s=cfg.refresh_s,
        )
        with MegaTEOptimizer(incremental=True, delta_threshold=0.0) as opt:
            optimizer = TimedOptimizer(opt, clock)
            clock.start()
            try:
                report = run_stream(
                    self.scenario.topology,
                    self.scenario.demands,
                    self.events,
                    cfg.num_epochs,
                    tick_s=cfg.tick_s,
                    trigger=trigger,
                    optimizer=optimizer,
                    predictor=clock,
                    admission=admission,
                    seed=self.seed,
                    scenario=cfg.scenario,
                    topology_name="twan",
                )
            finally:
                clock.finish()
        return StreamRun(
            report=report,
            ticks=clock.ticks,
            solves=optimizer.solves,
            admission_s=admission.seconds,
            traced=get_tracer().enabled,
        )

    def check(self, run: StreamRun) -> None:
        """Count the pass's solves and its digest check.

        A solve fails ``check_feasibility`` on the benchmark's copy of
        its result; the pass fails when its identity digest differs from
        the first pass of this run, or from the pinned digest at the
        default seed.
        """
        ledger = self.ledger
        for solve in run.solves:
            ledger.attempt()
            with get_tracer().span("core.verify", epoch=solve.tick) as span:
                report = check_feasibility(
                    self.scenario.topology, solve.result
                )
            solve.result = None
            run.verify_s.append(span.duration_s)
            if not report.feasible:
                ledger.fail(
                    f"tick {solve.tick}: infeasible solve "
                    f"(max overload {report.max_overload:.3g})"
                )
        ledger.attempt()
        digest = run.report.identity_digest()
        if self.reference is None:
            self.reference = digest
        pinned = self.cfg.pinned_identity
        if digest != self.reference:
            ledger.fail("stream identity digest changed between passes")
        elif self.seed == self.cfg.default_seed and pinned is not None:
            if digest != pinned:
                ledger.fail(
                    f"stream identity digest {digest[:8]}... != pinned "
                    f"{pinned[:8]}..."
                )


def layer_of(chain) -> str:
    """A tick span's layer: the innermost shim span, else the program's."""
    for span in reversed(chain[1:]):
        if span.name in TICK_LAYERS:
            return span.name
    return PROGRAM_LAYERS.get(chain[1].name, chain[1].name)


def run_stream_workload(
    cfg: StreamConfig, seed: int, seconds: float, trace: bool
):
    """Run the stream workload; returns ``(metrics, ledger, details)``.

    Passes over the event stream run back to back until ``seconds``
    have elapsed.  With ``trace`` the tracer collects every other pass.
    """
    tracer = get_tracer()
    tracer.reset()
    work = StreamWorkload(cfg, seed)
    setup_times = work.setup_repeated()

    runs: list[StreamRun] = []
    deadline = monotonic() + seconds
    while not runs or monotonic() < deadline:
        tracer.enabled = trace and len(runs) % 2 == 0
        run = work.stream_once()
        tracer.enabled = False
        work.check(run)
        runs.append(run)

    ticks = [end - start for run in runs for start, end in run.ticks]
    solves = [s for run in runs for s in run.solves]
    solve_ms = [1e3 * s.seconds for s in solves]
    report = runs[0].report
    flows = report.num_flows
    metrics: dict[str, Metric] = {
        "setup_s": median_metric(setup_times, "s"),
        "epoch_ms.p50": median_metric([1e3 * t for t in ticks], "ms"),
        "epoch_ms.tail": tail_metric([1e3 * t for t in ticks], "ms"),
        "solve_ms.p50": median_metric(solve_ms, "ms"),
        "solve_ms.p90": percentile_metric(solve_ms, "ms", 90),
        "solve_ms.tail": tail_metric(solve_ms, "ms"),
        "config_ready_ms.p50": median_metric(
            [1e3 * (s.end - s.tick_start) for s in solves], "ms"
        ),
        "flows_per_s": Metric(
            flows * len(ticks) / sum(ticks), "flows/s", n=len(ticks)
        ),
        "satisfied_fraction": Metric(report.satisfied_fraction, "share"),
        "qos1_fraction": Metric(report.qos1_fraction, "share"),
        "failed_fraction": Metric(
            work.ledger.failed_fraction, "share", n=work.ledger.attempted
        ),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
    }
    details = {
        "flows": flows,
        "passes": len(runs),
        "ticks": len(ticks),
        "solves": len(solves),
        "identity_digest": work.reference,
        "setup_s": setup_times,
        "epoch_ms": [1e3 * t for t in ticks],
        "solve_ms": solve_ms,
    }
    if trace:
        metrics.update(
            _layer_metrics(work, [r for r in runs if r.traced])
        )
        shares, details["layers"] = trace_metrics(
            tracer.finished_spans(),
            "bench.tick",
            layer_of,
            missing_layer="simulation.loop: run_stream's per-tick body "
            "outside any span (state.matrix, drift, QoS accounting)",
            traced_s=[e - s for r in runs if r.traced for s, e in r.ticks],
            untraced_s=[
                e - s for r in runs if not r.traced for s, e in r.ticks
            ],
        )
        metrics.update(shares)
    return metrics, work.ledger, details


def _layer_metrics(work: StreamWorkload, traced: list[StreamRun]):
    """Per-layer metrics of the traced passes, per tick unless noted."""
    spans = get_tracer().finished_spans()
    tick_ids = {s.span_id for s in spans if s.name == "bench.tick"}
    flowsim = sum(
        s.duration_s
        for s in spans
        if s.name == "sim.flowsim" and s.parent_id in tick_ids
    )
    n_ticks = sum(len(r.ticks) for r in traced)
    tick_s = sum(e - s for r in traced for s, e in r.ticks)
    solves = [s for r in traced for s in r.solves]
    solve_s = sum(s.seconds for s in solves)
    admission_s = sum(sum(r.admission_s) for r in traced)
    passes = len(traced)
    reports = [r.report for r in traced]
    out: dict[str, Metric] = {
        "traffic.scenario_build_s": Metric(work.scenario_build_s, "s"),
        "controlplane.config_writes": Metric(0.0, "count", note="no publish"),
        "controlplane.write_share": Metric(0.0, "share", note="no publish"),
        "controlplane.installs": Metric(0.0, "count", note="no publish"),
        "controlplane.db_queries": Metric(0.0, "count", note="no publish"),
        "controlplane.db_rejected": Metric(0.0, "count", note="no publish"),
        "simulation.flowsim_ms": Metric(
            1e3 * flowsim / n_ticks, "ms", n=n_ticks
        ),
        "simulation.admission_ms": Metric(
            1e3 * admission_s / n_ticks, "ms", n=n_ticks
        ),
        "simulation.loop_self_ms": Metric(
            1e3 * (tick_s - solve_s - admission_s) / n_ticks,
            "ms",
            n=n_ticks,
        ),
        "simulation.shed_volume": Metric(
            sum(r.shed_volume for r in reports) / passes,
            "Gbps",
            n=passes,
            note="per pass",
        ),
        "simulation.solves_full": Metric(
            sum(r.solves_full for r in reports) / passes,
            "count",
            n=passes,
            note="per pass",
        ),
        "simulation.solves_delta": Metric(
            sum(r.solves_delta for r in reports) / passes,
            "count",
            n=passes,
            note="per pass",
        ),
        "simulation.noop_epochs": Metric(
            sum(
                sum(rec.decision == NOOP for rec in r.records)
                for r in reports
            )
            / passes,
            "count",
            n=passes,
            note="per pass",
        ),
    }
    out.update(
        solve_metrics(
            [s.stats for s in solves],
            [s.seconds for s in solves],
            [v for r in traced for v in r.verify_s],
        )
    )
    return out
