"""Tests for the multi-interval runner and failure orchestrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane import (
    orchestrate_failover,
    plan_hybrid_sync,
)
from repro.core import MegaTEOptimizer
from repro.core.flowtable import FlowTable
from repro.simulation import run_intervals
from repro.topology import sample_failure_scenarios
from repro.traffic import DemandMatrix, DiurnalSequence

from conftest import make_pair_demands


@pytest.fixture()
def diurnal(tiny_topology):
    base = DemandMatrix(
        [
            make_pair_demands(
                [2.0, 2.0, 2.0, 1.0], qos=[1, 2, 2, 3],
                with_endpoints=True,
            )
        ]
    )
    return DiurnalSequence(
        base=base, interval_minutes=240.0, peak_to_trough=2.0, seed=0
    )


class TestRunIntervals:
    def test_fresh_inputs_deliver_well(self, tiny_topology, diurnal):
        series = run_intervals(
            tiny_topology,
            list(diurnal)[:4],
            MegaTEOptimizer(),
        )
        assert len(series.records) == 4
        assert series.mean_delivered > 0.9
        for record in series.records:
            assert 0 <= record.delivered_fraction <= 1 + 1e-9
            assert record.max_utilization <= 1 + 1e-6

    def test_stale_inputs_cost_delivery(self, tiny_topology):
        """Solving on stale demands cannot beat solving on fresh ones."""
        base = DemandMatrix(
            [
                make_pair_demands(
                    [3.0, 3.0, 3.0], qos=[1, 2, 3], with_endpoints=True
                )
            ]
        )
        sequence = DiurnalSequence(
            base=base,
            interval_minutes=120.0,
            peak_to_trough=4.0,
            jitter_sigma=0.4,
            seed=2,
        )
        matrices = [sequence.matrix(n) for n in range(0, 12, 2)]
        fresh = run_intervals(
            tiny_topology, matrices, MegaTEOptimizer()
        )
        stale = run_intervals(
            tiny_topology, matrices, MegaTEOptimizer(), stale_inputs=True
        )
        assert stale.mean_delivered <= fresh.mean_delivered + 0.02

    def test_aggregates(self, tiny_topology, diurnal):
        series = run_intervals(
            tiny_topology, list(diurnal)[:3], MegaTEOptimizer()
        )
        worst = series.worst_interval
        assert worst is not None
        assert worst.delivered_fraction == min(
            r.delivered_fraction for r in series.records
        )
        assert not np.isnan(series.mean_qos1_latency_ms)

    def test_unchanged_pair_totals_still_resolve(self, tiny_topology):
        """An interval whose flows moved is solved, even at equal totals.

        Swapping a QoS-1 and a QoS-3 flow's volumes keeps the site-pair
        total bit-equal but changes what a cold solve assigns, so the
        previous allocation must not serve the second interval.
        """
        def matrix(volumes):
            return DemandMatrix(
                [
                    make_pair_demands(
                        volumes, qos=[1, 3, 2, 2], with_endpoints=True
                    )
                ]
            )

        moved = matrix([4.0, 6.0, 5.0, 5.0])
        series = run_intervals(
            tiny_topology,
            [matrix([6.0, 4.0, 5.0, 5.0]), moved],
            MegaTEOptimizer(),
        )
        cold = run_intervals(tiny_topology, [moved], MegaTEOptimizer())
        second, expected = series.records[1], cold.records[0]
        assert second.runtime_s > 0
        for name in (
            "planned_satisfied",
            "delivered_fraction",
            "qos1_latency_ms",
            "max_utilization",
        ):
            assert getattr(second, name) == getattr(expected, name)

    def test_shape_change_rejected(self, tiny_topology, tiny_demands):
        a = DemandMatrix(
            [make_pair_demands([1.0, 1.0], with_endpoints=True)]
        )
        b = DemandMatrix(
            [make_pair_demands([1.0], with_endpoints=True)]
        )
        with pytest.raises(ValueError, match="identities"):
            run_intervals(
                tiny_topology, [a, b], MegaTEOptimizer(),
                stale_inputs=True,
            )
        # Same per-pair counts, but two flows swap a class or an
        # endpoint: the loop carries only volumes, so this is refused.
        table = tiny_demands.table
        for column in ("qos", "src_endpoints", "dst_endpoints"):
            columns = {
                c: getattr(table, c).copy()
                for c in ("qos", "src_endpoints", "dst_endpoints")
            }
            columns[column][[0, 5]] = columns[column][[5, 0]]
            moved = DemandMatrix.from_table(
                FlowTable(
                    offsets=table.offsets,
                    volumes=table.volumes,
                    has_endpoints=table.has_endpoints,
                    **columns,
                )
            )
            with pytest.raises(ValueError, match=f"identities.*{column}"):
                run_intervals(
                    tiny_topology, [tiny_demands, moved], MegaTEOptimizer()
                )


class TestOrchestrateFailover:
    @pytest.fixture()
    def setting(self, b4_topology, b4_demands):
        scenario = sample_failure_scenarios(
            b4_topology.network, num_failures=2, num_scenarios=1, seed=3
        )[0]
        return b4_topology, b4_demands, scenario

    def test_timeline_phases_ordered(self, setting):
        topology, demands, scenario = setting
        timeline = orchestrate_failover(
            topology, demands, MegaTEOptimizer(), scenario
        )
        low = min(
            timeline.surviving_fraction, timeline.steady_fraction
        )
        high = max(
            timeline.surviving_fraction, timeline.steady_fraction
        )
        assert low - 1e-9 <= timeline.convergence_fraction <= high + 1e-9
        assert low - 1e-9 <= timeline.effective_fraction <= high + 1e-9
        assert (
            timeline.recompute_seconds
            + timeline.convergence_seconds
            <= timeline.interval_seconds + 1e-9
        )

    def test_hybrid_improves_convergence_phase(self, setting):
        topology, demands, scenario = setting
        rng = np.random.default_rng(0)
        volumes = rng.lognormal(0, 2.0, size=topology.num_endpoints)
        plan = plan_hybrid_sync(volumes, volume_coverage=0.95)
        pull_only = orchestrate_failover(
            topology, demands, MegaTEOptimizer(), scenario,
        )
        hybrid = orchestrate_failover(
            topology,
            demands,
            MegaTEOptimizer(),
            scenario,
            hybrid_plan=plan,
            endpoint_volumes=volumes,
        )
        if pull_only.steady_fraction > pull_only.surviving_fraction:
            assert (
                hybrid.convergence_fraction
                >= pull_only.convergence_fraction - 1e-9
            )

    def test_hybrid_requires_volumes(self, setting):
        topology, demands, scenario = setting
        plan = plan_hybrid_sync(np.ones(10))
        with pytest.raises(ValueError, match="endpoint_volumes"):
            orchestrate_failover(
                topology,
                demands,
                MegaTEOptimizer(),
                scenario,
                hybrid_plan=plan,
            )

    def test_longer_poll_period_hurts(self, setting):
        topology, demands, scenario = setting
        fast = orchestrate_failover(
            topology, demands, MegaTEOptimizer(), scenario,
            poll_period_s=5.0,
        )
        slow = orchestrate_failover(
            topology, demands, MegaTEOptimizer(), scenario,
            poll_period_s=120.0,
        )
        if fast.steady_fraction > fast.surviving_fraction:
            assert (
                slow.effective_fraction <= fast.effective_fraction + 1e-9
            )


class TestLinkStateMonitor:
    def test_failure_declared_after_hysteresis(self):
        from repro.controlplane import LinkStateMonitor

        monitor = LinkStateMonitor(down_after=3)
        link = ("a", "b")
        assert monitor.observe(link, False, now=1.0) is None
        assert monitor.observe(link, False, now=2.0) is None
        event = monitor.observe(link, False, now=3.0)
        assert event is not None and not event.up
        assert event.time == 3.0
        assert not monitor.is_up(link)
        assert monitor.failed_links() == [link]

    def test_single_loss_does_not_flap(self):
        from repro.controlplane import LinkStateMonitor

        monitor = LinkStateMonitor(down_after=3)
        link = ("a", "b")
        monitor.observe(link, False)
        monitor.observe(link, True)
        monitor.observe(link, False)
        monitor.observe(link, False)
        assert monitor.is_up(link)
        assert monitor.events == []

    def test_recovery_declared(self):
        from repro.controlplane import LinkStateMonitor

        monitor = LinkStateMonitor(down_after=1, up_after=2)
        link = ("a", "b")
        monitor.observe(link, False, now=0.0)
        assert not monitor.is_up(link)
        monitor.observe(link, True, now=1.0)
        event = monitor.observe(link, True, now=2.0)
        assert event is not None and event.up
        assert monitor.is_up(link)

    def test_callback_triggers_recompute(self, b4_topology, b4_demands):
        """Failure detection -> recompute on the degraded topology."""
        from repro.controlplane import LinkStateMonitor
        from repro.core import MegaTEOptimizer, check_feasibility

        victim = b4_topology.network.links[0]
        results = []

        def on_event(event):
            degraded = b4_topology.with_failures(
                [event.link, event.link[::-1]]
            )
            results.append(
                (degraded, MegaTEOptimizer().solve(degraded, b4_demands))
            )

        monitor = LinkStateMonitor(down_after=2, on_event=on_event)
        monitor.observe(victim.key, False, now=0.1)
        monitor.observe(victim.key, False, now=0.2)
        assert len(results) == 1
        degraded, result = results[0]
        assert check_feasibility(degraded, result).feasible

    def test_detection_delay(self):
        from repro.controlplane import LinkStateMonitor

        monitor = LinkStateMonitor(down_after=3)
        assert monitor.detection_delay(0.05) == pytest.approx(0.15)
        with pytest.raises(ValueError):
            monitor.detection_delay(0.0)

    def test_invalid_thresholds(self):
        from repro.controlplane import LinkStateMonitor

        with pytest.raises(ValueError):
            LinkStateMonitor(down_after=0)
