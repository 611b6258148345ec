"""Streaming-loop properties: lockstep anchor, determinism, admission.

The load-bearing contracts of :mod:`repro.simulation.streaming`:

* **Lockstep anchor** — driving :func:`run_stream` with
  :func:`lockstep_events` (one boundary-aligned whole-matrix
  :class:`MatrixSet` per interval), a zero-threshold :class:`DeltaTrigger`, and
  ``tick_s`` equal to the interval length must reproduce the plain
  :func:`~repro.experiments.interval_replay.replay_intervals`
  assignment digest bit-for-bit: the streaming machinery adds event
  plumbing and trigger bookkeeping, never perturbs the solve.
* **Fixed-seed determinism** — two runs of the same seeded scenario
  agree on :meth:`StreamReport.identity_digest` (wall-clock timings
  excluded), and :func:`stream_scenario_events` is a pure function of
  its arguments.
* **Admission invariants** — with defer off, admitted volumes never
  exceed offered volumes flow-by-flow, protected classes ride through
  byte-identical, and the shed total is exactly the offered-minus-
  admitted volume; the whole decision is deterministic arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.flowtable import FlowTable
from repro.experiments.common import build_scenario
from repro.experiments.interval_replay import replay_intervals
from repro.simulation.admission import (
    AdmissionConfig,
    AdmissionController,
)
from repro.simulation.streaming import (
    DeltaTrigger,
    HybridTrigger,
    lockstep_events,
    run_stream,
    stream_scenario_events,
)
from repro.traffic import DemandMatrix, DiurnalSequence

from conftest import make_pair_demands

#: Small scenario: one streaming run well under a second, large enough
#: that the second stage sees contention and events move allocations.
SMALL = dict(
    topology_name="twan",
    total_endpoints=2_000,
    num_site_pairs=24,
    target_load=1.4,
    seed=7,
)
NUM_INTERVALS = 6


@pytest.fixture(scope="module")
def small_scenario():
    sc = build_scenario(
        SMALL["topology_name"],
        total_endpoints=SMALL["total_endpoints"],
        num_site_pairs=SMALL["num_site_pairs"],
        target_load=SMALL["target_load"],
        seed=SMALL["seed"],
    )
    return sc.topology, DiurnalSequence(base=sc.demands, seed=5)


@pytest.fixture(autouse=True)
def _registry_guard():
    yield
    obs.reset()
    obs.set_enabled(False)


class TestLockstepAnchor:
    def test_zero_threshold_matches_plain_replay_digest(
        self, small_scenario
    ):
        topology, sequence = small_scenario
        stream = run_stream(
            topology,
            sequence.base,
            lockstep_events(sequence, NUM_INTERVALS, 300.0),
            NUM_INTERVALS,
            tick_s=300.0,
            trigger=DeltaTrigger(threshold=0.0),
            scenario="lockstep",
        )
        replay = replay_intervals(topology, sequence, NUM_INTERVALS)
        assert stream.assignment_digest == replay.assignment_digest
        # Diurnal jitter moves every interval, so the zero-threshold
        # trigger solves each one: bootstrap full + deltas after.
        assert stream.solves == NUM_INTERVALS
        assert stream.solves_full == 1
        assert stream.solves_delta == NUM_INTERVALS - 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "scenario", ["flash-crowd", "diurnal-shift"]
    )
    def test_same_seed_runs_agree_on_identity(
        self, small_scenario, scenario
    ):
        topology, sequence = small_scenario
        events = stream_scenario_events(
            scenario, SMALL["num_site_pairs"], NUM_INTERVALS, seed=3
        )
        runs = [
            run_stream(
                topology,
                sequence.base,
                events,
                NUM_INTERVALS,
                tick_s=30.0,
                trigger=HybridTrigger(
                    threshold=0.25, refresh_s=600.0
                ),
                seed=3,
                scenario=scenario,
            )
            for _ in range(2)
        ]
        assert (
            runs[0].identity_digest() == runs[1].identity_digest()
        )
        assert (
            runs[0].assignment_digest == runs[1].assignment_digest
        )

    @given(
        name=st.sampled_from(
            ["flash-crowd", "diurnal-shift", "failure-surge"]
        ),
        num_pairs=st.integers(min_value=2, max_value=48),
        num_epochs=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_scenario_events_are_pure(
        self, name, num_pairs, num_epochs, seed
    ):
        """Same arguments -> the identical event stream, twice."""
        first = stream_scenario_events(
            name, num_pairs, num_epochs, seed=seed
        )
        second = stream_scenario_events(
            name, num_pairs, num_epochs, seed=seed
        )
        assert first == second
        assert all(e.time >= 0 for e in first)


_flows = st.lists(
    st.tuples(
        st.floats(
            min_value=0.0,
            max_value=1e3,
            allow_nan=False,
            allow_infinity=False,
        ),
        st.sampled_from([1, 2, 3]),
    ),
    min_size=1,
    max_size=6,
)
_pairs = st.lists(_flows, min_size=1, max_size=4)
_surges = st.lists(
    st.floats(
        min_value=0.0,
        max_value=4.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=4,
    max_size=4,
)


def _build_matrix(pairs) -> DemandMatrix:
    return DemandMatrix(
        [
            make_pair_demands(
                [v for v, _ in flows], qos=[q for _, q in flows]
            )
            for flows in pairs
        ]
    )


def _surged_table(base: DemandMatrix, surges) -> FlowTable:
    table = base.table
    volumes = table.volumes.copy()
    for pair in range(table.num_pairs):
        lo, hi = int(table.offsets[pair]), int(table.offsets[pair + 1])
        volumes[lo:hi] *= surges[pair]
    return FlowTable(
        offsets=table.offsets,
        volumes=volumes,
        qos=table.qos,
        src_endpoints=table.src_endpoints,
        dst_endpoints=table.dst_endpoints,
        has_endpoints=table.has_endpoints,
    )


class TestAdmissionInvariants:
    @given(pairs=_pairs, surges=_surges)
    @settings(max_examples=60, deadline=None)
    def test_shed_conservation_and_protection(self, pairs, surges):
        base = _build_matrix(pairs)
        offered = _surged_table(base, surges)
        config = AdmissionConfig(budget_factor=1.15)
        outcome = AdmissionController.for_matrix(base, config).admit(
            offered
        )
        admitted = outcome.volumes
        # Defer off: admitted never exceeds offered, flow by flow.
        assert np.all(admitted <= offered.volumes + 1e-9)
        assert np.all(admitted >= -1e-12)
        # Protected QoS-1 volumes ride through byte-identical.
        protected = offered.qos == 1
        assert (
            admitted[protected].tobytes()
            == offered.volumes[protected].tobytes()
        )
        # Shed accounting conserves volume exactly.
        total_offered = float(offered.volumes.sum())
        total_admitted = float(admitted.sum())
        assert outcome.shed_total == pytest.approx(
            total_offered - total_admitted, abs=1e-6
        )
        assert outcome.shed_total >= 0.0
        assert outcome.released == 0.0
        # Per-pair: admitted fits the budget unless the protected
        # volume alone already exceeds it.
        budgets = base.site_demands() * config.budget_factor
        for pair in range(offered.num_pairs):
            lo = int(offered.offsets[pair])
            hi = int(offered.offsets[pair + 1])
            pair_admitted = float(admitted[lo:hi].sum())
            floor = float(
                offered.volumes[lo:hi][protected[lo:hi]].sum()
            )
            assert pair_admitted <= max(budgets[pair], floor) + 1e-6

    @given(pairs=_pairs, surges=_surges)
    @settings(max_examples=30, deadline=None)
    def test_admission_is_deterministic(self, pairs, surges):
        base = _build_matrix(pairs)
        offered = _surged_table(base, surges)
        outcomes = [
            AdmissionController.for_matrix(
                base, AdmissionConfig(budget_factor=1.0)
            ).admit(offered)
            for _ in range(2)
        ]
        assert (
            outcomes[0].volumes.tobytes()
            == outcomes[1].volumes.tobytes()
        )
        assert outcomes[0].shed_total == outcomes[1].shed_total
