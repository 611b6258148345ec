"""Tests for the exact MaxAllFlow MILP and its LP relaxation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import solve_max_all_flow
from repro.core.formulation import MaxAllFlowProblem
from repro.traffic import DemandMatrix

from conftest import make_pair_demands


def _problem(topology, volumes, qos=None):
    demands = DemandMatrix([make_pair_demands(volumes, qos=qos)])
    return MaxAllFlowProblem(topology, demands), demands


class TestMILP:
    def test_accepts_all_when_capacity_suffices(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [3.0, 3.0, 3.0])
        solution = solve_max_all_flow(problem, relaxed=False)
        assert solution.satisfied_volume == pytest.approx(9.0)
        assignment = solution.integral_assignment()[0]
        assert (assignment >= 0).all()

    def test_binary_fractions(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [4.0, 4.0, 4.0, 4.0])
        solution = solve_max_all_flow(problem, relaxed=False)
        for frac in solution.fractions:
            assert np.all(np.isin(frac, [0.0, 1.0]))

    def test_one_tunnel_per_flow(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [4.0] * 5)
        solution = solve_max_all_flow(problem, relaxed=False)
        assert (solution.fractions[0].sum(axis=1) <= 1 + 1e-9).all()

    def test_capacity_respected(self, tiny_topology):
        # 5 x 6 Gbps flows, 10 Gbps per path: at most 1 flow per path fits
        # plus nothing else (6+6 > 10).
        problem, _ = _problem(tiny_topology, [6.0] * 5)
        solution = solve_max_all_flow(problem, relaxed=False)
        assert solution.satisfied_volume == pytest.approx(12.0)

    def test_knapsack_instance(self, tiny_topology):
        """Reduction of Appendix A.1: MaxAllFlow solves a knapsack."""
        # Path capacities 10 + 10; items sized to make packing matter.
        problem, _ = _problem(tiny_topology, [7.0, 6.0, 4.0, 3.0])
        solution = solve_max_all_flow(problem, relaxed=False)
        # Optimal: 7+3 on one path, 6+4 on the other = 20.
        assert solution.satisfied_volume == pytest.approx(20.0)

    def test_size_guard(self, b4_topology):
        rng = np.random.default_rng(0)
        huge = DemandMatrix(
            [
                make_pair_demands(rng.uniform(0.1, 1, size=60_000))
                for _ in range(b4_topology.catalog.num_pairs)
            ]
        )
        problem = MaxAllFlowProblem(b4_topology, huge)
        with pytest.raises(ValueError, match="too large"):
            solve_max_all_flow(problem, relaxed=False)


class TestRelaxation:
    def test_upper_bounds_milp(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [7.0, 6.0, 4.0, 3.0, 2.5])
        lp = solve_max_all_flow(problem, relaxed=True)
        milp = solve_max_all_flow(problem, relaxed=False)
        assert lp.satisfied_volume >= milp.satisfied_volume - 1e-6

    def test_fills_capacity_when_oversubscribed(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [9.0, 9.0, 9.0])
        lp = solve_max_all_flow(problem, relaxed=True)
        assert lp.satisfied_volume == pytest.approx(20.0, rel=1e-6)

    def test_fractions_within_unit_interval(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [9.0, 9.0, 9.0])
        lp = solve_max_all_flow(problem, relaxed=True)
        for frac in lp.fractions:
            assert (frac >= -1e-9).all() and (frac <= 1 + 1e-9).all()

    def test_relaxed_flag_propagates(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [1.0])
        assert solve_max_all_flow(problem, relaxed=True).relaxed
        assert not solve_max_all_flow(problem, relaxed=False).relaxed


class TestIntegralAssignment:
    def test_rounding_threshold(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [9.0, 9.0, 9.0])
        lp = solve_max_all_flow(problem, relaxed=True)
        assignment = lp.integral_assignment()[0]
        frac = lp.fractions[0]
        for i, t in enumerate(assignment):
            if t >= 0:
                assert frac[i, t] >= 0.5

    def test_empty_problem(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [])
        solution = solve_max_all_flow(problem, relaxed=True)
        assert solution.satisfied_volume == 0.0


class TestFormulation:
    def test_alignment_check(self, tiny_topology):
        mismatched = DemandMatrix(
            [make_pair_demands([1.0]), make_pair_demands([1.0])]
        )
        with pytest.raises(ValueError, match="align"):
            MaxAllFlowProblem(tiny_topology, mismatched)

    def test_effective_epsilon_auto_scale(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [1.0])
        max_w = max(
            t.weight for _, _, t in tiny_topology.catalog.all_tunnels()
        )
        assert problem.effective_epsilon == pytest.approx(0.1 / max_w)

    def test_tunnel_offsets(self, b4_topology, b4_demands):
        problem = MaxAllFlowProblem(b4_topology, b4_demands)
        offsets = problem.tunnel_offsets
        assert offsets[0] == 0
        assert offsets[-1] == problem.num_tunnel_vars
        diffs = np.diff(offsets)
        for k, d in enumerate(diffs):
            assert d == len(b4_topology.catalog.tunnels(k))

    def test_link_incidence_matches_tunnels(self, tiny_topology):
        problem, _ = _problem(tiny_topology, [1.0])
        rows, cols = problem.tunnel_link_incidence()
        tunnels = tiny_topology.catalog.tunnels(0)
        # Total incidences = sum of hop counts.
        assert rows.size == sum(t.num_hops for t in tunnels)
