"""LP-all baseline (paper §6.1).

"LP-all scheme is a linear programming (LP) algorithm that solves the
multi-commodity flow (MCF) problem for the demands between endpoints."

It relaxes MaxAllFlow's integrality: every endpoint flow may split
fractionally over tunnels.  Its optimum therefore upper-bounds any integral
scheme — the paper uses it as the "optimal" reference in Figure 10 — but at
the cost of one giant LP whose size grows with the number of endpoint
pairs, which is what makes it infeasible at hyper-scale (out-of-memory in
Figure 9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import monotonic
from ..core.exact import solve_max_all_flow
from ..core.formulation import MaxAllFlowProblem
from ..core.types import FlowAssignment, TEResult

if TYPE_CHECKING:
    from ..topology.contraction import TwoLayerTopology
    from ..traffic.demand import DemandMatrix

__all__ = ["LPAllTE"]


class LPAllTE:
    """Endpoint-granular MCF LP — the optimality reference."""

    scheme_name = "LP-all"

    def solve(
        self, topology: "TwoLayerTopology", demands: "DemandMatrix"
    ) -> TEResult:
        """Solve the endpoint MCF LP.

        ``satisfied_volume`` counts fractional placement (the LP truth);
        the per-flow ``assignment`` view is a dominant-tunnel rounding kept
        for latency studies.

        Raises:
            ValueError: when the model exceeds the exact-solver size cap —
                the repo's analogue of the paper's out-of-memory failures.
        """
        problem = MaxAllFlowProblem(topology, demands)
        start = monotonic()
        solution = solve_max_all_flow(problem, relaxed=True)
        runtime = monotonic() - start
        assignment = FlowAssignment(
            per_pair=[
                np.asarray(arr, dtype=np.int32)
                for arr in solution.integral_assignment()
            ]
        )
        return TEResult(
            scheme=self.scheme_name,
            assignment=assignment,
            demands=demands,
            satisfied_volume=solution.satisfied_volume,
            runtime_s=runtime,
            stats={"objective": solution.objective, "fractional": True},
        )
