"""MegaTE's core contribution: the contracted two-stage TE optimization."""

from .exact import ExactSolution, solve_max_all_flow
from .fastssp import FastSSPResult, fast_ssp
from .fastssp_batch import BatchedSSPResult, fast_ssp_batch, fill_pairs_batch
from .flowtable import FlowTable, PairViews, csr_offsets, pair_views
from .formulation import MaxAllFlowProblem
from .incremental import IncrementalState
from .pairfill import fill_pair, fill_pairs
from .qos import PRIORITY_ORDER, QoSClass
from .siteflow import SiteFlowSolver, solve_max_site_flow
from .ssp import (
    SSPSolution,
    brute_force_ssp,
    dp_ssp,
    greedy_ssp,
    meet_in_the_middle_ssp,
)
from .twostage import MegaTEOptimizer
from .types import (
    FeasibilityReport,
    FlowAssignment,
    SiteAllocation,
    TEResult,
    UNASSIGNED,
    check_feasibility,
)

__all__ = [
    "MaxAllFlowProblem",
    "MegaTEOptimizer",
    "QoSClass",
    "PRIORITY_ORDER",
    "fast_ssp",
    "FastSSPResult",
    "dp_ssp",
    "greedy_ssp",
    "brute_force_ssp",
    "meet_in_the_middle_ssp",
    "SSPSolution",
    "solve_max_site_flow",
    "solve_max_all_flow",
    "ExactSolution",
    "TEResult",
    "FlowAssignment",
    "SiteAllocation",
    "FeasibilityReport",
    "check_feasibility",
    "UNASSIGNED",
    "FlowTable",
    "PairViews",
    "csr_offsets",
    "pair_views",
    "SiteFlowSolver",
    "fill_pair",
    "fill_pairs",
    "BatchedSSPResult",
    "fast_ssp_batch",
    "fill_pairs_batch",
    "IncrementalState",
]
