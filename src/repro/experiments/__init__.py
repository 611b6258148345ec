"""Experiment harnesses — one module per paper table/figure.

=============== ==============================================
module          regenerates
=============== ==============================================
fig02           Fig. 2  latency under conventional hash TE
fig08           Fig. 8  endpoint-per-site CDF + Weibull fit
table02         Table 2 evaluation topologies
fig09 / fig10   Figs. 9-10 runtime & satisfied-demand sweep
fig11           Fig. 11 QoS-1 latency on Deltacom*
fig12           Fig. 12 satisfied demand under failures
fig13 / fig14   Figs. 13-14 synchronization overhead
fig15           Fig. 15 production app latency reductions
fig16           Fig. 16 production availability timeline
fig17           Fig. 17 production cost reductions
database_study  §6.4 sharded TE database load
fastssp_study   App. A.2 FastSSP accuracy & error bound
chaos_sync      Fig. 16's shape under injected store faults
soak_study      long-horizon multi-failure soak with SLO gates
stream_study    streaming control loop: triggers vs the oracle
=============== ==============================================
"""

from . import (
    chaos_sync,
    database_study,
    fastssp_study,
    fig02,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table02,
)
from .common import PAPER_ENDPOINTS, Scenario, build_scenario, default_schemes
from .interval_replay import (
    IntervalReplayReport,
    replay_intervals,
    run_interval_replay,
)
from .production import ProductionScenario, build_production_scenario
from .soak_study import (
    run_soak_study,
    soak_config,
    soak_config_name,
    soak_history_record,
)
from .stream_study import (
    run_stream_study,
    stream_config,
    stream_config_name,
    stream_history_record,
)
from .summary import CheckResult, run_all_checks
from .sweep import SweepRecord, run_scale_sweep

__all__ = [
    "fig02",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table02",
    "chaos_sync",
    "database_study",
    "fastssp_study",
    "Scenario",
    "build_scenario",
    "default_schemes",
    "PAPER_ENDPOINTS",
    "ProductionScenario",
    "build_production_scenario",
    "SweepRecord",
    "run_scale_sweep",
    "IntervalReplayReport",
    "replay_intervals",
    "run_interval_replay",
    "run_all_checks",
    "CheckResult",
    "run_soak_study",
    "soak_config",
    "soak_config_name",
    "soak_history_record",
    "run_stream_study",
    "stream_config",
    "stream_config_name",
    "stream_history_record",
]
