"""The benchmark's named workloads (see README.md for why each exists)."""

from __future__ import annotations

import dataclasses

from .replay import ReplayConfig, run_replay
from .stream import StreamConfig, run_stream_workload

#: Full-scale workloads, by name.  Pinned digests were measured on the
#: program as this benchmark was introduced; a later change that moves
#: them changes behaviour and must say so.
WORKLOADS = {
    "twan-20k-diurnal": ReplayConfig(
        name="twan-20k-diurnal",
        total_endpoints=20_000,
        target_load=1.0,
        flat=False,
        intervals=10,
        pinned_digest=(
            "252dcd5d4698b75fb3cd14b4cde4111a"
            "5631f6f5de6e7b0974282da79b846bee"
        ),
        setup_repeats=9,
    ),
    "twan-1m-overload": ReplayConfig(
        name="twan-1m-overload",
        total_endpoints=1_000_000,
        target_load=1.6,
        flat=True,
        intervals=3,
        pinned_digest=(
            "390009fa059baca7910f8e56e5a6f6a2"
            "131177f509581ff70074ed357bdd455c"
        ),
        setup_repeats=2,
    ),
    "stream-flash-crowd": StreamConfig(
        name="stream-flash-crowd",
        pinned_identity=(
            "6be4390eb0da0e3896c62fa5558f18bf"
            "b1511c1bb5eb09954395f9f4a8f24644"
        ),
        setup_repeats=9,
    ),
}

#: The same workloads shrunk to run in about a second each (for the
#: benchmark's own tests).  Nothing is pinned at this scale.
TINY = {
    "twan-20k-diurnal": dataclasses.replace(
        WORKLOADS["twan-20k-diurnal"],
        total_endpoints=2_000,
        intervals=2,
        pinned_digest=None,
        agents=50,
        setup_repeats=1,
    ),
    "twan-1m-overload": dataclasses.replace(
        WORKLOADS["twan-1m-overload"],
        total_endpoints=5_000,
        intervals=2,
        pinned_digest=None,
        agents=50,
        setup_repeats=1,
    ),
    "stream-flash-crowd": dataclasses.replace(
        WORKLOADS["stream-flash-crowd"],
        total_endpoints=1_000,
        num_epochs=24,
        pinned_identity=None,
        setup_repeats=1,
    ),
}


def default_seed(name: str) -> int:
    """The seed of a workload's pinned digest."""
    return WORKLOADS[name].default_seed


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
):
    """Run one workload; returns ``(config, metrics, ledger, details)``."""
    cfg = (TINY if tiny else WORKLOADS)[name]
    runner = run_stream_workload if isinstance(cfg, StreamConfig) else (
        run_replay
    )
    metrics, ledger, details = runner(cfg, seed, seconds, trace)
    return cfg, metrics, ledger, details
