#!/usr/bin/env python3
"""Gate: fresh soak SLOs must not regress against the bench history.

For every soak trajectory in the bench-history artifact (records with
``kind: "soak"``, keyed by ``config_name``), the newest record is the
*fresh* run and the median over up to the five records before it is the
*baseline*.  Each SLO metric is compared against the baseline with a
per-metric tolerance:

==================== ==============================================
metric               fails when
==================== ==============================================
availability         fresh < baseline - 0.02
staleness_p99_s      fresh > baseline * 1.25 + 5.0
degraded_fraction    fresh > baseline + 0.02
delivered_floor      fresh < baseline - 0.02
solver_phase_p99_s   fresh > baseline * 2.0
==================== ==============================================

A trajectory with no prior records passes trivially (first run simply
*becomes* the baseline).  Exits non-zero listing every regression; the
CI soak lane and perf-smoke run this after appending their fresh
records, so an SLO drift lands red before it compounds.

Usage::

    python tools/check_slo_regression.py [--history FILE]
        [--config-name NAME ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.bench_history import (  # noqa: E402
    SLO_KEYS,
    load_history,
)

DEFAULT_HISTORY = REPO / "BENCH_interval_solve.json"

#: How many records before the fresh one feed the median baseline.
BASELINE_WINDOW = 5

#: metric -> (direction, slack) where direction "min" means larger is
#: better (fail when fresh < baseline - slack) and "max" means smaller
#: is better.  Slack is (absolute, relative): the bound is
#: ``baseline * (1 +/- relative) +/- absolute``.
TOLERANCES = {
    "availability": ("min", 0.02, 0.0),
    "staleness_p99_s": ("max", 5.0, 0.25),
    "degraded_fraction": ("max", 0.02, 0.0),
    "delivered_floor": ("min", 0.02, 0.0),
    "solver_phase_p99_s": ("max", 0.0, 1.0),
}

assert set(TOLERANCES) == set(SLO_KEYS)


def check_trajectory(name: str, records: list[dict]) -> list[str]:
    """Regression messages for one soak config's record sequence."""
    fresh = records[-1]
    priors = records[:-1][-BASELINE_WINDOW:]
    if not priors:
        return []
    failures: list[str] = []
    for metric, (direction, absolute, relative) in TOLERANCES.items():
        baseline = median(float(r["slo"][metric]) for r in priors)
        value = float(fresh["slo"][metric])
        if direction == "min":
            bound = baseline * (1.0 - relative) - absolute
            ok = value >= bound
            op = ">="
        else:
            bound = baseline * (1.0 + relative) + absolute
            ok = value <= bound
            op = "<="
        if not ok:
            failures.append(
                f"{name}: {metric} {value:.4f} violates {op} "
                f"{bound:.4f} (baseline {baseline:.4f} over "
                f"{len(priors)} prior records)"
            )
    return failures


def check_history(path: Path, config_names: list[str] | None = None):
    """(failures, checked-trajectory summary) for one artifact."""
    history = load_history(path)
    trajectories: dict[str, list[dict]] = {}
    for record in history:
        if record["kind"] != "soak":
            continue
        trajectories.setdefault(record["config_name"], []).append(record)
    if config_names:
        missing = sorted(set(config_names) - set(trajectories))
        if missing:
            raise SystemExit(
                f"no soak records for config name(s): {', '.join(missing)}"
            )
        trajectories = {
            name: trajectories[name] for name in config_names
        }
    failures: list[str] = []
    summary: list[str] = []
    for name in sorted(trajectories):
        records = trajectories[name]
        failures.extend(check_trajectory(name, records))
        summary.append(f"{name} ({len(records)} records)")
    return failures, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY), metavar="FILE",
        help="bench-history artifact (default: BENCH_interval_solve.json)",
    )
    parser.add_argument(
        "--config-name", action="append", default=None, metavar="NAME",
        help="only check these soak trajectories (repeatable; "
             "errors if absent from the history)",
    )
    args = parser.parse_args(argv)
    path = Path(args.history)
    if not path.exists():
        print(f"slo regression: no history at {path}; nothing to check")
        return 0
    failures, summary = check_history(path, args.config_name)
    if failures:
        print("soak SLO regressions:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if not summary:
        print("slo regression: no soak records in history; OK")
    else:
        print(
            "slo regression: OK — " + ", ".join(summary)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
