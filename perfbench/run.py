#!/usr/bin/env python3
"""Run the control-loop epoch benchmark.

From the repository root::

    python3 perfbench/run.py --workload twan-20k-diurnal --seed 5 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one
                                                 # process each

A run sets its workload up several times (``setup_s`` is the median),
then runs controller epochs back to back for ``--seconds`` and checks
every one.  It prints a report with each metric's unit, sample count and
tail percentile, and as the last line one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"epoch_ms.p50": {"value": 74.2, "unit": "ms"}, ...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  The
full result (every metric, host facts, failures, and with ``--trace 1``
the span trace as JSONL) is written under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark cannot run at all — for
example without the ``src/`` tree to import the program from.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Environment variables that change the program's behaviour; each run
#: clears them before the program is imported and records what it found.
ISOLATED_ENV = (
    "REPRO_OBS",
    "REPRO_WORKERS",
    "REPRO_SHARD_WORKERS",
    "REPRO_LP_BACKEND",
    "REPRO_SSP_BACKEND",
)

#: Workload names, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("twan-20k-diurnal", "twan-1m-overload", "stream-flash-crowd")

#: A child run of ``--workload all`` is stopped after this many seconds.
CHILD_TIMEOUT_S = 600


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="MegaTE control-loop epoch benchmark"
    )
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: the seed of the pinned digest)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def format_metric(name: str, metric) -> str:
    extra = " ".join(
        part
        for part in (
            metric.note,
            f"n={metric.n}" if metric.n is not None else "",
        )
        if part
    )
    return f"  {name:<28s} {metric.value:>16.6g} {metric.unit:<8s} {extra}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cleared = {k: os.environ.pop(k) for k in ISOLATED_ENV if k in os.environ}
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import default_seed, run_workload
    from repro.obs import get_tracer, spans_to_jsonl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    seed = default_seed(args.workload) if args.seed is None else args.seed
    cfg, metrics, ledger, details = run_workload(
        args.workload, seed, args.seconds, bool(args.trace)
    )

    host = host_facts()
    print(
        f"== {args.workload} seed={seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"env cleared: {cleared or 'none set'}")
    for name, metric in metrics.items():
        print(format_metric(name, metric))
    print(
        f"checks: attempted {ledger.attempted}, failed {ledger.failed}"
        + "".join(f"\n  FAIL {m}" for m in ledger.messages)
    )
    for key in ("pinned_digest", "identity_digest"):
        if key in details:
            print(f"  {key}: {details[key]}")
    for message in ledger.known:
        print(f"known defect hit in set-up, counted outside the epochs: "
              f"{message}")
    layers = details.get("layers")
    if layers:
        print(
            f"layers over {layers['epochs']} traced epochs "
            f"(mean self ms per epoch; wall {layers['epoch_wall_ms']:.4g}):"
        )
        for name, ms in sorted(
            layers["layer_self_ms"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name:<28s} {ms:>12.4g}")
        print(f"  {'unattributed':<28s} {layers['unattributed_ms']:>12.4g}")
        print(f"  max per-epoch accounting residual "
              f"{layers['max_residual_s']:.3g} s")
        if layers["missing_layer"]:
            print(f"  unattributed above 5%; missing layer: "
                  f"{layers['missing_layer']}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-s{seed}-t{args.trace}"
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": dataclasses.asdict(cfg),
        "host": host,
        "env_cleared": cleared,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.messages,
        "known_setup_failures": ledger.known,
        "metrics": {k: dataclasses.asdict(m) for k, m in metrics.items()},
        "details": details,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with stem.with_suffix(".spans.jsonl").open("w") as handle:
            spans_to_jsonl(get_tracer().finished_spans(), handle)

    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    m["name"]: {
                        "value": metrics[m["name"]].value,
                        "unit": metrics[m["name"]].unit,
                    }
                    for m in listed
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
