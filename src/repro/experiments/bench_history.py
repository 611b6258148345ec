"""Schema validation for ``BENCH_interval_solve.json`` history records.

The artifact's ``history`` list holds two record kinds, each appended
by its study:

* ``"soak"`` records (:mod:`repro.experiments.soak_study`) pin the SLO
  metrics of a soak scenario run, so regressions in failure behavior
  are caught (``tools/check_slo_regression.py`` gates fresh runs
  against the trajectory);
* ``"stream"`` records (:mod:`repro.experiments.stream_study`) pin the
  trigger-vs-oracle outcome of an event-driven control-loop run.

Timings are not recorded here: ``perfbench/`` is the performance
record.  A silent schema drift — a renamed key, a missing SLO — would
corrupt a trajectory without failing anything, so every record is
validated through :func:`validate_history_record` when it is built and
whenever the history loads; corruption raises
:class:`BenchHistoryError` instead of propagating into the artifact.

The schema is deliberately minimal: it pins the keys the trajectory
tooling actually reads and ignores everything else, so adding new
fields to a record never breaks old validators.

Every record carries an explicit ``config_name`` (scenario, scale,
horizon and seed are part of it).  Two records claiming the same name
must pin identical configs — that is what keeps a per-name trajectory
comparable — and :func:`load_history` can filter to one name.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "BenchHistoryError",
    "validate_history_record",
    "scale_label",
    "load_history",
    "append_history_record",
    "SLO_KEYS",
    "SOAK_REQUIRED_KEYS",
    "STREAM_REQUIRED_KEYS",
]

#: Keys every record carries, whatever its kind.
COMMON_KEYS = (
    "timestamp",
    "git_sha",
    "kind",
    "config_name",
    "config",
    "scenario",
    "seed",
    "identity_digest",
)

#: Keys the run ``config`` must pin for runs to be comparable.
CONFIG_KEYS = (
    "topology_name",
    "total_endpoints",
    "num_site_pairs",
    "num_intervals",
    "seed",
)

#: Keys every ``soak`` record must carry.
SOAK_REQUIRED_KEYS = COMMON_KEYS + ("slo",)

#: SLO metrics a soak record's ``slo`` block must pin — the fields
#: ``tools/check_slo_regression.py`` compares across the trajectory.
SLO_KEYS = (
    "availability",
    "staleness_p99_s",
    "degraded_fraction",
    "delivered_floor",
    "solver_phase_p99_s",
)

#: Outcome metrics of a streaming control-loop run.
STREAM_METRIC_KEYS = (
    "oracle_ratio",
    "solves_fraction",
    "qos1_floor",
    "shed_volume",
)

#: Keys every ``stream`` record must carry.
STREAM_REQUIRED_KEYS = COMMON_KEYS + ("trigger",) + STREAM_METRIC_KEYS

#: Record kind -> the keys a record of that kind must carry.
KIND_KEYS = {"soak": SOAK_REQUIRED_KEYS, "stream": STREAM_REQUIRED_KEYS}


def scale_label(endpoints: int) -> str:
    """An endpoint count abbreviated for trajectory names (``20k``, ``1m``)."""
    if endpoints and endpoints % 1_000_000 == 0:
        return f"{endpoints // 1_000_000}m"
    if endpoints and endpoints % 1_000 == 0:
        return f"{endpoints // 1_000}k"
    return str(endpoints)


class BenchHistoryError(ValueError):
    """A benchmark history record (or the artifact) violates the schema."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise BenchHistoryError(f"{where}: {message}")


def _is_non_negative(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value >= 0
    )


def validate_history_record(record: object, index: int | None = None) -> None:
    """Check one history record against its kind's schema.

    Args:
        record: The candidate record; its ``kind`` must be ``"soak"`` or
            ``"stream"``.
        index: Position in the history list, for error messages.

    Raises:
        BenchHistoryError: On any schema violation, naming the offending
            record and field.
    """
    where = "history record" if index is None else f"history[{index}]"
    _require(isinstance(record, dict), where, "record must be a dict")
    kind = record.get("kind")
    _require(
        isinstance(kind, str) and kind in KIND_KEYS,
        where,
        f"kind must be one of {sorted(KIND_KEYS)}, got {kind!r}",
    )
    for key in KIND_KEYS[kind]:
        _require(key in record, where, f"missing required key {key!r}")
    strings = ("timestamp", "git_sha", "config_name", "scenario")
    if kind == "stream":
        strings += ("trigger",)
    for key in strings:
        _require(
            isinstance(record[key], str) and record[key],
            where,
            f"{key} must be a non-empty string",
        )
    config = record["config"]
    _require(isinstance(config, dict), where, "config must be a dict")
    for key in CONFIG_KEYS:
        _require(key in config, where, f"config missing {key!r}")
    _require(
        isinstance(record["seed"], int)
        and not isinstance(record["seed"], bool),
        where,
        "seed must be an integer",
    )
    _require(
        isinstance(record["identity_digest"], str)
        and len(record["identity_digest"]) == 64,
        where,
        "identity_digest must be a SHA-256 hex string",
    )
    if kind == "stream":
        for key in STREAM_METRIC_KEYS:
            _require(
                _is_non_negative(record[key]),
                where,
                f"{key} must be a non-negative number",
            )
        return
    slo = record["slo"]
    _require(isinstance(slo, dict), where, "slo must be a dict")
    for key in SLO_KEYS:
        _require(key in slo, where, f"slo missing {key!r}")
        _require(
            _is_non_negative(slo[key]),
            where,
            f"slo[{key!r}] must be a non-negative number",
        )
    if "violations" in record:
        violations = record["violations"]
        _require(
            isinstance(violations, list)
            and all(isinstance(v, str) for v in violations),
            where,
            "violations must be a list of strings",
        )


def load_history(
    path: Path | str, config_name: str | None = None
) -> list[dict]:
    """Load and validate the artifact's run history.

    A missing artifact or one without a ``history`` key yields an empty
    list; anything present must parse as JSON and every record must
    pass :func:`validate_history_record`.  Corruption raises rather than
    silently dropping the trajectory.

    Records sharing a ``config_name`` must pin byte-equal config blocks
    — a drifting config under a stable name would silently make the
    per-name trajectory incomparable.

    Args:
        path: The artifact file.
        config_name: When given, return only the records of that name.

    Raises:
        BenchHistoryError: When the artifact is unreadable, not JSON,
            any history record violates the schema, or records sharing
            a config name disagree on the config.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise BenchHistoryError(
            f"{path.name}: cannot read artifact ({exc})"
        ) from exc
    if not isinstance(existing, dict):
        raise BenchHistoryError(f"{path.name}: artifact must be an object")
    history = existing.get("history", [])
    if not isinstance(history, list):
        raise BenchHistoryError(f"{path.name}: history must be a list")
    configs_by_name: dict[str, tuple[int, dict]] = {}
    for i, record in enumerate(history):
        validate_history_record(record, index=i)
        name = record["config_name"]
        seen = configs_by_name.get(name)
        if seen is None:
            configs_by_name[name] = (i, record["config"])
        elif seen[1] != record["config"]:
            raise BenchHistoryError(
                f"history[{i}]: config of {name!r} differs from "
                f"history[{seen[0]}] — same-name records must pin "
                "identical configs"
            )
    if config_name is not None:
        return [r for r in history if r["config_name"] == config_name]
    return history


def append_history_record(path: Path | str, record: dict) -> int:
    """Append one validated record to a history artifact in place.

    Only extends ``history``; any other top-level keys are preserved.
    Loads strictly first (schema *and* the same-name-identical-config
    invariant), refusing to append after a corrupt or config-drifted
    history.

    Returns:
        The history length after the append.
    """
    path = Path(path)
    validate_history_record(record)
    load_history(path)
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {}
    history = payload.setdefault("history", [])
    history.append(record)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return len(history)
