"""Schema validation of the soak and stream bench history."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench_history import (
    COMMON_KEYS,
    CONFIG_KEYS,
    SLO_KEYS,
    SOAK_REQUIRED_KEYS,
    STREAM_REQUIRED_KEYS,
    BenchHistoryError,
    append_history_record,
    load_history,
    validate_history_record,
)

DIGEST = "0" * 64


def _legacy_perf_record() -> dict:
    """A replay-timing record of the retired ``perf`` kind."""
    return {
        "timestamp": "2026-08-06T00:00:00Z",
        "git_sha": "abcdef123456",
        "backend": "scipy",
        "config_name": "twan-20k",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 20_000,
            "num_site_pairs": 60,
            "num_intervals": 10,
            "seed": 42,
        },
        "realization_s": {"flowsim": 0.01, "latency": 0.02},
    }


def test_valid_record_passes():
    validate_history_record(_soak_record())
    validate_history_record(_stream_record())


def test_extra_keys_are_ignored():
    record = _soak_record()
    record["retired_leg"] = None
    record["kernel"] = "numpy"
    record["slo"]["new_metric"] = 123
    validate_history_record(record)


@pytest.mark.parametrize("key", COMMON_KEYS)
def test_missing_required_key_raises(key):
    """Every record kind requires the shared keys, ``kind`` included."""
    for record in (_soak_record(), _stream_record()):
        del record[key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)


@pytest.mark.parametrize("kind", ["perf", None])
def test_perf_records_rejected(kind):
    """The retired replay-timing kind, labelled or not, no longer loads."""
    record = _legacy_perf_record()
    if kind is not None:
        record["kind"] = kind
    with pytest.raises(BenchHistoryError, match="kind"):
        validate_history_record(record)


def test_bad_digest_raises():
    for digest in (None, int("1" * 64)):
        record = _stream_record()
        record["identity_digest"] = digest
        with pytest.raises(BenchHistoryError, match="identity_digest"):
            validate_history_record(record)


def test_negative_timing_raises():
    record = _soak_record()
    record["slo"]["solver_phase_p99_s"] = -0.1
    with pytest.raises(BenchHistoryError, match="solver_phase_p99_s"):
        validate_history_record(record)


def test_missing_config_key_raises():
    for key in CONFIG_KEYS:
        for record in (_soak_record(), _stream_record()):
            del record["config"][key]
            with pytest.raises(BenchHistoryError, match=key):
                validate_history_record(record)


def test_index_named_in_error():
    with pytest.raises(BenchHistoryError, match=r"history\[3\]"):
        validate_history_record({}, index=3)


def test_load_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.json") == []


def test_load_snapshot_only_artifact_is_empty(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"config": {}, "batched": {}}))
    assert load_history(path) == []


def test_load_valid_history(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps({"history": [_soak_record(), _stream_record()]})
    )
    history = load_history(path)
    assert [r["kind"] for r in history] == ["soak", "stream"]


def test_load_corrupt_json_raises(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    with pytest.raises(BenchHistoryError, match="cannot read"):
        load_history(path)


def test_load_non_object_artifact_raises(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(BenchHistoryError, match="object"):
        load_history(path)


def test_load_invalid_record_raises(tmp_path):
    record = _soak_record()
    del record["git_sha"]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"history": [record]}))
    with pytest.raises(BenchHistoryError, match=r"history\[0\]"):
        load_history(path)


def _other_soak_record() -> dict:
    """A soak record of a second named config (another scenario)."""
    record = _soak_record()
    record["config_name"] = "soak-link-flap-twan-20k-50i-s1"
    record["scenario"] = "link-flap"
    record["seed"] = 1
    record["config"] = {**record["config"], "seed": 1}
    return record


class TestMixedConfigHistories:
    def test_empty_config_name_raises(self):
        record = _soak_record()
        record["config_name"] = ""
        with pytest.raises(BenchHistoryError, match="config_name"):
            validate_history_record(record)

    def test_mixed_config_history_loads_and_filters(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _soak_record(),
                        _other_soak_record(),
                        _stream_record(),
                        _soak_record(),
                    ]
                }
            )
        )
        assert len(load_history(path)) == 4
        name = _soak_record()["config_name"]
        assert len(load_history(path, config_name=name)) == 2
        only_flap = load_history(
            path, config_name="soak-link-flap-twan-20k-50i-s1"
        )
        assert len(only_flap) == 1
        assert only_flap[0]["config"]["seed"] == 1
        assert load_history(path, config_name="absent") == []

    def test_same_name_divergent_config_raises(self, tmp_path):
        """A config drifting under a stable name corrupts the trajectory."""
        drifted = _other_soak_record()
        drifted["config_name"] = _soak_record()["config_name"]
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_soak_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)


def _soak_record() -> dict:
    """A record of the ``soak`` kind (long-horizon SLO trajectory)."""
    return {
        "timestamp": "2026-08-06T00:00:00Z",
        "git_sha": "abcdef123456",
        "kind": "soak",
        "config_name": "soak-full-mix-twan-20k-50i-s0",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 20_000,
            "num_site_pairs": 60,
            "num_intervals": 50,
            "seed": 0,
        },
        "scenario": "full-mix",
        "seed": 0,
        "slo": {
            "availability": 1.0,
            "staleness_p99_s": 50.0,
            "degraded_fraction": 0.0,
            "delivered_floor": 0.9,
            "solver_phase_p99_s": 0.05,
        },
        "violations": [],
        "identity_digest": DIGEST,
    }


class TestSoakRecords:
    def test_valid_soak_record_passes(self):
        validate_history_record(_soak_record())

    def test_record_kind_dispatch(self):
        # The kind picks the schema: a soak record relabelled as a
        # stream record is held to the stream keys it lacks.
        record = _soak_record()
        record["kind"] = "stream"
        with pytest.raises(BenchHistoryError, match="trigger"):
            validate_history_record(record)

    def test_unknown_kind_raises(self):
        record = _soak_record()
        record["kind"] = "mystery"
        with pytest.raises(BenchHistoryError, match="kind"):
            validate_history_record(record)

    @pytest.mark.parametrize(
        "key", [k for k in SOAK_REQUIRED_KEYS if k != "kind"]
    )
    def test_missing_soak_key_raises(self, key):
        record = _soak_record()
        del record[key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    @pytest.mark.parametrize("key", SLO_KEYS)
    def test_missing_slo_metric_raises(self, key):
        record = _soak_record()
        del record["slo"][key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_negative_slo_metric_raises(self):
        record = _soak_record()
        record["slo"]["availability"] = -0.1
        with pytest.raises(BenchHistoryError, match="availability"):
            validate_history_record(record)

    def test_bool_slo_metric_raises(self):
        record = _soak_record()
        record["slo"]["availability"] = True
        with pytest.raises(BenchHistoryError, match="availability"):
            validate_history_record(record)

    def test_bad_identity_digest_raises(self):
        record = _soak_record()
        record["identity_digest"] = "deadbeef"
        with pytest.raises(BenchHistoryError, match="identity_digest"):
            validate_history_record(record)

    def test_non_string_violations_raise(self):
        record = _soak_record()
        record["violations"] = [{"metric": "availability"}]
        with pytest.raises(BenchHistoryError, match="violations"):
            validate_history_record(record)

    def test_soak_missing_config_key_raises(self):
        record = _soak_record()
        del record["config"]["seed"]
        with pytest.raises(BenchHistoryError, match="seed"):
            validate_history_record(record)

    def test_perf_record_in_history_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _soak_record(),
                        _legacy_perf_record(),
                        _soak_record(),
                    ]
                }
            )
        )
        with pytest.raises(BenchHistoryError, match=r"history\[1\]"):
            load_history(path)

    def test_soak_same_name_divergent_config_raises(self, tmp_path):
        """The same-name invariant applies across kinds too."""
        drifted = _soak_record()
        drifted["config"]["num_site_pairs"] = 61
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_soak_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)

    def test_invalid_soak_record_rejected_in_history(self, tmp_path):
        record = _soak_record()
        del record["slo"]["availability"]
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_stream_record(), record]})
        )
        with pytest.raises(BenchHistoryError, match=r"history\[1\]"):
            load_history(path)


def _stream_record() -> dict:
    """A record of the ``stream`` kind (online control-loop trajectory)."""
    return {
        "timestamp": "2026-08-09T00:00:00Z",
        "git_sha": "abcdef123456",
        "kind": "stream",
        "config_name": "stream-flash-crowd-hybrid-twan-6k-96e-s0",
        "config": {
            "topology_name": "twan",
            "total_endpoints": 6_000,
            "num_site_pairs": 36,
            "num_intervals": 96,
            "seed": 0,
        },
        "scenario": "flash-crowd",
        "seed": 0,
        "trigger": "hybrid",
        "oracle_ratio": 0.9996,
        "solves_fraction": 0.0833,
        "qos1_floor": 0.9932,
        "shed_volume": 1703.2,
        "identity_digest": DIGEST,
    }


class TestStreamRecords:
    def test_valid_stream_record_passes(self):
        validate_history_record(_stream_record())

    def test_record_kind_dispatch(self):
        # A stream record relabelled as soak is held to the SLO block.
        record = _stream_record()
        record["kind"] = "soak"
        with pytest.raises(BenchHistoryError, match="slo"):
            validate_history_record(record)

    @pytest.mark.parametrize(
        "key", [k for k in STREAM_REQUIRED_KEYS if k != "kind"]
    )
    def test_missing_stream_key_raises(self, key):
        record = _stream_record()
        del record[key]
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_bad_identity_digest_raises(self):
        record = _stream_record()
        record["identity_digest"] = "deadbeef"
        with pytest.raises(BenchHistoryError, match="identity_digest"):
            validate_history_record(record)

    @pytest.mark.parametrize(
        "key", ["oracle_ratio", "solves_fraction", "qos1_floor",
                "shed_volume"]
    )
    def test_negative_metric_raises(self, key):
        record = _stream_record()
        record[key] = -0.1
        with pytest.raises(BenchHistoryError, match=key):
            validate_history_record(record)

    def test_bool_metric_raises(self):
        record = _stream_record()
        record["oracle_ratio"] = True
        with pytest.raises(BenchHistoryError, match="oracle_ratio"):
            validate_history_record(record)

    def test_bool_seed_raises(self):
        record = _stream_record()
        record["seed"] = True
        with pytest.raises(BenchHistoryError, match="seed"):
            validate_history_record(record)

    def test_empty_trigger_raises(self):
        record = _stream_record()
        record["trigger"] = ""
        with pytest.raises(BenchHistoryError, match="trigger"):
            validate_history_record(record)

    def test_stream_missing_config_key_raises(self):
        record = _stream_record()
        del record["config"]["num_intervals"]
        with pytest.raises(BenchHistoryError, match="num_intervals"):
            validate_history_record(record)

    def test_mixed_soak_and_stream_history_loads(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "history": [
                        _soak_record(),
                        _stream_record(),
                        _other_soak_record(),
                    ]
                }
            )
        )
        history = load_history(path)
        assert [r["kind"] for r in history] == ["soak", "stream", "soak"]
        stream_only = load_history(
            path, config_name="stream-flash-crowd-hybrid-twan-6k-96e-s0"
        )
        assert len(stream_only) == 1
        assert stream_only[0]["trigger"] == "hybrid"

    def test_stream_same_name_divergent_config_raises(self, tmp_path):
        drifted = _stream_record()
        drifted["config"]["num_site_pairs"] = 37
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"history": [_stream_record(), drifted]})
        )
        with pytest.raises(BenchHistoryError, match="identical configs"):
            load_history(path)


class TestAppendHistoryRecord:
    def test_appends_to_missing_artifact(self, tmp_path):
        path = tmp_path / "bench.json"
        assert append_history_record(path, _stream_record()) == 1
        assert append_history_record(path, _soak_record()) == 2
        history = load_history(path)
        assert [r["kind"] for r in history] == ["stream", "soak"]

    def test_preserves_snapshot_payload(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "config": {"note": "latest snapshot"},
                    "history": [_soak_record()],
                }
            )
        )
        append_history_record(path, _stream_record())
        payload = json.loads(path.read_text())
        assert payload["config"] == {"note": "latest snapshot"}
        assert len(payload["history"]) == 2

    def test_rejects_invalid_record_without_writing(self, tmp_path):
        path = tmp_path / "bench.json"
        record = _stream_record()
        del record["trigger"]
        with pytest.raises(BenchHistoryError, match="trigger"):
            append_history_record(path, record)
        assert not path.exists()

    def test_rejects_append_to_corrupt_history(self, tmp_path):
        path = tmp_path / "bench.json"
        bad = _stream_record()
        del bad["trigger"]
        path.write_text(json.dumps({"history": [bad]}))
        with pytest.raises(BenchHistoryError, match=r"history\[0\]"):
            append_history_record(path, _stream_record())


def test_repo_artifact_validates():
    """The checked-in artifact must always pass its own schema."""
    from pathlib import Path

    artifact = Path(__file__).resolve().parent.parent / (
        "BENCH_interval_solve.json"
    )
    history = load_history(artifact)
    assert isinstance(history, list)
