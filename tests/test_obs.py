"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, log_linear_buckets
from repro.obs.tracing import Tracer, iter_roots


@pytest.fixture()
def tracer() -> Tracer:
    return Tracer(enabled=True)


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


# -- tracing ----------------------------------------------------------------


def test_span_records_duration_and_attributes(tracer):
    with tracer.span("op", kind="test") as sp:
        sp.set_attribute("extra", 1)
    spans = tracer.finished_spans()
    assert len(spans) == 1
    span = spans[0]
    assert span.name == "op"
    assert span.duration_s >= 0.0
    assert span.attributes == {"kind": "test", "extra": 1}
    assert span.parent_id is None


def test_spans_nest_per_thread(tracer):
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.finished_spans()
    assert inner.name == "inner"
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert iter_roots([inner, outer]) == [outer]


def test_span_rename_inside_block(tracer):
    with tracer.span("before") as sp:
        sp.name = "after"
    assert tracer.finished_spans()[0].name == "after"


def test_span_records_error_attribute(tracer):
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("x")
    span = tracer.finished_spans()[0]
    assert span.attributes["error"] == "ValueError"


def test_disabled_tracer_measures_but_does_not_collect():
    tracer = Tracer(enabled=False)
    with tracer.span("op") as sp:
        pass
    assert sp.duration_s >= 0.0
    assert sp.span is None
    assert len(tracer) == 0


def test_enablement_checked_at_entry_not_exit(tracer):
    with tracer.span("op"):
        tracer.enabled = False
    # Entered while enabled -> still collected.
    assert len(tracer) == 1


def test_threads_get_independent_stacks(tracer):
    def worker():
        with tracer.span("child"):
            pass

    with tracer.span("main-root"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    child = [s for s in tracer.finished_spans() if s.name == "child"][0]
    # The worker thread's span must NOT parent under the main thread's.
    assert child.parent_id is None


def test_to_jsonl_round_trips(tracer):
    with tracer.span("a", n=1):
        pass
    buffer = io.StringIO()
    assert tracer.to_jsonl(buffer) == 1
    event = json.loads(buffer.getvalue())
    assert event["name"] == "a"
    assert event["attributes"] == {"n": 1}
    assert event["duration_s"] >= 0.0


# -- metrics ----------------------------------------------------------------


def test_log_linear_buckets_default_shape():
    buckets = log_linear_buckets()
    assert buckets[0] == pytest.approx(1e-4)
    assert buckets[-1] == pytest.approx(5e3)
    assert len(buckets) == 24
    assert list(buckets) == sorted(buckets)


def test_log_linear_buckets_validation():
    with pytest.raises(ValueError):
        log_linear_buckets(start=0.0)
    with pytest.raises(ValueError):
        log_linear_buckets(decades=0)


def test_counter_inc_and_labels(registry):
    c = registry.counter("hits_total", "hits", labelnames=("kind",))
    c.labels(kind="a").inc()
    c.labels(kind="a").inc(2.0)
    c.labels(kind="b").inc()
    series = dict(c.series())
    assert series[("a",)].value == 3.0
    assert series[("b",)].value == 1.0
    with pytest.raises(ValueError):
        c.labels(kind="a").inc(-1.0)
    with pytest.raises(ValueError):
        c.labels(wrong="a")


def test_gauge_set_and_inc(registry):
    g = registry.gauge("level")
    g.set(5.0)
    g.inc(-2.0)
    assert dict(g.series())[()].value == 3.0


def test_histogram_observe_buckets(registry):
    h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(value)
    child = dict(h.series())[()]
    assert child.bucket_counts == [1, 2, 1, 1]
    assert child.count == 5
    assert child.sum == pytest.approx(56.05)


def test_histogram_rejects_bad_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("bad2", buckets=(1.0, float("inf")))


def test_registered_type_conflicts_raise(registry):
    registry.counter("metric_a", labelnames=("x",))
    with pytest.raises(ValueError):
        registry.gauge("metric_a")
    with pytest.raises(ValueError):
        registry.counter("metric_a", labelnames=("y",))


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("hits_total")
    c.inc()
    registry.gauge("level").set(9.0)
    registry.histogram("lat").observe(0.5)
    assert dict(c.series()).get((), None) is None or (
        dict(c.series())[()].value == 0.0
    )


def test_concurrent_counter_increments(registry):
    c = registry.counter("hits_total")

    def worker():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert dict(c.series())[()].value == 4000.0


# -- exporters --------------------------------------------------------------


def test_prometheus_exposition_format(registry):
    c = registry.counter("hits_total", "Total hits", labelnames=("kind",))
    c.labels(kind="a").inc(2.0)
    registry.gauge("level", "Current level").set(1.5)
    registry.histogram("lat", "Latency", buckets=(0.1, 1.0)).observe(0.5)
    text = obs.registry_to_prometheus(registry)
    lines = text.splitlines()
    assert "# HELP hits_total Total hits" in lines
    assert "# TYPE hits_total counter" in lines
    assert 'hits_total{kind="a"} 2' in lines
    assert "level 1.5" in lines
    assert 'lat_bucket{le="0.1"} 0' in lines
    assert 'lat_bucket{le="1"} 1' in lines
    assert 'lat_bucket{le="+Inf"} 1' in lines
    assert "lat_sum 0.5" in lines
    assert "lat_count 1" in lines
    assert text.endswith("\n")


def test_prometheus_label_escaping(registry):
    c = registry.counter("odd_total", labelnames=("path",))
    c.labels(path='a"b\\c\nd').inc()
    text = obs.registry_to_prometheus(registry)
    assert r'odd_total{path="a\"b\\c\nd"} 1' in text


def test_prometheus_non_finite_values(registry):
    registry.gauge("inf_gauge").set(float("inf"))
    text = obs.registry_to_prometheus(registry)
    assert "inf_gauge +Inf" in text


def test_registry_snapshot_is_json_serializable(registry):
    registry.counter("hits_total").inc()
    registry.histogram("lat").observe(0.1)
    payload = json.dumps(obs.registry_to_json(registry))
    assert "hits_total" in payload


def test_summarize_spans(tracer):
    for _ in range(3):
        with tracer.span("a"):
            pass
    with tracer.span("b"):
        pass
    rows = obs.summarize_spans(tracer.finished_spans())
    by_name = {r["name"]: r for r in rows}
    assert by_name["a"]["count"] == 3
    assert by_name["b"]["count"] == 1
    assert by_name["a"]["min_s"] <= by_name["a"]["max_s"]


# -- global switches --------------------------------------------------------


def test_set_enabled_and_reset_round_trip():
    was = obs.telemetry_enabled()
    try:
        obs.set_enabled(True)
        assert obs.telemetry_enabled()
        with obs.get_tracer().span("tmp"):
            pass
        obs.get_registry().counter("tmp_total").inc()
        obs.reset()
        assert len(obs.get_tracer()) == 0
        assert obs.get_registry().families() == []
        assert obs.telemetry_enabled()  # reset keeps enablement
    finally:
        obs.set_enabled(was)
        obs.reset()
