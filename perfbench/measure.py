"""Shared measurement pieces: metrics, the failure ledger, span self times.

Every timing in the benchmark comes from a :mod:`repro.obs` tracer span
opened by the benchmark's own files around a layer's public call.  A
span always measures its duration; it is only *collected* while the
tracer is enabled, which is what separates the untraced run (end-to-end
metrics) from the traced run (per-layer metrics).
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.obs.tracing import Span

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Failure messages kept verbatim in a result (the count is exact).
MAX_MESSAGES = 20

#: ROADMAP target for the share of an epoch no layer span covers.
UNATTRIBUTED_TARGET = 0.05


@dataclass
class Metric:
    """One reported number.

    Attributes:
        value: The measured value, unrounded.
        unit: Unit label (``ms``, ``s``, ``count``, ``share`` ...).
        n: Samples behind the value, where it summarizes samples.
        note: Extra qualifier, e.g. the percentile of a ``.tail``.
    """

    value: float
    unit: str
    n: int | None = None
    note: str = ""


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few messages.

    ``known`` records failures hit while setting up a workload: they are
    documented defects of the program (the twan-1m bootstrap publish),
    reported with every result but outside the measured epochs.
    """

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail_percentile(n: int) -> int:
    """The highest whole percentile with ``TAIL_BEYOND`` samples above it.

    Nearest-rank percentile ``q`` sits at rank ``ceil(q * n / 100)``;
    ``q = floor(100 * (n - 10) / n)`` leaves at least ten samples beyond
    it.  Below 20 samples that would fall under the median, so the tail
    is reported as the median (``p50``) with its sample count.
    """
    if n < 2 * TAIL_BEYOND:
        return 50
    return (100 * (n - TAIL_BEYOND)) // n


def median_metric(samples: list[float], unit: str) -> Metric:
    return Metric(statistics.median(samples), unit, n=len(samples))


def percentile_metric(
    samples: list[float], unit: str, pct: int = 100
) -> Metric:
    """Nearest-rank percentile ``pct``, lowered to the tail percentile.

    With the default ``pct`` this is the tail itself.  A fixed ``pct``
    keeps more samples beyond it, which steadies the value against rare
    pauses the program does not cause; with too few samples for ten
    beyond ``pct`` it falls back to :func:`tail_percentile`.
    """
    pct = min(pct, tail_percentile(len(samples)))
    if pct == 50:
        value = statistics.median(samples)
    else:
        ordered = sorted(samples)
        value = ordered[math.ceil(pct * len(ordered) / 100) - 1]
    return Metric(value, unit, n=len(samples), note=f"p{pct}")


def tail_metric(samples: list[float], unit: str) -> Metric:
    return percentile_metric(samples, unit)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Span analysis


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start_s
        for child in sorted(
            children.get(span.span_id, ()), key=lambda s: s.start_s
        ):
            lo = max(child.start_s, cursor)
            hi = min(child.end_s, span.end_s)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration_s - covered
    return out


@dataclass
class EpochBreakdown:
    """One traced epoch: its wall time split into layer self times.

    ``layers`` maps a layer name to the summed self time of every span
    attributed to it; ``unattributed`` is the epoch span's own self
    time.  By construction ``sum(layers) + unattributed == wall`` up to
    float rounding; :attr:`residual` reports the difference.
    """

    wall_s: float
    layers: dict[str, float]
    unattributed_s: float

    @property
    def residual_s(self) -> float:
        return self.wall_s - sum(self.layers.values()) - self.unattributed_s


def epoch_breakdowns(
    spans: list[Span],
    root_name: str,
    layer_of: Callable[[list[Span]], str],
) -> list[EpochBreakdown]:
    """Split every ``root_name`` span's wall time by layer.

    Args:
        spans: Collected spans of the run.
        root_name: Name of the per-epoch root span.
        layer_of: Maps a span's ancestry (root first, the span last) to
            the layer its self time belongs to.
    """
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    out: dict[int, EpochBreakdown] = {}
    for span in spans:
        chain = [span]
        while chain[0].parent_id is not None and chain[0].parent_id in by_id:
            chain.insert(0, by_id[chain[0].parent_id])
        root = chain[0]
        if root.name != root_name:
            continue
        brk = out.get(root.span_id)
        if brk is None:
            brk = out[root.span_id] = EpochBreakdown(
                wall_s=root.duration_s,
                layers={},
                unattributed_s=0.0,
            )
        if span is root:
            brk.unattributed_s = selfs[span.span_id]
        else:
            layer = layer_of(chain)
            brk.layers[layer] = brk.layers.get(layer, 0.0) + selfs[
                span.span_id
            ]
    return list(out.values())


def trace_metrics(
    spans: list[Span],
    root_name: str,
    layer_of: Callable[[list[Span]], str],
    missing_layer: str,
    traced_s: list[float],
    untraced_s: list[float],
) -> tuple[dict[str, Metric], dict]:
    """``unattributed_share`` and ``obs.trace_overhead_share``, plus a summary.

    Args:
        spans, root_name, layer_of: As for :func:`epoch_breakdowns`.
        missing_layer: Named in the summary when the unattributed share
            is above the ROADMAP's 5% target.
        traced_s, untraced_s: Epoch walls of the traced and untraced
            epochs of the same run.

    Returns:
        The two metrics and a JSON-ready summary: per-layer mean self
        ms per epoch, the unattributed ms, and the largest per-epoch
        accounting residual.
    """
    breakdowns = epoch_breakdowns(spans, root_name, layer_of)
    n = len(breakdowns)
    walls = sum(b.wall_s for b in breakdowns)
    unattributed = sum(b.unattributed_s for b in breakdowns)
    names = sorted({name for b in breakdowns for name in b.layers})
    per_layer_ms = {
        name: 1e3 * sum(b.layers.get(name, 0.0) for b in breakdowns) / n
        for name in names
    }
    share = unattributed / walls if walls > 0 else 0.0
    summary = {
        "epochs": n,
        "layer_self_ms": per_layer_ms,
        "unattributed_ms": 1e3 * unattributed / n,
        "epoch_wall_ms": 1e3 * walls / n,
        "max_residual_s": max(abs(b.residual_s) for b in breakdowns),
        "missing_layer": missing_layer if share > UNATTRIBUTED_TARGET else "",
    }
    metrics = {"unattributed_share": Metric(share, "share", n=n)}
    if untraced_s:
        metrics["obs.trace_overhead_share"] = Metric(
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
            "share",
            n=len(traced_s) + len(untraced_s),
        )
    return metrics, summary
