"""Batched FastSSP: many MaxEndpointFlow solves in one call (§8).

The paper's discussion ("Parallelism in SSP"): MegaTE must solve
``O(N²)`` subset-sum problems per interval, and CPU-thread limits cap the
speedup; they propose batching the SSPs TEAL-style.  This module provides
the CPU version of that batching: the batch is triaged vectorized —
empty, zero-capacity and everything-fits instances (the overwhelming
majority in production, where most site pairs are uncontended) are
resolved in one NumPy pass, and only genuinely contended instances run
the full four-step FastSSP.

:func:`triage_ssp_batch` exposes the vectorized triage on its own so the
two-stage optimizer can resolve uncontended site pairs in bulk and route
*only* the contended residue into the array-batched FastSSP kernel
(:mod:`repro.core.fastssp_batch`).  :func:`solve_ssp_batch` composes
triage with that kernel for a complete drop-in batch solve.

Results are identical to calling :func:`repro.core.fastssp.fast_ssp` per
instance (property-tested), making the batch a drop-in accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fastssp import FastSSPResult

__all__ = [
    "BatchSSPInstance",
    "solve_ssp_batch",
    "triage_ssp_batch",
    "triage_ssp_segments",
]


@dataclass(frozen=True)
class BatchSSPInstance:
    """One subset-sum instance within a batch.

    Attributes:
        values: Demand volumes.
        capacity: The allocation ``F_{k,t}`` to fill.
        epsilon: FastSSP precision knob.
    """

    values: np.ndarray
    capacity: float
    epsilon: float = 0.1


_EMPTY_SELECTION = np.empty(0, dtype=np.int64)


def _empty_result(capacity: float) -> FastSSPResult:
    return FastSSPResult(
        selected_array=_EMPTY_SELECTION,
        total=0.0,
        capacity=float(max(capacity, 0.0)),
        num_clusters=0,
        dp_selected_volume=0.0,
        greedy_selected_volume=0.0,
        error_bound=0.0,
    )


def _select_all_result(size: int, total: float, capacity: float) -> FastSSPResult:
    return FastSSPResult(
        selected_array=np.arange(size, dtype=np.int64),
        total=float(total),
        capacity=float(capacity),
        num_clusters=0,
        dp_selected_volume=float(total),
        greedy_selected_volume=0.0,
        error_bound=0.0,
    )


def triage_ssp_batch(
    instances: list[BatchSSPInstance],
) -> tuple[list[FastSSPResult | None], np.ndarray]:
    """Resolve a batch's fast paths in one vectorized NumPy pass.

    Classifies every instance from three arrays (sizes, totals,
    capacities) built in a single sweep:

    * zero/negative capacity or empty instances short-circuit to an
      empty result;
    * instances whose total demand fits the capacity select everything;
    * the rest are *contended* and left unsolved.

    Returns:
        ``(results, contended)`` where ``results`` holds a
        :class:`FastSSPResult` for every fast-path instance (``None``
        for contended ones) and ``contended`` is the index array of
        instances that need a full FastSSP solve.  Fast-path results are
        bit-identical to what :func:`fast_ssp` returns for them.
    """
    n = len(instances)
    results: list[FastSSPResult | None] = [None] * n
    if n == 0:
        return results, np.empty(0, dtype=np.int64)

    arrays = [
        np.asarray(inst.values, dtype=np.float64) for inst in instances
    ]
    sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=n)
    totals = np.fromiter(
        (a.sum() if a.size else 0.0 for a in arrays),
        dtype=np.float64,
        count=n,
    )
    capacities = np.fromiter(
        (inst.capacity for inst in instances), dtype=np.float64, count=n
    )

    trivial = (capacities <= 0) | (sizes == 0)
    fits = ~trivial & (totals <= capacities)
    for idx in np.flatnonzero(trivial):
        results[idx] = _empty_result(float(capacities[idx]))
    for idx in np.flatnonzero(fits):
        results[idx] = _select_all_result(
            int(sizes[idx]), float(totals[idx]), float(capacities[idx])
        )
    contended = np.flatnonzero(~trivial & ~fits)
    return results, contended


def triage_ssp_segments(
    totals: np.ndarray,
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Triage CSR-segment SSP instances without materializing objects.

    The columnar twin of :func:`triage_ssp_batch`: the caller owns a CSR
    layout (flat class volumes sliced by segment bounds) and supplies the
    per-instance demand totals and target capacities directly — no
    :class:`BatchSSPInstance` list is built.  Instances are assumed
    non-trivial (non-empty values, positive capacity), which is what the
    optimizer's candidate pre-filter guarantees; the classification is
    then a single vectorized comparison.

    Args:
        totals: Per-instance demand total (``Σ values``), computed by the
            caller — typically the already-available ``SiteMerge`` sums,
            so classification is bit-identical to summing per instance.
        capacities: Per-instance allocation to fill (all positive).

    Returns:
        ``(fits, contended)`` index arrays into the instance list:
        ``fits`` instances select everything (total fits the capacity),
        ``contended`` ones need a full FastSSP solve.
    """
    totals = np.asarray(totals, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    fits_mask = totals <= capacities
    return np.flatnonzero(fits_mask), np.flatnonzero(~fits_mask)


def solve_ssp_batch(
    instances: list[BatchSSPInstance],
) -> list[FastSSPResult]:
    """Solve a batch of FastSSP instances.

    Fast paths are resolved vectorized across the batch via
    :func:`triage_ssp_batch`.  The contended residue runs through the
    array-batched kernel (:func:`repro.core.fastssp_batch.
    fast_ssp_batch`, grouped by epsilon).

    Args:
        instances: The batch.

    Returns:
        One :class:`FastSSPResult` per instance, in input order,
        identical to per-instance :func:`fast_ssp` calls.
    """
    from .fastssp_batch import fast_ssp_batch

    results, contended = triage_ssp_batch(instances)
    if contended.size:
        by_epsilon: dict[float, list[int]] = {}
        for idx in contended.tolist():
            by_epsilon.setdefault(float(instances[idx].epsilon), []).append(
                idx
            )
        for epsilon, idxs in by_epsilon.items():
            arrays = [
                np.asarray(instances[i].values, dtype=np.float64)
                for i in idxs
            ]
            offsets = np.concatenate(
                ([0], np.cumsum([a.size for a in arrays]))
            ).astype(np.int64)
            flat = (
                np.concatenate(arrays)
                if offsets[-1]
                else np.empty(0, dtype=np.float64)
            )
            caps = np.asarray(
                [instances[i].capacity for i in idxs], dtype=np.float64
            )
            batched = fast_ssp_batch(flat, offsets, caps, epsilon=epsilon)
            for j, i in enumerate(idxs):
                results[i] = batched.result(j)
    if any(r is None for r in results):  # pragma: no cover - defensive
        raise RuntimeError("batch left unsolved instances")
    return results  # type: ignore[return-value]
