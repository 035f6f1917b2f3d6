"""Per-row quantiles: the oracle of the streaming accumulators' row-wise path.

:meth:`~repro.variation.streaming.TraceValueCounts.percentile_traces` and
:meth:`~repro.variation.streaming.TraceHistogram.percentile_traces` read
every step of a ``(steps, bins)`` count matrix in one pass.  The oracle
reads one step at a time: :func:`weighted_percentile` and
:func:`histogram_quantiles` take one row each and locate its order
statistics with ``np.searchsorted``.  The two must agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.variation.streaming import (
    STREAM_PERCENTILES,
    HistogramSpec,
    TraceHistogram,
    TraceValueCounts,
)


def weighted_percentile(
    values: np.ndarray, counts: np.ndarray, percentiles: Sequence[float]
) -> np.ndarray:
    """``np.percentile`` (linear) of the multiset ``{values[i] x counts[i]}``."""
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if values.shape != counts.shape or values.ndim != 1:
        raise ConfigurationError(
            "values and counts must be 1-D arrays of equal length"
        )
    if (counts < 0).any():
        raise ConfigurationError("counts must be non-negative")
    if values.size > 1 and (np.diff(values) < 0).any():
        raise ConfigurationError("values must be sorted ascending")
    ps = np.asarray(percentiles, dtype=float)
    if ((ps < 0.0) | (ps > 100.0)).any():
        raise ConfigurationError("percentiles must lie in [0, 100]")
    total = int(counts.sum())
    if total < 1:
        raise ConfigurationError("percentiles need at least one sample")
    ranks = ps / 100.0 * (total - 1)
    lower = np.floor(ranks).astype(np.int64)
    upper = np.ceil(ranks).astype(np.int64)
    cumulative = np.cumsum(counts)
    x_lo = values[np.searchsorted(cumulative, lower, side="right")]
    x_hi = values[np.searchsorted(cumulative, upper, side="right")]
    gamma = ranks - lower
    diff = x_hi - x_lo
    return np.where(gamma < 0.5, x_lo + diff * gamma, x_hi - diff * (1.0 - gamma))


def histogram_quantiles(
    counts: np.ndarray,
    spec: HistogramSpec,
    minimum: float,
    maximum: float,
    percentiles: Sequence[float],
) -> np.ndarray:
    """Quantile estimates of one histogram row, within ``spec.width``."""
    total = int(counts.sum())
    if total < 1:
        raise ConfigurationError("quantiles need at least one sample")
    ps = np.asarray(percentiles, dtype=float)
    ranks = ps / 100.0 * (total - 1)
    lower = np.floor(ranks).astype(np.int64)
    upper = np.ceil(ranks).astype(np.int64)
    cumulative = np.cumsum(counts)

    def order_statistic(k: np.ndarray) -> np.ndarray:
        bin_index = np.searchsorted(cumulative, k, side="right")
        before = np.where(bin_index > 0, cumulative[bin_index - 1], 0)
        inside = counts[bin_index]
        fraction = (k - before + 0.5) / inside
        estimate = spec.lo + spec.width * (bin_index + fraction)
        return np.clip(estimate, minimum, maximum)

    x_lo = order_statistic(lower)
    x_hi = order_statistic(upper)
    gamma = ranks - lower
    diff = x_hi - x_lo
    return np.where(gamma < 0.5, x_lo + diff * gamma, x_hi - diff * (1.0 - gamma))


def value_percentile_matrix(accumulator: TraceValueCounts) -> np.ndarray:
    """The ``(steps, len(STREAM_PERCENTILES))`` exact percentiles, step by step."""
    traces = np.empty((accumulator.steps, len(STREAM_PERCENTILES)))
    for step in range(accumulator.steps):
        traces[step] = weighted_percentile(
            accumulator.values, accumulator.counts[step], STREAM_PERCENTILES
        )
    return traces


def histogram_percentile_matrix(histogram: TraceHistogram) -> np.ndarray:
    """The ``(steps, len(STREAM_PERCENTILES))`` histogram quantiles, step by step."""
    traces = np.empty((histogram.steps, len(STREAM_PERCENTILES)))
    for step in range(histogram.steps):
        traces[step] = histogram_quantiles(
            histogram.counts[step],
            histogram.spec,
            float(histogram.minima[step]),
            float(histogram.maxima[step]),
            STREAM_PERCENTILES,
        )
    return traces
