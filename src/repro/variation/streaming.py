"""Streaming sharded population execution with mergeable online accumulators.

The in-memory population fast path materialises full ``(steps, dice)`` trace
matrices, so memory — not compute — is the wall between 4k and 1M dice.
This module replaces those matrices with **bounded, mergeable accumulators**
condensed per fixed-size die shard:

* Shard determinism — :class:`ShardPlan` splits ``count`` dice into
  fixed-size shards; shard *i* samples its dice through
  :meth:`~repro.variation.sampler.DiePopulationSampler.sample_range`, whose
  block-based ``SeedSequence`` spawn keys make every die a pure function of
  ``(seed, die index)``.  A shard therefore sees bit-identical dice whether
  it runs alone, in-process, or on a process-pool worker.
* Exact discrete statistics — per-step frequencies live on the candidate
  table's shared grid, so :class:`TraceValueCounts` keeps exact value
  counts and :func:`weighted_percentile` reproduces ``np.percentile``
  (linear interpolation) **bit for bit**.  Limiting-factor histograms,
  final-limiting counts and SKU bin yields are integer counts — exact under
  any merge order.
* Bounded continuous statistics — per-step power/temperature traces and
  per-die summary metrics stream through fixed-range histograms
  (:class:`HistogramSpec`, :class:`TraceHistogram`,
  :class:`ScalarAccumulator`).  **Documented error bound:** every reported
  quantile lies within one bin width ``(hi - lo) / bins`` of the exact
  in-memory quantile, because the interpolated order statistics are each
  located inside their true bin.  The bound per metric rides along in
  :attr:`StreamingCellResult.quantile_error_bounds`.
* Merge discipline — every accumulator merge is associative, and the final
  statistics are order-independent: integer counts commute exactly, and
  float sums are keyed by shard index and reduced in ascending shard order
  at finalize time, so any re-chunking of the merge tree yields the same
  bits.  Exact per-shard partial sums double as a double-count guard: a
  shard contributing twice raises.

:class:`~repro.variation.population.PopulationStudy` with
``method="streaming"`` fans one :class:`StreamingCellShard` task per (cell,
shard) plus one binning task per (base spec, shard) through the Study
executor machinery and merges the results into the ordinary
:class:`~repro.variation.population.PopulationResult` shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.core.spec import SystemSpec, build_engine
from repro.pmu.dvfs import LIMITING_FACTOR_ORDER, LimitingFactor
from repro.pmu.pcode import Pcode
from repro.variation.binning import SCRAP_BIN, BinningPolicy, die_metrics
from repro.variation.distributions import VariationModel
from repro.variation.sampler import DiePopulation, DiePopulationSampler
from repro.workloads.dynamics import DynamicScenario

#: Default histogram resolution for continuous streaming statistics.  The
#: documented quantile error bound is ``(hi - lo) / bins`` per metric.
DEFAULT_HISTOGRAM_BINS = 256

#: Percentiles reported by every streaming trace/summary.
STREAM_PERCENTILES: Tuple[float, ...] = (5.0, 50.0, 95.0)

_PERCENTILE_KEYS = tuple(f"p{int(p)}" for p in STREAM_PERCENTILES)

_FACTOR_NAMES = tuple(factor.value for factor in LIMITING_FACTOR_ORDER)


# -- shard planning --------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """How a ``count``-die population splits into fixed-size shards.

    Construction validates shard feasibility with actionable errors — the
    error path shared by :meth:`BatchedDynamicsSimulator.run_population`,
    :class:`~repro.variation.population.PopulationStudy` and the CLI.
    """

    count: int
    shard_size: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"cannot shard an empty population: count must be >= 1 "
                f"(got {self.count}); sample at least one die"
            )
        if self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1 (got {self.shard_size}); pick a "
                f"positive shard size (4096 is a good default)"
            )
        if self.shard_size > self.count:
            raise ConfigurationError(
                f"shard_size {self.shard_size} exceeds the population count "
                f"{self.count}; use shard_size <= count (a single shard of "
                f"{self.count} dice already streams the whole population)"
            )

    @property
    def n_shards(self) -> int:
        """Number of shards (the last one may be short)."""
        return math.ceil(self.count / self.shard_size)

    def shard_bounds(self, index: int) -> Tuple[int, int]:
        """The die range ``[start, stop)`` of shard *index*."""
        if not 0 <= index < self.n_shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {self.n_shards} "
                f"shard(s) of {self.count} dice"
            )
        start = index * self.shard_size
        return start, min(start + self.shard_size, self.count)

    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        """Every shard's ``[start, stop)`` range, in shard order."""
        return tuple(
            self.shard_bounds(index) for index in range(self.n_shards)
        )


# -- exact weighted percentiles --------------------------------------------------------


def weighted_percentile(
    values: np.ndarray, counts: np.ndarray, percentiles: Sequence[float]
) -> np.ndarray:
    """``np.percentile`` (linear) of the multiset ``{values[i] x counts[i]}``.

    *values* must be sorted ascending.  Reproduces numpy's interpolation
    exactly — including the two-sided lerp numpy uses for accuracy — so
    exact value-count accumulators yield **bit-identical** percentiles to
    the in-memory ``np.percentile`` over the materialised samples.
    """
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


# -- histogram substrate ---------------------------------------------------------------


@dataclass(frozen=True)
class HistogramSpec(Codec):
    """A fixed-range uniform histogram grid.

    The range is derived deterministically from the nominal system and the
    scenario (never from the data), so every shard of a population builds
    the *same* grid — the precondition for exact count merging.  Values
    outside the range clip into the edge bins; exact minima/maxima are
    tracked separately by the accumulators.
    """

    lo: float
    hi: float
    bins: int = DEFAULT_HISTOGRAM_BINS

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ConfigurationError("a histogram needs at least one bin")
        if not self.hi > self.lo:
            raise ConfigurationError(
                f"histogram range [{self.lo}, {self.hi}] must be non-empty"
            )

    @property
    def width(self) -> float:
        """Bin width — the documented quantile error bound of this grid."""
        return (self.hi - self.lo) / self.bins

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index per value, clipped into ``[0, bins)``."""
        raw = np.floor(
            (np.asarray(values, dtype=float) - self.lo) / self.width
        )
        return np.clip(raw, 0, self.bins - 1).astype(np.int64)


def _histogram_quantiles(
    counts: np.ndarray,
    spec: HistogramSpec,
    minimum: float,
    maximum: float,
    percentiles: Sequence[float],
) -> np.ndarray:
    """Quantile estimates of one histogram row, within ``spec.width``.

    Both order statistics flanking the target rank are located inside their
    true bins (and clipped to the exact min/max), so the interpolated
    estimate sits within one bin width of ``np.percentile`` — the
    documented error bound.
    """
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


# -- mergeable accumulators ------------------------------------------------------------


@dataclass(frozen=True)
class ScalarSummary(Codec):
    """Finalized distribution summary of one per-die scalar metric.

    ``minimum``/``maximum``/``mean``/``count`` are exact (the mean reduces
    per-shard partial sums in canonical shard order); the quantiles carry
    the histogram's one-bin-width error bound.
    """

    count: int
    mean: float
    minimum: float
    maximum: float
    p5: float
    p50: float
    p95: float

    def quantiles(self) -> Tuple[float, float, float]:
        """The (p5, p50, p95) triple."""
        return (self.p5, self.p50, self.p95)


@dataclass(eq=False)
class ScalarAccumulator(Codec):
    """Streaming distribution of one scalar per die (histogram + exact bits).

    Exact: count, min, max, and the mean (per-shard ``(count, sum)``
    partials keyed by shard index, reduced in ascending shard order at
    finalize — bitwise invariant under merge order and re-chunking).
    Within ``spec.width``: the quantiles.
    """

    spec: HistogramSpec
    counts: NDArray[np.int64]
    minimum: float
    maximum: float
    shard_sums: Dict[int, Tuple[int, float]] = field(default_factory=dict)

    @classmethod
    def from_values(
        cls, spec: HistogramSpec, values: np.ndarray, shard_index: int
    ) -> "ScalarAccumulator":
        """Accumulate one shard's values."""
        values = np.asarray(values, dtype=float)
        if values.size < 1:
            raise ConfigurationError("an accumulator shard needs >= 1 value")
        counts = np.bincount(spec.bin_of(values), minlength=spec.bins)
        return cls(
            spec=spec,
            counts=counts.astype(np.int64),
            minimum=float(values.min()),
            maximum=float(values.max()),
            shard_sums={int(shard_index): (int(values.size), float(values.sum()))},
        )

    @property
    def count(self) -> int:
        """Total samples accumulated."""
        return int(self.counts.sum())

    def merge(self, other: "ScalarAccumulator") -> "ScalarAccumulator":
        """Associative, order-independent merge of two accumulators."""
        if self.spec != other.spec:
            raise ConfigurationError(
                "cannot merge accumulators over different histogram grids"
            )
        overlap = set(self.shard_sums) & set(other.shard_sums)
        if overlap:
            raise ConfigurationError(
                f"shard(s) {sorted(overlap)} contributed twice to the merge"
            )
        sums = dict(self.shard_sums)
        sums.update(other.shard_sums)
        return ScalarAccumulator(
            spec=self.spec,
            counts=self.counts + other.counts,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            shard_sums=sums,
        )

    def mean(self) -> float:
        """Exact mean: partial sums reduced in ascending shard order."""
        total = 0
        acc = 0.0
        for shard in sorted(self.shard_sums):
            n, s = self.shard_sums[shard]
            total += n
            acc += s
        return acc / total

    def quantiles(
        self, percentiles: Sequence[float] = STREAM_PERCENTILES
    ) -> Tuple[float, ...]:
        """Quantile estimates, each within ``spec.width`` of the exact value."""
        return tuple(
            float(v)
            for v in _histogram_quantiles(
                self.counts, self.spec, self.minimum, self.maximum, percentiles
            )
        )

    def summary(self) -> ScalarSummary:
        """Condense to the finalized :class:`ScalarSummary`."""
        p5, p50, p95 = self.quantiles()
        return ScalarSummary(
            count=self.count,
            mean=self.mean(),
            minimum=self.minimum,
            maximum=self.maximum,
            p5=p5,
            p50=p50,
            p95=p95,
        )


@dataclass(eq=False)
class TraceValueCounts(Codec):
    """Exact per-step value counts over a shared discrete value grid.

    Per-step frequencies live on the candidate table's common grid, so the
    union of observed values stays tiny no matter the population size —
    and :meth:`percentile_traces` reproduces the in-memory
    ``np.percentile(matrix, ..., axis=1)`` bit for bit via
    :func:`weighted_percentile`.
    """

    values: NDArray[np.float64]  # (V,) sorted ascending
    counts: NDArray[np.int64]  # (steps, V)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "TraceValueCounts":
        """Accumulate one shard's ``(steps, dice)`` trace matrix."""
        matrix = np.ascontiguousarray(matrix, dtype=float)
        steps = matrix.shape[0]
        values = np.unique(matrix)
        index = np.searchsorted(values, matrix)
        rows = np.arange(steps)[:, None]
        flat = (rows * values.size + index).ravel()
        counts = np.bincount(flat, minlength=steps * values.size)
        return cls(values=values, counts=counts.reshape(steps, values.size))

    @property
    def steps(self) -> int:
        """Number of trace steps."""
        return self.counts.shape[0]

    def merge(self, other: "TraceValueCounts") -> "TraceValueCounts":
        """Associative merge: union the value grids, add the counts."""
        if self.steps != other.steps:
            raise ConfigurationError(
                "cannot merge trace counts with different step counts"
            )
        union = np.union1d(self.values, other.values)
        counts = np.zeros((self.steps, union.size), dtype=np.int64)
        counts[:, np.searchsorted(union, self.values)] += self.counts
        counts[:, np.searchsorted(union, other.values)] += other.counts
        return TraceValueCounts(values=union, counts=counts)

    def percentile_traces(
        self, percentiles: Sequence[float] = STREAM_PERCENTILES
    ) -> Dict[str, Tuple[float, ...]]:
        """Exact per-step percentile traces (``{"p5": (...), ...}``)."""
        traces = np.empty((self.steps, len(percentiles)))
        for step in range(self.steps):
            traces[step] = weighted_percentile(
                self.values, self.counts[step], percentiles
            )
        return {
            key: tuple(traces[:, column].tolist())
            for column, key in enumerate(_PERCENTILE_KEYS)
        }


@dataclass(eq=False)
class TraceHistogram(Codec):
    """Per-step histograms of one continuous trace over a fixed grid."""

    spec: HistogramSpec
    counts: NDArray[np.int64]  # (steps, bins)
    minima: NDArray[np.float64]  # (steps,) exact per-step minimum
    maxima: NDArray[np.float64]  # (steps,) exact per-step maximum

    @classmethod
    def from_matrix(
        cls, spec: HistogramSpec, matrix: np.ndarray
    ) -> "TraceHistogram":
        """Accumulate one shard's ``(steps, dice)`` trace matrix."""
        matrix = np.ascontiguousarray(matrix, dtype=float)
        steps = matrix.shape[0]
        index = spec.bin_of(matrix)
        rows = np.arange(steps)[:, None]
        flat = (rows * spec.bins + index).ravel()
        counts = np.bincount(flat, minlength=steps * spec.bins)
        return cls(
            spec=spec,
            counts=counts.reshape(steps, spec.bins),
            minima=matrix.min(axis=1),
            maxima=matrix.max(axis=1),
        )

    @property
    def steps(self) -> int:
        """Number of trace steps."""
        return self.counts.shape[0]

    def merge(self, other: "TraceHistogram") -> "TraceHistogram":
        """Associative merge: add counts, tighten per-step extrema."""
        if self.spec != other.spec or self.steps != other.steps:
            raise ConfigurationError(
                "cannot merge trace histograms with different grids or steps"
            )
        return TraceHistogram(
            spec=self.spec,
            counts=self.counts + other.counts,
            minima=np.minimum(self.minima, other.minima),
            maxima=np.maximum(self.maxima, other.maxima),
        )

    def percentile_traces(
        self, percentiles: Sequence[float] = STREAM_PERCENTILES
    ) -> Dict[str, Tuple[float, ...]]:
        """Per-step percentile traces, each within ``spec.width``."""
        traces = np.empty((self.steps, len(percentiles)))
        for step in range(self.steps):
            traces[step] = _histogram_quantiles(
                self.counts[step],
                self.spec,
                float(self.minima[step]),
                float(self.maxima[step]),
                percentiles,
            )
        return {
            key: tuple(traces[:, column].tolist())
            for column, key in enumerate(_PERCENTILE_KEYS)
        }


@dataclass(eq=False)
class TraceCounts(Codec):
    """Exact per-step counts over a fixed name alphabet (limiting factors)."""

    names: Tuple[str, ...]
    counts: NDArray[np.int64]  # (steps, len(names))

    @classmethod
    def from_codes(
        cls, codes: np.ndarray, names: Tuple[str, ...]
    ) -> "TraceCounts":
        """Accumulate one shard's ``(steps, dice)`` integer code matrix."""
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        steps = codes.shape[0]
        rows = np.arange(steps)[:, None]
        flat = (rows * len(names) + codes).ravel()
        counts = np.bincount(flat, minlength=steps * len(names))
        return cls(names=names, counts=counts.reshape(steps, len(names)))

    @property
    def steps(self) -> int:
        """Number of trace steps."""
        return self.counts.shape[0]

    def merge(self, other: "TraceCounts") -> "TraceCounts":
        """Associative merge: add the exact counts."""
        if self.names != other.names or self.steps != other.steps:
            raise ConfigurationError(
                "cannot merge trace counts with different alphabets or steps"
            )
        return TraceCounts(names=self.names, counts=self.counts + other.counts)


# -- the finalized streaming results ---------------------------------------------------


@dataclass(frozen=True)
class StreamingBinningResult(Codec):
    """Exact SKU binning of a streamed population (counts, no assignments).

    The per-die assignment tuple of the in-memory
    :class:`~repro.variation.population.SpecBinningResult` is O(N); the
    streaming path keeps only the exact integer bin counts, whose yield
    fractions equal the in-memory report's fractions bit for bit (same
    integers, same division).
    """

    kind: ClassVar[str] = "streaming_binning"

    spec_name: str
    counts: Dict[str, int]
    count: int

    @property
    def yield_fractions(self) -> Dict[str, float]:
        """Exact yield fraction per bin (including scrap)."""
        return {name: c / self.count for name, c in self.counts.items()}


@dataclass(frozen=True)
class StreamingCellResult(Codec):
    """Streaming summary of one (spec variant, scenario) grid cell.

    The same percentile-trace shape as the in-memory
    :class:`~repro.variation.population.PopulationCellResult`, but with the
    O(N) per-die tuples replaced by exact counts and bounded summaries:

    * ``frequency_percentiles_hz``, ``limiting_histogram`` and
      ``final_limiting_counts`` are **exact** (equal to the in-memory path
      bit for bit);
    * ``power_percentiles_w``, ``temperature_percentiles_c`` and the
      per-die summaries carry the one-bin-width error bound recorded in
      ``quantile_error_bounds``.

    ``spec`` is ``None`` for cells finalized straight from the dynamics
    engine (``run_population(..., shard_size=N)``), which runs below the
    spec layer; study cells always carry their owning spec.
    """

    kind: ClassVar[str] = "streaming_cell"

    spec: Optional[SystemSpec]
    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    count: int
    shard_size: int
    times_s: Tuple[float, ...]
    frequency_percentiles_hz: Dict[str, Tuple[float, ...]]
    power_percentiles_w: Dict[str, Tuple[float, ...]]
    temperature_percentiles_c: Dict[str, Tuple[float, ...]]
    limiting_histogram: Dict[str, float]
    final_limiting_counts: Dict[str, int]
    sustained_summary: ScalarSummary
    average_power_summary: ScalarSummary
    peak_temperature_summary: ScalarSummary
    sustained_by_bin: Dict[str, ScalarSummary]
    package_cstates: Tuple[str, ...]
    quantile_error_bounds: Dict[str, float]

    @property
    def n_shards(self) -> int:
        """Number of shards the cell streamed through."""
        return math.ceil(self.count / self.shard_size)

    def sustained_quantiles_ghz(
        self, quantiles: Sequence[float] = STREAM_PERCENTILES
    ) -> Tuple[float, ...]:
        """Quantiles of the per-die sustained frequency, in GHz.

        Streaming cells keep the fixed (p5, p50, p95) summary; other
        quantiles would need the discarded per-die values.
        """
        return tuple(
            v / 1e9
            for v in self._select_quantiles(self.sustained_summary, quantiles)
        )

    def sustained_by_bin_ghz(
        self, quantiles: Sequence[float] = (5.0, 95.0)
    ) -> Dict[str, Tuple[float, ...]]:
        """Per-bin sustained-frequency quantiles (GHz); empty bins omitted."""
        return {
            name: tuple(
                v / 1e9 for v in self._select_quantiles(summary, quantiles)
            )
            for name, summary in self.sustained_by_bin.items()
        }

    @staticmethod
    def _select_quantiles(
        summary: ScalarSummary, quantiles: Sequence[float]
    ) -> Tuple[float, ...]:
        available = dict(zip(STREAM_PERCENTILES, summary.quantiles()))
        missing = [q for q in quantiles if q not in available]
        if missing:
            raise ConfigurationError(
                f"streaming cells keep only the {list(STREAM_PERCENTILES)} "
                f"quantiles; {missing} would need the per-die values the "
                f"streaming path discards (use method='fast' for those)"
            )
        return tuple(available[q] for q in quantiles)


# -- the per-shard accumulator ---------------------------------------------------------


@dataclass(eq=False)
class StreamingCellShard(Codec):
    """One shard's (or a merged run of shards') cell accumulators.

    Produced by :func:`run_cell_shard` / :func:`condense_population_traces`,
    merged associatively, finalized into a :class:`StreamingCellResult`.
    Everything here is bounded by the trace length and the histogram
    resolution — never by the population size.
    """

    spec: Optional[SystemSpec]
    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    count: int
    times_s: NDArray[np.float64]
    active_steps: NDArray[np.bool_]  # (steps,) structural, equal across shards
    cstate_names: Tuple[str, ...]
    frequency: TraceValueCounts
    power: TraceHistogram
    temperature: TraceHistogram
    limiting: TraceCounts
    final_limiting_counts: Dict[str, int]
    sustained: ScalarAccumulator
    average_power: ScalarAccumulator
    peak_temperature: ScalarAccumulator
    sustained_by_bin: Dict[str, ScalarAccumulator]

    def merge(self, other: "StreamingCellShard") -> "StreamingCellShard":
        """Associative merge of two disjoint shard runs of the same cell."""
        if self.spec != other.spec or self.scenario_name != other.scenario_name:
            raise ConfigurationError(
                "cannot merge shards of different population cells"
            )
        structural = (
            self.time_step_s == other.time_step_s
            and self.pl1_w == other.pl1_w
            and self.pl2_w == other.pl2_w
            and np.array_equal(self.times_s, other.times_s)
            and np.array_equal(self.active_steps, other.active_steps)
            and self.cstate_names == other.cstate_names
        )
        if not structural:
            raise ConfigurationError(
                "shards of one cell disagree on the timeline structure; "
                "they were not produced from the same (system, scenario)"
            )
        final_counts = dict(self.final_limiting_counts)
        for name, c in other.final_limiting_counts.items():
            final_counts[name] = final_counts.get(name, 0) + c
        by_bin = dict(self.sustained_by_bin)
        for name, accumulator in other.sustained_by_bin.items():
            present = by_bin.get(name)
            by_bin[name] = (
                accumulator if present is None else present.merge(accumulator)
            )
        return StreamingCellShard(
            spec=self.spec,
            scenario_name=self.scenario_name,
            time_step_s=self.time_step_s,
            pl1_w=self.pl1_w,
            pl2_w=self.pl2_w,
            count=self.count + other.count,
            times_s=self.times_s,
            active_steps=self.active_steps,
            cstate_names=self.cstate_names,
            frequency=self.frequency.merge(other.frequency),
            power=self.power.merge(other.power),
            temperature=self.temperature.merge(other.temperature),
            limiting=self.limiting.merge(other.limiting),
            final_limiting_counts=final_counts,
            sustained=self.sustained.merge(other.sustained),
            average_power=self.average_power.merge(other.average_power),
            peak_temperature=self.peak_temperature.merge(other.peak_temperature),
            sustained_by_bin=by_bin,
        )

    def finalize(self, shard_size: int) -> StreamingCellResult:
        """Condense the merged accumulators into the cell result."""
        active_rows = np.flatnonzero(self.active_steps)
        histogram: Dict[str, float] = {}
        if len(active_rows):
            factor_counts = self.limiting.counts[active_rows].sum(axis=0)
            total = len(active_rows) * self.count
            for name, c in zip(self.limiting.names, factor_counts):
                if c:
                    histogram[str(name)] = float(int(c) / total)
        return StreamingCellResult(
            spec=self.spec,
            scenario_name=self.scenario_name,
            time_step_s=self.time_step_s,
            pl1_w=self.pl1_w,
            pl2_w=self.pl2_w,
            count=self.count,
            shard_size=int(shard_size),
            times_s=tuple(np.asarray(self.times_s).tolist()),
            frequency_percentiles_hz=self.frequency.percentile_traces(),
            power_percentiles_w=self.power.percentile_traces(),
            temperature_percentiles_c=self.temperature.percentile_traces(),
            limiting_histogram=histogram,
            final_limiting_counts=dict(self.final_limiting_counts),
            sustained_summary=self.sustained.summary(),
            average_power_summary=self.average_power.summary(),
            peak_temperature_summary=self.peak_temperature.summary(),
            sustained_by_bin={
                name: accumulator.summary()
                for name, accumulator in sorted(self.sustained_by_bin.items())
            },
            package_cstates=self.cstate_names,
            quantile_error_bounds={
                "frequency_hz": 0.0,
                "power_w": self.power.spec.width,
                "temperature_c": self.temperature.spec.width,
                "sustained_frequency_hz": self.sustained.spec.width,
                "average_power_w": self.average_power.spec.width,
                "peak_temperature_c": self.peak_temperature.spec.width,
            },
        )


# -- condensation ----------------------------------------------------------------------


def _cell_histogram_specs(
    pcode: Pcode,
    scenario: DynamicScenario,
    pl2_w: float,
    bins: int = DEFAULT_HISTOGRAM_BINS,
) -> Dict[str, HistogramSpec]:
    """Deterministic histogram grids for one cell's continuous metrics.

    Derived from the nominal system and the scenario only — never from the
    sampled data — so every shard of a population builds identical grids.
    """
    processor = pcode.processor
    thermal_limits = processor.thermal_model().limits
    fmax = 0.0
    for phase in scenario.phases:
        if not phase.is_idle:
            table = pcode.dvfs_policy.candidate_table(phase.demand())
            fmax = max(fmax, float(np.max(table.frequencies_hz)))
    if fmax <= 0.0:
        fmax = 1.0  # idle-only scenario: every frequency is exactly 0 Hz
    temp_lo = thermal_limits.ambient_c
    if scenario.initial_temperature_c is not None:
        temp_lo = min(temp_lo, scenario.initial_temperature_c)
    temp_hi = max(processor.tjmax_c, temp_lo + 1.0)
    power_hi = pl2_w if pl2_w > 0.0 else 1.0
    return {
        "frequency_hz": HistogramSpec(0.0, fmax, bins),
        "power_w": HistogramSpec(0.0, power_hi, bins),
        "temperature_c": HistogramSpec(temp_lo, temp_hi, bins),
    }


def condense_population_traces(
    pcode: Pcode,
    scenario: DynamicScenario,
    traces: Any,
    shard_index: int,
    spec: Optional[SystemSpec] = None,
    binning: Optional[BinningPolicy] = None,
    population: Optional[DiePopulation] = None,
    binning_pcode: Optional[Pcode] = None,
) -> StreamingCellShard:
    """Condense one shard's raw lockstep traces into bounded accumulators.

    Mirrors the in-memory ``_cell_from_matrices`` condensation exactly where
    exactness is promised (active rows, the sustained tail, limiting
    counts); continuous metrics land in the deterministic histogram grids of
    :func:`_cell_histogram_specs`.  When *binning* and *population* are
    given, per-bin sustained accumulators are built from the shard's bin
    assignments measured on *binning_pcode* (default: *pcode*) — pass the
    **base** spec's pcode to match the in-memory path, whose bin join uses
    the base design's candidate table (Fmax feasibility shifts with TDP, so
    a TDP variant's own table would bin edge dice differently).
    """
    frequencies = np.ascontiguousarray(traces.frequencies_hz)
    powers = np.ascontiguousarray(traces.package_powers_w)
    temperatures = np.ascontiguousarray(traces.temperatures_c)
    count = frequencies.shape[1]
    specs = _cell_histogram_specs(pcode, scenario, traces.pl2_w)
    sustained_spec = specs["frequency_hz"]
    active_steps = (frequencies > 0.0).any(axis=1)
    active_rows = np.flatnonzero(active_steps)
    final_counts: Dict[str, int] = {}
    if len(active_rows):
        tail = active_rows[-max(1, len(active_rows) // 10) :]
        sustained = frequencies[tail].mean(axis=0)
        last_codes = np.bincount(
            traces.limiting_codes[active_rows[-1]],
            minlength=len(_FACTOR_NAMES),
        )
        for name, c in zip(_FACTOR_NAMES, last_codes):
            if c:
                final_counts[name] = int(c)
    else:
        sustained = np.zeros(count)
        final_counts[LimitingFactor.NONE.value] = count
    by_bin: Dict[str, ScalarAccumulator] = {}
    if binning is not None:
        if population is None:
            raise ConfigurationError(
                "per-bin sustained accumulators need the shard population"
            )
        measured_on = binning_pcode if binning_pcode is not None else pcode
        assignments = binning.assign(die_metrics(measured_on, population))
        for index, name in enumerate((*binning.bin_names, SCRAP_BIN)):
            selector = -1 if name == SCRAP_BIN else index
            members = assignments == selector
            if members.any():
                by_bin[name] = ScalarAccumulator.from_values(
                    sustained_spec, sustained[members], shard_index
                )
    return StreamingCellShard(
        spec=spec,
        scenario_name=traces.scenario_name,
        time_step_s=traces.time_step_s,
        pl1_w=traces.pl1_w,
        pl2_w=traces.pl2_w,
        count=count,
        times_s=np.asarray(traces.times_s),
        active_steps=active_steps,
        cstate_names=tuple(traces.package_cstate_names()),
        frequency=TraceValueCounts.from_matrix(frequencies),
        power=TraceHistogram.from_matrix(specs["power_w"], powers),
        temperature=TraceHistogram.from_matrix(
            specs["temperature_c"], temperatures
        ),
        limiting=TraceCounts.from_codes(traces.limiting_codes, _FACTOR_NAMES),
        final_limiting_counts=final_counts,
        sustained=ScalarAccumulator.from_values(
            sustained_spec, sustained, shard_index
        ),
        average_power=ScalarAccumulator.from_values(
            specs["power_w"], powers.mean(axis=0), shard_index
        ),
        peak_temperature=ScalarAccumulator.from_values(
            specs["temperature_c"], temperatures.max(axis=0), shard_index
        ),
        sustained_by_bin=by_bin,
    )


def merge_cell_shards(
    shards: Sequence[StreamingCellShard],
) -> StreamingCellShard:
    """Merge shard accumulators (associative; any order yields the same bits)."""
    if not shards:
        raise ConfigurationError("cannot merge zero shards")
    merged = shards[0]
    for shard in shards[1:]:
        merged = merged.merge(shard)
    return merged


# -- study task functions (module-level so process pools can pickle them) --------------


def run_cell_shard(
    spec: SystemSpec,
    scenario: DynamicScenario,
    variations: VariationModel,
    count: int,
    seed: int,
    shard_index: int,
    shard_size: int,
    binning: BinningPolicy,
    binning_spec: Optional[SystemSpec] = None,
) -> StreamingCellShard:
    """One streaming grid-cell shard: sample, step in lockstep, condense.

    The task samples only its own die range (O(shard) memory even on a
    process-pool worker) and returns bounded accumulators — never a full
    trace matrix.  *binning_spec* (default: *spec*) is the design the bin
    assignments are measured on; population studies pass the base spec so
    every TDP variant's per-bin statistics join against the same bins.
    """
    plan = ShardPlan(count=count, shard_size=shard_size)
    start, stop = plan.shard_bounds(shard_index)
    population = DiePopulationSampler(variations).sample_range(
        start, stop, seed
    )
    engine = build_engine(spec)
    traces = engine.run_population(scenario, population)
    binning_pcode = (
        None
        if binning_spec is None or binning_spec == spec
        else build_engine(binning_spec).pcode
    )
    return condense_population_traces(
        engine.pcode,
        scenario,
        traces,
        shard_index,
        spec=spec,
        binning=binning,
        population=population,
        binning_pcode=binning_pcode,
    )


def run_binning_shard(
    spec: SystemSpec,
    variations: VariationModel,
    count: int,
    seed: int,
    shard_index: int,
    shard_size: int,
    binning: BinningPolicy,
) -> Dict[str, int]:
    """One streaming binning shard: exact bin counts of the shard's dice."""
    plan = ShardPlan(count=count, shard_size=shard_size)
    start, stop = plan.shard_bounds(shard_index)
    population = DiePopulationSampler(variations).sample_range(
        start, stop, seed
    )
    assignments = binning.assign(
        die_metrics(build_engine(spec).pcode, population)
    )
    counts: Dict[str, int] = {}
    for index, name in enumerate((*binning.bin_names, SCRAP_BIN)):
        selector = -1 if name == SCRAP_BIN else index
        counts[name] = int((assignments == selector).sum())
    return counts


def merge_binning_shards(
    spec_name: str,
    shard_counts: Sequence[Mapping[str, int]],
    count: int,
) -> StreamingBinningResult:
    """Merge per-shard bin counts into the exact streaming binning result."""
    if not shard_counts:
        raise ConfigurationError("cannot merge zero binning shards")
    names: List[str] = list(shard_counts[0])
    merged = {name: 0 for name in names}
    for counts in shard_counts:
        if set(counts) != set(merged):
            raise ConfigurationError(
                "binning shards disagree on the bin alphabet"
            )
        for name, c in counts.items():
            merged[name] += int(c)
    total = sum(merged.values())
    if total != count:
        raise ConfigurationError(
            f"binning shards cover {total} dice but the population has "
            f"{count}; a shard is missing or duplicated"
        )
    return StreamingBinningResult(
        spec_name=spec_name, counts=merged, count=count
    )
