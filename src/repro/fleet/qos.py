"""Per-scenario QoS metrics from dynamic-run traces.

A :class:`QosReport` judges one :class:`~repro.sim.metrics.DynamicRunResult`
against a frequency SLO: the **violation rate** (fraction of active steps
below the SLO frequency), the **throttle residency** by limiting factor
(power vs thermal), and a **p99 latency proxy** — the 99th-percentile of
the per-step normalised service time ``slo_frequency / frequency`` (1.0
means exactly at SLO; 1.25 means the slowest percentile of work ran 25%
longer than the SLO allows).

:class:`QosAccumulator` is the mergeable builder behind it.  It keeps the
raw active-step samples, so accumulation is **exactly** chunk-invariant:
feeding a trace step-by-step, in arbitrary chunks, or whole produces
bit-identical reports — including the p99 order statistic, which no
summary-only accumulator can promise.

:class:`EnsembleQos` pools member reports of one seeded scenario ensemble
(weighted by active steps, worst-case p99), the aggregation surfaced by
``Study.over_fleet``.  Both report types serialise through the shared
codec (:mod:`repro.common.codec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive
from repro.sim.metrics import (
    THROTTLE_FACTORS,
    DynamicRunResult,
    encode_limiting_factors,
    sequential_sum,
    throttle_shares,
)

#: Default frequency SLO: the floor below which an active step counts as a
#: violation.  2.0 GHz sits between the paper's TDP-limited sustained
#: frequencies and its turbo range, so both verdict sides are exercised.
DEFAULT_SLO_FREQUENCY_HZ = 2.0e9

#: Order-statistic rank of the latency proxy (p99).
LATENCY_PERCENTILE = 0.99


def _percentile(samples: np.ndarray, fraction: float) -> float:
    """The exact ``ceil(fraction * n)``-th order statistic of *samples*.

    A plain order statistic (no interpolation) so the result depends only
    on the sample *set*, never on how it was accumulated.
    """
    rank = min(samples.size, max(1, math.ceil(fraction * samples.size)))
    return float(np.partition(samples, rank - 1)[rank - 1])


@dataclass(frozen=True)
class QosReport(Codec):
    """QoS verdict of one dynamic run against a frequency SLO.

    Parameters
    ----------
    name:
        Scenario (or ensemble-member) name the report describes.
    slo_frequency_hz:
        The frequency SLO judged against.
    active_steps:
        Number of active (non-idle) trace steps behind the metrics.
    violation_rate:
        Fraction of active steps whose frequency fell below the SLO.
    throttle_residency:
        Fraction of active steps throttled, keyed by limiting factor
        (every :data:`~repro.sim.metrics.THROTTLE_FACTORS` key present).
    throttled_fraction:
        Total power+thermal throttle residency.
    p99_latency_proxy:
        99th-percentile normalised service time (``slo / frequency``).
    mean_frequency_hz:
        Mean active-step frequency.
    """

    kind: ClassVar[str] = "qos"

    name: str
    slo_frequency_hz: float
    active_steps: int
    violation_rate: float
    throttle_residency: Dict[str, float]
    throttled_fraction: float
    p99_latency_proxy: float
    mean_frequency_hz: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("report name must be a non-empty string")
        ensure_positive(self.slo_frequency_hz, "slo_frequency_hz")
        if self.active_steps < 0:
            raise ConfigurationError("active_steps must be >= 0")

    @property
    def meets_slo(self) -> bool:
        """True when no active step violated the frequency SLO."""
        return self.violation_rate == 0.0

    @classmethod
    def from_result(
        cls,
        result: DynamicRunResult,
        slo_frequency_hz: float = DEFAULT_SLO_FREQUENCY_HZ,
        name: Optional[str] = None,
    ) -> "QosReport":
        """Judge one dynamic run against *slo_frequency_hz*."""
        accumulator = QosAccumulator()
        accumulator.add_result(result)
        return accumulator.report(
            name or result.scenario_name, slo_frequency_hz
        )


class QosAccumulator:
    """Mergeable accumulator of active-step QoS samples.

    Keeps the raw per-step samples (frequency + limiting-factor code of
    every active step, one array chunk per add), so any partition of a
    trace into chunks — and any merge order — yields bit-identical reports.
    Memory is bounded by the active step count, which for fleet scenarios
    is a few thousand floats.
    """

    def __init__(self) -> None:
        self._frequencies_hz: List[np.ndarray] = []
        self._limiting_codes: List[np.ndarray] = []

    @property
    def active_steps(self) -> int:
        """Active samples accumulated so far."""
        return sum(chunk.size for chunk in self._frequencies_hz)

    def add_steps(
        self,
        frequencies_hz: Sequence[float],
        limiting_factors: Sequence[str],
    ) -> "QosAccumulator":
        """Accumulate a chunk of trace steps (idle steps are skipped)."""
        if len(frequencies_hz) != len(limiting_factors):
            raise ConfigurationError(
                "frequencies_hz and limiting_factors must have equal length"
            )
        return self._add(
            np.asarray(frequencies_hz, dtype=np.float64),
            encode_limiting_factors(limiting_factors),
        )

    def add_result(self, result: DynamicRunResult) -> "QosAccumulator":
        """Accumulate every active step of a dynamic run."""
        return self._add(result.frequencies_hz, result.limiting_codes)

    def _add(self, frequencies_hz: np.ndarray, codes: np.ndarray) -> "QosAccumulator":
        active = frequencies_hz > 0.0
        self._frequencies_hz.append(frequencies_hz[active])
        self._limiting_codes.append(codes[active])
        return self

    def merge(self, other: "QosAccumulator") -> "QosAccumulator":
        """Fold another accumulator's samples into this one."""
        self._frequencies_hz.extend(other._frequencies_hz)
        self._limiting_codes.extend(other._limiting_codes)
        return self

    def report(
        self,
        name: str,
        slo_frequency_hz: float = DEFAULT_SLO_FREQUENCY_HZ,
    ) -> QosReport:
        """The QoS verdict of everything accumulated so far."""
        ensure_positive(slo_frequency_hz, "slo_frequency_hz")
        n = self.active_steps
        if n == 0:
            return QosReport(
                name=name,
                slo_frequency_hz=slo_frequency_hz,
                active_steps=0,
                violation_rate=0.0,
                throttle_residency={f: 0.0 for f in THROTTLE_FACTORS},
                throttled_fraction=0.0,
                p99_latency_proxy=0.0,
                mean_frequency_hz=0.0,
            )
        frequencies = np.concatenate(self._frequencies_hz)
        violations = int(np.count_nonzero(frequencies < slo_frequency_hz))
        residency = throttle_shares(np.concatenate(self._limiting_codes))
        return QosReport(
            name=name,
            slo_frequency_hz=slo_frequency_hz,
            active_steps=n,
            violation_rate=violations / n,
            throttle_residency=residency,
            throttled_fraction=sum(residency.values()),
            p99_latency_proxy=_percentile(
                slo_frequency_hz / frequencies, LATENCY_PERCENTILE
            ),
            mean_frequency_hz=sequential_sum(frequencies) / n,
        )


@dataclass(frozen=True)
class EnsembleQos(Codec):
    """Pooled QoS of one seeded scenario ensemble.

    Rates and residencies are pooled exactly (weighted by each member's
    active steps); the p99 proxy is the **worst member's** p99 — the
    conservative fleet-tail read, since member samples are not retained.
    """

    kind: ClassVar[str] = "ensemble_qos"

    name: str
    slo_frequency_hz: float
    members: int
    active_steps: int
    violation_rate: float
    worst_violation_rate: float
    throttle_residency: Dict[str, float]
    throttled_fraction: float
    p99_latency_proxy: float
    reports: Tuple[QosReport, ...]

    def __post_init__(self) -> None:
        if self.members < 1:
            raise ConfigurationError("an ensemble needs at least one member")


def aggregate_reports(
    reports: Sequence[QosReport], name: Optional[str] = None
) -> EnsembleQos:
    """Pool member reports of one ensemble into an :class:`EnsembleQos`.

    All members must share the same frequency SLO.  Rates pool weighted by
    active steps (exactly the rate of the concatenated sample); the p99
    proxy is the worst member's.
    """
    if not reports:
        raise ConfigurationError("aggregate_reports needs at least one report")
    slos = {report.slo_frequency_hz for report in reports}
    if len(slos) != 1:
        raise ConfigurationError(
            f"cannot pool reports with different SLOs: {sorted(slos)}"
        )
    total = sum(report.active_steps for report in reports)
    if total > 0:
        violation = (
            sum(r.violation_rate * r.active_steps for r in reports) / total
        )
        residency = {
            factor: sum(
                r.throttle_residency.get(factor, 0.0) * r.active_steps
                for r in reports
            )
            / total
            for factor in THROTTLE_FACTORS
        }
    else:
        violation = 0.0
        residency = {factor: 0.0 for factor in THROTTLE_FACTORS}
    return EnsembleQos(
        name=name or reports[0].name,
        slo_frequency_hz=reports[0].slo_frequency_hz,
        members=len(reports),
        active_steps=total,
        violation_rate=violation,
        worst_violation_rate=max(r.violation_rate for r in reports),
        throttle_residency=residency,
        throttled_fraction=sum(residency.values()),
        p99_latency_proxy=max(r.p99_latency_proxy for r in reports),
        reports=tuple(reports),
    )
