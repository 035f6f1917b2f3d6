"""Result types produced by the simulation engine.

Every workload class has its own result dataclass, but all of them derive
from :class:`RunResult` so that callers of the polymorphic
:meth:`~repro.sim.engine.SimulationEngine.run` can treat them uniformly:
each result exposes a ``kind`` tag, a headline ``primary_metric``, and JSON
round-tripping through the shared codec (:mod:`repro.common.codec`);
``RunResult.from_dict`` picks the concrete class from the payload's
``kind``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Tuple

from repro.common.codec import RESULT_SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.pmu.dvfs import LimitingFactor, OperatingPoint
from repro.pmu.pbm import GraphicsOperatingPoint

#: Limiting factors that count as *throttling* for residency accounting:
#: the sustained power budget and the thermal loop.  Vmax/Iccmax/grid
#: limits are silicon ceilings, not workload-induced throttles.
THROTTLE_FACTORS: Tuple[str, ...] = (
    LimitingFactor.TDP.value,
    LimitingFactor.THERMAL.value,
)


class RunResult(Codec):
    """Base class of every engine result.

    Concrete results are frozen dataclasses; this base adds the polymorphic
    surface shared by all of them.  ``to_dict`` produces a JSON-safe payload
    tagged with the result ``kind``; ``RunResult.from_dict`` reverses it,
    returning an instance equal to the original.
    """

    #: Workload-class tag ("cpu", "graphics", "energy", ...).
    kind: ClassVar[str] = ""

    @property
    def primary_metric(self) -> float:
        """The headline number the paper reports for this workload class."""
        raise NotImplementedError


@dataclass(frozen=True)
class CpuRunResult(RunResult):
    """Outcome of running one CPU workload on one system configuration."""

    kind: ClassVar[str] = "cpu"

    workload_name: str
    operating_point: OperatingPoint
    relative_performance: float

    @property
    def frequency_hz(self) -> float:
        """Resolved core frequency."""
        return self.operating_point.frequency_hz

    @property
    def package_power_w(self) -> float:
        """Sustained package power during the run."""
        return self.operating_point.package_power_w

    @property
    def primary_metric(self) -> float:
        """Relative SPEC-style performance."""
        return self.relative_performance

    def improvement_over(self, baseline: "CpuRunResult") -> float:
        """Fractional performance improvement over a baseline run."""
        return self.relative_performance / baseline.relative_performance - 1.0


@dataclass(frozen=True)
class GraphicsRunResult(RunResult):
    """Outcome of running one graphics workload on one system configuration."""

    kind: ClassVar[str] = "graphics"

    workload_name: str
    operating_point: GraphicsOperatingPoint
    relative_fps: float

    @property
    def graphics_frequency_hz(self) -> float:
        """Resolved graphics frequency."""
        return self.operating_point.graphics_frequency_hz

    @property
    def primary_metric(self) -> float:
        """Relative frames-per-second."""
        return self.relative_fps

    def degradation_from(self, baseline: "GraphicsRunResult") -> float:
        """Fractional FPS degradation relative to a baseline run (>= 0)."""
        return max(0.0, 1.0 - self.relative_fps / baseline.relative_fps)


@dataclass(frozen=True)
class PhaseEnergy:
    """Power attributed to one phase of an energy scenario."""

    phase_name: str
    fraction: float
    power_w: float

    @property
    def contribution_w(self) -> float:
        """Contribution of this phase to the scenario's average power."""
        return self.fraction * self.power_w


@dataclass(frozen=True)
class EnergyRunResult(RunResult):
    """Outcome of running one energy scenario on one system configuration."""

    kind: ClassVar[str] = "energy"

    scenario_name: str
    phases: Tuple[PhaseEnergy, ...]
    average_power_limit_w: float

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def average_power_w(self) -> float:
        """Residency-weighted average processor power."""
        return sum(phase.contribution_w for phase in self.phases)

    @property
    def primary_metric(self) -> float:
        """Average processor power in watts."""
        return self.average_power_w

    @property
    def meets_limit(self) -> bool:
        """Whether the configuration meets the scenario's power limit."""
        return self.average_power_w <= self.average_power_limit_w

    def reduction_from(self, reference: "EnergyRunResult") -> float:
        """Fractional average-power reduction relative to a reference run."""
        if reference.average_power_w <= 0:
            return 0.0
        return 1.0 - self.average_power_w / reference.average_power_w


@dataclass(frozen=True)
class TransientRunResult(RunResult):
    """Outcome of running one transient droop scenario on one configuration.

    Carries the summary metrics of the waveform rather than the waveform
    itself so that study grids stay light and JSON-serialisable; rerun the
    scenario through :class:`~repro.pdn.droop.DroopSimulator` when the full
    waveform is needed.
    """

    kind: ClassVar[str] = "transient"

    scenario_name: str
    nominal_voltage_v: float
    worst_droop_v: float
    settled_drop_v: float
    transient_overshoot_v: float
    minimum_voltage_v: float
    time_step_s: float
    duration_s: float

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def primary_metric(self) -> float:
        """Worst-case droop in volts (the guardband-sizing number)."""
        return self.worst_droop_v

    @property
    def droop_fraction(self) -> float:
        """Worst droop as a fraction of the nominal rail voltage."""
        return self.worst_droop_v / self.nominal_voltage_v

    def worsening_over(self, baseline: "TransientRunResult") -> float:
        """Fractional worst-droop increase relative to a baseline run."""
        if baseline.worst_droop_v <= 0:
            return 0.0
        return self.worst_droop_v / baseline.worst_droop_v - 1.0


@dataclass(frozen=True)
class DynamicRunResult(RunResult):
    """Outcome of stepping one dynamic scenario through the closed loop.

    Carries the full per-step traces (frequency, package power, junction
    temperature, EWMA of power, limiting factor, package C-state) plus the
    PL1/PL2 configuration the run executed under.  Sample ``i`` describes
    the step ending at ``times_s[i]``; temperatures are post-step.
    """

    kind: ClassVar[str] = "dynamic"

    #: The summary block rides in every payload so stored runs answer QoS
    #: queries without re-walking the traces; decoding rebuilds it from them.
    derived_keys: ClassVar[Tuple[str, ...]] = ("summary",)

    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    times_s: Tuple[float, ...]
    frequencies_hz: Tuple[float, ...]
    package_powers_w: Tuple[float, ...]
    temperatures_c: Tuple[float, ...]
    average_powers_w: Tuple[float, ...]
    limiting_factors: Tuple[str, ...]
    package_cstates: Tuple[str, ...]

    def __post_init__(self) -> None:
        lengths = {
            len(trace)
            for trace in (
                self.times_s,
                self.frequencies_hz,
                self.package_powers_w,
                self.temperatures_c,
                self.average_powers_w,
                self.limiting_factors,
                self.package_cstates,
            )
        }
        if len(lengths) != 1 or 0 in lengths:
            raise ConfigurationError(
                f"dynamic run {self.scenario_name!r} traces must be non-empty "
                "and of equal length"
            )

    # -- common interface --------------------------------------------------------------

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def primary_metric(self) -> float:
        """Sustained core frequency in GHz (the TDP-story number)."""
        return self.sustained_frequency_hz / 1e9

    # -- summary metrics ---------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Simulated time."""
        return self.times_s[-1]

    def _active_indices(self) -> List[int]:
        return [i for i, f in enumerate(self.frequencies_hz) if f > 0.0]

    @property
    def average_frequency_hz(self) -> float:
        """Mean frequency over the active steps (0 if the run never woke)."""
        active = self._active_indices()
        if not active:
            return 0.0
        return sum(self.frequencies_hz[i] for i in active) / len(active)

    @property
    def peak_frequency_hz(self) -> float:
        """Highest frequency reached."""
        return max(self.frequencies_hz)

    @property
    def sustained_frequency_hz(self) -> float:
        """Frequency the run settled at: mean of the last tenth of the
        active steps (0 if the run never woke)."""
        active = self._active_indices()
        if not active:
            return 0.0
        tail = active[-max(1, len(active) // 10) :]
        return sum(self.frequencies_hz[i] for i in tail) / len(tail)

    @property
    def peak_temperature_c(self) -> float:
        """Hottest junction temperature of the run."""
        return max(self.temperatures_c)

    @property
    def final_temperature_c(self) -> float:
        """Junction temperature at the end of the run."""
        return self.temperatures_c[-1]

    @property
    def average_power_w(self) -> float:
        """Time-average package power over the whole run."""
        return sum(self.package_powers_w) / len(self.package_powers_w)

    @property
    def throttled(self) -> bool:
        """True when the run burst above its sustained frequency."""
        return self.peak_frequency_hz > self.sustained_frequency_hz + 1e-6

    @property
    def final_limiting_factor(self) -> str:
        """Limiting factor of the last active step ("none" if never active)."""
        active = self._active_indices()
        if not active:
            return LimitingFactor.NONE.value
        return self.limiting_factors[active[-1]]

    def limiting_breakdown(self) -> Dict[str, float]:
        """Fraction of active steps stopped by each limiting factor."""
        active = self._active_indices()
        if not active:
            return {}
        counts: Dict[str, int] = {}
        for i in active:
            counts[self.limiting_factors[i]] = counts.get(self.limiting_factors[i], 0) + 1
        return {factor: count / len(active) for factor, count in counts.items()}

    def cstate_residency(self) -> Dict[str, float]:
        """Fraction of the run spent in each package C-state (C0 == active)."""
        counts: Dict[str, int] = {}
        for state in self.package_cstates:
            counts[state] = counts.get(state, 0) + 1
        return {state: count / len(self.package_cstates) for state, count in counts.items()}

    def throttle_residency(self) -> Dict[str, float]:
        """Fraction of active steps throttled, keyed by limiting factor.

        Every factor in :data:`THROTTLE_FACTORS` is present (0.0 when the
        run never hit it), so downstream aggregation never key-errors.
        """
        breakdown = self.limiting_breakdown()
        return {
            factor: breakdown.get(factor, 0.0) for factor in THROTTLE_FACTORS
        }

    @property
    def throttled_fraction(self) -> float:
        """Total fraction of active steps spent power- or thermal-throttled."""
        return sum(self.throttle_residency().values())

    def summary(self) -> Dict[str, Any]:
        """First-class headline metrics of the run (embedded in payloads).

        Promotes what used to require post-processing the ``limit`` traces
        — throttle residency by limiting factor — next to the frequency and
        power headlines, so stored artifacts answer QoS queries without
        re-walking the traces.
        """
        return {
            "sustained_frequency_hz": self.sustained_frequency_hz,
            "average_frequency_hz": self.average_frequency_hz,
            "peak_frequency_hz": self.peak_frequency_hz,
            "average_power_w": self.average_power_w,
            "peak_temperature_c": self.peak_temperature_c,
            "throttle_residency": self.throttle_residency(),
            "throttled_fraction": self.throttled_fraction,
            "final_limiting_factor": self.final_limiting_factor,
        }
