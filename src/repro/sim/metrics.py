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

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, ClassVar, Dict, Iterable, Mapping, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.common.codec import RESULT_SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.pmu.cstates import PackageCState
from repro.pmu.dvfs import (
    LIMITING_FACTOR_CODES,
    LIMITING_FACTOR_ORDER,
    LimitingFactor,
    OperatingPoint,
)
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

    def worsening_over(self, baseline: "TransientRunResult") -> float:
        """Fractional worst-droop increase relative to a baseline run."""
        if baseline.worst_droop_v <= 0:
            return 0.0
        return self.worst_droop_v / baseline.worst_droop_v - 1.0


#: The per-step traces of a dynamic run as one structured row: a named
#: column per trace.  Frequencies index the run's ``frequency_levels_hz``,
#: limiting factors are :data:`LIMITING_FACTOR_ORDER` codes and package
#: C-states index the run's ``cstate_names``.
TRACE_DTYPE = np.dtype(
    [
        ("frequency_codes", "i1"),
        ("package_powers_w", "<f8"),
        ("temperatures_c", "<f8"),
        ("average_powers_w", "<f8"),
        ("limiting_codes", "i1"),
        ("cstate_codes", "i1"),
    ]
)

#: The schema-3 trace row: frequencies in Hz instead of codes.
SCHEMA3_TRACE_DTYPE = np.dtype([("frequencies_hz", "<f8"), *TRACE_DTYPE.descr[1:]])

#: Most frequency levels a run may have: its codes are int8.
MAX_FREQUENCY_LEVELS = 128

_LIMITING_NAMES = np.array(
    [factor.value for factor in LIMITING_FACTOR_ORDER], dtype=object
)
_LIMITING_CODE_BY_NAME = {
    factor.value: code for factor, code in LIMITING_FACTOR_CODES.items()
}
_THROTTLE_CODES = tuple(
    LIMITING_FACTOR_CODES[LimitingFactor(factor)] for factor in THROTTLE_FACTORS
)

#: Fields of schema-1/2 dynamic-run payloads that schema 3 replaced.
_SCHEMA2_TRACES = ("times_s", "limiting_factors", "package_cstates")


def encode_limiting_factors(names: Iterable[str]) -> NDArray[np.int8]:
    """Per-step limiting-factor names as :data:`LIMITING_FACTOR_ORDER` codes."""
    try:
        codes = [_LIMITING_CODE_BY_NAME[name] for name in names]
    except (KeyError, TypeError) as error:
        raise ConfigurationError(
            f"unknown limiting factor {error}; expected one of "
            f"{sorted(_LIMITING_CODE_BY_NAME)}"
        ) from None
    return np.array(codes, dtype=np.int8)


def encode_cstates(names: Iterable[str]) -> Tuple[NDArray[np.int8], Tuple[str, ...]]:
    """Per-step package C-state names as codes into a vocabulary.

    ``C0`` is code 0; the other states follow in order of first
    appearance.  Both dynamics steppers and the schema-2 upgrade build the
    vocabulary this way, so equal C-state traces have equal codes.
    """
    vocabulary: Dict[str, int] = {PackageCState.C0.value: 0}
    codes = [vocabulary.setdefault(name, len(vocabulary)) for name in names]
    return np.array(codes, dtype=np.int8), tuple(vocabulary)


def _checked_levels(levels: np.ndarray, what: str) -> np.ndarray:
    """*levels* if it is a frequency level table: 0.0 Hz, then strictly
    ascending frequencies, at most :data:`MAX_FREQUENCY_LEVELS` of them."""
    if levels.ndim != 1 or not levels.size:
        raise ConfigurationError(f"{what} needs a 1-D frequency level table")
    if levels.size > MAX_FREQUENCY_LEVELS:
        raise ConfigurationError(
            f"{what} has {levels.size} frequency levels; its int8 codes "
            f"address at most {MAX_FREQUENCY_LEVELS}"
        )
    if levels[0] != 0.0 or (levels[1:] <= levels[:-1]).any():
        raise ConfigurationError(
            f"{what} frequency levels must be 0.0 Hz followed by strictly "
            "ascending frequencies"
        )
    return levels


def encode_frequencies(values: Any) -> Tuple[NDArray[np.int8], NDArray[np.float64]]:
    """Per-step frequencies as int8 codes into a level table.

    Level 0 is 0.0 Hz (an idle step); the other levels are the distinct
    frequencies of *values*, ascending, so ``levels[codes]`` gives *values*
    back bit for bit, in *values*' shape.  The lockstep engine writes such
    codes directly; the schema-3 upgrade and the per-run oracle build them
    here.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any() or np.signbit(values).any():
        raise ConfigurationError("frequencies must be >= 0.0 Hz, not negative or NaN")
    ordered = np.sort(np.concatenate(([0.0], values.ravel())))
    levels = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    _checked_levels(levels, "a frequency trace")
    return np.searchsorted(levels, values).astype(np.int8), levels


def _compact_levels(
    codes: np.ndarray, levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A trace's *codes* and *levels* without the levels no code uses (0.0 Hz
    stays).

    The kept levels keep their order, so a trace compacts to the same codes
    and levels whichever table it was coded against.  A frequency trace
    holds few stretches of equal codes, so counting the last code of each
    stretch finds the used levels at a fraction of the cost of counting
    every step.
    """
    ends = (codes[1:] != codes[:-1]).nonzero()[0]
    used = np.bincount(codes[ends], minlength=levels.size) > 0
    used[0] = used[codes[-1]] = True
    if used.all():
        return codes, levels
    remap = (np.cumsum(used) - 1).astype(np.int8)
    return remap.take(codes), levels[used]


def throttle_shares(codes: np.ndarray) -> Dict[str, float]:
    """Share of each :data:`THROTTLE_FACTORS` entry among the limiting-factor
    *codes* of active steps (0.0 each when there are none)."""
    if not codes.size:
        return dict.fromkeys(THROTTLE_FACTORS, 0.0)
    return {
        factor: int(np.count_nonzero(codes == code)) / codes.size
        for factor, code in zip(THROTTLE_FACTORS, _THROTTLE_CODES)
    }


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of *values* (0.0 when empty).

    The arithmetic of a plain ``+=`` loop — and of the built-in ``sum``
    before Python 3.12 made it compensated — so means of traces do not
    depend on the interpreter version.
    """
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class DynamicRunResult(RunResult):
    """Outcome of stepping one dynamic scenario through the closed loop.

    Carries the full per-step traces (frequency, package power, junction
    temperature, EWMA of power, limiting factor, package C-state) plus the
    PL1/PL2 configuration the run executed under.  Sample ``i`` describes
    the step ending at ``times_s[i]``; temperatures are post-step.

    The traces are columnar and read-only: three float64 arrays, and int8
    codes for the frequency (into ``frequency_levels_hz``), the limiting
    factor (:data:`LIMITING_FACTOR_ORDER`) and the package C-state
    (``cstate_names``).  The level table is 0.0 Hz (code 0, the idle
    steps), then the frequencies the run visits, ascending: the constructor
    drops the levels no step uses, so equal traces have equal fields
    whichever table they were coded against.  ``frequencies_hz``,
    ``times_s``, ``limiting_factors`` and ``package_cstates`` are derived
    read-only views.  Equality is exact: the same scalars, levels and, per
    trace, the same dtype and values.
    """

    kind: ClassVar[str] = "dynamic"

    #: The summary block rides in every payload so stored runs answer QoS
    #: queries without re-walking the traces; decoding rebuilds it from them.
    derived_keys: ClassVar[Tuple[str, ...]] = ("summary",)

    #: The trace fields, in :data:`TRACE_DTYPE` column order.
    trace_columns: ClassVar[Tuple[str, ...]] = TRACE_DTYPE.names or ()

    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    frequency_codes: NDArray[np.int8]
    frequency_levels_hz: NDArray[np.float64]
    package_powers_w: NDArray[np.float64]
    temperatures_c: NDArray[np.float64]
    average_powers_w: NDArray[np.float64]
    limiting_codes: NDArray[np.int8]
    cstate_codes: NDArray[np.int8]
    cstate_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        # Every trace becomes a private, contiguous, read-only copy.
        shapes = set()
        for name in self.trace_columns:
            column = np.array(getattr(self, name), dtype=TRACE_DTYPE[name])
            object.__setattr__(self, name, _read_only(column))
            shapes.add(column.shape)
        object.__setattr__(self, "cstate_names", tuple(self.cstate_names))
        run = f"dynamic run {self.scenario_name!r}"
        shape, *others = shapes
        if others or len(shape) != 1 or not shape[0]:
            raise ConfigurationError(
                f"{run} traces must be non-empty and of equal length"
            )
        levels = _checked_levels(
            np.array(self.frequency_levels_hz, dtype=np.float64), run
        )
        for codes, count, what in (
            (self.frequency_codes, len(levels), "frequency"),
            (self.limiting_codes, len(LIMITING_FACTOR_ORDER), "limiting-factor"),
            (self.cstate_codes, len(self.cstate_names), "C-state"),
        ):
            if codes.min() < 0 or codes.max() >= count:
                raise ConfigurationError(f"{run} has {what} codes outside [0, {count})")
        codes, levels = _compact_levels(self.frequency_codes, levels)
        object.__setattr__(self, "frequency_codes", _read_only(codes))
        object.__setattr__(self, "frequency_levels_hz", _read_only(levels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicRunResult) or type(other) is not type(self):
            return NotImplemented
        return (
            self.scenario_name == other.scenario_name
            and self.time_step_s == other.time_step_s
            and self.pl1_w == other.pl1_w
            and self.pl2_w == other.pl2_w
            and self.cstate_names == other.cstate_names
            and np.array_equal(self.frequency_levels_hz, other.frequency_levels_hz)
            and all(
                getattr(self, name).dtype == getattr(other, name).dtype
                and np.array_equal(getattr(self, name), getattr(other, name))
                for name in self.trace_columns
            )
        )

    def __reduce__(self) -> Any:
        # Rebuild through __init__ so unpickled traces are read-only too.
        return type(self), tuple(getattr(self, field.name) for field in fields(self))

    # -- derived traces ----------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Number of simulated steps."""
        return len(self.frequency_codes)

    @cached_property
    def frequencies_hz(self) -> np.ndarray:
        """Per-step core frequency in Hz, 0.0 on idle steps (read-only)."""
        return _read_only(self.frequency_levels_hz.take(self.frequency_codes))

    @cached_property
    def times_s(self) -> np.ndarray:
        """End time of every step.  The cumulative sum runs left to right,
        exactly like the steppers' ``time_s += dt``."""
        return _read_only(np.cumsum(np.full(self.steps, self.time_step_s)))

    @cached_property
    def limiting_factors(self) -> np.ndarray:
        """Per-step limiting-factor names (read-only object array)."""
        return _read_only(_LIMITING_NAMES[self.limiting_codes])

    @cached_property
    def package_cstates(self) -> np.ndarray:
        """Per-step package C-state names (read-only object array)."""
        names = np.array(self.cstate_names, dtype=object)
        return _read_only(names[self.cstate_codes])

    def trace_table(self) -> np.ndarray:
        """The traces as one :data:`TRACE_DTYPE` structured array."""
        table = np.empty(self.steps, dtype=TRACE_DTYPE)
        for name in self.trace_columns:
            table[name] = getattr(self, name)
        return table

    # -- payloads ----------------------------------------------------------------------

    @classmethod
    def upgrade_payload(cls, data: Mapping[str, Any], version: int) -> Dict[str, Any]:
        """An older payload in the current layout.

        A schema-4 payload already has it.  An older one's ``frequencies_hz``
        become codes into a level table (:func:`encode_frequencies`).  A
        schema-1/2 payload's per-step tuples and names become columns too;
        its ``times_s`` must be the derived grid.
        """
        if version > 3:
            return dict(data)
        replaced = ("frequencies_hz", *(_SCHEMA2_TRACES if version < 3 else ()))
        missing = sorted({"time_step_s", *replaced} - data.keys())
        if missing:
            raise ConfigurationError(
                f"DynamicRunResult payload is missing required field(s) {missing}"
            )
        upgraded = {k: v for k, v in data.items() if k not in replaced}
        frequencies = encode_frequencies(data["frequencies_hz"])
        upgraded["frequency_codes"], upgraded["frequency_levels_hz"] = frequencies
        if version >= 3:
            return upgraded
        upgraded["limiting_codes"] = encode_limiting_factors(data["limiting_factors"])
        upgraded["cstate_codes"], upgraded["cstate_names"] = encode_cstates(
            data["package_cstates"]
        )
        times = np.asarray(data["times_s"], dtype=np.float64)
        if not np.array_equal(
            times, np.cumsum(np.full(len(times), data["time_step_s"]))
        ):
            raise ConfigurationError(
                "DynamicRunResult payload times_s disagrees with the grid "
                "derived from time_step_s"
            )
        return upgraded

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
        return float(self.times_s[-1])

    def _active(self) -> np.ndarray:
        return self.frequency_codes > 0

    def _active_codes(self) -> np.ndarray:
        return self.frequency_codes[self._active()]

    @property
    def average_frequency_hz(self) -> float:
        """Mean frequency over the active steps (0 if the run never woke)."""
        active = self.frequency_levels_hz.take(self._active_codes())
        if not active.size:
            return 0.0
        return sequential_sum(active) / active.size

    @property
    def peak_frequency_hz(self) -> float:
        """Highest frequency reached (the levels ascend with their codes)."""
        return float(self.frequency_levels_hz[self.frequency_codes.max()])

    @property
    def sustained_frequency_hz(self) -> float:
        """Frequency the run settled at: mean of the last tenth of the
        active steps (0 if the run never woke)."""
        active = self._active_codes()
        if not active.size:
            return 0.0
        tail = self.frequency_levels_hz.take(active[-max(1, active.size // 10) :])
        return sequential_sum(tail) / tail.size

    @property
    def peak_temperature_c(self) -> float:
        """Hottest junction temperature of the run."""
        return float(self.temperatures_c.max())

    @property
    def final_temperature_c(self) -> float:
        """Junction temperature at the end of the run."""
        return float(self.temperatures_c[-1])

    @property
    def average_power_w(self) -> float:
        """Time-average package power over the whole run."""
        return sequential_sum(self.package_powers_w) / self.steps

    @property
    def throttled(self) -> bool:
        """True when the run burst above its sustained frequency."""
        return self.peak_frequency_hz > self.sustained_frequency_hz + 1e-6

    @property
    def final_limiting_factor(self) -> str:
        """Limiting factor of the last active step ("none" if never active)."""
        active = self.limiting_codes[self._active()]
        if not active.size:
            return LimitingFactor.NONE.value
        return LIMITING_FACTOR_ORDER[int(active[-1])].value

    def cstate_residency(self) -> Dict[str, float]:
        """Fraction of the run spent in each package C-state (C0 == active)."""
        return _shares(self.cstate_codes, self.cstate_names)

    def throttle_residency(self) -> Dict[str, float]:
        """Fraction of active steps throttled, keyed by limiting factor.

        Every factor in :data:`THROTTLE_FACTORS` is present (0.0 when the
        run never hit it), so downstream aggregation never key-errors.
        """
        return throttle_shares(self.limiting_codes[self._active()])

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


def _shares(codes: np.ndarray, names: Any) -> Dict[str, float]:
    """Share of each code among *codes*, keyed by name in order of first
    appearance ({} when empty)."""
    found, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return {
        str(names[found[i]]): int(counts[i]) / codes.size for i in np.argsort(first)
    }
