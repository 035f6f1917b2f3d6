"""Declarative transient load scenarios for the droop simulator.

The paper's transient ("droop") guardband story (Section 2.4.2, Figs. 4-6)
revolves around a handful of di/dt events: a power-gated core waking up, an
AVX burst starting mid-workload, several cores waking in a staggered
sequence, and the comparison of each event on the gated versus bypassed
network.  This module gives those events a declarative form:

* :class:`LoadTrace` — an immutable piecewise-linear load-current waveform
  ``i(t)`` with vectorized sampling and composition operators
  (:meth:`~LoadTrace.then`, :meth:`~LoadTrace.overlay`,
  :meth:`~LoadTrace.repeated`, ...).
* :class:`TraceBuilder` — an event builder for writing traces as a sequence
  of ``hold`` / ``ramp_to`` / ``step_to`` events.
* Scenario builders — :func:`core_wake_trace`, :func:`avx_burst_trace`,
  :func:`staggered_wake_trace`, and the generic :func:`step_trace`.
* :class:`TransientScenario` — a workload descriptor (``kind ==
  "transient"``) binding a trace to simulation parameters so that
  :meth:`repro.sim.engine.SimulationEngine.run` and
  :class:`repro.analysis.study.Study` can sweep transient scenarios like
  any other workload class.

Everything here is frozen and hashable, so scenarios key study caches and
pickle cleanly across process-pool executors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive


@dataclass(frozen=True)
class LoadTrace:
    """A piecewise-linear load-current waveform at the die node.

    Parameters
    ----------
    name:
        Trace name (used to label study cells and reports).
    times_s:
        Breakpoint times, strictly increasing, starting at 0.
    currents_a:
        Load current at each breakpoint; the current is linear between
        breakpoints and held constant beyond the last one.
    """

    name: str
    times_s: Tuple[float, ...]
    currents_a: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace name must be a non-empty string")
        times = tuple(float(t) for t in self.times_s)
        currents = tuple(float(i) for i in self.currents_a)
        if len(times) != len(currents):
            raise ConfigurationError(
                f"trace {self.name!r} has {len(times)} times but "
                f"{len(currents)} currents"
            )
        if len(times) < 2:
            raise ConfigurationError(
                f"trace {self.name!r} needs at least two breakpoints"
            )
        if times[0] != 0.0:
            raise ConfigurationError(
                f"trace {self.name!r} must start at t=0, got {times[0]!r}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"trace {self.name!r} breakpoint times must be strictly increasing"
            )
        if any(i < 0 for i in currents):
            raise ConfigurationError(
                f"trace {self.name!r} has a negative load current"
            )
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "currents_a", currents)

    # -- sampling ----------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Time of the last breakpoint."""
        return self.times_s[-1]

    @property
    def peak_current_a(self) -> float:
        """Largest breakpoint current."""
        return max(self.currents_a)

    @property
    def initial_current_a(self) -> float:
        """Load current at t=0 (the network is settled here before the run)."""
        return self.currents_a[0]

    @property
    def final_current_a(self) -> float:
        """Load current held beyond the last breakpoint."""
        return self.currents_a[-1]

    def sample(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized ``i(t)`` over an array of time points."""
        return np.interp(times_s, self.times_s, self.currents_a)

    def current_a(self, time_s: float) -> float:
        """Scalar ``i(t)``."""
        return float(np.interp(time_s, self.times_s, self.currents_a))

    def __call__(self, time_s: float) -> float:
        # LoadTrace doubles as the load_profile callable of the simulator.
        return self.current_a(time_s)

    # -- composition -------------------------------------------------------------------

    def with_name(self, name: str) -> "LoadTrace":
        """The same waveform under a different name."""
        return replace(self, name=name)

    def shifted(self, delay_s: float) -> "LoadTrace":
        """This trace delayed by *delay_s*, holding its initial current first."""
        ensure_positive(delay_s, "delay_s")
        times = (0.0,) + tuple(t + delay_s for t in self.times_s)
        currents = (self.currents_a[0],) + self.currents_a
        return LoadTrace(name=self.name, times_s=times, currents_a=currents)

    def scaled(self, factor: float) -> "LoadTrace":
        """This trace with every current multiplied by *factor*."""
        ensure_positive(factor, "factor")
        return replace(
            self, currents_a=tuple(i * factor for i in self.currents_a)
        )

    def then(self, other: "LoadTrace", name: Optional[str] = None) -> "LoadTrace":
        """This trace followed by *other* (time-shifted to start at its end)."""
        times = self.times_s + tuple(t + self.duration_s for t in other.times_s[1:])
        currents = self.currents_a + other.currents_a[1:]
        return LoadTrace(
            name=name or f"{self.name}+{other.name}",
            times_s=times,
            currents_a=currents,
        )

    def overlay(self, other: "LoadTrace", name: Optional[str] = None) -> "LoadTrace":
        """Sum of this trace and *other* (union of breakpoints)."""
        times = tuple(sorted(set(self.times_s) | set(other.times_s)))
        grid = np.array(times)
        currents = tuple((self.sample(grid) + other.sample(grid)).tolist())
        return LoadTrace(
            name=name or f"{self.name}|{other.name}",
            times_s=times,
            currents_a=currents,
        )

    def repeated(self, count: int, period_s: Optional[float] = None) -> "LoadTrace":
        """This trace repeated *count* times, one copy every *period_s*.

        Between copies the final current is held (the waveform a periodic
        event actually produces), not ramped toward the next copy's start.
        """
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        period = period_s if period_s is not None else self.duration_s
        if period < self.duration_s:
            raise ConfigurationError(
                "period_s must be at least the trace duration"
            )
        times = list(self.times_s)
        currents = list(self.currents_a)
        for index in range(1, count):
            start = index * period
            if start > times[-1]:
                # Hold the settled current across the gap to the next copy.
                times.append(start)
                currents.append(currents[-1])
            for t, i in zip(self.times_s, self.currents_a):
                if t + start > times[-1]:
                    times.append(t + start)
                    currents.append(i)
        return LoadTrace(
            name=f"{self.name}x{count}",
            times_s=tuple(times),
            currents_a=tuple(currents),
        )

    def settle_tail(self, tail_s: float) -> "LoadTrace":
        """This trace extended by *tail_s* of constant final current."""
        ensure_positive(tail_s, "tail_s")
        return LoadTrace(
            name=self.name,
            times_s=self.times_s + (self.duration_s + tail_s,),
            currents_a=self.currents_a + (self.final_current_a,),
        )


class TraceBuilder:
    """Builds a :class:`LoadTrace` as a sequence of load events.

    Example::

        trace = (
            TraceBuilder(initial_current_a=2.0)
            .hold(100e-9)
            .ramp_to(25.0, 5e-9)     # core wakes over 5 ns
            .hold(1e-6)
            .ramp_to(2.0, 10e-9)     # back to idle
            .hold(1e-6)
            .build("wake_pulse")
        )
    """

    def __init__(self, initial_current_a: float = 0.0) -> None:
        if initial_current_a < 0:
            raise ConfigurationError("initial_current_a must be >= 0")
        self._times: List[float] = [0.0]
        self._currents: List[float] = [initial_current_a]

    def hold(self, duration_s: float) -> "TraceBuilder":
        """Hold the present current for *duration_s*."""
        ensure_positive(duration_s, "duration_s")
        self._times.append(self._times[-1] + duration_s)
        self._currents.append(self._currents[-1])
        return self

    def ramp_to(self, current_a: float, ramp_s: float) -> "TraceBuilder":
        """Ramp linearly to *current_a* over *ramp_s*."""
        if current_a < 0:
            raise ConfigurationError("current_a must be >= 0")
        ensure_positive(ramp_s, "ramp_s")
        self._times.append(self._times[-1] + ramp_s)
        self._currents.append(current_a)
        return self

    def step_to(self, current_a: float, rise_s: float = 1e-10) -> "TraceBuilder":
        """Near-instantaneous step to *current_a* (a very fast ramp)."""
        return self.ramp_to(current_a, rise_s)

    def build(self, name: str) -> LoadTrace:
        """Finish and return the trace."""
        return LoadTrace(
            name=name,
            times_s=tuple(self._times),
            currents_a=tuple(self._currents),
        )


# -- scenario builders ------------------------------------------------------------------


def step_trace(
    name: str,
    step_current_a: float,
    initial_current_a: float = 0.0,
    rise_time_s: float = 2e-9,
    duration_s: float = 4e-6,
) -> LoadTrace:
    """A single current step: the generic worst-case di/dt event."""
    return (
        TraceBuilder(initial_current_a)
        .ramp_to(step_current_a, rise_time_s)
        .hold(duration_s - rise_time_s)
        .build(name)
    )


def core_wake_trace(
    active_current_a: float = 25.0,
    idle_current_a: float = 0.5,
    wake_ramp_s: float = 5e-9,
    idle_lead_s: float = 50e-9,
    duration_s: float = 4e-6,
) -> LoadTrace:
    """A power-gated core waking up (paper Fig. 5 event).

    The core sits at its gated residual-leakage current, then its
    power-gate segments turn on in a staggered ramp of a few nanoseconds
    and the core starts drawing its active current.
    """
    return (
        TraceBuilder(idle_current_a)
        .hold(idle_lead_s)
        .ramp_to(active_current_a, wake_ramp_s)
        .hold(duration_s - idle_lead_s - wake_ramp_s)
        .build("core_wake")
    )


def avx_burst_trace(
    base_current_a: float = 12.0,
    burst_current_a: float = 30.0,
    rise_time_s: float = 2e-9,
    burst_duration_s: float = 500e-9,
    lead_s: float = 100e-9,
    tail_s: float = 2e-6,
) -> LoadTrace:
    """An AVX burst inside a running workload: up fast, down fast.

    Both edges excite the die resonance; the downward edge additionally
    produces an overshoot above nominal, which is why the trace keeps a
    settling tail after the burst ends.
    """
    return (
        TraceBuilder(base_current_a)
        .hold(lead_s)
        .ramp_to(burst_current_a, rise_time_s)
        .hold(burst_duration_s)
        .ramp_to(base_current_a, rise_time_s)
        .hold(tail_s)
        .build("avx_burst")
    )


def staggered_wake_trace(
    core_count: int = 4,
    per_core_current_a: float = 18.0,
    idle_current_a: float = 0.5,
    stagger_s: float = 150e-9,
    wake_ramp_s: float = 5e-9,
    duration_s: float = 4e-6,
) -> LoadTrace:
    """Several cores waking one after another (firmware-staggered).

    Each wake is the :func:`core_wake_trace` event; the overlays model the
    aggregate current the shared network actually sees, which is what makes
    the staggered case easier on the PDN than an aligned multi-core wake.
    """
    if core_count < 1:
        raise ConfigurationError("core_count must be >= 1")
    trace = core_wake_trace(
        active_current_a=per_core_current_a,
        idle_current_a=idle_current_a,
        duration_s=duration_s,
        wake_ramp_s=wake_ramp_s,
    )
    combined = trace
    for index in range(1, core_count):
        combined = combined.overlay(trace.shifted(index * stagger_s))
    return combined.with_name("staggered_wake")


def multi_event_trace(duration_s: float = 4e-6) -> LoadTrace:
    """A composite scenario: a core wakes, then runs into an AVX burst."""
    wake = core_wake_trace(duration_s=duration_s / 2.0)
    burst = avx_burst_trace(
        base_current_a=wake.final_current_a,
        burst_current_a=wake.final_current_a + 12.0,
        tail_s=max(duration_s / 2.0 - 704e-9, 200e-9),
    )
    return wake.then(burst, name="wake_then_avx")


# -- transient workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class TransientScenario:
    """A transient droop evaluation the simulation engine can run.

    Parameters
    ----------
    name:
        Scenario name (keys study results).
    trace:
        The load-current waveform applied at the die node.
    time_step_s:
        Integration step of the droop simulation.
    duration_s:
        Simulated time; defaults to the trace duration.
    nominal_voltage_v:
        Rail voltage for the run; when ``None`` the engine derives it from
        the firmware's single-core operating point.
    """

    kind: ClassVar[str] = "transient"

    name: str
    trace: LoadTrace
    time_step_s: float = 0.5e-9
    duration_s: Optional[float] = None
    nominal_voltage_v: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be a non-empty string")
        ensure_positive(self.time_step_s, "time_step_s")
        if self.duration_s is not None:
            ensure_positive(self.duration_s, "duration_s")
        if self.nominal_voltage_v is not None:
            ensure_positive(self.nominal_voltage_v, "nominal_voltage_v")

    @property
    def resolved_duration_s(self) -> float:
        """Simulated duration (trace duration unless overridden)."""
        return self.duration_s if self.duration_s is not None else self.trace.duration_s

    @classmethod
    def from_trace(
        cls,
        trace: LoadTrace,
        time_step_s: float = 0.5e-9,
        **kwargs,
    ) -> "TransientScenario":
        """A scenario named after its trace (and time step when non-default)."""
        name = trace.name
        if time_step_s != 0.5e-9:
            name = f"{trace.name}@{time_step_s * 1e9:g}ns"
        return cls(name=name, trace=trace, time_step_s=time_step_s, **kwargs)


def paper_transient_scenarios(
    duration_s: float = 4e-6, time_step_s: float = 0.5e-9
) -> Tuple[TransientScenario, ...]:
    """The four transient scenarios of the paper's droop discussion.

    Core wake, AVX burst, staggered multi-core wake, and a composite
    wake-then-AVX trace.  Run the same scenarios over a gated spec (e.g.
    ``"baseline"``) and a bypassed spec (``"darkgates"``) to reproduce the
    gated-versus-bypassed droop comparison of Fig. 6.
    """
    traces: Sequence[LoadTrace] = (
        core_wake_trace(duration_s=duration_s),
        avx_burst_trace(),
        staggered_wake_trace(duration_s=duration_s),
        multi_event_trace(duration_s=duration_s),
    )
    return tuple(
        TransientScenario.from_trace(trace, time_step_s=time_step_s)
        for trace in traces
    )
