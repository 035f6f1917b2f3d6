"""Thermal limits and a lumped thermal model.

The paper's Section 2.4.1 describes the two thermal design limits that
matter for the evaluation:

* **Tjmax** — the junction temperature must never exceed the maximum rated
  value; the PMU throttles (or ultimately shuts down) to enforce this.
* **TDP** — the sustained power the cooling solution is sized for.  A system
  configured to a lower TDP has a weaker cooling solution, so it reaches
  Tjmax at a lower sustained power.

The lumped model here ties the two together: the cooling solution's thermal
resistance is chosen such that dissipating exactly TDP watts at the maximum
ambient temperature lands the junction exactly at Tjmax.  Sustained power at
or below TDP is therefore thermally safe, and the "thermally limited"
frequency of a configuration is the highest frequency whose sustained power
stays under TDP — which is how the evaluation's 35 W systems end up slower
than the 91 W ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive


@dataclass(frozen=True)
class ThermalLimits:
    """Thermal design limits of one system configuration."""

    tdp_w: float
    tjmax_c: float = 100.0
    ambient_c: float = 35.0

    def __post_init__(self) -> None:
        ensure_positive(self.tdp_w, "tdp_w")
        ensure_positive(self.tjmax_c, "tjmax_c")
        if self.ambient_c >= self.tjmax_c:
            raise ConfigurationError("ambient_c must be below tjmax_c")


@dataclass(frozen=True)
class ThermalModel:
    """Steady-state lumped thermal model of a processor plus cooling solution.

    Parameters
    ----------
    limits:
        Thermal limits of the configuration (TDP, Tjmax, ambient).
    resistance_scale:
        Die-to-die multiplier on the co-designed thermal resistance
        (die-attach / TIM quality variation); 1.0 is the nominal part.
    """

    limits: ThermalLimits
    resistance_scale: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.resistance_scale, "resistance_scale")

    @property
    def thermal_resistance_c_per_w(self) -> float:
        """Junction-to-ambient thermal resistance of the cooling solution.

        Sized so that dissipating exactly TDP at the design ambient reaches
        exactly Tjmax — the standard way TDP and the cooler are co-designed —
        then scaled by the die's ``resistance_scale``.
        """
        return (
            (self.limits.tjmax_c - self.limits.ambient_c) / self.limits.tdp_w
        ) * self.resistance_scale

    def junction_temperature_c(self, sustained_power_w: float) -> float:
        """Steady-state junction temperature at *sustained_power_w*."""
        if sustained_power_w < 0:
            raise ConfigurationError("sustained_power_w must be >= 0")
        return self.limits.ambient_c + self.thermal_resistance_c_per_w * sustained_power_w

    def is_thermally_safe(self, sustained_power_w: float) -> bool:
        """True when the sustained power keeps the junction at or below Tjmax."""
        return self.junction_temperature_c(sustained_power_w) <= self.limits.tjmax_c + 1e-9

    def max_sustained_power_w(self) -> float:
        """Largest sustained power the cooling solution can remove (== TDP)."""
        return self.limits.tdp_w

    def headroom_w(self, sustained_power_w: float) -> float:
        """Power headroom left before the thermal limit (negative if over)."""
        return self.limits.tdp_w - sustained_power_w

    def temperature_rise_c(self, extra_power_w: float) -> float:
        """Additional junction temperature caused by *extra_power_w*.

        Used by the reliability model to estimate the ~5 degC rise the paper
        attributes to keeping idle cores powered in bypass mode.
        """
        if extra_power_w < 0:
            raise ConfigurationError("extra_power_w must be >= 0")
        return self.thermal_resistance_c_per_w * extra_power_w


@dataclass(frozen=True)
class TransientThermalModel:
    """First-order (lumped RC) transient extension of :class:`ThermalModel`.

    The steady-state model fixes the thermal resistance R from the TDP /
    Tjmax co-design; adding a thermal capacitance C gives the junction the
    exponential step response that makes turbo possible in the first place
    (paper Section 2.4.1): a burst above TDP heats the die toward an
    over-Tjmax steady state but only *reaches* Tjmax after a few time
    constants, which is the window PL2 exploits.

    Parameters
    ----------
    steady_state:
        The co-designed steady-state model (provides R and the limits).
    capacitance_j_per_c:
        Lumped thermal capacitance of die plus cooling solution.  The time
        constant is ``tau = R * C``.
    """

    steady_state: ThermalModel
    capacitance_j_per_c: float = 60.0

    def __post_init__(self) -> None:
        ensure_positive(self.capacitance_j_per_c, "capacitance_j_per_c")

    @property
    def limits(self) -> ThermalLimits:
        """Thermal design limits of the configuration."""
        return self.steady_state.limits

    @property
    def time_constant_s(self) -> float:
        """Thermal time constant ``tau = R * C`` of the lumped model."""
        return (
            self.steady_state.thermal_resistance_c_per_w * self.capacitance_j_per_c
        )

    def steady_temperature_c(self, power_w: float) -> float:
        """Temperature the junction would settle at under constant *power_w*."""
        return self.steady_state.junction_temperature_c(power_w)

    def step(self, temperature_c: float, power_w: float, time_step_s: float) -> float:
        """Junction temperature after *time_step_s* of constant *power_w*.

        Exact solution of ``C dT/dt = P - (T - Tamb)/R`` over the step:
        the temperature relaxes exponentially toward the steady state of the
        applied power.
        """
        ensure_positive(time_step_s, "time_step_s")
        target = self.steady_temperature_c(power_w)
        decay = math.exp(-time_step_s / self.time_constant_s)
        return target + (temperature_c - target) * decay

    def settling_time_s(self, tolerance_c: float = 0.1, swing_c: float = 65.0) -> float:
        """Time for a *swing_c* temperature step to settle within *tolerance_c*."""
        ensure_positive(tolerance_c, "tolerance_c")
        ensure_positive(swing_c, "swing_c")
        return self.time_constant_s * math.log(swing_c / tolerance_c)

    def max_power_keeping_tjmax_w(
        self, temperature_c: float, time_step_s: float
    ) -> float:
        """Largest constant power over the next step that keeps T <= Tjmax.

        Inverts :meth:`step` for ``T(t + dt) == Tjmax``: this is the thermal
        throttle the firmware applies when a turbo burst has driven the
        junction to the limit.  Very large while the die is cool (a short
        step cannot reach Tjmax), approaching the TDP as T approaches Tjmax.
        """
        ensure_positive(time_step_s, "time_step_s")
        decay = math.exp(-time_step_s / self.time_constant_s)
        limits = self.limits
        target_ceiling = (limits.tjmax_c - temperature_c * decay) / (1.0 - decay)
        power = (
            target_ceiling - limits.ambient_c
        ) / self.steady_state.thermal_resistance_c_per_w
        return max(0.0, power)


class BatchedThermalModel:
    """Vectorized :class:`TransientThermalModel` over a batch of lockstep runs.

    Each run has its own (constant) time step, thermal resistance and
    capacitance, so the per-run exponential decay factor is a constant; it
    is precomputed with the same ``math.exp(-dt / tau)`` the scalar model
    evaluates every step (and ``1.0 - decay`` with it), which keeps a
    batched trajectory bit-identical to stepping each run through its own
    :class:`TransientThermalModel`.  The temperatures belong to the caller
    (the lockstep loop keeps them in its trace rows): :meth:`step` writes
    the next ones into the caller's *out* row.

    Parameters
    ----------
    models:
        One transient model per run (carries R, C and the limits).
    time_step_s:
        Per-run (constant) simulation steps.
    """

    def __init__(
        self, models: Sequence[TransientThermalModel], time_step_s: Sequence[float]
    ) -> None:
        steps = np.asarray(time_step_s, dtype=float)
        if len(models) != len(steps):
            raise ConfigurationError("one time step per thermal model required")
        if (steps <= 0).any():
            raise ConfigurationError("time_step_s must be positive")
        self._ambient_c = np.array(
            [model.limits.ambient_c for model in models], dtype=float
        )
        self._tjmax_c = np.array(
            [model.limits.tjmax_c for model in models], dtype=float
        )
        self._resistance_c_per_w = np.array(
            [model.steady_state.thermal_resistance_c_per_w for model in models],
            dtype=float,
        )
        self._set_decay(
            [math.exp(-dt / model.time_constant_s) for model, dt in zip(models, steps)]
        )

    @classmethod
    def from_parameters(
        cls,
        *,
        ambient_c: float,
        tjmax_c: float,
        resistance_c_per_w: np.ndarray,
        capacitance_j_per_c: float,
        time_step_s: float,
    ) -> "BatchedThermalModel":
        """A batch sharing one design but with per-run thermal resistances.

        This is the population fast path's injection point: per-die
        resistances arrive as one array, with no per-die
        :class:`TransientThermalModel` objects.  The decay factor of run
        ``i`` is computed with the same ``math.exp(-dt / (R_i * C))``
        expression the scalar model evaluates, so a population run matches
        per-die stepping bit for bit.
        """
        ensure_positive(capacitance_j_per_c, "capacitance_j_per_c")
        ensure_positive(time_step_s, "time_step_s")
        resistance = np.asarray(resistance_c_per_w, dtype=float)
        if (resistance <= 0).any():
            raise ConfigurationError("resistance_c_per_w must be positive")
        batch = cls.__new__(cls)
        batch._ambient_c = np.full(resistance.shape, ambient_c, dtype=float)
        batch._tjmax_c = np.full(resistance.shape, tjmax_c, dtype=float)
        batch._resistance_c_per_w = resistance
        batch._set_decay(
            [math.exp(-time_step_s / (r * capacitance_j_per_c)) for r in resistance]
        )
        return batch

    def _set_decay(self, decay: Sequence[float]) -> None:
        self._decay = np.array(decay, dtype=float)
        self._blend = 1.0 - self._decay
        self._zero = np.zeros_like(self._decay)

    def step(
        self, temperature_c: np.ndarray, power_w: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Per-run junction temperature after one step of *power_w*, in *out*."""
        target = self._ambient_c + self._resistance_c_per_w * power_w
        np.multiply(np.subtract(temperature_c, target, out=out), self._decay, out=out)
        return np.add(target, out, out=out)

    def max_power_keeping_tjmax_w(self, temperature_c: np.ndarray) -> np.ndarray:
        """Per-run largest next-step power that keeps T <= Tjmax."""
        target_ceiling = (self._tjmax_c - temperature_c * self._decay) / self._blend
        power = (target_ceiling - self._ambient_c) / self._resistance_c_per_w
        return np.maximum(self._zero, power)
