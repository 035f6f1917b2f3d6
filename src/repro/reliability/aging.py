"""Voltage/temperature aging model.

Transistor aging (NBTI, TDDB) and interconnect wear accelerate with both
voltage and temperature.  The model here is the standard compact form used
for architectural reliability budgeting: an Arrhenius temperature term and
an exponential voltage term, applied to the fraction of lifetime the circuit
spends under stress.

DarkGates needs this because bypass mode keeps idle cores powered: their
stress-time fraction rises from "only while active" to "whenever the rail is
up", and the extra leakage warms the die by roughly 5 degC (Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.validation import ensure_in_range, ensure_non_negative, ensure_positive

#: Boltzmann constant in eV/K.
_BOLTZMANN_EV_PER_K = 8.617333e-5


@dataclass(frozen=True)
class StressProfile:
    """How much stress one configuration puts on a core over its lifetime.

    Parameters
    ----------
    powered_time_fraction:
        Fraction of the product lifetime the core's rail is up.
    average_voltage_v:
        Average rail voltage while powered.
    average_temperature_c:
        Average junction temperature while powered.
    """

    powered_time_fraction: float
    average_voltage_v: float
    average_temperature_c: float

    def __post_init__(self) -> None:
        ensure_in_range(self.powered_time_fraction, 0.0, 1.0, "powered_time_fraction")
        ensure_positive(self.average_voltage_v, "average_voltage_v")


@dataclass(frozen=True)
class AgingModel:
    """Compact aging-rate model.

    Parameters
    ----------
    voltage_acceleration_per_v:
        Exponential voltage-acceleration coefficient (1/V).
    activation_energy_ev:
        Arrhenius activation energy (eV).
    reference_voltage_v / reference_temperature_c:
        Operating point at which the rate is defined as 1.0.
    """

    voltage_acceleration_per_v: float = 50.0
    activation_energy_ev: float = 0.45
    reference_voltage_v: float = 1.0
    reference_temperature_c: float = 70.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.voltage_acceleration_per_v, "voltage_acceleration_per_v")
        ensure_non_negative(self.activation_energy_ev, "activation_energy_ev")
        ensure_positive(self.reference_voltage_v, "reference_voltage_v")

    def relative_rate(self, voltage_v: float, temperature_c: float) -> float:
        """Aging rate relative to the reference operating point."""
        ensure_positive(voltage_v, "voltage_v")
        voltage_term = math.exp(
            self.voltage_acceleration_per_v * (voltage_v - self.reference_voltage_v)
        )
        t_kelvin = temperature_c + 273.15
        t_ref_kelvin = self.reference_temperature_c + 273.15
        temperature_term = math.exp(
            (self.activation_energy_ev / _BOLTZMANN_EV_PER_K)
            * (1.0 / t_ref_kelvin - 1.0 / t_kelvin)
        )
        return voltage_term * temperature_term

    def lifetime_consumption(self, profile: StressProfile) -> float:
        """Relative lifetime consumed by a stress profile.

        1.0 corresponds to spending the whole lifetime at the reference
        operating point; smaller is better.
        """
        return profile.powered_time_fraction * self.relative_rate(
            profile.average_voltage_v, profile.average_temperature_c
        )

    def voltage_derating_for_equal_lifetime(
        self, baseline: StressProfile, candidate: StressProfile
    ) -> float:
        """Voltage reduction (volts) that restores the baseline lifetime.

        If the candidate profile consumes lifetime faster than the baseline,
        running it at a slightly lower voltage compensates.  The returned
        value is how much lower the candidate's average voltage needs to be —
        which the firmware applies as an extra *reliability guardband*
        (it lowers the usable Vmax by the same amount).
        """
        baseline_consumption = self.lifetime_consumption(baseline)
        candidate_consumption = self.lifetime_consumption(candidate)
        if candidate_consumption <= baseline_consumption or baseline_consumption <= 0:
            return 0.0
        ratio = candidate_consumption / baseline_consumption
        return math.log(ratio) / self.voltage_acceleration_per_v
