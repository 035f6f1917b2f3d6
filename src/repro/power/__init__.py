"""Power and thermal modelling substrate.

This package provides the component power models the rest of the library is
built on:

* :mod:`repro.power.dynamic` — switching (dynamic) power from effective
  dynamic capacitance, voltage and frequency.
* :mod:`repro.power.leakage` — leakage power with voltage and temperature
  dependence, plus the effect of power-gating.
* :mod:`repro.power.thermal` — a lumped thermal model linking package power
  to junction temperature, and the TDP/Tjmax design limits.
* :mod:`repro.power.budget` — the PL1/PL2 turbo power limits and the
  batched EWMA accounting of package power behind them.
"""

from repro.power.budget import TurboLimits
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import NOMINAL_SILICON_TEMPERATURE_C, LeakagePowerModel
from repro.power.thermal import ThermalLimits, ThermalModel, TransientThermalModel

__all__ = [
    "TurboLimits",
    "DynamicPowerModel",
    "LeakagePowerModel",
    "NOMINAL_SILICON_TEMPERATURE_C",
    "ThermalLimits",
    "ThermalModel",
    "TransientThermalModel",
]
