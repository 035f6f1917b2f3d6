"""CPU core model.

A core is characterised by its maximum dynamic capacitance, its leakage, its
area (which sizes the power-gate), and the idle states it supports.  The
core does not know which frequency it runs at — that is decided by the PMU
firmware model — it only answers "what would this operating point cost".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.validation import ensure_in_range, ensure_positive
from repro.pdn.powergate import PowerGate
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel


@dataclass(frozen=True)
class CpuCore:
    """One CPU core of the client die.

    Parameters
    ----------
    name:
        Core identifier, e.g. ``"core0"``.
    area_mm2:
        Core area, used to size the power-gate and report overheads.
    dynamic:
        Dynamic-power model (virus Cdyn).
    leakage:
        Leakage model at the reference voltage/temperature.
    power_gate:
        The core's built-in power-gate.  Present on every die (Section 2.2);
        whether it is *used* depends on the package/firmware mode.
    """

    name: str
    area_mm2: float = 8.5
    dynamic: DynamicPowerModel = field(
        default_factory=lambda: DynamicPowerModel(cdyn_max_f=4.5e-9)
    )
    leakage: LeakagePowerModel = field(
        default_factory=lambda: LeakagePowerModel(
            reference_power_w=0.22, reference_voltage_v=1.0, voltage_sensitivity_per_v=1.8
        )
    )
    power_gate: PowerGate = field(
        default_factory=lambda: PowerGate.sized_for_core(
            name="core_pg", core_area_mm2=8.5, area_overhead_fraction=0.03
        )
    )

    def __post_init__(self) -> None:
        ensure_positive(self.area_mm2, "area_mm2")

    # -- power at an operating point ----------------------------------------------

    def active_power_w(
        self,
        frequency_hz: float,
        voltage_v: float,
        activity: float,
        temperature_c: float = 75.0,
    ) -> float:
        """Total power of the core while executing (CC0)."""
        ensure_in_range(activity, 0.0, 1.0, "activity")
        dynamic = self.dynamic.power_w(voltage_v, frequency_hz, activity)
        leak = self.leakage.power_w(voltage_v, temperature_c)
        return dynamic + leak

    def idle_power_w(
        self,
        voltage_v: float,
        gated: bool,
        temperature_c: float = 60.0,
    ) -> float:
        """Power of the core while idle (CC6).

        When *gated* is True the core sits behind its (off) power-gate and
        only residual leakage remains; when the gates are bypassed the core
        keeps leaking at the shared rail voltage — the cost DarkGates pays.
        """
        if gated:
            return self.power_gate.leakage_when_gated_w(
                self.leakage.power_w(voltage_v, temperature_c)
            )
        return self.leakage.power_w(voltage_v, temperature_c)

    def virus_current_a(self, frequency_hz: float, voltage_v: float) -> float:
        """Worst-case (power-virus) current of this core."""
        dynamic = self.dynamic.virus_current_a(voltage_v, frequency_hz)
        return dynamic + self.leakage.current_a(voltage_v)

    # -- structural properties -------------------------------------------------------

    def power_gate_area_overhead(self) -> float:
        """Power-gate area as a fraction of the core area."""
        return self.power_gate.area_overhead_fraction(self.area_mm2)
