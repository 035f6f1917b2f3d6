"""Power-budget management (PBM) between CPU cores and the graphics engine.

During a graphics workload the graphics engine gets most of the compute
domain's power budget while one CPU core runs the graphics driver at its
most efficient frequency (paper Section 7.2).  DarkGates changes the
arithmetic in one way: the idle CPU cores can no longer be power-gated, so
their leakage is subtracted from the budget before the graphics engine gets
the remainder.  On a thermally-limited (35 W) system that is enough to cost
the graphics engine a frequency bin or two; on higher-TDP systems the budget
is not the binding constraint and nothing changes — which is exactly the
shape of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_in_range
from repro.pmu.vf_curve import VfCurve
from repro.soc.processor import Processor


@dataclass(frozen=True)
class GraphicsDemand:
    """What a graphics workload asks of the SoC."""

    graphics_activity: float = 0.9
    driver_cores: int = 1
    driver_activity: float = 0.45
    memory_intensity: float = 0.5

    def __post_init__(self) -> None:
        ensure_in_range(self.graphics_activity, 0.0, 1.0, "graphics_activity")
        ensure_in_range(self.driver_activity, 0.0, 1.0, "driver_activity")
        ensure_in_range(self.memory_intensity, 0.0, 1.0, "memory_intensity")
        if self.driver_cores < 1:
            raise ConfigurationError("driver_cores must be >= 1")


@dataclass(frozen=True)
class GraphicsOperatingPoint:
    """Resolved graphics operating point and the budget split behind it."""

    graphics_frequency_hz: float
    graphics_power_w: float
    graphics_budget_w: float
    cpu_power_w: float
    idle_cores_power_w: float
    uncore_power_w: float
    package_power_w: float


class PowerBudgetManager:
    """Splits the TDP budget between CPU cores and the graphics engine.

    Parameters
    ----------
    processor:
        Hardware configuration.
    vf_curve:
        Guardbanded core V/F curve (used to cost the driver core and the
        idle cores' rail voltage).
    bypass_mode:
        True when idle cores cannot be power-gated (DarkGates bypass mode).
    """

    def __init__(
        self, processor: Processor, vf_curve: VfCurve, bypass_mode: bool
    ) -> None:
        self._processor = processor
        self._vf_curve = vf_curve
        self._bypass_mode = bypass_mode
        self._thermal_model = processor.thermal_model()

    def resolve(self, demand: GraphicsDemand) -> GraphicsOperatingPoint:
        """Resolve the graphics frequency under the shared budget.

        The power/temperature coupling is resolved with a short fixed-point
        iteration: a thermally-limited (e.g. 35 W) system running a graphics
        workload sits near Tjmax, which inflates the leakage of the un-gated
        idle cores and is exactly what shrinks the graphics budget in bypass
        mode (Fig. 9).
        """
        die = self._processor.die
        if demand.driver_cores > die.core_count:
            raise ConfigurationError("driver_cores exceeds the processor's core count")

        # The driver core runs at the most efficient frequency Pn (grid
        # minimum) — graphics workloads are not CPU-frequency bound.
        driver_frequency = self._vf_curve.frequency_grid.min_hz
        rail_voltage = self._vf_curve.power_voltage_v(
            driver_frequency, demand.driver_cores
        )
        thermal = self._thermal_model
        temperature = 75.0
        cpu_power = idle_power = uncore_power = 0.0
        graphics_frequency = die.graphics.frequency_grid.min_hz
        graphics_power = 0.0
        budget = 0.0
        for _ in range(3):
            cpu_power = sum(
                core.active_power_w(
                    driver_frequency, rail_voltage, demand.driver_activity, temperature
                )
                for core in die.cores[: demand.driver_cores]
            )
            idle_cores = die.cores[demand.driver_cores :]
            idle_power = sum(
                core.idle_power_w(
                    rail_voltage, gated=not self._bypass_mode, temperature_c=temperature
                )
                for core in idle_cores
            )
            uncore_power = die.uncore.package_c0_power_w(demand.memory_intensity)
            budget = max(
                0.0, self._processor.tdp_w - cpu_power - idle_power - uncore_power
            )
            graphics_frequency = die.graphics.max_frequency_within_power(
                budget, activity=demand.graphics_activity, temperature_c=temperature
            )
            graphics_power = die.graphics.active_power_w(
                graphics_frequency, demand.graphics_activity, temperature_c=temperature
            )
            package_power = cpu_power + idle_power + uncore_power + graphics_power
            temperature = min(
                self._processor.tjmax_c,
                thermal.junction_temperature_c(package_power),
            )
        package_power = cpu_power + idle_power + uncore_power + graphics_power
        return GraphicsOperatingPoint(
            graphics_frequency_hz=graphics_frequency,
            graphics_power_w=graphics_power,
            graphics_budget_w=budget,
            cpu_power_w=cpu_power,
            idle_cores_power_w=idle_power,
            uncore_power_w=uncore_power,
            package_power_w=package_power,
        )
