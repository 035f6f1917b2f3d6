"""DarkGates-versus-baseline comparison.

This module is the top of the stack: it compares the exact system
configurations the paper evaluates, which are declared in
:mod:`repro.core.spec` — ``get_spec("darkgates")``,
``get_spec("baseline")`` and ``get_spec("darkgates+c7")``.

Three configurations appear in the evaluation:

* **DarkGates** — Skylake-S (desktop, LGA) package that bypasses the core
  power-gates, firmware fused to bypass mode, package C8 enabled, and the
  small reliability guardband of Section 4.2 applied.
* **Baseline** — the same die in the Skylake-H (mobile, BGA) package with
  power-gates enabled, normal-mode firmware, package C7 (the deepest state
  pre-DarkGates desktops support).
* **DarkGates limited to C7** — the ablation of Fig. 10: bypassed package
  but without the new deep package C-state; it fails the energy-efficiency
  limits, which is precisely why DarkGates needs its third technique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError
from repro.core.spec import get_spec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import CpuRunResult, EnergyRunResult, GraphicsRunResult
from repro.workloads.descriptors import CpuWorkload, EnergyScenario, GraphicsWorkload


@dataclass(frozen=True)
class CpuComparison:
    """DarkGates-versus-baseline outcome for one CPU workload."""

    workload_name: str
    baseline: CpuRunResult
    darkgates: CpuRunResult

    @property
    def performance_improvement(self) -> float:
        """Fractional performance improvement of DarkGates over the baseline."""
        return self.darkgates.improvement_over(self.baseline)

    @property
    def frequency_improvement(self) -> float:
        """Fractional core-frequency improvement."""
        return self.darkgates.frequency_hz / self.baseline.frequency_hz - 1.0


@dataclass(frozen=True)
class GraphicsComparison:
    """DarkGates-versus-baseline outcome for one graphics workload."""

    workload_name: str
    baseline: GraphicsRunResult
    darkgates: GraphicsRunResult

    @property
    def performance_degradation(self) -> float:
        """Fractional FPS degradation of DarkGates relative to the baseline."""
        return self.darkgates.degradation_from(self.baseline)


@dataclass(frozen=True)
class EnergyComparison:
    """Average-power outcome of one energy scenario across configurations."""

    scenario_name: str
    darkgates_c7: EnergyRunResult
    darkgates_c8: EnergyRunResult
    baseline_c7: EnergyRunResult

    @property
    def darkgates_c8_reduction(self) -> float:
        """Average-power reduction of DarkGates+C8 versus DarkGates+C7."""
        return self.darkgates_c8.reduction_from(self.darkgates_c7)

    @property
    def baseline_c7_reduction(self) -> float:
        """Average-power reduction of the baseline versus DarkGates+C7."""
        return self.baseline_c7.reduction_from(self.darkgates_c7)


class SystemComparison:
    """Runs workloads on the DarkGates and baseline systems and compares them.

    Parameters
    ----------
    tdp_w:
        TDP configuration shared by both systems (the evaluation sweeps
        35 W, 45 W, 65 W, and 91 W).
    """

    def __init__(self, tdp_w: float = 91.0) -> None:
        if tdp_w <= 0:
            raise ConfigurationError("tdp_w must be positive")
        self._tdp_w = tdp_w
        self._darkgates = SimulationEngine(get_spec("darkgates", tdp_w=tdp_w).build())
        self._baseline = SimulationEngine(get_spec("baseline", tdp_w=tdp_w).build())
        self._darkgates_c7 = SimulationEngine(
            get_spec("darkgates+c7", tdp_w=tdp_w).build()
        )

    # -- properties -------------------------------------------------------------------

    @property
    def tdp_w(self) -> float:
        """TDP level of this comparison."""
        return self._tdp_w

    @property
    def darkgates_engine(self) -> SimulationEngine:
        """Engine bound to the DarkGates configuration."""
        return self._darkgates

    @property
    def baseline_engine(self) -> SimulationEngine:
        """Engine bound to the baseline configuration."""
        return self._baseline

    # -- CPU -----------------------------------------------------------------------------

    def compare_cpu(self, workload: CpuWorkload) -> CpuComparison:
        """Compare one CPU workload across the two systems."""
        return CpuComparison(
            workload_name=workload.name,
            baseline=self._baseline.run_cpu_workload(workload),
            darkgates=self._darkgates.run_cpu_workload(workload),
        )

    def compare_cpu_suite(
        self, workloads: Sequence[CpuWorkload]
    ) -> List[CpuComparison]:
        """Compare a whole suite of CPU workloads."""
        return [self.compare_cpu(workload) for workload in workloads]

    def average_cpu_improvement(self, workloads: Sequence[CpuWorkload]) -> float:
        """Average fractional performance improvement over a suite."""
        comparisons = self.compare_cpu_suite(workloads)
        if not comparisons:
            raise ConfigurationError("workload suite is empty")
        return sum(c.performance_improvement for c in comparisons) / len(comparisons)

    # -- graphics -----------------------------------------------------------------------------

    def compare_graphics(self, workload: GraphicsWorkload) -> GraphicsComparison:
        """Compare one graphics workload across the two systems."""
        return GraphicsComparison(
            workload_name=workload.name,
            baseline=self._baseline.run_graphics_workload(workload),
            darkgates=self._darkgates.run_graphics_workload(workload),
        )

    def average_graphics_degradation(
        self, workloads: Sequence[GraphicsWorkload]
    ) -> float:
        """Average fractional FPS degradation over a graphics suite."""
        if not workloads:
            raise ConfigurationError("workload suite is empty")
        comparisons = [self.compare_graphics(w) for w in workloads]
        return sum(c.performance_degradation for c in comparisons) / len(comparisons)

    # -- energy -----------------------------------------------------------------------------

    def compare_energy(self, scenario: EnergyScenario) -> EnergyComparison:
        """Compare an energy scenario across the three Fig. 10 configurations."""
        return EnergyComparison(
            scenario_name=scenario.name,
            darkgates_c7=self._darkgates_c7.run_energy_scenario(scenario),
            darkgates_c8=self._darkgates.run_energy_scenario(scenario),
            baseline_c7=self._baseline.run_energy_scenario(scenario),
        )

    # -- summary ------------------------------------------------------------------------------

    def summary(self) -> Dict[str, str]:
        """One-line descriptions of the compared configurations."""
        return {
            "darkgates": self._darkgates.pcode.describe(),
            "baseline": self._baseline.pcode.describe(),
            "darkgates_c7_limited": self._darkgates_c7.pcode.describe(),
        }
