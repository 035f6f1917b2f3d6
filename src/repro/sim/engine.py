"""The simulation engine: workload descriptors in, evaluation metrics out.

The engine is intentionally thin: all the physics lives in the PDN, power,
and firmware models.  What the engine adds is the translation between a
workload descriptor and the firmware's decision inputs, and the conversion
of the resolved operating point into the metric the paper reports for that
workload class (relative SPEC score, relative FPS, average power, worst
transient droop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.common.errors import ConfigurationError
from repro.pdn.droop import DroopSimulator
from repro.pdn.ladder import SkylakePdnBuilder
from repro.pdn.transients import TransientScenario
from repro.pmu.cstates import PackageCState
from repro.pmu.dvfs import CpuDemand
from repro.pmu.pbm import GraphicsDemand
from repro.pmu.pcode import Pcode
from repro.power.leakage import NOMINAL_SILICON_TEMPERATURE_C
from repro.sim.dynamics import BatchedDynamicsSimulator, PopulationRunTraces
from repro.sim.metrics import (
    CpuRunResult,
    DynamicRunResult,
    EnergyRunResult,
    GraphicsRunResult,
    PhaseEnergy,
    RunResult,
    TransientRunResult,
)
from repro.workloads.descriptors import (
    CpuWorkload,
    EnergyScenario,
    GraphicsWorkload,
    ScenarioPhase,
    Workload,
)
from repro.workloads.dynamics import DynamicScenario

if TYPE_CHECKING:
    from repro.variation.sampler import DiePopulation

#: Version stamp of the simulation engine, hashed into content-addressed
#: run IDs and recorded in run-store manifests.  Bump it whenever an engine
#: or model change alters the numbers a run produces: stored runs from the
#: old engine then miss naturally (and ``python -m repro gc`` collects
#: them) instead of serving outdated physics as warm cache hits.
ENGINE_VERSION = "2"


class SimulationEngine:
    """Runs workloads on one firmware-configured system."""

    #: Engine version of every result this engine produces.
    version: str = ENGINE_VERSION

    #: Workload ``kind`` tag -> bound-method name implementing that class.
    _DISPATCH: Dict[str, str] = {
        CpuWorkload.kind: "run_cpu_workload",
        GraphicsWorkload.kind: "run_graphics_workload",
        EnergyScenario.kind: "run_energy_scenario",
        TransientScenario.kind: "run_transient_scenario",
        DynamicScenario.kind: "run_dynamic_scenario",
    }

    def __init__(self, pcode: Pcode) -> None:
        self._pcode = pcode
        self._droop_simulators: Dict[float, DroopSimulator] = {}
        self._dynamics = BatchedDynamicsSimulator()

    @property
    def pcode(self) -> Pcode:
        """The firmware configuration this engine simulates."""
        return self._pcode

    # -- polymorphic entry point -------------------------------------------------------

    def run(self, workload: Workload) -> RunResult:
        """Run any workload, dispatching on its ``kind`` tag.

        The single entry point behind which the per-class methods sit:
        :class:`CpuWorkload` -> :class:`CpuRunResult`,
        :class:`GraphicsWorkload` -> :class:`GraphicsRunResult`,
        :class:`EnergyScenario` -> :class:`EnergyRunResult`,
        :class:`TransientScenario` -> :class:`TransientRunResult`,
        :class:`DynamicScenario` -> :class:`DynamicRunResult`.
        """
        method_name = self._DISPATCH.get(getattr(workload, "kind", None))
        if method_name is None:
            raise ConfigurationError(
                f"cannot run {type(workload).__name__!s}: not a workload "
                f"(expected a kind tag in {sorted(self._DISPATCH)})"
            )
        return getattr(self, method_name)(workload)

    # -- CPU workloads -----------------------------------------------------------------

    def run_cpu_workload(self, workload: CpuWorkload) -> CpuRunResult:
        """Run a CPU workload and report its achieved relative performance."""
        if workload.active_cores > self._pcode.processor.core_count:
            raise ConfigurationError(
                f"workload {workload.name!r} needs {workload.active_cores} cores; "
                f"the processor has {self._pcode.processor.core_count}"
            )
        demand = CpuDemand(
            active_cores=workload.active_cores,
            activity=workload.activity,
            memory_intensity=workload.memory_intensity,
        )
        operating_point = self._pcode.resolve_cpu_operating_point(demand)
        performance = workload.relative_performance(operating_point.frequency_hz)
        return CpuRunResult(
            workload_name=workload.name,
            operating_point=operating_point,
            relative_performance=performance,
        )

    # -- graphics workloads ---------------------------------------------------------------

    def run_graphics_workload(self, workload: GraphicsWorkload) -> GraphicsRunResult:
        """Run a graphics workload and report its achieved relative FPS."""
        demand = GraphicsDemand(
            graphics_activity=workload.graphics_activity,
            driver_cores=workload.driver_cores,
            driver_activity=workload.driver_activity,
            memory_intensity=workload.memory_intensity,
        )
        operating_point = self._pcode.resolve_graphics_operating_point(demand)
        fps = workload.relative_fps(operating_point.graphics_frequency_hz)
        return GraphicsRunResult(
            workload_name=workload.name,
            operating_point=operating_point,
            relative_fps=fps,
        )

    # -- transient droop scenarios ---------------------------------------------------------

    def run_transient_scenario(self, scenario: TransientScenario) -> TransientRunResult:
        """Simulate a transient load scenario on this system's PDN.

        The ladder comes from the package's PDN configuration (so gated and
        bypassed systems naturally see their respective networks); the rail
        voltage defaults to the firmware's resolved single-core operating
        voltage unless the scenario pins one.
        """
        nominal_v = scenario.nominal_voltage_v
        if nominal_v is None:
            point = self._pcode.resolve_cpu_operating_point(CpuDemand(active_cores=1))
            nominal_v = point.voltage_v
        simulator = self._droop_simulator(nominal_v)
        result = simulator.simulate_profile(
            scenario.trace,
            duration_s=scenario.resolved_duration_s,
            time_step_s=scenario.time_step_s,
            initial_current_a=scenario.trace.initial_current_a,
        )
        return TransientRunResult(
            scenario_name=scenario.name,
            nominal_voltage_v=nominal_v,
            worst_droop_v=result.worst_droop_v,
            settled_drop_v=result.settled_drop_v,
            transient_overshoot_v=result.transient_overshoot_v,
            minimum_voltage_v=result.minimum_voltage_v(),
            time_step_s=scenario.time_step_s,
            duration_s=scenario.resolved_duration_s,
        )

    def _droop_simulator(self, nominal_voltage_v: float) -> DroopSimulator:
        simulator = self._droop_simulators.get(nominal_voltage_v)
        if simulator is None:
            builder = SkylakePdnBuilder(self._pcode.processor.package.pdn)
            simulator = DroopSimulator(
                builder.build_ladder(), nominal_voltage_v=nominal_voltage_v
            )
            self._droop_simulators[nominal_voltage_v] = simulator
        return simulator

    # -- dynamic (time-stepped) scenarios --------------------------------------------------

    def run_dynamic_scenario(self, scenario: DynamicScenario) -> DynamicRunResult:
        """Step a dynamic scenario through the closed Pcode loop.

        The loop couples the PL1/PL2 turbo budget, the lumped thermal RC
        model, per-step DVFS re-resolution and package C-state entry; see
        :mod:`repro.sim.dynamics`.  The trajectory is resolved by the
        lockstep engine as a batch of one.  The simulator is shared across
        runs so per-demand candidate tables and sustained points are built
        once per engine.
        """
        (result,) = self._dynamics.run_batch([(self._pcode, scenario)])
        return result

    def run_population(
        self, scenario: DynamicScenario, population: DiePopulation
    ) -> PopulationRunTraces:
        """Step a dynamic scenario across a whole die population in lockstep.

        *population* is a :class:`~repro.variation.sampler.DiePopulation`;
        the engine must be built from the nominal spec (per-die silicon
        knobs are injected as stacked arrays — see
        :meth:`~repro.sim.dynamics.BatchedDynamicsSimulator.run_population`).
        Returns the full ``(steps, dice)``
        :class:`~repro.sim.dynamics.PopulationRunTraces`; bounded-memory
        streaming is the population study's shard task
        (``run_cell_shard``).
        """
        return self._dynamics.run_population(self._pcode, scenario, population)

    # -- energy scenarios ------------------------------------------------------------------

    def run_energy_scenario(self, scenario: EnergyScenario) -> EnergyRunResult:
        """Run an energy-efficiency scenario and report average power."""
        phases = []
        for phase in scenario.phases:
            power = self._phase_power_w(phase)
            phases.append(
                PhaseEnergy(phase_name=phase.name, fraction=phase.fraction, power_w=power)
            )
        return EnergyRunResult(
            scenario_name=scenario.name,
            phases=tuple(phases),
            average_power_limit_w=scenario.average_power_limit_w,
        )

    def _phase_power_w(self, phase: ScenarioPhase) -> float:
        if phase.mode in ("off", "sleep"):
            # S-states: the processor is off; only the hinted platform share
            # attributed to it remains and is identical across configurations.
            return phase.active_power_hint_w
        if phase.mode == "active":
            return self._active_wake_power_w(phase)
        # package_idle
        state = self._resolve_idle_state(phase.package_cstate)
        idle_power = self._pcode.cstate_model.power_w(state)
        return idle_power + phase.active_power_hint_w

    def _resolve_idle_state(self, name: str) -> PackageCState:
        normalized = name.strip()
        if normalized.lower() == "deepest":
            return self._pcode.deepest_package_cstate()
        state = PackageCState.from_name(normalized)
        deepest = self._pcode.deepest_package_cstate()
        if state.depth > deepest.depth:
            return deepest
        return state

    def _active_wake_power_w(self, phase: ScenarioPhase) -> float:
        """Power during the short active bursts of an idle-platform scenario.

        The hint covers the configuration-independent part (the woken cores
        plus the woken uncore slice at low frequency); on top of that a
        bypassed part pays the leakage of the cores that would otherwise be
        power-gated.  The dark cores leak at the rail voltage the firmware
        actually resolves for the low-frequency wake (not a fixed 1.0 V),
        and only the cores beyond the phase's woken set count.
        """
        base = phase.active_power_hint_w
        if not self._pcode.bypass_mode:
            return base
        processor = self._pcode.processor
        woken = min(phase.active_cores, processor.core_count)
        rail_voltage = self._pcode.wake_rail_voltage_v(active_cores=woken)
        extra = sum(
            core.leakage.power_w(rail_voltage, NOMINAL_SILICON_TEMPERATURE_C)
            for core in processor.die.cores[woken:]
        )
        return base + extra
