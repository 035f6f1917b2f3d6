"""DarkGates reproduction library.

A Python model of *DarkGates: A Hybrid Power-Gating Architecture to Mitigate
the Performance Impact of Dark-Silicon in High Performance Processors*
(HPCA 2022).  The library models the power-delivery network, power and
thermal behaviour, power-management firmware, and workloads of a
Skylake-class client SoC, and uses them to reproduce the paper's evaluation:
SPEC CPU2006 gains, 3DMark impact, and ENERGY STAR / RMT average power.

Quickstart — declare systems, run workloads, sweep grids::

    from repro import SimulationEngine, Study, get_spec, spec_cpu2006_base_suite

    # 1. Systems are declarative specs; .build() assembles the firmware.
    darkgates = get_spec("darkgates")              # Skylake-S, bypassed, C8
    baseline = get_spec("baseline")                # Skylake-H, gated, C7
    low_power = darkgates.variant(tdp_w=35.0)      # any field is overridable

    # 2. One polymorphic entry point runs any workload class.
    engine = SimulationEngine(darkgates.build())
    result = engine.run(spec_cpu2006_base_suite()[0])   # -> CpuRunResult
    print(result.to_dict())                             # JSON round-trips

    # 3. Studies sweep specs x workloads (in-process, or on max_workers
    #    processes), cache per-(spec, workload) results, and serialise to JSON.
    study = Study.over_tdp_levels(
        ("darkgates", "baseline"),
        tdp_levels_w=(35.0, 91.0),
        workloads=spec_cpu2006_base_suite(),
        max_workers=2,
    )
    grid = study.run()
    gain = grid.get(darkgates.variant(tdp_w=91.0), "416.gamess").improvement_over(
        grid.get(get_spec("baseline", tdp_w=91.0), "416.gamess")
    )
    print(grid.as_table())

    # 4. Inverse queries invert the sweep: declare constraints and an
    #    objective, and the solver bisects instead of scanning densely.
    from repro import Constraint, Objective, OptimizationSpec
    from repro.pmu.dvfs import CpuDemand

    query = OptimizationSpec(
        name="min-tdp",
        method="bisect",
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", 3.0e9),),
        variables={"tdp_w": tuple(range(10, 92))},
    )
    answer = Study.optimize(
        ("darkgates", "baseline"), query, demand=CpuDemand(active_cores=4)
    ).run()
    print(answer.as_table())

Migrating to 2.0 — the 1.x compatibility shims are gone:

=====================================================  ==================================================================
Removed in 2.0                                         Use instead
=====================================================  ==================================================================
``darkgates_system(tdp_w)``                            ``get_spec("darkgates", tdp_w=tdp_w).build()``
``baseline_system(tdp_w)``                             ``get_spec("baseline", tdp_w=tdp_w).build()``
``darkgates_c7_limited_system(tdp_w)``                 ``get_spec("darkgates+c7", tdp_w=tdp_w).build()``
``Study.over_dynamics(specs, scenarios, tdps)``        ``Study.over_dynamics(specs, scenarios, tdp_levels_w=tdps)``
``Study.over_transients(specs, traces, steps)``        ``Study.over_transients(specs, traces, time_steps_s=steps)``
``Study.over_population(..., count, tdps)``            ``Study.over_population(..., count, tdp_levels_w=tdps)``
=====================================================  ==================================================================

Payloads written by 1.x keep loading: every ``to_dict``/``from_dict`` goes
through one schema-versioned codec (:mod:`repro.common.codec`).
"""

from repro.analysis.optimize import (
    Constraint,
    Objective,
    OptimizationResult,
    OptimizationSpec,
    OptimizationStudy,
)
from repro.analysis.study import (
    CallableTask,
    Study,
    StudyExecutor,
    StudyResult,
    SweepRequest,
)
from repro.core.darkgates import SystemComparison
from repro.core.overhead import darkgates_overheads

# Importing the fleet package also registers the named fleet profiles in
# SCENARIO_BUILDERS, so "fleet-*" scenarios resolve by name everywhere
# (including the python -m repro CLI).
from repro.fleet import (
    ArrivalProcess,
    DiurnalArrivals,
    DutyCycleArrivals,
    EnsembleQos,
    FleetProfile,
    OnOffArrivals,
    PoissonArrivals,
    QosAccumulator,
    QosReport,
    ScenarioGenerator,
    aggregate_reports,
    fleet_profile,
    fleet_profile_names,
)
from repro.core.spec import (
    SystemSpec,
    build_engine,
    get_spec,
    register_spec,
    spec_names,
)
from repro.pdn.transients import (
    LoadTrace,
    TraceBuilder,
    TransientScenario,
    paper_transient_scenarios,
)
from repro.pmu.pcode import Pcode
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    CpuRunResult,
    EnergyRunResult,
    GraphicsRunResult,
    RunResult,
    TransientRunResult,
)
from repro.store import RunIndex, RunManifest, RunStore, StoreCache
from repro.variation import (
    BinningPolicy,
    DiePopulation,
    DiePopulationSampler,
    DieVariation,
    ParameterVariation,
    PopulationResult,
    PopulationStudy,
    VariationModel,
    skylake_binning_policy,
    skylake_process_variation,
)
from repro.workloads.descriptors import Workload
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import (
    spec_cpu2006_base_suite,
    spec_cpu2006_rate_suite,
    spec_cpu2006_suite,
)

__version__ = "6.0.0"

__all__ = [
    "SystemSpec",
    "build_engine",
    "get_spec",
    "register_spec",
    "spec_names",
    "Study",
    "StudyResult",
    "SweepRequest",
    "Objective",
    "Constraint",
    "OptimizationSpec",
    "OptimizationResult",
    "OptimizationStudy",
    "CallableTask",
    "StudyExecutor",
    "SystemComparison",
    "darkgates_overheads",
    "Pcode",
    "SimulationEngine",
    "Workload",
    "RunResult",
    "CpuRunResult",
    "GraphicsRunResult",
    "EnergyRunResult",
    "TransientRunResult",
    "LoadTrace",
    "TraceBuilder",
    "TransientScenario",
    "paper_transient_scenarios",
    "energy_star_scenario",
    "rmt_scenario",
    "three_dmark_suite",
    "spec_cpu2006_base_suite",
    "spec_cpu2006_rate_suite",
    "spec_cpu2006_suite",
    "ParameterVariation",
    "VariationModel",
    "skylake_process_variation",
    "DieVariation",
    "DiePopulation",
    "DiePopulationSampler",
    "BinningPolicy",
    "skylake_binning_policy",
    "PopulationStudy",
    "PopulationResult",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "OnOffArrivals",
    "DutyCycleArrivals",
    "FleetProfile",
    "ScenarioGenerator",
    "fleet_profile",
    "fleet_profile_names",
    "QosReport",
    "QosAccumulator",
    "EnsembleQos",
    "aggregate_reports",
    "RunStore",
    "RunManifest",
    "RunIndex",
    "StoreCache",
    "__version__",
]
