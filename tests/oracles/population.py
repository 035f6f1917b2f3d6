"""Per-die population stepping: the oracle of the lockstep population path.

:class:`ReferencePopulationStudy` expands every grid cell into one task
per die — each die a full ``SystemSpec.variant(die_variation=...)`` build
stepped through its own engine — and condenses the per-die results into
the same cell shape.  ``PopulationStudy(method="fast")`` must produce
exactly equal cells and binning on the same seed.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.analysis.study import CallableTask
from repro.core.spec import SystemSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import DynamicRunResult
from repro.variation.population import (
    PopulationCellResult,
    PopulationResult,
    PopulationStudy,
    _cell_from_matrices,
)
from repro.workloads.dynamics import DynamicScenario


def _run_reference_die(spec: SystemSpec, scenario: DynamicScenario) -> DynamicRunResult:
    """One reference-path task: one sampled die through the ordinary engine.

    Engines are built fresh (not through the shared ``build_engine`` cache):
    every die is a distinct system, so caching would only hoard memory.
    """
    return SimulationEngine(spec.build()).run(scenario)


def _cell_from_run_results(
    spec: SystemSpec,
    scenario: DynamicScenario,
    results: Sequence[DynamicRunResult],
) -> "PopulationCellResult":
    """Condense per-die reference results into the same cell shape."""
    first = results[0]
    return _cell_from_matrices(
        spec=spec,
        scenario_name=scenario.name,
        time_step_s=first.time_step_s,
        pl1_w=first.pl1_w,
        pl2_w=first.pl2_w,
        times_s=first.times_s,
        frequencies_hz=np.array([r.frequencies_hz for r in results]).T,
        package_powers_w=np.array([r.package_powers_w for r in results]).T,
        temperatures_c=np.array([r.temperatures_c for r in results]).T,
        limiting_names=np.array([r.limiting_factors for r in results]).T,
        cstate_names=tuple(first.package_cstates),
    )


class ReferencePopulationStudy(PopulationStudy):
    """A :class:`PopulationStudy` that steps every die through its own engine.

    Takes :class:`PopulationStudy`'s arguments except *method*; results
    record ``method="reference"``.
    """

    METHODS = ("reference",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, method="reference", **kwargs)

    def run(self) -> PopulationResult:
        """Execute one task per die and condense them cell by cell."""
        population = self.sample()
        tasks: List[CallableTask] = []
        die_specs = {
            spec: population.specs(spec) for spec in self._cell_specs
        }
        for spec in self._cell_specs:
            for scenario in self._scenarios:
                for index, die_spec in enumerate(die_specs[spec]):
                    tasks.append(
                        CallableTask(
                            key=f"{spec.label}/{scenario.name}/die{index}",
                            fn=_run_reference_die,
                            args=(die_spec, scenario),
                        )
                    )
        grid = self._run_grid(tasks)
        cells: List[PopulationCellResult] = []
        for spec in self._cell_specs:
            for scenario in self._scenarios:
                results = [
                    grid.task(f"{spec.label}/{scenario.name}/die{index}")
                    for index in range(self._count)
                ]
                cells.append(
                    _cell_from_run_results(spec, scenario, results)
                )
        return self._in_memory_result(cells, population)
