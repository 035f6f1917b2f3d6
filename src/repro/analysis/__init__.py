"""Experiment definitions, the study runner, and reporting.

* :mod:`repro.analysis.study` — the declarative sweep runner: grids of
  system specs x workload suites executed in-process or on a process pool,
  dynamic cells in lockstep batches, with per-(spec, workload) result
  caching.
* :mod:`repro.analysis.experiments` — one function per table/figure of the
  paper's evaluation, each declaring its grid as a :class:`Study` and
  reducing the completed grid into a structured result object that the
  benchmarks regenerate and assert on.
* :mod:`repro.analysis.reporting` — plain-text table formatting for the
  examples and the EXPERIMENTS.md log.
"""

from repro.analysis.experiments import (
    Fig10Result,
    Fig3Result,
    Fig4Result,
    Fig7Result,
    Fig8Result,
    Fig9Result,
    ReliabilityResult,
    run_fig10_energy_efficiency,
    run_fig3_guardband_motivation,
    run_fig4_impedance_profiles,
    run_fig7_spec_per_benchmark,
    run_fig8_spec_tdp_sweep,
    run_fig9_graphics_degradation,
    run_sec42_reliability_guardband,
    run_table1_package_cstates,
    run_table2_system_parameters,
)
from repro.analysis.reporting import format_table
from repro.analysis.study import (
    CallableTask,
    EngineTask,
    Study,
    StudyCell,
    StudyExecutor,
    StudyResult,
)

__all__ = [
    "Fig3Result",
    "Fig4Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "ReliabilityResult",
    "run_fig3_guardband_motivation",
    "run_fig4_impedance_profiles",
    "run_fig7_spec_per_benchmark",
    "run_fig8_spec_tdp_sweep",
    "run_fig9_graphics_degradation",
    "run_fig10_energy_efficiency",
    "run_sec42_reliability_guardband",
    "run_table1_package_cstates",
    "run_table2_system_parameters",
    "format_table",
    "Study",
    "StudyCell",
    "StudyResult",
    "CallableTask",
    "EngineTask",
    "StudyExecutor",
]
