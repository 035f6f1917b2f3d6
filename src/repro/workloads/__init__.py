"""Workload substrate.

The paper evaluates three classes of workloads on real hardware; this
package provides descriptor-based models of each class that exercise the
same decision paths in the firmware/simulation stack.  All descriptors
satisfy the :class:`Workload` protocol (a ``name`` plus a ``kind`` tag), so
any of them can be handed to the engine's polymorphic ``run()`` or swept
through :class:`repro.analysis.study.Study`:

* :mod:`repro.workloads.descriptors` — the descriptor dataclasses and the
  :class:`Workload` protocol.
* :mod:`repro.workloads.spec` — SPEC CPU2006 base (single-core) and rate
  (all-core) workloads with per-benchmark frequency scalability and
  activity, the knobs Section 7.1 says drive the gains.
* :mod:`repro.workloads.graphics` — 3DMark-style graphics workloads.
* :mod:`repro.workloads.energy` — ENERGY STAR and Intel Ready Mode (RMT)
  idle-residency scenarios.
* :mod:`repro.workloads.dynamics` — timed phase timelines
  (:class:`DynamicScenario`) for the closed-loop dynamics engine.
"""

from repro.workloads.descriptors import (
    CpuWorkload,
    EnergyScenario,
    GraphicsWorkload,
    ResidencyPhase,
    ScenarioPhase,
    Workload,
)
from repro.workloads.dynamics import (
    DynamicPhase,
    DynamicScenario,
    burst_scenario,
    sprint_and_rest_scenario,
    sustained_scenario,
)
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import (
    spec_cpu2006_base_suite,
    spec_cpu2006_rate_suite,
    spec_cpu2006_suite,
)

__all__ = [
    "Workload",
    "CpuWorkload",
    "EnergyScenario",
    "GraphicsWorkload",
    "ResidencyPhase",
    "ScenarioPhase",
    "DynamicPhase",
    "DynamicScenario",
    "burst_scenario",
    "sprint_and_rest_scenario",
    "sustained_scenario",
    "energy_star_scenario",
    "rmt_scenario",
    "three_dmark_suite",
    "spec_cpu2006_base_suite",
    "spec_cpu2006_rate_suite",
    "spec_cpu2006_suite",
]
