"""Simulation engine.

Runs workload descriptors against a firmware-configured processor
(:class:`~repro.pmu.pcode.Pcode`) and reports the metrics the paper's
evaluation is built from: relative performance for CPU and graphics
workloads, average power for energy scenarios, and package C-state
residencies of closed-loop runs.  :meth:`SimulationEngine.run` accepts any
workload class polymorphically and returns the matching :class:`RunResult`
subtype, all of which round-trip through JSON via ``to_dict()`` /
``RunResult.from_dict()``.

* :mod:`repro.sim.metrics` — result dataclasses.
* :mod:`repro.sim.engine` — the engine itself.
* :mod:`repro.sim.dynamics` — the closed-loop (time-stepped) Pcode dynamics
  engine: turbo budget, thermal RC, per-step DVFS, package C-states.
"""

from repro.sim.dynamics import BatchedDynamicsSimulator
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    CpuRunResult,
    DynamicRunResult,
    EnergyRunResult,
    GraphicsRunResult,
    PhaseEnergy,
    RunResult,
)

__all__ = [
    "SimulationEngine",
    "RunResult",
    "BatchedDynamicsSimulator",
    "CpuRunResult",
    "DynamicRunResult",
    "EnergyRunResult",
    "GraphicsRunResult",
    "PhaseEnergy",
]
