"""Power-management-unit (Pcode) firmware substrate.

Models the firmware behaviours the paper extends for DarkGates (Section 4.2):

* :mod:`repro.pmu.vf_curve` — guardbanded voltage/frequency curves and the
  Vmax-limited maximum frequency (Fmax).
* :mod:`repro.pmu.fuses` — the silicon fuses that select bypass vs. normal
  mode and the deepest package C-state.
* :mod:`repro.pmu.dvfs` — P-state resolution: the highest 100 MHz bin that
  satisfies the TDP, Vmax and Iccmax limits for a given workload demand.
* :mod:`repro.pmu.turbo` — multi-core turbo tables derived from the V/F
  curves, and the batched PL1/PL2 turbo budget of the dynamics engine.
* :mod:`repro.pmu.pbm` — power-budget management between CPU cores and the
  graphics engine.
* :mod:`repro.pmu.cstates` — package C-states (Table 1) and their power.
* :mod:`repro.pmu.pcode` — the firmware facade tying it all together.
"""

from repro.pmu.cstates import PackageCState, PackageCStateModel
from repro.pmu.dvfs import (
    CandidateTable,
    CpuDemand,
    DvfsPolicy,
    LimitingFactor,
    OperatingPoint,
)
from repro.pmu.fuses import FuseSet, PowerDeliveryMode
from repro.pmu.pbm import GraphicsOperatingPoint, PowerBudgetManager
from repro.pmu.pcode import Pcode
from repro.pmu.turbo import TurboTable
from repro.pmu.vf_curve import VfCurve

__all__ = [
    "PackageCState",
    "PackageCStateModel",
    "DvfsPolicy",
    "OperatingPoint",
    "LimitingFactor",
    "CpuDemand",
    "FuseSet",
    "PowerDeliveryMode",
    "GraphicsOperatingPoint",
    "PowerBudgetManager",
    "Pcode",
    "CandidateTable",
    "TurboTable",
    "VfCurve",
]
