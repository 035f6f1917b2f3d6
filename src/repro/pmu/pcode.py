"""Pcode: the firmware facade.

``Pcode`` ties the individual firmware pieces together the way the paper
describes the DarkGates firmware extensions (Section 4.2):

* it reads the fuse set to learn whether the part runs in bypass or normal
  mode and how deep its package C-states may go;
* it builds the guardbanded V/F curve for the part's power-delivery
  configuration (bypassed parts get the improved curve);
* it exposes DVFS resolution for CPU workloads, power-budget management for
  graphics workloads, and package-idle power for energy workloads.

One ``Pcode`` instance therefore fully describes "a system" in the
evaluation's sense: baseline mobile part, DarkGates desktop part, or the
ablation configurations (DarkGates limited to C7, non-DarkGates with C7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.variation.sampler import DieVariation
from repro.pdn.guardband import GuardbandModel
from repro.pdn.loadline import VirusLevelTable, default_virus_table
from repro.pmu.cstates import PackageCState, PackageCStateModel
from repro.pmu.dvfs import CpuDemand, DvfsPolicy, OperatingPoint
from repro.pmu.fuses import FuseSet
from repro.pmu.pbm import GraphicsDemand, GraphicsOperatingPoint, PowerBudgetManager
from repro.pmu.turbo import TurboTable
from repro.pmu.vf_curve import VfCurve
from repro.soc.processor import Processor


class Pcode:
    """Power-management firmware bound to one processor configuration.

    Parameters
    ----------
    processor:
        The hardware (die + package + TDP).
    fuses:
        Fused configuration (mode, deepest package C-state).  The fuse mode
        must be consistent with the package: bypass mode requires a package
        that actually shorts the domains.
    virus_table:
        Power-virus levels used for guardbanding; defaults to one level per
        active-core count.
    reliability_margin_v:
        Extra reliability guardband applied on top of the PDN guardband
        (Section 4.2; supplied by :mod:`repro.reliability` for bypass mode).
    guardband_model:
        Override of the guardband model.  Used by experiments that
        manipulate the guardband directly (for example the flat -100 mV
        reduction of the paper's Fig. 3); by default the model is derived
        from the package's PDN configuration.
    die_variation:
        Optional :class:`~repro.variation.sampler.DieVariation` describing
        the specific (non-nominal) die this firmware drives.  The DVFS
        policy and the package C-state model re-reference their models to
        the die; the thermal-resistance knob rides on the processor itself.
    """

    def __init__(
        self,
        processor: Processor,
        fuses: FuseSet,
        virus_table: Optional[VirusLevelTable] = None,
        reliability_margin_v: float = 0.0,
        guardband_model=None,
        die_variation: Optional["DieVariation"] = None,
    ) -> None:
        if fuses.bypass_enabled and not processor.package.bypass_power_gates:
            raise ConfigurationError(
                "bypass mode fused but the package does not bypass the power-gates"
            )
        if not fuses.bypass_enabled and processor.package.bypass_power_gates:
            raise ConfigurationError(
                "normal mode fused but the package has the power-gates bypassed"
            )
        self._processor = processor
        self._fuses = fuses
        self._virus_table = virus_table or default_virus_table(processor.core_count)
        self._guardband_model = guardband_model or GuardbandModel(
            configuration=processor.package.pdn,
            reliability_margin_v=reliability_margin_v,
        )
        self._vf_curve = VfCurve(
            silicon=processor.die.vf_character,
            guardband_model=self._guardband_model,
            virus_table=self._virus_table,
            frequency_grid=processor.die.core_frequency_grid,
            vmax_v=processor.die.vmax_v,
        )
        self._die_variation = die_variation
        self._dvfs = DvfsPolicy(
            processor=processor,
            vf_curve=self._vf_curve,
            bypass_mode=fuses.bypass_enabled,
            die_variation=die_variation,
        )
        self._pbm = PowerBudgetManager(
            processor=processor,
            vf_curve=self._vf_curve,
            bypass_mode=fuses.bypass_enabled,
        )
        self._cstates = PackageCStateModel(
            processor=processor,
            bypass_mode=fuses.bypass_enabled,
            die_variation=die_variation,
        )

    # -- identity -------------------------------------------------------------------------

    @property
    def processor(self) -> Processor:
        """The processor this firmware drives."""
        return self._processor

    @property
    def fuses(self) -> FuseSet:
        """The fuse set read at reset."""
        return self._fuses

    @property
    def bypass_mode(self) -> bool:
        """True when the part operates in DarkGates bypass mode."""
        return self._fuses.bypass_enabled

    @property
    def die_variation(self) -> Optional["DieVariation"]:
        """The specific die this firmware drives (``None`` == nominal)."""
        return self._die_variation

    @property
    def vf_curve(self) -> VfCurve:
        """The guardbanded V/F curve in use."""
        return self._vf_curve

    @property
    def guardband_model(self) -> GuardbandModel:
        """The guardband model in use."""
        return self._guardband_model

    @property
    def cstate_model(self) -> PackageCStateModel:
        """The package C-state power model in use."""
        return self._cstates

    @property
    def dvfs_policy(self) -> DvfsPolicy:
        """The DVFS (P-state) policy in use.

        Exposed for the closed-loop dynamics engine, which re-resolves
        operating points per time step against the policy's candidate
        tables and latches the sustained fixed point the policy stores per
        demand.
        """
        return self._dvfs

    # -- CPU workloads --------------------------------------------------------------------

    def resolve_cpu_operating_point(self, demand: CpuDemand) -> OperatingPoint:
        """Resolve the CPU frequency/voltage for a CPU-bound workload."""
        return self._dvfs.resolve(demand)

    def turbo_table(self) -> TurboTable:
        """Vmax-limited turbo table of this configuration."""
        return TurboTable.from_vf_curve(self._vf_curve, self._processor.core_count)

    # -- graphics workloads ------------------------------------------------------------------

    def resolve_graphics_operating_point(
        self, demand: GraphicsDemand
    ) -> GraphicsOperatingPoint:
        """Resolve the graphics frequency under the shared power budget."""
        return self._pbm.resolve(demand)

    # -- idle / energy workloads ----------------------------------------------------------------

    def deepest_package_cstate(self) -> PackageCState:
        """Deepest package C-state this platform may enter."""
        return PackageCState.from_name(self._fuses.deepest_package_cstate)

    def wake_rail_voltage_v(self, active_cores: int = 1) -> float:
        """Rail voltage during the low-frequency active bursts of idle scenarios.

        Idle-platform wakes run at the bottom of the frequency grid; the
        firmware programs the guardbanded voltage for that bin, and on a
        bypassed part this is the rail at which the dark cores leak while
        the woken cores service the burst.
        """
        if active_cores < 1:
            raise ConfigurationError("active_cores must be >= 1")
        grid = self._processor.die.core_frequency_grid
        return self._vf_curve.required_voltage_v(grid.min_hz, active_cores)

    def package_idle_power_w(self, state: Optional[PackageCState] = None) -> float:
        """Package power at an idle state (deepest supported by default)."""
        target = state or self.deepest_package_cstate()
        supported = self.deepest_package_cstate()
        if target.depth > supported.depth:
            raise ConfigurationError(
                f"platform supports at most package {supported.value}, "
                f"requested {target.value}"
            )
        return self._cstates.power_w(target)

    def describe(self) -> str:
        """One-line description of the configuration (for reports)."""
        mode = "bypass" if self.bypass_mode else "normal"
        return (
            f"{self._processor.describe()} | mode={mode} | "
            f"deepest package C-state={self._fuses.deepest_package_cstate}"
        )
