"""Voltage-guardband derivation from PDN characteristics.

The voltage guardband is the extra voltage the power-management firmware
adds on top of the silicon's nominal V/F requirement so that the weakest
spot of the die never sees less than its minimum functional voltage, even
under the worst-case (power-virus) current and the worst-case transient
droop.  The guardband is pure overhead: it raises power quadratically when
running and, crucially for this paper, it eats into the Vmax headroom and
therefore lowers the maximum attainable frequency (Fmax).

The guardband model here mirrors how the paper reasons about it:

* an **IR-drop component** proportional to the DC resistance of the supply
  path beyond the VR's load-line compensation (package routing plus die
  grid plus, in the gated configuration, the power-gate itself);
* a **transient-droop component** proportional to the peak AC impedance of
  the network (Fig. 4) and the size of fast current steps, the standard
  target-impedance rule (the time-domain droop of :mod:`repro.pdn.droop`
  runs per transient scenario and does not feed the guardband);
* a **reliability component** (Section 4.2) compensating additional aging
  stress, supplied by :mod:`repro.reliability`;
* a **fixed component** for sensor/process margin, identical in both
  configurations.

Because the bypassed network has roughly half the resistance and half the
peak impedance of the gated one, the first two components halve, which is
exactly Observation 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.common.validation import ensure_in_range, ensure_non_negative
from repro.pdn.ac import ACAnalysis, ImpedanceProfile
from repro.pdn.ladder import PdnConfiguration, SkylakePdnBuilder
from repro.pdn.loadline import PowerVirusLevel


@dataclass(frozen=True)
class GuardbandBreakdown:
    """The individual contributions to a voltage guardband, in volts."""

    ir_drop_v: float
    transient_droop_v: float
    reliability_v: float
    fixed_margin_v: float

    @property
    def total_v(self) -> float:
        """Total guardband applied on top of the nominal V/F voltage."""
        return (
            self.ir_drop_v
            + self.transient_droop_v
            + self.reliability_v
            + self.fixed_margin_v
        )

    def scaled(self, factor: float) -> "GuardbandBreakdown":
        """Return a breakdown with the PDN-dependent parts scaled by *factor*.

        Only the IR and transient components scale with the network; the
        reliability and fixed margins are independent of impedance.
        """
        return GuardbandBreakdown(
            ir_drop_v=self.ir_drop_v * factor,
            transient_droop_v=self.transient_droop_v * factor,
            reliability_v=self.reliability_v,
            fixed_margin_v=self.fixed_margin_v,
        )


@lru_cache(maxsize=8)
def _impedance_profile(configuration: PdnConfiguration) -> ImpedanceProfile:
    """The AC sweep of *configuration*, run once per frozen configuration.

    Every TDP variant of one package shares its network, so they share one
    sweep (a bypassed one for DarkGates parts, a gated one for the
    baseline) and the profile it returns, which callers read, not modify.
    """
    builder = SkylakePdnBuilder(configuration)
    analysis = ACAnalysis(builder.build_netlist(), builder.observation_node())
    return analysis.sweep(label="bypassed" if configuration.bypassed else "gated")


class GuardbandModel:
    """Derives voltage guardbands for a PDN configuration.

    Parameters
    ----------
    configuration:
        The PDN being guardbanded (gated or bypassed).
    droop_step_fraction:
        Fraction of a single core's virus current assumed to change
        "instantly" (within tens of nanoseconds) and therefore excite the
        peak of the impedance profile.  Calibrated so that the absolute
        guardbands land in the 50 mV - 250 mV range typical of client parts.
    multi_core_droop_growth:
        Per-additional-core growth factor of the transient step, modelling
        partially-aligned activity shifts across cores.
    shared_path_diversity:
        De-rating factor applied to the current of cores beyond the first
        when sizing the shared-path IR guardband; the load-line's adaptive
        positioning already tracks slow multi-core current swings.
    fixed_margin_v:
        Configuration-independent margin for sensors, process, and
        temperature inaccuracy.
    reliability_margin_v:
        Extra guardband for lifetime-reliability compensation; the DarkGates
        firmware adds less than 5 mV / 20 mV at high / low TDP (Section 4.2).
    per_core_virus_current_a:
        Worst-case current drawn by a single core; used for the die-grid
        portion of the IR drop (the shared path carries the full virus
        current, each core's grid only its own share).
    """

    def __init__(
        self,
        configuration: PdnConfiguration,
        droop_step_fraction: float = 0.40,
        fixed_margin_v: float = 0.018,
        reliability_margin_v: float = 0.0,
        per_core_virus_current_a: float = 30.0,
        multi_core_droop_growth: float = 0.15,
        shared_path_diversity: float = 0.55,
    ) -> None:
        ensure_in_range(droop_step_fraction, 0.0, 1.0, "droop_step_fraction")
        ensure_non_negative(fixed_margin_v, "fixed_margin_v")
        ensure_non_negative(reliability_margin_v, "reliability_margin_v")
        ensure_non_negative(per_core_virus_current_a, "per_core_virus_current_a")
        ensure_in_range(multi_core_droop_growth, 0.0, 1.0, "multi_core_droop_growth")
        ensure_in_range(shared_path_diversity, 0.0, 1.0, "shared_path_diversity")
        self._configuration = configuration
        self._droop_step_fraction = droop_step_fraction
        self._fixed_margin_v = fixed_margin_v
        self._reliability_margin_v = reliability_margin_v
        self._per_core_virus_current_a = per_core_virus_current_a
        self._multi_core_droop_growth = multi_core_droop_growth
        self._shared_path_diversity = shared_path_diversity

    # -- properties ------------------------------------------------------------------

    @property
    def configuration(self) -> PdnConfiguration:
        """The PDN configuration this model guardbands."""
        return self._configuration

    @property
    def reliability_margin_v(self) -> float:
        """Reliability guardband currently applied."""
        return self._reliability_margin_v

    def with_reliability_margin(self, margin_v: float) -> "GuardbandModel":
        """Return a copy of this model with a different reliability margin."""
        return GuardbandModel(
            configuration=self._configuration,
            droop_step_fraction=self._droop_step_fraction,
            fixed_margin_v=self._fixed_margin_v,
            reliability_margin_v=margin_v,
            per_core_virus_current_a=self._per_core_virus_current_a,
            multi_core_droop_growth=self._multi_core_droop_growth,
            shared_path_diversity=self._shared_path_diversity,
        )

    # -- components -------------------------------------------------------------------

    def impedance_profile(self) -> ImpedanceProfile:
        """Impedance profile of the configured network (one sweep per network)."""
        return _impedance_profile(self._configuration)

    def ir_drop_v(self, virus_level: PowerVirusLevel) -> float:
        """IR-drop guardband for *virus_level*.

        The shared path (VR output parasitics, board, package) carries the
        combined current of every covered core while each core's die grid
        (and power-gate, when present) carries only that core's share.  The
        current beyond the first core is de-rated by ``shared_path_diversity``
        because the worst-case alignment of all cores is already partially
        absorbed by the load-line's adaptive positioning.
        """
        cfg = self._configuration
        shared_resistance = (
            cfg.vr.output_resistance_ohm
            + cfg.board_resistance_ohm
            + cfg.effective_package_resistance_ohm()
        )
        per_core_resistance = cfg.effective_die_path_resistance_ohm()
        per_core_current = min(
            self._per_core_virus_current_a, virus_level.virus_current_a
        )
        shared_current = per_core_current + self._shared_path_diversity * max(
            0.0, virus_level.virus_current_a - per_core_current
        )
        return (
            shared_resistance * shared_current
            + per_core_resistance * per_core_current
        )

    def transient_droop_v(self, virus_level: PowerVirusLevel) -> float:
        """Transient-droop guardband for *virus_level*.

        Approximated as the worst-case impedance peak excited by a fast
        current step — the standard target-impedance sizing rule of PDN
        design.  The step is sized from the *local* core's virus current
        (that is what excites the die-level resonance the core observes),
        grown mildly with the number of covered cores because simultaneous
        activity shifts across cores add up partially at the shared nodes.
        """
        covered_cores = max(1, virus_level.max_active_cores)
        step_current_a = (
            self._droop_step_fraction
            * self._per_core_virus_current_a
            * (1.0 + self._multi_core_droop_growth * (covered_cores - 1))
        )
        peak_impedance = self.impedance_profile().peak_magnitude_ohm()
        return peak_impedance * step_current_a

    # -- totals ------------------------------------------------------------------------

    def breakdown(self, virus_level: PowerVirusLevel) -> GuardbandBreakdown:
        """Full guardband breakdown for *virus_level*."""
        return GuardbandBreakdown(
            ir_drop_v=self.ir_drop_v(virus_level),
            transient_droop_v=self.transient_droop_v(virus_level),
            reliability_v=self._reliability_margin_v,
            fixed_margin_v=self._fixed_margin_v,
        )

    def total_guardband_v(self, virus_level: PowerVirusLevel) -> float:
        """Total guardband for *virus_level*."""
        return self.breakdown(virus_level).total_v


class OffsetGuardbandModel:
    """A guardband model derived from another by a constant offset.

    The motivational experiment of the paper's Fig. 3 reduces the voltage
    guardband of a real Broadwell system by a flat 100 mV and measures the
    resulting performance.  This wrapper reproduces that manipulation: it
    delegates to an underlying :class:`GuardbandModel` and shifts the total
    by ``offset_v`` (never below zero), attributing the shift to the IR
    component for reporting purposes.
    """

    def __init__(self, inner: GuardbandModel, offset_v: float) -> None:
        self._inner = inner
        self._offset_v = offset_v

    @property
    def inner(self) -> GuardbandModel:
        """The wrapped guardband model."""
        return self._inner

    @property
    def offset_v(self) -> float:
        """The applied offset (negative values reduce the guardband)."""
        return self._offset_v

    @property
    def configuration(self) -> PdnConfiguration:
        """PDN configuration of the wrapped model."""
        return self._inner.configuration

    @property
    def reliability_margin_v(self) -> float:
        """Reliability guardband of the wrapped model."""
        return self._inner.reliability_margin_v

    def impedance_profile(self) -> ImpedanceProfile:
        """Impedance profile of the wrapped model's network."""
        return self._inner.impedance_profile()

    def breakdown(self, virus_level: PowerVirusLevel) -> GuardbandBreakdown:
        """Breakdown with the offset folded into the IR component."""
        base = self._inner.breakdown(virus_level)
        adjusted_ir = max(0.0, base.ir_drop_v + self._offset_v)
        return GuardbandBreakdown(
            ir_drop_v=adjusted_ir,
            transient_droop_v=base.transient_droop_v,
            reliability_v=base.reliability_v,
            fixed_margin_v=base.fixed_margin_v,
        )

    def total_guardband_v(self, virus_level: PowerVirusLevel) -> float:
        """Offset total guardband (never below zero)."""
        return max(0.0, self._inner.total_guardband_v(virus_level) + self._offset_v)
