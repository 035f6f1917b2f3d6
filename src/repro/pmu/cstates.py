"""Package C-states (system idle power states).

Reproduces Table 1 of the paper: the package C-states of the Skylake client
architecture, the conditions to enter each, and — the part that matters for
the energy-efficiency evaluation of Fig. 10 — how much the package consumes
in each state for a gated (baseline) versus bypassed (DarkGates) part.

The key asymmetry: in package C7 the CPU core voltage regulator is still on.
A baseline part power-gates its idle cores, so C7 is cheap; a DarkGates part
cannot, so its cores keep leaking at the retention rail voltage and C7 power
rises by more than 3x (Section 4.3).  Package C8 turns the core VR off
entirely, which removes that leakage and is why DarkGates desktops must add
C8 support.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError
from repro.soc.processor import Processor

if TYPE_CHECKING:
    from repro.variation.sampler import DieVariation


class PackageCState(Enum):
    """Package C-states of the Skylake client architecture (Table 1)."""

    C0 = "C0"
    C2 = "C2"
    C3 = "C3"
    C6 = "C6"
    C7 = "C7"
    C8 = "C8"
    C9 = "C9"
    C10 = "C10"

    @property
    def depth(self) -> int:
        """Numeric depth used for ordering (deeper == larger)."""
        return int(self.value[1:])

    def is_deeper_than(self, other: "PackageCState") -> bool:
        """True when this state is deeper (lower power) than *other*."""
        return self.depth > other.depth

    @property
    def core_vr_on(self) -> bool:
        """Whether the CPU core voltage regulator is still on in this state.

        Table 1: the core VR is on up to and including package C7 and off
        from package C8 onwards.
        """
        return self.depth <= 7

    @classmethod
    def from_name(cls, name: str) -> "PackageCState":
        """Parse a state from a string such as ``"C8"`` (case-insensitive)."""
        try:
            return cls[name.strip().upper()]
        except (KeyError, AttributeError):
            valid = ", ".join(state.value for state in cls)
            raise ConfigurationError(
                f"unknown package C-state {name!r}; valid names "
                f"(case-insensitive): {valid}"
            ) from None


#: Break-even ladder of package C-state entry: (minimum idle-gap duration in
#: seconds, state entered), shallow to deep.  Entering a deep state costs
#: more transition energy than it saves below its break-even time, so very
#: short gaps only reach the shallow states.  The closed-loop dynamics engine
#: maps each idle phase through it.
CSTATE_BREAK_EVEN_LADDER: Tuple[Tuple[float, "PackageCState"], ...] = (
    (0.0, PackageCState.C2),
    (0.0005, PackageCState.C3),
    (0.002, PackageCState.C6),
    (0.008, PackageCState.C7),
    (0.030, PackageCState.C8),
)


def cstate_for_idle_duration(
    duration_s: float, deepest_supported: "PackageCState"
) -> "PackageCState":
    """Deepest package C-state reachable for an idle gap of *duration_s*.

    Walks :data:`CSTATE_BREAK_EVEN_LADDER` and clamps the result at the
    platform's *deepest_supported* state (set by the fuses).
    """
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    chosen = CSTATE_BREAK_EVEN_LADDER[0][1]
    for minimum_s, state in CSTATE_BREAK_EVEN_LADDER:
        if duration_s >= minimum_s:
            chosen = state
    if chosen.depth > deepest_supported.depth:
        return deepest_supported
    return chosen


#: Entry conditions of each package C-state, condensed from the paper's Table 1.
PACKAGE_CSTATE_TABLE: Dict[PackageCState, str] = {
    PackageCState.C0: (
        "One or more cores or the graphics engine executing instructions"
    ),
    PackageCState.C2: (
        "All cores in CC3 (clocks off) or deeper and graphics in RC6 "
        "(power-gated); DRAM active"
    ),
    PackageCState.C3: (
        "All cores in CC3 or deeper, graphics in RC6; LLC may be flushed and "
        "turned off, DRAM in self-refresh, most IO/memory clocks gated"
    ),
    PackageCState.C6: (
        "All cores in CC6 (power-gated) or deeper, graphics in RC6; DRAM in "
        "self-refresh, IO and memory clock generators off"
    ),
    PackageCState.C7: (
        "Same as package C6 with some IO and memory domain voltages "
        "power-gated; CPU core VR is ON"
    ),
    PackageCState.C8: (
        "Same as package C7 with additional power-gating in the IO and memory "
        "domains; CPU core VR is OFF"
    ),
    PackageCState.C9: (
        "Same as package C8 while all IPs must be off; most VR voltages "
        "reduced; display panel may be in panel self-refresh"
    ),
    PackageCState.C10: (
        "Same as package C9 while all SoC VRs except the always-on VR are "
        "off; display panel off"
    ),
}


@dataclass(frozen=True)
class CStatePowerBreakdown:
    """Power of the package at one idle state, split by contributor."""

    state: PackageCState
    cores_leakage_w: float
    uncore_w: float
    vr_overhead_w: float
    platform_floor_w: float

    @property
    def total_w(self) -> float:
        """Total package (processor-attributed) power in this state."""
        return (
            self.cores_leakage_w
            + self.uncore_w
            + self.vr_overhead_w
            + self.platform_floor_w
        )


class PackageCStateModel:
    """Package idle-power model for one processor configuration.

    Parameters
    ----------
    processor:
        Hardware configuration (the package decides whether cores can be
        gated when idle).
    bypass_mode:
        True for a DarkGates (bypassed) part; idle cores then leak whenever
        the core VR is on.
    retention_voltage_v:
        Rail voltage the core VR maintains in deep package C-states while it
        is still on (C6/C7): low, but enough to wake quickly.
    idle_temperature_c:
        Junction temperature during long idle periods.
    vr_on_overhead_w:
        Fixed conversion overhead of the core VR while it is enabled.
    vr_off_wake_assist_w:
        Power of the wake-assist machinery that VR-off states (C8 and
        deeper) require: CPU context preserved in DRAM, chipset-hosted wake
        timers, and the circuitry that sequences the core VR back on
        (paper Section 4.3 footnote on C8+/C10 platform support).
    platform_floor_w:
        Always-on power attributed to the processor in any idle state
        (always-on VR rail, wake logic).
    die_variation:
        Optional :class:`~repro.variation.sampler.DieVariation` of the
        specific die; when set, :meth:`power_w` routes through the varied
        leakage arithmetic (:meth:`varied_power_w`) so a die's leakage
        corner and ``kt`` shift show up in its idle power exactly as the
        population fast path computes them.
    """

    def __init__(
        self,
        processor: Processor,
        bypass_mode: bool,
        retention_voltage_v: float = 0.95,
        idle_temperature_c: float = 55.0,
        vr_on_overhead_w: float = 0.05,
        vr_off_wake_assist_w: float = 0.11,
        platform_floor_w: float = 0.07,
        die_variation: Optional["DieVariation"] = None,
    ) -> None:
        if retention_voltage_v <= 0:
            raise ConfigurationError("retention_voltage_v must be positive")
        self._processor = processor
        self._bypass_mode = bypass_mode
        self._retention_voltage_v = retention_voltage_v
        self._idle_temperature_c = idle_temperature_c
        self._vr_on_overhead_w = vr_on_overhead_w
        self._vr_off_wake_assist_w = vr_off_wake_assist_w
        self._platform_floor_w = platform_floor_w
        self._die_variation = die_variation

    # -- per-state power -----------------------------------------------------------------

    def breakdown(self, state: PackageCState) -> CStatePowerBreakdown:
        """Power breakdown of the package at idle *state*."""
        if state is PackageCState.C0:
            raise ConfigurationError(
                "package C0 is an active state; use the DVFS/PBM models for it"
            )
        cores_leakage = self._cores_leakage_w(state)
        uncore = self._processor.die.uncore.package_idle_power_w(state.value)
        vr_overhead = (
            self._vr_on_overhead_w if state.core_vr_on else self._vr_off_wake_assist_w
        )
        return CStatePowerBreakdown(
            state=state,
            cores_leakage_w=cores_leakage,
            uncore_w=uncore,
            vr_overhead_w=vr_overhead,
            platform_floor_w=self._platform_floor_w,
        )

    def power_w(self, state: PackageCState) -> float:
        """Total package power at idle *state*."""
        if self._die_variation is not None:
            return float(
                self.varied_power_w(
                    state,
                    self._die_variation.leakage_scale,
                    self._die_variation.leakage_kt_delta_per_c,
                )
            )
        return self.breakdown(state).total_w

    # -- die variation -----------------------------------------------------------------

    def varied_power_w(
        self,
        state: PackageCState,
        leakage_scale: Union[float, np.ndarray],
        kt_delta_per_c: Union[float, np.ndarray],
    ) -> Union[float, np.ndarray]:
        """Package power at idle *state* for one or many varied dice.

        The knobs may be scalars (one die) or arrays (a population): the
        same element-wise expressions evaluate either way, so one die's own
        build and the population fast path agree bit for bit.
        Only the core-leakage component varies; uncore, VR overhead and the
        platform floor are die-independent, and the summation order mirrors
        :meth:`CStatePowerBreakdown.total_w`.
        """
        if state is PackageCState.C0:
            raise ConfigurationError(
                "package C0 is an active state; use the DVFS/PBM models for it"
            )
        leakage = self._varied_cores_leakage_w(state, leakage_scale, kt_delta_per_c)
        uncore = self._processor.die.uncore.package_idle_power_w(state.value)
        vr_overhead = (
            self._vr_on_overhead_w if state.core_vr_on else self._vr_off_wake_assist_w
        )
        return leakage + uncore + vr_overhead + self._platform_floor_w

    def _varied_cores_leakage_w(
        self,
        state: PackageCState,
        leakage_scale: Union[float, np.ndarray],
        kt_delta_per_c: Union[float, np.ndarray],
    ) -> Union[float, np.ndarray]:
        if not state.core_vr_on:
            # Core VR off: unpowered cores leak nothing, whatever the die.
            return leakage_scale * 0.0
        total: Union[float, np.ndarray] = 0.0
        for core in self._processor.die.cores:
            contribution = core.leakage.base_power_w(
                self._retention_voltage_v
            ) * core.leakage.temperature_factor(
                self._idle_temperature_c, kt_delta_per_c
            )
            if not self._bypass_mode:
                contribution = contribution * core.power_gate.residual_leakage_fraction
            total = total + contribution
        return total * leakage_scale

    def _cores_leakage_w(self, state: PackageCState) -> float:
        if not state.core_vr_on:
            # Core VR off: the cores are unpowered regardless of gating.
            return 0.0
        die = self._processor.die
        if self._bypass_mode:
            # Bypassed: idle cores sit at the retention rail voltage and leak.
            return sum(
                core.leakage.power_w(self._retention_voltage_v, self._idle_temperature_c)
                for core in die.cores
            )
        # Gated: only the residual leakage through the off power-gates remains.
        return sum(
            core.idle_power_w(
                self._retention_voltage_v, gated=True, temperature_c=self._idle_temperature_c
            )
            for core in die.cores
        )

    # -- state selection ------------------------------------------------------------------

    def idle_states(self) -> List[PackageCState]:
        """All idle (non-C0) states, shallow to deep."""
        return [state for state in PackageCState if state is not PackageCState.C0]

    def power_ratio_to(
        self, other: "PackageCStateModel", state: PackageCState
    ) -> float:
        """Ratio of this configuration's power to *other*'s at *state*."""
        other_power = other.power_w(state)
        if other_power <= 0:
            raise ConfigurationError("reference configuration has zero power")
        return self.power_w(state) / other_power


def table1_rows() -> List[tuple[str, str]]:
    """(state, entry conditions) rows reproducing the paper's Table 1."""
    return [(state.value, PACKAGE_CSTATE_TABLE[state]) for state in PACKAGE_CSTATE_TABLE]
