"""Die model: cores + graphics + uncore plus the silicon's V/F character.

A single client die is reused across market segments (paper Section 2.2):
the same silicon is packaged as Skylake-H (mobile, power-gates enabled) and
Skylake-S (desktop, power-gates bypassed under DarkGates).  The die therefore
carries everything that is segment-independent: the component inventory, the
silicon's nominal voltage/frequency characteristic, and its electrical
limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import ConfigurationError
from repro.common.grid import FrequencyGrid
from repro.common.units import GHZ, MHZ
from repro.common.validation import ensure_non_negative, ensure_positive
from repro.soc.core import CpuCore
from repro.soc.graphics import GraphicsEngine
from repro.soc.uncore import Uncore


@dataclass(frozen=True)
class SiliconVfCharacter:
    """Nominal (guardband-free) voltage requirement of the core silicon.

    ``Vnom(f) = v0 + slope * f_ghz + curvature * f_ghz^2``

    The quadratic term captures the steepening of the curve near the top of
    the frequency range, which is why Vmax headroom converts into fewer
    megahertz at 4+ GHz than it would at 2 GHz.
    """

    v0: float = 0.58
    slope_v_per_ghz: float = 0.115
    curvature_v_per_ghz2: float = 0.011

    def __post_init__(self) -> None:
        ensure_positive(self.v0, "v0")
        ensure_positive(self.slope_v_per_ghz, "slope_v_per_ghz")
        ensure_non_negative(self.curvature_v_per_ghz2, "curvature_v_per_ghz2")

    def nominal_voltage_v(self, frequency_hz: float) -> float:
        """Nominal voltage the silicon needs at *frequency_hz*."""
        ensure_non_negative(frequency_hz, "frequency_hz")
        f_ghz = frequency_hz / GHZ
        return self.v0 + self.slope_v_per_ghz * f_ghz + self.curvature_v_per_ghz2 * f_ghz ** 2

    def slope_at(self, frequency_hz: float) -> float:
        """dV/df (volts per GHz) at *frequency_hz*."""
        f_ghz = frequency_hz / GHZ
        return self.slope_v_per_ghz + 2.0 * self.curvature_v_per_ghz2 * f_ghz

    def max_frequency_for_voltage(self, voltage_v: float) -> float:
        """Largest frequency whose nominal voltage is at most *voltage_v*.

        Returns 0.0 when even zero frequency needs more than *voltage_v*
        (i.e. the voltage is below v0).
        """
        if voltage_v <= self.v0:
            return 0.0
        if self.curvature_v_per_ghz2 == 0:
            f_ghz = (voltage_v - self.v0) / self.slope_v_per_ghz
            return f_ghz * GHZ
        # Solve curvature * f^2 + slope * f + (v0 - voltage) = 0 for f > 0.
        a = self.curvature_v_per_ghz2
        b = self.slope_v_per_ghz
        c = self.v0 - voltage_v
        discriminant = b * b - 4.0 * a * c
        f_ghz = (-b + discriminant ** 0.5) / (2.0 * a)
        return max(0.0, f_ghz) * GHZ


@dataclass(frozen=True)
class Die:
    """A client-processor die.

    Parameters
    ----------
    name:
        Die name (e.g. ``"skylake_4c_gt2"``).
    cores:
        The CPU cores on the die.
    graphics:
        Integrated graphics engine.
    uncore:
        Shared uncore.
    vf_character:
        Nominal core V/F characteristic of this silicon.
    core_frequency_grid:
        Selectable CPU core frequencies (0.8 - 4.2 GHz on the evaluated SKUs,
        100 MHz steps); the PMU may further restrict the top depending on
        limits.
    vmax_v:
        Maximum operational (reliability) voltage of the core domain.
    vmin_v:
        Minimum functional voltage.
    iccmax_a:
        Electrical design current (EDC) limit of the core domain.
    process_nm:
        Process node, for reporting.
    area_mm2:
        Total die area, for overhead reporting (Skylake 4+2 is ~122 mm^2).
    """

    name: str
    cores: List[CpuCore] = field(default_factory=list)
    graphics: GraphicsEngine = field(default_factory=GraphicsEngine)
    uncore: Uncore = field(default_factory=Uncore)
    vf_character: SiliconVfCharacter = field(default_factory=SiliconVfCharacter)
    core_frequency_grid: FrequencyGrid = field(
        default_factory=lambda: FrequencyGrid(
            min_hz=800 * MHZ, max_hz=5.0 * GHZ, step_hz=100 * MHZ
        )
    )
    vmax_v: float = 1.42
    vmin_v: float = 0.55
    iccmax_a: float = 140.0
    process_nm: int = 14
    area_mm2: float = 122.0

    def __post_init__(self) -> None:
        if not self.cores:
            raise ConfigurationError("a die needs at least one CPU core")
        ensure_positive(self.vmax_v, "vmax_v")
        ensure_positive(self.vmin_v, "vmin_v")
        if self.vmax_v <= self.vmin_v:
            raise ConfigurationError("vmax_v must exceed vmin_v")
        ensure_positive(self.iccmax_a, "iccmax_a")
        ensure_positive(self.area_mm2, "area_mm2")

    # -- aggregate properties --------------------------------------------------------

    @property
    def core_count(self) -> int:
        """Number of CPU cores on the die."""
        return len(self.cores)

    def total_power_gate_area_mm2(self) -> float:
        """Summed area of every core's power-gate."""
        return sum(core.power_gate.area_mm2 for core in self.cores)

    def power_gate_die_area_fraction(self) -> float:
        """Power-gate area as a fraction of the whole die."""
        return self.total_power_gate_area_mm2() / self.area_mm2

    def cores_leakage_w(self, voltage_v: float, temperature_c: float = 60.0) -> float:
        """Leakage of all cores at a common voltage (ungated)."""
        return sum(core.leakage.power_w(voltage_v, temperature_c) for core in self.cores)


def skylake_client_die(core_count: int = 4, name: str = "skylake_4c_gt2") -> Die:
    """Build the Skylake client die used by both evaluated packages."""
    cores = [CpuCore(name=f"core{i}") for i in range(core_count)]
    return Die(name=name, cores=cores)
