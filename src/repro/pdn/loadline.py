"""Load-line (adaptive voltage positioning) and power-virus-level model.

This module reproduces the background model of the paper's Fig. 2:

* ``Vccload = Vcc - RLL * Icc`` — the voltage at the load droops along the
  load-line as current rises (Fig. 2(b)).
* The PMU sizes the voltage guardband for the *worst-case* current of the
  current system state, described by a **power-virus level**: a bound on the
  maximum dynamic capacitance (and therefore current) that the set of active
  cores and instruction mix can draw (Fig. 2(c)).
* Moving between virus levels adds or removes a guardband step ``dV``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import ConfigurationError, ConstraintViolation
from repro.common.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True)
class PowerVirusLevel:
    """One power-virus level of the adaptive guardband scheme.

    Parameters
    ----------
    name:
        Label, e.g. ``"VirusLevel1"``.
    max_active_cores:
        Largest number of simultaneously active cores covered by this level.
    virus_current_a:
        Worst-case (power-virus) current the covered system states can draw.
    """

    name: str
    max_active_cores: int
    virus_current_a: float

    def __post_init__(self) -> None:
        if self.max_active_cores < 1:
            raise ConfigurationError(
                f"max_active_cores must be >= 1, got {self.max_active_cores}"
            )
        ensure_positive(self.virus_current_a, "virus_current_a")


@dataclass
class VirusLevelTable:
    """An ordered set of power-virus levels.

    Levels must be registered in increasing order of both core count and
    virus current, mirroring ``VirusLevel1 < VirusLevel2 < VirusLevel3`` in
    the paper.
    """

    levels: List[PowerVirusLevel] = field(default_factory=list)

    def __post_init__(self) -> None:
        for earlier, later in zip(self.levels, self.levels[1:]):
            if later.max_active_cores < earlier.max_active_cores:
                raise ConfigurationError(
                    "virus levels must be ordered by max_active_cores"
                )
            if later.virus_current_a <= earlier.virus_current_a:
                raise ConfigurationError(
                    "virus levels must be ordered by increasing virus current"
                )

    def level_for_active_cores(self, active_cores: int) -> PowerVirusLevel:
        """Return the lowest level that covers *active_cores* active cores."""
        if active_cores < 0:
            raise ConfigurationError(f"active_cores must be >= 0, got {active_cores}")
        lookup = max(1, active_cores)
        for level in self.levels:
            if level.max_active_cores >= lookup:
                return level
        if not self.levels:
            raise ConfigurationError("virus level table is empty")
        raise ConstraintViolation(
            "active cores beyond highest virus level",
            lookup,
            self.levels[-1].max_active_cores,
        )

    def highest(self) -> PowerVirusLevel:
        """The most severe (largest current) level."""
        if not self.levels:
            raise ConfigurationError("virus level table is empty")
        return self.levels[-1]

    def names(self) -> List[str]:
        """Level names in order."""
        return [level.name for level in self.levels]

    @classmethod
    def per_core_levels(
        cls, core_count: int, virus_current_per_core_a: float, base_current_a: float = 6.0
    ) -> "VirusLevelTable":
        """Build one virus level per possible active-core count.

        The per-level virus current is ``base + n * per_core`` which matches
        the paper's example of levels representing one, two, and four active
        cores of a four-core part.
        """
        if core_count < 1:
            raise ConfigurationError(f"core_count must be >= 1, got {core_count}")
        ensure_positive(virus_current_per_core_a, "virus_current_per_core_a")
        ensure_non_negative(base_current_a, "base_current_a")
        levels = [
            PowerVirusLevel(
                name=f"VirusLevel{n}",
                max_active_cores=n,
                virus_current_a=base_current_a + n * virus_current_per_core_a,
            )
            for n in range(1, core_count + 1)
        ]
        return cls(levels=levels)


@dataclass(frozen=True)
class LoadLine:
    """The load-line model of Fig. 2.

    Parameters
    ----------
    resistance_ohm:
        The load-line slope R_LL (1.6 mOhm - 2.4 mOhm on recent client parts).
    vmin_v:
        Minimum functional voltage of the load; the guardband must keep the
        load voltage above this under the worst-case virus current.
    vmax_v:
        Maximum operational voltage limit of the part (reliability limit).
    """

    resistance_ohm: float
    vmin_v: float = 0.55
    vmax_v: float = 1.52

    def __post_init__(self) -> None:
        ensure_positive(self.resistance_ohm, "resistance_ohm")
        ensure_positive(self.vmin_v, "vmin_v")
        ensure_positive(self.vmax_v, "vmax_v")
        if self.vmax_v <= self.vmin_v:
            raise ConfigurationError("vmax_v must be greater than vmin_v")

    # -- basic relationships ------------------------------------------------------

    def load_voltage(self, vr_setpoint_v: float, current_a: float) -> float:
        """``Vccload = Vcc - RLL * Icc`` (paper Fig. 2(b))."""
        ensure_non_negative(current_a, "current_a")
        return vr_setpoint_v - self.resistance_ohm * current_a

    def setpoint_for_load_voltage(self, load_voltage_v: float, current_a: float) -> float:
        """VR setpoint required so the load sees *load_voltage_v* at *current_a*."""
        ensure_non_negative(current_a, "current_a")
        return load_voltage_v + self.resistance_ohm * current_a

    def ir_guardband_v(self, virus_current_a: float) -> float:
        """IR-drop guardband required to survive *virus_current_a*."""
        ensure_non_negative(virus_current_a, "virus_current_a")
        return self.resistance_ohm * virus_current_a

    # -- virus-level guardbanding ----------------------------------------------------

    def guardband_for_level(self, level: PowerVirusLevel) -> float:
        """IR-drop guardband sized for one virus level."""
        return self.ir_guardband_v(level.virus_current_a)

    def guardband_step_v(
        self, from_level: PowerVirusLevel, to_level: PowerVirusLevel
    ) -> float:
        """Guardband delta when moving between virus levels (Fig. 2(c) dV)."""
        return self.guardband_for_level(to_level) - self.guardband_for_level(from_level)

    def excess_voltage_v(
        self, virus_current_a: float, actual_current_a: float
    ) -> float:
        """Extra voltage carried when the actual load is below the virus level.

        This is the "higher voltage than necessary" annotation of Fig. 2(b):
        the guardband is sized for the virus current, so any lighter load
        leaves ``RLL * (Ivirus - Iactual)`` of unneeded voltage (and the power
        loss grows quadratically with it).
        """
        ensure_non_negative(virus_current_a, "virus_current_a")
        ensure_non_negative(actual_current_a, "actual_current_a")
        if actual_current_a > virus_current_a:
            raise ConstraintViolation(
                "actual current above virus level", actual_current_a, virus_current_a
            )
        return self.resistance_ohm * (virus_current_a - actual_current_a)

    def check_operating_point(
        self,
        vr_setpoint_v: float,
        virus_current_a: float,
        minimum_current_a: float = 0.0,
    ) -> None:
        """Validate that an operating point respects both voltage limits.

        The load voltage at the virus current must stay above ``vmin_v`` and
        the unloaded (or lightest-load) voltage must stay below ``vmax_v`` —
        the two violation regions marked in Fig. 2(c).
        """
        at_virus = self.load_voltage(vr_setpoint_v, virus_current_a)
        if at_virus < self.vmin_v:
            raise ConstraintViolation("Vmin", at_virus, self.vmin_v)
        at_light_load = self.load_voltage(vr_setpoint_v, minimum_current_a)
        if at_light_load > self.vmax_v:
            raise ConstraintViolation("Vmax", at_light_load, self.vmax_v)


def default_virus_table(core_count: int = 4) -> VirusLevelTable:
    """Virus-level table representative of a 4-core Skylake client part.

    Each additional active core adds roughly 33 A of worst-case (power-virus)
    current on top of a ~6 A uncore/graphics floor, landing the 4-core virus
    level near 140 A — consistent with client-class EDC limits.
    """
    return VirusLevelTable.per_core_levels(
        core_count=core_count, virus_current_per_core_a=33.0, base_current_a=6.0
    )
