"""DVFS (P-state) resolution.

The DVFS firmware picks the highest selectable CPU frequency that satisfies
every platform limit for the current demand:

* **Vmax** — nominal voltage plus guardband must not exceed the reliability
  voltage limit (this is what makes high-TDP systems "Fmax-constrained").
* **TDP**  — sustained package power must fit the thermal design power
  (this is what limits low-TDP systems).
* **Iccmax (EDC)** — worst-case instantaneous current must stay within the
  VR's electrical design current.

Every bin of the 100 MHz frequency grid is evaluated at its own sustained
power/temperature fixed point (:func:`resolve_sustained_bins` on the
demand's :class:`CandidateTable`), and the highest bin that meets every
limit wins, which reproduces the granularity effects the paper calls out in
Section 3 and Section 7.1.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_in_range
from repro.pmu.vf_curve import VfCurve
from repro.soc.processor import Processor

if TYPE_CHECKING:
    from repro.variation.sampler import DieVariation


class LimitingFactor(Enum):
    """Which limit stopped the frequency search."""

    VMAX = "vmax"
    TDP = "tdp"
    ICCMAX = "iccmax"
    THERMAL = "thermal"
    FREQUENCY_GRID = "frequency_grid"
    NONE = "none"


#: Fixed enumeration order backing the integer codes the batched (lockstep)
#: resolution paths use in place of enum members; ``LIMITING_FACTOR_ORDER[code]``
#: recovers the member.  The two power-limited factors sit at the top so a
#: single ``code >= TDP`` comparison tests for them.
LIMITING_FACTOR_ORDER: Tuple[LimitingFactor, ...] = (
    LimitingFactor.VMAX,
    LimitingFactor.ICCMAX,
    LimitingFactor.FREQUENCY_GRID,
    LimitingFactor.NONE,
    LimitingFactor.TDP,
    LimitingFactor.THERMAL,
)

#: LimitingFactor -> integer code (the inverse of LIMITING_FACTOR_ORDER).
LIMITING_FACTOR_CODES: Dict[LimitingFactor, int] = {
    factor: code for code, factor in enumerate(LIMITING_FACTOR_ORDER)
}


@dataclass(frozen=True)
class CpuDemand:
    """What the running workload asks of the CPU cores.

    Parameters
    ----------
    active_cores:
        Number of cores executing instructions.
    activity:
        Cdyn fraction of the running code (1.0 == power-virus).
    memory_intensity:
        0..1 memory-traffic intensity; raises uncore power.
    graphics_active:
        True when the graphics engine is rendering concurrently (its power
        is then accounted by the PBM, not here).
    """

    active_cores: int
    activity: float = 0.62
    memory_intensity: float = 0.2
    graphics_active: bool = False

    def __post_init__(self) -> None:
        if self.active_cores < 1:
            raise ConfigurationError("active_cores must be >= 1")
        ensure_in_range(self.activity, 0.0, 1.0, "activity")
        ensure_in_range(self.memory_intensity, 0.0, 1.0, "memory_intensity")


@dataclass(frozen=True)
class OperatingPoint:
    """A resolved CPU operating point."""

    frequency_hz: float
    voltage_v: float
    package_power_w: float
    cores_power_w: float
    idle_cores_power_w: float
    uncore_power_w: float
    limiting_factor: LimitingFactor
    junction_temperature_c: float

    @property
    def frequency_ghz(self) -> float:
        """Operating frequency in GHz."""
        return self.frequency_hz / 1e9


#: The sustained power/temperature fixed point
#: (:func:`resolve_sustained_bins`): every bin starts at this junction
#: temperature and takes this many power -> temperature updates.
FIXED_POINT_START_C = 60.0
FIXED_POINT_ITERATIONS = 3

#: Leakage contributions sharing one exponential law: (kt, reference
#: temperature, kv, per-bin leakage at the reference temperature).  The
#: voltage coefficient ``kv`` rides along so die variation can re-reference
#: the group to a shifted rail voltage without rebuilding it from models.
LeakageGroup = Tuple[float, float, float, np.ndarray]

#: Distinct demands whose candidate table and sustained bin one
#: :class:`DvfsPolicy` keeps, least recently used out first.  A static
#: spec-base plus spec-rate sweep touches 56 demands per policy; an evicted
#: entry rebuilds to the same arrays.
DEMAND_CACHE_SIZE = 256


def _remember(cache: "OrderedDict[Any, Any]", key: Any, value: Any) -> None:
    """Store *value*, dropping the least recently used entry past the bound."""
    cache[key] = value
    if len(cache) > DEMAND_CACHE_SIZE:
        cache.popitem(last=False)


#: Per-core current the power-gate IR-drop guardband is sized for (matches
#: the guardband model's ``per_core_virus_current_a`` default: the gate
#: carries only its own core's worst-case current).
POWER_GATE_GUARDBAND_CURRENT_A = 30.0

#: Scalar-or-array knob values: the same transforms serve one die (floats)
#: and a stacked population (arrays), element for element.
Knob = Union[float, np.ndarray]


def die_voltage_offsets(
    vf_offset_v: Knob,
    powergate_resistance_scale: Knob,
    gate_resistance_ohm: float,
    bypass_mode: bool,
) -> Tuple[Knob, Knob]:
    """Per-die voltage offsets ``(vr, power)`` implied by the silicon knobs.

    The V/F offset shifts both the VR programming voltage and the effective
    silicon voltage used for power.  On a gated part, power-gate resistance
    above nominal additionally costs IR-drop guardband on the VR side (the
    drop is dissipated in the gate, not seen by the silicon); a bypassed
    part has no gate in the supply path and is immune.

    Accepts scalars (one die) or arrays (a population) and evaluates the
    same expression either way, so both paths agree bit for bit.
    """
    if bypass_mode:
        return vf_offset_v, vf_offset_v
    extra = (
        (powergate_resistance_scale - 1.0) * gate_resistance_ohm
    ) * POWER_GATE_GUARDBAND_CURRENT_A
    return vf_offset_v + extra, vf_offset_v


def _varied_reference_w(
    reference_w: np.ndarray,
    voltage_ratio: np.ndarray,
    kv: float,
    power_offset_v: Knob,
    leakage_scale: Knob,
) -> np.ndarray:
    """One leakage group's reference power re-referenced to a varied die.

    The leakage law is ``P_ref * (V / V_ref) * exp(kv * (V - V_ref))`` (the
    temperature term is 1 at the group's reference temperature), so a rail
    shifted by ``dv`` scales the bin by ``(V' / V) * exp(kv * dv)``; the
    die's leakage corner multiplies on top.  Shared verbatim by the scalar
    (per-die) and stacked (population) paths.
    """
    return (reference_w * (voltage_ratio * np.exp(kv * power_offset_v))) * (
        leakage_scale
    )


@dataclass(frozen=True)
class CandidateTable:
    """Temperature-factored operating-point candidates over the whole grid.

    The closed-loop dynamics engine re-resolves DVFS every time step, so the
    per-bin quantities that do *not* depend on temperature (voltages, dynamic
    power, the Vmax/Iccmax verdicts) are evaluated once per demand and only
    the exponential leakage temperature terms are applied per step.  Leakage
    contributions are grouped by their ``(kt, T_ref)`` law, which keeps the
    per-step work at a handful of vectorized operations.  The sustained
    point :meth:`DvfsPolicy.resolve` reports is read off the same table.
    """

    frequencies_hz: np.ndarray
    vr_voltages_v: np.ndarray
    power_voltages_v: np.ndarray
    active_dynamic_w: np.ndarray
    active_leakage_groups: Tuple[LeakageGroup, ...]
    idle_leakage_groups: Tuple[LeakageGroup, ...]
    uncore_power_w: float
    graphics_idle_power_w: float
    vmax_ok: np.ndarray
    iccmax_ok: np.ndarray
    vmax_v: float

    # -- temperature-dependent power ---------------------------------------------------

    @staticmethod
    def _groups_power_w(
        groups: Tuple[LeakageGroup, ...], temperature_c: Union[float, np.ndarray]
    ) -> np.ndarray:
        total = 0.0
        for kt, reference_c, _kv, reference_w in groups:
            total = total + reference_w * np.exp(kt * (temperature_c - reference_c))
        return total

    def active_cores_power_w(
        self, temperature_c: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Per-bin power of the active cores at *temperature_c*."""
        return self.active_dynamic_w + self._groups_power_w(
            self.active_leakage_groups, temperature_c
        )

    def idle_cores_power_w(
        self, temperature_c: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Per-bin power of the idle cores at *temperature_c*."""
        return np.zeros_like(self.frequencies_hz) + self._groups_power_w(
            self.idle_leakage_groups, temperature_c
        )

    def package_power_w(
        self, temperature_c: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Per-bin package power at *temperature_c*.

        *temperature_c* may be a scalar or a per-bin array (the sustained
        fixed-point resolver evaluates each bin at its own temperature).
        """
        return (
            self.active_cores_power_w(temperature_c)
            + self.idle_cores_power_w(temperature_c)
            + self.uncore_power_w
            + self.graphics_idle_power_w
        )

    # -- die variation -----------------------------------------------------------------

    def varied(
        self,
        *,
        leakage_scale: float = 1.0,
        kt_delta_per_c: float = 0.0,
        vr_offset_v: float = 0.0,
        power_offset_v: float = 0.0,
    ) -> "CandidateTable":
        """This table re-referenced to one varied die.

        Every effect is an element-wise transform of the nominal arrays —
        voltage columns shift, dynamic power scales with the squared
        voltage ratio, leakage groups re-reference through
        :func:`_varied_reference_w` and shift their ``kt`` — using exactly
        the expressions :meth:`StackedCandidateTables.from_population`
        evaluates over a whole population, so a per-die table and a
        population row are bit-identical.  Iccmax verdicts are kept at the
        nominal silicon (the EDC limit is a VR property, not a die one).
        """
        power_voltages = self.power_voltages_v + power_offset_v
        voltage_ratio = power_voltages / self.power_voltages_v
        vr_voltages = self.vr_voltages_v + vr_offset_v

        def groups(
            nominal: Tuple[LeakageGroup, ...],
        ) -> Tuple[LeakageGroup, ...]:
            return tuple(
                (
                    kt + kt_delta_per_c,
                    reference_c,
                    kv,
                    _varied_reference_w(
                        reference_w, voltage_ratio, kv, power_offset_v,
                        leakage_scale,
                    ),
                )
                for kt, reference_c, kv, reference_w in nominal
            )

        return CandidateTable(
            frequencies_hz=self.frequencies_hz,
            vr_voltages_v=vr_voltages,
            power_voltages_v=power_voltages,
            active_dynamic_w=self.active_dynamic_w * (voltage_ratio * voltage_ratio),
            active_leakage_groups=groups(self.active_leakage_groups),
            idle_leakage_groups=groups(self.idle_leakage_groups),
            uncore_power_w=self.uncore_power_w,
            graphics_idle_power_w=self.graphics_idle_power_w,
            vmax_ok=vr_voltages <= self.vmax_v + 1e-9,
            iccmax_ok=self.iccmax_ok,
            vmax_v=self.vmax_v,
        )

    # -- materialisation ---------------------------------------------------------------

    def operating_point(
        self,
        index: int,
        temperature_c: float,
        limiting: LimitingFactor,
    ) -> OperatingPoint:
        """Materialise one bin as an :class:`OperatingPoint`."""
        active = float(self.active_cores_power_w(temperature_c)[index])
        idle = float(self.idle_cores_power_w(temperature_c)[index])
        return OperatingPoint(
            frequency_hz=float(self.frequencies_hz[index]),
            voltage_v=float(self.vr_voltages_v[index]),
            package_power_w=active
            + idle
            + self.uncore_power_w
            + self.graphics_idle_power_w,
            cores_power_w=active,
            idle_cores_power_w=idle,
            uncore_power_w=self.uncore_power_w,
            limiting_factor=limiting,
            junction_temperature_c=temperature_c,
        )


@dataclass(frozen=True)
class StackedCandidateTables:
    """Several :class:`CandidateTable` rows stacked for lockstep resolution.

    The batched dynamics engine steps a whole sweep grid at once, so every
    time step has to resolve a *vector* of runs, each against its own
    candidate table (different specs have different V/F curves, core counts
    and TDPs).  Stacking pads every table to a common bin count and leakage
    group count — padded bins are marked infeasible so a selection can never
    land on them, and padded leakage groups carry zero reference power so
    they contribute exactly ``0.0`` W.  The lockstep resolution itself lives
    in the dynamics engine's per-segment windowed bin search
    (``repro.sim.dynamics``), which gathers these rows once per segment.

    The arithmetic deliberately mirrors :class:`CandidateTable` operation by
    operation (same accumulation order, same tolerances), so a batched run
    reproduces the per-run path bin-for-bin.
    """

    #: [tables, bins] — padded bins hold 0 Hz and are never selectable.
    frequencies_hz: np.ndarray
    active_dynamic_w: np.ndarray
    uncore_power_w: np.ndarray  # [tables]
    graphics_idle_power_w: np.ndarray  # [tables]
    #: [tables, groups] / [tables, groups, bins] active-leakage laws; padded
    #: groups have kt == 0, T_ref == 0 and zero reference power.
    active_kt: np.ndarray
    active_reference_c: np.ndarray
    active_reference_w: np.ndarray
    idle_kt: np.ndarray
    idle_reference_c: np.ndarray
    idle_reference_w: np.ndarray
    vmax_ok: np.ndarray  # [tables, bins]; padded bins False
    iccmax_ok: np.ndarray  # [tables, bins]; padded bins False
    bin_counts: np.ndarray  # [tables] true (unpadded) bin count

    @classmethod
    def from_tables(cls, tables: Sequence[CandidateTable]) -> "StackedCandidateTables":
        """Stack *tables*, padding bins and leakage groups to common shapes."""
        if not tables:
            raise ConfigurationError("cannot stack an empty table sequence")
        count = len(tables)
        bins = max(len(table.frequencies_hz) for table in tables)
        active_groups = max(len(table.active_leakage_groups) for table in tables)
        idle_groups = max(len(table.idle_leakage_groups) for table in tables)

        def padded(rows: Sequence[np.ndarray], fill: float) -> np.ndarray:
            out = np.full((count, bins), fill, dtype=float)
            for i, row in enumerate(rows):
                out[i, : len(row)] = row
            return out

        def padded_groups(
            laws: Sequence[Tuple[LeakageGroup, ...]], capacity: int
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            kt = np.zeros((count, capacity), dtype=float)
            reference_c = np.zeros((count, capacity), dtype=float)
            reference_w = np.zeros((count, capacity, bins), dtype=float)
            for i, groups in enumerate(laws):
                for g, (group_kt, group_ref_c, _kv, group_ref_w) in enumerate(
                    groups
                ):
                    kt[i, g] = group_kt
                    reference_c[i, g] = group_ref_c
                    reference_w[i, g, : len(group_ref_w)] = group_ref_w
            return kt, reference_c, reference_w

        def padded_mask(rows: Sequence[np.ndarray]) -> np.ndarray:
            out = np.zeros((count, bins), dtype=bool)
            for i, row in enumerate(rows):
                out[i, : len(row)] = row
            return out

        active_kt, active_ref_c, active_ref_w = padded_groups(
            [table.active_leakage_groups for table in tables], max(1, active_groups)
        )
        idle_kt, idle_ref_c, idle_ref_w = padded_groups(
            [table.idle_leakage_groups for table in tables], max(1, idle_groups)
        )
        return cls(
            frequencies_hz=padded([t.frequencies_hz for t in tables], 0.0),
            active_dynamic_w=padded([t.active_dynamic_w for t in tables], 0.0),
            uncore_power_w=np.array([t.uncore_power_w for t in tables], dtype=float),
            graphics_idle_power_w=np.array(
                [t.graphics_idle_power_w for t in tables], dtype=float
            ),
            active_kt=active_kt,
            active_reference_c=active_ref_c,
            active_reference_w=active_ref_w,
            idle_kt=idle_kt,
            idle_reference_c=idle_ref_c,
            idle_reference_w=idle_ref_w,
            vmax_ok=padded_mask([t.vmax_ok for t in tables]),
            iccmax_ok=padded_mask([t.iccmax_ok for t in tables]),
            bin_counts=np.array([len(t.frequencies_hz) for t in tables]),
        )

    @classmethod
    def from_population(
        cls,
        table: CandidateTable,
        *,
        leakage_scale: np.ndarray,
        kt_delta_per_c: np.ndarray,
        vr_offset_v: np.ndarray,
        power_offset_v: np.ndarray,
    ) -> "StackedCandidateTables":
        """One nominal table expanded to a population: one row per die.

        This is the fast-path injection point: the per-die knob arrays are
        applied as vectorized transforms of the nominal table's bin arrays
        — the same element-wise expressions :meth:`CandidateTable.varied`
        evaluates for one die — with no per-die Python objects.  Rows need
        no padding (every die shares the nominal bin count and leakage
        laws), so die ``i`` is exactly row ``i``.
        """
        count = len(np.asarray(leakage_scale))
        bins = len(table.frequencies_hz)
        scale = np.asarray(leakage_scale, dtype=float)[:, None]
        kt_delta = np.asarray(kt_delta_per_c, dtype=float)
        vr_offset = np.asarray(vr_offset_v, dtype=float)[:, None]
        power_offset = np.asarray(power_offset_v, dtype=float)[:, None]

        power_voltages = table.power_voltages_v + power_offset
        voltage_ratio = power_voltages / table.power_voltages_v
        vr_voltages = table.vr_voltages_v + vr_offset

        def stacked_groups(
            nominal: Tuple[LeakageGroup, ...],
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            groups = max(1, len(nominal))
            kt = np.zeros((count, groups), dtype=float)
            reference_c = np.zeros((count, groups), dtype=float)
            reference_w = np.zeros((count, groups, bins), dtype=float)
            for g, (group_kt, group_ref_c, kv, group_ref_w) in enumerate(nominal):
                kt[:, g] = group_kt + kt_delta
                reference_c[:, g] = group_ref_c
                reference_w[:, g, :] = _varied_reference_w(
                    group_ref_w, voltage_ratio, kv, power_offset, scale
                )
            return kt, reference_c, reference_w

        active_kt, active_ref_c, active_ref_w = stacked_groups(
            table.active_leakage_groups
        )
        idle_kt, idle_ref_c, idle_ref_w = stacked_groups(table.idle_leakage_groups)
        return cls(
            frequencies_hz=np.broadcast_to(table.frequencies_hz, (count, bins)),
            active_dynamic_w=table.active_dynamic_w
            * (voltage_ratio * voltage_ratio),
            uncore_power_w=np.full(count, table.uncore_power_w),
            graphics_idle_power_w=np.full(count, table.graphics_idle_power_w),
            active_kt=active_kt,
            active_reference_c=active_ref_c,
            active_reference_w=active_ref_w,
            idle_kt=idle_kt,
            idle_reference_c=idle_ref_c,
            idle_reference_w=idle_ref_w,
            vmax_ok=vr_voltages <= table.vmax_v + 1e-9,
            iccmax_ok=np.broadcast_to(table.iccmax_ok, (count, bins)),
            bin_counts=np.full(count, bins),
        )

    def __len__(self) -> int:
        return len(self.bin_counts)

    def population_package_power_w(self, temperature_c: np.ndarray) -> np.ndarray:
        """Per-bin package power of every row at row-wise temperatures.

        *temperature_c* is ``(rows, bins)`` — each row's bins may sit at
        their own temperatures, which is what the sustained fixed-point
        resolver iterates.  Accumulation mirrors
        :meth:`CandidateTable.package_power_w` term for term.
        """
        t = temperature_c

        def groups_power(
            kt: np.ndarray, reference_c: np.ndarray, reference_w: np.ndarray
        ) -> np.ndarray:
            total = 0.0
            for g in range(reference_w.shape[1]):
                total = total + reference_w[:, g] * np.exp(
                    kt[:, g, None] * (t - reference_c[:, g, None])
                )
            return total

        active = self.active_dynamic_w + groups_power(
            self.active_kt, self.active_reference_c, self.active_reference_w
        )
        idle = np.zeros_like(self.frequencies_hz) + groups_power(
            self.idle_kt, self.idle_reference_c, self.idle_reference_w
        )
        return (
            active + idle + self.uncore_power_w[:, None]
            + self.graphics_idle_power_w[:, None]
        )


@dataclass(frozen=True)
class SustainedBin:
    """One demand's sustained (TDP-table) fixed point on its candidate table.

    ``power_temperature_c`` is the junction temperature the fixed point's
    last package power was computed at; ``junction_temperature_c`` is the
    temperature that power settles the junction at;
    :meth:`DvfsPolicy.resolve` reports that pair.
    """

    bin_index: int
    limiting: LimitingFactor
    power_temperature_c: float
    junction_temperature_c: float


def resolve_sustained_bins(
    package_power_at: Callable[[np.ndarray], np.ndarray],
    vmax_ok: np.ndarray,
    iccmax_ok: np.ndarray,
    tdp_w: float,
    resistance_c_per_w: Union[float, np.ndarray],
    ambient_c: float,
    tjmax_c: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sustained (TDP-table) bins of a ``(rows, bins)`` candidate grid.

    The DVFS firmware's sustained choice on table arrays: every bin runs
    the power/temperature fixed point
    (:data:`FIXED_POINT_ITERATIONS` steps from :data:`FIXED_POINT_START_C`,
    the junction clamped at Tjmax), the highest bin satisfying Vmax, TDP
    and Iccmax at its own fixed point wins, and the reported limit is
    whatever stops the next bin up (``FREQUENCY_GRID`` at the top; an
    infeasible grid reports bin 0 with the first limit it violates, checked
    Vmax, then power, then Iccmax).

    Shared by a single system, varied or not (one row, through
    :meth:`DvfsPolicy.sustained_bin`), and the population fast path (one
    row per die): both feed the same element-wise arithmetic, so the
    sustained bins agree bit for bit.  Returns ``(bin index, limiting
    code, temperature of the last power evaluation, fixed-point
    temperature)``; the latter two are per-bin arrays.
    """
    temperature = np.full(vmax_ok.shape, FIXED_POINT_START_C, dtype=float)
    for _ in range(FIXED_POINT_ITERATIONS):
        power_temperature = temperature
        power = package_power_at(temperature)
        temperature = np.minimum(tjmax_c, ambient_c + resistance_c_per_w * power)
    power_ok = power <= tdp_w + 1e-9
    allowed = vmax_ok & iccmax_ok & power_ok
    any_allowed = allowed.any(axis=-1)
    bins = allowed.shape[-1]
    top = bins - 1 - np.argmax(allowed[..., ::-1], axis=-1)
    index = np.where(any_allowed, top, 0)
    probe = np.where(any_allowed, np.minimum(index + 1, bins - 1), 0)

    def at_probe(mask: np.ndarray) -> np.ndarray:
        return np.take_along_axis(mask, probe[..., None], axis=-1)[..., 0]

    limiting = np.select(
        [~at_probe(vmax_ok), ~at_probe(power_ok), ~at_probe(iccmax_ok)],
        [
            LIMITING_FACTOR_CODES[LimitingFactor.VMAX],
            LIMITING_FACTOR_CODES[LimitingFactor.TDP],
            LIMITING_FACTOR_CODES[LimitingFactor.ICCMAX],
        ],
        default=LIMITING_FACTOR_CODES[LimitingFactor.NONE],
    )
    limiting = np.where(
        any_allowed & (index == bins - 1),
        LIMITING_FACTOR_CODES[LimitingFactor.FREQUENCY_GRID],
        limiting,
    )
    return index, limiting, power_temperature, temperature


class DvfsPolicy:
    """Resolves CPU operating points for a processor and V/F curve.

    Parameters
    ----------
    processor:
        The hardware configuration (die, package, TDP).
    vf_curve:
        Guardbanded V/F curve of the part's power-delivery configuration.
    bypass_mode:
        True when the firmware runs in bypass mode (idle cores cannot be
        power-gated and keep leaking at the shared rail voltage).
    graphics_idle_power_w:
        Power attributed to the (idle) graphics engine during CPU workloads.
    die_variation:
        Optional :class:`~repro.variation.sampler.DieVariation` of the
        specific die this policy drives.  When set, candidate tables are
        built nominally and re-referenced through
        :meth:`CandidateTable.varied` — the exact arithmetic the population
        fast path vectorizes, so one varied die resolves identically whether
        it runs alone or inside a population.
    """

    def __init__(
        self,
        processor: Processor,
        vf_curve: VfCurve,
        bypass_mode: bool,
        graphics_idle_power_w: float = 0.05,
        die_variation: Optional["DieVariation"] = None,
    ) -> None:
        self._processor = processor
        self._vf_curve = vf_curve
        self._bypass_mode = bypass_mode
        self._graphics_idle_power_w = graphics_idle_power_w
        self._thermal_model = processor.thermal_model()
        self._die_variation = die_variation
        self._core_count_tables: Dict[int, CandidateTable] = {}
        self._candidate_tables = OrderedDict[CpuDemand, CandidateTable]()
        self._sustained_bins = OrderedDict[CpuDemand, SustainedBin]()

    # -- public API -----------------------------------------------------------------------

    @property
    def vf_curve(self) -> VfCurve:
        """The V/F curve this policy resolves against."""
        return self._vf_curve

    @property
    def die_variation(self) -> Optional["DieVariation"]:
        """The die variation this policy is re-referenced to (if any)."""
        return self._die_variation

    def resolve(self, demand: CpuDemand) -> OperatingPoint:
        """Highest-performance sustained operating point satisfying every limit.

        Reads the table fixed point (:meth:`sustained_bin`): the powers are
        the fixed point's last power evaluation and the junction
        temperature is the one that power settles at.
        """
        sustained = self.sustained_bin(demand)
        point = self.candidate_table(demand).operating_point(
            sustained.bin_index, sustained.power_temperature_c, sustained.limiting
        )
        return replace(point, junction_temperature_c=sustained.junction_temperature_c)

    # -- instantaneous (closed-loop) resolution --------------------------------------------

    def candidate_table(self, demand: CpuDemand) -> CandidateTable:
        """Temperature-factored candidate table for *demand* (cached).

        One table per demand supports the dynamics engine: voltages, dynamic
        power and the Vmax/Iccmax verdicts are fixed per bin, so a time step
        only has to apply the leakage temperature terms and pick a bin.
        Only the dynamic-power row and the uncore term are built per demand;
        the other arrays are shared per core count (:meth:`_core_count_table`).
        The policy keeps the tables of :data:`DEMAND_CACHE_SIZE` demands.
        """
        if demand.active_cores > self._processor.core_count:
            raise ConfigurationError(
                f"demand asks for {demand.active_cores} cores but the processor "
                f"has {self._processor.core_count}"
            )
        table = self._candidate_tables.get(demand)
        if table is None:
            die = self._processor.die
            shared = self._core_count_table(demand.active_cores)
            v, f = shared.power_voltages_v, shared.frequencies_hz
            # Each core's cdyn * activity * V * V * f in the scalar law's
            # order, summed from 0.0: products and sums only, so every host
            # computes the same bits.
            dynamic = 0.0
            for core in die.cores[: demand.active_cores]:
                dynamic += core.dynamic.cdyn_max_f * demand.activity * v * v * f
            table = replace(
                shared,
                active_dynamic_w=dynamic,
                uncore_power_w=die.uncore.package_c0_power_w(demand.memory_intensity),
            )
            if self._die_variation is not None:
                variation = self._die_variation
                vr_offset, power_offset = die_voltage_offsets(
                    variation.vf_offset_v,
                    variation.powergate_resistance_scale,
                    die.cores[0].power_gate.on_resistance_ohm,
                    self._bypass_mode,
                )
                table = table.varied(
                    leakage_scale=variation.leakage_scale,
                    kt_delta_per_c=variation.leakage_kt_delta_per_c,
                    vr_offset_v=vr_offset,
                    power_offset_v=power_offset,
                )
            _remember(self._candidate_tables, demand, table)
        else:
            self._candidate_tables.move_to_end(demand)
        return table

    def sustained_bin(self, demand: CpuDemand) -> SustainedBin:
        """The sustained fixed point of *demand* on its candidate table (cached).

        Solved by :func:`resolve_sustained_bins` on the table
        :meth:`candidate_table` returns — the table the dynamics engine
        steps on — and kept for as many demands as the tables.
        """
        sustained = self._sustained_bins.get(demand)
        if sustained is None:
            sustained = self._solve_sustained(demand)
            _remember(self._sustained_bins, demand, sustained)
        else:
            self._sustained_bins.move_to_end(demand)
        return sustained

    def _solve_sustained(self, demand: CpuDemand) -> SustainedBin:
        table = self.candidate_table(demand)
        limits = self._thermal_model.limits
        index, code, power_temperature, temperature = resolve_sustained_bins(
            lambda t: table.package_power_w(t[0])[None, :],
            table.vmax_ok[None, :],
            table.iccmax_ok[None, :],
            self._processor.tdp_w,
            self._thermal_model.thermal_resistance_c_per_w,
            limits.ambient_c,
            limits.tjmax_c,
        )
        bin_index = int(index[0])
        return SustainedBin(
            bin_index=bin_index,
            limiting=LIMITING_FACTOR_ORDER[int(code[0])],
            power_temperature_c=float(power_temperature[0, bin_index]),
            junction_temperature_c=float(temperature[0, bin_index]),
        )

    def _core_count_table(self, active_cores: int) -> CandidateTable:
        """The read-only arrays every table of *active_cores* shares, built
        once per count from the scalar laws (``math.exp`` gives the same bits
        on every host); the dynamic-power row and the uncore term stay zero.
        """
        table = self._core_count_tables.get(active_cores)
        if table is not None:
            return table
        die, curve = self._processor.die, self._vf_curve
        frequencies = np.array(curve.frequency_grid.points())
        vr_voltages = np.array(
            [curve.required_voltage_v(f, active_cores) for f in frequencies]
        )
        power_voltages = np.array(
            [curve.power_voltage_v(f, active_cores) for f in frequencies]
        )
        # The dynamic-power law's argument checks, made once for all demands.
        for name, x in (("frequency_hz", frequencies), ("voltage_v", power_voltages)):
            if not np.all(np.isfinite(x) & (x >= 0.0)):
                raise ConfigurationError(f"{name} must be finite and >= 0")
        # Leakage at the reference temperature, summed per (kt, T_ref, kv)
        # law; only idle cores sit behind a gate (when the gates are used).
        groups: Tuple[Dict[Tuple[float, float, float], np.ndarray], ...] = ({}, {})
        for index, core in enumerate(die.cores):
            idle = index >= active_cores
            leakage = core.leakage
            law = (
                leakage.temperature_sensitivity_per_c,
                leakage.reference_temperature_c,
                leakage.voltage_sensitivity_per_v,
            )
            gated = idle and not self._bypass_mode
            reference = np.array(
                [core.idle_power_w(v, gated, law[1]) for v in power_voltages]
            )
            groups[idle][law] = groups[idle].get(law, 0.0) + reference
        virus_a = die.cores[0].virus_current_a
        per_core_a = np.array([virus_a(f, v) for f, v in zip(frequencies, vr_voltages)])
        active_groups, idle_groups = (
            tuple((*law, power) for law, power in laws.items()) for laws in groups
        )
        table = CandidateTable(
            frequencies_hz=frequencies,
            vr_voltages_v=vr_voltages,
            power_voltages_v=power_voltages,
            active_dynamic_w=np.zeros_like(frequencies),
            active_leakage_groups=active_groups,
            idle_leakage_groups=idle_groups,
            uncore_power_w=0.0,
            graphics_idle_power_w=self._graphics_idle_power_w,
            vmax_ok=vr_voltages <= curve.vmax_v + 1e-9,
            # Every active core at the power virus plus a 6 A uncore and
            # graphics floor, against the core rail's EDC budget.
            iccmax_ok=per_core_a * active_cores + 6.0 <= die.iccmax_a,
            vmax_v=curve.vmax_v,
        )
        leakage_w = [group[3] for group in active_groups + idle_groups]
        arrays = [frequencies, vr_voltages, power_voltages, *leakage_w]
        for array in arrays + [table.vmax_ok, table.iccmax_ok]:
            array.flags.writeable = False
        self._core_count_tables[active_cores] = table
        return table
