"""Scalar DVFS resolution: the oracles of the candidate-table solvers.

:func:`scalar_candidate_table` builds one demand's candidate table bin by
bin from the scalar core, uncore and V/F models, the build
:meth:`~repro.pmu.dvfs.DvfsPolicy.candidate_table` splits into a part
shared per active-core count and a per-demand dynamic row; the two must
agree bit for bit.

:func:`static_walk` is the per-bin resolution of one nominal system: it
walks the frequency grid downwards, runs each bin's power/temperature fixed
point on its own from the scalar core, uncore and thermal models, and stops
at the first bin that meets Vmax, TDP and Iccmax.
:meth:`~repro.pmu.dvfs.DvfsPolicy.resolve`, which reads the table fixed
point (:func:`~repro.pmu.dvfs.resolve_sustained_bins`), must land on the
same bin and limit.

:func:`select` is the scalar per-step choice on one candidate table: the
highest bin under an instantaneous power limit at a pinned temperature.
The per-run dynamics oracle steps with it, and the lockstep engine's
``_ActiveSegment.resolve`` must agree with it bin for bin.
:func:`resolve_at` materialises that choice as an operating point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.pmu.dvfs import (
    FIXED_POINT_ITERATIONS,
    FIXED_POINT_START_C,
    CandidateTable,
    CpuDemand,
    DvfsPolicy,
    LimitingFactor,
    OperatingPoint,
    die_voltage_offsets,
)
from repro.pmu.pcode import Pcode


class _StaticWalk:
    """One nominal system's per-bin DVFS walk."""

    def __init__(self, pcode: Pcode) -> None:
        if pcode.die_variation is not None:
            raise ValueError("the static walk models nominal silicon only")
        self._processor = pcode.processor
        self._vf_curve = pcode.vf_curve
        self._bypass_mode = pcode.bypass_mode
        # A constructor setting of the policy; Pcode does not expose it.
        self._graphics_idle_power_w = pcode.dvfs_policy._graphics_idle_power_w
        self._thermal_model = pcode.processor.thermal_model()

    def resolve(self, demand: CpuDemand) -> OperatingPoint:
        grid = self._vf_curve.frequency_grid
        chosen: Optional[OperatingPoint] = None
        limiting = LimitingFactor.FREQUENCY_GRID
        for frequency in grid.descending():
            verdict, point = self.evaluate(frequency, demand)
            if verdict is LimitingFactor.NONE:
                chosen = point
                break
            limiting = verdict
        if chosen is None:
            # Even the lowest bin violates a limit: report the lowest bin
            # with the limit that failed.
            _, point = self.evaluate(grid.min_hz, demand)
            return replace(point, limiting_factor=limiting)
        # Report what stops the next bin up.
        if chosen.frequency_hz >= grid.max_hz:
            limiting = LimitingFactor.FREQUENCY_GRID
        else:
            limiting, _ = self.evaluate(grid.step_up(chosen.frequency_hz), demand)
        return replace(chosen, limiting_factor=limiting)

    def evaluate(
        self, frequency_hz: float, demand: CpuDemand, enforce_limits: bool = True
    ) -> Tuple[LimitingFactor, OperatingPoint]:
        # The VR is programmed to the fully-guardbanded voltage (checked
        # against Vmax below); the power estimate uses the effective silicon
        # voltage for a typical workload.
        vr_voltage = self._vf_curve.required_voltage_v(frequency_hz, demand.active_cores)
        voltage = self._vf_curve.power_voltage_v(frequency_hz, demand.active_cores)
        temperature = FIXED_POINT_START_C
        cores_power = idle_power = uncore_power = package_power = 0.0
        for _ in range(FIXED_POINT_ITERATIONS):
            cores_power = self._active_cores_power_w(
                frequency_hz, voltage, demand, temperature
            )
            idle_power = self._idle_cores_power_w(voltage, demand, temperature)
            uncore_power = self._processor.die.uncore.package_c0_power_w(
                demand.memory_intensity
            )
            package_power = (
                cores_power + idle_power + uncore_power + self._graphics_idle_power_w
            )
            temperature = min(
                self._processor.tjmax_c,
                self._thermal_model.junction_temperature_c(package_power),
            )
        point = OperatingPoint(
            frequency_hz=frequency_hz,
            voltage_v=vr_voltage,
            package_power_w=package_power,
            cores_power_w=cores_power,
            idle_cores_power_w=idle_power,
            uncore_power_w=uncore_power,
            limiting_factor=LimitingFactor.NONE,
            junction_temperature_c=temperature,
        )
        if not enforce_limits:
            return LimitingFactor.NONE, point
        if vr_voltage > self._vf_curve.vmax_v + 1e-9:
            return LimitingFactor.VMAX, point
        if package_power > self._processor.tdp_w + 1e-9:
            return LimitingFactor.TDP, point
        if self._virus_current_a(frequency_hz, vr_voltage, demand) > self._processor.die.iccmax_a:
            return LimitingFactor.ICCMAX, point
        return LimitingFactor.NONE, point

    def _active_cores_power_w(
        self, frequency_hz: float, voltage_v: float, demand: CpuDemand, temperature_c: float
    ) -> float:
        total = 0.0
        for core in self._processor.die.cores[: demand.active_cores]:
            total += core.active_power_w(
                frequency_hz, voltage_v, demand.activity, temperature_c
            )
        return total

    def _idle_cores_power_w(
        self, voltage_v: float, demand: CpuDemand, temperature_c: float
    ) -> float:
        idle_cores = self._processor.die.cores[demand.active_cores :]
        gated = not self._bypass_mode
        return sum(
            core.idle_power_w(voltage_v, gated=gated, temperature_c=temperature_c)
            for core in idle_cores
        )

    def _virus_current_a(
        self, frequency_hz: float, voltage_v: float, demand: CpuDemand
    ) -> float:
        per_core = self._processor.die.cores[0].virus_current_a(frequency_hz, voltage_v)
        uncore_current = 6.0  # uncore + graphics floor on the core rail's EDC budget
        return per_core * demand.active_cores + uncore_current


def static_walk(pcode: Pcode, demand: CpuDemand) -> OperatingPoint:
    """The sustained operating point of *demand* by walking the grid down.

    Each bin runs its own fixed point (:data:`FIXED_POINT_ITERATIONS`
    updates from :data:`FIXED_POINT_START_C`); the powers are the last
    power evaluation and the junction temperature the one it settles at.
    """
    return _StaticWalk(pcode).resolve(demand)


def package_power_w(pcode: Pcode, frequency_hz: float, demand: CpuDemand) -> float:
    """Sustained package power of *demand* pinned at *frequency_hz*."""
    _, point = _StaticWalk(pcode).evaluate(frequency_hz, demand, enforce_limits=False)
    return point.package_power_w


def select(
    table: CandidateTable,
    power_limit_w: float,
    temperature_c: float,
    package_power_w: Optional[np.ndarray] = None,
) -> Tuple[int, LimitingFactor]:
    """Highest bin of *table* satisfying every limit at the instantaneous state.

    Returns the chosen bin index and the limit that stops the next bin up
    (the top bin reports ``FREQUENCY_GRID``; an infeasible grid reports the
    first limit the lowest bin violates, checked Vmax, then power, then
    Iccmax).  Callers that already hold this temperature's per-bin power
    vector may pass it as *package_power_w*.
    """
    power = (
        table.package_power_w(temperature_c)
        if package_power_w is None
        else package_power_w
    )
    power_ok = power <= power_limit_w + 1e-9
    allowed = table.vmax_ok & table.iccmax_ok & power_ok
    if not allowed.any():
        return 0, _blocking_limit(table, 0, power_ok)
    index = int(np.max(np.nonzero(allowed)[0]))
    if index == len(table.frequencies_hz) - 1:
        return index, LimitingFactor.FREQUENCY_GRID
    return index, _blocking_limit(table, index + 1, power_ok)


def _blocking_limit(
    table: CandidateTable, index: int, power_ok: np.ndarray
) -> LimitingFactor:
    if not table.vmax_ok[index]:
        return LimitingFactor.VMAX
    if not power_ok[index]:
        return LimitingFactor.TDP
    if not table.iccmax_ok[index]:
        return LimitingFactor.ICCMAX
    return LimitingFactor.NONE


def resolve_at(
    policy: DvfsPolicy,
    demand: CpuDemand,
    temperature_c: float,
    power_limit_w: float,
) -> OperatingPoint:
    """Best operating point at a *pinned* temperature and power limit.

    Unlike :meth:`DvfsPolicy.resolve`, which iterates power and temperature
    to their sustained fixed point, this treats the junction temperature as
    state (the dynamics engine owns it) and takes the instantaneous power
    limit as given.
    """
    table = policy.candidate_table(demand)
    index, limiting = select(table, power_limit_w, temperature_c)
    return table.operating_point(index, temperature_c, limiting)


def scalar_candidate_table(policy: DvfsPolicy, demand: CpuDemand) -> CandidateTable:
    """*demand*'s candidate table on *policy*, every bin from the scalar laws.

    Each bin evaluates the V/F curve, each core's dynamic-power and leakage
    law and the virus-current law on its own; a varied die is then
    re-referenced with :meth:`CandidateTable.varied`, as the policy does.
    """
    processor = policy._processor
    vf_curve = policy.vf_curve
    die = processor.die
    frequencies = np.array(vf_curve.frequency_grid.points())
    vr_voltages = np.array(
        [vf_curve.required_voltage_v(f, demand.active_cores) for f in frequencies]
    )
    power_voltages = np.array(
        [vf_curve.power_voltage_v(f, demand.active_cores) for f in frequencies]
    )
    active_cores = die.cores[: demand.active_cores]
    idle_cores = die.cores[demand.active_cores :]
    active_dynamic = np.array(
        [
            sum(
                core.dynamic.power_w(voltage, frequency, demand.activity)
                for core in active_cores
            )
            for frequency, voltage in zip(frequencies, power_voltages)
        ]
    )
    gated = not policy._bypass_mode
    active_groups: Dict[Tuple[float, float, float], np.ndarray] = {}
    idle_groups: Dict[Tuple[float, float, float], np.ndarray] = {}
    for core in active_cores:
        law = (
            core.leakage.temperature_sensitivity_per_c,
            core.leakage.reference_temperature_c,
            core.leakage.voltage_sensitivity_per_v,
        )
        reference = np.array(
            [core.leakage.power_w(voltage, law[1]) for voltage in power_voltages]
        )
        active_groups[law] = active_groups.get(law, 0.0) + reference
    for core in idle_cores:
        law = (
            core.leakage.temperature_sensitivity_per_c,
            core.leakage.reference_temperature_c,
            core.leakage.voltage_sensitivity_per_v,
        )
        reference = np.array(
            [
                core.idle_power_w(voltage, gated=gated, temperature_c=law[1])
                for voltage in power_voltages
            ]
        )
        idle_groups[law] = idle_groups.get(law, 0.0) + reference

    def virus_current_a(frequency_hz: float, voltage_v: float) -> float:
        per_core = die.cores[0].virus_current_a(frequency_hz, voltage_v)
        uncore_current = 6.0  # uncore + graphics floor on the core rail's EDC budget
        return per_core * demand.active_cores + uncore_current

    virus_current = np.array(
        [
            virus_current_a(frequency, voltage)
            for frequency, voltage in zip(frequencies, vr_voltages)
        ]
    )
    table = CandidateTable(
        frequencies_hz=frequencies,
        vr_voltages_v=vr_voltages,
        power_voltages_v=power_voltages,
        active_dynamic_w=active_dynamic,
        active_leakage_groups=tuple(
            (kt, ref_c, kv, power) for (kt, ref_c, kv), power in active_groups.items()
        ),
        idle_leakage_groups=tuple(
            (kt, ref_c, kv, power) for (kt, ref_c, kv), power in idle_groups.items()
        ),
        uncore_power_w=die.uncore.package_c0_power_w(demand.memory_intensity),
        graphics_idle_power_w=policy._graphics_idle_power_w,
        vmax_ok=vr_voltages <= vf_curve.vmax_v + 1e-9,
        iccmax_ok=virus_current <= die.iccmax_a,
        vmax_v=vf_curve.vmax_v,
    )
    variation = policy.die_variation
    if variation is None:
        return table
    vr_offset, power_offset = die_voltage_offsets(
        variation.vf_offset_v,
        variation.powergate_resistance_scale,
        die.cores[0].power_gate.on_resistance_ohm,
        policy._bypass_mode,
    )
    return table.varied(
        leakage_scale=variation.leakage_scale,
        kt_delta_per_c=variation.leakage_kt_delta_per_c,
        vr_offset_v=vr_offset,
        power_offset_v=power_offset,
    )
