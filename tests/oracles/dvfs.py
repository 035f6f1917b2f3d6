"""Scalar DVFS resolution: the oracles of the candidate-table solvers.

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
from typing import Optional, Tuple

import numpy as np

from repro.pmu.dvfs import (
    FIXED_POINT_ITERATIONS,
    FIXED_POINT_START_C,
    CandidateTable,
    CpuDemand,
    DvfsPolicy,
    LimitingFactor,
    OperatingPoint,
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
