"""The per-run closed-loop stepper: the oracle of the lockstep engine.

:class:`DynamicsSimulator` steps one scenario on one system through a
Python loop, one step at a time, with the scalar models
(:class:`~repro.pmu.turbo.TurboBudgetManager`,
:class:`~repro.power.thermal.TransientThermalModel`,
:func:`oracles.dvfs.select`).
``BatchedDynamicsSimulator.run_batch`` and ``run_population`` must
reproduce its trajectories bit for bit.  It reads its loop start and
idle states from :mod:`repro.sim.dynamics` and its sustained points from
:meth:`~repro.pmu.dvfs.DvfsPolicy.sustained_bin`, the same precompute the
lockstep engine uses.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.pmu.dvfs import LIMITING_FACTOR_CODES, LimitingFactor
from repro.pmu.pcode import Pcode
from repro.pmu.turbo import TurboBudgetManager
from repro.power.budget import TurboLimits
from repro.power.thermal import TransientThermalModel
from repro.sim.dynamics import _loop_start, phase_step_counts, resolve_idle_state
from repro.sim.metrics import DynamicRunResult, encode_cstates
from repro.workloads.dynamics import DynamicPhase, DynamicScenario

from oracles.dvfs import select


class _TraceRecorder:
    """Accumulates the per-step traces of one run."""

    def __init__(self) -> None:
        self.frequencies_hz: List[float] = []
        self.package_powers_w: List[float] = []
        self.temperatures_c: List[float] = []
        self.average_powers_w: List[float] = []
        self.limiting_codes: List[int] = []
        self.package_cstates: List[str] = []

    def record(
        self,
        frequency_hz: float,
        package_power_w: float,
        temperature_c: float,
        average_power_w: float,
        limiting: LimitingFactor,
        cstate: str,
    ) -> None:
        self.frequencies_hz.append(frequency_hz)
        self.package_powers_w.append(package_power_w)
        self.temperatures_c.append(temperature_c)
        self.average_powers_w.append(average_power_w)
        self.limiting_codes.append(LIMITING_FACTOR_CODES[limiting])
        self.package_cstates.append(cstate)


class DynamicsSimulator:
    """Steps dynamic scenarios through the closed firmware loop.

    Parameters
    ----------
    pcode:
        The firmware-configured system (provides the DVFS policy, the
        C-state power model, the TDP, and the thermal design limits).
    """

    def __init__(self, pcode: Pcode) -> None:
        self._pcode = pcode

    @property
    def pcode(self) -> Pcode:
        """The firmware configuration this simulator drives."""
        return self._pcode

    # -- public API --------------------------------------------------------------------

    def run(self, scenario: DynamicScenario) -> DynamicRunResult:
        """Simulate *scenario* and return the full trajectory."""
        limits, thermal, temperature, burst_armed = _loop_start(self._pcode, scenario)
        turbo = TurboBudgetManager(
            limits, initial_average_w=scenario.initial_average_power_w
        )
        recorder = _TraceRecorder()
        dt = scenario.time_step_s
        for phase, steps in zip(scenario.phases, phase_step_counts(scenario)):
            if phase.is_idle:
                stepper = self._idle_stepper(phase)
            else:
                stepper = self._active_stepper(phase, limits, thermal, turbo)
            for _ in range(steps):
                frequency, power, limiting, cstate, exhausted = stepper(
                    temperature, burst_armed, dt
                )
                average = turbo.account(power, dt)
                temperature = thermal.step(temperature, power, dt)
                if exhausted:
                    burst_armed = False
                elif average <= limits.pl1_w * scenario.rebank_fraction:
                    burst_armed = True
                recorder.record(
                    frequency, power, temperature, average, limiting, cstate
                )
        cstate_codes, cstate_names = encode_cstates(recorder.package_cstates)
        return DynamicRunResult(
            scenario_name=scenario.name,
            time_step_s=dt,
            pl1_w=limits.pl1_w,
            pl2_w=limits.pl2_w,
            frequencies_hz=recorder.frequencies_hz,
            package_powers_w=recorder.package_powers_w,
            temperatures_c=recorder.temperatures_c,
            average_powers_w=recorder.average_powers_w,
            limiting_codes=recorder.limiting_codes,
            cstate_codes=cstate_codes,
            cstate_names=cstate_names,
        )

    # -- per-phase steppers ------------------------------------------------------------

    def _idle_stepper(self, phase: DynamicPhase):
        state = resolve_idle_state(self._pcode, phase)
        power = self._pcode.cstate_model.power_w(state)

        def step(
            temperature: float, burst_armed: bool, dt: float
        ) -> Tuple[float, float, LimitingFactor, str, bool]:
            return 0.0, power, LimitingFactor.NONE, state.value, False

        return step

    def _active_stepper(
        self,
        phase: DynamicPhase,
        limits: TurboLimits,
        thermal: TransientThermalModel,
        turbo: TurboBudgetManager,
    ):
        demand = phase.demand()
        table = self._pcode.dvfs_policy.candidate_table(demand)
        sustained = self._pcode.dvfs_policy.sustained_bin(demand)

        def step(
            temperature: float, burst_armed: bool, dt: float
        ) -> Tuple[float, float, LimitingFactor, str, bool]:
            thermal_cap = thermal.max_power_keeping_tjmax_w(temperature, dt)
            powers = table.package_power_w(temperature)
            exhausted = False
            if burst_armed:
                budget = turbo.power_budget_w(dt)  # already PL2-clamped
                index, limiting = select(
                    table, min(budget, thermal_cap), temperature, package_power_w=powers
                )
                if limiting is LimitingFactor.TDP and thermal_cap < budget:
                    limiting = LimitingFactor.THERMAL
                # The power-limited search (EWMA budget or thermal throttle)
                # decaying onto or below the sustained bin means the turbo
                # bank is spent: latch the sustained (TDP-table) point until
                # an idle gap re-banks budget.
                if (
                    limiting in (LimitingFactor.TDP, LimitingFactor.THERMAL)
                    and index <= sustained.bin_index
                ):
                    exhausted = True
            else:
                # Bank exhausted: burst bins are off the table; the ceiling
                # is the sustained (TDP-table) bin, still subject to the
                # instantaneous PL2/thermal envelope.
                index, limiting = select(
                    table,
                    min(limits.pl2_w, thermal_cap),
                    temperature,
                    package_power_w=powers,
                )
                if limiting is LimitingFactor.TDP and thermal_cap < limits.pl2_w:
                    limiting = LimitingFactor.THERMAL
                if index >= sustained.bin_index:
                    index, limiting = sustained.bin_index, sustained.limiting
            power = float(powers[index])
            return float(table.frequencies_hz[index]), power, limiting, "C0", exhausted

        return step
