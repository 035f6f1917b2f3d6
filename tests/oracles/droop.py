"""The per-stage RK4 droop integrator: the oracle of the vectorized solver.

:class:`ReferenceDroopSimulator` integrates the ladder by evaluating the
four RK4 stages of the branch equations in Python, one step at a time.
:class:`~repro.pdn.droop.DroopSimulator`'s prefix-scan propagator (and the
step-by-step loop it falls back to) must agree with it to roundoff.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.pdn.droop import _DIVERGENCE_CHECK_STRIDE, DroopResult, DroopSimulator


class ReferenceDroopSimulator(DroopSimulator):
    """A :class:`DroopSimulator` whose every run is the per-stage RK4."""

    @classmethod
    def like(cls, simulator: DroopSimulator) -> "ReferenceDroopSimulator":
        """The oracle of *simulator*: same ladder, same rail voltage."""
        return cls(simulator.stages, simulator.nominal_voltage_v)

    def _integrate(
        self,
        load_profile: Callable[[float], float],
        duration_s: float,
        time_step_s: float,
        initial_current_a: float,
        sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> DroopResult:
        steps = self._step_count(duration_s, time_step_s)
        times = np.arange(steps + 1) * time_step_s
        load_voltages = self._integrate_reference(
            load_profile, times, time_step_s, initial_current_a
        )
        load_samples = self._sample(load_profile, times, sampler)
        if not np.all(np.isfinite(load_voltages)):
            raise SimulationError("droop integration diverged; reduce time_step_s")
        final_dc_drop = float(
            self._series_resistance.sum() * (load_samples[-1] - initial_current_a)
        )
        return DroopResult(
            time_s=times,
            load_voltage_v=load_voltages,
            nominal_voltage_v=self._nominal_voltage_v,
            final_dc_drop_v=final_dc_drop,
        )

    def _derivative(self, state: np.ndarray, load_current_a: float) -> np.ndarray:
        stage_count = len(self._stages)
        currents = state[:stage_count]
        cap_voltages = state[stage_count:]
        node_voltages = np.empty(stage_count)
        cap_currents = np.empty(stage_count)
        # Capacitor current of stage k is the series current into the node
        # minus the series current leaving it (or the load at the last node).
        for index in range(stage_count):
            downstream = currents[index + 1] if index + 1 < stage_count else load_current_a
            cap_currents[index] = currents[index] - downstream
            node_voltages[index] = (
                cap_voltages[index] + self._stages[index].shunt_esr_ohm * cap_currents[index]
            )
        derivative = np.empty_like(state)
        for index, stage in enumerate(self._stages):
            upstream_voltage = (
                self._nominal_voltage_v if index == 0 else node_voltages[index - 1]
            )
            derivative[index] = (
                upstream_voltage
                - node_voltages[index]
                - stage.series_resistance_ohm * currents[index]
            ) / stage.series_inductance_h
            derivative[stage_count + index] = (
                cap_currents[index] / stage.shunt_capacitance_f
            )
        return derivative

    def _rk4_step(
        self,
        state: np.ndarray,
        time_s: float,
        time_step_s: float,
        load_profile: Callable[[float], float],
    ) -> np.ndarray:
        half = time_step_s / 2.0
        k1 = self._derivative(state, load_profile(time_s))
        k2 = self._derivative(state + half * k1, load_profile(time_s + half))
        k3 = self._derivative(state + half * k2, load_profile(time_s + half))
        k4 = self._derivative(state + time_step_s * k3, load_profile(time_s + time_step_s))
        return state + (time_step_s / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def _integrate_reference(
        self,
        load_profile: Callable[[float], float],
        times: np.ndarray,
        time_step_s: float,
        initial_current_a: float,
    ) -> np.ndarray:
        steps = len(times) - 1
        stage_count = len(self._stages)
        state = self._settled_state(initial_current_a)
        load_voltages = np.empty(steps + 1)
        load_voltages[0] = self._node_voltage(state, load_profile(0.0), stage_count - 1)
        time_s = 0.0
        for step in range(1, steps + 1):
            state = self._rk4_step(state, time_s, time_step_s, load_profile)
            time_s += time_step_s
            load_voltages[step] = self._node_voltage(
                state, load_profile(time_s), stage_count - 1
            )
            if step % _DIVERGENCE_CHECK_STRIDE == 0 and not np.all(
                np.isfinite(state)
            ):
                raise SimulationError(
                    "droop integration diverged; reduce time_step_s"
                )
        return load_voltages

    def _node_voltage(
        self, state: np.ndarray, load_current_a: float, node_index: int
    ) -> float:
        stage_count = len(self._stages)
        currents = state[:stage_count]
        cap_voltage = state[stage_count + node_index]
        downstream = (
            currents[node_index + 1] if node_index + 1 < stage_count else load_current_a
        )
        cap_current = currents[node_index] - downstream
        return float(
            cap_voltage + self._stages[node_index].shunt_esr_ohm * cap_current
        )
