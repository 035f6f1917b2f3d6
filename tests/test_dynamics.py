"""Tests for the closed-loop Pcode dynamics engine and its workload API."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, get_spec
from repro.pmu.cstates import PackageCState, cstate_for_idle_duration
from repro.pmu.dvfs import CpuDemand, LimitingFactor
from repro.pmu.turbo import TurboBudgetManager
from repro.power.budget import EwmaPowerMeter, TurboLimits
from repro.power.thermal import ThermalLimits, ThermalModel, TransientThermalModel
from repro.sim.metrics import DynamicRunResult, RunResult
from repro.analysis.study import Study
from repro.workloads.dynamics import (
    DynamicPhase,
    DynamicScenario,
    burst_scenario,
    sprint_and_rest_scenario,
    sustained_scenario,
)
from repro.workloads.energy import energy_star_scenario, rmt_scenario

from oracles.dynamics import DynamicsSimulator

#: Fast-converging run configuration shared by the closed-loop tests: a small
#: thermal capacitance keeps the thermal time constant a few seconds, so a
#: two-minute scenario settles well within the 0.1 degC parity tolerance.
FAST_THERMAL = dict(thermal_capacitance_j_per_c=5.0, time_step_s=0.1)


def _engine(spec_name: str, tdp_w: float):
    return build_engine(get_spec(spec_name, tdp_w=tdp_w))


# -- turbo limits and EWMA accounting --------------------------------------------------


def test_turbo_limits_from_tdp():
    limits = TurboLimits.from_tdp(35.0, pl2_ratio=1.25, tau_s=8.0)
    assert limits.pl1_w == pytest.approx(35.0)
    assert limits.pl2_w == pytest.approx(43.75)
    assert limits.tau_s == pytest.approx(8.0)


def test_turbo_limits_reject_pl2_below_pl1():
    with pytest.raises(ConfigurationError):
        TurboLimits(pl1_w=45.0, pl2_w=35.0)
    with pytest.raises(ConfigurationError):
        TurboLimits.from_tdp(45.0, pl2_ratio=0.9)


def test_ewma_meter_converges_to_constant_power():
    meter = EwmaPowerMeter(tau_s=2.0)
    for _ in range(400):
        meter.update(40.0, 0.1)
    assert meter.average_w == pytest.approx(40.0, abs=1e-6)


def test_ewma_meter_budget_inverts_update():
    meter = EwmaPowerMeter(tau_s=5.0, initial_average_w=20.0)
    budget = meter.max_power_keeping_average_w(35.0, 0.1)
    meter.update(budget, 0.1)
    assert meter.average_w == pytest.approx(35.0)


def test_ewma_meter_budget_never_negative():
    meter = EwmaPowerMeter(tau_s=5.0, initial_average_w=100.0)
    assert meter.max_power_keeping_average_w(35.0, 0.1) == 0.0


def test_turbo_budget_manager_bursts_then_squeezes_to_pl1():
    limits = TurboLimits.from_tdp(35.0, pl2_ratio=1.25, tau_s=2.0)
    manager = TurboBudgetManager(limits)
    assert manager.power_budget_w(0.1) == pytest.approx(limits.pl2_w)
    for _ in range(600):
        manager.account(min(limits.pl2_w, manager.power_budget_w(0.1)), 0.1)
    assert manager.average_power_w <= limits.pl1_w + 1e-9
    assert manager.power_budget_w(0.1) == pytest.approx(limits.pl1_w, rel=1e-3)


# -- transient thermal model -----------------------------------------------------------


def test_transient_thermal_step_relaxes_to_steady_state():
    model = TransientThermalModel(
        ThermalModel(ThermalLimits(tdp_w=35.0)), capacitance_j_per_c=5.0
    )
    temperature = model.limits.ambient_c
    for _ in range(int(20 * model.time_constant_s / 0.1)):
        temperature = model.step(temperature, 35.0, 0.1)
    assert temperature == pytest.approx(model.limits.tjmax_c, abs=1e-6)


def test_transient_thermal_cap_inverts_step():
    model = TransientThermalModel(
        ThermalModel(ThermalLimits(tdp_w=35.0)), capacitance_j_per_c=5.0
    )
    cap = model.max_power_keeping_tjmax_w(90.0, 0.5)
    assert model.step(90.0, cap, 0.5) == pytest.approx(model.limits.tjmax_c)


def test_transient_thermal_time_constant_scales_with_capacitance():
    base = ThermalModel(ThermalLimits(tdp_w=35.0))
    small = TransientThermalModel(base, capacitance_j_per_c=5.0)
    large = TransientThermalModel(base, capacitance_j_per_c=50.0)
    assert large.time_constant_s == pytest.approx(10 * small.time_constant_s)


# -- scenario descriptors --------------------------------------------------------------


def test_dynamic_phase_validation():
    with pytest.raises(ConfigurationError):
        DynamicPhase(name="", duration_s=1.0)
    with pytest.raises(ConfigurationError):
        DynamicPhase(name="p", duration_s=0.0)
    with pytest.raises(ConfigurationError):
        DynamicPhase(name="p", duration_s=1.0, active_cores=-1)


def test_idle_phase_has_no_demand():
    phase = DynamicPhase(name="gap", duration_s=1.0)
    assert phase.is_idle
    with pytest.raises(ConfigurationError):
        phase.demand()


def test_scenario_duration_and_hashability():
    scenario = sprint_and_rest_scenario(sprint_s=10.0, rest_s=5.0, cycles=2)
    assert scenario.duration_s == pytest.approx(30.0)
    assert hash(scenario) == hash(
        sprint_and_rest_scenario(sprint_s=10.0, rest_s=5.0, cycles=2)
    )


def test_from_energy_scenario_unrolls_residency_mix():
    energy = rmt_scenario()
    dynamic = DynamicScenario.from_energy_scenario(energy, total_duration_s=100.0)
    assert dynamic.name == energy.name
    assert dynamic.duration_s == pytest.approx(100.0)
    active = [p for p in dynamic.phases if not p.is_idle]
    idle = [p for p in dynamic.phases if p.is_idle]
    assert active and idle


def test_from_energy_scenario_maps_sleep_and_off_to_deepest_idle():
    dynamic = DynamicScenario.from_energy_scenario(
        energy_star_scenario(), total_duration_s=100.0
    )
    assert all(phase.is_idle for phase in dynamic.phases)
    off = next(p for p in dynamic.phases if p.name == "off")
    assert off.package_cstate == "deepest"


# -- closed-loop engine: steady-state parity (acceptance criterion) --------------------


@pytest.mark.parametrize("tdp_w", [35.0, 45.0, 65.0, 91.0])
@pytest.mark.parametrize("spec_name", ["darkgates", "baseline"])
def test_sustained_scenario_converges_to_static_operating_point(spec_name, tdp_w):
    engine = _engine(spec_name, tdp_w)
    static = engine.pcode.resolve_cpu_operating_point(CpuDemand(active_cores=4))
    result = engine.run(sustained_scenario(duration_s=120.0, **FAST_THERMAL))
    # Frequency: exact on the 100 MHz grid.
    assert result.sustained_frequency_hz == pytest.approx(
        static.frequency_hz, abs=1e-3
    )
    assert result.frequencies_hz[-1] == pytest.approx(static.frequency_hz, abs=1e-3)
    # Temperature: within 0.1 degC of the lumped-model fixed point of the
    # converged sustained power.
    fixed_point = engine.pcode.processor.thermal_model().junction_temperature_c(
        result.package_powers_w[-1]
    )
    assert result.final_temperature_c == pytest.approx(fixed_point, abs=0.1)
    # Limiting factor converges to the static verdict.
    assert result.final_limiting_factor == static.limiting_factor.value


def test_junction_never_exceeds_tjmax():
    engine = _engine("baseline", 35.0)
    result = engine.run(
        burst_scenario(idle_lead_s=5.0, burst_s=60.0, pl2_ratio=1.6, **FAST_THERMAL)
    )
    assert result.peak_temperature_c <= engine.pcode.processor.tjmax_c + 1e-6


# -- closed-loop engine: throttling behaviour (acceptance criterion) -------------------


def test_burst_throttles_from_pl2_to_sustained_at_35w():
    engine = _engine("baseline", 35.0)
    static = engine.pcode.resolve_cpu_operating_point(CpuDemand(active_cores=4))
    result = engine.run(burst_scenario(idle_lead_s=20.0, burst_s=100.0, **FAST_THERMAL))
    assert result.throttled
    assert result.peak_frequency_hz > static.frequency_hz + 1e6
    assert result.sustained_frequency_hz == pytest.approx(
        static.frequency_hz, abs=1e-3
    )
    # The limiting factor of the decayed tail is the TDP.
    assert result.final_limiting_factor == LimitingFactor.TDP.value


def test_same_burst_stays_vmax_limited_at_91w():
    engine = _engine("baseline", 91.0)
    result = engine.run(burst_scenario(idle_lead_s=20.0, burst_s=100.0, **FAST_THERMAL))
    assert not result.throttled
    active_limits = {
        result.limiting_factors[i]
        for i, f in enumerate(result.frequencies_hz)
        if f > 0.0
    }
    assert active_limits == {LimitingFactor.VMAX.value}


def test_burst_frequency_trace_decays_monotonically_at_35w():
    engine = _engine("darkgates", 35.0)
    result = engine.run(burst_scenario(idle_lead_s=20.0, burst_s=100.0, **FAST_THERMAL))
    active = [f for f in result.frequencies_hz if f > 0.0]
    # The burst opens at the peak and never climbs again while throttling.
    assert active[0] == result.peak_frequency_hz
    assert all(b <= a + 1e-6 for a, b in zip(active, active[1:]))


def test_sprint_and_rest_rebanks_turbo_budget_each_cycle():
    engine = _engine("baseline", 35.0)
    static = engine.pcode.resolve_cpu_operating_point(CpuDemand(active_cores=4))
    result = engine.run(
        sprint_and_rest_scenario(
            sprint_s=30.0, rest_s=40.0, cycles=3, **FAST_THERMAL
        )
    )
    cycle_s = 70.0
    for cycle in range(3):
        sprint_peak = max(
            f
            for t, f in zip(result.times_s, result.frequencies_hz)
            if cycle * cycle_s < t <= cycle * cycle_s + 30.0
        )
        assert sprint_peak > static.frequency_hz + 1e6


# -- closed-loop engine: C-state entry -------------------------------------------------


def test_idle_gaps_enter_the_fused_deepest_state():
    scenario = burst_scenario(idle_lead_s=10.0, burst_s=10.0, **FAST_THERMAL)
    darkgates = _engine("darkgates", 91.0).run(scenario)
    baseline = _engine("baseline", 91.0).run(scenario)
    assert "C8" in darkgates.cstate_residency()
    assert "C7" in baseline.cstate_residency()
    assert "C0" in darkgates.cstate_residency()


def test_auto_cstate_follows_break_even_ladder():
    engine = _engine("darkgates", 91.0)
    short_gap = DynamicScenario(
        name="short_gap",
        phases=(DynamicPhase(name="gap", duration_s=0.001),),
        time_step_s=0.001,
    )
    result = engine.run(short_gap)
    expected = cstate_for_idle_duration(0.001, PackageCState.C8)
    assert result.package_cstates[0] == expected.value
    assert expected.depth < PackageCState.C8.depth


def test_pinned_cstate_is_clamped_to_platform_deepest():
    engine = _engine("baseline", 91.0)  # fused deepest is C7
    scenario = DynamicScenario(
        name="pinned",
        phases=(
            DynamicPhase(name="gap", duration_s=1.0, package_cstate="C10"),
        ),
        time_step_s=0.5,
    )
    result = engine.run(scenario)
    assert set(result.package_cstates) == {"C7"}


def test_pinning_c0_on_idle_phase_is_rejected():
    engine = _engine("baseline", 91.0)
    scenario = DynamicScenario(
        name="bad",
        phases=(DynamicPhase(name="gap", duration_s=1.0, package_cstate="C0"),),
    )
    with pytest.raises(ConfigurationError):
        engine.run(scenario)


def test_idle_power_rebanks_and_cools():
    engine = _engine("baseline", 35.0)
    result = engine.run(
        DynamicScenario(
            name="cooldown",
            phases=(
                DynamicPhase(name="work", duration_s=40.0, active_cores=4),
                DynamicPhase(name="rest", duration_s=40.0),
            ),
            **FAST_THERMAL,
        )
    )
    assert result.temperatures_c[-1] < result.peak_temperature_c - 10.0
    assert result.average_powers_w[-1] < result.pl1_w / 2.0


# -- result type -----------------------------------------------------------------------


def test_dynamic_result_json_round_trip():
    engine = _engine("darkgates", 35.0)
    result = engine.run(burst_scenario(idle_lead_s=5.0, burst_s=20.0, **FAST_THERMAL))
    payload = json.loads(json.dumps(result.to_dict()))
    rebuilt = RunResult.from_dict(payload)
    assert isinstance(rebuilt, DynamicRunResult)
    assert rebuilt == result
    assert rebuilt.primary_metric == pytest.approx(result.primary_metric)


def test_dynamic_result_rejects_ragged_traces():
    with pytest.raises(ConfigurationError):
        DynamicRunResult(
            scenario_name="bad",
            time_step_s=0.1,
            pl1_w=35.0,
            pl2_w=43.75,
            frequencies_hz=(1e9, 2e9),
            package_powers_w=(10.0,),
            temperatures_c=(40.0,),
            average_powers_w=(10.0,),
            limiting_codes=(4,),
            cstate_codes=(0,),
            cstate_names=("C0",),
        )


def test_dynamic_result_rejects_codes_outside_their_vocabulary():
    with pytest.raises(ConfigurationError, match="C-state codes"):
        DynamicRunResult(
            scenario_name="bad",
            time_step_s=0.1,
            pl1_w=35.0,
            pl2_w=43.75,
            frequencies_hz=(1e9,),
            package_powers_w=(10.0,),
            temperatures_c=(40.0,),
            average_powers_w=(10.0,),
            limiting_codes=(4,),
            cstate_codes=(1,),
            cstate_names=("C0",),
        )


def test_dynamic_result_traces_are_read_only_arrays():
    engine = _engine("darkgates", 35.0)
    result = engine.run(sustained_scenario(duration_s=2.0, **FAST_THERMAL))
    assert result.frequencies_hz.dtype == np.float64
    assert result.limiting_codes.dtype == result.cstate_codes.dtype == np.int8
    assert np.array_equal(
        result.times_s, np.cumsum(np.full(result.steps, result.time_step_s))
    )
    for trace in (
        result.frequencies_hz,
        result.limiting_codes,
        result.times_s,
        result.limiting_factors,
        result.package_cstates,
    ):
        with pytest.raises(ValueError, match="read-only"):
            trace[0] = trace[-1]
    # Pickling (the process executor) keeps them read-only and equal.
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    with pytest.raises(ValueError, match="read-only"):
        clone.temperatures_c[0] = 0.0


def test_engine_run_dispatches_dynamic_scenarios():
    engine = _engine("darkgates", 35.0)
    scenario = sustained_scenario(duration_s=2.0, **FAST_THERMAL)
    result = engine.run(scenario)
    assert isinstance(result, DynamicRunResult)
    assert result.workload_name == scenario.name


# -- study sweep -----------------------------------------------------------------------


def test_study_over_dynamics_sweeps_specs_and_tdp_levels():
    scenario = burst_scenario(idle_lead_s=5.0, burst_s=30.0, **FAST_THERMAL)
    study = Study.over_dynamics(
        ("darkgates", "baseline"),
        (scenario,),
        tdp_levels_w=(35.0, 91.0),
        name="dynamics_sweep",
    )
    assert len(study) == 4
    grid = study.run()
    low = grid.get(get_spec("baseline", tdp_w=35.0), scenario.name, suite="dynamics")
    high = grid.get(get_spec("baseline", tdp_w=91.0), scenario.name, suite="dynamics")
    assert low.throttled and not high.throttled
    assert high.sustained_frequency_hz > low.sustained_frequency_hz
    # The completed grid round-trips through JSON with typed results.
    rebuilt = type(grid).from_json(grid.to_json())
    cell = rebuilt.get(
        get_spec("baseline", tdp_w=35.0), scenario.name, suite="dynamics"
    )
    assert isinstance(cell, DynamicRunResult)
    assert cell == low


def test_study_over_dynamics_caches_cells():
    scenario = sustained_scenario(duration_s=2.0, **FAST_THERMAL)
    cache = {}
    study = Study.over_dynamics(
        ("darkgates",), (scenario,), tdp_levels_w=(35.0,), cache=cache
    )
    study.run()
    executed = study.tasks_executed
    study.run()
    assert study.tasks_executed == executed


# -- simulator object ------------------------------------------------------------------


def test_dynamics_simulator_reusable_across_scenarios():
    simulator = DynamicsSimulator(_engine("darkgates", 45.0).pcode)
    first = simulator.run(sustained_scenario(duration_s=2.0, **FAST_THERMAL))
    second = simulator.run(burst_scenario(idle_lead_s=1.0, burst_s=2.0, **FAST_THERMAL))
    assert first.scenario_name == "sustained"
    assert second.scenario_name == "burst"
