"""Tests for the simulation engine, residency tracker, and the DarkGates core API."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_fig7_spec_per_benchmark,
    run_fig9_graphics_degradation,
    run_fig10_energy_efficiency,
)
from repro.analysis.study import Study
from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, get_spec
from repro.core.overhead import darkgates_overheads
from repro.pmu.cstates import PackageCState
from repro.pmu.dvfs import CpuDemand
from repro.sim.engine import SimulationEngine
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import spec_benchmark, spec_cpu2006_base_suite


# -- system builders -------------------------------------------------------------------------


def test_darkgates_system_is_bypassed_with_c8(darkgates_91w):
    assert darkgates_91w.bypass_mode
    assert darkgates_91w.deepest_package_cstate() is PackageCState.C8


def test_baseline_system_is_gated_with_c7(baseline_91w):
    assert not baseline_91w.bypass_mode
    assert baseline_91w.deepest_package_cstate() is PackageCState.C7


def test_darkgates_c7_limited_system_configuration():
    limited = get_spec("darkgates+c7", tdp_w=91.0).build()
    assert limited.bypass_mode
    assert limited.deepest_package_cstate() is PackageCState.C7


def test_darkgates_reliability_margin_larger_at_low_tdp():
    low = get_spec("darkgates", tdp_w=35.0).build()
    high = get_spec("darkgates", tdp_w=91.0).build()
    assert (
        low.guardband_model.reliability_margin_v
        > high.guardband_model.reliability_margin_v
    )
    assert high.guardband_model.reliability_margin_v > 0.0


def test_darkgates_without_reliability_margin():
    plain = get_spec("darkgates", tdp_w=91.0, apply_reliability_guardband=False).build()
    assert plain.guardband_model.reliability_margin_v == 0.0


# -- simulation engine: CPU -----------------------------------------------------------------------


def test_engine_cpu_run_reports_positive_metrics(darkgates_91w):
    engine = SimulationEngine(darkgates_91w)
    result = engine.run_cpu_workload(spec_benchmark("416.gamess"))
    assert result.relative_performance > 0
    assert result.frequency_hz >= 3.5e9
    assert result.package_power_w > 10.0


def test_engine_rejects_oversized_workload(darkgates_91w):
    engine = SimulationEngine(darkgates_91w)
    with pytest.raises(ConfigurationError):
        engine.run_cpu_workload(spec_benchmark("416.gamess", active_cores=16))


def test_engine_memory_bound_workload_insensitive_to_config(darkgates_91w, baseline_91w):
    workload = spec_benchmark("410.bwaves")
    darkgates_result = SimulationEngine(darkgates_91w).run_cpu_workload(workload)
    baseline_result = SimulationEngine(baseline_91w).run_cpu_workload(workload)
    assert darkgates_result.improvement_over(baseline_result) < 0.02


def test_engine_compute_bound_workload_benefits_from_darkgates(
    darkgates_91w, baseline_91w
):
    workload = spec_benchmark("444.namd")
    darkgates_result = SimulationEngine(darkgates_91w).run_cpu_workload(workload)
    baseline_result = SimulationEngine(baseline_91w).run_cpu_workload(workload)
    assert darkgates_result.improvement_over(baseline_result) > 0.03


# -- simulation engine: graphics and energy -----------------------------------------------------------


def test_engine_graphics_run(darkgates_91w):
    engine = SimulationEngine(darkgates_91w)
    result = engine.run_graphics_workload(three_dmark_suite()[0])
    assert 300e6 <= result.graphics_frequency_hz <= 1150e6
    assert result.relative_fps > 0


def test_engine_energy_scenario_average_power(darkgates_91w, baseline_91w):
    scenario = rmt_scenario()
    darkgates_result = SimulationEngine(darkgates_91w).run_energy_scenario(scenario)
    baseline_result = SimulationEngine(baseline_91w).run_energy_scenario(scenario)
    assert 0.0 < darkgates_result.average_power_w < 5.0
    assert 0.0 < baseline_result.average_power_w < 5.0
    # Contributions of the phases must add up.
    assert darkgates_result.average_power_w == pytest.approx(
        sum(p.contribution_w for p in darkgates_result.phases)
    )


def test_engine_energy_scenario_limit_flag(darkgates_91w):
    result = SimulationEngine(darkgates_91w).run_energy_scenario(energy_star_scenario())
    assert result.meets_limit == (result.average_power_w <= result.average_power_limit_w)


# -- DarkGates versus baseline (Figs. 7-10) ------------------------------------------------------------


def test_comparison_compute_bound_gains_more_than_memory_bound():
    darkgates = build_engine(get_spec("darkgates", tdp_w=91.0))
    baseline = build_engine(get_spec("baseline", tdp_w=91.0))
    gamess, bwaves = spec_benchmark("416.gamess"), spec_benchmark("410.bwaves")
    gamess_after, gamess_before = darkgates.run(gamess), baseline.run(gamess)
    bwaves_gain = darkgates.run(bwaves).improvement_over(baseline.run(bwaves))
    assert gamess_after.improvement_over(gamess_before) > bwaves_gain
    assert gamess_after.frequency_hz > gamess_before.frequency_hz


def test_comparison_average_spec_gain_in_paper_range():
    average = run_fig7_spec_per_benchmark(91.0).average_improvement
    # Paper: 4.6% average at 91 W; accept a generous band around it.
    assert 0.02 <= average <= 0.09


def test_comparison_graphics_unaffected_at_91w():
    result = run_fig9_graphics_degradation(tdp_levels_w=(91.0,))
    assert result.degradation_at(91.0) <= 0.005


def test_comparison_graphics_slightly_degraded_at_35w():
    result = run_fig9_graphics_degradation(tdp_levels_w=(35.0,))
    assert 0.0 < result.degradation_at(35.0) <= 0.06


def test_comparison_energy_scenarios():
    result = run_fig10_energy_efficiency(91.0)
    darkgates_c8_reduction, baseline_c7_reduction = result.reductions["RMT"]
    # DarkGates+C8 and the baseline both reduce power substantially versus
    # DarkGates limited to C7 (paper Fig. 10).
    assert darkgates_c8_reduction > 0.4
    assert baseline_c7_reduction > 0.4
    # DarkGates+C7 misses the limit; DarkGates+C8 meets it.
    darkgates_c7_ok, darkgates_c8_ok, _ = result.limit_compliance["RMT"]
    assert not darkgates_c7_ok
    assert darkgates_c8_ok


def test_comparison_rejects_bad_tdp():
    with pytest.raises(ConfigurationError):
        Study.over_tdp_levels(
            ("darkgates", "baseline"), (-1.0,), spec_cpu2006_base_suite()
        )


# -- overheads (Section 5) ---------------------------------------------------------------------------------


def test_overheads_match_section5_claims():
    overheads = darkgates_overheads()
    assert overheads.firmware_bytes == 300
    assert overheads.firmware_area_below_claim
    assert not overheads.requires_new_package
    # The power-gates the baseline carries cost a few percent of core area.
    assert 0.01 <= overheads.power_gate_core_area_fraction <= 0.10
    assert overheads.power_gate_die_area_fraction < 0.05


# -- simulation engine: transient droop scenarios -----------------------------------------------


def test_engine_runs_transient_scenario(darkgates_91w):
    from repro.pdn.transients import TransientScenario, core_wake_trace
    from repro.sim.metrics import TransientRunResult

    scenario = TransientScenario.from_trace(core_wake_trace(duration_s=1e-6))
    result = SimulationEngine(darkgates_91w).run(scenario)
    assert isinstance(result, TransientRunResult)
    assert result.scenario_name == "core_wake"
    assert result.worst_droop_v > 0.0
    assert result.transient_overshoot_v >= 0.0
    assert result.minimum_voltage_v < result.nominal_voltage_v
    # The rail defaults to the firmware's resolved single-core voltage.
    assert 0.5 < result.nominal_voltage_v < 1.5
    assert result.primary_metric == result.worst_droop_v


def test_engine_transient_fig6_ordering(darkgates_91w, baseline_91w):
    # The bypassed (DarkGates) network must droop less than the gated one
    # for the same event at the same rail (Fig. 6).
    from repro.pdn.transients import TransientScenario, core_wake_trace

    scenario = TransientScenario.from_trace(
        core_wake_trace(duration_s=1e-6), nominal_voltage_v=1.0
    )
    gated = SimulationEngine(baseline_91w).run(scenario)
    bypassed = SimulationEngine(darkgates_91w).run(scenario)
    assert gated.worst_droop_v > bypassed.worst_droop_v
    assert bypassed.worsening_over(gated) < 0.0


def test_engine_transient_result_round_trips(darkgates_91w):
    from repro.pdn.transients import TransientScenario, avx_burst_trace
    from repro.sim.metrics import RunResult

    scenario = TransientScenario.from_trace(avx_burst_trace())
    result = SimulationEngine(darkgates_91w).run(scenario)
    assert RunResult.from_dict(result.to_dict()) == result


# -- simulation engine: idle-wake power bugfix --------------------------------------------------


def test_active_wake_power_uses_resolved_rail_not_1v(darkgates_91w):
    from repro.power.leakage import NOMINAL_SILICON_TEMPERATURE_C
    from repro.workloads.descriptors import ResidencyPhase

    engine = SimulationEngine(darkgates_91w)
    phase = ResidencyPhase(
        name="wake", fraction=1.0, mode="active", active_power_hint_w=5.0
    )
    power = engine._phase_power_w(phase)
    rail = darkgates_91w.wake_rail_voltage_v(active_cores=1)
    assert rail < 1.0  # the low-frequency wake rail sits below 1 V
    # The old implementation charged the dark cores at a hardcoded 1.0 V.
    old_extra = sum(
        core.leakage.power_w(1.0, NOMINAL_SILICON_TEMPERATURE_C)
        for core in darkgates_91w.processor.die.cores[1:]
    )
    expected_extra = sum(
        core.leakage.power_w(rail, NOMINAL_SILICON_TEMPERATURE_C)
        for core in darkgates_91w.processor.die.cores[1:]
    )
    assert power == pytest.approx(5.0 + expected_extra)
    assert power < 5.0 + old_extra


def test_active_wake_power_scales_with_woken_cores(darkgates_91w):
    from repro.workloads.descriptors import ResidencyPhase

    engine = SimulationEngine(darkgates_91w)
    core_count = darkgates_91w.processor.core_count
    powers = [
        engine._phase_power_w(
            ResidencyPhase(
                name="wake",
                fraction=1.0,
                mode="active",
                active_power_hint_w=5.0,
                active_cores=woken,
            )
        )
        for woken in range(1, core_count + 1)
    ]
    # More woken cores leave fewer dark cores leaking on top of the hint.
    assert all(a > b for a, b in zip(powers, powers[1:]))
    # All cores woken: nothing leaks beyond the hint.
    assert powers[-1] == pytest.approx(5.0)


def test_active_wake_power_gated_part_pays_only_the_hint(baseline_91w):
    from repro.workloads.descriptors import ResidencyPhase

    engine = SimulationEngine(baseline_91w)
    phase = ResidencyPhase(
        name="wake", fraction=1.0, mode="active", active_power_hint_w=5.0
    )
    assert engine._phase_power_w(phase) == pytest.approx(5.0)


def test_scenario_phase_cstate_names_are_case_insensitive(darkgates_91w):
    from repro.workloads.descriptors import ResidencyPhase

    engine = SimulationEngine(darkgates_91w)
    lower = ResidencyPhase(
        name="idle", fraction=1.0, mode="package_idle", package_cstate="c8"
    )
    upper = ResidencyPhase(
        name="idle", fraction=1.0, mode="package_idle", package_cstate="C8"
    )
    deepest = ResidencyPhase(
        name="idle", fraction=1.0, mode="package_idle", package_cstate="Deepest"
    )
    assert engine._phase_power_w(lower) == engine._phase_power_w(upper)
    assert engine._phase_power_w(deepest) == engine._phase_power_w(upper)
