"""Tests for the vectorized droop solver and the transient-scenario subsystem.

Covers the droop-solver regression suite of the transient rework:

* analytic single-stage RLC step response versus the simulator,
* vectorized-versus-reference-RK4 waveform equivalence (max |dV| bound),
* gated-versus-bypassed worst-droop ordering per Fig. 6, and
* the LoadTrace / TraceBuilder / TransientScenario declarative layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.pdn import droop
from repro.pdn.droop import DroopResult, DroopSimulator
from repro.pdn.ladder import LadderStage, SkylakePdnBuilder
from repro.pdn.transients import (
    LoadTrace,
    TraceBuilder,
    TransientScenario,
    avx_burst_trace,
    core_wake_trace,
    multi_event_trace,
    paper_transient_scenarios,
    staggered_wake_trace,
    step_trace,
)

from oracles.droop import ReferenceDroopSimulator

# -- analytic regression -------------------------------------------------------------------------


def _underdamped_stage() -> list[LadderStage]:
    # One series R-L into a shunt C without ESR: the classic series RLC whose
    # current-step response has a closed form.
    return [
        LadderStage(
            name="rlc",
            series_resistance_ohm=5e-3,
            series_inductance_h=1e-9,
            shunt_capacitance_f=1e-6,
            shunt_esr_ohm=0.0,
        )
    ]


def _analytic_rlc_ramp_step(times, nominal_v, R, L, C, step_a, rise_s):
    """Closed-form node voltage for a current ramp 0 -> I over [0, rise_s].

    From the branch equations ``L i_L' = V - v - R i_L`` and
    ``C v' = i_L - i_load``: ``LC v'' + RC v' + v = V - R i - L i'``.
    """
    alpha = R / (2.0 * L)
    omega = np.sqrt(1.0 / (L * C) - alpha**2)

    def decay(t, amp_cos, amp_sin):
        return np.exp(-alpha * t) * (
            amp_cos * np.cos(omega * t) + amp_sin * np.sin(omega * t)
        )

    def decay_prime(t, amp_cos, amp_sin):
        return np.exp(-alpha * t) * (
            (-alpha * amp_cos + omega * amp_sin) * np.cos(omega * t)
            + (-alpha * amp_sin - omega * amp_cos) * np.sin(omega * t)
        )

    # Ramp phase: particular solution linear in t.
    slope = -R * step_a / rise_s
    offset = nominal_v - L * step_a / rise_s - R * C * slope
    amp_cos_1 = nominal_v - offset
    amp_sin_1 = (alpha * amp_cos_1 - slope) / omega

    # Step phase, continuing from the ramp end state.
    v_final = nominal_v - R * step_a
    v_at_rise = slope * rise_s + offset + decay(rise_s, amp_cos_1, amp_sin_1)
    dv_at_rise = slope + decay_prime(rise_s, amp_cos_1, amp_sin_1)
    amp_cos_2 = v_at_rise - v_final
    amp_sin_2 = (dv_at_rise + alpha * amp_cos_2) / omega

    ramp = slope * times + offset + decay(times, amp_cos_1, amp_sin_1)
    step = v_final + decay(times - rise_s, amp_cos_2, amp_sin_2)
    return np.where(times <= rise_s, ramp, step)


#: The integrators under test: the prefix scan, the step-by-step
#: ("matvec") loop it falls back to on an ill-conditioned eigenbasis, and
#: the per-stage RK4 oracle.
INTEGRATORS = ["scan", "matvec", "reference"]


def _integrator(name, stages, monkeypatch, nominal_voltage_v=1.0):
    """A fresh simulator that integrates like *name*."""
    if name == "reference":
        return ReferenceDroopSimulator(stages, nominal_voltage_v)
    if name == "matvec":
        # A zero ceiling rejects every eigenbasis; the simulator is fresh,
        # so no basis cached under the real ceiling survives.
        monkeypatch.setattr(droop, "_MAX_EIGENBASIS_CONDITION", 0.0)
    return DroopSimulator(stages, nominal_voltage_v)


@pytest.mark.parametrize("method", INTEGRATORS)
def test_droop_matches_analytic_rlc_step(method, monkeypatch):
    stage = _underdamped_stage()[0]
    simulator = _integrator(method, _underdamped_stage(), monkeypatch)
    result = simulator.simulate_current_step(
        step_current_a=10.0,
        rise_time_s=2e-9,
        duration_s=1e-6,
        time_step_s=0.1e-9,
    )
    analytic = _analytic_rlc_ramp_step(
        result.time_s,
        1.0,
        stage.series_resistance_ohm,
        stage.series_inductance_h,
        stage.shunt_capacitance_f,
        10.0,
        2e-9,
    )
    assert np.abs(result.load_voltage_v - analytic).max() < 1e-6


# -- vectorized-versus-reference equivalence ------------------------------------------------------


@pytest.fixture(scope="module")
def gated_simulator(gated_pdn):
    return DroopSimulator(SkylakePdnBuilder(gated_pdn).build_ladder(), 1.0)


@pytest.fixture(scope="module")
def bypassed_simulator(bypassed_pdn):
    return DroopSimulator(SkylakePdnBuilder(bypassed_pdn).build_ladder(), 1.0)


def test_vectorized_matches_reference_on_core_wake(
    gated_simulator, bypassed_simulator, monkeypatch
):
    trace = core_wake_trace()
    for simulator in (gated_simulator, bypassed_simulator):
        reference = ReferenceDroopSimulator.like(simulator).simulate_profile(
            trace, trace.duration_s
        )
        for name in ("scan", "matvec"):
            with monkeypatch.context() as patch:
                solver = _integrator(
                    name, simulator.stages, patch, simulator.nominal_voltage_v
                )
                vectorized = solver.simulate_profile(trace, trace.duration_s)
            delta = np.abs(
                vectorized.load_voltage_v - reference.load_voltage_v
            ).max()
            assert delta <= 1e-4  # acceptance bound; actual agreement ~1e-12
            assert delta <= 1e-9


@pytest.mark.parametrize(
    "trace_builder", [avx_burst_trace, staggered_wake_trace, multi_event_trace]
)
def test_vectorized_matches_reference_on_scenarios(gated_simulator, trace_builder):
    trace = trace_builder()
    duration = min(trace.duration_s, 1e-6)
    reference = ReferenceDroopSimulator.like(gated_simulator).simulate_profile(
        trace, duration
    )
    vectorized = gated_simulator.simulate_profile(trace, duration)
    assert np.abs(vectorized.load_voltage_v - reference.load_voltage_v).max() <= 1e-9


def test_simulator_rejects_unknown_method(gated_simulator):
    # One integrator: the matvec loop is a fallback and the per-stage RK4
    # an oracle in the tests, and no entry point takes a method to pick.
    trace = core_wake_trace(duration_s=1e-6)
    for method in ("scan", "exact", "matvec", "reference"):
        with pytest.raises(TypeError):
            gated_simulator.simulate_current_step(10.0, method=method)
        with pytest.raises(TypeError):
            gated_simulator.simulate_profile(trace, 1e-6, method=method)
        with pytest.raises(TypeError):
            DroopSimulator(_underdamped_stage(), method=method)
        with pytest.raises(TypeError):
            TransientScenario(name="x", trace=trace, method=method)


def test_zero_condition_ceiling_forces_the_matvec_loop(monkeypatch):
    """The simulator falls back to the loop when no eigenbasis is trusted."""
    simulator = _integrator("matvec", _underdamped_stage(), monkeypatch)

    def no_scan(*args):
        raise AssertionError("the prefix scan ran despite the zero ceiling")

    monkeypatch.setattr(DroopSimulator, "_propagate_scan", no_scan)
    looped = simulator.simulate_current_step(10.0, duration_s=1e-7)
    monkeypatch.undo()
    scanned = DroopSimulator(_underdamped_stage()).simulate_current_step(
        10.0, duration_s=1e-7
    )
    assert np.abs(looped.load_voltage_v - scanned.load_voltage_v).max() <= 1e-9


# -- Fig. 6 ordering ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "trace_builder",
    [core_wake_trace, avx_burst_trace, staggered_wake_trace, multi_event_trace],
)
def test_gated_droop_worse_than_bypassed_per_scenario(
    gated_simulator, bypassed_simulator, trace_builder
):
    trace = trace_builder()
    gated = gated_simulator.simulate_profile(trace, trace.duration_s)
    bypassed = bypassed_simulator.simulate_profile(trace, trace.duration_s)
    assert gated.worst_droop_v > bypassed.worst_droop_v


# -- settled-drop / endpoint bugfixes -------------------------------------------------------------


def test_settled_drop_never_exceeds_worst_droop_on_short_runs(gated_simulator):
    # A run cut off mid-transient: the old fixed tail window averaged
    # transient samples and could push settled above worst, clamping the
    # overshoot to zero after it first went negative.
    trace = core_wake_trace(duration_s=4e-6)
    for duration in (0.3e-6, 0.6e-6, 1.2e-6, 4e-6):
        result = gated_simulator.simulate_profile(trace, duration)
        assert result.settled_drop_v <= result.worst_droop_v + 1e-12
        assert result.transient_overshoot_v >= 0.0


def test_settled_drop_detects_settled_tail():
    simulator = DroopSimulator(_underdamped_stage(), nominal_voltage_v=1.0)
    result = simulator.simulate_current_step(step_current_a=20.0, duration_s=5e-6)
    # Fully settled run: detection agrees with the analytic R*I DC drop.
    assert result.settled_drop_v == pytest.approx(
        20.0 * 5e-3, rel=0.05
    )
    assert result.final_dc_drop_v == pytest.approx(20.0 * 5e-3, rel=1e-9)


def test_settle_detection_on_hand_built_result():
    # Synthetic waveform whose last fifth still contains a large transient:
    # a fixed -len//50 window average would report a settled level far below
    # the true plateau.
    times = np.linspace(0.0, 1e-6, 201)
    voltages = np.full(201, 1.0)
    voltages[100:] = 0.95
    voltages[190:] = 0.80  # late glitch, not settled
    result = DroopResult(time_s=times, load_voltage_v=voltages, nominal_voltage_v=1.0)
    assert result.settled_drop_v == pytest.approx(0.20, abs=1e-9)
    assert result.transient_overshoot_v >= 0.0


def test_last_sample_never_overshoots_duration(gated_simulator):
    duration = 1.0001e-6
    step = 0.3e-9
    result = gated_simulator.simulate_current_step(
        10.0, duration_s=duration, time_step_s=step
    )
    assert result.time_s[-1] <= duration + 1e-18
    assert result.time_s[-1] > duration - 2 * step


def test_too_short_duration_still_rejected(gated_simulator):
    with pytest.raises(SimulationError):
        gated_simulator.simulate_current_step(
            1.0, duration_s=1e-10, time_step_s=1e-9
        )


# -- LoadTrace / TraceBuilder ---------------------------------------------------------------------


def test_load_trace_sampling_and_calling():
    trace = LoadTrace(
        name="ramp", times_s=(0.0, 1e-6, 2e-6), currents_a=(1.0, 3.0, 3.0)
    )
    assert trace.current_a(0.5e-6) == pytest.approx(2.0)
    assert trace(1.5e-6) == pytest.approx(3.0)
    assert trace.sample(np.array([0.0, 0.5e-6, 5e-6])) == pytest.approx(
        [1.0, 2.0, 3.0]
    )
    assert trace.duration_s == 2e-6
    assert trace.peak_current_a == 3.0
    assert trace.initial_current_a == 1.0
    assert trace.final_current_a == 3.0


def test_load_trace_validation():
    with pytest.raises(ConfigurationError):
        LoadTrace(name="", times_s=(0.0, 1e-9), currents_a=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        LoadTrace(name="x", times_s=(0.0,), currents_a=(0.0,))
    with pytest.raises(ConfigurationError):
        LoadTrace(name="x", times_s=(1e-9, 2e-9), currents_a=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        LoadTrace(name="x", times_s=(0.0, 0.0), currents_a=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        LoadTrace(name="x", times_s=(0.0, 1e-9), currents_a=(0.0, -1.0))
    with pytest.raises(ConfigurationError):
        LoadTrace(name="x", times_s=(0.0, 1e-9, 2e-9), currents_a=(0.0, 1.0))


def test_load_trace_composition():
    wake = step_trace("wake", 10.0, duration_s=1e-6)
    burst = step_trace("burst", 20.0, initial_current_a=10.0, duration_s=1e-6)
    combined = wake.then(burst)
    assert combined.duration_s == pytest.approx(2e-6)
    assert combined.current_a(1.5e-6) == pytest.approx(20.0)

    pair = wake.overlay(wake.shifted(0.5e-6), name="pair")
    assert pair.current_a(0.75e-6) == pytest.approx(20.0)
    assert pair.name == "pair"

    scaled = wake.scaled(0.5)
    assert scaled.peak_current_a == pytest.approx(5.0)

    tailed = wake.settle_tail(1e-6)
    assert tailed.duration_s == pytest.approx(2e-6)
    assert tailed.final_current_a == wake.final_current_a

    repeated = wake.repeated(3, period_s=2e-6)
    assert repeated.duration_s == pytest.approx(5e-6)
    assert repeated.current_a(2.5e-6) == pytest.approx(10.0)
    assert repeated.name == "wakex3"


def test_trace_builder_round_trip():
    trace = (
        TraceBuilder(initial_current_a=2.0)
        .hold(100e-9)
        .ramp_to(25.0, 5e-9)
        .hold(500e-9)
        .step_to(2.0)
        .hold(400e-9)
        .build("pulse")
    )
    assert trace.name == "pulse"
    assert trace.initial_current_a == 2.0
    assert trace.current_a(300e-9) == pytest.approx(25.0)
    assert trace.final_current_a == 2.0


def test_load_trace_is_hashable_and_picklable():
    import pickle

    trace = core_wake_trace()
    assert hash(trace) == hash(core_wake_trace())
    assert pickle.loads(pickle.dumps(trace)) == trace
    scenario = TransientScenario.from_trace(trace)
    assert pickle.loads(pickle.dumps(scenario)) == scenario


# -- TransientScenario ----------------------------------------------------------------------------


def test_paper_transient_scenarios_cover_the_four_events():
    scenarios = paper_transient_scenarios()
    assert len(scenarios) == 4
    names = {scenario.name for scenario in scenarios}
    assert names == {"core_wake", "avx_burst", "staggered_wake", "wake_then_avx"}
    for scenario in scenarios:
        assert scenario.kind == "transient"
        assert scenario.resolved_duration_s > 0


def test_scenario_name_records_non_default_time_step():
    scenario = TransientScenario.from_trace(core_wake_trace(), time_step_s=1e-9)
    assert scenario.name == "core_wake@1ns"
    default = TransientScenario.from_trace(core_wake_trace())
    assert default.name == "core_wake"


def test_scenario_validation():
    trace = core_wake_trace()
    with pytest.raises(ConfigurationError):
        TransientScenario(name="", trace=trace)
    with pytest.raises(ConfigurationError):
        TransientScenario(name="x", trace=trace, time_step_s=0.0)
    with pytest.raises(ConfigurationError):
        TransientScenario(name="x", trace=trace, duration_s=-1.0)


def test_repeated_holds_final_current_between_copies():
    trace = core_wake_trace(duration_s=1e-6)
    repeated = trace.repeated(2, period_s=2e-6)
    # Mid-gap the load must sit at the settled active current, not ramp
    # toward the next copy's idle level.
    assert repeated.current_a(1.5e-6) == pytest.approx(trace.final_current_a)
    # And the second wake replays the event's idle level just before it.
    assert repeated.current_a(2.0e-6 + 50e-9) == pytest.approx(
        trace.initial_current_a
    )
