"""Batched-vs-reference equivalence of the closed-loop dynamics engine.

The batched lockstep fast path (:class:`BatchedDynamicsSimulator`) must be
bit-compatible with the retained per-run stepper: identical frequency-bin,
limiting-factor and package C-state traces, and bit-identical float traces
(every equivalence check ends on full dataclass equality).  The suite
covers the deterministic acceptance grids, heterogeneous and padded
batches, the engine/Study wiring, the segment's windowed bin search
against ``CandidateTable.select`` (including a test for each of its
guards), and a hypothesis sweep over random scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.study import BatchedExecutor, Study, resolve_executor
from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, get_spec
from repro.pmu.dvfs import (
    LIMITING_FACTOR_CODES,
    LIMITING_FACTOR_ORDER,
    CandidateTable,
    CpuDemand,
    LimitingFactor,
    StackedCandidateTables,
)
from repro.sim.dynamics import (
    BatchedDynamicsSimulator,
    DynamicsSimulator,
    _ActiveSegment,
)
from repro.workloads.dynamics import (
    DynamicPhase,
    DynamicScenario,
    burst_scenario,
    sprint_and_rest_scenario,
    sustained_scenario,
)
from repro.workloads.spec import spec_cpu2006_base_suite

SCENARIOS = (
    sustained_scenario(duration_s=12.0, time_step_s=0.1),
    burst_scenario(
        idle_lead_s=3.0,
        burst_s=12.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.1,
    ),
    sprint_and_rest_scenario(
        sprint_s=4.0, rest_s=2.0, cycles=2, active_cores=2, time_step_s=0.1
    ),
)


def _assert_equivalent(reference, batched):
    # The headline guarantees first (clearer failures)...
    assert np.array_equal(reference.frequencies_hz, batched.frequencies_hz)
    assert np.array_equal(reference.package_cstates, batched.package_cstates)
    assert np.array_equal(reference.limiting_factors, batched.limiting_factors)
    for attribute in ("package_powers_w", "temperatures_c", "average_powers_w"):
        assert np.allclose(
            getattr(reference, attribute),
            getattr(batched, attribute),
            rtol=1e-12,
            atol=1e-12,
        )
    # ... then the full bit-for-bit contract.
    assert reference == batched


def test_batched_matches_reference_on_tdp_sweep(darkgates_pcode, baseline_pcode):
    pairs = [
        (pcode, scenario)
        for pcode in (
            darkgates_pcode(35.0),
            darkgates_pcode(91.0),
            baseline_pcode(35.0),
            baseline_pcode(91.0),
        )
        for scenario in SCENARIOS
    ]
    simulator = BatchedDynamicsSimulator()
    batched = simulator.run_batch(pairs)
    for (pcode, scenario), result in zip(pairs, batched):
        _assert_equivalent(simulator.simulator(pcode).run(scenario), result)


def test_batched_handles_heterogeneous_runs(darkgates_pcode, baseline_pcode):
    """Different time steps, durations, pinned C-states and initial state."""
    scenarios = (
        sustained_scenario(
            duration_s=5.0,
            time_step_s=0.05,
            initial_temperature_c=80.0,
            initial_average_power_w=60.0,
        ),
        DynamicScenario(
            name="pinned_idle",
            phases=(
                DynamicPhase(name="gap", duration_s=2.0, package_cstate="c6"),
                DynamicPhase(name="work", duration_s=3.0, active_cores=1),
                DynamicPhase(name="deep", duration_s=4.0, package_cstate="deepest"),
            ),
            time_step_s=0.25,
        ),
        burst_scenario(idle_lead_s=1.0, burst_s=3.0, time_step_s=0.02),
    )
    pairs = [
        (pcode, scenario)
        for pcode in (darkgates_pcode(45.0), baseline_pcode(65.0))
        for scenario in scenarios
    ]
    simulator = BatchedDynamicsSimulator()
    batched = simulator.run_batch(pairs)
    for (pcode, scenario), result in zip(pairs, batched):
        _assert_equivalent(simulator.simulator(pcode).run(scenario), result)


def test_batched_all_idle_batch(baseline_pcode):
    scenario = DynamicScenario(
        name="all_idle",
        phases=(DynamicPhase(name="gap", duration_s=3.0),),
        time_step_s=0.1,
    )
    simulator = BatchedDynamicsSimulator()
    (batched,) = simulator.run_batch([(baseline_pcode(35.0), scenario)])
    _assert_equivalent(simulator.simulator(baseline_pcode(35.0)).run(scenario), batched)
    assert set(batched.frequencies_hz) == {0.0}


def test_empty_batch_returns_empty_list():
    assert BatchedDynamicsSimulator().run_batch([]) == []


# -- engine wiring ---------------------------------------------------------------------


def test_engine_dispatches_to_batched_by_default():
    engine = build_engine(get_spec("baseline").variant(tdp_w=35.0))
    scenario = SCENARIOS[1]
    default = engine.run(scenario)
    reference = engine.run_dynamic_scenario(scenario, method="reference")
    _assert_equivalent(reference, default)


def test_engine_rejects_unknown_dynamics_method():
    engine = build_engine(get_spec("baseline").variant(tdp_w=35.0))
    with pytest.raises(ConfigurationError, match="unknown dynamics method"):
        engine.run_dynamic_scenario(SCENARIOS[0], method="vectorised")


# -- Study wiring ----------------------------------------------------------------------


def test_over_dynamics_defaults_to_batched_executor():
    study = Study.over_dynamics(("baseline",), SCENARIOS[:1], tdp_levels_w=(35.0,))
    assert isinstance(study._executor, BatchedExecutor)
    explicit = Study.over_dynamics(
        ("baseline",), SCENARIOS[:1], tdp_levels_w=(35.0,), executor="serial"
    )
    assert not isinstance(explicit._executor, BatchedExecutor)


def test_batched_executor_name_resolves():
    assert isinstance(resolve_executor("batched"), BatchedExecutor)


def test_over_dynamics_batched_equals_serial():
    scenarios = SCENARIOS[:2]
    kwargs = dict(tdp_levels_w=(35.0, 91.0), name="sweep")
    batched = Study.over_dynamics(
        ("darkgates", "baseline"), scenarios, **kwargs
    ).run()
    serial = Study.over_dynamics(
        ("darkgates", "baseline"), scenarios, executor="serial", **kwargs
    ).run()
    assert len(batched.cells) == len(serial.cells)
    for cell_b, cell_s in zip(batched.cells, serial.cells):
        assert cell_b.spec == cell_s.spec
        assert cell_b.workload_name == cell_s.workload_name
        _assert_equivalent(cell_s.value, cell_b.value)


def test_batched_executor_falls_back_for_non_dynamic_tasks():
    workloads = spec_cpu2006_base_suite()[:2]
    suites = {"cpu": workloads, "dynamics": list(SCENARIOS[:1])}
    batched = Study(("baseline",), suites, executor="batched", name="mixed").run()
    serial = Study(("baseline",), suites, executor="serial", name="mixed").run()
    for workload in workloads:
        assert batched.get("baseline", workload, suite="cpu") == serial.get(
            "baseline", workload, suite="cpu"
        )
    assert batched.get(
        "baseline", SCENARIOS[0].name, suite="dynamics"
    ) == serial.get("baseline", SCENARIOS[0].name, suite="dynamics")


# -- stacked candidate tables and the segment's windowed bin search -------------------


def _select_segment(tables):
    """An all-active segment over *tables*, its sustained bins at the top.

    Resolved armed and without a thermal cap, a segment's (frequency,
    power, limiting) is exactly ``CandidateTable.select`` at the chosen
    bin, so the lockstep resolution is pinned against the scalar oracle.
    """
    stacked = StackedCandidateTables.from_tables(tables)
    rows = np.arange(len(tables))
    return _ActiveSegment(
        stacked,
        rows,
        rows,
        np.ones(len(rows), dtype=bool),
        stacked.bin_counts - 1,
        np.full(len(rows), LIMITING_FACTOR_CODES[LimitingFactor.NONE]),
    )


def _assert_resolves_like_select(segment, tables, temperature, limit):
    """One resolve of every row at (*temperature*, *limit*) vs the scalar path."""
    runs = len(tables)
    temperatures = np.full(runs, float(temperature))
    limits = np.full(runs, float(limit))
    frequency, power, codes, _ = segment.resolve(
        temperatures,
        limits,
        np.ones(runs, dtype=bool),
        limits,
        limits,
        np.full(runs, np.inf),
        np.zeros(runs),
    )
    for row, table in enumerate(tables):
        index, limiting = table.select(limit, temperature)
        assert frequency[row] == table.frequencies_hz[index]
        assert power[row] == table.package_power_w(temperature)[index]
        assert LIMITING_FACTOR_ORDER[int(codes[row])] is limiting


def _stacked_policy_tables(dvfs_policy):
    policies = (dvfs_policy(35.0, True), dvfs_policy(91.0, False))
    demands = (CpuDemand(active_cores=1), CpuDemand(active_cores=4, activity=0.8))
    return [
        policy.candidate_table(demand) for policy in policies for demand in demands
    ]


def test_stacked_tables_match_scalar_select(dvfs_policy):
    tables = _stacked_policy_tables(dvfs_policy)
    assert len(StackedCandidateTables.from_tables(tables)) == len(tables)
    segment = _select_segment(tables)
    assert segment.windowed
    narrow = 0
    for temperature in (40.0, 75.0, 99.0):
        for limit in (5.0, 20.0, 45.0, 200.0):
            # Repeated calls on the same rows: after the first, the window
            # around the previous answer is what gets evaluated.
            for _ in range(3):
                _assert_resolves_like_select(segment, tables, temperature, limit)
                narrow += segment.window != (0, segment.edge)
    assert narrow > 0


def test_stacked_tables_multi_group_association_matches_scalar():
    """>=2 leakage groups must sum group-first, like the scalar path.

    The evaluated SKUs use one leakage law per die, so only a synthetic
    table exercises the multi-group accumulation order; a group-by-group
    association mismatch shows up as a one-ulp power difference here.
    """
    table = CandidateTable(
        frequencies_hz=np.array([1e9, 2e9, 3e9]),
        vr_voltages_v=np.array([0.7, 0.8, 0.95]),
        power_voltages_v=np.array([0.68, 0.78, 0.9]),
        active_dynamic_w=np.array([1.1, 2.3, 4.7]),
        active_leakage_groups=(
            (0.02, 60.0, 1.8, np.array([0.1, 0.2, 0.3])),
            (0.031, 55.0, 2.1, np.array([0.05, 0.06, 0.07])),
            (0.027, 65.0, 1.8, np.array([0.01, 0.03, 0.09])),
        ),
        idle_leakage_groups=(
            (0.02, 60.0, 1.8, np.array([0.01, 0.02, 0.03])),
            (0.031, 55.0, 2.1, np.array([0.002, 0.004, 0.008])),
        ),
        uncore_power_w=1.5,
        graphics_idle_power_w=0.05,
        vmax_ok=np.array([True, True, False]),
        iccmax_ok=np.array([True, True, True]),
        vmax_v=1.0,
    )
    segment = _select_segment([table])
    for temperature in (40.0, 61.3, 99.0):
        for limit in (2.0, 5.0, 50.0):
            for _ in range(3):
                _assert_resolves_like_select(segment, [table], temperature, limit)


def _unchecked_table(dynamic_w, idle_reference_w, iccmax_ok):
    """A 7-bin synthetic table; leakage sits at its T_ref (scale 1)."""
    bins = len(dynamic_w)
    return CandidateTable(
        frequencies_hz=np.arange(1, bins + 1) * 1e9,
        vr_voltages_v=np.linspace(0.7, 1.0, bins),
        power_voltages_v=np.linspace(0.68, 0.98, bins),
        active_dynamic_w=np.asarray(dynamic_w, dtype=float),
        active_leakage_groups=((0.02, 60.0, 1.8, np.full(bins, 0.01)),),
        idle_leakage_groups=(
            (0.03, 60.0, 1.8, np.asarray(idle_reference_w, dtype=float)),
        ),
        uncore_power_w=0.5,
        graphics_idle_power_w=0.05,
        vmax_ok=np.ones(bins, dtype=bool),
        iccmax_ok=np.asarray(iccmax_ok, dtype=bool),
        vmax_v=1.1,
    )


_RISING_W = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


@pytest.mark.parametrize(
    "dynamic_w, idle_reference_w, iccmax_ok, high_limit",
    [
        ([1.0, 2.0, 3.0, 6.0, 4.0, 7.0, 8.0], [0.0] * 7, [True] * 7, 5.0),
        (_RISING_W, [0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0], [True] * 7, 6.0),
        (_RISING_W, [0.0] * 7, [True, True, True, False, True, True, True], 6.0),
    ],
    ids=["dynamic-dip", "idle-leakage-dip", "feasibility-gap"],
)
def test_segment_failing_the_check_resolves_like_select(
    dynamic_w, idle_reference_w, iccmax_ok, high_limit
):
    """A power dip or a feasibility gap inside the grid disables the window.

    At 2.6 W the answer is bin 1, so the next window is bins [0, 4).  At
    the high limit bin 3 is not allowed but bin 4 is: the window's top-end
    test would pass and pick bin 2, while the scalar path picks bin 4.
    Only the segment's check keeps this exact.
    """
    table = _unchecked_table(dynamic_w, idle_reference_w, iccmax_ok)
    segment = _select_segment([table])
    assert not segment.windowed
    assert table.select(high_limit, 60.0)[0] == 4
    for limit in (2.6, 2.6, 2.6, high_limit):
        _assert_resolves_like_select(segment, [table], 60.0, limit)
        assert segment.window == (0, segment.edge)


def test_segment_answer_jumping_past_the_window_resolves_like_select(dvfs_policy):
    """Jumps out of the window fall back to the whole trimmed range.

    A few calls at one state narrow the window; then the limit or the
    temperature moves every answer past one of its ends.  Each end's test
    is what sends the step back to the full evaluation.
    """
    tables = _stacked_policy_tables(dvfs_policy)
    for settle, jump in (
        ((60.0, 8.0), (60.0, 200.0)),  # a PL2-level limit: past the top
        ((60.0, 200.0), (60.0, 8.0)),  # a collapsed limit: below the bottom
        ((99.0, 30.0), (20.0, 30.0)),  # a large temperature drop
    ):
        segment = _select_segment(tables)
        for _ in range(3):
            _assert_resolves_like_select(segment, tables, *settle)
        assert segment.window != (0, segment.edge)
        _assert_resolves_like_select(segment, tables, *jump)
        assert segment.window == (0, segment.edge)
        _assert_resolves_like_select(segment, tables, *jump)
        assert segment.window != (0, segment.edge)


def test_batched_matches_reference_with_padded_tables():
    """Tables of different bin counts pad rows; the check skips the padding.

    Broadwell's grid has 37 bins against Skylake's 43, and the -100 mV
    DarkGates variant is feasible up to bin 40, so the trimmed range keeps
    padded (zero-power) Broadwell bins.  The check looks only at each
    run's feasible prefix, so the window stays on, and the batch stays
    bit-identical to the per-run stepper.
    """
    darkgates = get_spec("darkgates", tdp_w=91.0, guardband_offset_v=-0.1).build()
    broadwell = get_spec("broadwell-baseline", tdp_w=45.0).build()
    tables = [
        pcode.dvfs_policy.candidate_table(CpuDemand(active_cores=cores))
        for pcode in (darkgates, broadwell)
        for cores in (1, 4)
    ]
    bin_counts = {len(table.frequencies_hz) for table in tables}
    assert len(bin_counts) == 2
    segment = _select_segment(tables)
    assert segment.edge > min(bin_counts)
    assert segment.windowed

    pairs = [
        (pcode, scenario)
        for pcode in (darkgates, broadwell)
        for scenario in SCENARIOS
    ]
    simulator = BatchedDynamicsSimulator()
    batched = simulator.run_batch(pairs)
    for (pcode, scenario), result in zip(pairs, batched):
        _assert_equivalent(simulator.simulator(pcode).run(scenario), result)


def test_stacked_tables_reject_empty():
    with pytest.raises(ConfigurationError):
        StackedCandidateTables.from_tables([])


def test_limiting_factor_codes_round_trip():
    assert len(LIMITING_FACTOR_ORDER) == len(LimitingFactor)
    for factor in LimitingFactor:
        assert LIMITING_FACTOR_ORDER[LIMITING_FACTOR_CODES[factor]] is factor
    # The batched stepper relies on the power-limited factors sitting at the
    # top of the code space.
    tdp_code = LIMITING_FACTOR_CODES[LimitingFactor.TDP]
    thermal_code = LIMITING_FACTOR_CODES[LimitingFactor.THERMAL]
    assert {tdp_code, thermal_code} == {
        len(LIMITING_FACTOR_ORDER) - 2,
        len(LIMITING_FACTOR_ORDER) - 1,
    }


# -- property-based equivalence --------------------------------------------------------


_idle_phases = st.builds(
    DynamicPhase,
    name=st.just("idle"),
    duration_s=st.floats(0.05, 4.0),
    active_cores=st.just(0),
    package_cstate=st.sampled_from(["auto", "deepest", "C3", "c6", "C7"]),
)

_active_phases = st.builds(
    DynamicPhase,
    name=st.just("active"),
    duration_s=st.floats(0.05, 4.0),
    active_cores=st.integers(1, 4),
    activity=st.floats(0.05, 1.0),
    memory_intensity=st.floats(0.0, 1.0),
)

_scenarios = st.builds(
    DynamicScenario,
    name=st.just("random"),
    phases=st.lists(
        st.one_of(_idle_phases, _active_phases), min_size=1, max_size=4
    ).map(tuple),
    time_step_s=st.floats(0.05, 0.5),
    pl2_ratio=st.floats(1.0, 1.6),
    turbo_tau_s=st.floats(0.5, 20.0),
    thermal_capacitance_j_per_c=st.floats(1.0, 100.0),
    initial_temperature_c=st.one_of(st.none(), st.floats(35.0, 99.0)),
    initial_average_power_w=st.floats(0.0, 80.0),
    rebank_fraction=st.floats(0.0, 1.0),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(darkgates_scenario=_scenarios, baseline_scenario=_scenarios)
def test_random_scenarios_bin_and_cstate_exact(
    darkgates_pcode, baseline_pcode, darkgates_scenario, baseline_scenario
):
    """Random timelines produce identical bin and C-state traces on both paths.

    The two systems run as one heterogeneous batch, so the property also
    exercises lockstep mixing of a TDP-limited and a Vmax-limited run.
    Each system draws its own timeline, so one run may end mid-segment and
    a segment may start inside the other run's phase.
    """
    pairs = [
        (darkgates_pcode(91.0), darkgates_scenario),
        (baseline_pcode(35.0), baseline_scenario),
    ]
    simulator = BatchedDynamicsSimulator()
    batched = simulator.run_batch(pairs)
    for (pcode, scenario), result in zip(pairs, batched):
        reference = simulator.simulator(pcode).run(scenario)
        assert np.array_equal(reference.frequencies_hz, result.frequencies_hz)
        assert np.array_equal(reference.package_cstates, result.package_cstates)
        assert np.array_equal(reference.limiting_factors, result.limiting_factors)
        assert reference == result


def test_reference_simulator_still_standalone(baseline_pcode):
    """The retained per-run engine works without the batched wrapper."""
    result = DynamicsSimulator(baseline_pcode(35.0)).run(SCENARIOS[0])
    assert result.duration_s == pytest.approx(12.0, abs=0.1)
