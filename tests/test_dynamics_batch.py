"""Batched-vs-reference equivalence of the closed-loop dynamics engine.

The batched lockstep fast path (:class:`BatchedDynamicsSimulator`) must be
bit-compatible with the retained per-run stepper: identical frequency-bin,
limiting-factor and package C-state traces, and float traces within tight
tolerance (in practice bit-identical, which the strictest tests assert via
full dataclass equality).  The suite covers the deterministic acceptance
grids, heterogeneous batches, the engine/Study wiring, the stacked
candidate-table resolution, and a hypothesis sweep over random scenarios.
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
    CpuDemand,
    LimitingFactor,
    StackedCandidateTables,
)
from repro.sim.dynamics import BatchedDynamicsSimulator, DynamicsSimulator
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


# -- stacked candidate tables ----------------------------------------------------------


def test_stacked_tables_match_scalar_select(dvfs_policy):
    policies = (dvfs_policy(35.0, True), dvfs_policy(91.0, False))
    demands = (CpuDemand(active_cores=1), CpuDemand(active_cores=4, activity=0.8))
    tables = [
        policy.candidate_table(demand) for policy in policies for demand in demands
    ]
    stacked = StackedCandidateTables.from_tables(tables)
    assert len(stacked) == len(tables)
    temperatures = (40.0, 75.0, 99.0)
    limits = (5.0, 20.0, 45.0, 200.0)
    for row, table in enumerate(tables):
        for temperature in temperatures:
            expected_power = table.package_power_w(temperature)
            rows = np.array([row])
            power = stacked.package_power_w(rows, np.array([temperature]))
            assert np.array_equal(power[0, : len(expected_power)], expected_power)
            for limit in limits:
                index, limiting = table.select(limit, temperature)
                indices, codes = stacked.select(
                    rows, np.array([limit]), np.array([temperature])
                )
                assert int(indices[0]) == index
                assert LIMITING_FACTOR_ORDER[int(codes[0])] is limiting


def test_stacked_tables_multi_group_association_matches_scalar():
    """>=2 leakage groups must sum group-first, like the scalar path.

    The evaluated SKUs use one leakage law per die, so only a synthetic
    table exercises the multi-group accumulation order; a group-by-group
    association mismatch shows up as a one-ulp power difference here.
    """
    from repro.pmu.dvfs import CandidateTable

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
    stacked = StackedCandidateTables.from_tables([table])
    rows = np.array([0])
    for temperature in (40.0, 61.3, 99.0):
        expected = table.package_power_w(temperature)
        power = stacked.package_power_w(rows, np.array([temperature]))
        assert np.array_equal(power[0], expected)
        for limit in (2.0, 5.0, 50.0):
            index, limiting = table.select(limit, temperature)
            indices, codes = stacked.select(
                rows, np.array([limit]), np.array([temperature])
            )
            assert int(indices[0]) == index
            assert LIMITING_FACTOR_ORDER[int(codes[0])] is limiting


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
@given(scenario=_scenarios)
def test_random_scenarios_bin_and_cstate_exact(
    darkgates_pcode, baseline_pcode, scenario
):
    """Random timelines produce identical bin and C-state traces on both paths.

    The two systems run as one heterogeneous batch, so the property also
    exercises lockstep mixing of a TDP-limited and a Vmax-limited run.
    """
    pairs = [(darkgates_pcode(91.0), scenario), (baseline_pcode(35.0), scenario)]
    simulator = BatchedDynamicsSimulator()
    batched = simulator.run_batch(pairs)
    for (pcode, _), result in zip(pairs, batched):
        reference = simulator.simulator(pcode).run(scenario)
        assert np.array_equal(reference.frequencies_hz, result.frequencies_hz)
        assert np.array_equal(reference.package_cstates, result.package_cstates)
        assert np.array_equal(reference.limiting_factors, result.limiting_factors)
        assert reference == result


def test_reference_simulator_still_standalone(baseline_pcode):
    """The retained per-run engine works without the batched wrapper."""
    result = DynamicsSimulator(baseline_pcode(35.0)).run(SCENARIOS[0])
    assert result.duration_s == pytest.approx(12.0, abs=0.1)
