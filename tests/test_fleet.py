"""Tests for the fleet scenario-generator subsystem (repro.fleet)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fleet import FleetStudy, FleetStudyResult
from repro.analysis.study import Study
from repro.common.errors import ConfigurationError
from repro.core.spec import get_spec
from repro.fleet import (
    DiurnalArrivals,
    DutyCycleArrivals,
    EnsembleQos,
    FleetProfile,
    OnOffArrivals,
    OverlayArrivals,
    PoissonArrivals,
    QosReport,
    ScenarioGenerator,
    aggregate_reports,
    fleet_profile,
    fleet_profile_names,
)
from repro.sim.metrics import (
    RESULT_SCHEMA_VERSION,
    THROTTLE_FACTORS,
    DynamicRunResult,
    RunResult,
    encode_cstates,
    encode_frequencies,
    encode_limiting_factors,
)
from repro.store.cache import StoreCache
from repro.store.hashing import canonical_payload
from repro.workloads.dynamics import build_scenario, scenario_names

from oracles.dynamics import DynamicsSimulator
from oracles.study import PerCellExecutor

# -- strategies ------------------------------------------------------------------------

_leaves = st.one_of(
    st.builds(
        PoissonArrivals,
        duration_s=st.floats(min_value=2.0, max_value=20.0),
        rate_hz=st.floats(min_value=0.0, max_value=8.0),
    ),
    st.builds(
        DiurnalArrivals,
        duration_s=st.floats(min_value=2.0, max_value=20.0),
        rate_hz=st.floats(min_value=0.0, max_value=8.0),
        amplitude=st.floats(min_value=0.0, max_value=1.0),
        period_s=st.floats(min_value=5.0, max_value=40.0),
    ),
    st.builds(
        OnOffArrivals,
        duration_s=st.floats(min_value=2.0, max_value=20.0),
        mean_on_s=st.floats(min_value=0.5, max_value=5.0),
        mean_off_s=st.floats(min_value=0.5, max_value=5.0),
        alpha=st.floats(min_value=1.1, max_value=2.0),
    ),
    st.builds(
        DutyCycleArrivals,
        duration_s=st.floats(min_value=2.0, max_value=20.0),
        period_s=st.floats(min_value=1.0, max_value=15.0),
        on_fraction=st.floats(min_value=0.0, max_value=1.0),
    ),
)

_seeds = st.integers(min_value=0, max_value=2**31)


# -- arrival validation ----------------------------------------------------------------


def test_arrival_validation_errors():
    with pytest.raises(ConfigurationError, match="duration_s"):
        PoissonArrivals(duration_s=0.0, rate_hz=1.0)
    with pytest.raises(ConfigurationError, match="rate_hz"):
        PoissonArrivals(duration_s=1.0, rate_hz=-1.0)
    with pytest.raises(ConfigurationError, match="alpha"):
        OnOffArrivals(duration_s=1.0, alpha=2.5)
    with pytest.raises(ConfigurationError, match="on_fraction"):
        DutyCycleArrivals(duration_s=1.0, on_fraction=1.5)
    with pytest.raises(ConfigurationError, match="amplitude"):
        DiurnalArrivals(duration_s=1.0, rate_hz=1.0, amplitude=2.0)
    a = PoissonArrivals(duration_s=1.0, rate_hz=1.0)
    with pytest.raises(ConfigurationError, match="at least one child"):
        OverlayArrivals(children=())
    with pytest.raises(ConfigurationError, match="flattened"):
        OverlayArrivals(children=(a.overlay(a), a))
    with pytest.raises(ConfigurationError, match="arrival process"):
        OverlayArrivals(children=(a, "nope"))


# -- overlay (exact structural equality) -----------------------------------------------


@given(a=_leaves, b=_leaves, c=_leaves)
@settings(max_examples=40, deadline=None)
def test_overlay_flattens(a, b, c):
    assert a.overlay(b).overlay(c) == OverlayArrivals(children=(a, b, c))
    assert a.overlay(b.overlay(c)) == OverlayArrivals(children=(a, b, c))


# -- sampling semantics ----------------------------------------------------------------


@given(a=_leaves, seed=_seeds)
@settings(max_examples=40, deadline=None)
def test_sample_is_deterministic_nonnegative_and_readonly(a, seed):
    one = a.sample_load(1.0, seed)
    two = a.sample_load(1.0, seed)
    assert np.array_equal(one, two)
    assert (one >= 0.0).all()
    assert len(one) == max(1, round(a.duration_s / 1.0))
    assert not one.flags.writeable


@given(a=_leaves, b=_leaves, seed=_seeds)
@settings(max_examples=40, deadline=None)
def test_overlay_sample_is_padded_sum_of_child_paths(a, b, seed):
    combined = a.overlay(b).sample_load(1.0, seed)
    left = a.sample_load(1.0, seed, key=(0,))
    right = b.sample_load(1.0, seed, key=(1,))
    total = np.zeros(max(len(left), len(right)))
    total[: len(left)] += left
    total[: len(right)] += right
    assert np.array_equal(combined, total)


def test_duty_cycle_is_deterministic_and_exact():
    duty = DutyCycleArrivals(
        duration_s=20.0, period_s=10.0, on_fraction=0.5, load=2.0
    )
    loads = duty.sample_load(1.0, 123)
    expected = np.array([2.0] * 5 + [0.0] * 5 + [2.0] * 5 + [0.0] * 5)
    assert np.array_equal(loads, expected)
    # Partial-slot overlap: 2.5 s ON inside 2 s slots.
    partial = DutyCycleArrivals(
        duration_s=4.0, period_s=4.0, on_fraction=0.625, load=1.0
    ).sample_load(2.0, 0)
    assert np.allclose(partial, [1.0, 0.25])


def test_distinct_keys_give_independent_draws():
    a = PoissonArrivals(duration_s=50.0, rate_hz=5.0)
    assert not np.array_equal(
        a.sample_load(1.0, 9, key=(0,)), a.sample_load(1.0, 9, key=(1,))
    )


# -- profiles and the generator --------------------------------------------------------


def test_fleet_profile_registry_and_validation():
    assert fleet_profile_names() == ["consumer", "datacenter", "graphics"]
    assert fleet_profile("fleet-datacenter") == fleet_profile("datacenter")
    assert fleet_profile("datacenter", slot_s=2.0).slot_s == 2.0
    with pytest.raises(ConfigurationError, match="known profiles"):
        fleet_profile("nope")
    with pytest.raises(ConfigurationError, match="max_cores"):
        fleet_profile("datacenter", max_cores=0)
    with pytest.raises(ConfigurationError, match="FleetProfile"):
        ScenarioGenerator("datacenter")
    generator = ScenarioGenerator(fleet_profile("datacenter"))
    with pytest.raises(ConfigurationError, match="seed"):
        generator.compile(seed=-1)
    with pytest.raises(ConfigurationError, match="member"):
        generator.compile(member=True)
    with pytest.raises(ConfigurationError, match="count"):
        generator.ensemble(count=0)


def test_quantize_mapping():
    profile = fleet_profile("datacenter", max_cores=4, base_activity=0.8)
    assert profile.quantize(0.0) == (0, 0.0)
    assert profile.quantize(0.04) == (0, 0.0)  # below idle threshold
    cores, activity = profile.quantize(1.0)
    assert cores == 1 and activity == pytest.approx(0.8)
    cores, activity = profile.quantize(2.5)
    assert cores == 3
    cores, _ = profile.quantize(9.0)
    assert cores == 4  # capped at max_cores


def test_scenario_builders_match_library_compilation():
    assert set(scenario_names()) >= {
        "fleet-consumer", "fleet-datacenter", "fleet-graphics",
    }
    built = build_scenario("fleet-graphics", seed=5, member=2)
    library = ScenarioGenerator(fleet_profile("graphics")).compile(
        seed=5, member=2
    )
    assert built == library
    assert built.name == "fleet-graphics#s5m2"
    # Builder overrides replace profile fields before compilation.
    coarse = build_scenario("fleet-graphics", seed=5, slot_s=10.0)
    assert coarse != build_scenario("fleet-graphics", seed=5)


@given(
    seed=_seeds,
    small=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_ensemble_prefix_stability(seed, small, extra):
    generator = ScenarioGenerator(fleet_profile("consumer"))
    short = generator.ensemble(seed=seed, count=small)
    long = generator.ensemble(seed=seed, count=small + extra)
    assert long[:small] == short


def test_compile_is_bit_identical_across_processes():
    scenario = ScenarioGenerator(fleet_profile("datacenter")).compile(
        seed=42, member=3
    )
    local = hashlib.sha256(
        json.dumps(canonical_payload(scenario), sort_keys=True).encode()
    ).hexdigest()
    script = (
        "import hashlib, json\n"
        "from repro.fleet import ScenarioGenerator, fleet_profile\n"
        "from repro.store.hashing import canonical_payload\n"
        "s = ScenarioGenerator(fleet_profile('datacenter'))"
        ".compile(seed=42, member=3)\n"
        "print(hashlib.sha256(json.dumps(canonical_payload(s),"
        " sort_keys=True).encode()).hexdigest())\n"
    )
    remote = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert remote == local


def test_compiled_scenarios_are_valid_and_cover_the_horizon():
    for name in fleet_profile_names():
        profile = fleet_profile(name)
        scenario = ScenarioGenerator(profile).compile(seed=1)
        assert scenario.duration_s == pytest.approx(
            max(1, round(profile.arrivals.duration_s / profile.slot_s))
            * profile.slot_s
        )
        assert all(phase.duration_s > 0 for phase in scenario.phases)
        active = [p for p in scenario.phases if not p.is_idle]
        assert active, f"profile {name} compiled to an all-idle timeline"
        assert all(p.active_cores <= profile.max_cores for p in active)


# -- QoS reports -----------------------------------------------------------------------


def _result(frequencies, limits, name="unit"):
    n = len(frequencies)
    cstate_codes, cstate_names = encode_cstates(
        ["C0" if f > 0 else "C8" for f in frequencies]
    )
    frequency_codes, frequency_levels_hz = encode_frequencies(frequencies)
    return DynamicRunResult(
        scenario_name=name,
        time_step_s=0.1,
        pl1_w=35.0,
        pl2_w=44.0,
        frequency_codes=frequency_codes,
        frequency_levels_hz=frequency_levels_hz,
        package_powers_w=[10.0] * n,
        temperatures_c=[50.0] * n,
        average_powers_w=[10.0] * n,
        limiting_codes=encode_limiting_factors(limits),
        cstate_codes=cstate_codes,
        cstate_names=cstate_names,
    )


def _schema2_payload(result):
    """*result* in the per-step tuple layout repro wrote before schema 3."""
    payload = result.to_dict()
    for key in (
        "frequency_codes",
        "frequency_levels_hz",
        "limiting_codes",
        "cstate_codes",
        "cstate_names",
    ):
        del payload[key]
    payload.update(
        schema_version=2,
        frequencies_hz=result.frequencies_hz.tolist(),
        times_s=result.times_s.tolist(),
        limiting_factors=result.limiting_factors.tolist(),
        package_cstates=result.package_cstates.tolist(),
    )
    return payload


def test_qos_report_exact_metrics():
    result = _result(
        [0.0, 2.5e9, 1.5e9, 3.0e9, 1.0e9],
        ["none", "tdp", "thermal", "vmax", "tdp"],
    )
    report = QosReport.from_result(result, slo_frequency_hz=2.0e9)
    assert report.active_steps == 4
    assert report.violation_rate == pytest.approx(0.5)
    assert report.throttle_residency == {
        "tdp": pytest.approx(0.5), "thermal": pytest.approx(0.25),
    }
    assert report.throttled_fraction == pytest.approx(0.75)
    # p99 of 4 samples is the max latency proxy: slo / min frequency.
    assert report.p99_latency_proxy == pytest.approx(2.0e9 / 1.0e9)
    assert report.mean_frequency_hz == pytest.approx(2.0e9)
    assert not report.meets_slo


def test_qos_empty_run_reports_zeros():
    idle = _result([0.0, 0.0], ["none", "none"], name="idle")
    report = QosReport.from_result(idle, slo_frequency_hz=2.0e9)
    assert report.name == "idle"
    assert report.active_steps == 0
    assert report.violation_rate == 0.0
    assert report.p99_latency_proxy == 0.0
    assert report.meets_slo


def test_qos_json_round_trips_and_schema_guard():
    result = _result([2.5e9, 1.5e9], ["tdp", "thermal"])
    report = QosReport.from_result(result)
    payload = report.to_dict()
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    assert QosReport.from_dict(json.loads(json.dumps(payload))) == report
    ensemble = aggregate_reports([report, report], name="pair")
    restored = EnsembleQos.from_dict(json.loads(json.dumps(ensemble.to_dict())))
    assert restored == ensemble
    newer = dict(payload, schema_version=RESULT_SCHEMA_VERSION + 1)
    with pytest.raises(ConfigurationError, match="newer"):
        QosReport.from_dict(newer)


def test_aggregate_reports_pools_by_active_steps():
    a = QosReport.from_result(_result([1.0e9] * 3, ["tdp"] * 3, name="a"))
    b = QosReport.from_result(_result([3.0e9], ["vmax"], name="b"))
    pooled = aggregate_reports([a, b], name="pool")
    assert pooled.members == 2
    assert pooled.active_steps == 4
    assert pooled.violation_rate == pytest.approx(0.75)
    assert pooled.worst_violation_rate == pytest.approx(1.0)
    assert pooled.throttle_residency["tdp"] == pytest.approx(0.75)
    assert pooled.p99_latency_proxy == pytest.approx(2.0)
    with pytest.raises(ConfigurationError, match="different SLOs"):
        aggregate_reports(
            [a, QosReport.from_result(_result([0.0], ["none"]), 1.0e9)]
        )
    with pytest.raises(ConfigurationError, match="at least one"):
        aggregate_reports([])


# -- DynamicRunResult summary promotion ------------------------------------------------


def test_dynamic_result_summary_is_first_class_and_round_trips():
    result = _result([2.5e9, 1.5e9, 0.0], ["tdp", "thermal", "none"])
    assert set(result.throttle_residency()) == set(THROTTLE_FACTORS)
    assert result.throttle_residency()["tdp"] == pytest.approx(0.5)
    assert result.throttled_fraction == pytest.approx(1.0)
    payload = result.to_dict()
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    assert payload["summary"]["throttle_residency"]["thermal"] == (
        pytest.approx(0.5)
    )
    assert payload["summary"]["sustained_frequency_hz"] == pytest.approx(
        result.sustained_frequency_hz
    )
    assert RunResult.from_dict(json.loads(json.dumps(payload))) == result


def test_dynamic_result_accepts_version1_payload_without_summary():
    result = _result([2.5e9], ["tdp"])
    payload = _schema2_payload(result)
    del payload["summary"]
    payload["schema_version"] = 1
    assert RunResult.from_dict(payload) == result


def test_dynamic_result_upgrades_schema2_payloads():
    result = _result([0.0, 2.5e9, 1.5e9, 0.0], ["none", "tdp", "thermal", "none"])
    payload = json.loads(json.dumps(_schema2_payload(result)))
    assert RunResult.from_dict(payload) == result
    # times_s is derived now, so a stored grid that disagrees is rejected.
    payload["times_s"][2] = 0.3
    with pytest.raises(ConfigurationError, match="times_s disagrees"):
        RunResult.from_dict(payload)
    with pytest.raises(ConfigurationError, match="unknown limiting factor"):
        RunResult.from_dict(
            {**_schema2_payload(result), "limiting_factors": ["warp"] * 4}
        )


# -- FleetStudy / Study.over_fleet -----------------------------------------------------


def _tiny_profile(name="tiny"):
    arrivals = DutyCycleArrivals(
        duration_s=12.0, period_s=6.0, on_fraction=0.5, load=3.0
    ).overlay(PoissonArrivals(duration_s=12.0, rate_hz=1.0))
    return FleetProfile(name=name, arrivals=arrivals, slot_s=3.0)


def test_over_fleet_runs_and_round_trips(tmp_path):
    cache = StoreCache(tmp_path / "store")
    study = Study.over_fleet(
        ("darkgates", "baseline"),
        (_tiny_profile(),),
        ensemble=3,
        tdp_levels_w=(35.0,),
        cache=cache,
        seed=5,
    )
    result = study.run()
    assert study.tasks_total == 6
    assert study.tasks_executed == 6
    assert result.ensemble == 3
    qos = result.qos("darkgates", "tiny")
    assert qos.members == 3
    assert result.qos(get_spec("darkgates", tdp_w=35.0), "tiny") == qos
    assert result.profiles() == ("tiny",)
    assert FleetStudyResult.from_json(result.to_json()) == result
    table = result.as_table()
    assert "slo_violation" in table and "darkgates@35W" in table

    # Warm re-run from the same store executes zero simulator tasks.
    warm = Study.over_fleet(
        ("darkgates", "baseline"),
        (_tiny_profile(),),
        ensemble=3,
        tdp_levels_w=(35.0,),
        cache=StoreCache(tmp_path / "store"),
        seed=5,
    )
    assert warm.run() == result
    assert warm.tasks_executed == 0
    assert warm.tasks_total == 6

    # Growing the ensemble only adds members (prefix-stable compilation):
    # the first 3 members are served from the store.
    grown = Study.over_fleet(
        ("darkgates", "baseline"),
        (_tiny_profile(),),
        ensemble=4,
        tdp_levels_w=(35.0,),
        cache=StoreCache(tmp_path / "store"),
        seed=5,
    )
    grown.run()
    assert grown.tasks_total == 8
    assert grown.tasks_executed == 2


def test_over_fleet_matches_serial_reference():
    profile = _tiny_profile()
    batched = Study.over_fleet(
        ("darkgates",), (profile,), ensemble=2, seed=3
    ).run()
    serial = Study.over_fleet(
        ("darkgates",),
        (profile,),
        ensemble=2,
        seed=3,
        executor=PerCellExecutor(),
    ).run()
    assert batched == serial
    # And both agree with judging per-member reference runs directly.
    scenarios = ScenarioGenerator(profile).ensemble(seed=3, count=2)
    simulator = DynamicsSimulator(get_spec("darkgates").build())
    reports = [QosReport.from_result(simulator.run(s)) for s in scenarios]
    expected = aggregate_reports(
        reports, name=f"{get_spec('darkgates').label}/fleet-tiny"
    )
    assert batched.qos("darkgates", "tiny") == expected


def test_fleet_study_validation():
    with pytest.raises(ConfigurationError, match="at least one spec"):
        FleetStudy((), (_tiny_profile(),))
    with pytest.raises(ConfigurationError, match="at least one profile"):
        FleetStudy(("darkgates",), ())
    with pytest.raises(ConfigurationError, match="ensemble"):
        FleetStudy(("darkgates",), (_tiny_profile(),), ensemble=0)
    with pytest.raises(ConfigurationError, match="distinct names"):
        FleetStudy(("darkgates",), (_tiny_profile(), _tiny_profile()))
    with pytest.raises(ConfigurationError, match="unexpected keyword"):
        Study.over_fleet(("darkgates",), ("datacenter",), bogus=1)
    result = FleetStudy(("darkgates",), (_tiny_profile(),), ensemble=1).run()
    with pytest.raises(ConfigurationError, match="no cell"):
        result.qos("darkgates", "missing")
