"""Unit tests for the PMU firmware substrate: V/F curves, DVFS, turbo, fuses.

System objects (processors, V/F curves, DVFS policies) come from the shared
factory fixtures in ``conftest.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.spec import get_spec, spec_names
from repro.fleet.profiles import ScenarioGenerator, fleet_profile
from repro.pmu.dvfs import DEMAND_CACHE_SIZE, CpuDemand, DvfsPolicy, LimitingFactor
from repro.pmu.fuses import FuseSet, PowerDeliveryMode, firmware_area_overhead_fraction
from repro.pmu.pcode import Pcode
from repro.pmu.turbo import TurboTable
from repro.variation.sampler import DieVariation

from oracles import dvfs as oracle


# -- fuses -------------------------------------------------------------------------------------


def test_darkgates_desktop_fuses():
    fuses = FuseSet.darkgates_desktop()
    assert fuses.bypass_enabled
    assert fuses.deepest_package_cstate == "C8"


def test_legacy_desktop_fuses():
    fuses = FuseSet.legacy_desktop()
    assert not fuses.bypass_enabled
    assert fuses.deepest_package_cstate == "C7"


def test_mobile_fuses_support_c10():
    assert FuseSet.mobile().deepest_package_cstate == "C10"


def test_fuses_reject_unknown_cstate():
    with pytest.raises(ConfigurationError):
        FuseSet(power_delivery_mode=PowerDeliveryMode.NORMAL, deepest_package_cstate="C42")


def test_firmware_area_overhead_below_paper_claim():
    # Paper Section 5: 0.3 KB of firmware is below 0.004% of the die area.
    assert firmware_area_overhead_fraction(122.0) < 0.00004 * 1.001


# -- V/F curve ------------------------------------------------------------------------------------


def test_vf_required_voltage_above_nominal(vf_curve):
    curve = vf_curve(False)
    point = curve.point(3.5e9, active_cores=1)
    assert point.required_voltage_v > point.nominal_voltage_v
    assert point.guardband_v > 0


def test_vf_guardband_grows_with_active_cores(vf_curve):
    curve = vf_curve(False)
    assert curve.guardband_v(4) > curve.guardband_v(1)


def test_vf_fmax_decreases_with_active_cores(vf_curve):
    curve = vf_curve(False)
    assert curve.fmax_hz(4) <= curve.fmax_hz(1)


def test_vf_bypassed_fmax_higher_than_gated(vf_curve):
    gated = vf_curve(False)
    bypassed = vf_curve(True)
    assert bypassed.fmax_hz(1) > gated.fmax_hz(1)
    assert bypassed.fmax_hz(4) > gated.fmax_hz(4)


def test_vf_gated_single_core_fmax_near_datasheet(vf_curve):
    # The baseline part's Vmax-limited single-core turbo should land near the
    # i7-6700K's 4.2 GHz datasheet value.
    gated = vf_curve(False)
    assert 3.8e9 <= gated.fmax_hz(1) <= 4.4e9


def test_vf_fmax_is_on_grid(vf_curve):
    curve = vf_curve(True)
    assert curve.frequency_grid.contains(curve.fmax_hz(1))


def test_vf_power_voltage_between_nominal_and_required(vf_curve):
    curve = vf_curve(False)
    frequency = 3.0e9
    nominal = curve.point(frequency, 1).nominal_voltage_v
    required = curve.required_voltage_v(frequency, 1)
    power_voltage = curve.power_voltage_v(frequency, 1)
    assert nominal < power_voltage <= required


def test_vf_headroom_sign(vf_curve):
    curve = vf_curve(False)
    assert curve.headroom_v(1.0e9, 1) > 0
    assert curve.headroom_v(5.0e9, 4) < 0


def test_vf_curve_points_cover_grid(vf_curve):
    curve = vf_curve(True)
    points = curve.curve_points(1)
    assert len(points) == len(curve.frequency_grid)


def test_vf_fmax_collapses_when_guardband_exceeds_vmax(vf_curve):
    curve = vf_curve(False)
    assert curve.fmax_hz(1, vmax_v=0.1) == pytest.approx(curve.frequency_grid.min_hz)


# -- DVFS -----------------------------------------------------------------------------------------


def test_dvfs_demand_validation():
    with pytest.raises(ConfigurationError):
        CpuDemand(active_cores=0)
    with pytest.raises(ConfigurationError):
        CpuDemand(active_cores=1, activity=1.5)


def test_dvfs_rejects_more_cores_than_processor(dvfs_policy):
    with pytest.raises(ConfigurationError):
        dvfs_policy(91.0, False).resolve(CpuDemand(active_cores=8))


def test_dvfs_single_core_at_high_tdp_is_vmax_or_grid_limited(dvfs_policy):
    point = dvfs_policy(91.0, False).resolve(CpuDemand(active_cores=1, activity=0.65))
    assert point.limiting_factor in (LimitingFactor.VMAX, LimitingFactor.FREQUENCY_GRID)
    assert point.package_power_w < 91.0


def test_dvfs_all_cores_at_low_tdp_is_tdp_limited(dvfs_policy):
    point = dvfs_policy(35.0, False).resolve(CpuDemand(active_cores=4, activity=0.65))
    assert point.limiting_factor is LimitingFactor.TDP
    assert point.package_power_w <= 35.0 + 1e-6


def test_dvfs_frequency_monotonic_in_tdp(dvfs_policy):
    frequencies = [
        dvfs_policy(tdp, False)
        .resolve(CpuDemand(active_cores=4, activity=0.65))
        .frequency_hz
        for tdp in (35.0, 65.0, 91.0)
    ]
    assert frequencies == sorted(frequencies)


def test_dvfs_lighter_workload_runs_at_least_as_fast(dvfs_policy):
    policy = dvfs_policy(45.0, False)
    heavy = policy.resolve(CpuDemand(active_cores=4, activity=0.8))
    light = policy.resolve(CpuDemand(active_cores=4, activity=0.45))
    assert light.frequency_hz >= heavy.frequency_hz


def test_dvfs_reported_voltage_respects_vmax(dvfs_policy, vf_curve):
    point = dvfs_policy(91.0, False).resolve(CpuDemand(active_cores=1, activity=0.65))
    assert point.voltage_v <= vf_curve(False).vmax_v + 1e-9


def test_dvfs_power_breakdown_sums_to_package_power(dvfs_policy):
    point = dvfs_policy(65.0, True).resolve(CpuDemand(active_cores=2, activity=0.6))
    reconstructed = (
        point.cores_power_w + point.idle_cores_power_w + point.uncore_power_w
    )
    assert point.package_power_w == pytest.approx(reconstructed + 0.05, abs=0.01)


def test_dvfs_bypass_mode_has_idle_core_power(dvfs_policy):
    point = dvfs_policy(91.0, True).resolve(CpuDemand(active_cores=1, activity=0.65))
    assert point.idle_cores_power_w > 0.1
    gated_point = dvfs_policy(91.0, False).resolve(
        CpuDemand(active_cores=1, activity=0.65)
    )
    assert gated_point.idle_cores_power_w < 0.1


def test_dvfs_package_power_helper_matches_resolution(baseline_pcode):
    pcode = baseline_pcode(45.0)
    demand = CpuDemand(active_cores=4, activity=0.65)
    point = pcode.resolve_cpu_operating_point(demand)
    assert oracle.package_power_w(
        pcode, point.frequency_hz, demand
    ) == pytest.approx(point.package_power_w, rel=1e-6)


@pytest.mark.parametrize("name", ["darkgates", "baseline"])
def test_all_core_resolve_reports_idle_power_as_float(name):
    """With no idle core the idle power is the float 0.0, never an int."""
    pcode = _registered_pcode(name, 35.0)
    demand = CpuDemand(active_cores=pcode.processor.core_count)
    point = pcode.resolve_cpu_operating_point(demand)
    assert type(point.idle_cores_power_w) is float
    assert point.idle_cores_power_w == 0.0


def test_dvfs_junction_temperature_below_tjmax(dvfs_policy, mobile_processor):
    point = dvfs_policy(35.0, False).resolve(CpuDemand(active_cores=4, activity=0.8))
    assert point.junction_temperature_c <= mobile_processor(35.0).tjmax_c + 1e-6


# -- candidate tables (closed-loop resolution) ----------------------------------------------------


def test_candidate_table_matches_static_power_arithmetic(dvfs_policy):
    policy = dvfs_policy(45.0, False)
    demand = CpuDemand(active_cores=4, activity=0.65)
    point = policy.resolve(demand)
    at_static = oracle.resolve_at(
        policy,
        demand,
        temperature_c=point.junction_temperature_c,
        power_limit_w=45.0,
    )
    assert at_static.frequency_hz == pytest.approx(point.frequency_hz, abs=1e-3)
    # The sustained point reports the power of its penultimate thermal
    # iterate, so the pinned-temperature power agrees only to the fixed
    # point's convergence tolerance.
    assert at_static.package_power_w == pytest.approx(point.package_power_w, rel=1e-3)


def test_candidate_table_power_grows_with_temperature(dvfs_policy):
    table = dvfs_policy(45.0, True).candidate_table(CpuDemand(active_cores=2))
    cool = table.package_power_w(50.0)
    hot = table.package_power_w(90.0)
    assert (hot > cool).all()


def test_resolve_at_frequency_monotonic_in_power_limit(dvfs_policy):
    policy = dvfs_policy(35.0, False)
    demand = CpuDemand(active_cores=4, activity=0.65)
    frequencies = [
        oracle.resolve_at(
            policy, demand, temperature_c=60.0, power_limit_w=limit
        ).frequency_hz
        for limit in (15.0, 25.0, 35.0, 60.0)
    ]
    assert frequencies == sorted(frequencies)


def test_resolve_at_rejects_oversized_demand(dvfs_policy):
    with pytest.raises(ConfigurationError):
        dvfs_policy(91.0, False).candidate_table(CpuDemand(active_cores=8))


def test_policy_caches_stay_bounded_and_evicted_demands_resolve_the_same():
    """2,000 distinct demands keep at most DEMAND_CACHE_SIZE entries per cache.

    Every answer equals a fresh policy's, and the earliest demands, long
    evicted, rebuild to the answers they first gave.
    """
    spec = get_spec("darkgates", tdp_w=35.0)
    policy = spec.build().dvfs_policy
    demands = [
        CpuDemand(active_cores=1 + i % 4, activity=0.1 + 0.8 * i / 2000)
        for i in range(2000)
    ]
    assert len(set(demands)) == len(demands)
    answers = [(policy.resolve(d), policy.sustained_bin(d)) for d in demands]
    assert len(policy._candidate_tables) <= DEMAND_CACHE_SIZE
    assert len(policy._sustained_bins) <= DEMAND_CACHE_SIZE
    fresh = spec.build().dvfs_policy
    for demand, (point, sustained) in zip(demands, answers):
        assert fresh.resolve(demand) == point
        assert fresh.sustained_bin(demand) == sustained
    for demand, (point, sustained) in zip(demands[:8], answers):
        assert policy.resolve(demand) == point
        assert policy.sustained_bin(demand) == sustained


def _assert_same_table(table, expected):
    """Every array bit-identical (dtype, shape, bytes), every scalar equal."""

    def same(a, b):
        assert np.array_equal(a, b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    for name in (
        "frequencies_hz",
        "vr_voltages_v",
        "power_voltages_v",
        "active_dynamic_w",
        "vmax_ok",
        "iccmax_ok",
    ):
        same(getattr(table, name), getattr(expected, name))
    for name in ("uncore_power_w", "graphics_idle_power_w", "vmax_v"):
        assert getattr(table, name) == getattr(expected, name), name
    for groups, expected_groups in (
        (table.active_leakage_groups, expected.active_leakage_groups),
        (table.idle_leakage_groups, expected.idle_leakage_groups),
    ):
        assert len(groups) == len(expected_groups)
        for group, expected_group in zip(groups, expected_groups):
            assert group[:3] == expected_group[:3]  # the (kt, T_ref, kv) law
            same(group[3], expected_group[3])


@pytest.mark.parametrize("tdp_w", [35.0, 91.0])
@pytest.mark.parametrize("name", ["darkgates", "baseline"])
def test_candidate_table_equals_the_scalar_build(name, tdp_w):
    """The per-core-count arrays plus the per-demand row are bit-exact.

    Every core count, activity and memory intensity of a grid, on a nominal
    die and on one varied die (leakage, kt, V/F and power-gate knobs all
    moved), must equal the bin-by-bin scalar build of the oracle.
    """
    die = DieVariation(
        leakage_scale=1.13,
        leakage_kt_delta_per_c=0.001,
        vf_offset_v=0.012,
        powergate_resistance_scale=1.3,
    )
    spec = get_spec(name, tdp_w=tdp_w)
    for system in (spec, spec.variant(name="varied", die_variation=die)):
        policy = system.build().dvfs_policy
        for cores in range(1, policy._processor.core_count + 1):
            for activity in (0.0, 0.37, 0.62, 1.0):
                for memory_intensity in (0.0, 0.2, 1.0):
                    demand = CpuDemand(cores, activity, memory_intensity)
                    _assert_same_table(
                        policy.candidate_table(demand),
                        oracle.scalar_candidate_table(policy, demand),
                    )


def test_core_count_part_is_built_once_per_count_and_shared_read_only(monkeypatch):
    """The fleet workload's demands build one shared part per core count.

    Its 3 profiles x 8 members hold 17 distinct demands over 4 core
    counts; the part store never exceeds the core count, and its arrays
    refuse writes.
    """
    builds = []
    build = DvfsPolicy._core_count_table

    def counted(policy, active_cores):
        if active_cores not in policy._core_count_tables:
            builds.append(active_cores)
        return build(policy, active_cores)

    monkeypatch.setattr(DvfsPolicy, "_core_count_table", counted)
    demands = {
        phase.demand()
        for name in ("datacenter", "consumer", "graphics")
        for scenario in ScenarioGenerator(fleet_profile(name)).ensemble(0, 8)
        for phase in scenario.phases
        if not phase.is_idle
    }
    counts = {demand.active_cores for demand in demands}
    assert len(demands) > 2 * len(counts)
    policy = get_spec("darkgates", tdp_w=35.0).build().dvfs_policy
    tables = [policy.candidate_table(demand) for demand in demands]
    assert sorted(builds) == sorted(counts)
    assert len(policy._core_count_tables) <= policy._processor.core_count
    by_count = {}
    for demand, table in zip(demands, tables):
        first = by_count.setdefault(demand.active_cores, table)
        assert table.frequencies_hz is first.frequencies_hz
        assert table.idle_leakage_groups is first.idle_leakage_groups
    table = tables[0]
    for array in (table.frequencies_hz, table.vr_voltages_v, table.iccmax_ok):
        with pytest.raises(ValueError):
            array[0] = array[1]
    with pytest.raises(ValueError):
        table.active_leakage_groups[0][3][0] = 0.0


@lru_cache(maxsize=None)
def _registered_pcode(name: str, tdp_w: float) -> Pcode:
    return get_spec(name, tdp_w=tdp_w).build()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(spec_names()),
    tdp_w=st.sampled_from((10.0, 15.0, 25.0, 35.0, 45.0, 65.0, 91.0, 125.0, 200.0)),
    activity=st.floats(min_value=0.0, max_value=1.0),
    memory_intensity=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_static_walk_and_table_fixed_point_pick_the_same_bin(
    name, tdp_w, activity, memory_intensity, data
):
    """The per-bin grid walk lands on ``resolve``'s table fixed point.

    ``resolve`` reads the fixed point the policy stores per demand, the
    one the dynamics engine latches; the walk evaluates each bin's fixed
    point on its own from the scalar models.  They must pick the same bin
    and limit, and agree on powers and temperature to rounding.
    """
    pcode = _registered_pcode(name, tdp_w)
    cores = data.draw(st.integers(min_value=1, max_value=pcode.processor.core_count))
    demand = CpuDemand(cores, activity, memory_intensity)
    walked = oracle.static_walk(pcode, demand)
    point = pcode.dvfs_policy.resolve(demand)
    assert walked.frequency_hz == point.frequency_hz
    assert walked.voltage_v == point.voltage_v
    assert walked.limiting_factor is point.limiting_factor
    for field in (
        "package_power_w",
        "cores_power_w",
        "idle_cores_power_w",
        "uncore_power_w",
        "junction_temperature_c",
    ):
        assert getattr(walked, field) == pytest.approx(
            getattr(point, field), rel=1e-14, abs=0.0
        ), field


# -- turbo table ------------------------------------------------------------------------------------


def test_turbo_table_from_vf_curve_monotonic(vf_curve):
    table = TurboTable.from_vf_curve(vf_curve(False), core_count=4)
    rows = table.rows()
    frequencies = [f for _, f in rows]
    assert frequencies == sorted(frequencies, reverse=True)
    assert table.single_core_turbo_hz() >= table.all_core_turbo_hz()


def test_turbo_table_lookup_beyond_core_count_uses_last_entry():
    table = TurboTable({1: 4.2e9, 2: 4.0e9, 4: 3.8e9})
    assert table.max_frequency_hz(3) == pytest.approx(3.8e9)
    assert table.max_frequency_hz(6) == pytest.approx(3.8e9)


def test_turbo_table_rejects_increasing_frequency():
    with pytest.raises(ConfigurationError):
        TurboTable({1: 3.0e9, 2: 3.5e9})


def test_turbo_table_rejects_empty():
    with pytest.raises(ConfigurationError):
        TurboTable({})


def test_turbo_table_rejects_bad_lookup():
    table = TurboTable({1: 4.0e9})
    with pytest.raises(ConfigurationError):
        table.max_frequency_hz(0)
