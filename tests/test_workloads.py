"""Unit tests for workload descriptors and the SPEC / 3DMark / energy suites."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.workloads.descriptors import (
    CpuWorkload,
    EnergyScenario,
    GraphicsWorkload,
    ResidencyPhase,
)
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import (
    average_scalability,
    spec_benchmark,
    spec_benchmark_names,
    spec_cpu2006_base_suite,
    spec_cpu2006_rate_suite,
    spec_cpu2006_suite,
)


# -- CPU workload descriptor -----------------------------------------------------------------


def test_cpu_workload_performance_model_improves_with_frequency():
    workload = CpuWorkload(
        name="x", active_cores=1, activity=0.6, memory_intensity=0.2, frequency_scalability=0.8
    )
    assert workload.relative_performance(4e9) > workload.relative_performance(3e9)


def test_cpu_workload_scalability_bounds_speedup():
    scalable = CpuWorkload(
        name="s", active_cores=1, activity=0.7, memory_intensity=0.0, frequency_scalability=1.0
    )
    flat = CpuWorkload(
        name="f", active_cores=1, activity=0.5, memory_intensity=0.9, frequency_scalability=0.0
    )
    assert scalable.speedup(3.5e9, 4.2e9) == pytest.approx(4.2 / 3.5)
    assert flat.speedup(3.5e9, 4.2e9) == pytest.approx(1.0)


def test_cpu_workload_small_delta_approximation():
    # For small frequency deltas the gain is about scalability * df/f.
    workload = CpuWorkload(
        name="x", active_cores=1, activity=0.6, memory_intensity=0.2,
        frequency_scalability=0.6, reference_frequency_hz=4.0e9,
    )
    gain = workload.speedup(4.0e9, 4.1e9) - 1.0
    assert gain == pytest.approx(0.6 * 0.1 / 4.0, rel=0.1)


def test_cpu_workload_with_active_cores():
    base = spec_benchmark("416.gamess")
    rate = base.with_active_cores(4)
    assert rate.active_cores == 4
    assert rate.frequency_scalability == base.frequency_scalability


def test_cpu_workload_validation():
    with pytest.raises(ConfigurationError):
        CpuWorkload(name="bad", active_cores=0, activity=0.5, memory_intensity=0.5,
                    frequency_scalability=0.5)
    with pytest.raises(ConfigurationError):
        CpuWorkload(name="bad", active_cores=1, activity=0.5, memory_intensity=0.5,
                    frequency_scalability=0.5, category="weird")


# -- SPEC suite ---------------------------------------------------------------------------------


def test_spec_suite_size():
    assert len(spec_benchmark_names()) == 29
    assert len(spec_cpu2006_suite()) == 29


def test_spec_base_and_rate_core_counts():
    assert all(w.active_cores == 1 for w in spec_cpu2006_base_suite())
    assert all(w.active_cores == 4 for w in spec_cpu2006_rate_suite(4))


def test_spec_category_filter():
    fp = spec_cpu2006_suite(category="fp")
    integer = spec_cpu2006_suite(category="int")
    assert len(fp) + len(integer) == 29
    assert all(w.category == "fp" for w in fp)
    assert all(w.category == "int" for w in integer)


def test_spec_compute_bound_benchmarks_highly_scalable():
    # Paper Fig. 7: 416.gamess and 444.namd gain the most.
    assert spec_benchmark("416.gamess").frequency_scalability > 0.9
    assert spec_benchmark("444.namd").frequency_scalability > 0.9


def test_spec_memory_bound_benchmarks_barely_scalable():
    # Paper Fig. 7: 410.bwaves and 433.milc gain almost nothing.
    assert spec_benchmark("410.bwaves").frequency_scalability < 0.15
    assert spec_benchmark("433.milc").frequency_scalability < 0.15
    assert spec_benchmark("429.mcf").frequency_scalability < 0.2


def test_spec_memory_bound_have_high_memory_intensity():
    for name in ("410.bwaves", "433.milc", "462.libquantum"):
        workload = spec_benchmark(name)
        assert workload.memory_intensity > 0.8


def test_spec_unknown_benchmark_raises():
    with pytest.raises(ConfigurationError):
        spec_benchmark("999.unknown")


def test_spec_bad_category_raises():
    with pytest.raises(ConfigurationError):
        spec_cpu2006_suite(category="vector")


def test_spec_average_scalability_in_plausible_range():
    # An average near 0.5-0.65 is what makes ~8% frequency translate into the
    # ~4-5% average SPEC gains of the paper.
    assert 0.45 <= average_scalability() <= 0.70


def test_spec_all_activities_and_intensities_bounded():
    for workload in spec_cpu2006_suite():
        assert 0.0 < workload.activity <= 1.0
        assert 0.0 <= workload.memory_intensity <= 1.0


# -- graphics workloads -----------------------------------------------------------------------------


def test_three_dmark_suite_properties():
    suite = three_dmark_suite()
    assert len(suite) >= 3
    for workload in suite:
        assert workload.graphics_scalability > 0.7
        assert workload.driver_cores == 1
        assert 0.0 < workload.graphics_activity <= 1.0


def test_graphics_workload_fps_scales_with_frequency():
    workload = three_dmark_suite()[0]
    assert workload.relative_fps(1.1e9) > workload.relative_fps(0.8e9)


def test_graphics_workload_validation():
    with pytest.raises(ConfigurationError):
        GraphicsWorkload(name="bad", graphics_activity=2.0)


# -- energy scenarios ---------------------------------------------------------------------------------


def test_rmt_scenario_is_mostly_idle():
    scenario = rmt_scenario()
    idle_fraction = sum(
        p.fraction for p in scenario.phases if p.mode == "package_idle"
    )
    assert idle_fraction > 0.95


def test_energy_star_scenario_uses_standard_weights():
    scenario = energy_star_scenario()
    weights = {p.name: p.fraction for p in scenario.phases}
    assert weights["off"] == pytest.approx(0.25)
    assert weights["sleep"] == pytest.approx(0.35)
    assert weights["long_idle"] == pytest.approx(0.10)
    assert weights["short_idle"] == pytest.approx(0.30)


def test_scenario_fractions_sum_to_one():
    for scenario in (rmt_scenario(), energy_star_scenario()):
        assert sum(p.fraction for p in scenario.phases) == pytest.approx(1.0)


def test_scenario_rejects_bad_fractions():
    with pytest.raises(ConfigurationError):
        EnergyScenario(
            name="broken",
            phases=(
                ResidencyPhase(name="a", fraction=0.5, mode="active"),
                ResidencyPhase(name="b", fraction=0.2, mode="off"),
            ),
            average_power_limit_w=1.0,
        )


def test_residency_phase_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        ResidencyPhase(name="x", fraction=0.5, mode="hibernating")


def test_scenario_phase_names():
    assert "deep_idle" in rmt_scenario().phase_names()
