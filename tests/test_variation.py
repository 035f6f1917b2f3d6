"""Tests for the process-variation substrate: distributions, sampler, binning.

Covers the declarative distribution specs (validation, transforms,
Cholesky correlation), seeded sampling determinism (fixed seed == bitwise
identical draws), the die-variation parameterization hooks (leakage kt
monotonicity, varied candidate tables, C-state power), SKU binning (the
partition property, yields, quantiles) and the datasheet registry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reporting import format_sku_table
from repro.common.errors import ConfigurationError
from repro.core.spec import SKU_BUILDERS, get_spec, spec_names
from repro.pmu.cstates import PackageCState
from repro.pmu.dvfs import CpuDemand, die_voltage_offsets
from repro.soc.skus import SKU_DESCRIPTIONS, describe_sku, sku_descriptions
from repro.variation.binning import (
    BinningPolicy,
    DieMetrics,
    SkuBin,
    die_metrics,
    skylake_binning_policy,
)
from repro.variation.distributions import (
    NOMINAL_PARAMETERS,
    ParameterVariation,
    VariationModel,
    cholesky_factor,
    skylake_process_variation,
)
from repro.variation.sampler import (
    NOMINAL_DIE,
    DiePopulation,
    DiePopulationSampler,
    DieVariation,
)

# -- distributions ---------------------------------------------------------------------


def test_parameter_variation_rejects_unknown_parameter():
    with pytest.raises(ConfigurationError):
        ParameterVariation("frobnication_scale")


def test_parameter_variation_rejects_unknown_distribution():
    with pytest.raises(ConfigurationError):
        ParameterVariation("leakage_scale", distribution="cauchy")


def test_truncated_normal_requires_a_bound():
    with pytest.raises(ConfigurationError):
        ParameterVariation("vf_offset_v", distribution="truncated_normal")


def test_parameter_variation_center_defaults_to_nominal():
    assert ParameterVariation("leakage_scale").center == 1.0
    assert ParameterVariation("vf_offset_v").center == 0.0


def test_transforms_and_clipping():
    z = np.array([-2.0, 0.0, 2.0])
    normal = ParameterVariation("vf_offset_v", "normal", sigma=0.01)
    assert np.allclose(normal.transform(z), [-0.02, 0.0, 0.02])
    lognormal = ParameterVariation("leakage_scale", "lognormal", sigma=0.5)
    assert np.allclose(lognormal.transform(z), np.exp(0.5 * z))
    truncated = ParameterVariation(
        "vf_offset_v", "truncated_normal", sigma=0.1, lower=-0.05, upper=0.05
    )
    assert np.array_equal(truncated.transform(z), [-0.05, 0.0, 0.05])


def test_cholesky_factor_validation():
    with pytest.raises(ConfigurationError):
        cholesky_factor([[1.0, 0.0]])  # not square
    with pytest.raises(ConfigurationError):
        cholesky_factor([[1.0, 0.5], [0.2, 1.0]])  # asymmetric
    with pytest.raises(ConfigurationError):
        cholesky_factor([[2.0, 0.0], [0.0, 1.0]])  # non-unit diagonal
    with pytest.raises(ConfigurationError):
        cholesky_factor([[1.0, 1.0], [1.0, 1.0]])  # singular
    factor = cholesky_factor([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(factor @ factor.T, [[1.0, 0.5], [0.5, 1.0]])


def test_variation_model_rejects_duplicates_and_size_mismatch():
    with pytest.raises(ConfigurationError):
        VariationModel(
            (
                ParameterVariation("leakage_scale"),
                ParameterVariation("leakage_scale"),
            )
        )
    with pytest.raises(ConfigurationError):
        VariationModel(
            (ParameterVariation("leakage_scale"),),
            correlation=((1.0, 0.0), (0.0, 1.0)),
        )


def test_variation_model_round_trips():
    model = skylake_process_variation()
    assert VariationModel.from_dict(model.to_dict()) == model


# -- sampler ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fixed_seed_gives_bitwise_identical_draws(seed):
    sampler = DiePopulationSampler(skylake_process_variation())
    first = sampler.sample(64, seed=seed)
    second = sampler.sample(64, seed=seed)
    for name in NOMINAL_PARAMETERS:
        assert np.array_equal(first.column(name), second.column(name))


def test_unsampled_parameters_sit_at_nominal():
    model = VariationModel((ParameterVariation("leakage_scale", "lognormal", sigma=0.2),))
    population = DiePopulationSampler(model).sample(16, seed=1)
    assert np.array_equal(population.vf_offset_v, np.zeros(16))
    assert np.array_equal(population.thermal_resistance_scale, np.ones(16))


def test_positive_parameters_guarded():
    model = VariationModel(
        (ParameterVariation("leakage_scale", "normal", sigma=5.0),)
    )
    with pytest.raises(ConfigurationError):
        DiePopulationSampler(model).sample(256, seed=0)


def test_default_model_correlates_leakage_against_vf_offset():
    population = DiePopulationSampler(skylake_process_variation()).sample(
        4096, seed=5
    )
    correlation = np.corrcoef(
        np.log(population.leakage_scale), population.vf_offset_v
    )[0, 1]
    assert correlation < -0.3  # leaky dice are fast dice


def test_die_materialisation_and_round_trip():
    population = DiePopulationSampler(skylake_process_variation()).sample(8, seed=2)
    die = population.die(3)
    assert die.leakage_scale == float(population.leakage_scale[3])
    assert DieVariation.from_dict(die.to_dict()) == die
    assert NOMINAL_DIE.is_nominal and not die.is_nominal
    with pytest.raises(ConfigurationError):
        population.die(8)


def test_population_specs_are_distinct_variants():
    base = get_spec("darkgates", tdp_w=45.0)
    population = DiePopulationSampler(skylake_process_variation()).sample(4, seed=0)
    specs = population.specs(base)
    assert len({spec.name for spec in specs}) == 4
    assert all(spec.die_variation == population.die(i) for i, spec in enumerate(specs))
    assert all(spec.tdp_w == base.tdp_w for spec in specs)


def test_population_rejects_ragged_or_unknown_columns():
    with pytest.raises(ConfigurationError):
        DiePopulation({"leakage_scale": np.ones(3), "vf_offset_v": np.zeros(2)})
    with pytest.raises(ConfigurationError):
        DiePopulation({"unknown_knob": np.ones(3)})


def test_sampler_rejects_seed_and_rng_together():
    sampler = DiePopulationSampler(skylake_process_variation())
    with pytest.raises(ConfigurationError):
        sampler.sample(4, seed=1, rng=np.random.default_rng(1))


# -- parameterization hooks ------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    low=st.floats(min_value=-0.003, max_value=0.003),
    delta=st.floats(min_value=1e-5, max_value=0.003),
)
def test_leakage_monotone_in_kt_shift(darkgates_pcode, low, delta):
    """Above the reference temperature, more kt means more leakage."""
    table = darkgates_pcode(91.0).dvfs_policy.candidate_table(CpuDemand(active_cores=4))
    hot_c = 85.0  # above the 60 C reference point
    lower = table.varied(kt_delta_per_c=low).package_power_w(hot_c)
    higher = table.varied(kt_delta_per_c=low + delta).package_power_w(hot_c)
    assert (higher >= lower).all()
    assert higher.sum() > lower.sum()


def test_nominal_variation_table_is_bitwise_nominal(darkgates_pcode):
    demand = CpuDemand(active_cores=2)
    nominal = darkgates_pcode(91.0).dvfs_policy.candidate_table(demand)
    varied = nominal.varied()
    assert np.array_equal(varied.vr_voltages_v, nominal.vr_voltages_v)
    assert np.array_equal(varied.active_dynamic_w, nominal.active_dynamic_w)
    assert np.array_equal(varied.vmax_ok, nominal.vmax_ok)
    for varied_group, nominal_group in zip(
        varied.active_leakage_groups, nominal.active_leakage_groups
    ):
        assert varied_group[:3] == nominal_group[:3]
        assert np.array_equal(varied_group[3], nominal_group[3])


def test_vf_offset_shifts_fmax_and_vmax_feasibility(darkgates_pcode):
    pcode = darkgates_pcode(91.0)
    demand = CpuDemand(active_cores=1)
    nominal = pcode.dvfs_policy.candidate_table(demand)
    slow = nominal.varied(vr_offset_v=0.05, power_offset_v=0.05)
    assert slow.vmax_ok.sum() < nominal.vmax_ok.sum()
    fast = nominal.varied(vr_offset_v=-0.05, power_offset_v=-0.05)
    assert fast.vmax_ok.sum() >= nominal.vmax_ok.sum()
    # The vf_curve-level hook agrees with the table mask within one bin.
    curve = pcode.vf_curve
    for offset, table in ((0.05, slow), (-0.05, fast), (0.0, nominal)):
        hook_fmax = curve.fmax_hz(1, voltage_offset_v=offset)
        mask_fmax = float(table.frequencies_hz[table.vmax_ok.nonzero()[0].max()])
        assert abs(hook_fmax - mask_fmax) <= 100e6 + 1e-6


def test_powergate_resistance_only_costs_gated_parts():
    gated = die_voltage_offsets(0.0, 1.5, 0.001, bypass_mode=False)
    bypassed = die_voltage_offsets(0.0, 1.5, 0.001, bypass_mode=True)
    assert gated[0] > 0.0 and gated[1] == 0.0
    assert bypassed == (0.0, 0.0)


def test_cstate_power_scales_with_leakage(darkgates_pcode, baseline_pcode):
    for pcode in (darkgates_pcode(91.0), baseline_pcode(91.0)):
        model = pcode.cstate_model
        nominal = model.power_w(PackageCState.C7)
        leaky = float(model.varied_power_w(PackageCState.C7, 2.0, 0.0))
        assert leaky > nominal
        # C8 kills the core rail: leakage scale is irrelevant there.
        assert float(model.varied_power_w(PackageCState.C8, 2.0, 0.0)) == (
            pytest.approx(model.power_w(PackageCState.C8))
        )
    # Array knobs broadcast.
    scales = np.array([0.5, 1.0, 2.0])
    powers = np.asarray(
        darkgates_pcode(91.0)
        .cstate_model.varied_power_w(PackageCState.C7, scales, 0.0)
    )
    assert powers.shape == (3,) and (np.diff(powers) > 0).all()


def test_varied_spec_resolves_slower_when_leaky_and_slow():
    spec = get_spec("darkgates", tdp_w=35.0)
    slow_die = DieVariation(leakage_scale=1.6, vf_offset_v=0.04)
    varied = spec.variant(name="slow-die", die_variation=slow_die).build()
    demand = CpuDemand(active_cores=4)
    nominal_point = spec.build().resolve_cpu_operating_point(demand)
    varied_point = varied.resolve_cpu_operating_point(demand)
    assert varied_point.frequency_hz < nominal_point.frequency_hz


@pytest.mark.parametrize("name", spec_names())
def test_nominal_die_resolves_like_the_nominal_system(name):
    """A die at nominal settings reports the nominal system's operating point.

    Both read the table fixed point, and every die-variation transform is
    exact at nominal knobs, so the two points are equal field for field: a
    second resolution path for nominal silicon shows up here.
    """
    for tdp_w in (15.0, 25.0, 35.0, 45.0, 65.0, 91.0, 125.0):
        spec = get_spec(name, tdp_w=tdp_w)
        nominal = spec.build()
        die = spec.variant(die_variation=DieVariation()).build()
        for cores in range(1, nominal.processor.core_count + 1):
            for activity, memory_intensity in ((0.3, 0.0), (0.62, 0.2), (1.0, 0.6)):
                demand = CpuDemand(cores, activity, memory_intensity)
                expected = nominal.resolve_cpu_operating_point(demand)
                point = die.resolve_cpu_operating_point(demand)
                assert point == expected, (tdp_w, demand)


# -- binning ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    fmax=st.lists(
        st.floats(min_value=0.0, max_value=5.5e9), min_size=1, max_size=40
    ),
    data=st.data(),
)
def test_binning_is_a_partition(fmax, data):
    count = len(fmax)
    metrics = DieMetrics(
        fmax_hz=np.array(fmax),
        leakage_w=np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.1, max_value=3.0),
                    min_size=count,
                    max_size=count,
                )
            )
        ),
        vmin_v=np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.4, max_value=0.8),
                    min_size=count,
                    max_size=count,
                )
            )
        ),
    )
    policy = skylake_binning_policy()
    assignments = policy.assign(metrics)
    # Every die lands in exactly one bin or scrap...
    assert assignments.shape == (count,)
    assert np.isin(assignments, (-1, 0, 1)).all()
    # ...and the report's counts cover the population exactly once.
    report = policy.report(metrics, assignments)
    assert sum(report.counts.values()) == count
    assert sum(report.yield_fractions.values()) == pytest.approx(1.0)


def test_default_binning_populates_every_bin(darkgates_pcode):
    population = DiePopulationSampler(skylake_process_variation()).sample(
        2048, seed=7
    )
    metrics = die_metrics(darkgates_pcode(91.0), population)
    report = skylake_binning_policy().report(metrics)
    assert all(report.counts[name] > 0 for name in (*report.bin_names, "scrap"))
    premium = report.metric_quantiles["premium-desktop"]["fmax_hz"]
    mainstream = report.metric_quantiles["mainstream-mobile"]["fmax_hz"]
    assert premium[1] > mainstream[1]  # premium median fmax is higher
    assert report == type(report).from_dict(report.to_dict())


def test_die_metrics_rejects_varied_pcode():
    spec = get_spec("darkgates").variant(
        name="varied", die_variation=DieVariation(leakage_scale=1.2)
    )
    population = DiePopulationSampler(skylake_process_variation()).sample(4, seed=0)
    with pytest.raises(ConfigurationError):
        die_metrics(spec.build(), population)


def test_bin_validation():
    with pytest.raises(ConfigurationError):
        SkuBin(name="scrap")
    with pytest.raises(ConfigurationError):
        SkuBin(name="x", sku="not-a-sku")
    with pytest.raises(ConfigurationError):
        BinningPolicy(bins=())
    with pytest.raises(ConfigurationError):
        BinningPolicy(bins=(SkuBin(name="a"), SkuBin(name="a")))
    policy = skylake_binning_policy()
    assert BinningPolicy.from_dict(policy.to_dict()) == policy


# -- SKU registry ----------------------------------------------------------------------


def test_sku_registry_aligns_with_builders():
    assert set(SKU_DESCRIPTIONS) == set(SKU_BUILDERS)
    assert describe_sku("broadwell").name == "i7-5775C-class"
    with pytest.raises(ConfigurationError):
        describe_sku("alderlake")
    # The legacy Table 2 accessor serves the registry's Skylake rows.
    desktop, mobile = sku_descriptions()
    assert desktop is SKU_DESCRIPTIONS["skylake-s"]
    assert mobile is SKU_DESCRIPTIONS["skylake-h"]


def test_format_sku_table_renders_registry():
    rendered = format_sku_table()
    for description in SKU_DESCRIPTIONS.values():
        assert description.name in rendered
    two_rows = format_sku_table(sku_descriptions(), title="Table 2")
    assert "Table 2" in two_rows and "i7-5775C-class" not in two_rows
