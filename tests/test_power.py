"""Unit tests for the power/thermal substrate."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.power.thermal import ThermalLimits, ThermalModel


# -- dynamic power ---------------------------------------------------------------------------


def test_dynamic_power_formula():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    # P = C * V^2 * f at full activity
    assert model.power_w(1.0, 1e9, 1.0) == pytest.approx(4.0)


def test_dynamic_power_scales_quadratically_with_voltage():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    assert model.power_w(1.2, 1e9) == pytest.approx(model.power_w(0.6, 1e9) * 4.0)


def test_dynamic_power_scales_linearly_with_frequency_and_activity():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    assert model.power_w(1.0, 2e9) == pytest.approx(2 * model.power_w(1.0, 1e9))
    assert model.power_w(1.0, 1e9, 0.5) == pytest.approx(0.5 * model.power_w(1.0, 1e9, 1.0))


def test_dynamic_current_consistency():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    assert model.current_a(1.2, 3e9, 0.7) == pytest.approx(
        model.power_w(1.2, 3e9, 0.7) / 1.2
    )
    assert model.current_a(0.0, 3e9) == 0.0


def test_dynamic_virus_current_is_max_activity():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    assert model.virus_current_a(1.0, 1e9) >= model.current_a(1.0, 1e9, 0.6)


def test_dynamic_scaled():
    model = DynamicPowerModel(cdyn_max_f=4e-9)
    assert model.scaled(2.0).cdyn_max_f == pytest.approx(8e-9)


# -- leakage ----------------------------------------------------------------------------------


def test_leakage_reference_point():
    model = LeakagePowerModel(reference_power_w=0.5, reference_voltage_v=1.0, reference_temperature_c=60.0)
    assert model.power_w(1.0, 60.0) == pytest.approx(0.5)


def test_leakage_increases_with_voltage_and_temperature():
    model = LeakagePowerModel(reference_power_w=0.5)
    assert model.power_w(1.2, 60.0) > model.power_w(1.0, 60.0)
    assert model.power_w(1.0, 90.0) > model.power_w(1.0, 60.0)


def test_leakage_zero_at_zero_voltage():
    model = LeakagePowerModel(reference_power_w=0.5)
    assert model.power_w(0.0, 90.0) == 0.0
    assert model.current_a(0.0, 90.0) == 0.0


def test_leakage_gated_residual_fraction():
    model = LeakagePowerModel(reference_power_w=0.5)
    full = model.power_w(1.0, 60.0)
    assert model.gated_power_w(1.0, 60.0, residual_fraction=0.02) == pytest.approx(full * 0.02)


def test_leakage_temperature_doubling_scale():
    # With the default 0.017/degC coefficient leakage roughly doubles over ~41 degC.
    model = LeakagePowerModel(reference_power_w=1.0)
    ratio = model.power_w(1.0, 101.0) / model.power_w(1.0, 60.0)
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_leakage_scaled():
    model = LeakagePowerModel(reference_power_w=0.5)
    assert model.scaled(2.0).power_w(1.0, 60.0) == pytest.approx(2 * model.power_w(1.0, 60.0))


# -- thermal -----------------------------------------------------------------------------------


def test_thermal_resistance_designed_for_tdp():
    model = ThermalModel(ThermalLimits(tdp_w=65.0, tjmax_c=100.0, ambient_c=35.0))
    assert model.junction_temperature_c(65.0) == pytest.approx(100.0)


def test_thermal_lower_tdp_means_weaker_cooler():
    low = ThermalModel(ThermalLimits(tdp_w=35.0))
    high = ThermalModel(ThermalLimits(tdp_w=91.0))
    assert low.thermal_resistance_c_per_w > high.thermal_resistance_c_per_w


def test_thermal_safety_check():
    model = ThermalModel(ThermalLimits(tdp_w=65.0))
    assert model.is_thermally_safe(64.9)
    assert not model.is_thermally_safe(66.0)


def test_thermal_headroom():
    model = ThermalModel(ThermalLimits(tdp_w=65.0))
    assert model.headroom_w(60.0) == pytest.approx(5.0)
    assert model.headroom_w(70.0) == pytest.approx(-5.0)


def test_thermal_temperature_rise_for_extra_power():
    model = ThermalModel(ThermalLimits(tdp_w=91.0, tjmax_c=100.0, ambient_c=35.0))
    # ~0.71 degC/W cooler: ~5 degC for ~7 W of extra leakage.
    assert model.temperature_rise_c(7.0) == pytest.approx(5.0, rel=0.05)


def test_thermal_rejects_ambient_above_tjmax():
    with pytest.raises(ConfigurationError):
        ThermalLimits(tdp_w=65.0, tjmax_c=100.0, ambient_c=120.0)


def test_thermal_rejects_negative_power():
    model = ThermalModel(ThermalLimits(tdp_w=65.0))
    with pytest.raises(ConfigurationError):
        model.junction_temperature_c(-1.0)
