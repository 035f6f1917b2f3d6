"""Tests for the experiment definitions and the reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_fig3_guardband_motivation,
    run_fig4_impedance_profiles,
    run_fig7_spec_per_benchmark,
    run_fig9_graphics_degradation,
    run_fig10_energy_efficiency,
    run_sec42_reliability_guardband,
    run_table1_package_cstates,
    run_table2_system_parameters,
)
from repro.analysis.reporting import format_percent, format_table
from repro.common.errors import ConfigurationError


# -- reporting -----------------------------------------------------------------------------------


def test_format_table_alignment_and_title():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ConfigurationError):
        format_table(["a", "b"], [[1]])


def test_format_percent():
    assert format_percent(0.046) == "4.6%"
    assert format_percent(0.0203, decimals=2) == "2.03%"


# -- experiment smoke checks (full assertions live in benchmarks/) --------------------------------------


def test_fig4_result_structure():
    result = run_fig4_impedance_profiles(points_per_decade=15)
    assert result.gated.label == "gated"
    assert result.bypassed.label == "bypassed"
    assert result.mean_impedance_ratio > 1.0
    assert "Fig. 4" in result.as_text()


def test_fig7_result_structure():
    result = run_fig7_spec_per_benchmark()
    assert len(result.per_benchmark_improvement) == 29
    assert result.max_improvement >= result.average_improvement
    assert result.best_benchmark() != result.worst_benchmark()
    assert "AVERAGE" in result.as_text()


def test_fig9_result_lookup():
    result = run_fig9_graphics_degradation(tdp_levels_w=(35.0, 91.0))
    assert result.degradation_at(35.0) >= result.degradation_at(91.0)
    with pytest.raises(ValueError):
        result.degradation_at(50.0)


def test_fig10_result_structure():
    result = run_fig10_energy_efficiency()
    assert set(result.reductions) == {"ENERGY STAR", "RMT"}
    for scenario, (c8_reduction, baseline_reduction) in result.reductions.items():
        assert 0.0 < c8_reduction < 1.0
        assert 0.0 < baseline_reduction < 1.0
        assert result.reference_power_w[scenario] > 0.0
    assert "Fig. 10" in result.as_text()


def test_fig3_result_structure():
    result = run_fig3_guardband_motivation(tdp_levels_w=(35.0, 95.0))
    assert set(result.improvements) == {
        "SPECfp_base",
        "SPECfp_rate",
        "SPECint_base",
        "SPECint_rate",
    }
    for values in result.improvements.values():
        assert len(values) == 2
        assert all(v > 0 for v in values)
    assert "Fig. 3" in result.as_text()


def test_table1_and_table2_experiments():
    table1 = run_table1_package_cstates()
    assert len(table1) == 8
    desktop, mobile = run_table2_system_parameters()
    assert desktop.package != mobile.package


def test_sec42_reliability_experiment():
    result = run_sec42_reliability_guardband()
    assert result.low_tdp_guardband_v > result.high_tdp_guardband_v
