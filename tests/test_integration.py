"""Integration tests: the paper's headline claims, end to end.

These tests run the full stack (PDN -> guardband -> firmware -> workloads ->
comparison) and check the qualitative results of the evaluation section.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_fig4_impedance_profiles,
    run_fig7_spec_per_benchmark,
    run_fig8_spec_tdp_sweep,
    run_fig9_graphics_degradation,
    run_fig10_energy_efficiency,
)
from repro.soc.skus import SKYLAKE_TDP_LEVELS_W


def test_headline_claim_impedance_roughly_halves():
    """Observation 2: power-gates double the PDN impedance."""
    result = run_fig4_impedance_profiles(points_per_decade=20)
    assert 1.5 <= result.mean_impedance_ratio <= 3.0
    assert result.gated.peak_magnitude_ohm() > result.bypassed.peak_magnitude_ohm()


def test_headline_claim_spec_improves_at_every_tdp():
    """Fig. 8: DarkGates improves SPEC base and rate at every TDP level."""
    result = run_fig8_spec_tdp_sweep()
    assert result.tdp_levels_w == SKYLAKE_TDP_LEVELS_W
    for base, rate in zip(result.base_improvements, result.rate_improvements):
        assert base > 0.0
        assert rate > 0.0
        assert base < 0.12
        assert rate < 0.12


def test_headline_claim_91w_average_near_paper():
    """Fig. 7/8: ~4.6% average SPEC base improvement at 91 W."""
    average = run_fig7_spec_per_benchmark(91.0).average_improvement
    assert 0.025 <= average <= 0.08


def test_headline_claim_graphics_only_hurt_when_thermally_limited():
    """Fig. 9: 3DMark unaffected at >= 45 W, small loss at 35 W."""
    result = run_fig9_graphics_degradation()
    degradation = dict(zip(result.tdp_levels_w, result.average_degradation))
    assert degradation[35.0] > 0.0
    assert degradation[35.0] <= 0.06
    assert degradation[65.0] == pytest.approx(0.0, abs=1e-6)
    assert degradation[91.0] == pytest.approx(0.0, abs=1e-6)
    assert degradation[35.0] >= degradation[45.0]


def test_headline_claim_energy_limits_need_c8():
    """Fig. 10: DarkGates+C7 misses the energy limits, DarkGates+C8 meets them."""
    result = run_fig10_energy_efficiency()
    for scenario in ("ENERGY STAR", "RMT"):
        darkgates_c7_ok, darkgates_c8_ok, baseline_ok = result.limit_compliance[scenario]
        assert not darkgates_c7_ok
        assert darkgates_c8_ok
        assert baseline_ok


def test_headline_claim_rmt_reduction_larger_than_energy_star():
    """Fig. 10: the RMT reductions are much larger than the ENERGY STAR ones."""
    result = run_fig10_energy_efficiency()
    assert result.reductions["RMT"][0] > result.reductions["ENERGY STAR"][0]
    assert result.reductions["RMT"][1] > result.reductions["ENERGY STAR"][1]


def test_rate_mode_uses_all_cores_and_still_benefits():
    """Fig. 8: SPEC rate (all four cores busy) still gains at 91 W."""
    result = run_fig8_spec_tdp_sweep(tdp_levels_w=(91.0,))
    assert result.rate_improvements[0] > 0.0


def test_comparisons_are_deterministic():
    assert run_fig7_spec_per_benchmark(65.0) == run_fig7_spec_per_benchmark(65.0)
