"""Unit tests for the load-line model, virus levels, and the guardband model."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, ConstraintViolation
from repro.core.spec import get_spec
from repro.pdn.ac import ACAnalysis
from repro.pdn.guardband import GuardbandModel, OffsetGuardbandModel
from repro.pdn.ladder import PdnConfiguration
from repro.pdn.loadline import (
    LoadLine,
    PowerVirusLevel,
    VirusLevelTable,
    default_virus_table,
)


# -- load-line -------------------------------------------------------------------------------


def test_loadline_basic_relationship():
    loadline = LoadLine(resistance_ohm=2e-3)
    assert loadline.load_voltage(1.2, 50.0) == pytest.approx(1.1)


def test_loadline_setpoint_inversion():
    loadline = LoadLine(resistance_ohm=1.8e-3)
    setpoint = loadline.setpoint_for_load_voltage(1.0, 40.0)
    assert loadline.load_voltage(setpoint, 40.0) == pytest.approx(1.0)


def test_loadline_ir_guardband_scales_with_current():
    loadline = LoadLine(resistance_ohm=2e-3)
    assert loadline.ir_guardband_v(100.0) == pytest.approx(0.2)
    assert loadline.ir_guardband_v(50.0) == pytest.approx(0.1)


def test_loadline_excess_voltage_for_light_load():
    loadline = LoadLine(resistance_ohm=2e-3)
    # Guardbanded for 100 A but only drawing 20 A: 160 mV of excess voltage.
    assert loadline.excess_voltage_v(100.0, 20.0) == pytest.approx(0.16)


def test_loadline_excess_voltage_rejects_over_virus_current():
    loadline = LoadLine(resistance_ohm=2e-3)
    with pytest.raises(ConstraintViolation):
        loadline.excess_voltage_v(50.0, 60.0)


def test_loadline_vmin_violation_detected():
    loadline = LoadLine(resistance_ohm=2e-3, vmin_v=0.6, vmax_v=1.5)
    with pytest.raises(ConstraintViolation):
        loadline.check_operating_point(vr_setpoint_v=0.7, virus_current_a=100.0)


def test_loadline_vmax_violation_detected():
    loadline = LoadLine(resistance_ohm=2e-3, vmin_v=0.6, vmax_v=1.2)
    with pytest.raises(ConstraintViolation):
        loadline.check_operating_point(vr_setpoint_v=1.3, virus_current_a=10.0)


def test_loadline_valid_operating_point_passes():
    loadline = LoadLine(resistance_ohm=2e-3, vmin_v=0.6, vmax_v=1.5)
    loadline.check_operating_point(vr_setpoint_v=1.1, virus_current_a=100.0)


def test_loadline_guardband_step_between_levels():
    loadline = LoadLine(resistance_ohm=2e-3)
    level1 = PowerVirusLevel("VirusLevel1", 1, 30.0)
    level2 = PowerVirusLevel("VirusLevel2", 2, 60.0)
    assert loadline.guardband_step_v(level1, level2) == pytest.approx(0.06)


def test_loadline_rejects_inverted_limits():
    with pytest.raises(ConfigurationError):
        LoadLine(resistance_ohm=2e-3, vmin_v=1.5, vmax_v=1.0)


# -- virus levels ---------------------------------------------------------------------------


def test_default_virus_table_has_one_level_per_core():
    table = default_virus_table(4)
    assert len(table.levels) == 4
    assert table.names() == ["VirusLevel1", "VirusLevel2", "VirusLevel3", "VirusLevel4"]


def test_virus_levels_are_increasing_in_current():
    table = default_virus_table(4)
    currents = [level.virus_current_a for level in table.levels]
    assert currents == sorted(currents)
    assert currents[0] < currents[-1]


def test_virus_level_selection_by_active_cores():
    table = default_virus_table(4)
    assert table.level_for_active_cores(1).name == "VirusLevel1"
    assert table.level_for_active_cores(3).name == "VirusLevel3"
    # Zero active cores still needs the level-1 guardband (wake-up is imminent).
    assert table.level_for_active_cores(0).name == "VirusLevel1"


def test_virus_level_selection_beyond_table_raises():
    table = default_virus_table(2)
    with pytest.raises(ConstraintViolation):
        table.level_for_active_cores(3)


def test_virus_table_highest():
    table = default_virus_table(4)
    assert table.highest().max_active_cores == 4


def test_virus_table_rejects_disordered_levels():
    with pytest.raises(ConfigurationError):
        VirusLevelTable(
            levels=[
                PowerVirusLevel("a", 2, 50.0),
                PowerVirusLevel("b", 1, 80.0),
            ]
        )


def test_virus_table_four_core_level_within_edc():
    # The 4-core virus level must stay within a client-class EDC limit.
    table = default_virus_table(4)
    assert table.highest().virus_current_a <= 140.0


# -- guardband model -------------------------------------------------------------------------


def test_guardband_total_is_sum_of_components(gated_pdn):
    model = GuardbandModel(gated_pdn)
    level = default_virus_table(4).level_for_active_cores(1)
    breakdown = model.breakdown(level)
    assert breakdown.total_v == pytest.approx(
        breakdown.ir_drop_v
        + breakdown.transient_droop_v
        + breakdown.reliability_v
        + breakdown.fixed_margin_v
    )


def test_guardband_grows_with_virus_level(gated_pdn):
    model = GuardbandModel(gated_pdn)
    table = default_virus_table(4)
    guardbands = [model.total_guardband_v(level) for level in table.levels]
    assert guardbands == sorted(guardbands)
    assert guardbands[-1] > guardbands[0]


def test_guardband_bypassed_is_smaller(gated_pdn, bypassed_pdn):
    table = default_virus_table(4)
    gated_model = GuardbandModel(gated_pdn)
    bypassed_model = GuardbandModel(bypassed_pdn)
    for level in table.levels:
        assert bypassed_model.total_guardband_v(level) < gated_model.total_guardband_v(level)


def test_guardband_pdn_dependent_part_roughly_halves(gated_pdn, bypassed_pdn):
    # Observation 2 of the paper: ~2x guardband with power-gates.
    level = default_virus_table(4).level_for_active_cores(1)
    gated = GuardbandModel(gated_pdn).breakdown(level)
    bypassed = GuardbandModel(bypassed_pdn).breakdown(level)
    gated_pdn_part = gated.ir_drop_v + gated.transient_droop_v
    bypassed_pdn_part = bypassed.ir_drop_v + bypassed.transient_droop_v
    assert 1.4 <= gated_pdn_part / bypassed_pdn_part <= 3.0


def test_guardband_absolute_magnitude_is_plausible(gated_pdn):
    # Client-class guardbands are tens to a couple hundred millivolts.
    model = GuardbandModel(gated_pdn)
    table = default_virus_table(4)
    for level in table.levels:
        total = model.total_guardband_v(level)
        assert 0.02 <= total <= 0.40


def test_guardband_reliability_margin_adds_linearly(gated_pdn):
    level = default_virus_table(4).level_for_active_cores(2)
    base = GuardbandModel(gated_pdn)
    with_margin = base.with_reliability_margin(0.015)
    assert with_margin.total_guardband_v(level) == pytest.approx(
        base.total_guardband_v(level) + 0.015
    )
    assert with_margin.reliability_margin_v == pytest.approx(0.015)


def test_guardband_breakdown_scaled_keeps_fixed_parts(gated_pdn):
    level = default_virus_table(4).level_for_active_cores(1)
    breakdown = GuardbandModel(gated_pdn, reliability_margin_v=0.005).breakdown(level)
    scaled = breakdown.scaled(0.5)
    assert scaled.ir_drop_v == pytest.approx(breakdown.ir_drop_v * 0.5)
    assert scaled.reliability_v == pytest.approx(breakdown.reliability_v)
    assert scaled.fixed_margin_v == pytest.approx(breakdown.fixed_margin_v)


def test_guardband_impedance_profile_is_cached(gated_pdn):
    model = GuardbandModel(gated_pdn)
    assert model.impedance_profile() is model.impedance_profile()


def test_tdp_variants_share_one_sweep_per_network():
    def profile(name, tdp_w):
        pcode = get_spec(name, tdp_w=tdp_w).build()
        return pcode.vf_curve.guardband_model.impedance_profile()

    darkgates = profile("darkgates", 35.0)
    assert darkgates is profile("darkgates", 91.0)
    assert darkgates.label == "bypassed"
    baseline = profile("baseline", 35.0)
    assert baseline is profile("baseline", 91.0)
    assert baseline is not darkgates
    assert baseline.label == "gated"


def test_ac_sweep_runs_once_per_configuration(monkeypatch):
    # Networks no other test builds, so an earlier sweep cannot hide one.
    gated = PdnConfiguration(board_resistance_ohm=0.351e-3)
    bypassed = gated.with_bypass()
    sweeps = []
    sweep = ACAnalysis.sweep

    def counted(analysis, *args, **kwargs):
        sweeps.append(kwargs.get("label"))
        return sweep(analysis, *args, **kwargs)

    monkeypatch.setattr(ACAnalysis, "sweep", counted)
    level = default_virus_table(4).level_for_active_cores(4)
    for configuration in (gated, bypassed, gated, bypassed):
        model = GuardbandModel(configuration)
        model.total_guardband_v(level)
        model.with_reliability_margin(0.005).total_guardband_v(level)
    assert sweeps == ["gated", "bypassed"]
    # An equal configuration built separately finds the same sweep.
    twin = GuardbandModel(PdnConfiguration(board_resistance_ohm=0.351e-3))
    assert twin.impedance_profile() is GuardbandModel(gated).impedance_profile()
    assert sweeps == ["gated", "bypassed"]


# -- offset guardband (Fig. 3 manipulation) -------------------------------------------------------


def test_offset_guardband_reduces_total(gated_pdn):
    level = default_virus_table(4).level_for_active_cores(1)
    inner = GuardbandModel(gated_pdn)
    reduced = OffsetGuardbandModel(inner, offset_v=-0.1)
    assert reduced.total_guardband_v(level) == pytest.approx(
        max(0.0, inner.total_guardband_v(level) - 0.1)
    )


def test_offset_guardband_never_goes_negative(gated_pdn):
    level = default_virus_table(4).level_for_active_cores(1)
    reduced = OffsetGuardbandModel(GuardbandModel(gated_pdn), offset_v=-10.0)
    assert reduced.total_guardband_v(level) == 0.0
    assert reduced.breakdown(level).ir_drop_v >= 0.0


def test_offset_guardband_exposes_inner_properties(gated_pdn):
    inner = GuardbandModel(gated_pdn)
    wrapped = OffsetGuardbandModel(inner, offset_v=-0.05)
    assert wrapped.inner is inner
    assert wrapped.configuration is gated_pdn
    assert wrapped.offset_v == pytest.approx(-0.05)
    assert wrapped.impedance_profile() is inner.impedance_profile()


# -- transient droop: the impedance rule against the time-domain simulation -----------------------


def test_guardband_simulated_droop_ordering_matches_fig6(gated_pdn, bypassed_pdn):
    from repro.pdn.droop import DroopSimulator
    from repro.pdn.ladder import SkylakePdnBuilder

    level = PowerVirusLevel(name="VL4", max_active_cores=4, virus_current_a=100.0)
    # The rule's worst-case step: 40% of a core's 30 A, grown 15% for each
    # of the three further covered cores.
    step_a = 0.40 * 30.0 * (1.0 + 0.15 * 3)
    rule, simulated = {}, {}
    for label, pdn in (("gated", gated_pdn), ("bypassed", bypassed_pdn)):
        rule[label] = GuardbandModel(
            pdn,
            droop_step_fraction=0.40,
            per_core_virus_current_a=30.0,
            multi_core_droop_growth=0.15,
        ).transient_droop_v(level)
        waveform = DroopSimulator(
            SkylakePdnBuilder(pdn).build_ladder()
        ).simulate_current_step(step_a)
        simulated[label] = waveform.transient_overshoot_v
        # The overshoot excludes the DC part the IR term covers, so it sits
        # below the conservative target-impedance bound.
        assert 0.0 < simulated[label] < rule[label]
    assert rule["gated"] > rule["bypassed"]
    assert simulated["gated"] > simulated["bypassed"]


def test_with_reliability_margin_preserves_other_settings(gated_pdn):
    level = default_virus_table(4).level_for_active_cores(4)
    model = GuardbandModel(gated_pdn, droop_step_fraction=0.3)
    derived = model.with_reliability_margin(0.005)
    assert derived.transient_droop_v(level) == model.transient_droop_v(level)
    assert derived.ir_drop_v(level) == model.ir_drop_v(level)
    assert derived.reliability_margin_v == pytest.approx(0.005)
