"""Tests for the declarative SystemSpec API, engine.run() dispatch, and
RunResult serialisation."""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.core.spec import (
    SystemSpec,
    get_spec,
    register_spec,
    resolve_spec,
    spec_names,
)
from repro.pmu.fuses import PowerDeliveryMode
from repro.reliability.guardband import ReliabilityGuardbandModel
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunResult
from repro.workloads.descriptors import ResidencyPhase, ScenarioPhase, Workload
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import spec_benchmark


# -- registry ------------------------------------------------------------------------------------


def test_registry_contains_paper_configurations():
    names = spec_names()
    for expected in ("darkgates", "baseline", "darkgates+c7", "broadwell-baseline"):
        assert expected in names


def test_get_spec_unknown_name():
    with pytest.raises(ConfigurationError):
        get_spec("no-such-system")


def test_get_spec_with_overrides_returns_variant():
    spec = get_spec("darkgates", tdp_w=35.0)
    assert spec.tdp_w == 35.0
    assert spec.name == "darkgates"
    # The registered spec itself is untouched.
    assert get_spec("darkgates").tdp_w == 91.0


def test_register_spec_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        register_spec(SystemSpec(name="darkgates"))


def test_resolve_spec_accepts_spec_and_name():
    spec = get_spec("baseline")
    assert resolve_spec(spec) is spec
    assert resolve_spec("baseline") == spec
    with pytest.raises(ConfigurationError):
        resolve_spec(42)


# -- spec validation -----------------------------------------------------------------------------


def test_spec_rejects_nonpositive_tdp():
    with pytest.raises(ConfigurationError):
        SystemSpec(name="bad", tdp_w=-5.0)
    with pytest.raises(ConfigurationError):
        SystemSpec(name="bad", tdp_w=0.0)


def test_spec_rejects_unknown_sku():
    with pytest.raises(ConfigurationError):
        SystemSpec(name="bad", sku="cannon-lake")


def test_spec_rejects_bad_cstate():
    with pytest.raises(ConfigurationError):
        SystemSpec(name="bad", deepest_package_cstate="C99")


def test_spec_coerces_power_delivery_string():
    spec = SystemSpec(name="coerced", power_delivery="normal")
    assert spec.power_delivery is PowerDeliveryMode.NORMAL
    with pytest.raises(ConfigurationError):
        SystemSpec(name="bad", power_delivery="turbo")


def test_variant_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        get_spec("darkgates").variant(tdp=35.0)


def test_spec_label():
    assert get_spec("darkgates").label == "darkgates@91W"
    assert get_spec("darkgates", tdp_w=35.0).label == "darkgates@35W"


# -- spec JSON round-trip ------------------------------------------------------------------------


def test_spec_json_round_trip():
    for name in spec_names():
        spec = get_spec(name)
        payload = json.loads(json.dumps(spec.to_dict()))
        assert SystemSpec.from_dict(payload) == spec


def test_spec_from_dict_rejects_unknown_fields():
    payload = get_spec("darkgates").to_dict()
    payload["frobnication"] = True
    with pytest.raises(ConfigurationError):
        SystemSpec.from_dict(payload)


# -- building ------------------------------------------------------------------------------------


def test_darkgates_spec_builds_bypassed_c8():
    pcode = get_spec("darkgates").build()
    assert pcode.bypass_mode
    assert pcode.deepest_package_cstate().value == "C8"


def test_reliability_margin_disabled_variant():
    margined = get_spec("darkgates").build()
    plain = get_spec("darkgates", apply_reliability_guardband=False).build()
    assert plain.guardband_model.reliability_margin_v == 0.0
    assert margined.guardband_model.reliability_margin_v > 0.0


# -- ReliabilityGuardbandModel.margin_for_tdp ----------------------------------------------------


def test_margin_for_tdp_anchors():
    model = ReliabilityGuardbandModel()
    assert model.margin_for_tdp(35.0) == model.guardband_for_low_tdp_desktop()
    assert model.margin_for_tdp(91.0) == model.guardband_for_high_tdp_desktop()


def test_margin_for_tdp_clamps_outside_anchors():
    model = ReliabilityGuardbandModel()
    assert model.margin_for_tdp(10.0) == model.margin_for_tdp(35.0)
    assert model.margin_for_tdp(150.0) == model.margin_for_tdp(91.0)


def test_margin_for_tdp_interpolates_monotonically():
    model = ReliabilityGuardbandModel()
    margins = [model.margin_for_tdp(tdp) for tdp in (35.0, 45.0, 65.0, 91.0)]
    assert margins == sorted(margins, reverse=True)
    mid = model.margin_for_tdp(63.0)
    assert model.margin_for_tdp(91.0) < mid < model.margin_for_tdp(35.0)


def test_margin_for_tdp_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        ReliabilityGuardbandModel().margin_for_tdp(0.0)


# -- polymorphic engine.run() --------------------------------------------------------------------


@pytest.fixture(scope="module")
def darkgates_engine():
    return SimulationEngine(get_spec("darkgates").build())


def test_run_dispatch_parity_cpu(darkgates_engine):
    workload = spec_benchmark("470.lbm")
    assert darkgates_engine.run(workload) == darkgates_engine.run_cpu_workload(workload)


def test_run_dispatch_parity_graphics(darkgates_engine):
    workload = three_dmark_suite()[0]
    assert darkgates_engine.run(workload) == darkgates_engine.run_graphics_workload(
        workload
    )


def test_run_dispatch_parity_energy(darkgates_engine):
    scenario = rmt_scenario()
    assert darkgates_engine.run(scenario) == darkgates_engine.run_energy_scenario(
        scenario
    )


def test_run_rejects_non_workloads(darkgates_engine):
    with pytest.raises(ConfigurationError):
        darkgates_engine.run("not a workload")


def test_workload_protocol_covers_all_descriptor_classes():
    for workload in (
        spec_benchmark("416.gamess"),
        three_dmark_suite()[0],
        energy_star_scenario(),
    ):
        assert isinstance(workload, Workload)


def test_scenario_phase_is_residency_phase():
    assert ScenarioPhase is ResidencyPhase


# -- RunResult JSON round-trip -------------------------------------------------------------------


def test_run_result_json_round_trip(darkgates_engine):
    for workload in (
        spec_benchmark("416.gamess"),
        three_dmark_suite()[0],
        energy_star_scenario(),
    ):
        result = darkgates_engine.run(workload)
        payload = json.loads(json.dumps(result.to_dict()))
        restored = RunResult.from_dict(payload)
        assert restored == result
        assert restored.kind == result.kind
        assert restored.primary_metric == result.primary_metric


def test_run_result_from_dict_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        RunResult.from_dict({"kind": "quantum"})


# -- public exports ------------------------------------------------------------------------------


def _packages():
    """``repro`` and every package below it."""
    subpackages = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return ["repro"] + sorted(info.name for info in subpackages if info.ispkg)


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    # A name deleted from a package must leave its __all__ too.
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
