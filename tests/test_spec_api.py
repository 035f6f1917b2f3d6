"""Tests for the declarative SystemSpec API, engine.run() dispatch, and
RunResult serialisation."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path
from typing import Dict, Iterator, Set

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


#: Directories whose non-test files can reach an exported name.
_REACHING_DIRS = ("src", "examples", "perfbench", "benchmarks")

#: Exported names that no non-test file references outside their own module
#: and the package ``__init__`` files, each with why it stays exported: a
#: result or value type that a reached function returns or takes, a paper
#: entry point, or a builder registered under a name the CLI resolves.
_UNREACHED_EXPORTS = {
    "StudyResult": "result type: Study.run returns it",
    "StudyCell": "result type: the cells of a StudyResult",
    "StudyExecutor": "value type: SweepRequest.resolve returns it",
    "ParameterVariation": "value type: VariationModel takes one per silicon knob",
    "SkuBin": "value type: BinningPolicy takes its bins",
    "HistogramSpec": "value type: ScalarAccumulator and TraceHistogram take their bin grid",
    "ScalarAccumulator": "result type: StreamingCellShard holds its scalar accumulators",
    "ScalarSummary": "result type: StreamingCellResult holds its scalar summaries",
    "OverlayArrivals": "result type: ArrivalProcess.overlay returns it",
    "GuardbandBreakdown": "result type: GuardbandModel.breakdown returns it",
    "DroopResult": "result type: DroopSimulator.simulate_* return it",
    "TraceBuilder": "value type: builds the LoadTrace that TransientScenario takes",
    "step_trace": "value type: returns the LoadTrace that TransientScenario takes",
    "PackageKind": "value type: Package takes it as its kind",
    "Rule": "result type: get_rule returns it",
    "ImplementationOverheads": "result type: darkgates_overheads returns it",
    "darkgates_overheads": "paper entry point: the implementation overheads of Section 5",
    "BumpCurrentModel": "paper entry point: the bump electromigration claim of Section 4.2",
    "LoadLine": "paper entry point: the load-line model of Fig. 2",
    "paper_transient_scenarios": "paper entry point: the droop events of Figs. 5 and 6",
    "run_fig3_guardband_motivation": "paper entry point: Fig. 3",
    "run_fig4_impedance_profiles": "paper entry point: Fig. 4",
    "run_fig7_spec_per_benchmark": "paper entry point: Fig. 7",
    "run_fig8_spec_tdp_sweep": "paper entry point: Fig. 8",
    "run_fig9_graphics_degradation": "paper entry point: Fig. 9",
    "run_fig10_energy_efficiency": "paper entry point: Fig. 10",
    "run_sec42_reliability_guardband": "paper entry point: Section 4.2",
    "run_table1_package_cstates": "paper entry point: Table 1",
    "run_table2_system_parameters": "paper entry point: Table 2",
    "Fig3Result": "result type: run_fig3_guardband_motivation returns it",
    "Fig4Result": "result type: run_fig4_impedance_profiles returns it",
    "Fig7Result": "result type: run_fig7_spec_per_benchmark returns it",
    "Fig8Result": "result type: run_fig8_spec_tdp_sweep returns it",
    "Fig9Result": "result type: run_fig9_graphics_degradation returns it",
    "Fig10Result": "result type: run_fig10_energy_efficiency returns it",
    "ReliabilityResult": "result type: run_sec42_reliability_guardband returns it",
    "datacenter_profile": "registered fleet profile: --profile datacenter builds it",
    "consumer_interactive_profile": "registered fleet profile: --profile consumer builds it",
    "graphics_coschedule_profile": "registered fleet profile: --profile graphics builds it",
    "sustained_scenario": "registered scenario: --scenario sustained builds it",
    "sprint_and_rest_scenario": "registered scenario: --scenario sprint_and_rest builds it",
}


def _reaching_files() -> Iterator[Path]:
    """Every non-test, non-``__init__`` Python file that can reach a name."""
    root = Path(__file__).resolve().parents[1]
    for directory in _REACHING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            test = path.name.startswith("test_") or path.name == "conftest.py"
            if not test and path.name != "__init__.py":
                yield path.resolve()


def _referenced_names(path: Path) -> Set[str]:
    """Names, attributes, import names and non-docstring strings in *path*."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.add(node.value)
    return names


def _defining_file(module_name: str, name: str) -> Path:
    """The file that defines *name*, following ``from ... import`` re-exports."""
    module = importlib.import_module(module_name)
    source = Path(module.__file__).resolve()
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_file(node.module, alias.name)
    value = getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        return Path(inspect.getsourcefile(value)).resolve()  # lazy re-exports
    return source


def test_every_exported_name_is_reached_or_explained():
    # An exported name needs a reference outside its own module and the
    # package __init__ files, or a reason on _UNREACHED_EXPORTS.
    references: Dict[Path, Set[str]] = {
        path: _referenced_names(path) for path in _reaching_files()
    }
    unreached = set()
    for package in _packages():
        for name in importlib.import_module(package).__all__:
            home = _defining_file(package, name)
            if not any(
                name in names for path, names in references.items() if path != home
            ):
                unreached.add(name)
    assert sorted(unreached - set(_UNREACHED_EXPORTS)) == []
    # A listed name that is now reached, or no longer exported, leaves the list.
    assert sorted(set(_UNREACHED_EXPORTS) - unreached) == []
    assert all(reason.strip() for reason in _UNREACHED_EXPORTS.values())
