"""Small deterministic instances of every codec type, and their fixture writer.

:func:`build_samples` returns one instance per :class:`repro.common.codec.Codec`
class (keyed by qualified type name), one value per run-store codec tag, and
the four results that ship as ``to_json`` documents.  ``tests/test_codec.py``
compares them with the payloads under ``tests/codec_fixtures/``, which were
written by repro 1.4.0 — the last release whose classes hand-wrote their
payload methods — running this module as a script::

    PYTHONPATH=<repro 1.4.0 checkout>/src python tests/codec_samples.py tests/codec_fixtures

Regenerate the fixtures only when the payload layout changes on purpose:
they are the evidence that older payloads keep loading.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.analysis.optimize import Constraint, Objective, OptimizationSpec
from repro.analysis.study import Study
from repro.core.spec import build_engine, get_spec
from repro.fleet import DutyCycleArrivals, FleetProfile, PoissonArrivals
from repro.fleet.qos import QosReport, aggregate_reports
from repro.pdn.transients import TransientScenario, core_wake_trace
from repro.pmu.dvfs import CpuDemand
from repro.store.artifacts import encode_value
from repro.variation.binning import skylake_binning_policy
from repro.variation.distributions import skylake_process_variation
from repro.variation.sampler import DiePopulationSampler
from repro.variation.streaming import run_binning_shard, run_cell_shard
from repro.workloads.dynamics import burst_scenario
from repro.workloads.energy import energy_star_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import spec_benchmark

SEED = 3
DICE = 8
SHARD = 4


def qualified_name(value: Any) -> str:
    """``module.QualName`` of a class, or of an instance's class."""
    cls = value if isinstance(value, type) else type(value)
    return f"{cls.__module__}.{cls.__qualname__}"


def build_samples() -> Dict[str, Dict[str, Any]]:
    """``{"types": ..., "artifacts": ..., "documents": ...}`` sample values."""
    spec = get_spec("darkgates", tdp_w=35.0)
    engine = build_engine(spec)
    scenario = burst_scenario(idle_lead_s=2.0, burst_s=3.0, time_step_s=1.0)
    dynamic = engine.run(scenario)
    variations = skylake_process_variation()
    policy = skylake_binning_policy()
    population: Dict[str, Any] = dict(count=DICE, tdp_levels_w=(35.0,), seed=SEED)
    in_memory = Study.over_population(
        ("darkgates",), (scenario,), variations, **population
    ).run()
    streamed = Study.over_population(
        ("darkgates",),
        (scenario,),
        variations,
        method="streaming",
        shard_size=SHARD,
        **population,
    ).run()
    shard = run_cell_shard(spec, scenario, variations, DICE, SEED, 0, SHARD, policy)
    qos = QosReport.from_result(dynamic)
    arrivals = DutyCycleArrivals(
        duration_s=12.0, period_s=6.0, on_fraction=0.5, load=3.0
    ).overlay(PoissonArrivals(duration_s=12.0, rate_hz=1.0))
    fleet = Study.over_fleet(
        ("darkgates",),
        (FleetProfile(name="tiny", arrivals=arrivals, slot_s=3.0),),
        ensemble=2,
        tdp_levels_w=(35.0,),
    ).run()
    query = OptimizationSpec(
        name="min-tdp",
        method="bisect",
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", 2.0e9),),
        variables={"tdp_w": (20.0, 35.0, 65.0)},
    )
    optimization = Study.optimize(
        ("darkgates",), query, demand=CpuDemand(active_cores=4)
    ).run()
    study = Study(
        (spec,), [spec_benchmark("416.gamess")], name="codec-sample", seed=SEED
    ).run()
    (cell,) = in_memory.cells
    (binning,) = in_memory.binning
    (streamed_cell,) = streamed.cells
    (streamed_binning,) = streamed.binning
    (fleet_cell,) = fleet.cells
    (solved,) = optimization.cells
    die = DiePopulationSampler(variations).sample(DICE, seed=SEED).die(0)
    instances = (
        engine.run(spec_benchmark("416.gamess")),
        engine.run(three_dmark_suite()[0]),
        engine.run(energy_star_scenario()),
        engine.run(TransientScenario.from_trace(core_wake_trace(duration_s=1e-6))),
        dynamic,
        spec.variant(name="darkgates#die0", die_variation=die),
        die,
        variations.variations[0],
        variations,
        policy.bins[0],
        binning.report,
        policy,
        cell,
        binning,
        streamed,
        shard.power.spec,
        streamed_cell.sustained_summary,
        shard.sustained,
        shard.frequency,
        shard.power,
        shard.limiting,
        streamed_binning,
        streamed_cell,
        shard,
        qos,
        aggregate_reports([qos, qos], name="pair"),
        fleet_cell,
        fleet,
        query.objectives[0],
        query.constraints[0],
        query,
        solved.points[0],
        solved,
        optimization,
    )
    return {
        "types": {qualified_name(value): value for value in instances},
        "artifacts": {
            "json": run_binning_shard(spec, variations, DICE, SEED, 0, SHARD, policy),
            "optimization": optimization,
            "population": streamed,
            "population_cell": cell,
            "run_result": dynamic,
            "spec_binning": binning,
            "streaming_binning": streamed_binning,
            "streaming_cell": streamed_cell,
            "streaming_shard": shard,
        },
        "documents": {
            "fleet": fleet,
            "optimization": optimization,
            "population": in_memory,
            "study": study,
        },
    }


def _payload(value: Any) -> Any:
    # Results that had no to_dict shipped only their to_json document.
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return json.loads(value.to_json())


def write_fixtures(directory: Path) -> None:
    """Write every sample's payloads with the repro found on the path."""
    samples = build_samples()
    directory.mkdir(parents=True, exist_ok=True)

    def dump(name: str, payload: Any) -> None:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
        (directory / name).write_text(text + "\n")

    dump("payloads.json", {k: _payload(v) for k, v in samples["types"].items()})
    dump(
        "artifacts.json",
        {tag: encode_value(v) for tag, v in samples["artifacts"].items()},
    )
    for name, result in samples["documents"].items():
        (directory / f"{name}_result.json").write_text(result.to_json() + "\n")


if __name__ == "__main__":
    write_fixtures(Path(sys.argv[1]))
