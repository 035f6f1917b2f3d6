"""Population-study tests: fast-path identity, JSON round trips, seeding.

The load-bearing guarantee of the variation subsystem is that the batched
population fast path is *bit-identical* to the per-die oracle
(``oracles.population``) —
same seed, same trajectories, same quantiles — so the equivalence tests
here assert exact dataclass equality, not tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.study import Study, StudyResult
from repro.common.errors import ConfigurationError
from repro.core.spec import get_spec
from repro.sim.engine import SimulationEngine
from repro.variation.distributions import skylake_process_variation
from repro.variation.population import (
    UNSEEDED_DEFAULT_SEED,
    PopulationResult,
    PopulationStudy,
)
from repro.variation.sampler import DiePopulationSampler, DieVariation
from repro.workloads.dynamics import burst_scenario, sprint_and_rest_scenario

from oracles.dynamics import DynamicsSimulator
from oracles.population import ReferencePopulationStudy

VARIATIONS = skylake_process_variation()

#: Short scenarios keep the per-die reference sweep affordable in CI.
SCENARIOS = (
    burst_scenario(idle_lead_s=4.0, burst_s=14.0, time_step_s=0.1),
    sprint_and_rest_scenario(
        sprint_s=5.0, rest_s=4.0, cycles=2, active_cores=2, time_step_s=0.1
    ),
)


@pytest.fixture(scope="module")
def fast_result() -> PopulationResult:
    return Study.over_population(
        ("darkgates", "baseline"),
        SCENARIOS,
        VARIATIONS,
        count=10,
        tdp_levels_w=(35.0, 65.0),
        seed=42,
    ).run()


@pytest.fixture(scope="module")
def reference_result() -> PopulationResult:
    return ReferencePopulationStudy(
        ("darkgates", "baseline"),
        SCENARIOS,
        VARIATIONS,
        count=10,
        tdp_levels_w=(35.0, 65.0),
        seed=42,
    ).run()


# -- fast == reference -----------------------------------------------------------------


def test_fast_path_is_identical_to_reference(fast_result, reference_result):
    """Same seed -> exactly equal cells and binning, not just close."""
    assert fast_result.cells == reference_result.cells
    assert fast_result.binning == reference_result.binning
    assert fast_result.seed == reference_result.seed
    assert fast_result.method == "fast"
    assert reference_result.method == "reference"


def test_population_traces_match_per_die_reference_loop():
    """The lockstep matrices equal per-die stepping through the *Python* loop."""
    spec = get_spec("darkgates", tdp_w=45.0)
    scenario = SCENARIOS[0]
    population = DiePopulationSampler(VARIATIONS).sample(5, seed=9)
    traces = SimulationEngine(spec.build()).run_population(scenario, population)
    # The code traces share DynamicRunResult's int8 layout.
    assert traces.limiting_codes.dtype == traces.cstate_codes.dtype == np.int8
    for index, die_spec in enumerate(population.specs(spec)):
        loop = DynamicsSimulator(die_spec.build()).run(scenario)
        assert np.array_equal(traces.frequencies_hz[:, index], loop.frequencies_hz)
        assert np.array_equal(
            traces.package_powers_w[:, index], loop.package_powers_w
        )
        assert np.array_equal(traces.temperatures_c[:, index], loop.temperatures_c)
        assert np.array_equal(
            traces.average_powers_w[:, index], loop.average_powers_w
        )
        assert np.array_equal(
            traces.limiting_factor_names()[:, index], loop.limiting_factors
        )
        assert traces.package_cstate_names() == loop.package_cstates.tolist()


def test_run_population_rejects_varied_base_system():
    spec = get_spec("darkgates").variant(
        name="varied", die_variation=DieVariation(leakage_scale=1.1)
    )
    population = DiePopulationSampler(VARIATIONS).sample(3, seed=0)
    with pytest.raises(ConfigurationError):
        SimulationEngine(spec.build()).run_population(SCENARIOS[0], population)


# -- results ---------------------------------------------------------------------------


def test_population_result_round_trips_through_json(fast_result):
    rebuilt = PopulationResult.from_json(fast_result.to_json())
    assert rebuilt == fast_result
    # Bin yields and percentile traces survive the round trip exactly.
    assert rebuilt.bin_yields("darkgates") == fast_result.bin_yields("darkgates")
    cell = fast_result.cell("darkgates@35W", SCENARIOS[0])
    assert (
        rebuilt.cell("darkgates@35W", SCENARIOS[0]).frequency_percentiles_hz
        == cell.frequency_percentiles_hz
    )


def test_seed_is_recorded_and_replayable(fast_result):
    assert fast_result.seed == 42
    replay = Study.over_population(
        ("darkgates", "baseline"),
        SCENARIOS,
        VARIATIONS,
        count=10,
        tdp_levels_w=(35.0, 65.0),
        seed=42,
    ).run()
    assert replay == fast_result


def test_cell_lookup_and_summaries(fast_result):
    cell = fast_result.cell("darkgates@35W", SCENARIOS[0])
    assert cell.count == 10
    assert set(cell.frequency_percentiles_hz) == {"p5", "p50", "p95"}
    assert len(cell.times_s) == len(cell.frequency_percentiles_hz["p50"])
    # Percentiles are ordered per step.
    p5 = np.array(cell.frequency_percentiles_hz["p5"])
    p95 = np.array(cell.frequency_percentiles_hz["p95"])
    assert (p5 <= p95).all()
    assert sum(cell.limiting_histogram.values()) == pytest.approx(1.0)
    quantiles = cell.sustained_quantiles_ghz()
    assert quantiles[0] <= quantiles[1] <= quantiles[2]
    with pytest.raises(ConfigurationError):
        fast_result.cell("darkgates@45W", SCENARIOS[0])
    with pytest.raises(ConfigurationError):
        fast_result.spec_binning("unknown-spec")


def test_sustained_by_bin_joins_assignments(fast_result):
    cell = fast_result.cell("darkgates@65W", SCENARIOS[0])
    by_bin = fast_result.sustained_by_bin(cell, "darkgates")
    binning = fast_result.spec_binning("darkgates")
    populated = {
        name
        for name, count in binning.report.counts.items()
        if count > 0
    }
    assert set(by_bin) == populated
    for low, high in by_bin.values():
        assert low <= high


def test_unseeded_study_pins_one_seed_for_every_path():
    """seed=None pins the documented default; cells, binning, replays share it.

    The pin is a constant rather than an entropy draw so that "unseeded"
    population runs are replayable by construction — same dice in every
    process, same content-addressed run IDs.
    """
    study = PopulationStudy(
        ("darkgates",), SCENARIOS[:1], VARIATIONS, count=6, seed=None
    )
    assert study.seed == UNSEEDED_DEFAULT_SEED
    result = study.run()
    assert result.seed == study.seed
    # The recorded seed replays the run exactly — including on the
    # reference path, which must see the same dice as the fast cells.
    replay = ReferencePopulationStudy(
        ("darkgates",), SCENARIOS[:1], VARIATIONS, count=6, seed=result.seed
    ).run()
    assert replay.cells == result.cells
    assert replay.binning == result.binning


def test_population_study_validation():
    with pytest.raises(ConfigurationError):
        PopulationStudy(("darkgates",), SCENARIOS, VARIATIONS, count=0)
    with pytest.raises(ConfigurationError):
        PopulationStudy((), SCENARIOS, VARIATIONS, count=4)
    with pytest.raises(ConfigurationError):
        PopulationStudy(("darkgates",), (), VARIATIONS, count=4)
    for method in ("warp", "reference"):
        with pytest.raises(ConfigurationError):
            PopulationStudy(
                ("darkgates",), SCENARIOS, VARIATIONS, count=4, method=method
            )
    varied = get_spec("darkgates").variant(
        name="varied", die_variation=DieVariation(leakage_scale=1.1)
    )
    with pytest.raises(ConfigurationError):
        PopulationStudy((varied,), SCENARIOS, VARIATIONS, count=4)


def test_population_study_streaming_validation():
    with pytest.raises(ConfigurationError, match="needs a shard_size"):
        PopulationStudy(
            ("darkgates",), SCENARIOS, VARIATIONS, count=8, method="streaming"
        )
    with pytest.raises(ConfigurationError, match="only applies"):
        PopulationStudy(
            ("darkgates",), SCENARIOS, VARIATIONS, count=8, shard_size=4
        )
    with pytest.raises(ConfigurationError, match="already streams"):
        PopulationStudy(
            ("darkgates",),
            SCENARIOS,
            VARIATIONS,
            count=8,
            method="streaming",
            shard_size=64,
        )


def test_streaming_study_counts_tasks_and_serves_warm_runs_from_cache():
    cache: dict = {}
    kwargs = dict(
        count=8,
        tdp_levels_w=(65.0,),
        seed=42,
        method="streaming",
        shard_size=4,
        cache=cache,
    )
    study = Study.over_population(
        ("darkgates",), SCENARIOS[:1], VARIATIONS, **kwargs
    )
    cold = study.run()
    # 2 cell shards + 2 binning shards, all executed on the cold pass.
    assert study.tasks_total == 4 and study.tasks_executed == 4
    assert cold.shard_size == 4 and cold.method == "streaming"

    warm_study = Study.over_population(
        ("darkgates",), SCENARIOS[:1], VARIATIONS, **kwargs
    )
    warm = warm_study.run()
    assert warm_study.tasks_total == 4 and warm_study.tasks_executed == 0
    assert warm == cold


def test_streaming_result_json_kind_dispatch():
    result = Study.over_population(
        ("darkgates",),
        SCENARIOS[:1],
        VARIATIONS,
        count=8,
        tdp_levels_w=(65.0,),
        seed=42,
        method="streaming",
        shard_size=4,
    ).run()
    payload = result.to_json()
    rebuilt = PopulationResult.from_json(payload)
    assert rebuilt == result
    import json

    raw = json.loads(payload)
    assert raw["shard_size"] == 4
    assert {cell["kind"] for cell in raw["cells"]} == {"streaming_cell"}
    assert {b["kind"] for b in raw["binning"]} == {"streaming_binning"}


# -- study seed plumbing ---------------------------------------------------------------


def test_study_seed_round_trips_in_json():
    study = Study(tasks=(), seed=7, name="seeded")
    result = study.run()
    assert result.seed == 7
    rebuilt = StudyResult.from_json(result.to_json())
    assert rebuilt.seed == 7
    # Deterministic studies omit the key and read back as None.
    plain = Study(tasks=(), name="plain").run()
    assert plain.seed is None
    assert '"seed"' not in plain.to_json()
    assert StudyResult.from_json(plain.to_json()).seed is None
