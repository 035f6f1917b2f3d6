"""Population-sweep performance — lockstep fast path versus per-die stepping.

A sampled die population runs three ways: the per-die oracle
(``tests/oracles/population.py``) materialises one ``SystemSpec.variant()``
per die and steps each through its own engine, the *fast* path injects
the population's parameter arrays straight into the batched dynamics state
and steps every die in lockstep, and the *streaming* path runs fixed-size
shards through the fast path and folds each into mergeable online
accumulators so peak memory is O(shard), not O(population).  This harness
runs a >= 4096-die population through all paths on the same seed, asserts
the fast path is identical to the oracle and the streaming path matches
the fast path (bit-identical exact statistics, histogram-backed quantiles
within their documented error bounds), gauges streaming-vs-monolithic peak
memory with ``tracemalloc`` on a 64k-die population, drives a seeded
million-die streaming binning study to completion in bounded memory, and
records everything to ``benchmarks/output/population_benchmark.json`` so
CI can track the perf and memory trajectory across PRs (see
``benchmarks/perf_track.py``; the ``peak_mb`` key is gated against growth).
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.analysis.study import Study
from repro.core.spec import build_engine, resolve_spec
from repro.variation.binning import SCRAP_BIN, die_metrics, skylake_binning_policy
from repro.variation.distributions import skylake_process_variation
from repro.variation.sampler import DiePopulationSampler
from repro.variation.streaming import (
    ShardPlan,
    merge_binning_shards,
    run_binning_shard,
)
from repro.workloads.dynamics import burst_scenario

from oracles.population import ReferencePopulationStudy

#: Where the timing artifact lands (overridable for local experiments).
OUTPUT_PATH = Path(
    os.environ.get(
        "POPULATION_BENCH_OUT",
        Path(__file__).parent / "output" / "population_benchmark.json",
    )
)

#: Acceptance floor: the fast path must beat per-die stepping by >= 5x on
#: the 4096-die population (measured speedups are far higher; shared CI
#: runners are noisy, hence the conservative floor).
MIN_SPEEDUP = 5.0

DICE = 4096
SEED = 1337
TDP_W = 65.0

#: Shard size of the 4096-die streaming equivalence run (8 shards).
SHARD_SIZE = 512

#: The memory gauge's population: large enough that monolithic trace
#: matrices dominate peak memory, small enough to stay a quick harness.
MEMORY_DICE = 65536
MEMORY_SHARD_SIZE = 4096

#: Streaming peak-memory budget for the 64k-die run, and the minimum
#: monolithic/streaming peak ratio proving the O(shard) guarantee.
MEMORY_BUDGET_MB = 150.0
MIN_MEMORY_RATIO = 3.0

#: The bounded-memory binning study: one million dice, never materialised.
MILLION_DICE = 1_000_000
MILLION_SHARD_SIZE = 8192
MILLION_BUDGET_MB = 64.0


def _scenario():
    return burst_scenario(
        idle_lead_s=4.0,
        burst_s=12.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.1,
    )


def _study(method: str, shard_size: Optional[int] = None) -> Study:
    kwargs: Dict[str, Any] = {}
    if shard_size is not None:
        kwargs["shard_size"] = shard_size
    if method == "reference":
        build = ReferencePopulationStudy
    else:
        build = functools.partial(Study.over_population, method=method)
    return build(
        ("darkgates",),
        (_scenario(),),
        skylake_process_variation(),
        count=DICE,
        tdp_levels_w=(TDP_W,),
        seed=SEED,
        name=f"population-bench-{method}",
        **kwargs,
    )


def _update_artifact(fields: Dict[str, Any]) -> None:
    """Merge *fields* into the benchmark artifact (tests share one file)."""
    payload: Dict[str, Any] = {}
    if OUTPUT_PATH.exists():
        payload = json.loads(OUTPUT_PATH.read_text())
    payload.update(fields)
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()`` in MB (tracemalloc sees numpy)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_population_fast_path_speedup(benchmark):
    # Warm shared caches (engine build, nominal candidate tables) so the
    # timed sections compare stepping strategies, not first-touch costs.
    fast_result = _study("fast").run()

    start = time.perf_counter()
    fast_result = _study("fast").run()
    fast_s = time.perf_counter() - start

    start = time.perf_counter()
    reference_result = _study("reference").run()
    reference_s = time.perf_counter() - start

    benchmark.pedantic(
        lambda: _study("fast").run(), rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = reference_s / fast_s

    identical = (
        fast_result.cells == reference_result.cells
        and fast_result.binning == reference_result.binning
    )
    cell = fast_result.cells[0]
    _update_artifact(
        {
            "dice": DICE,
            "seed": SEED,
            "tdp_w": TDP_W,
            "steps_per_die": len(cell.times_s),
            "reference_s": reference_s,
            "fast_s": fast_s,
            "speedup_fast_vs_reference": speedup,
            "quantiles_identical": identical,
            "bin_yields": fast_result.bin_yields("darkgates"),
        }
    )

    print()
    print(f"population: {DICE} dice x {len(cell.times_s)} steps")
    print(f"reference (per-die):   {reference_s:8.2f} s")
    print(f"fast (lockstep):       {fast_s:8.2f} s  ({speedup:.1f}x)")
    print(f"timing artifact:       {OUTPUT_PATH}")

    assert DICE >= 4096 and cell.count >= 4096
    assert identical, "fast-path population diverged from the per-die reference"
    assert speedup >= MIN_SPEEDUP


def test_population_streaming_matches_fast():
    """Streaming shards reproduce the in-memory path on the common population.

    Exact statistics (frequency percentiles on the candidate-table grid,
    limiting-factor histograms, bin yields) must be bit-identical; the
    histogram-backed quantiles (power, temperature, sustained frequency)
    must agree within their documented per-metric error bounds.
    """
    fast = _study("fast").run()
    streaming = _study("streaming", shard_size=SHARD_SIZE).run()

    fast_cell = fast.cells[0]
    cell = streaming.cells[0]
    assert cell.count == DICE and cell.n_shards == DICE // SHARD_SIZE

    # Exact: discrete frequencies live on the shared candidate-table grid.
    frequencies_identical = (
        cell.frequency_percentiles_hz == fast_cell.frequency_percentiles_hz
    )
    assert frequencies_identical
    assert cell.limiting_histogram == fast_cell.limiting_histogram
    nonzero = {k: v for k, v in cell.final_limiting_counts.items() if v}
    assert nonzero == dict(Counter(fast_cell.final_limiting))
    yields_identical = streaming.bin_yields("darkgates") == fast.bin_yields(
        "darkgates"
    )
    assert yields_identical

    # Bounded: continuous metrics stream through fixed-range histograms
    # whose worst-case quantile error is one bin width.
    bounds = cell.quantile_error_bounds
    errors: Dict[str, float] = {}
    for metric, exact, bound_key in (
        ("power", fast_cell.power_percentiles_w, "power_w"),
        ("temperature", fast_cell.temperature_percentiles_c, "temperature_c"),
    ):
        approx = getattr(cell, f"{metric}_percentiles_{bound_key.split('_')[-1]}")
        worst = max(
            float(np.max(np.abs(np.asarray(approx[key]) - np.asarray(exact[key]))))
            for key in exact
        )
        errors[bound_key] = worst
        assert worst <= bounds[bound_key], (metric, worst, bounds[bound_key])
    sustained_err = max(
        abs(a - b)
        for a, b in zip(
            cell.sustained_summary.quantiles(),
            np.percentile(fast_cell.sustained_frequency_hz, [5.0, 50.0, 95.0]),
        )
    )
    errors["sustained_frequency_hz"] = sustained_err
    assert sustained_err <= bounds["sustained_frequency_hz"]

    # The streaming payload survives its JSON round trip unchanged.
    from repro.variation.population import PopulationResult

    assert PopulationResult.from_json(streaming.to_json()) == streaming

    _update_artifact(
        {
            "streaming_shard_size": SHARD_SIZE,
            "streaming_frequencies_identical": frequencies_identical,
            "streaming_yields_identical": yields_identical,
            "streaming_quantile_errors": errors,
            "streaming_quantile_error_bounds": dict(bounds),
        }
    )


def test_population_streaming_memory_gauge():
    """64k-die tracemalloc gauge: streaming peak is O(shard), not O(dice).

    The artifact's ``peak_mb`` key is the headline memory gauge gated by
    ``perf_track.py`` (growth beyond the baseline fails CI); the monolithic
    reference is named ``monolithic_peak_mb`` so it never wins the headline
    scan.
    """
    spec = resolve_spec("darkgates").variant(tdp_w=TDP_W)
    engine = build_engine(spec)
    scenario = _scenario()
    sampler = DiePopulationSampler(skylake_process_variation())
    population = sampler.sample(MEMORY_DICE, seed=SEED)

    # Warm shared caches (candidate tables, engine state) with a sliver so
    # first-touch allocations do not pollute either gauge.
    engine.run_population(scenario, population.slice(0, 64))

    streaming_peak = _traced_peak_mb(
        lambda: engine.run_population(
            scenario, population, shard_size=MEMORY_SHARD_SIZE
        )
    )
    monolithic_peak = _traced_peak_mb(
        lambda: engine.run_population(scenario, population)
    )
    ratio = monolithic_peak / streaming_peak

    print()
    print(f"memory: {MEMORY_DICE} dice, shard {MEMORY_SHARD_SIZE}")
    print(f"streaming peak:   {streaming_peak:8.1f} MB")
    print(f"monolithic peak:  {monolithic_peak:8.1f} MB  ({ratio:.1f}x)")

    _update_artifact(
        {
            "memory_dice": MEMORY_DICE,
            "memory_shard_size": MEMORY_SHARD_SIZE,
            "peak_mb": streaming_peak,
            "monolithic_peak_mb": monolithic_peak,
            "memory_ratio_monolithic_vs_streaming": ratio,
        }
    )

    assert streaming_peak <= MEMORY_BUDGET_MB, (
        f"streaming peak {streaming_peak:.1f} MB exceeds the "
        f"{MEMORY_BUDGET_MB:.0f} MB bounded-memory budget"
    )
    assert ratio >= MIN_MEMORY_RATIO, (
        f"monolithic/streaming peak ratio {ratio:.1f}x is below "
        f"{MIN_MEMORY_RATIO:.0f}x — streaming is not O(shard)"
    )


def test_million_die_streaming_binning_bounded_memory():
    """A seeded million-die binning study completes without materialising it.

    Every shard draws its dice straight from the seeded sampler's block
    grid, so shard counts merge into the exact population counts, the first
    4096 dice bin identically to the in-memory 4096-die study, and peak
    memory stays a small multiple of one shard.
    """
    spec = resolve_spec("darkgates").variant(tdp_w=TDP_W)
    model = skylake_process_variation()
    binning = skylake_binning_policy()
    plan = ShardPlan(count=MILLION_DICE, shard_size=MILLION_SHARD_SIZE)

    # Warm the candidate-table caches outside the traced section.
    run_binning_shard(spec, model, MILLION_DICE, SEED, 0, MILLION_SHARD_SIZE, binning)

    result = {}

    def run() -> None:
        shards = [
            run_binning_shard(
                spec, model, MILLION_DICE, SEED, index, MILLION_SHARD_SIZE, binning
            )
            for index in range(plan.n_shards)
        ]
        result["binning"] = merge_binning_shards("darkgates", shards, MILLION_DICE)

    start = time.perf_counter()
    peak_mb = _traced_peak_mb(run)
    elapsed_s = time.perf_counter() - start
    binned = result["binning"]

    print()
    print(
        f"million-die binning: {plan.n_shards} shards x {MILLION_SHARD_SIZE} "
        f"dice in {elapsed_s:.1f} s, peak {peak_mb:.1f} MB"
    )

    assert binned.count == MILLION_DICE
    assert sum(binned.counts.values()) == MILLION_DICE
    assert math.isclose(sum(binned.yield_fractions.values()), 1.0)
    assert peak_mb <= MILLION_BUDGET_MB

    # Prefix determinism ties the million-die run to the common 4096-die
    # population: shard 0 of the million at shard_size 4096 must equal the
    # in-memory binning of sample(4096) on the same seed.
    prefix_counts = run_binning_shard(
        spec, model, MILLION_DICE, SEED, 0, 4096, binning
    )
    small = DiePopulationSampler(model).sample(4096, seed=SEED)
    assignments = binning.assign(die_metrics(build_engine(spec).pcode, small))
    for index, name in enumerate((*binning.bin_names, SCRAP_BIN)):
        selector = -1 if name == SCRAP_BIN else index
        assert prefix_counts[name] == int((assignments == selector).sum())

    _update_artifact(
        {
            "million_die_binning": {
                "dice": MILLION_DICE,
                "shard_size": MILLION_SHARD_SIZE,
                "n_shards": plan.n_shards,
                "elapsed_s": elapsed_s,
                "million_peak_mb": peak_mb,
                "bin_counts": binned.counts,
            }
        }
    )
