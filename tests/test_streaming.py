"""The streaming population engine: equivalence, properties, error paths.

Three families of guarantees back the bounded-memory streaming path
(:mod:`repro.variation.streaming`):

* **Equivalence** — shard ``i`` of a seed-``s`` population samples
  bit-identical dice alone or inside the full draw; exact statistics
  (discrete frequency percentiles, limiting histograms, bin yields) match
  the in-memory path bit for bit; histogram-backed quantiles stay within
  their documented one-bin-width error bounds.
* **Algebra** (hypothesis) — accumulator merges are associative and
  order-independent (including bitwise-stable means), re-chunking a
  population changes nothing, and yield fractions sum to one.
* **Failure modes** — infeasible shard plans, mismatched grids, and
  double-counted shards raise :class:`ConfigurationError` with actionable
  messages instead of silently corrupting statistics.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import streaming as oracle

import repro
from repro.analysis.study import Study
from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, get_spec, resolve_spec
from repro.variation.binning import skylake_binning_policy
from repro.variation.distributions import skylake_process_variation
from repro.variation.population import PopulationResult, PopulationStudy
from repro.variation.sampler import NOMINAL_PARAMETERS, DiePopulationSampler
from repro.variation.streaming import (
    STREAM_PERCENTILES,
    HistogramSpec,
    ScalarAccumulator,
    ShardPlan,
    StreamingBinningResult,
    StreamingCellResult,
    StreamingCellShard,
    TraceCounts,
    TraceHistogram,
    TraceValueCounts,
    merge_binning_shards,
    merge_cell_shards,
    run_binning_shard,
    run_cell_shard,
    weighted_percentile,
)
from repro.workloads.dynamics import build_scenario, burst_scenario

SEED = 20220402
DICE = 48
SHARD = 16


@pytest.fixture(scope="module")
def scenario():
    # An idle lead exercises the active-step bookkeeping; coarse steps
    # keep the module fast.
    return burst_scenario(
        idle_lead_s=2.0,
        burst_s=6.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.5,
    )


@pytest.fixture(scope="module")
def spec():
    return resolve_spec("darkgates").variant(tdp_w=65.0)


@pytest.fixture(scope="module")
def engine(spec):
    return build_engine(spec)


@pytest.fixture(scope="module")
def population():
    return DiePopulationSampler(skylake_process_variation()).sample(
        DICE, seed=SEED
    )


@pytest.fixture(scope="module")
def monolithic(engine, scenario, population):
    return engine.run_population(scenario, population)


@pytest.fixture(scope="module")
def shards(spec, scenario):
    """The study's shard tasks over the ``population`` fixture's dice."""
    return [
        run_cell_shard(
            spec,
            scenario,
            skylake_process_variation(),
            DICE,
            SEED,
            index,
            SHARD,
            skylake_binning_policy(),
        )
        for index in range(ShardPlan(count=DICE, shard_size=SHARD).n_shards)
    ]


@pytest.fixture(scope="module")
def streamed(shards):
    return merge_cell_shards(shards)


# -- sampler shard determinism ---------------------------------------------------------


def test_sample_range_matches_full_draw_columns():
    sampler = DiePopulationSampler(skylake_process_variation())
    full = sampler.sample(300, seed=SEED)
    window = sampler.sample_range(100, 200, SEED)
    assert window.count == 100
    for parameter in NOMINAL_PARAMETERS:
        np.testing.assert_array_equal(
            window.column(parameter), full.column(parameter)[100:200]
        )


def test_sample_prefix_is_stable_across_population_sizes():
    sampler = DiePopulationSampler(skylake_process_variation())
    small = sampler.sample(300, seed=SEED)
    large = sampler.sample(2500, seed=SEED)
    for parameter in NOMINAL_PARAMETERS:
        np.testing.assert_array_equal(
            small.column(parameter), large.column(parameter)[:300]
        )


def test_population_slice_validates_bounds(population):
    sampler = DiePopulationSampler(skylake_process_variation())
    window = sampler.sample_range(4, 20, SEED)
    assert window.count == 16
    for parameter in NOMINAL_PARAMETERS:
        np.testing.assert_array_equal(
            window.column(parameter), population.column(parameter)[4:20]
        )
    for bad in ((-1, 4), (4, 4), (8, 4)):
        with pytest.raises(ConfigurationError, match="bad die range"):
            sampler.sample_range(*bad, SEED)


# -- shard plans -----------------------------------------------------------------------


def test_shard_plan_bounds_partition_the_population():
    plan = ShardPlan(count=100, shard_size=32)
    assert plan.n_shards == 4
    assert [plan.shard_bounds(index) for index in range(plan.n_shards)] == [
        (0, 32), (32, 64), (64, 96), (96, 100),
    ]
    with pytest.raises(ConfigurationError):
        plan.shard_bounds(4)


@pytest.mark.parametrize(
    "count, shard_size, needle",
    [
        (0, 16, "empty population"),
        (100, 0, "4096 is a good default"),
        (16, 100, "already streams"),
    ],
)
def test_shard_plan_rejects_infeasible_configurations(count, shard_size, needle):
    with pytest.raises(ConfigurationError, match=needle):
        ShardPlan(count=count, shard_size=shard_size)


# -- exact weighted percentiles --------------------------------------------------------


@given(
    counts=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=12),
    percentile=st.floats(min_value=0.0, max_value=100.0),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_weighted_percentile_matches_numpy_on_multisets(
    counts, percentile, data
):
    values = np.sort(
        np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=-50, max_value=50),
                    min_size=len(counts),
                    max_size=len(counts),
                    unique=True,
                )
            )
        )
    )
    expanded = np.repeat(values, counts)
    result = weighted_percentile(
        values, np.asarray(counts), (percentile, 50.0)
    )
    assert result[0] == np.percentile(expanded, percentile)
    assert result[1] == np.percentile(expanded, 50.0)


def test_weighted_percentile_validates_inputs():
    values = np.asarray([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        weighted_percentile(np.asarray([2.0, 1.0]), np.asarray([1, 1]), (50.0,))
    with pytest.raises(ConfigurationError):
        weighted_percentile(values, np.asarray([1, -1]), (50.0,))
    with pytest.raises(ConfigurationError):
        weighted_percentile(values, np.asarray([1, 1]), (101.0,))


# -- row-wise quantiles equal the per-row oracle, bit for bit ------------------------


def _trace_matrix(traces):
    """A ``{"p5": ..., "p50": ..., "p95": ...}`` dict as its (steps, 3) matrix."""
    return np.column_stack(
        [np.asarray(traces[f"p{int(p)}"], dtype=float) for p in STREAM_PERCENTILES]
    )


def _assert_rows_match_the_oracle(histogram, values):
    """Every row-wise quantile path of *histogram* (and of its counts over
    *values*) has the per-row oracle's bits."""
    assert (
        _trace_matrix(histogram.percentile_traces()).tobytes()
        == oracle.histogram_percentile_matrix(histogram).tobytes()
    )
    exact = TraceValueCounts(values=values, counts=histogram.counts)
    assert (
        _trace_matrix(exact.percentile_traces()).tobytes()
        == oracle.value_percentile_matrix(exact).tobytes()
    )
    row = histogram.counts[0]
    accumulator = ScalarAccumulator(
        spec=histogram.spec,
        counts=row,
        minimum=float(histogram.minima[0]),
        maximum=float(histogram.maxima[0]),
    )
    expected = oracle.histogram_quantiles(
        row,
        histogram.spec,
        accumulator.minimum,
        accumulator.maximum,
        STREAM_PERCENTILES,
    )
    assert np.asarray(accumulator.quantiles()).tobytes() == expected.tobytes()
    assert (
        weighted_percentile(values, row, STREAM_PERCENTILES).tobytes()
        == oracle.weighted_percentile(values, row, STREAM_PERCENTILES).tobytes()
    )


@given(
    rows=st.integers(min_value=1, max_value=12),
    bins=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_row_wise_quantiles_equal_the_per_row_oracle(rows, bins, data):
    cells = st.one_of(st.just(0), st.just(0), st.integers(min_value=1, max_value=9))
    counts = np.asarray(
        data.draw(
            st.lists(
                st.lists(cells, min_size=bins, max_size=bins),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    counts[counts.sum(axis=1) == 0, data.draw(st.integers(0, bins - 1))] = 1
    spec = HistogramSpec(lo=-2.0, hi=3.0, bins=bins)
    low = data.draw(st.floats(min_value=-3.0, max_value=0.5))
    high = data.draw(st.floats(min_value=0.5, max_value=4.0))
    histogram = TraceHistogram(
        spec=spec,
        counts=counts,
        minima=np.full(rows, low),
        maxima=np.linspace(high, high + 1.0, rows),
    )
    values = np.cumsum(
        np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1e9),
                    min_size=bins,
                    max_size=bins,
                )
            )
        )
    )
    _assert_rows_match_the_oracle(histogram, values)


def test_row_wise_quantiles_of_a_real_shard_equal_the_per_row_oracle():
    dice = 4096
    shard = run_cell_shard(
        get_spec("darkgates", tdp_w=65.0),
        build_scenario("burst", time_step_s=1.0),
        skylake_process_variation(),
        dice,
        0,
        0,
        dice,
        skylake_binning_policy(),
    )
    for histogram in (shard.power, shard.temperature):
        spec = histogram.spec
        _assert_rows_match_the_oracle(
            histogram, spec.lo + spec.width * np.arange(spec.bins)
        )
    frequency = shard.frequency
    assert (
        _trace_matrix(frequency.percentile_traces()).tobytes()
        == oracle.value_percentile_matrix(frequency).tobytes()
    )
    for accumulator in (shard.sustained, shard.average_power, shard.peak_temperature):
        expected = oracle.histogram_quantiles(
            accumulator.counts,
            accumulator.spec,
            accumulator.minimum,
            accumulator.maximum,
            STREAM_PERCENTILES,
        )
        assert np.asarray(accumulator.quantiles()).tobytes() == expected.tobytes()


def test_a_population_pass_does_not_import_numpy_ma(tmp_path):
    """``np.unique`` without ``return_*`` flags and ``np.percentile`` import
    ``numpy.ma`` (about 14 ms); a cold or warm population pass calls neither."""
    script = (
        "import contextlib, io, sys\n"
        "from repro.store.cli import main\n"
        "argv = ['run', '--spec', 'darkgates', '--scenario', 'burst',"
        " '--population', '64', '--shard-size', '32',"
        " '--opt', 'time_step_s=10', '--seed', '7', '--store', sys.argv[1]]\n"
        "for label in ('cold', 'warm'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(label, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        capture_output=True, text=True, env=env, check=True,
    )  # fmt: skip
    assert run.stdout.splitlines() == ["cold False", "warm False"]


# -- histogram-backed quantiles stay within one bin width ------------------------------


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=64
    ),
    bins=st.sampled_from([16, 64, 256]),
)
@settings(max_examples=60, deadline=None)
def test_scalar_accumulator_quantiles_within_bin_width(values, bins):
    spec = HistogramSpec(lo=0.0, hi=10.0, bins=bins)
    accumulator = ScalarAccumulator.from_values(
        spec, np.asarray(values), shard_index=0
    )
    exact = np.percentile(np.asarray(values), [5.0, 50.0, 95.0])
    for estimate, reference in zip(accumulator.quantiles(), exact):
        assert abs(estimate - reference) <= spec.width
    # The exact bits really are exact.
    assert accumulator.mean() == np.asarray(values, dtype=float).mean()
    assert accumulator.summary().minimum == min(values)
    assert accumulator.summary().maximum == max(values)


def test_histogram_spec_validates_range():
    with pytest.raises(ConfigurationError):
        HistogramSpec(lo=1.0, hi=1.0)
    with pytest.raises(ConfigurationError):
        HistogramSpec(lo=0.0, hi=1.0, bins=0)


# -- merge algebra (hypothesis) --------------------------------------------------------


_chunkable = st.lists(
    st.floats(min_value=-4.0, max_value=4.0), min_size=2, max_size=40
)


def _accumulate_chunks(spec, values, cuts):
    """One accumulator per contiguous chunk of *values* split at *cuts*."""
    edges = [0, *sorted(cuts), len(values)]
    chunks = []
    for shard, (start, stop) in enumerate(zip(edges, edges[1:])):
        if stop > start:
            chunks.append(
                ScalarAccumulator.from_values(
                    spec, np.asarray(values[start:stop]), shard_index=shard
                )
            )
    return chunks


@given(values=_chunkable, data=st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_merge_is_order_independent_and_rechunking_invariant(
    values, data
):
    spec = HistogramSpec(lo=-4.0, hi=4.0, bins=32)
    cut_strategy = st.sets(
        st.integers(min_value=1, max_value=len(values) - 1), max_size=3
    )
    first = _accumulate_chunks(spec, values, data.draw(cut_strategy))
    second = _accumulate_chunks(spec, values, data.draw(cut_strategy))

    def reduce_in(order, chunks):
        merged = chunks[order[0]]
        for position in order[1:]:
            merged = merged.merge(chunks[position])
        return merged

    forward = reduce_in(list(range(len(first))), first)
    backward = reduce_in(list(reversed(range(len(first)))), first)
    other_chunking = reduce_in(list(range(len(second))), second)

    # Same multiset of values => identical summaries, regardless of merge
    # order or how the population was cut into shards; the mean is
    # bitwise identical (per-shard partials reduce in shard order).
    assert forward.summary() == backward.summary()
    assert forward.mean() == backward.mean()
    assert forward.summary().quantiles() == other_chunking.summary().quantiles()
    assert forward.count == len(values)


@given(
    matrix=st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    ),
    cut=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_trace_value_counts_merge_commutes_and_matches_full_matrix(matrix, cut):
    full = np.asarray(matrix, dtype=np.int8)
    levels = np.array([0.0, 1.0e9, 1.5e9, 2.0e9, 3.1e9, 4.0e9])
    left = TraceValueCounts.from_codes(full[:, :cut], levels)
    right = TraceValueCounts.from_codes(full[:, cut:], levels)
    ab = left.merge(right)
    ba = right.merge(left)
    whole = TraceValueCounts.from_codes(full, levels)
    assert ab.to_dict() == ba.to_dict() == whole.to_dict()
    assert ab.percentile_traces() == whole.percentile_traces()


@given(
    counts=st.dictionaries(
        st.sampled_from(["premium", "mainstream", "scrap"]),
        st.integers(min_value=0, max_value=1000),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_yield_fractions_sum_to_one(counts):
    total = sum(counts.values())
    if total == 0:
        counts[next(iter(counts))] = 1
        total = 1
    result = StreamingBinningResult(
        spec_name="darkgates", counts=counts, count=total
    )
    assert math.isclose(sum(result.yield_fractions.values()), 1.0)
    rebuilt = StreamingBinningResult.from_dict(result.to_dict())
    assert rebuilt == result


# -- shard-task streaming equivalence --------------------------------------------------


def test_shard_streaming_matches_monolithic(monolithic, streamed):
    exact = {
        key: tuple(
            np.percentile(
                np.ascontiguousarray(monolithic.frequencies_hz),
                p,
                axis=1,
            ).tolist()
        )
        for key, p in (("p5", 5.0), ("p50", 50.0), ("p95", 95.0))
    }
    result = streamed.finalize(SHARD)
    assert isinstance(streamed, StreamingCellShard)
    assert isinstance(result, StreamingCellResult)
    assert result.count == DICE and result.n_shards == 3
    assert result.frequency_percentiles_hz == exact

    bounds = result.quantile_error_bounds
    assert bounds["frequency_hz"] == 0.0
    for attribute, matrix, bound_key in (
        ("power_percentiles_w", monolithic.package_powers_w, "power_w"),
        (
            "temperature_percentiles_c",
            monolithic.temperatures_c,
            "temperature_c",
        ),
    ):
        estimates = getattr(result, attribute)
        for key, p in (("p5", 5.0), ("p50", 50.0), ("p95", 95.0)):
            reference = np.percentile(
                np.ascontiguousarray(matrix), p, axis=1
            )
            worst = float(
                np.max(np.abs(np.asarray(estimates[key]) - reference))
            )
            assert worst <= bounds[bound_key]


def test_shard_streaming_merge_is_associative(shards):
    left = shards[0].merge(shards[1]).merge(shards[2])
    right = shards[0].merge(shards[1].merge(shards[2]))
    swapped = shards[2].merge(shards[0]).merge(shards[1])
    assert (
        left.finalize(SHARD)
        == right.finalize(SHARD)
        == swapped.finalize(SHARD)
        == merge_cell_shards(shards).finalize(SHARD)
    )


# -- study-level streaming equivalence -------------------------------------------------


def _population_study(method, **kwargs):
    scenario = burst_scenario(
        idle_lead_s=2.0,
        burst_s=6.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.5,
    )
    return Study.over_population(
        ("darkgates",),
        (scenario,),
        skylake_process_variation(),
        count=64,
        tdp_levels_w=(65.0,),
        seed=SEED,
        method=method,
        name=f"streaming-equivalence-{method}",
        **kwargs,
    )


@pytest.fixture(scope="module")
def fast_result():
    return _population_study("fast").run()


@pytest.fixture(scope="module")
def streaming_result():
    return _population_study("streaming", shard_size=16).run()


def test_study_streaming_matches_fast_exact_statistics(
    fast_result, streaming_result
):
    fast_cell = fast_result.cells[0]
    cell = streaming_result.cells[0]
    assert cell.frequency_percentiles_hz == fast_cell.frequency_percentiles_hz
    assert cell.limiting_histogram == fast_cell.limiting_histogram
    nonzero = {k: v for k, v in cell.final_limiting_counts.items() if v}
    assert nonzero == dict(Counter(fast_cell.final_limiting))
    assert streaming_result.bin_yields("darkgates") == fast_result.bin_yields(
        "darkgates"
    )
    assert math.isclose(
        sum(streaming_result.bin_yields("darkgates").values()), 1.0
    )


def test_study_streaming_bounded_statistics_within_bounds(
    fast_result, streaming_result
):
    fast_cell = fast_result.cells[0]
    cell = streaming_result.cells[0]
    bounds = cell.quantile_error_bounds
    sustained = np.percentile(
        np.asarray(fast_cell.sustained_frequency_hz), [5.0, 50.0, 95.0]
    )
    worst = max(
        abs(a - b)
        for a, b in zip(cell.sustained_summary.quantiles(), sustained)
    )
    assert worst <= bounds["sustained_frequency_hz"]
    # Exact bits of the summaries match the per-die tuples exactly.
    assert cell.sustained_summary.mean == np.mean(
        np.asarray(fast_cell.sustained_frequency_hz)
    )
    assert cell.sustained_summary.minimum == min(
        fast_cell.sustained_frequency_hz
    )
    assert cell.sustained_summary.maximum == max(
        fast_cell.sustained_frequency_hz
    )
    # Per-bin sustained quantiles agree with exact per-bin subsets within
    # the bound (bins measured on the base design's candidate table).
    assignments = fast_result.spec_binning("darkgates").assignments
    policy = skylake_binning_policy()
    per_die = np.asarray(fast_cell.sustained_frequency_hz)
    for index, name in enumerate(policy.bin_names):
        subset = per_die[np.asarray(assignments) == index]
        if not subset.size or name not in cell.sustained_by_bin:
            continue
        exact = np.percentile(subset, [5.0, 50.0, 95.0])
        estimate = cell.sustained_by_bin[name].quantiles()
        assert max(
            abs(a - b) for a, b in zip(estimate, exact)
        ) <= bounds["sustained_frequency_hz"]


def test_study_streaming_process_pool_is_identical(streaming_result):
    pooled = _population_study("streaming", shard_size=16, max_workers=2).run()
    assert pooled.cells == streaming_result.cells
    assert pooled.binning == streaming_result.binning


def test_streaming_result_json_round_trip(streaming_result):
    text = streaming_result.to_json()
    rebuilt = PopulationResult.from_json(text)
    assert rebuilt == streaming_result
    assert rebuilt.shard_size == 16
    assert rebuilt.method == "streaming"
    # Canonical JSON (sorted keys, no NaN) re-serialises identically.
    assert json.loads(rebuilt.to_json()) == json.loads(text)


def test_streaming_payloads_round_trip_to_dict(streamed):
    result = streamed.finalize(SHARD)
    rebuilt = StreamingCellShard.from_dict(streamed.to_dict())
    assert rebuilt.to_dict() == streamed.to_dict()
    assert rebuilt.finalize(SHARD) == result
    assert StreamingCellResult.from_dict(result.to_dict()) == result
    payload = result.to_dict()
    assert payload["kind"] == "streaming_cell"
    assert "schema_version" in payload
    histogram = TraceHistogram.from_dict(streamed.power.to_dict())
    assert histogram.to_dict() == streamed.power.to_dict()
    counts = TraceCounts.from_dict(streamed.limiting.to_dict())
    assert counts.to_dict() == streamed.limiting.to_dict()
    values = TraceValueCounts.from_dict(streamed.frequency.to_dict())
    assert values.to_dict() == streamed.frequency.to_dict()


def test_streaming_cell_rejects_unkept_quantiles(streamed):
    result = streamed.finalize(SHARD)
    with pytest.raises(ConfigurationError, match="method='fast'"):
        result.sustained_quantiles_ghz(quantiles=(10.0,))


# -- study validation and merge guards -------------------------------------------------


def test_population_study_streaming_requires_shard_size():
    with pytest.raises(ConfigurationError, match="needs a shard_size"):
        _population_study("streaming")


def test_population_study_rejects_shard_size_off_streaming():
    with pytest.raises(ConfigurationError, match="only applies"):
        _population_study("fast", shard_size=16)
    assert "streaming" in PopulationStudy.METHODS


def test_scalar_accumulator_merge_guards():
    spec = HistogramSpec(lo=0.0, hi=1.0, bins=8)
    shard = ScalarAccumulator.from_values(
        spec, np.asarray([0.25, 0.75]), shard_index=0
    )
    other_grid = ScalarAccumulator.from_values(
        HistogramSpec(lo=0.0, hi=2.0, bins=8),
        np.asarray([0.5]),
        shard_index=1,
    )
    with pytest.raises(ConfigurationError, match="different histogram grids"):
        shard.merge(other_grid)
    with pytest.raises(ConfigurationError, match="contributed twice"):
        shard.merge(shard)


def test_cell_shard_merge_rejects_different_cells(spec, scenario):
    model = skylake_process_variation()
    policy = skylake_binning_policy()
    shard = run_cell_shard(spec, scenario, model, 16, SEED, 0, 8, policy)
    hotter = burst_scenario(
        idle_lead_s=2.0,
        burst_s=8.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.5,
    )
    other = run_cell_shard(spec, hotter, model, 16, SEED, 1, 8, policy)
    with pytest.raises(ConfigurationError):
        shard.merge(other)
    with pytest.raises(ConfigurationError, match="zero"):
        merge_cell_shards([])


def test_merge_binning_shards_guards():
    with pytest.raises(ConfigurationError, match="zero"):
        merge_binning_shards("darkgates", [], 0)
    with pytest.raises(ConfigurationError, match="alphabet"):
        merge_binning_shards("darkgates", [{"a": 1}, {"b": 1}], 2)
    with pytest.raises(ConfigurationError, match="missing or duplicated"):
        merge_binning_shards("darkgates", [{"a": 1}, {"a": 1}], 3)


def test_run_binning_shard_matches_population_prefix():
    spec = resolve_spec("darkgates")
    model = skylake_process_variation()
    policy = skylake_binning_policy()
    first = run_binning_shard(spec, model, 256, SEED, 0, 64, policy)
    # The same 64 dice binned as shard 0 of a differently-sized population.
    second = run_binning_shard(spec, model, 4096, SEED, 0, 64, policy)
    assert first == second
    assert sum(first.values()) == 64


def test_run_cell_shard_is_the_study_task(scenario):
    spec = resolve_spec("darkgates").variant(tdp_w=65.0)
    shard = run_cell_shard(
        spec,
        scenario,
        skylake_process_variation(),
        32,
        SEED,
        0,
        16,
        skylake_binning_policy(),
        binning_spec=resolve_spec("darkgates"),
    )
    assert isinstance(shard, StreamingCellShard)
    assert shard.count == 16
    assert shard.spec == spec
