"""Frequency traces as int8 codes into a level table, exact end to end.

The lockstep loop writes each step's frequency as a code (bin + 1, or 0 on
an idle step) into a per-run level table (0.0 Hz, then the run's grid),
:class:`~repro.sim.metrics.DynamicRunResult` compacts the table to the
levels the run visits, and the streaming population path counts codes
instead of floats.  Every stage must give back the float traces bit for
bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, get_spec
from repro.pmu.dvfs import (
    LIMITING_FACTOR_CODES,
    CandidateTable,
    LimitingFactor,
    StackedCandidateTables,
)
from repro.sim.dynamics import _ActiveSegment
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    MAX_FREQUENCY_LEVELS,
    DynamicRunResult,
    encode_frequencies,
)
from repro.store.artifacts import encode_value
from repro.variation.binning import skylake_binning_policy
from repro.variation.distributions import skylake_process_variation
from repro.variation.sampler import DiePopulationSampler
from repro.variation.streaming import (
    ScalarAccumulator,
    TraceValueCounts,
    run_cell_shard,
)
from repro.workloads.dynamics import build_scenario, burst_scenario

GRID = get_spec("darkgates").build().vf_curve.frequency_grid.points()


@given(st.lists(st.sampled_from([0.0, *GRID]), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_encode_frequencies_round_trips_grid_values_and_zeros(trace):
    values = np.array(trace)
    codes, levels = encode_frequencies(values)
    assert codes.dtype == np.int8 and codes.shape == values.shape
    assert levels[0] == 0.0 and np.all(levels[1:] > levels[:-1])
    assert levels.take(codes).tobytes() == values.tobytes()


@given(
    st.lists(st.integers(min_value=0, max_value=len(GRID)), min_size=1, max_size=300)
)
@settings(max_examples=100, deadline=None)
def test_a_run_keeps_exactly_the_levels_its_steps_use(codes):
    full = np.array([0.0, *GRID])
    steps = len(codes)
    result = DynamicRunResult(
        scenario_name="unit",
        time_step_s=0.1,
        pl1_w=35.0,
        pl2_w=44.0,
        frequency_codes=codes,
        frequency_levels_hz=full,
        package_powers_w=[10.0] * steps,
        temperatures_c=[50.0] * steps,
        average_powers_w=[10.0] * steps,
        limiting_codes=[0] * steps,
        cstate_codes=[0] * steps,
        cstate_names=("C0",),
    )
    used = sorted(set(full[codes]) - {0.0})
    assert result.frequency_levels_hz.tolist() == [0.0, *used]
    assert result.frequencies_hz.tobytes() == full[codes].tobytes()


def _burst_run() -> DynamicRunResult:
    engine = SimulationEngine(get_spec("darkgates", tdp_w=35.0).build())
    return engine.run(burst_scenario(idle_lead_s=5.0, burst_s=30.0, time_step_s=0.5))


def _with_levels(result, codes, levels) -> DynamicRunResult:
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return DynamicRunResult(
        **{**fields, "frequency_codes": codes, "frequency_levels_hz": levels}
    )


def test_full_and_compact_level_tables_build_equal_runs():
    result = _burst_run()
    full = np.array([0.0, *GRID])
    from_full = _with_levels(
        result, np.searchsorted(full, result.frequencies_hz).astype(np.int8), full
    )
    compact_codes, compact = encode_frequencies(result.frequencies_hz)
    from_compact = _with_levels(result, compact_codes, compact)
    assert from_full == from_compact == result
    assert len(from_full.frequency_levels_hz) < len(full)
    for run in (from_full, from_compact):
        assert np.array_equal(run.frequency_levels_hz, result.frequency_levels_hz)
        assert np.array_equal(run.frequency_codes, result.frequency_codes)
        assert run.trace_table().tobytes() == result.trace_table().tobytes()
        assert json.dumps(encode_value(run), sort_keys=True) == json.dumps(
            encode_value(result), sort_keys=True
        )


def test_idle_steps_are_exactly_code_zero():
    result = _burst_run()
    idle = result.frequency_codes == 0
    assert idle.any() and not idle.all()
    assert np.array_equal(idle, result.cstate_codes != 0)
    assert np.array_equal(idle, result.frequencies_hz == 0.0)


def test_a_table_of_129_levels_is_rejected():
    levels = np.arange(MAX_FREQUENCY_LEVELS + 1) * 1e8
    result = _burst_run()
    codes = np.zeros(result.steps, dtype=np.int8)
    _with_levels(result, codes, levels[:MAX_FREQUENCY_LEVELS])
    with pytest.raises(ConfigurationError, match="129 frequency levels"):
        _with_levels(result, codes, levels)
    with pytest.raises(ConfigurationError, match="int8"):
        encode_frequencies(levels)


def test_a_grid_of_128_bins_is_rejected_by_the_lockstep_loop():
    bins = MAX_FREQUENCY_LEVELS
    table = CandidateTable(
        frequencies_hz=np.arange(1, bins + 1) * 1e8,
        vr_voltages_v=np.linspace(0.7, 1.0, bins),
        power_voltages_v=np.linspace(0.68, 0.98, bins),
        active_dynamic_w=np.linspace(1.0, 9.0, bins),
        active_leakage_groups=(),
        idle_leakage_groups=(),
        uncore_power_w=0.5,
        graphics_idle_power_w=0.05,
        vmax_ok=np.ones(bins, dtype=bool),
        iccmax_ok=np.ones(bins, dtype=bool),
        vmax_v=1.1,
    )
    rows = np.arange(1)
    with pytest.raises(ConfigurationError, match="int8"):
        _ActiveSegment(
            StackedCandidateTables.from_tables([table]),
            rows,
            rows,
            np.ones(1, dtype=bool),
            np.array([bins - 1]),
            np.array([LIMITING_FACTOR_CODES[LimitingFactor.NONE]]),
        )


def _float_value_counts(matrix):
    """Per-step value counts of a float trace matrix, the way they were
    taken before frequencies became codes."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    steps = matrix.shape[0]
    values = np.unique(matrix)
    index = np.searchsorted(values, matrix)
    rows = np.arange(steps)[:, None]
    flat = (rows * values.size + index).ravel()
    counts = np.bincount(flat, minlength=steps * values.size)
    return values, counts.reshape(steps, values.size)


def test_shard_accumulators_from_codes_equal_the_float_ones():
    spec = get_spec("darkgates", tdp_w=65.0)
    scenario = build_scenario("burst", time_step_s=1.0)
    variations = skylake_process_variation()
    dice = 4096
    population = DiePopulationSampler(variations).sample_range(0, dice, 0)
    traces = build_engine(spec).run_population(scenario, population)
    frequencies = traces.frequencies_hz
    values, counts = _float_value_counts(frequencies)
    coded = TraceValueCounts.from_codes(
        traces.frequency_codes, traces.frequency_levels_hz
    )
    assert np.array_equal(coded.values, values)
    assert np.array_equal(coded.counts, counts)

    shard = run_cell_shard(
        spec, scenario, variations, dice, 0, 0, dice, skylake_binning_policy()
    )
    assert np.array_equal(shard.frequency.values, values)
    assert np.array_equal(shard.frequency.counts, counts)
    active = np.flatnonzero((frequencies > 0.0).any(axis=1))
    tail = active[-max(1, len(active) // 10) :]
    sustained = ScalarAccumulator.from_values(
        shard.sustained.spec, frequencies[tail].mean(axis=0), 0
    )
    assert shard.sustained.to_dict() == sustained.to_dict()
