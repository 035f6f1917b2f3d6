"""Dynamics-sweep performance — batched lockstep engine versus the per-run loop.

The closed-loop dynamics engine originally resolved one scenario at a time
through a per-step Python loop, so ``Study.over_dynamics`` sweeps paid
interpreter overhead on every step of every grid cell.  The batched fast
path steps the whole grid in lockstep as numpy arrays.  This benchmark runs
a realistic sweep grid — specs x scenarios x TDP levels, every run a full
turbo/thermal/DVFS/C-state trajectory — through the batched engine and
the per-run oracle (``tests/oracles/dynamics.py``), asserts
bin-exact trace equivalence, and records the timings to
``benchmarks/output/dynamics_benchmark.json`` so CI can track the perf
trajectory across PRs (see ``benchmarks/perf_track.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.spec import build_engine, get_spec
from repro.sim.dynamics import BatchedDynamicsSimulator
from repro.workloads.dynamics import (
    burst_scenario,
    sprint_and_rest_scenario,
    sustained_scenario,
)

from oracles.dynamics import DynamicsSimulator

#: Where the timing artifact lands (overridable for local experiments).
OUTPUT_PATH = Path(
    os.environ.get(
        "DYNAMICS_BENCH_OUT",
        Path(__file__).parent / "output" / "dynamics_benchmark.json",
    )
)

#: CI-safe floor; the measured speedup on the 192-run grid is typically
#: 12-15x (>= the 10x acceptance bar) but shared runners are noisy.
MIN_SPEEDUP = 5.0

#: The sweep grid: 2 specs x 6 scenarios x 16 TDP levels = 192 runs,
#: ~1800 steps each (>= the 32-run acceptance grid).
SPEC_NAMES = ("darkgates", "baseline")
TDP_LEVELS_W = tuple(float(t) for t in np.linspace(35.0, 91.0, 16))
SCENARIOS = (
    burst_scenario(
        idle_lead_s=10.0,
        burst_s=80.0,
        thermal_capacitance_j_per_c=5.0,
        time_step_s=0.05,
    ),
    sprint_and_rest_scenario(sprint_s=20.0, rest_s=10.0, cycles=3, time_step_s=0.05),
    sustained_scenario(duration_s=90.0, time_step_s=0.05),
    burst_scenario(idle_lead_s=5.0, burst_s=85.0, active_cores=2, time_step_s=0.05),
    sprint_and_rest_scenario(
        sprint_s=10.0, rest_s=5.0, cycles=6, active_cores=1, time_step_s=0.05
    ),
    sustained_scenario(
        duration_s=90.0, active_cores=3, activity=0.8, time_step_s=0.05
    ),
)


def _build_grid():
    pairs = []
    for name in SPEC_NAMES:
        for tdp_w in TDP_LEVELS_W:
            pcode = build_engine(get_spec(name).variant(tdp_w=tdp_w)).pcode
            for scenario in SCENARIOS:
                pairs.append((pcode, scenario))
    return pairs


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_dynamics_batch_speedup(benchmark):
    pairs = _build_grid()
    simulator = BatchedDynamicsSimulator()

    # Warm every cache both paths share (candidate tables, sustained
    # points, engine builds), then measure steady-state stepping cost
    # symmetrically: best of the same number of rounds on each side.
    batched = simulator.run_batch(pairs)

    def run_reference():
        # The per-run oracle reads the sustained points the batch stored
        # on each DVFS policy, so both sides time stepping, not
        # sustained-point solves.
        return [DynamicsSimulator(pcode).run(s) for pcode, s in pairs]

    reference_s = min(
        _time(run_reference)
        for _ in range(2)
    )
    batched_s = min(_time(lambda: simulator.run_batch(pairs)) for _ in range(2))
    benchmark.pedantic(
        lambda: simulator.run_batch(pairs), rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = reference_s / batched_s

    reference = run_reference()
    bin_exact = all(
        np.array_equal(r.frequencies_hz, b.frequencies_hz)
        and np.array_equal(r.limiting_codes, b.limiting_codes)
        and np.array_equal(r.package_cstates, b.package_cstates)
        for r, b in zip(reference, batched)
    )
    max_dtemp_c = max(
        float(np.abs(np.array(r.temperatures_c) - np.array(b.temperatures_c)).max())
        for r, b in zip(reference, batched)
    )
    max_dpower_w = max(
        float(
            np.abs(
                np.array(r.package_powers_w) - np.array(b.package_powers_w)
            ).max()
        )
        for r, b in zip(reference, batched)
    )

    total_steps = sum(len(r.times_s) for r in reference)
    # Absolute lockstep cost: every step of the longest run is one step of
    # the whole batch.
    lockstep_steps = max(len(r.times_s) for r in batched)
    payload = {
        "grid": {
            "specs": list(SPEC_NAMES),
            "tdp_levels_w": list(TDP_LEVELS_W),
            "scenarios": [scenario.name for scenario in SCENARIOS],
        },
        "runs": len(pairs),
        "total_steps": total_steps,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup_batched_vs_reference": speedup,
        "batched_us_per_lockstep_step": batched_s / lockstep_steps * 1e6,
        "batched_run_steps_per_s": total_steps / batched_s,
        "bin_exact": bin_exact,
        "max_abs_dtemperature_c": max_dtemp_c,
        "max_abs_dpower_w": max_dpower_w,
    }
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2))

    print()
    print(f"grid: {len(pairs)} runs, {total_steps} steps total")
    print(f"reference (per-run loop): {reference_s * 1e3:8.1f} ms")
    print(f"batched (lockstep):       {batched_s * 1e3:8.1f} ms  ({speedup:.1f}x)")
    print(
        f"per lockstep step:        {batched_s / lockstep_steps * 1e6:8.1f} us"
        f"  ({total_steps / batched_s:,.0f} run-steps/s)"
    )
    print(f"max |dT| vs reference:    {max_dtemp_c:.2e} C")
    print(f"max |dP| vs reference:    {max_dpower_w:.2e} W")
    print(f"timing artifact:          {OUTPUT_PATH}")

    assert len(pairs) >= 32
    assert bin_exact, "batched path diverged from the reference frequency bins"
    assert max_dtemp_c <= 1e-9
    assert max_dpower_w <= 1e-9
    assert speedup >= MIN_SPEEDUP
