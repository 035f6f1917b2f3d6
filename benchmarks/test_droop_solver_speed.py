"""Droop-solver performance — vectorized engine versus the seed per-stage RK4.

The transient rework replaced the per-step pure-Python RK4 (re-entering
Python loops four times per 0.5 ns step) with a precomputed state-space
propagator evaluated by a vectorized prefix scan.  This benchmark runs the
acceptance workload — a 4 us / 0.5 ns power-gated core-wake trace on the
gated Skylake ladder — through both engines, checks waveform equivalence,
and records the timings to ``benchmarks/output/droop_benchmark.json`` so CI
can archive the perf trajectory across PRs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.pdn.droop import DroopSimulator
from repro.pdn.ladder import PdnConfiguration, SkylakePdnBuilder
from repro.pdn.transients import core_wake_trace

from oracles.droop import ReferenceDroopSimulator

#: Where the timing artifact lands (overridable for local experiments).
OUTPUT_PATH = Path(
    os.environ.get(
        "DROOP_BENCH_OUT",
        Path(__file__).parent / "output" / "droop_benchmark.json",
    )
)

#: CI-safe floor; the measured speedup is typically 20-40x (>= the 10x
#: acceptance bar) but shared runners are noisy.
MIN_SPEEDUP = 5.0


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_droop_solver_speedup(benchmark):
    simulator = DroopSimulator(
        SkylakePdnBuilder(PdnConfiguration()).build_ladder(), nominal_voltage_v=1.0
    )
    oracle = ReferenceDroopSimulator.like(simulator)
    trace = core_wake_trace(duration_s=4e-6)
    time_step_s = 0.5e-9

    def run(method: str):
        if method == "reference":
            return oracle.simulate_profile(
                trace, trace.duration_s, time_step_s=time_step_s
            )
        return simulator.simulate_profile(
            trace, trace.duration_s, time_step_s=time_step_s, method=method
        )

    reference_s = _time(lambda: run("reference"))
    # Warm the discretization caches, then measure steady-state cost.
    run("scan")
    scan_s = _time(lambda: run("scan"))
    exact_s = _time(lambda: run("exact"))

    vectorized = benchmark.pedantic(
        lambda: run("scan"), rounds=3, iterations=1, warmup_rounds=0
    )
    reference = run("reference")
    max_delta_v = float(
        np.abs(vectorized.load_voltage_v - reference.load_voltage_v).max()
    )
    speedup = reference_s / scan_s

    payload = {
        "trace": trace.name,
        "duration_s": trace.duration_s,
        "time_step_s": time_step_s,
        "steps": len(reference.time_s) - 1,
        "reference_s": reference_s,
        "scan_s": scan_s,
        "exact_s": exact_s,
        "speedup_scan_vs_reference": speedup,
        "max_abs_delta_v": max_delta_v,
        "worst_droop_v": vectorized.worst_droop_v,
    }
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2))

    print()
    print(f"reference (seed RK4): {reference_s * 1e3:8.1f} ms")
    print(f"scan (vectorized):    {scan_s * 1e3:8.1f} ms  ({speedup:.1f}x)")
    print(f"exact:                {exact_s * 1e3:8.1f} ms")
    print(f"max |dV| vs seed:     {max_delta_v:.2e} V")
    print(f"timing artifact:      {OUTPUT_PATH}")

    assert max_delta_v <= 1e-4
    assert speedup >= MIN_SPEEDUP
