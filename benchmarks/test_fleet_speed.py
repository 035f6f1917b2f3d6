"""Fleet-ensemble performance — batched lockstep execution versus per-scenario runs.

``FleetStudy`` compiles an ensemble of seeded fleet scenarios per profile
and rides the batched dynamics engine, so a 64-member ensemble costs one
lockstep sweep instead of 64 per-step Python loops.  This benchmark
compiles an ensemble-of-64 from a fleet profile, runs it through
``BatchedDynamicsSimulator.run_batch`` and through the per-scenario
``DynamicsSimulator`` oracle (``tests/oracles/dynamics.py``), asserts
bin-exact equivalence plus
identical QoS reports, and records the timings to
``benchmarks/output/fleet_benchmark.json`` so CI can track the perf
trajectory across PRs (see ``benchmarks/perf_track.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.spec import build_engine, get_spec
from repro.fleet import QosReport, ScenarioGenerator, fleet_profile
from repro.sim.dynamics import BatchedDynamicsSimulator

from oracles.dynamics import DynamicsSimulator

#: Where the timing artifact lands (overridable for local experiments).
OUTPUT_PATH = Path(
    os.environ.get(
        "FLEET_BENCH_OUT",
        Path(__file__).parent / "output" / "fleet_benchmark.json",
    )
)

#: CI-safe floor; the measured speedup on the 64-member ensemble is
#: typically well above the 5x acceptance bar, but shared runners are noisy.
MIN_SPEEDUP = 5.0

ENSEMBLE = 64
SEED = 11
SPEC_NAME = "darkgates"
PROFILE_NAME = "datacenter"


def _build_ensemble():
    profile = fleet_profile(PROFILE_NAME, time_step_s=0.05)
    scenarios = ScenarioGenerator(profile).ensemble(seed=SEED, count=ENSEMBLE)
    pcode = build_engine(get_spec(SPEC_NAME)).pcode
    return [(pcode, scenario) for scenario in scenarios]


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_fleet_ensemble_speedup(benchmark):
    pairs = _build_ensemble()
    simulator = BatchedDynamicsSimulator()

    # Warm shared caches (candidate tables, sustained points), then measure
    # steady-state stepping cost symmetrically: best of the same number of
    # rounds on each side.
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
    qos_exact = all(
        QosReport.from_result(r) == QosReport.from_result(b)
        for r, b in zip(reference, batched)
    )
    max_dtemp_c = max(
        float(np.abs(np.array(r.temperatures_c) - np.array(b.temperatures_c)).max())
        for r, b in zip(reference, batched)
    )

    total_steps = sum(len(r.times_s) for r in reference)
    payload = {
        "ensemble": {
            "spec": SPEC_NAME,
            "profile": PROFILE_NAME,
            "members": ENSEMBLE,
            "seed": SEED,
        },
        "runs": len(pairs),
        "total_steps": total_steps,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup_batched_vs_reference": speedup,
        "bin_exact": bin_exact,
        "qos_exact": qos_exact,
        "max_abs_dtemperature_c": max_dtemp_c,
    }
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2))

    print()
    print(f"ensemble: {len(pairs)} members, {total_steps} steps total")
    print(f"reference (per-scenario):  {reference_s * 1e3:8.1f} ms")
    print(f"batched (lockstep):        {batched_s * 1e3:8.1f} ms  ({speedup:.1f}x)")
    print(f"max |dT| vs reference:     {max_dtemp_c:.2e} C")
    print(f"timing artifact:           {OUTPUT_PATH}")

    assert len(pairs) == ENSEMBLE
    assert bin_exact, "batched path diverged from the reference frequency bins"
    assert qos_exact, "batched path produced different QoS reports"
    assert max_dtemp_c <= 1e-9
    assert speedup >= MIN_SPEEDUP
