"""Inverse-query performance — bisection versus the dense sweep it replaces.

``Study.optimize`` answers "minimum TDP sustaining a frequency target" by
bisecting the TDP grid, probing O(log n) cells through the same engine a
dense ``Study.over_dynamics`` sweep would evaluate n times.  This harness
poses the paper's min-TDP question on a 64-level TDP grid against the
closed-loop dynamics engine, solves it both ways on cold caches, asserts
the bisection answer is *identical* to the dense scan's argmin (exactness
is the whole point — see ``tests/test_optimize.py`` for the oracle suite),
and records the timing to ``benchmarks/output/optimize_benchmark.json`` so
CI can track the trajectory across PRs (``benchmarks/perf_track.py`` gates
the ``speedup_bisect_vs_dense`` headline against ``baseline.json``).

The gated sides both probe cell by cell (``PerCellExecutor``), so the
speedup measures probe counts.  The default executor steps a probe round
in one lockstep batch, which makes the dense scan of a dynamics grid cheap;
that time is recorded as ``dense_batched_s`` and not gated.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

from repro.analysis.optimize import (
    Constraint,
    Objective,
    OptimizationSpec,
)
from repro.analysis.study import Study
from repro.workloads.dynamics import sustained_scenario

from oracles.study import PerCellExecutor

#: Where the timing artifact lands (overridable for local experiments).
OUTPUT_PATH = Path(
    os.environ.get(
        "OPTIMIZE_BENCH_OUT",
        Path(__file__).parent / "output" / "optimize_benchmark.json",
    )
)

#: Acceptance floor: bisection must beat the dense sweep by >= 5x on the
#: 64-level grid (log2(64) + 1 = 7 probes against 64 cells puts the
#: expected ratio near 9x; shared CI runners are noisy, hence the floor).
MIN_SPEEDUP = 5.0

#: 64 TDP candidates, 1 W apart — the dense sweep's whole grid.
TDP_GRID = tuple(float(t) for t in range(28, 92))

TARGET_HZ = 3.0e9


def _query(method: str, name: str) -> OptimizationSpec:
    return OptimizationSpec(
        name=name,
        method=method,
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", TARGET_HZ),),
        variables={"tdp_w": TDP_GRID},
    )


def _solve(method: str, name: str, **kwargs: Any):
    """One cold-cache solve, cell by cell unless *kwargs* say otherwise."""
    kwargs.setdefault("executor", PerCellExecutor())
    study = Study.optimize(
        ("darkgates",),
        _query(method, name),
        scenario=sustained_scenario(),
        name=name,
        **kwargs,
    )
    return study, study.run()


def _update_artifact(fields: Dict[str, Any]) -> None:
    """Merge *fields* into the benchmark artifact (tests share one file)."""
    payload: Dict[str, Any] = {}
    if OUTPUT_PATH.exists():
        payload = json.loads(OUTPUT_PATH.read_text())
    payload.update(fields)
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))


def test_optimize_bisect_speedup(benchmark):
    # Warm shared caches (engine build, candidate tables) so the timed
    # sections compare probe counts, not first-touch costs.
    _solve("bisect", "optimize-bench-warm")

    start = time.perf_counter()
    bisect_study, bisect_result = _solve("bisect", "optimize-bench-bisect")
    bisect_s = time.perf_counter() - start

    start = time.perf_counter()
    dense_study, dense_result = _solve("grid", "optimize-bench-dense")
    dense_s = time.perf_counter() - start

    # The same dense scan under the default executor: one lockstep batch.
    start = time.perf_counter()
    _, batched_result = _solve("grid", "optimize-bench-dense-batched", executor=None)
    dense_batched_s = time.perf_counter() - start

    benchmark.pedantic(
        lambda: _solve("bisect", "optimize-bench-bisect"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    speedup = dense_s / bisect_s

    bisect_cell = bisect_result.cells[0]
    dense_cell = dense_result.cells[0]
    identical = (
        bisect_cell.best.variables == dense_cell.best.variables
        and bisect_cell.best.metrics == dense_cell.best.metrics
    )

    _update_artifact(
        {
            "grid_levels": len(TDP_GRID),
            "target_ghz": TARGET_HZ / 1e9,
            "bisect_probes": bisect_cell.probes,
            "dense_probes": dense_cell.probes,
            "bisect_s": bisect_s,
            "dense_s": dense_s,
            "dense_batched_s": dense_batched_s,
            "speedup_bisect_vs_dense": speedup,
            "answers_identical": identical,
            "min_tdp_w": bisect_cell.best.variable("tdp_w"),
        }
    )

    print()
    print(f"min TDP sustaining {TARGET_HZ / 1e9:.1f} GHz on {len(TDP_GRID)} levels")
    print(
        f"dense sweep:  {dense_s:8.2f} s  ({dense_cell.probes} probes)"
    )
    print(f"dense, batched: {dense_batched_s:6.2f} s  (default executor, not gated)")
    print(
        f"bisection:    {bisect_s:8.2f} s  ({bisect_cell.probes} probes, "
        f"{speedup:.1f}x)"
    )
    print(f"timing artifact: {OUTPUT_PATH}")

    assert identical, "bisection diverged from the dense sweep's argmin"
    assert batched_result.cells[0] == dense_cell
    assert bisect_cell.probes < dense_cell.probes
    assert dense_cell.probes == len(TDP_GRID)
    assert bisect_study.tasks_executed < dense_study.tasks_executed
    assert speedup >= MIN_SPEEDUP
