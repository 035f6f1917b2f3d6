"""Tests for the Study sweep runner: grids, the executor, caching, and
StudyResult serialisation."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.fleet import FleetStudy
from repro.analysis.optimize import Constraint, Objective, OptimizationSpec
from repro.analysis.study import (
    CallableTask,
    EngineTask,
    Study,
    StudyExecutor,
    StudyResult,
    SweepRequest,
)
from repro.common.errors import ConfigurationError
from repro.core.darkgates import SystemComparison
from repro.core.spec import get_spec
from repro.pmu.dvfs import CpuDemand
from repro.sim.dynamics import BatchedDynamicsSimulator
from repro.sim.metrics import CpuRunResult, EnergyRunResult
from repro.variation.distributions import skylake_process_variation
from repro.variation.population import PopulationStudy
from repro.workloads.dynamics import burst_scenario, sustained_scenario
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.spec import spec_benchmark

from oracles.study import PerCellExecutor


def _small_suite():
    return [spec_benchmark(name) for name in ("416.gamess", "410.bwaves", "470.lbm")]


# -- grid construction ---------------------------------------------------------------------------


def test_grid_size_specs_times_workloads():
    study = Study(("darkgates", "baseline"), _small_suite())
    assert len(study) == 6
    assert [spec.name for spec in study.specs] == ["darkgates", "baseline"]


def test_over_tdp_levels_expands_variants():
    study = Study.over_tdp_levels(
        ("darkgates", "baseline"), (35.0, 91.0), _small_suite()
    )
    assert len(study.specs) == 4
    assert sorted({spec.tdp_w for spec in study.specs}) == [35.0, 91.0]


def test_suite_mapping_keys_cells():
    suites = {
        "base": _small_suite(),
        "rate": [w.with_active_cores(4) for w in _small_suite()],
    }
    study = Study(("darkgates",), suites)
    assert len(study) == 6
    result = study.run()
    base = result.get("darkgates", "416.gamess", suite="base")
    rate = result.get("darkgates", "416.gamess", suite="rate")
    assert base != rate  # 1-core and 4-core runs differ


def test_duplicate_workload_names_rejected():
    workload = spec_benchmark("416.gamess")
    with pytest.raises(ConfigurationError):
        Study(("darkgates",), [workload, workload])


def test_reserved_suite_name_rejected():
    with pytest.raises(ConfigurationError):
        Study(("darkgates",), {"tasks": _small_suite()})


# -- execution and parity ------------------------------------------------------------------------


def test_study_matches_system_comparison(comparison_91w):
    suite = _small_suite()
    result = Study(("darkgates", "baseline"), suite).run()
    for workload in suite:
        expected = comparison_91w.compare_cpu(workload)
        after = result.get("darkgates", workload)
        before = result.get("baseline", workload)
        assert after.improvement_over(before) == pytest.approx(
            expected.performance_improvement
        )


def test_study_runs_energy_scenarios():
    result = Study(("darkgates",), [energy_star_scenario(), rmt_scenario()]).run()
    run = result.get("darkgates", "RMT")
    assert isinstance(run, EnergyRunResult)
    assert run.average_power_w > 0.0


def test_missing_cell_raises():
    result = Study(("darkgates",), _small_suite()).run()
    with pytest.raises(ConfigurationError):
        result.get("baseline", "416.gamess")
    with pytest.raises(ConfigurationError):
        result.task("no-such-task")


# -- caching -------------------------------------------------------------------------------------


def test_repeat_run_executes_nothing():
    study = Study(("darkgates",), _small_suite())
    first = study.run()
    executed = study.tasks_executed
    assert executed == 3
    second = study.run()
    assert study.tasks_executed == executed
    assert first == second


def test_shared_cache_across_studies():
    cache = {}
    Study(("darkgates",), _small_suite(), cache=cache).run()
    overlapping = Study(("darkgates", "baseline"), _small_suite(), cache=cache)
    overlapping.run()
    # Only the baseline cells were new.
    assert overlapping.tasks_executed == 3


def test_same_workload_in_two_suites_runs_once():
    suite = _small_suite()
    study = Study(("darkgates",), {"a": suite, "b": suite})
    study.run()
    assert study.tasks_executed == 3  # not 6: identical (spec, workload) pairs


# -- the executor ------------------------------------------------------------------------------


def _mixed_study(**kwargs):
    """Two CPU workloads and two dynamic scenarios at two TDPs, and one callable."""
    specs = [get_spec("darkgates", tdp_w=tdp) for tdp in (35.0, 91.0)]
    suites = {
        "cpu": _small_suite()[:2],
        "dynamics": [
            sustained_scenario(duration_s=6.0, time_step_s=0.1),
            burst_scenario(idle_lead_s=1.0, burst_s=5.0, time_step_s=0.1),
        ],
    }
    tasks = (CallableTask(key="constant", fn=int, args=("42",)),)
    return Study(specs, suites, tasks=tasks, name="mixed", **kwargs)


@pytest.mark.parametrize("max_workers", [None, 2])
def test_executor_matches_per_cell_oracle_on_a_mixed_grid(max_workers):
    expected = _mixed_study(executor=PerCellExecutor()).run()
    study = _mixed_study(max_workers=max_workers)
    assert study.run() == expected
    assert study.tasks_executed == 9


def test_max_workers_runs_jobs_in_worker_processes():
    tasks = tuple(CallableTask(key=f"pid{i}", fn=os.getpid) for i in range(4))
    pooled = Study(tasks=tasks, max_workers=2).run()
    assert os.getpid() not in {pooled.task(task.key) for task in tasks}
    in_process = Study(tasks=tasks).run()
    assert {in_process.task(task.key) for task in tasks} == {os.getpid()}


def test_in_process_executor_steps_every_dynamic_cell_in_one_batch(monkeypatch):
    batches = []
    run_batch = BatchedDynamicsSimulator.run_batch

    def recording(self, runs):
        batches.append(len(runs))
        return run_batch(self, runs)

    monkeypatch.setattr(BatchedDynamicsSimulator, "run_batch", recording)
    _mixed_study().run()
    assert batches == [4]


def _plan_tasks(dynamic, other):
    """*dynamic* dynamic engine cells interleaved with *other* callable tasks."""
    spec = get_spec("darkgates")
    tasks = [
        EngineTask(spec, sustained_scenario(duration_s=1.0 + i, time_step_s=0.5))
        for i in range(dynamic)
    ]
    for i in range(other):
        tasks.insert(2 * i, CallableTask(key=f"task{i}", fn=int, args=(str(i),)))
    return tasks


@pytest.mark.parametrize(
    "max_workers, dynamic, other",
    [(None, 5, 3), (1, 3, 0), (2, 5, 3), (3, 2, 4), (4, 9, 40), (2, 0, 3)],
)
def test_plan_deals_dynamic_cells_round_robin_into_lockstep_batches(
    max_workers, dynamic, other
):
    tasks = _plan_tasks(dynamic, other)
    plan = StudyExecutor(max_workers).plan(tasks)
    positions = [i for i, task in enumerate(tasks) if isinstance(task, EngineTask)]
    workers = max_workers or 1
    batches = [job for job in plan if isinstance(tasks[job[0]], EngineTask)]
    singles = [job for job in plan if isinstance(tasks[job[0]], CallableTask)]
    assert len(batches) == min(workers, dynamic)
    assert sorted(batches) == [
        tuple(positions[k::workers]) for k in range(min(workers, dynamic))
    ]
    assert singles == [
        (i,) for i, task in enumerate(tasks) if isinstance(task, CallableTask)
    ]
    assert sorted(i for job in plan for i in job) == list(range(len(tasks)))
    # The pool maps the plan in chunks of this size; no two batches share one.
    chunksize = max(1, len(plan) // (4 * workers))
    assert len({plan.index(batch) // chunksize for batch in batches}) == len(batches)


def _study_entry_points():
    """Every sweep entry point, each building (not running) a small study."""
    scenario = sustained_scenario(duration_s=2.0, time_step_s=0.5)
    query = OptimizationSpec(
        name="min-tdp",
        method="bisect",
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", 3.0e9),),
        variables={"tdp_w": (35.0, 91.0)},
    )
    variations = skylake_process_variation()
    return {
        "Study": lambda **kw: Study(("darkgates",), _small_suite()[:1], **kw),
        "over_tdp_levels": lambda **kw: Study.over_tdp_levels(
            ("darkgates",), (35.0,), _small_suite()[:1], **kw
        ),
        "over_dynamics": lambda **kw: Study.over_dynamics(
            ("darkgates",), (scenario,), **kw
        ),
        "over_population": lambda **kw: Study.over_population(
            ("darkgates",), (scenario,), variations, 8, **kw
        ),
        "over_fleet": lambda **kw: Study.over_fleet(
            ("darkgates",), ("datacenter",), 1, **kw
        ),
        "optimize": lambda **kw: Study.optimize(
            ("darkgates",), query, demand=CpuDemand(active_cores=4), **kw
        ),
        "FleetStudy": lambda **kw: FleetStudy(("darkgates",), ("datacenter",), **kw),
        "PopulationStudy": lambda **kw: PopulationStudy(
            ("darkgates",), (scenario,), variations, 8, **kw
        ),
    }


@pytest.mark.parametrize(
    "kwargs, match",
    [
        pytest.param({"max_workers": 0}, "max_workers", id="max_workers=0"),
        pytest.param({"max_workers": -1}, "max_workers", id="max_workers=-1"),
        pytest.param({"max_workers": True}, "max_workers", id="max_workers=True"),
        pytest.param({"max_workers": "2"}, "max_workers", id="max_workers='2'"),
        *(
            pytest.param(
                {"executor": name},
                "executor names were removed",
                id=f"executor={name!r}",
            )
            for name in ("serial", "batched", "process", "threads")
        ),
        pytest.param(
            {"executor": PerCellExecutor(), "max_workers": 2},
            "conflicts",
            id="executor-object-with-max_workers",
        ),
        pytest.param(
            {"executor": object()}, "run_tasks", id="executor-without-run_tasks"
        ),
        *(
            pytest.param({"seed": seed}, "seed", id=f"seed={seed!r}")
            for seed in ("7", True, 1.5, -1)
        ),
    ],
)
def test_bad_execution_keywords_raise(kwargs, match):
    for build in _study_entry_points().values():
        with pytest.raises(ConfigurationError, match=match):
            build(**kwargs)
    with pytest.raises(ConfigurationError, match=match):
        Study(request=SweepRequest(**kwargs))
    if set(kwargs) == {"max_workers"}:
        with pytest.raises(ConfigurationError, match="max_workers"):
            StudyExecutor(**kwargs)


def test_good_execution_keywords_build_every_entry_point():
    oracle = PerCellExecutor()
    for build in _study_entry_points().values():
        build(max_workers=2)
        build(max_workers=1)
        build(executor=oracle)
    assert SweepRequest(executor=oracle).resolve() is oracle


def test_process_pool_four_tdp_sweep_with_caching():
    """Acceptance: a 4-TDP SPEC sweep through the process pool, cached."""
    suite = _small_suite()
    study = Study.over_tdp_levels(
        ("darkgates", "baseline"),
        (35.0, 45.0, 65.0, 91.0),
        suite,
        max_workers=2,
    )
    result = study.run()
    assert study.tasks_executed == 8 * len(suite)
    # Repeat invocation does zero engine re-runs.
    again = study.run()
    assert study.tasks_executed == 8 * len(suite)
    assert again == result
    # Parity with the in-process default.
    serial = Study.over_tdp_levels(
        ("darkgates", "baseline"), (35.0, 45.0, 65.0, 91.0), suite
    ).run()
    assert serial == result
    # Every cell is a fully-typed result.
    for tdp in (35.0, 45.0, 65.0, 91.0):
        after = result.get(get_spec("darkgates", tdp_w=tdp), suite[0])
        before = result.get(get_spec("baseline", tdp_w=tdp), suite[0])
        assert isinstance(after, CpuRunResult)
        assert after.improvement_over(before) > 0.0


# -- callable tasks ------------------------------------------------------------------------------


def test_callable_tasks_run_alongside_grid():
    study = Study(
        ("darkgates",),
        _small_suite()[:1],
        tasks=(CallableTask(key="constant", fn=int, args=("42",)),),
    )
    result = study.run()
    assert result.task("constant") == 42
    assert len(result.cells) == 2


def test_non_callable_task_rejected():
    with pytest.raises(ConfigurationError):
        Study(tasks=("not-a-task",))


# -- StudyResult reporting and serialisation -----------------------------------------------------


def test_as_table_lists_every_cell():
    result = Study(("darkgates",), _small_suite(), name="smoke").run()
    table = result.as_table()
    assert "smoke" in table
    for workload in _small_suite():
        assert workload.name in table
    assert "darkgates@91W" in table


def test_study_result_json_round_trip():
    study = Study(
        ("darkgates", "baseline"),
        [spec_benchmark("416.gamess"), energy_star_scenario()],
        tasks=(CallableTask(key="meta", fn=str, args=(7,)),),
        name="roundtrip",
    )
    result = study.run()
    restored = StudyResult.from_json(result.to_json(indent=2))
    assert restored == result
    assert restored.get("darkgates", "416.gamess") == result.get(
        "darkgates", "416.gamess"
    )
    assert restored.task("meta") == "7"


def test_study_result_json_is_valid_json():
    result = Study(("darkgates",), _small_suite()[:1]).run()
    payload = json.loads(result.to_json())
    assert payload["cells"][0]["spec"]["name"] == "darkgates"
    assert payload["cells"][0]["value_kind"] == "run_result"


# -- transient sweeps ----------------------------------------------------------------------------


def test_over_transients_builds_the_grid():
    from repro.pdn.transients import core_wake_trace, step_trace

    traces = [core_wake_trace(duration_s=1e-6), step_trace("step25", 25.0, duration_s=1e-6)]
    study = Study.over_transients(
        ("darkgates", "baseline"), traces, time_steps_s=(0.5e-9, 1e-9)
    )
    # 2 specs x 2 traces x 2 time steps.
    assert len(study) == 8
    assert set(study.suites) == {"transients"}


def test_over_transients_runs_and_reads_back():
    from repro.pdn.transients import core_wake_trace
    from repro.sim.metrics import TransientRunResult

    trace = core_wake_trace(duration_s=1e-6)
    study = Study.over_transients(
        ("darkgates", "baseline"), [trace], name="fig6"
    )
    result = study.run()
    gated = result.get("baseline", "core_wake", suite="transients")
    bypassed = result.get("darkgates", "core_wake", suite="transients")
    assert isinstance(gated, TransientRunResult)
    assert gated.worst_droop_v > bypassed.worst_droop_v
    # Cached: a re-run executes nothing new.
    executed = study.tasks_executed
    study.run()
    assert study.tasks_executed == executed


def test_transient_study_result_json_round_trip():
    from repro.pdn.transients import core_wake_trace

    study = Study.over_transients(("darkgates",), [core_wake_trace(duration_s=1e-6)])
    result = study.run()
    restored = StudyResult.from_json(result.to_json())
    assert restored.cells == result.cells


def test_paper_transient_scenarios_run_through_study():
    from repro.pdn.transients import paper_transient_scenarios

    scenarios = paper_transient_scenarios(duration_s=1e-6)
    study = Study(
        ("darkgates", "baseline"), {"transients": list(scenarios)}, name="droops"
    )
    result = study.run()
    for scenario in scenarios:
        gated = result.get("baseline", scenario.name, suite="transients")
        bypassed = result.get("darkgates", scenario.name, suite="transients")
        assert gated.worst_droop_v > 0
        assert bypassed.worst_droop_v > 0
