"""Declarative sweep studies over system specs and workload suites.

A :class:`Study` declares a grid — system specs x workload suites (and,
via :meth:`Study.over_tdp_levels`, x TDP levels) — and executes every cell
through one :class:`StudyExecutor`.  Dynamic-scenario cells step together
in lockstep batches; ``max_workers=N`` shards them, and every other cell,
over a :mod:`concurrent.futures` process pool.

Results are cached per (spec, workload): re-running a study (or another
study sharing the same cache mapping) re-executes nothing.  The outcome is
a :class:`StudyResult`, which serialises to JSON and renders through
:func:`repro.analysis.reporting.format_table`.

Example::

    from repro.analysis.study import Study
    from repro.workloads.spec import spec_cpu2006_base_suite

    study = Study.over_tdp_levels(
        ("darkgates", "baseline"),
        tdp_levels_w=(35.0, 91.0),
        workloads=spec_cpu2006_base_suite(),
    )
    result = study.run()
    print(result.as_table())
"""

from __future__ import annotations

import dataclasses
import json
from concurrent import futures
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.reporting import format_table
from repro.common.codec import RESULT_SCHEMA_VERSION, check_schema
from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_seed
from repro.core.spec import SystemSpec, build_engine, resolve_spec
from repro.sim.dynamics import BatchedDynamicsSimulator
from repro.sim.metrics import RunResult
from repro.workloads.descriptors import Workload
from repro.workloads.dynamics import DynamicScenario

if TYPE_CHECKING:
    from repro.analysis.fleet import FleetStudy  # noqa: F401  (signature refs)
    from repro.analysis.optimize import (  # noqa: F401  (signature refs)
        OptimizationSpec,
        OptimizationStudy,
    )
    from repro.pdn.transients import LoadTrace  # noqa: F401  (signature refs)
    from repro.pmu.dvfs import CpuDemand  # noqa: F401
    from repro.variation.binning import BinningPolicy  # noqa: F401
    from repro.variation.distributions import VariationModel  # noqa: F401
    from repro.variation.population import PopulationStudy  # noqa: F401

#: The default suite name used when a study is given a flat workload list.
DEFAULT_SUITE = "default"

#: The pseudo-suite under which callable-task results are filed.
TASK_SUITE = "tasks"


# -- tasks -----------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineTask:
    """One grid cell: run one workload on the system built from one spec.

    Every cache lookup hashes the task, and its hash walks the whole spec
    and workload, so the task computes it once and keeps it.  The kept
    hash stays out of the pickle: tasks cross process pools, and string
    hashes differ between interpreters.
    """

    spec: SystemSpec
    workload: Workload

    def __hash__(self) -> int:
        cached: Optional[int] = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.spec, self.workload))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        return {"spec": self.spec, "workload": self.workload}


@dataclass(frozen=True)
class CallableTask:
    """An escape hatch for study steps that are not engine runs.

    The callable must be a module-level function (so that a process pool
    can pickle it) and the arguments must be hashable (so that the task can
    key the result cache).
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()


StudyTask = Union[EngineTask, CallableTask]


def execute_task(task: StudyTask) -> Any:
    """Execute one study task on its own.

    Engine tasks go through the shared :func:`repro.core.spec.build_engine`
    cache, so a process builds a spec's engine at most once, no matter how
    many cells it executes.
    """
    if isinstance(task, EngineTask):
        return build_engine(task.spec).run(task.workload)
    return task.fn(*task.args)


# -- the executor ----------------------------------------------------------------------


def _is_dynamic(task: StudyTask) -> bool:
    return isinstance(task, EngineTask) and isinstance(task.workload, DynamicScenario)


def _run_job(tasks: Tuple[StudyTask, ...]) -> List[Any]:
    """Execute one job: a lockstep batch of dynamic cells, or one other task.

    Module-level so process pools can pickle it.  Engines come from this
    module's ``build_engine`` global, so each worker builds a spec's engine
    at most once.
    """
    if _is_dynamic(tasks[0]):
        runs = [(build_engine(task.spec).pcode, task.workload) for task in tasks]
        return BatchedDynamicsSimulator().run_batch(runs)
    return [execute_task(task) for task in tasks]


def _check_max_workers(max_workers: Any, where: str) -> None:
    if max_workers is not None and (
        isinstance(max_workers, bool)
        or not isinstance(max_workers, int)
        or max_workers < 1
    ):
        raise ConfigurationError(
            f"{where}: max_workers must be None or an int >= 1, "
            f"got {max_workers!r}"
        )


class StudyExecutor:
    """Runs study tasks in the calling process or on a process pool.

    Every dynamic-scenario engine cell — the slowest cells of a grid, each a
    per-step closed-loop trajectory — is dealt round-robin into one of
    ``min(workers, D)`` lockstep batches, and each batch is stepped by one
    :meth:`~repro.sim.dynamics.BatchedDynamicsSimulator.run_batch` call.
    Every other task is a job of its own.  A run's result does not depend on
    which runs share its batch, so every *max_workers* gives bit-identical
    results.

    Parameters
    ----------
    max_workers:
        ``None`` or 1 runs every job in the calling process, so all dynamic
        cells form one batch; N > 1 runs the jobs on a pool of N processes,
        one batch per worker.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        _check_max_workers(max_workers, "StudyExecutor")
        self._workers = max_workers or 1

    def plan(self, tasks: Sequence[StudyTask]) -> List[Tuple[int, ...]]:
        """The job list: the input positions each job executes.

        Each lockstep batch opens a chunk of the pool's task queue, so no
        two batches share a chunk.
        """
        dynamic = [i for i, task in enumerate(tasks) if _is_dynamic(task)]
        jobs: List[Tuple[int, ...]] = [
            (i,) for i, task in enumerate(tasks) if not _is_dynamic(task)
        ]
        batches = min(self._workers, len(dynamic))
        stride = self._chunksize(len(jobs) + batches)
        for k in range(batches):
            jobs.insert(k * stride, tuple(dynamic[k :: self._workers]))
        return jobs

    def _chunksize(self, jobs: int) -> int:
        return max(1, jobs // (self._workers * 4))

    def run_tasks(self, tasks: Sequence[StudyTask]) -> List[Any]:
        """Execute *tasks* and return their results in input order."""
        plan = self.plan(tasks)
        jobs = [tuple(tasks[i] for i in positions) for positions in plan]
        if self._workers == 1:
            outputs = list(map(_run_job, jobs))
        else:
            with futures.ProcessPoolExecutor(max_workers=self._workers) as pool:
                outputs = list(
                    pool.map(_run_job, jobs, chunksize=self._chunksize(len(jobs)))
                )
        results: List[Any] = [None] * len(tasks)
        for positions, values in zip(plan, outputs):
            for position, value in zip(positions, values):
                results[position] = value
        return results


class StoreOnlyExecutor:
    """An executor that refuses to execute: every cell must already exist.

    Backing a study with this executor turns ``run()`` into a pure read of
    the study's cache — the path :meth:`StudyResult.from_store` uses to
    answer queries from the persistent run store without ever invoking the
    simulation engine.  A cache miss raises instead of simulating.
    """

    def run_tasks(self, tasks: Sequence[StudyTask]) -> List[Any]:
        """Never executes; raises listing the missing cells."""
        labels = [
            (
                f"({task.spec.label}, {task.workload.name})"
                if isinstance(task, EngineTask)
                else f"(task {task.key!r})"
            )
            for task in tasks[:5]
        ]
        suffix = "" if len(tasks) <= 5 else f" and {len(tasks) - 5} more"
        raise ConfigurationError(
            f"{len(tasks)} cell(s) missing from the run store: "
            f"{', '.join(labels)}{suffix}; execute the sweep first "
            "(Study(cache=StoreCache(...)).run() or python -m repro run)"
        )


Executor = Union[StudyExecutor, StoreOnlyExecutor]


# -- the unified sweep request ---------------------------------------------------------


#: Execution keywords every sweep entry point accepts — the one surface
#: shared by ``Study(...)``, every ``Study.over_*`` constructor and
#: ``Study.optimize``.  ``PopulationStudy``, ``FleetStudy`` and
#: ``OptimizationStudy`` take the :class:`SweepRequest` these build.
SWEEP_KWARGS = ("executor", "max_workers", "cache", "seed", "name")


@dataclass(frozen=True)
class SweepRequest:
    """How a sweep executes — one descriptor behind every ``Study`` entry.

    Each entry point reduces its execution keywords to a ``SweepRequest``
    through :meth:`from_kwargs`, so executor resolution, cache wiring,
    seeding and naming are validated once and behave identically
    everywhere (including :meth:`Study.optimize`, which replays probe
    sweeps through the exact same machinery).
    """

    executor: Optional[Executor] = None
    max_workers: Optional[int] = None
    cache: Optional[MutableMapping[StudyTask, Any]] = None
    seed: Optional[int] = None
    name: str = "study"

    @classmethod
    def from_kwargs(
        cls,
        entry_point: str,
        kwargs: Mapping[str, Any],
        *,
        extra: Sequence[str] = (),
        defaults: Optional[Mapping[str, Any]] = None,
    ) -> Tuple["SweepRequest", Dict[str, Any]]:
        """Validate *kwargs* for *entry_point*; split request from extras.

        Returns ``(request, extras)``, where *extras* holds the
        entry-point-specific keywords named in *extra*.  Unknown keywords
        raise :class:`ConfigurationError` naming the valid set, and
        conflicting combinations are rejected by :meth:`validate`.
        *defaults* supplies entry-point defaults that caller keywords
        override.
        """
        allowed = set(SWEEP_KWARGS) | set(extra)
        unknown = sorted(set(kwargs) - allowed)
        if unknown:
            raise ConfigurationError(
                f"{entry_point}() got unexpected keyword argument(s) "
                f"{', '.join(map(repr, unknown))}; "
                f"valid keywords: {', '.join(sorted(allowed))}"
            )
        merged: Dict[str, Any] = dict(defaults or {})
        merged.update(kwargs)
        request = cls(
            **{key: merged.pop(key) for key in SWEEP_KWARGS if key in merged}
        )
        request.validate(entry_point)
        return request, merged

    def validate(self, entry_point: str) -> None:
        """Reject bad or conflicting keywords with actionable errors."""
        where = f"{entry_point}()"
        _check_max_workers(self.max_workers, where)
        if self.seed is not None:
            ensure_seed(self.seed, f"{where}: seed")
        if self.executor is None:
            return
        if not hasattr(self.executor, "run_tasks"):
            raise ConfigurationError(
                f"{where}: executor must expose run_tasks(); got "
                f"{type(self.executor).__name__}"
            )
        if self.max_workers is not None:
            raise ConfigurationError(
                f"{where}: max_workers={self.max_workers} sizes the default "
                f"executor, so it conflicts with executor="
                f"{type(self.executor).__name__}; drop one of them"
            )

    def resolve(self) -> Executor:
        """The executor instance this request describes."""
        if self.executor is not None:
            return self.executor
        return StudyExecutor(self.max_workers)

    def derive(self, name: str) -> "SweepRequest":
        """This request renamed — for sub-sweeps dispatched on its behalf."""
        return dataclasses.replace(self, name=name)


# -- results ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyCell:
    """One completed cell of a study grid."""

    spec: Optional[SystemSpec]  # None for callable tasks
    suite: str
    workload_name: str
    value: Any

    @property
    def label(self) -> str:
        """Display label of the system column ("-" for callable tasks)."""
        return self.spec.label if self.spec is not None else "-"


@dataclass(frozen=True)
class StudyResult:
    """The completed grid of a study, addressable by (spec, workload)."""

    name: str
    cells: Tuple[StudyCell, ...]
    #: Seed of the study's stochastic paths (``None`` for deterministic
    #: studies); recorded in the JSON payload so runs can be replayed.
    seed: Optional[int] = None
    _index: Dict[Tuple[Optional[SystemSpec], str, str], Any] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        index: Dict[Tuple[Optional[SystemSpec], str, str], Any] = {}
        for cell in self.cells:
            index[(cell.spec, cell.suite, cell.workload_name)] = cell.value
        object.__setattr__(self, "_index", index)

    # -- lookup ------------------------------------------------------------------------

    def get(
        self,
        spec: Union[SystemSpec, str],
        workload: Union[Workload, str],
        suite: str = DEFAULT_SUITE,
    ) -> Any:
        """The value of one engine cell.

        *spec* may be a :class:`SystemSpec` or a registered name; *workload*
        may be a descriptor or its name.
        """
        resolved = resolve_spec(spec)
        workload_name = workload if isinstance(workload, str) else workload.name
        try:
            return self._index[(resolved, suite, workload_name)]
        except KeyError:
            raise ConfigurationError(
                f"study {self.name!r} has no cell "
                f"({resolved.label}, {suite!r}, {workload_name!r})"
            ) from None

    def task(self, key: str) -> Any:
        """The value of one callable task."""
        try:
            return self._index[(None, TASK_SUITE, key)]
        except KeyError:
            raise ConfigurationError(
                f"study {self.name!r} has no task {key!r}"
            ) from None

    def specs(self) -> Tuple[SystemSpec, ...]:
        """Distinct specs in grid order."""
        seen: Dict[SystemSpec, None] = {}
        for cell in self.cells:
            if cell.spec is not None:
                seen.setdefault(cell.spec)
        return tuple(seen)

    # -- reporting ---------------------------------------------------------------------

    def as_table(self, title: Optional[str] = None) -> str:
        """Render every engine cell's headline metric as a text table."""
        rows = []
        for cell in self.cells:
            if isinstance(cell.value, RunResult):
                metric = f"{cell.value.primary_metric:.4f}"
            else:
                metric = str(cell.value)
            rows.append([cell.label, cell.suite, cell.workload_name, metric])
        return format_table(
            ["system", "suite", "workload", "metric"],
            rows,
            title=self.name if title is None else title,
        )

    # -- serialisation -----------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise this result to a JSON document.

        Engine cells always serialise (their values are :class:`RunResult`
        objects); callable-task values must themselves be JSON-encodable,
        and tuples inside them come back as lists.
        """
        payload: Dict[str, Any] = {
            "name": self.name,
            "schema_version": RESULT_SCHEMA_VERSION,
            "cells": [
                {
                    "spec": cell.spec.to_dict() if cell.spec is not None else None,
                    "suite": cell.suite,
                    "workload": cell.workload_name,
                    "value_kind": (
                        "run_result" if isinstance(cell.value, RunResult) else "json"
                    ),
                    "value": (
                        cell.value.to_dict()
                        if isinstance(cell.value, RunResult)
                        else cell.value
                    ),
                }
                for cell in self.cells
            ],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        try:
            return json.dumps(
                payload, indent=indent, sort_keys=True, allow_nan=False
            )
        except TypeError as error:
            raise ConfigurationError(
                f"study {self.name!r} holds a non-JSON-serialisable task "
                f"value: {error}"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "StudyResult":
        """Rebuild a study result from :meth:`to_json` output.

        Engine cells come back as fully-typed :class:`RunResult` objects;
        callable-task values come back as the plain JSON values they were
        stored as.
        """
        payload = json.loads(text)
        check_schema(payload, "study result")
        cells = []
        for entry in payload["cells"]:
            spec = (
                SystemSpec.from_dict(entry["spec"])
                if entry["spec"] is not None
                else None
            )
            value = entry["value"]
            if entry["value_kind"] == "run_result":
                value = RunResult.from_dict(value)
            cells.append(
                StudyCell(
                    spec=spec,
                    suite=entry["suite"],
                    workload_name=entry["workload"],
                    value=value,
                )
            )
        return cls(
            name=payload["name"], cells=tuple(cells), seed=payload.get("seed")
        )

    @classmethod
    def from_store(
        cls,
        cache: MutableMapping["StudyTask", Any],
        specs: Sequence[Union[SystemSpec, str]],
        workloads: "WorkloadSuites",
        *,
        name: str = "study",
        seed: Optional[int] = None,
    ) -> "StudyResult":
        """Assemble a study result purely from persisted runs.

        Declares the same grid a :class:`Study` would (*specs* x
        *workloads*) but backs it with :class:`StoreOnlyExecutor`: every
        cell must already be in *cache* — typically a
        :class:`~repro.store.cache.StoreCache` over the persistent run
        store — and a missing cell raises instead of simulating.  The warm
        path touches zero simulator code.
        """
        study = Study(
            specs,
            workloads,
            cache=cache,
            executor=StoreOnlyExecutor(),
            seed=seed,
            name=name,
        )
        return study.run()


# -- the study runner ------------------------------------------------------------------


WorkloadSuites = Union[Sequence[Workload], Mapping[str, Sequence[Workload]]]


class Study:
    """A declarative sweep: specs x workload suites, cached and executable.

    Parameters
    ----------
    specs:
        System specs (or registered spec names) forming one grid axis.
    workloads:
        Either a flat workload sequence (filed under the ``"default"``
        suite) or a mapping of suite name -> workload sequence.
    tasks:
        Extra :class:`CallableTask` steps to execute alongside the grid.
    executor:
        Any object exposing ``run_tasks(tasks) -> results``, in place of
        the default :class:`StudyExecutor`.
    max_workers:
        Process count of the default executor: ``None`` (the default) or
        1 runs in the calling process, N > 1 on a pool of N processes.
    cache:
        Mapping of task -> result shared between runs (and, if passed to
        several studies, between studies).  Defaults to a fresh dict.
    seed:
        Seed for the study's stochastic paths, threaded as a
        :class:`numpy.random.Generator` seed through whatever stochastic
        tasks the study runs (population sampling today) and recorded in
        the result JSON.  ``None`` (the default) marks a deterministic
        study.
    name:
        Study name used in reports.
    request:
        A :class:`SweepRequest` carrying the execution keywords; the
        ``over_*`` constructors build one through the shared validation
        helper.  Mutually exclusive with passing the individual execution
        keywords.
    """

    def __init__(
        self,
        specs: Sequence[Union[SystemSpec, str]] = (),
        workloads: WorkloadSuites = (),
        *,
        tasks: Sequence[CallableTask] = (),
        executor: Optional[Executor] = None,
        max_workers: Optional[int] = None,
        cache: Optional[MutableMapping[StudyTask, Any]] = None,
        seed: Optional[int] = None,
        name: str = "study",
        request: Optional[SweepRequest] = None,
    ) -> None:
        if request is None:
            request = SweepRequest(
                executor=executor,
                max_workers=max_workers,
                cache=cache,
                seed=seed,
                name=name,
            )
        elif (
            executor is not None
            or max_workers is not None
            or cache is not None
            or seed is not None
            or name != "study"
        ):
            raise ConfigurationError(
                "pass either request= or the individual execution keywords "
                f"({', '.join(SWEEP_KWARGS)}), not both"
            )
        request.validate("Study")
        self._request = request
        self._name = request.name
        self._specs = tuple(resolve_spec(spec) for spec in specs)
        self._suites = self._normalise_suites(workloads)
        self._extra_tasks = tuple(tasks)
        self._executor = request.resolve()
        self._cache: MutableMapping[StudyTask, Any] = (
            request.cache if request.cache is not None else {}
        )
        self._seed = request.seed
        self._tasks_executed = 0
        self._grid = self._build_grid()

    @staticmethod
    def _normalise_suites(
        workloads: WorkloadSuites,
    ) -> Dict[str, Tuple[Workload, ...]]:
        if isinstance(workloads, Mapping):
            suites = {name: tuple(suite) for name, suite in workloads.items()}
        else:
            suites = {DEFAULT_SUITE: tuple(workloads)} if workloads else {}
        for suite_name, suite in suites.items():
            if suite_name == TASK_SUITE:
                raise ConfigurationError(
                    f"suite name {TASK_SUITE!r} is reserved for callable tasks"
                )
            names = [w.name for w in suite]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"suite {suite_name!r} has duplicate workload names"
                )
        return suites

    def _build_grid(self) -> Tuple[Tuple[str, str, StudyTask], ...]:
        # Each grid entry is (suite, workload_name, task); callable tasks are
        # filed under the reserved TASK_SUITE.  Identical (spec, workload)
        # pairs appearing in several suites share one task (and one result).
        grid: List[Tuple[str, str, StudyTask]] = []
        for spec in self._specs:
            for suite_name, suite in self._suites.items():
                for workload in suite:
                    grid.append(
                        (suite_name, workload.name, EngineTask(spec, workload))
                    )
        for task in self._extra_tasks:
            if not isinstance(task, CallableTask):
                raise ConfigurationError(
                    f"tasks must be CallableTask instances, got {type(task).__name__}"
                )
            grid.append((TASK_SUITE, task.key, task))
        if len(set(grid)) != len(grid):
            raise ConfigurationError("study grid contains duplicate cells")
        return tuple(grid)

    # -- introspection -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Study name."""
        return self._name

    @property
    def request(self) -> SweepRequest:
        """The unified execution descriptor this study runs under."""
        return self._request

    @property
    def specs(self) -> Tuple[SystemSpec, ...]:
        """The spec axis of the grid."""
        return self._specs

    @property
    def suites(self) -> Dict[str, Tuple[Workload, ...]]:
        """The workload suites of the grid."""
        return dict(self._suites)

    @property
    def cache(self) -> MutableMapping[StudyTask, Any]:
        """The task-result cache backing this study."""
        return self._cache

    @property
    def seed(self) -> Optional[int]:
        """Seed of the study's stochastic paths (``None`` == deterministic)."""
        return self._seed

    @property
    def tasks_executed(self) -> int:
        """Cumulative number of tasks actually executed (cache misses)."""
        return self._tasks_executed

    def __len__(self) -> int:
        return len(self._grid)

    # -- execution ---------------------------------------------------------------------

    def run(self) -> StudyResult:
        """Execute every uncached cell and return the completed grid.

        Distinct tasks run through the executor once; results are cached so
        a repeat ``run()`` (or an overlapping study sharing the cache)
        executes nothing.
        """
        seen: Dict[StudyTask, None] = {}
        for _, _, task in self._grid:
            if task not in self._cache:
                seen.setdefault(task)
        pending: List[StudyTask] = list(seen)
        if pending:
            results = self._executor.run_tasks(pending)
            for task, result in zip(pending, results):
                self._cache[task] = result
            self._tasks_executed += len(pending)
        cells = tuple(
            StudyCell(
                spec=task.spec if isinstance(task, EngineTask) else None,
                suite=suite,
                workload_name=workload_name,
                value=self._cache[task],
            )
            for suite, workload_name, task in self._grid
        )
        return StudyResult(name=self._name, cells=cells, seed=self._seed)

    # -- construction helpers ----------------------------------------------------------

    @classmethod
    def over_tdp_levels(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        tdp_levels_w: Iterable[float],
        workloads: WorkloadSuites,
        **kwargs: Any,
    ) -> "Study":
        """A grid of spec variants across a TDP sweep.

        Expands every spec to one variant per TDP level (TDP-major order:
        all specs at the first level, then all at the next).
        """
        request, _ = SweepRequest.from_kwargs("Study.over_tdp_levels", kwargs)
        resolved = [resolve_spec(spec) for spec in specs]
        expanded = [
            spec.variant(tdp_w=tdp) for tdp in tdp_levels_w for spec in resolved
        ]
        return cls(expanded, workloads, request=request)

    @classmethod
    def over_transients(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        traces: Sequence["LoadTrace"],
        *,
        time_steps_s: Iterable[float] = (0.5e-9,),
        suite: str = "transients",
        **kwargs: Any,
    ) -> "Study":
        """A transient-droop sweep: PDN configuration x trace x time step.

        Each spec contributes its package's PDN (so a gated spec and a
        bypassed spec side by side reproduce the paper's Fig. 6
        comparison); each (trace, time step) pair becomes one
        :class:`~repro.pdn.transients.TransientScenario` cell.  Scenarios
        carry the trace's name (suffixed with the step when non-default),
        so results read back with ``result.get(spec, trace.name, suite)``.
        """
        from repro.pdn.transients import TransientScenario

        request, _ = SweepRequest.from_kwargs("Study.over_transients", kwargs)
        scenarios = [
            TransientScenario.from_trace(trace, time_step_s=time_step)
            for time_step in time_steps_s
            for trace in traces
        ]
        return cls(specs, {suite: scenarios}, request=request)

    @classmethod
    def over_dynamics(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        scenarios: Sequence["DynamicScenario"],
        *,
        tdp_levels_w: Optional[Iterable[float]] = None,
        suite: str = "dynamics",
        **kwargs: Any,
    ) -> "Study":
        """A closed-loop dynamics sweep: spec x TDP level x scenario.

        Each cell steps one :class:`~repro.workloads.dynamics.DynamicScenario`
        through the closed Pcode loop of the system built from one spec
        variant, producing a :class:`~repro.sim.metrics.DynamicRunResult`.
        When *tdp_levels_w* is given every spec is expanded to one variant
        per level (TDP-major order, like :meth:`over_tdp_levels`), which is
        how the paper's burst-vs-throttle TDP story is swept; results read
        back with ``result.get(spec.variant(tdp_w=...), scenario.name,
        suite)``.  The executor steps the grid in lockstep batches (one
        per worker), resolving every run's turbo / thermal / DVFS /
        C-state step as one set of numpy operations.
        """
        request, _ = SweepRequest.from_kwargs("Study.over_dynamics", kwargs)
        resolved = [resolve_spec(spec) for spec in specs]
        if tdp_levels_w is not None:
            resolved = [
                spec.variant(tdp_w=tdp) for tdp in tdp_levels_w for spec in resolved
            ]
        return cls(resolved, {suite: list(scenarios)}, request=request)

    @classmethod
    def over_population(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        scenarios: Sequence["DynamicScenario"],
        variations: "VariationModel",
        count: int,
        *,
        tdp_levels_w: Optional[Iterable[float]] = None,
        **kwargs: Any,
    ) -> "PopulationStudy":
        """A process-variation Monte Carlo sweep: specs x TDPs x scenarios x dice.

        Samples *count* dice from *variations* (seeded — pass ``seed=`` to
        pin the draw; it is recorded in the result) and steps every die
        through every (spec variant, scenario) cell.  By default each cell
        runs the whole population in lockstep on the batched fast path;
        ``method="streaming"`` (with ``shard_size=N``) expands it to one
        bounded-memory task per fixed-size die shard instead — shards
        sample their die ranges deterministically, dispatch through the
        study executor (in-process, or on ``max_workers=N`` processes), and
        merge associatively, so million-die populations run in O(shard)
        memory (see :mod:`repro.variation.streaming`).  Pass
        ``cache=StoreCache(...)`` to land every cell/shard in the persistent
        run store; warm re-runs then execute zero tasks.  Returns a
        :class:`~repro.variation.population.PopulationStudy`
        whose :meth:`~repro.variation.population.PopulationStudy.run`
        yields a JSON-round-tripping
        :class:`~repro.variation.population.PopulationResult` (percentile
        traces, per-die summaries, SKU-bin yields).
        """
        from repro.variation.population import PopulationStudy

        request, extras = SweepRequest.from_kwargs(
            "Study.over_population",
            kwargs,
            extra=("method", "shard_size", "binning"),
            defaults={"name": "population-study"},
        )
        return PopulationStudy(
            specs,
            scenarios,
            variations,
            count,
            tdp_levels_w=(
                tuple(tdp_levels_w) if tdp_levels_w is not None else None
            ),
            request=request,
            **extras,
        )

    @classmethod
    def over_fleet(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        profiles: Sequence[Any],
        ensemble: int = 8,
        *,
        tdp_levels_w: Optional[Iterable[float]] = None,
        slo_frequency_hz: Optional[float] = None,
        **kwargs: Any,
    ) -> "FleetStudy":
        """A fleet QoS sweep: specs x TDP levels x profiles x ensemble members.

        Compiles each fleet profile (a
        :class:`~repro.fleet.profiles.FleetProfile` or a registered name
        such as ``"datacenter"``) into a seeded ensemble of *ensemble*
        :class:`~repro.workloads.dynamics.DynamicScenario` members —
        bit-identical per seed and prefix-stable in the ensemble size —
        and steps every (spec variant, member) cell through the study
        machinery, which locksteps the members in batches (one per
        worker); pass ``cache=StoreCache(...)`` to land every member run in
        the persistent run store, after which a warm re-run executes zero
        simulator tasks.  Member runs pool into per-cell
        :class:`~repro.fleet.qos.EnsembleQos` verdicts (SLO-violation
        rate, throttle residency by limiting factor, worst-member p99
        proxy) judged against *slo_frequency_hz*.  Returns a
        :class:`~repro.analysis.fleet.FleetStudy`; its ``run()`` yields a
        JSON-round-tripping
        :class:`~repro.analysis.fleet.FleetStudyResult`.
        """
        from repro.analysis.fleet import FleetStudy
        from repro.fleet.qos import DEFAULT_SLO_FREQUENCY_HZ

        request, _ = SweepRequest.from_kwargs(
            "Study.over_fleet",
            kwargs,
            defaults={"name": "fleet-study"},
        )
        return FleetStudy(
            specs,
            profiles,
            ensemble=ensemble,
            tdp_levels_w=(
                tuple(tdp_levels_w) if tdp_levels_w is not None else None
            ),
            slo_frequency_hz=(
                DEFAULT_SLO_FREQUENCY_HZ
                if slo_frequency_hz is None
                else slo_frequency_hz
            ),
            request=request,
        )

    @classmethod
    def optimize(
        cls,
        specs: Sequence[Union[SystemSpec, str]],
        spec: "OptimizationSpec",
        *,
        scenario: Optional["DynamicScenario"] = None,
        demand: Optional["CpuDemand"] = None,
        variations: Optional["VariationModel"] = None,
        count: Optional[int] = None,
        binning: Optional["BinningPolicy"] = None,
        **kwargs: Any,
    ) -> "OptimizationStudy":
        """An inverse query: solve for decision variables instead of sweeping.

        Where the ``over_*`` constructors enumerate a grid and report every
        cell, ``optimize`` takes a declarative
        :class:`~repro.analysis.optimize.OptimizationSpec` — constraints
        such as ``sustained_frequency_hz >= 3.0e9``, decision variables
        such as ``tdp_w`` or SKU-bin cutoffs, objectives such as min-TDP or
        max-yield×ASP — and solves it with vectorized bisection,
        Pareto-front extraction, or a vectorized cutoff scan, issuing only
        the probe cells the solver actually needs.  Probes dispatch through
        the exact sweep machinery the ``over_*`` constructors use (same
        executor, caches and run store), so a warm store replays an
        optimization with zero simulator tasks.

        Each entry of *specs* is solved independently (the paper's
        gated-vs-bypassed comparisons put both side by side).  Evaluation
        backend: pass ``scenario=`` to probe the closed-loop dynamics
        engine, ``demand=`` to probe the static sustained-operating-point
        solver, or ``variations=``/``count=`` (with an optional
        ``binning=`` policy) for population cutoff queries.  Returns an
        :class:`~repro.analysis.optimize.OptimizationStudy`; its ``run()``
        yields a JSON-round-tripping
        :class:`~repro.analysis.optimize.OptimizationResult`.
        """
        from repro.analysis.optimize import OptimizationStudy

        request, _ = SweepRequest.from_kwargs(
            "Study.optimize", kwargs, defaults={"name": spec.name}
        )
        return OptimizationStudy(
            specs,
            spec,
            scenario=scenario,
            demand=demand,
            variations=variations,
            count=count,
            binning=binning,
            request=request,
        )
