"""Population-scale studies: Monte Carlo sweeps over sampled die fleets.

:class:`PopulationStudy` crosses base system specs x TDP levels x dynamic
scenarios with a seeded die population and executes the grid through the
:mod:`repro.analysis.study` executor machinery:

* ``method="fast"`` (default) — each grid cell is **one** task that steps
  the whole population in lockstep through
  :meth:`~repro.sim.engine.SimulationEngine.run_population` (stacked
  parameter arrays, no per-die Python objects);
* ``method="streaming"`` — each grid cell expands to one task per
  fixed-size **die shard** (``shard_size`` dice each); shards sample their
  own die range deterministically, condense into the bounded accumulators
  of :mod:`repro.variation.streaming`, and merge associatively — peak
  memory is O(shard), never O(population), so million-die studies fit.

The fast path is bit-identical to stepping every die as its own
``SystemSpec.variant(die_variation=...)`` build (the per-die oracle in
``tests/oracles/population.py``); streaming matches it exactly on every
discrete statistic (frequency percentile traces, limiting factors, bin
yields) and within a documented one-histogram-bin bound on continuous
ones.  The population benchmark and the equivalence tests assert all of
this.  Results condense into a :class:`PopulationResult`: percentile
traces, summary metrics, limiting-factor histograms, SKU-bin yields — all
JSON-round-tripping, with the seed recorded so any run can be replayed
exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.study import (
    CallableTask,
    Executor,
    Study,
    StudyTask,
    SweepRequest,
)
from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.core.spec import SystemSpec, build_engine, resolve_spec
from repro.pmu.dvfs import LimitingFactor
from repro.variation.binning import (
    SCRAP_BIN,
    BinningPolicy,
    BinReport,
    die_metrics,
    skylake_binning_policy,
)
from repro.variation.distributions import VariationModel
from repro.variation.sampler import DiePopulation, DiePopulationSampler
from repro.variation.streaming import (
    ShardPlan,
    StreamingBinningResult,
    StreamingCellResult,
    merge_binning_shards,
    merge_cell_shards,
    run_binning_shard,
    run_cell_shard,
)
from repro.workloads.dynamics import DynamicScenario

#: Seed pinned when a :class:`PopulationStudy` is built with ``seed=None``.
#: Deliberately a constant, not OS entropy: every stochastic path must be
#: replayable from recorded inputs alone, and a magic per-process draw
#: would give "unseeded" runs distinct content-addressed run IDs on every
#: invocation.  Pass an explicit seed for statistically independent
#: populations.
UNSEEDED_DEFAULT_SEED = 0x5EED

#: Percentiles reported for every population trace.
TRACE_PERCENTILES: Tuple[float, ...] = (5.0, 50.0, 95.0)

_PERCENTILE_KEYS = tuple(f"p{int(p)}" for p in TRACE_PERCENTILES)


# -- study task functions (module-level so process pools can pickle them) --------------


def _run_fast_cell(
    spec: SystemSpec,
    scenario: DynamicScenario,
    variations: VariationModel,
    count: int,
    seed: Optional[int],
) -> "PopulationCellResult":
    """One fast-path grid cell: the whole population in lockstep."""
    population = DiePopulationSampler(variations).sample(count, seed=seed)
    traces = build_engine(spec).run_population(scenario, population)
    return _cell_from_matrices(
        spec=spec,
        scenario_name=scenario.name,
        time_step_s=traces.time_step_s,
        pl1_w=traces.pl1_w,
        pl2_w=traces.pl2_w,
        times_s=traces.times_s,
        frequencies_hz=traces.frequencies_hz,
        package_powers_w=traces.package_powers_w,
        temperatures_c=traces.temperatures_c,
        limiting_names=traces.limiting_factor_names(),
        cstate_names=tuple(traces.package_cstate_names()),
    )


# -- result condensation ---------------------------------------------------------------


def _cell_from_matrices(
    spec: SystemSpec,
    scenario_name: str,
    time_step_s: float,
    pl1_w: float,
    pl2_w: float,
    times_s: np.ndarray,
    frequencies_hz: np.ndarray,
    package_powers_w: np.ndarray,
    temperatures_c: np.ndarray,
    limiting_names: np.ndarray,
    cstate_names: Tuple[str, ...],
) -> "PopulationCellResult":
    """Condense ``(steps, dice)`` trace matrices into one cell result.

    Shared verbatim by the fast path and the per-die oracle — both hand
    identical matrices here, so the condensed cells compare equal.
    Matrices are forced C-contiguous first: numpy's pairwise reductions
    depend on the memory layout, and the oracle's arrive transposed.
    """
    frequencies_hz = np.ascontiguousarray(frequencies_hz)
    package_powers_w = np.ascontiguousarray(package_powers_w)
    temperatures_c = np.ascontiguousarray(temperatures_c)

    def percentiles(matrix: np.ndarray) -> Dict[str, Tuple[float, ...]]:
        values = np.percentile(matrix, TRACE_PERCENTILES, axis=1)
        return {
            key: tuple(values[row].tolist())
            for row, key in enumerate(_PERCENTILE_KEYS)
        }

    active_rows = np.flatnonzero((frequencies_hz > 0.0).any(axis=1))
    if len(active_rows):
        tail = active_rows[-max(1, len(active_rows) // 10) :]
        sustained = frequencies_hz[tail].mean(axis=0)
        final_limiting = tuple(limiting_names[active_rows[-1]].tolist())
        flat = limiting_names[active_rows].ravel()
        names, counts = np.unique(flat, return_counts=True)
        histogram = {
            str(name): float(count / flat.size)
            for name, count in zip(names, counts)
        }
    else:
        sustained = np.zeros(frequencies_hz.shape[1])
        final_limiting = tuple(
            LimitingFactor.NONE.value for _ in range(frequencies_hz.shape[1])
        )
        histogram = {}
    return PopulationCellResult(
        spec=spec,
        scenario_name=scenario_name,
        time_step_s=time_step_s,
        pl1_w=pl1_w,
        pl2_w=pl2_w,
        times_s=tuple(np.asarray(times_s).tolist()),
        frequency_percentiles_hz=percentiles(frequencies_hz),
        power_percentiles_w=percentiles(package_powers_w),
        temperature_percentiles_c=percentiles(temperatures_c),
        limiting_histogram=histogram,
        sustained_frequency_hz=tuple(sustained.tolist()),
        average_power_w=tuple(package_powers_w.mean(axis=0).tolist()),
        peak_temperature_c=tuple(temperatures_c.max(axis=0).tolist()),
        final_limiting=final_limiting,
        package_cstates=cstate_names,
    )


# -- result types ----------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationCellResult(Codec):
    """Population summary of one (spec variant, scenario) grid cell.

    Percentile traces are per-step quantiles across the dice; the per-die
    tuples (sustained frequency, average power, peak temperature, final
    limiting factor) keep die index order, so they join against the
    population's bin assignments.
    """

    spec: SystemSpec
    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    times_s: Tuple[float, ...]
    frequency_percentiles_hz: Dict[str, Tuple[float, ...]]
    power_percentiles_w: Dict[str, Tuple[float, ...]]
    temperature_percentiles_c: Dict[str, Tuple[float, ...]]
    limiting_histogram: Dict[str, float]
    sustained_frequency_hz: Tuple[float, ...]
    average_power_w: Tuple[float, ...]
    peak_temperature_c: Tuple[float, ...]
    final_limiting: Tuple[str, ...]
    package_cstates: Tuple[str, ...]

    @property
    def count(self) -> int:
        """Number of dice summarised."""
        return len(self.sustained_frequency_hz)

    def sustained_quantiles_ghz(
        self, quantiles: Sequence[float] = (5.0, 50.0, 95.0)
    ) -> Tuple[float, ...]:
        """Quantiles of the per-die sustained frequency, in GHz."""
        values = np.percentile(
            np.array(self.sustained_frequency_hz), list(quantiles)
        )
        return tuple(float(v) / 1e9 for v in values)


@dataclass(frozen=True)
class SpecBinningResult(Codec):
    """SKU binning of the population measured on one base spec's design."""

    spec_name: str
    assignments: Tuple[int, ...]
    report: BinReport

    @property
    def yield_fractions(self) -> Dict[str, float]:
        """Yield fraction per bin — the interface shared with streaming."""
        return dict(self.report.yield_fractions)


@dataclass(frozen=True)
class PopulationResult(Codec):
    """The completed grid of a population study.

    Everything needed to replay the run rides along: the variation model,
    the seed, the die count, the method and (for streaming runs) the shard
    size.  Cells are addressable by (spec variant, scenario name); binning
    is per *base* spec (the design the dice were measured on).  In-memory
    runs carry :class:`PopulationCellResult` / :class:`SpecBinningResult`
    entries with per-die tuples; streaming runs carry the bounded
    :class:`~repro.variation.streaming.StreamingCellResult` /
    :class:`~repro.variation.streaming.StreamingBinningResult` shapes.
    """

    name: str
    seed: Optional[int]
    count: int
    method: str
    variations: VariationModel
    binning_policy: BinningPolicy
    cells: Tuple[Union[PopulationCellResult, StreamingCellResult], ...]
    binning: Tuple[Union[SpecBinningResult, StreamingBinningResult], ...]
    shard_size: Optional[int] = None

    # -- lookup ------------------------------------------------------------------------

    def cell(
        self, spec: Union[SystemSpec, str], scenario: Union[DynamicScenario, str]
    ) -> Union[PopulationCellResult, StreamingCellResult]:
        """The cell of one (spec variant, scenario) pair.

        *spec* may be the expanded variant, its label (``"name@45W"``), or
        a plain spec name when only one TDP level was swept.
        """
        scenario_name = scenario if isinstance(scenario, str) else scenario.name
        for candidate in self.cells:
            if candidate.scenario_name != scenario_name:
                continue
            if isinstance(spec, SystemSpec):
                if candidate.spec == spec:
                    return candidate
            elif spec in (candidate.spec.label, candidate.spec.name):
                return candidate
        raise ConfigurationError(
            f"population study {self.name!r} has no cell "
            f"({spec!r}, {scenario_name!r})"
        )

    def spec_binning(
        self, spec_name: str
    ) -> Union[SpecBinningResult, StreamingBinningResult]:
        """Binning of the population measured on one base spec."""
        for candidate in self.binning:
            if candidate.spec_name == spec_name:
                return candidate
        raise ConfigurationError(
            f"population study {self.name!r} has no binning for "
            f"{spec_name!r}; known: {[b.spec_name for b in self.binning]}"
        )

    def bin_yields(self, spec_name: str) -> Dict[str, float]:
        """Yield fraction per bin (including scrap) on one base spec."""
        return dict(self.spec_binning(spec_name).yield_fractions)

    def sustained_by_bin(
        self,
        cell: Union[PopulationCellResult, StreamingCellResult],
        spec_name: str,
        quantiles: Sequence[float] = (5.0, 95.0),
    ) -> Dict[str, Tuple[float, ...]]:
        """Per-bin quantiles of sustained frequency (GHz) for one cell.

        In-memory cells join their per-die sustained frequencies against
        the bin assignments of *spec_name*'s binning; streaming cells carry
        per-bin accumulators built from the same (TDP-invariant) bin
        assignments at condense time.  Empty bins are omitted either way.
        """
        if isinstance(cell, StreamingCellResult):
            return cell.sustained_by_bin_ghz(quantiles)
        binning = self.spec_binning(spec_name)
        if not isinstance(binning, SpecBinningResult):
            raise ConfigurationError(
                "in-memory cells need per-die bin assignments, but "
                f"{spec_name!r} carries a streaming binning result"
            )
        assignments = np.array(binning.assignments)
        sustained = np.array(cell.sustained_frequency_hz)
        names = (*binning.report.bin_names, SCRAP_BIN)
        out: Dict[str, Tuple[float, ...]] = {}
        for index, bin_name in enumerate(names):
            selector = -1 if bin_name == SCRAP_BIN else index
            members = assignments == selector
            if members.any():
                values = np.percentile(sustained[members], list(quantiles))
                out[bin_name] = tuple(float(v) / 1e9 for v in values)
        return out


# -- the study runner ------------------------------------------------------------------


class PopulationStudy:
    """A Monte Carlo sweep: specs x TDP levels x scenarios x N sampled dice.

    Parameters
    ----------
    specs:
        Base system specs (or registered names) — the designs the dice are
        dropped into.  Must be nominal (no ``die_variation``).
    scenarios:
        Dynamic scenarios every die steps through.
    variations:
        The process-variation model to sample.
    count:
        Population size (dice).
    tdp_levels_w:
        Optional TDP sweep; every spec expands to one variant per level.
    seed:
        RNG seed; recorded in the result so the run can be replayed.
        ``None`` pins :data:`UNSEEDED_DEFAULT_SEED` (``0x5EED``), not OS
        entropy, so every grid cell and the binning pass see the *same*
        dice and the run replays like a seeded one.
    binning:
        SKU binning policy; defaults to
        :func:`~repro.variation.binning.skylake_binning_policy`.
    method:
        ``"fast"`` (lockstep population per cell, default) or
        ``"streaming"`` (one bounded-memory task per die shard; needs
        *shard_size*).
    shard_size:
        Dice per shard for ``method="streaming"``.  Validated up front:
        shard-infeasible configurations (``shard_size < 1``,
        ``shard_size > count``, empty populations) raise
        :class:`~repro.common.errors.ConfigurationError` with actionable
        messages.  Forbidden for ``method="fast"``.
    executor:
        An executor object to run the tasks through, in place of the
        default :class:`~repro.analysis.study.StudyExecutor`.
    max_workers:
        Process count of the default executor (``None``: in-process).
    cache:
        Optional task-result cache (typically a
        :class:`~repro.store.cache.StoreCache`) shared with the inner grid
        study, so population runs land in the persistent store and warm
        re-runs execute zero tasks.
    name:
        Study name used in reports.
    request:
        The unified execution descriptor (executor / max_workers / cache /
        seed / name) in place of the individual keywords;
        :meth:`Study.over_population
        <repro.analysis.study.Study.over_population>` builds one.
    """

    METHODS = ("fast", "streaming")

    def __init__(
        self,
        specs: Sequence[Union[SystemSpec, str]],
        scenarios: Sequence[DynamicScenario],
        variations: VariationModel,
        count: int,
        *,
        tdp_levels_w: Optional[Sequence[float]] = None,
        seed: Optional[int] = 0,
        binning: Optional[BinningPolicy] = None,
        method: str = "fast",
        shard_size: Optional[int] = None,
        executor: Optional[Executor] = None,
        max_workers: Optional[int] = None,
        cache: Optional[MutableMapping[StudyTask, Any]] = None,
        name: str = "population-study",
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
            request.validate("PopulationStudy")
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        if method not in self.METHODS:
            raise ConfigurationError(
                f"unknown population method {method!r}; known: {list(self.METHODS)}"
            )
        if method == "streaming":
            if shard_size is None:
                raise ConfigurationError(
                    "method='streaming' needs a shard_size (dice per shard; "
                    "4096 is a good default)"
                )
            # ShardPlan owns the actionable shard-feasibility errors.
            ShardPlan(count=count, shard_size=int(shard_size))
            shard_size = int(shard_size)
        elif shard_size is not None:
            raise ConfigurationError(
                f"shard_size only applies to method='streaming' "
                f"(got shard_size={shard_size} with method={method!r}); "
                "drop it or switch methods"
            )
        self._base_specs = tuple(resolve_spec(spec) for spec in specs)
        if not self._base_specs:
            raise ConfigurationError("a population study needs at least one spec")
        for spec in self._base_specs:
            if spec.die_variation is not None:
                raise ConfigurationError(
                    f"base spec {spec.name!r} already carries a die variation; "
                    "population studies vary nominal specs"
                )
        self._scenarios = tuple(scenarios)
        if not self._scenarios:
            raise ConfigurationError(
                "a population study needs at least one scenario"
            )
        self._variations = variations
        self._count = count
        # Cell tasks re-draw the population from the seed (they must be
        # pure and picklable), so an unseeded study pins one seed up front
        # — otherwise every cell would sample different dice.  The pinned
        # seed is the documented default rather than OS entropy: an
        # "unseeded" run is then replayable by construction (same dice in
        # every process, same content-addressed run IDs), and a caller who
        # wants fresh dice passes a seed of their own choosing.
        seed = UNSEEDED_DEFAULT_SEED if request.seed is None else int(request.seed)
        self._request = dataclasses.replace(request, seed=seed)
        self._binning = binning if binning is not None else skylake_binning_policy()
        self._method = method
        self._shard_size = shard_size
        self._tasks_total = 0
        self._tasks_executed = 0
        if tdp_levels_w is None:
            self._cell_specs = self._base_specs
            self._cell_base_specs = self._base_specs
        else:
            expanded = [
                (spec.variant(tdp_w=tdp), spec)
                for tdp in tdp_levels_w
                for spec in self._base_specs
            ]
            self._cell_specs = tuple(cell for cell, _ in expanded)
            self._cell_base_specs = tuple(base for _, base in expanded)

    # -- introspection -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Study name."""
        return self._request.name

    @property
    def seed(self) -> int:
        """The seed threaded through every stochastic path of this study."""
        assert self._request.seed is not None  # pinned in __init__
        return self._request.seed

    @property
    def count(self) -> int:
        """Population size."""
        return self._count

    @property
    def method(self) -> str:
        """Execution method (``"fast"`` or ``"streaming"``)."""
        return self._method

    @property
    def shard_size(self) -> Optional[int]:
        """Dice per shard (``None`` for ``method="fast"``)."""
        return self._shard_size

    @property
    def tasks_total(self) -> int:
        """Grid tasks of the last :meth:`run` (0 before any run)."""
        return self._tasks_total

    @property
    def tasks_executed(self) -> int:
        """Cache-miss tasks of the last :meth:`run` (0 before any run)."""
        return self._tasks_executed

    @property
    def cell_specs(self) -> Tuple[SystemSpec, ...]:
        """The (TDP-expanded) spec axis of the grid."""
        return self._cell_specs

    def sample(self) -> DiePopulation:
        """The study's population (deterministic in the seed)."""
        return DiePopulationSampler(self._variations).sample(
            self._count, seed=self.seed
        )

    # -- execution ---------------------------------------------------------------------

    def run(self) -> PopulationResult:
        """Execute the grid and return the condensed population result."""
        if self._method == "streaming":
            return self._run_streaming()
        population = self.sample()
        tasks = [
            CallableTask(
                key=f"{spec.label}/{scenario.name}",
                fn=_run_fast_cell,
                args=(spec, scenario, self._variations, self._count, self.seed),
            )
            for spec in self._cell_specs
            for scenario in self._scenarios
        ]
        grid = self._run_grid(tasks)
        cells = [
            grid.task(f"{spec.label}/{scenario.name}")
            for spec in self._cell_specs
            for scenario in self._scenarios
        ]
        return self._in_memory_result(cells, population)

    def _in_memory_result(
        self, cells: Sequence[PopulationCellResult], population: DiePopulation
    ) -> PopulationResult:
        """*cells* plus every base spec's binning of *population*."""
        binning = tuple(
            self._bin_population(spec, population) for spec in self._base_specs
        )
        return PopulationResult(
            name=self.name,
            seed=self.seed,
            count=self._count,
            method=self._method,
            variations=self._variations,
            binning_policy=self._binning,
            cells=tuple(cells),
            binning=binning,
        )

    def _run_grid(self, tasks: Sequence[CallableTask]) -> Any:
        """Run the grid tasks through the executor (store-cached if given)."""
        study = Study(
            tasks=list(tasks), request=self._request.derive(f"{self.name}-grid")
        )
        grid = study.run()
        self._tasks_total = len(study)
        self._tasks_executed = study.tasks_executed
        return grid

    def _run_streaming(self) -> PopulationResult:
        """The streaming path: one bounded task per (cell, shard).

        Never materialises the full population — each shard task samples
        only its own die range, and the merged accumulators stay O(shard
        x trace length), so the peak footprint is independent of
        ``count``.
        """
        assert self._shard_size is not None  # validated in __init__
        plan = ShardPlan(count=self._count, shard_size=self._shard_size)
        tasks: List[CallableTask] = []
        for spec, base_spec in zip(self._cell_specs, self._cell_base_specs):
            for scenario in self._scenarios:
                for shard in range(plan.n_shards):
                    tasks.append(
                        CallableTask(
                            key=f"{spec.label}/{scenario.name}/shard{shard}",
                            fn=run_cell_shard,
                            args=(
                                spec, scenario, self._variations, self._count,
                                self.seed, shard, self._shard_size,
                                self._binning, base_spec,
                            ),
                        )
                    )
        for spec in self._base_specs:
            for shard in range(plan.n_shards):
                tasks.append(
                    CallableTask(
                        key=f"binning/{spec.name}/shard{shard}",
                        fn=run_binning_shard,
                        args=(
                            spec, self._variations, self._count, self.seed,
                            shard, self._shard_size, self._binning,
                        ),
                    )
                )
        grid = self._run_grid(tasks)
        cells: List[Union[PopulationCellResult, StreamingCellResult]] = []
        for spec in self._cell_specs:
            for scenario in self._scenarios:
                shards = [
                    grid.task(f"{spec.label}/{scenario.name}/shard{shard}")
                    for shard in range(plan.n_shards)
                ]
                cells.append(
                    merge_cell_shards(shards).finalize(self._shard_size)
                )
        binning = tuple(
            merge_binning_shards(
                spec.name,
                [
                    grid.task(f"binning/{spec.name}/shard{shard}")
                    for shard in range(plan.n_shards)
                ],
                self._count,
            )
            for spec in self._base_specs
        )
        return PopulationResult(
            name=self.name,
            seed=self.seed,
            count=self._count,
            method=self._method,
            variations=self._variations,
            binning_policy=self._binning,
            cells=tuple(cells),
            binning=binning,
            shard_size=self._shard_size,
        )

    def _bin_population(
        self, spec: SystemSpec, population: DiePopulation
    ) -> SpecBinningResult:
        metrics = die_metrics(build_engine(spec).pcode, population)
        assignments = self._binning.assign(metrics)
        return SpecBinningResult(
            spec_name=spec.name,
            assignments=tuple(int(a) for a in assignments),
            report=self._binning.report(metrics, assignments),
        )
