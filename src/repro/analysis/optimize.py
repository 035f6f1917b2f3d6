"""Declarative inverse queries: solve for decision variables, don't sweep.

Where :class:`~repro.analysis.study.Study` enumerates a grid and reports
every cell, this module inverts the question in the declarative
constraint/assert style of the atopile exemplar: state what must hold
(``sustained_frequency_hz >= 3.0e9``), what may move (``tdp_w`` over a
discrete grid, SKU-bin cutoffs), and what to optimize (min TDP, max
yield × ASP), then let the solver issue only the probe cells it needs.

Three solver families cover the paper's inverse questions:

* ``method="bisect"`` — vectorized bisection over one monotone decision
  variable (every pending query probes in the same executor round), exact
  on discrete grids: it returns precisely the point a dense sweep's
  argmin/argmax would.
* ``method="grid"`` / ``method="pareto"`` — the dense scan and its
  Pareto-front extraction over several variables, for non-monotone
  questions and frontier studies (Vmin/guardband, frequency-vs-TDP).
* ``method="cutoff"`` — yield × ASP over a seeded die population: one
  population draw per system, then a vectorized scan of the cutoff grid
  against the same :class:`~repro.variation.binning.BinningPolicy`
  arithmetic the yield reports use.

Every probe dispatches through the unified
:class:`~repro.analysis.study.SweepRequest` machinery — the same
executor, caches and run store the ``over_*`` sweeps use — so a probe
round's dynamic cells step in lockstep batches, ``max_workers=N`` spreads
a round over N processes, and a warm store replays a whole optimization
with zero simulator tasks.  Results are schema-versioned,
JSON-round-tripping :class:`OptimizationResult` values that land in the
run store next to the sweeps they condensed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.study import (
    CallableTask,
    Study,
    SweepRequest,
)
from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.common.validation import seed_or_default
from repro.core.spec import SystemSpec, build_engine, resolve_spec
from repro.pmu.dvfs import CpuDemand
from repro.pmu.pcode import Pcode
from repro.variation.binning import (
    SCRAP_BIN,
    BinningPolicy,
    DieMetrics,
    die_metrics,
    skylake_binning_policy,
)
from repro.variation.distributions import VariationModel
from repro.variation.sampler import DiePopulationSampler
from repro.workloads.dynamics import DynamicScenario

__all__ = [
    "Constraint",
    "Objective",
    "OptimizationCell",
    "OptimizationPoint",
    "OptimizationResult",
    "OptimizationSpec",
    "OptimizationStudy",
]

#: Objective directions.
SENSES = ("min", "max")

#: Constraint comparison operators.
OPS = (">=", "<=")

#: Solver families and what they need.
METHODS = {
    "bisect": "one monotone variable, >=1 constraint, objective on the variable",
    "grid": "dense scan: >=1 variable, exactly one objective",
    "pareto": "frontier: >=1 variable, >=2 objectives",
    "cutoff": "SKU cutoffs over a population: variables name policy bins",
}

#: The suite under which dynamics probe cells are filed.
PROBE_SUITE = "optimize"


# -- the declarative query -------------------------------------------------------------


@dataclass(frozen=True)
class Objective(Codec):
    """What to optimize: a metric (or decision variable) and a direction."""

    metric: str
    sense: str = "min"

    def __post_init__(self) -> None:
        if not self.metric:
            raise ConfigurationError("objective metric must be a non-empty string")
        if self.sense not in SENSES:
            raise ConfigurationError(
                f"objective sense must be one of {SENSES}, got {self.sense!r}"
            )

    def better(self, a: float, b: float) -> bool:
        """True when *a* strictly beats *b* under this objective."""
        return a < b if self.sense == "min" else a > b

    def describe(self) -> str:
        """``min metric`` / ``max metric``."""
        return f"{self.sense} {self.metric}"


@dataclass(frozen=True)
class Constraint(Codec):
    """A declarative feasibility bound: ``metric <op> value``."""

    metric: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if not self.metric:
            raise ConfigurationError("constraint metric must be a non-empty string")
        if self.op not in OPS:
            raise ConfigurationError(
                f"constraint op must be one of {OPS}, got {self.op!r}"
            )
        if not np.isfinite(self.value):
            raise ConfigurationError(
                f"constraint value must be finite, got {self.value!r}"
            )

    def satisfied(self, value: float) -> bool:
        """Whether *value* clears this bound (exact comparisons)."""
        return value >= self.value if self.op == ">=" else value <= self.value

    def describe(self) -> str:
        """``metric >= value`` in human-readable form."""
        return f"{self.metric} {self.op} {self.value:g}"


VariableGrids = Union[
    Mapping[str, Sequence[float]],
    Sequence[Tuple[str, Sequence[float]]],
]
AspTable = Union[Mapping[str, float], Sequence[Tuple[str, float]]]


@dataclass(frozen=True)
class OptimizationSpec(Codec):
    """One declarative inverse query, ready to solve.

    Parameters
    ----------
    name:
        Query name; used in reports, store manifests and error messages.
    method:
        One of :data:`METHODS`.
    objectives:
        What to optimize.  ``bisect``/``grid``/``cutoff`` take exactly
        one objective; ``pareto`` takes two or more.
    constraints:
        Feasibility bounds every solution must clear.
    variables:
        Decision variables: name -> discrete ascending grid (a mapping or
        a sequence of pairs; stored canonically as tuples).  For
        ``bisect``/``grid``/``pareto`` the names are
        :class:`~repro.core.spec.SystemSpec` variant fields (``tdp_w``,
        ``guardband_offset_v``, ...); for ``cutoff`` they are SKU-bin
        names whose ``min_fmax_hz`` cutoff moves over the grid.
    asp:
        ``cutoff`` only: bin name -> average selling price, the weights of
        the yield × ASP revenue objective.
    """

    name: str
    method: str
    objectives: Tuple[Objective, ...]
    constraints: Tuple[Constraint, ...] = ()
    variables: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    asp: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("optimization name must be a non-empty string")
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown optimization method {self.method!r}; known: "
                + ", ".join(f"{m} ({what})" for m, what in METHODS.items())
            )
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        variables = self.variables
        if isinstance(variables, Mapping):
            variables = tuple(variables.items())
        object.__setattr__(
            self,
            "variables",
            tuple(
                (str(name), tuple(float(v) for v in grid))
                for name, grid in variables
            ),
        )
        asp = self.asp
        if isinstance(asp, Mapping):
            asp = tuple(asp.items())
        object.__setattr__(
            self,
            "asp",
            tuple(sorted((str(name), float(value)) for name, value in asp)),
        )
        self._validate()

    def _validate(self) -> None:
        if not self.objectives:
            raise ConfigurationError(
                f"optimization {self.name!r} needs at least one objective"
            )
        if not self.variables:
            raise ConfigurationError(
                f"optimization {self.name!r} needs at least one decision variable"
            )
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"optimization {self.name!r} has duplicate variable names {names}"
            )
        for name, grid in self.variables:
            if not grid:
                raise ConfigurationError(
                    f"optimization {self.name!r}: variable {name!r} has an "
                    "empty grid — give it at least one candidate value"
                )
            if not all(np.isfinite(v) for v in grid):
                raise ConfigurationError(
                    f"optimization {self.name!r}: variable {name!r} grid "
                    "contains non-finite values"
                )
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigurationError(
                    f"optimization {self.name!r}: variable {name!r} grid must "
                    "be strictly ascending (bisection and tie-breaking are "
                    "defined on ordered grids)"
                )
        if self.method == "bisect":
            if len(self.variables) != 1:
                raise ConfigurationError(
                    f"method='bisect' takes exactly one decision variable; "
                    f"{self.name!r} declares {len(self.variables)}"
                    " — use method='grid' or method='pareto' for multi-"
                    "variable queries"
                )
            if not self.constraints:
                raise ConfigurationError(
                    f"method='bisect' needs at least one constraint to "
                    f"bisect against; {self.name!r} declares none"
                )
            if len(self.objectives) != 1:
                raise ConfigurationError(
                    f"method='bisect' takes exactly one objective; "
                    f"{self.name!r} declares {len(self.objectives)}"
                )
            objective = self.objectives[0]
            if objective.metric != self.variables[0][0]:
                raise ConfigurationError(
                    f"method='bisect' optimizes its decision variable "
                    f"directly; objective metric {objective.metric!r} must "
                    f"equal the variable name {self.variables[0][0]!r}"
                )
        elif self.method in ("grid", "cutoff"):
            if len(self.objectives) != 1:
                raise ConfigurationError(
                    f"method={self.method!r} takes exactly one objective; "
                    f"{self.name!r} declares {len(self.objectives)}"
                )
        elif self.method == "pareto":
            if len(self.objectives) < 2:
                raise ConfigurationError(
                    f"method='pareto' needs at least two objectives to trade "
                    f"off; {self.name!r} declares {len(self.objectives)}"
                )
        if self.method == "cutoff" and not self.asp:
            raise ConfigurationError(
                f"method='cutoff' needs an asp table (bin name -> selling "
                f"price) to weight yields; {self.name!r} declares none"
            )
        if self.method != "cutoff" and self.asp:
            raise ConfigurationError(
                f"asp only applies to method='cutoff' (got an asp table "
                f"with method={self.method!r})"
            )

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Decision-variable names, in declaration order."""
        return tuple(name for name, _ in self.variables)

    @property
    def grids(self) -> Dict[str, Tuple[float, ...]]:
        """Variable name -> candidate grid."""
        return dict(self.variables)

    @property
    def asp_table(self) -> Dict[str, float]:
        """Bin name -> average selling price (``cutoff`` queries)."""
        return dict(self.asp)

    def describe(self) -> str:
        """One-line human-readable form of the query."""
        parts = [objective.describe() for objective in self.objectives]
        if self.constraints:
            parts.append(
                "s.t. " + " and ".join(c.describe() for c in self.constraints)
            )
        return f"{self.name}: " + "; ".join(parts)


# -- results ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizationPoint(Codec):
    """One solved decision point: variable values and probed metrics."""

    variables: Tuple[Tuple[str, float], ...]
    metrics: Tuple[Tuple[str, float], ...]

    def variable(self, name: str) -> float:
        """The solved value of decision variable *name*."""
        for key, value in self.variables:
            if key == name:
                return value
        raise ConfigurationError(
            f"no variable {name!r} in this point; solved: "
            f"{[key for key, _ in self.variables]}"
        )

    def metric(self, name: str) -> float:
        """The probed value of metric *name* at this point."""
        for key, value in self.metrics:
            if key == name:
                return value
        raise ConfigurationError(
            f"no metric {name!r} recorded at this point; recorded: "
            f"{[key for key, _ in self.metrics]}"
        )


@dataclass(frozen=True)
class OptimizationCell(Codec):
    """The solution of one query for one base system spec."""

    spec: SystemSpec
    points: Tuple[OptimizationPoint, ...]
    probes: int

    @property
    def best(self) -> OptimizationPoint:
        """The solution point (scalar queries) / first frontier point."""
        return self.points[0]


@dataclass(frozen=True)
class OptimizationResult(Codec):
    """A solved inverse query: one cell per base system spec.

    Serialises to JSON (:meth:`to_json` / :meth:`from_json` round-trip to
    an equal result) and lands in the run store when the study is backed
    by a :class:`~repro.store.cache.StoreCache`.
    """

    kind: ClassVar[str] = "optimization"

    name: str
    spec: OptimizationSpec
    seed: Optional[int]
    cells: Tuple[OptimizationCell, ...]

    def cell(self, spec: Union[SystemSpec, str]) -> OptimizationCell:
        """The cell solved for *spec* (a spec, spec name, or label)."""
        wanted = spec if isinstance(spec, str) else spec.label
        for candidate in self.cells:
            if wanted in (candidate.spec.label, candidate.spec.name):
                return candidate
        raise ConfigurationError(
            f"no cell for spec {wanted!r} in optimization {self.name!r}; "
            f"solved: {[c.spec.label for c in self.cells]}"
        )

    def as_table(self, title: Optional[str] = None) -> str:
        """Render every cell's solution as a text table."""
        rows = []
        for cell in self.cells:
            for point in cell.points:
                rows.append(
                    [
                        cell.spec.label,
                        ", ".join(f"{n}={v:g}" for n, v in point.variables),
                        ", ".join(f"{n}={v:g}" for n, v in point.metrics),
                        cell.probes,
                    ]
                )
        return format_table(
            ["system", "solution", "metrics", "probes"],
            rows,
            title=self.spec.describe() if title is None else title,
        )


# -- probe tasks (module-level so process pools can pickle them) -----------------------


def _static_probe(spec: SystemSpec, demand: CpuDemand) -> Dict[str, float]:
    """Sustained-operating-point metrics of one spec variant.

    Returns plain JSON scalars so the run store persists probe results
    through its ``json`` codec.
    """
    point = build_engine(spec).pcode.resolve_cpu_operating_point(demand)
    return {
        "sustained_frequency_hz": float(point.frequency_hz),
        "package_power_w": float(point.package_power_w),
        "voltage_v": float(point.voltage_v),
        "junction_temperature_c": float(point.junction_temperature_c),
    }


def frequency_ceiling_hz(pcode: Pcode, demand: CpuDemand) -> float:
    """The Vmax/Iccmax-limited frequency ceiling of *demand* on *pcode*.

    The highest candidate frequency feasible regardless of TDP or thermals
    — no power budget can sustain more.  Returns ``0.0`` when no bin is
    electrically feasible at all.
    """
    table = pcode.dvfs_policy.candidate_table(demand)
    feasible = np.asarray(table.vmax_ok) & np.asarray(table.iccmax_ok)
    if not feasible.any():
        return 0.0
    return float(np.asarray(table.frequencies_hz)[feasible].max())


def _population_probe(
    spec: SystemSpec,
    variations: VariationModel,
    count: int,
    seed: int,
) -> Dict[str, List[float]]:
    """Per-die test metrics of one seeded population on one design.

    The cutoff scan re-bins these columns for every candidate cutoff
    combination without touching the simulator again; plain JSON lists so
    the run store persists the draw.
    """
    population = DiePopulationSampler(variations).sample(count, seed=seed)
    metrics = die_metrics(build_engine(spec).pcode, population)
    return {
        "fmax_hz": [float(v) for v in metrics.fmax_hz],
        "leakage_w": [float(v) for v in metrics.leakage_w],
        "vmin_v": [float(v) for v in metrics.vmin_v],
    }


def _result_placeholder(*args: Any) -> Any:
    """Fingerprint anchor for whole-result store entries; never executed."""
    raise ConfigurationError(
        "optimization results are computed by OptimizationStudy.run(), "
        "not executed as study tasks"
    )


# -- the solver ------------------------------------------------------------------------


class OptimizationStudy:
    """A declared inverse query bound to base specs and an evaluation backend.

    Built by :meth:`Study.optimize`.  ``run()`` solves the query and
    returns an :class:`OptimizationResult`; probe sweeps dispatch through
    the study executor, so ``max_workers=N`` parallelises probe rounds
    and a :class:`~repro.store.cache.StoreCache` makes warm re-runs
    execute zero simulator tasks (the condensed result itself is
    content-addressed in the store, keyed by query, specs, backend and
    seed).
    """

    def __init__(
        self,
        specs: Sequence[Union[SystemSpec, str]],
        spec: OptimizationSpec,
        *,
        scenario: Optional[DynamicScenario] = None,
        demand: Optional[CpuDemand] = None,
        variations: Optional[VariationModel] = None,
        count: Optional[int] = None,
        binning: Optional[BinningPolicy] = None,
        request: Optional[SweepRequest] = None,
    ) -> None:
        if not isinstance(spec, OptimizationSpec):
            raise ConfigurationError(
                f"spec must be an OptimizationSpec, got {type(spec).__name__}"
            )
        self._spec = spec
        self._base_specs = tuple(resolve_spec(entry) for entry in specs)
        if not self._base_specs:
            raise ConfigurationError(
                "an optimization needs at least one base spec"
            )
        labels = [base.label for base in self._base_specs]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"duplicate base specs in optimization: {labels}"
            )
        if request is None:
            request = SweepRequest(name=spec.name)
        if request.cache is None:
            # One shared probe cache for the study's lifetime, so bisection
            # rounds and the final solution read-back never re-execute.
            request = dataclasses.replace(request, cache={})
        self._request = request
        self._scenario = scenario
        self._demand = demand
        self._variations = variations
        self._count = count
        self._binning = binning
        self._tasks_total = 0
        self._tasks_executed = 0
        self._validate_backend()

    def _validate_backend(self) -> None:
        name = self._spec.name
        if self._spec.method == "cutoff":
            if self._scenario is not None or self._demand is not None:
                raise ConfigurationError(
                    f"optimization {name!r}: method='cutoff' rebins a die "
                    "population; pass variations=/count=, not scenario= or "
                    "demand="
                )
            if self._variations is None or self._count is None:
                raise ConfigurationError(
                    f"optimization {name!r}: method='cutoff' needs "
                    "variations= (a VariationModel) and count= (dice to "
                    "draw)"
                )
            if self._count < 1:
                raise ConfigurationError("count must be >= 1")
            binning = (
                self._binning
                if self._binning is not None
                else skylake_binning_policy()
            )
            self._binning = binning
            known = set(binning.bin_names)
            unknown = [
                v for v in self._spec.variable_names if v not in known
            ]
            if unknown:
                raise ConfigurationError(
                    f"optimization {name!r}: cutoff variables must name "
                    f"policy bins; unknown: {unknown}, known: "
                    f"{sorted(known)}"
                )
            missing_asp = [
                b for b in binning.bin_names if b not in self._spec.asp_table
            ]
            if missing_asp:
                raise ConfigurationError(
                    f"optimization {name!r}: asp table is missing bins "
                    f"{missing_asp}; every bin of the policy needs a "
                    "selling price (use 0.0 for unsold bins)"
                )
            return
        if self._variations is not None or self._count is not None:
            raise ConfigurationError(
                f"optimization {name!r}: variations=/count= only apply to "
                "method='cutoff'"
            )
        if self._binning is not None:
            raise ConfigurationError(
                f"optimization {name!r}: binning= only applies to "
                "method='cutoff'"
            )
        if (self._scenario is None) == (self._demand is None):
            raise ConfigurationError(
                f"optimization {name!r}: pass exactly one evaluation "
                "backend — scenario= (closed-loop dynamics probes) or "
                "demand= (static sustained-operating-point probes)"
            )

    # -- introspection -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Query name (the sweep-request name)."""
        return self._request.name

    @property
    def spec(self) -> OptimizationSpec:
        """The declarative query being solved."""
        return self._spec

    @property
    def request(self) -> SweepRequest:
        """The unified execution descriptor probes run under."""
        return self._request

    @property
    def seed(self) -> Optional[int]:
        """Seed of the query's stochastic paths (population draws)."""
        if self._spec.method == "cutoff":
            return seed_or_default(self._request.seed)
        return self._request.seed

    @property
    def tasks_total(self) -> int:
        """Probe tasks declared across all solve rounds so far.

        A warm :meth:`run` served from the stored result declares no probe
        and counts that result as one task (served, not executed).
        """
        return self._tasks_total

    @property
    def tasks_executed(self) -> int:
        """Probe tasks actually executed (cache misses) so far."""
        return self._tasks_executed

    # -- execution ---------------------------------------------------------------------

    def run(self) -> OptimizationResult:
        """Solve the query and return the per-spec solutions.

        When the study is cache-backed, the condensed result is stored
        under a content-addressed key; a warm ``run()`` returns it without
        issuing a single probe.
        """
        result_task = self._result_task()
        cache = self._request.cache
        if cache is not None and result_task in cache:
            cached = cache[result_task]
            if isinstance(cached, OptimizationResult):
                self._tasks_total += 1
                return cached
        method = self._spec.method
        if method == "bisect":
            cells = self._solve_bisect()
        elif method == "grid":
            cells = self._solve_grid()
        elif method == "pareto":
            cells = self._solve_pareto()
        else:
            cells = self._solve_cutoff()
        result = OptimizationResult(
            name=self._request.name,
            spec=self._spec,
            seed=self.seed,
            cells=cells,
        )
        if cache is not None:
            cache[result_task] = result
        return result

    def _result_task(self) -> CallableTask:
        """The content-addressed identity of the condensed result."""
        return CallableTask(
            key=f"optimize/{self._spec.name}",
            fn=_result_placeholder,
            args=(
                self._spec,
                self._base_specs,
                self._scenario,
                self._demand,
                self._variations,
                self._count,
                self._binning,
            ),
        )

    # -- probe evaluation --------------------------------------------------------------

    def _needed_metrics(self) -> Tuple[str, ...]:
        """Metrics the query reads (constraints + non-variable objectives)."""
        variables = set(self._spec.variable_names)
        names = {c.metric for c in self._spec.constraints}
        names.update(
            o.metric for o in self._spec.objectives if o.metric not in variables
        )
        return tuple(sorted(names))

    def _evaluate(
        self,
        probes: Sequence[Tuple[SystemSpec, Tuple[Tuple[str, float], ...]]],
    ) -> List[Dict[str, float]]:
        """Evaluate decision points — one executor round for the batch.

        Each probe is ``(base spec, variable assignment)``; the variant
        spec is built through :meth:`SystemSpec.variant` (which rejects
        unknown variable names with an actionable error).  Returns the
        probed metric mapping per point, in order.
        """
        variants: List[SystemSpec] = []
        for base, assignment in probes:
            variants.append(base.variant(**dict(assignment)))
        unique: Dict[SystemSpec, None] = {}
        for variant in variants:
            unique.setdefault(variant)
        needed = self._needed_metrics()
        probe_request = self._request.derive(f"{self._request.name}-probes")
        if self._scenario is not None:
            study = Study(
                tuple(unique),
                {PROBE_SUITE: [self._scenario]},
                request=probe_request,
            )
            grid = study.run()
            self._tasks_total += len(study)
            self._tasks_executed += study.tasks_executed
            values: Dict[SystemSpec, Dict[str, float]] = {}
            for variant in unique:
                result = grid.get(variant, self._scenario.name, PROBE_SUITE)
                values[variant] = {
                    name: self._dynamic_metric(result, name) for name in needed
                }
        else:
            tasks = [
                CallableTask(
                    key=f"probe/{variant.label}",
                    fn=_static_probe,
                    args=(variant, self._demand),
                )
                for variant in unique
            ]
            study = Study(tasks=tasks, request=probe_request)
            grid = study.run()
            self._tasks_total += len(study)
            self._tasks_executed += study.tasks_executed
            values = {}
            for variant, task in zip(unique, tasks):
                probed = grid.task(task.key)
                values[variant] = {
                    name: self._static_metric(probed, name) for name in needed
                }
        return [values[variant] for variant in variants]

    def _dynamic_metric(self, result: Any, name: str) -> float:
        value = getattr(result, name, None)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"optimization {self._spec.name!r}: {name!r} is not a "
                "numeric metric of dynamics probes; use e.g. "
                "sustained_frequency_hz, average_frequency_hz, "
                "peak_frequency_hz, peak_temperature_c, or primary_metric"
            )
        return float(value)

    def _static_metric(self, probed: Mapping[str, float], name: str) -> float:
        if name not in probed:
            raise ConfigurationError(
                f"optimization {self._spec.name!r}: {name!r} is not a "
                "metric of static sustained-operating-point probes; "
                f"available: {sorted(probed)}"
            )
        return float(probed[name])

    def _feasible(self, metrics: Mapping[str, float]) -> bool:
        return all(
            c.satisfied(metrics[c.metric]) for c in self._spec.constraints
        )

    # -- solvers -----------------------------------------------------------------------

    def _solve_bisect(self) -> Tuple[OptimizationCell, ...]:
        """Vectorized bisection: all pending queries probe in one round.

        Feasibility is assumed monotone along the (ascending) grid — true
        for TDP-style variables, where raising the limit only enlarges the
        feasible set.  ``min`` finds the leftmost feasible point,
        ``max`` the rightmost; on discrete grids both coincide exactly
        with the dense sweep's answer.
        """
        name, grid = self._spec.variables[0]
        sense = self._spec.objectives[0].sense
        last = len(grid) - 1
        best_end = last if sense == "min" else 0

        probed: Dict[Tuple[str, int], Dict[str, float]] = {}
        counts: Dict[str, int] = {base.label: 0 for base in self._base_specs}

        def rounds(
            wanted: Sequence[Tuple[SystemSpec, int]]
        ) -> None:
            fresh = [
                (base, index)
                for base, index in wanted
                if (base.label, index) not in probed
            ]
            if not fresh:
                return
            metrics = self._evaluate(
                [(base, ((name, grid[index]),)) for base, index in fresh]
            )
            for (base, index), values in zip(fresh, metrics):
                probed[(base.label, index)] = values
                counts[base.label] += 1

        # The most-permissive end decides feasibility of the whole query.
        rounds([(base, best_end) for base in self._base_specs])
        infeasible = [
            base
            for base in self._base_specs
            if not self._feasible(probed[(base.label, best_end)])
        ]
        if infeasible:
            raise self._infeasible_error(
                name, grid[best_end], infeasible, probed, best_end
            )

        lo = {base.label: 0 for base in self._base_specs}
        hi = {base.label: last for base in self._base_specs}
        while True:
            pending = [
                base
                for base in self._base_specs
                if lo[base.label] < hi[base.label]
            ]
            if not pending:
                break
            mids = {}
            for base in pending:
                low, high = lo[base.label], hi[base.label]
                mids[base.label] = (
                    (low + high) // 2 if sense == "min" else (low + high + 1) // 2
                )
            rounds([(base, mids[base.label]) for base in pending])
            for base in pending:
                mid = mids[base.label]
                feasible = self._feasible(probed[(base.label, mid)])
                if sense == "min":
                    if feasible:
                        hi[base.label] = mid
                    else:
                        lo[base.label] = mid + 1
                else:
                    if feasible:
                        lo[base.label] = mid
                    else:
                        hi[base.label] = mid - 1

        # The converged index was always probed feasible along the way;
        # read its metrics back (pure cache hits).
        rounds([(base, lo[base.label]) for base in self._base_specs])
        cells = []
        for base in self._base_specs:
            index = lo[base.label]
            metrics = probed[(base.label, index)]
            point = OptimizationPoint(
                variables=((name, grid[index]),),
                metrics=tuple(sorted(metrics.items())),
            )
            cells.append(
                OptimizationCell(
                    spec=base, points=(point,), probes=counts[base.label]
                )
            )
        return tuple(cells)

    def _infeasible_error(
        self,
        variable: str,
        best_value: float,
        infeasible: Sequence[SystemSpec],
        probed: Mapping[Tuple[str, int], Mapping[str, float]],
        best_end: int,
    ) -> ConfigurationError:
        """An actionable 'no feasible point' error, with a ceiling hint."""
        details = []
        for base in infeasible:
            metrics = probed[(base.label, best_end)]
            misses = [
                f"{c.describe()} fails ({c.metric}={metrics[c.metric]:g})"
                for c in self._spec.constraints
                if not c.satisfied(metrics[c.metric])
            ]
            detail = f"{base.label}: " + "; ".join(misses)
            ceiling = self._ceiling_hint(base)
            if ceiling is not None:
                detail += ceiling
            details.append(detail)
        _, grid = self._spec.variables[0]
        return ConfigurationError(
            f"optimization {self._spec.name!r}: no feasible point on the "
            f"{variable} grid [{grid[0]:g} .. {grid[-1]:g}] — even "
            f"{variable}={best_value:g} misses the constraints. "
            + " | ".join(details)
            + ". Widen the grid or relax the constraints."
        )

    def _ceiling_hint(self, base: SystemSpec) -> Optional[str]:
        """When a frequency target exceeds the Vmax/Iccmax ceiling, say so."""
        targets = [
            c
            for c in self._spec.constraints
            if c.metric == "sustained_frequency_hz" and c.op == ">="
        ]
        if not targets:
            return None
        demand = self._demand
        if demand is None and self._scenario is not None:
            for phase in self._scenario.phases:
                if not phase.is_idle:
                    demand = phase.demand()
                    break
        if demand is None:
            return None
        ceiling = frequency_ceiling_hz(build_engine(base).pcode, demand)
        over = [c for c in targets if c.value > ceiling]
        if not over:
            return None
        return (
            f" (target {over[0].value / 1e9:g} GHz exceeds the "
            f"Vmax/Iccmax-limited ceiling {ceiling / 1e9:g} GHz — no "
            "power budget can reach it)"
        )

    def _variable_combos(self) -> List[Tuple[Tuple[str, float], ...]]:
        """The cartesian product of variable grids, row-major (last fastest)."""
        combos: List[Tuple[Tuple[str, float], ...]] = [()]
        for name, grid in self._spec.variables:
            combos = [
                combo + ((name, value),) for combo in combos for value in grid
            ]
        return combos

    def _dense_points(
        self,
    ) -> Dict[str, List[Tuple[Tuple[Tuple[str, float], ...], Dict[str, float]]]]:
        """Evaluate the full grid for every base spec (the dense scan)."""
        combos = self._variable_combos()
        probes = [
            (base, combo) for base in self._base_specs for combo in combos
        ]
        metrics = self._evaluate(probes)
        per_spec: Dict[
            str, List[Tuple[Tuple[Tuple[str, float], ...], Dict[str, float]]]
        ] = {base.label: [] for base in self._base_specs}
        for (base, combo), values in zip(probes, metrics):
            per_spec[base.label].append((combo, values))
        return per_spec

    def _objective_value(
        self,
        objective: Objective,
        combo: Tuple[Tuple[str, float], ...],
        metrics: Mapping[str, float],
    ) -> float:
        for name, value in combo:
            if name == objective.metric:
                return value
        return metrics[objective.metric]

    def _empty_feasible_error(self, base: SystemSpec) -> ConfigurationError:
        constraints = " and ".join(
            c.describe() for c in self._spec.constraints
        )
        return ConfigurationError(
            f"optimization {self._spec.name!r}: empty feasible set for "
            f"{base.label} — no grid point satisfies {constraints}. "
            "Widen the variable grids or relax the constraints."
        )

    def _solve_grid(self) -> Tuple[OptimizationCell, ...]:
        """The dense scan: evaluate every combination, keep the argbest.

        Ties break toward the first point in row-major grid order, the
        same order a hand-rolled nested-loop sweep visits — so this is
        the brute-force oracle the fast solvers are tested against.
        """
        objective = self._spec.objectives[0]
        per_spec = self._dense_points()
        cells = []
        for base in self._base_specs:
            best: Optional[Tuple[Tuple[Tuple[str, float], ...], Dict[str, float]]] = (
                None
            )
            best_score = 0.0
            for combo, metrics in per_spec[base.label]:
                if not self._feasible(metrics):
                    continue
                score = self._objective_value(objective, combo, metrics)
                if best is None or objective.better(score, best_score):
                    best, best_score = (combo, metrics), score
            if best is None:
                raise self._empty_feasible_error(base)
            combo, metrics = best
            point = OptimizationPoint(
                variables=combo, metrics=tuple(sorted(metrics.items()))
            )
            cells.append(
                OptimizationCell(
                    spec=base,
                    points=(point,),
                    probes=len(per_spec[base.label]),
                )
            )
        return tuple(cells)

    def _solve_pareto(self) -> Tuple[OptimizationCell, ...]:
        """Dense scan + Pareto-front extraction over >= 2 objectives.

        A point survives unless another feasible point is at least as good
        in every objective and strictly better in one.  The frontier keeps
        row-major grid order (deterministic and oracle-friendly).
        """
        objectives = self._spec.objectives
        per_spec = self._dense_points()
        cells = []
        for base in self._base_specs:
            feasible = [
                (combo, metrics)
                for combo, metrics in per_spec[base.label]
                if self._feasible(metrics)
            ]
            if not feasible:
                raise self._empty_feasible_error(base)
            scores = [
                tuple(
                    self._objective_value(objective, combo, metrics)
                    for objective in objectives
                )
                for combo, metrics in feasible
            ]
            frontier = []
            for i, (combo, metrics) in enumerate(feasible):
                dominated = False
                for j, other in enumerate(scores):
                    if j == i:
                        continue
                    at_least_as_good = all(
                        not objective.better(mine, theirs)
                        for objective, mine, theirs in zip(
                            objectives, scores[i], other
                        )
                    )
                    strictly_better = any(
                        objective.better(theirs, mine)
                        for objective, mine, theirs in zip(
                            objectives, scores[i], other
                        )
                    )
                    if at_least_as_good and strictly_better:
                        dominated = True
                        break
                if not dominated:
                    frontier.append(
                        OptimizationPoint(
                            variables=combo,
                            metrics=tuple(sorted(metrics.items())),
                        )
                    )
            cells.append(
                OptimizationCell(
                    spec=base,
                    points=tuple(frontier),
                    probes=len(per_spec[base.label]),
                )
            )
        return tuple(cells)

    # -- the cutoff (yield x ASP) solver -----------------------------------------------

    def _cutoff_metrics(
        self, policy: BinningPolicy, metrics: DieMetrics
    ) -> Dict[str, float]:
        """Revenue and yields of one candidate policy over one population."""
        report = policy.report(metrics)
        asp = self._spec.asp_table
        fractions = report.yield_fractions
        revenue = sum(
            fractions[bin_name] * asp[bin_name]
            for bin_name in policy.bin_names
        )
        values: Dict[str, float] = {
            "revenue_per_die": float(revenue),
            "yield.total": float(1.0 - fractions[SCRAP_BIN]),
        }
        for bin_name in (*policy.bin_names, SCRAP_BIN):
            values[f"yield.{bin_name}"] = float(fractions[bin_name])
        return values

    def _solve_cutoff(self) -> Tuple[OptimizationCell, ...]:
        """Yield × ASP over a seeded population: one draw, vectorized scan.

        The simulator runs once per base spec (the population's die
        metrics); every cutoff combination is then re-binned in-process
        with the exact :class:`~repro.variation.binning.BinningPolicy`
        arithmetic of the yield reports, so the argbest matches a
        brute-force scan bit for bit.
        """
        assert self._binning is not None and self._variations is not None
        assert self._count is not None
        objective = self._spec.objectives[0]
        seed = seed_or_default(self._request.seed)
        tasks = [
            CallableTask(
                key=f"die-metrics/{base.label}",
                fn=_population_probe,
                args=(base, self._variations, self._count, seed),
            )
            for base in self._base_specs
        ]
        study = Study(
            tasks=tasks,
            request=self._request.derive(f"{self._request.name}-population"),
        )
        grid = study.run()
        self._tasks_total += len(study)
        self._tasks_executed += study.tasks_executed
        combos = self._variable_combos()
        cells = []
        for base, task in zip(self._base_specs, tasks):
            columns = grid.task(task.key)
            metrics = DieMetrics(
                fmax_hz=np.asarray(columns["fmax_hz"], dtype=float),
                leakage_w=np.asarray(columns["leakage_w"], dtype=float),
                vmin_v=np.asarray(columns["vmin_v"], dtype=float),
            )
            best: Optional[Tuple[Tuple[Tuple[str, float], ...], Dict[str, float]]] = (
                None
            )
            best_score = 0.0
            for combo in combos:
                cutoffs = dict(combo)
                candidate = BinningPolicy(
                    bins=tuple(
                        dataclasses.replace(
                            sku_bin, min_fmax_hz=cutoffs[sku_bin.name]
                        )
                        if sku_bin.name in cutoffs
                        else sku_bin
                        for sku_bin in self._binning.bins
                    )
                )
                values = self._cutoff_metrics(candidate, metrics)
                try:
                    feasible = self._feasible(values)
                    score = self._objective_value(objective, combo, values)
                except KeyError as error:
                    raise ConfigurationError(
                        f"optimization {self._spec.name!r}: unknown cutoff "
                        f"metric {error.args[0]!r}; available: "
                        f"{sorted(values)} (plus the variable names)"
                    ) from None
                if not feasible:
                    continue
                if best is None or objective.better(score, best_score):
                    best, best_score = (combo, values), score
            if best is None:
                raise self._empty_feasible_error(base)
            combo, values = best
            point = OptimizationPoint(
                variables=combo, metrics=tuple(sorted(values.items()))
            )
            cells.append(
                OptimizationCell(spec=base, points=(point,), probes=1)
            )
        return tuple(cells)
