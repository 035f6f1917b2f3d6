"""Inverse queries: ``Study.optimize`` against brute-force oracles.

The solvers earn their keep only if they are *exact*: on a discrete grid,
bisection must return precisely the point a dense sweep's argmin would,
the cutoff scan must match a hand-rolled nested loop over
:class:`~repro.variation.binning.BinningPolicy` reports bit for bit, and
the Pareto frontier must contain exactly the non-dominated feasible
points.  These tests pin that contract — through the serial and
process-pool executors and through a warm run store that must execute
zero simulator tasks — plus the declarative-spec validation, the
actionable infeasibility errors, the unified ``SweepRequest`` keyword
handling, and the JSON round trip of every result.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.optimize import (
    Constraint,
    Objective,
    OptimizationResult,
    OptimizationSpec,
    OptimizationStudy,
)
from repro.analysis.study import Study, SweepRequest
from repro.common.errors import ConfigurationError
from repro.core.spec import build_engine, resolve_spec
from repro.pmu.dvfs import CpuDemand
from repro.store.artifacts import RunStore
from repro.store.cache import StoreCache
from repro.variation.binning import (
    SCRAP_BIN,
    die_metrics,
    skylake_binning_policy,
)
from repro.variation.distributions import skylake_process_variation
from repro.variation.population import UNSEEDED_DEFAULT_SEED
from repro.variation.sampler import DiePopulationSampler
from repro.workloads.dynamics import sustained_scenario

DEMAND = CpuDemand(active_cores=4)
TDP_GRID = tuple(float(t) for t in range(10, 92, 3))
TARGET_HZ = 3.0e9


def _min_tdp_query(method: str, name: str = "min-tdp") -> OptimizationSpec:
    return OptimizationSpec(
        name=name,
        method=method,
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", TARGET_HZ),),
        variables={"tdp_w": TDP_GRID},
    )


# -- spec validation -------------------------------------------------------------------


class TestSpecValidation:
    def test_unknown_method_names_known_set(self):
        with pytest.raises(ConfigurationError, match="bisect.*grid.*pareto.*cutoff"):
            OptimizationSpec(
                name="bad", method="anneal", objectives=(Objective("x"),),
                variables={"x": (1.0,)},
            )

    def test_objective_sense_validated(self):
        with pytest.raises(ConfigurationError, match="min.*max"):
            Objective("tdp_w", "minimise")

    def test_constraint_op_validated(self):
        with pytest.raises(ConfigurationError, match=">=.*<="):
            Constraint("f", "==", 1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="empty grid"):
            OptimizationSpec(
                name="bad", method="grid", objectives=(Objective("x"),),
                variables={"x": ()},
            )

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly ascending"):
            OptimizationSpec(
                name="bad", method="grid", objectives=(Objective("x"),),
                variables={"x": (2.0, 1.0)},
            )

    def test_bisect_needs_constraint(self):
        with pytest.raises(ConfigurationError, match="at least one constraint"):
            OptimizationSpec(
                name="bad", method="bisect",
                objectives=(Objective("tdp_w", "min"),),
                variables={"tdp_w": (10.0, 20.0)},
            )

    def test_bisect_objective_must_be_the_variable(self):
        with pytest.raises(ConfigurationError, match="must equal the variable"):
            OptimizationSpec(
                name="bad", method="bisect",
                objectives=(Objective("package_power_w", "min"),),
                constraints=(Constraint("sustained_frequency_hz", ">=", 1e9),),
                variables={"tdp_w": (10.0, 20.0)},
            )

    def test_pareto_needs_two_objectives(self):
        with pytest.raises(ConfigurationError, match="at least two objectives"):
            OptimizationSpec(
                name="bad", method="pareto",
                objectives=(Objective("tdp_w", "min"),),
                variables={"tdp_w": (10.0, 20.0)},
            )

    def test_cutoff_needs_asp(self):
        with pytest.raises(ConfigurationError, match="asp"):
            OptimizationSpec(
                name="bad", method="cutoff",
                objectives=(Objective("revenue_per_die", "max"),),
                variables={"premium-desktop": (4.0e9,)},
            )

    def test_mapping_and_pair_variables_are_equivalent(self):
        from_mapping = _min_tdp_query("bisect")
        from_pairs = dataclasses.replace(
            from_mapping, variables=(("tdp_w", TDP_GRID),)
        )
        assert from_mapping == from_pairs

    def test_describe_mentions_objective_and_constraints(self):
        text = _min_tdp_query("bisect").describe()
        assert "min tdp_w" in text
        assert "sustained_frequency_hz >= 3e+09" in text


# -- backend validation ----------------------------------------------------------------


class TestBackendValidation:
    def test_exactly_one_backend_required(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Study.optimize(("darkgates",), _min_tdp_query("bisect"))
        with pytest.raises(ConfigurationError, match="exactly one"):
            Study.optimize(
                ("darkgates",), _min_tdp_query("bisect"),
                demand=DEMAND, scenario=sustained_scenario(),
            )

    def test_population_args_rejected_outside_cutoff(self):
        with pytest.raises(ConfigurationError, match="cutoff"):
            Study.optimize(
                ("darkgates",), _min_tdp_query("bisect"),
                demand=DEMAND, count=100,
            )

    def test_cutoff_requires_population_args(self):
        query = OptimizationSpec(
            name="cut", method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            variables={"premium-desktop": (4.2e9,)},
            asp={"premium-desktop": 450.0, "mainstream-mobile": 220.0},
        )
        with pytest.raises(ConfigurationError, match="variations.*count"):
            Study.optimize(("darkgates",), query)

    def test_cutoff_unknown_bin_lists_known(self):
        query = OptimizationSpec(
            name="cut", method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            variables={"ultra-premium": (4.2e9,)},
            asp={"ultra-premium": 900.0},
        )
        with pytest.raises(ConfigurationError, match="unknown.*ultra-premium.*known"):
            Study.optimize(
                ("darkgates",), query,
                variations=skylake_process_variation(), count=64,
            )

    def test_cutoff_missing_asp_bin_listed(self):
        query = OptimizationSpec(
            name="cut", method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            variables={"premium-desktop": (4.2e9,)},
            asp={"premium-desktop": 450.0},
        )
        with pytest.raises(ConfigurationError, match="mainstream-mobile"):
            Study.optimize(
                ("darkgates",), query,
                variations=skylake_process_variation(), count=64,
            )

    def test_unknown_sweep_kwarg_names_valid_set(self):
        with pytest.raises(ConfigurationError, match="valid keywords.*executor"):
            Study.optimize(
                ("darkgates",), _min_tdp_query("bisect"),
                demand=DEMAND, workers=4,
            )

    def test_unknown_metric_names_available_set(self):
        query = OptimizationSpec(
            name="bad-metric", method="bisect",
            objectives=(Objective("tdp_w", "min"),),
            constraints=(Constraint("fmax_sustained", ">=", 1e9),),
            variables={"tdp_w": (10.0, 91.0)},
        )
        with pytest.raises(ConfigurationError, match="available.*sustained_frequency_hz"):
            Study.optimize(("darkgates",), query, demand=DEMAND).run()


# -- oracle exactness ------------------------------------------------------------------


class TestBisectMatchesDenseOracle:
    def test_static_backend_exact(self):
        fast = Study.optimize(
            ("darkgates", "baseline"), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        oracle = Study.optimize(
            ("darkgates", "baseline"), _min_tdp_query("grid", "oracle"),
            demand=DEMAND,
        ).run()
        for solved, dense in zip(fast.cells, oracle.cells):
            assert solved.best.variables == dense.best.variables
            assert solved.best.metrics == dense.best.metrics
            assert solved.probes < dense.probes

    def test_dynamics_backend_exact(self):
        scenario = sustained_scenario()
        grid = tuple(float(t) for t in range(15, 92, 4))
        query = dataclasses.replace(
            _min_tdp_query("bisect"), variables=(("tdp_w", grid),)
        )
        oracle_query = dataclasses.replace(
            query, name="oracle", method="grid"
        )
        fast = Study.optimize(("darkgates",), query, scenario=scenario).run()
        oracle = Study.optimize(
            ("darkgates",), oracle_query, scenario=scenario
        ).run()
        assert fast.cells[0].best == oracle.cells[0].best

    def test_max_sense_exact(self):
        # Highest TDP whose package power stays under a budget: feasibility
        # is monotone the other way, exercising the mirrored bisection.
        grid = tuple(float(t) for t in range(10, 92, 3))
        query = OptimizationSpec(
            name="max-tdp", method="bisect",
            objectives=(Objective("tdp_w", "max"),),
            constraints=(Constraint("package_power_w", "<=", 45.0),),
            variables={"tdp_w": grid},
        )
        oracle_query = dataclasses.replace(query, name="oracle", method="grid")
        fast = Study.optimize(("darkgates",), query, demand=DEMAND).run()
        oracle = Study.optimize(
            ("darkgates",), oracle_query, demand=DEMAND
        ).run()
        assert fast.cells[0].best == oracle.cells[0].best

    def test_process_pool_matches_serial(self):
        serial = Study.optimize(
            ("darkgates", "baseline"), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        pooled = Study.optimize(
            ("darkgates", "baseline"), _min_tdp_query("bisect"),
            demand=DEMAND, max_workers=2,
        ).run()
        assert serial == pooled


class TestCutoffMatchesBruteForce:
    CUTOFF_GRIDS = {
        "premium-desktop": (4.0e9, 4.2e9, 4.4e9, 4.6e9),
        "mainstream-mobile": (3.4e9, 3.7e9, 4.0e9),
    }
    ASP = {"premium-desktop": 450.0, "mainstream-mobile": 220.0}
    COUNT = 1500
    SEED = 11

    def _query(self):
        return OptimizationSpec(
            name="cutoffs", method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            constraints=(Constraint("yield.total", ">=", 0.55),),
            variables=self.CUTOFF_GRIDS,
            asp=self.ASP,
        )

    def _brute_force(self):
        """Row-major nested loop over BinningPolicy reports — the oracle."""
        policy = skylake_binning_policy()
        spec = resolve_spec("darkgates")
        population = DiePopulationSampler(skylake_process_variation()).sample(
            self.COUNT, seed=self.SEED
        )
        metrics = die_metrics(build_engine(spec).pcode, population)
        best = None
        for combo in itertools.product(
            *(self.CUTOFF_GRIDS[name] for name in self.CUTOFF_GRIDS)
        ):
            cutoffs = dict(zip(self.CUTOFF_GRIDS, combo))
            candidate = dataclasses.replace(
                policy,
                bins=tuple(
                    dataclasses.replace(b, min_fmax_hz=cutoffs[b.name])
                    for b in policy.bins
                ),
            )
            report = candidate.report(metrics)
            total_yield = 1.0 - report.yield_fractions[SCRAP_BIN]
            if total_yield < 0.55:
                continue
            revenue = sum(
                report.yield_fractions[name] * self.ASP[name]
                for name in candidate.bin_names
            )
            if best is None or revenue > best[1]:
                best = (cutoffs, revenue)
        return best

    def test_matches_nested_loop_bit_for_bit(self):
        result = Study.optimize(
            ("darkgates",), self._query(),
            variations=skylake_process_variation(), count=self.COUNT,
            seed=self.SEED,
        ).run()
        cutoffs, revenue = self._brute_force()
        best = result.cells[0].best
        assert dict(best.variables) == cutoffs
        assert best.metric("revenue_per_die") == revenue

    def test_unseeded_pins_documented_default(self):
        study = Study.optimize(
            ("darkgates",), self._query(),
            variations=skylake_process_variation(), count=64,
        )
        assert study.seed == UNSEEDED_DEFAULT_SEED
        assert study.run().seed == UNSEEDED_DEFAULT_SEED


class TestParetoFrontier:
    GRID = (15.0, 25.0, 35.0, 45.0, 65.0, 91.0)

    def _query(self):
        return OptimizationSpec(
            name="front", method="pareto",
            objectives=(
                Objective("tdp_w", "min"),
                Objective("sustained_frequency_hz", "max"),
            ),
            variables={"tdp_w": self.GRID},
        )

    def test_every_point_nondominated_and_every_excluded_dominated(self):
        result = Study.optimize(
            ("darkgates",), self._query(), demand=DEMAND
        ).run()
        points = {
            point.variable("tdp_w"): point.metric("sustained_frequency_hz")
            for point in result.cells[0].points
        }
        assert points, "frontier must not be empty"

        def dominates(a, b):
            tdp_a, f_a = a
            tdp_b, f_b = b
            return (tdp_a <= tdp_b and f_a >= f_b) and (
                tdp_a < tdp_b or f_a > f_b
            )

        frontier = list(points.items())
        for mine in frontier:
            assert not any(
                dominates(other, mine) for other in frontier if other != mine
            )

    def test_monotone_tradeoff_keeps_every_grid_point(self):
        # Sustained frequency is non-decreasing in TDP, so no point is
        # dominated: the frontier must be the whole grid, in grid order.
        result = Study.optimize(
            ("darkgates",), self._query(), demand=DEMAND
        ).run()
        tdps = [p.variable("tdp_w") for p in result.cells[0].points]
        assert tdps == list(self.GRID)


# -- warm store ------------------------------------------------------------------------


class TestStoreIntegration:
    def test_warm_store_executes_zero_tasks(self, tmp_path):
        store = RunStore(tmp_path / "store")
        cold = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND,
            cache=StoreCache(store=store),
        )
        cold_result = cold.run()
        assert cold.tasks_executed > 0

        warm = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND,
            cache=StoreCache(store=store),
        )
        warm_result = warm.run()
        assert warm_result == cold_result
        # The stored result is the one task, served without a probe.
        assert warm.tasks_total == 1
        assert warm.tasks_executed == 0

    def test_changed_query_misses_the_short_circuit(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND,
            cache=StoreCache(store=store),
        ).run()
        tightened = dataclasses.replace(
            _min_tdp_query("bisect"),
            constraints=(
                Constraint("sustained_frequency_hz", ">=", TARGET_HZ + 1e8),
            ),
        )
        second = Study.optimize(
            ("darkgates",), tightened, demand=DEMAND,
            cache=StoreCache(store=store),
        )
        result = second.run()
        # The condensed result re-solves, but every probe it shares with
        # the first query is served from the store.
        assert second.tasks_total > 0
        assert second.tasks_executed < second.tasks_total
        assert (
            result.cells[0].best.variable("tdp_w")
            >= first.cells[0].best.variable("tdp_w")
        )

    def test_store_codec_round_trips_result(self, tmp_path):
        from repro.store.artifacts import decode_value, encode_value

        result = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        payload = encode_value(result)
        assert payload["codec"] == "optimization"
        assert decode_value(payload) == result


# -- infeasibility errors --------------------------------------------------------------


class TestInfeasibleErrors:
    def test_target_above_fmax_ceiling_names_the_ceiling(self):
        query = OptimizationSpec(
            name="impossible", method="bisect",
            objectives=(Objective("tdp_w", "min"),),
            constraints=(Constraint("sustained_frequency_hz", ">=", 9.9e9),),
            variables={"tdp_w": (15.0, 91.0)},
        )
        with pytest.raises(
            ConfigurationError,
            match=r"exceeds the Vmax/Iccmax-limited ceiling",
        ):
            Study.optimize(("darkgates",), query, demand=DEMAND).run()

    def test_infeasible_bracket_names_grid_and_constraint(self):
        query = OptimizationSpec(
            name="short-grid", method="bisect",
            objectives=(Objective("tdp_w", "min"),),
            constraints=(Constraint("sustained_frequency_hz", ">=", TARGET_HZ),),
            variables={"tdp_w": (10.0, 15.0, 20.0)},
        )
        with pytest.raises(
            ConfigurationError, match=r"\[10 \.\. 20\].*Widen the grid"
        ):
            Study.optimize(("darkgates",), query, demand=DEMAND).run()

    def test_empty_feasible_set_on_dense_grid(self):
        query = OptimizationSpec(
            name="empty", method="grid",
            objectives=(Objective("tdp_w", "min"),),
            constraints=(Constraint("sustained_frequency_hz", ">=", 9.9e9),),
            variables={"tdp_w": (10.0, 15.0)},
        )
        with pytest.raises(ConfigurationError, match="empty feasible set"):
            Study.optimize(("darkgates",), query, demand=DEMAND).run()

    def test_cutoff_empty_feasible_set(self):
        query = OptimizationSpec(
            name="greedy", method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            constraints=(Constraint("yield.total", ">=", 1.5),),
            variables={"premium-desktop": (4.2e9,)},
            asp={"premium-desktop": 450.0, "mainstream-mobile": 220.0},
        )
        with pytest.raises(ConfigurationError, match="empty feasible set"):
            Study.optimize(
                ("darkgates",), query,
                variations=skylake_process_variation(), count=64,
            ).run()


# -- result plumbing -------------------------------------------------------------------


class TestResultShape:
    def test_json_round_trip_is_equal(self):
        result = Study.optimize(
            ("darkgates", "baseline"), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        assert OptimizationResult.from_json(result.to_json()) == result

    def test_cell_lookup_by_label_and_unknown_raises(self):
        result = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        assert result.cell("darkgates@91W").best.variable("tdp_w") > 0
        with pytest.raises(ConfigurationError, match="no cell"):
            result.cell("nonexistent")

    def test_as_table_mentions_solution(self):
        result = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND
        ).run()
        table = result.as_table()
        assert "tdp_w=" in table and "darkgates@91W" in table

    def test_study_optimize_returns_optimization_study(self):
        study = Study.optimize(
            ("darkgates",), _min_tdp_query("bisect"), demand=DEMAND
        )
        assert isinstance(study, OptimizationStudy)
        assert study.request.name == "min-tdp"

    def test_duplicate_base_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate base specs"):
            Study.optimize(
                ("darkgates", "darkgates"), _min_tdp_query("bisect"),
                demand=DEMAND,
            )


# -- hypothesis properties -------------------------------------------------------------


@st.composite
def _monotone_feasibility(draw):
    """A grid plus a monotone feasibility pattern (False* True*)."""
    size = draw(st.integers(min_value=1, max_value=24))
    first_feasible = draw(st.integers(min_value=0, max_value=size))
    return size, first_feasible


@given(_monotone_feasibility())
@settings(max_examples=100)
def test_bisection_bracket_invariant_matches_linear_scan(pattern):
    """Leftmost-feasible bisection == linear scan on any monotone pattern.

    The bisect solver's loop with ``feasible -> hi = mid`` maintains the
    invariant "everything below lo is infeasible, hi is feasible"; this
    drives the same index arithmetic over synthetic feasibility and checks
    it lands on the first True, for every grid size and threshold.
    """
    size, first_feasible = pattern
    feasible = [index >= first_feasible for index in range(size)]
    if not feasible[-1]:
        return  # infeasible bracket: the solver raises before bisecting
    lo, hi = 0, size - 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if feasible[mid]:
            hi = mid
        else:
            lo = mid + 1
    assert lo == feasible.index(True)
    assert probes <= max(1, int(np.ceil(np.log2(size))) + 1)


@given(
    points=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=100)
def test_pareto_partition_property(points):
    """Dominance partitions any point set: kept <-> non-dominated."""
    objectives = (Objective("a", "min"), Objective("b", "max"))

    def dominated(mine, others):
        for other in others:
            if other == mine:
                continue
            as_good = all(
                not o.better(m, t)
                for o, m, t in zip(objectives, mine, other)
            )
            better = any(
                o.better(t, m) for o, m, t in zip(objectives, mine, other)
            )
            if as_good and better:
                return True
        return False

    unique = sorted(set(points))
    frontier = [p for p in unique if not dominated(p, unique)]
    assert frontier, "a finite point set always has a non-dominated point"
    for point in unique:
        assert (point in frontier) == (not dominated(point, unique))


@given(
    grids=st.lists(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        min_size=1,
        max_size=3,
    ),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
)
@settings(max_examples=60)
def test_spec_and_result_json_round_trip(grids, seed):
    """Any valid spec (and a result built on it) survives its JSON trip."""
    spec = OptimizationSpec(
        name="prop", method="grid",
        objectives=(Objective("v0", "min"),),
        constraints=(Constraint("metric", ">=", 0.5),),
        variables=[
            (f"v{index}", tuple(sorted(grid)))
            for index, grid in enumerate(grids)
        ],
    )
    assert OptimizationSpec.from_dict(spec.to_dict()) == spec

    from repro.analysis.optimize import OptimizationCell, OptimizationPoint

    result = OptimizationResult(
        name="prop", spec=spec, seed=seed,
        cells=(
            OptimizationCell(
                spec=resolve_spec("darkgates"),
                points=(
                    OptimizationPoint(
                        variables=(("v0", float(grids[0][0])),),
                        metrics=(("metric", 1.25),),
                    ),
                ),
                probes=3,
            ),
        ),
    )
    assert OptimizationResult.from_json(result.to_json()) == result
