"""``python -m repro`` — drive studies through the persistent run store.

Subcommands::

    run        execute a sweep (specs x scenarios/suites x TDPs), persisting
               every cell; warm cells are served from the store
    optimize   solve an inverse query (min TDP for a frequency target, or
               yield x ASP SKU cutoffs) instead of sweeping densely
    summarize  tabulate stored runs matching filters
    index      rebuild the cross-run SQLite index from the on-disk manifests
    compare    join two specs' stored runs and report metric ratios
    gc         collect stale runs (dry-run by default; --apply deletes)
    lint       static determinism/invariant analysis of the source tree
               (see :mod:`repro.devtools.lint`)

Examples::

    python -m repro run --spec darkgates --spec baseline \\
        --scenario burst --tdp 35 --tdp 91
    python -m repro run --spec darkgates --scenario sustained --tdp 65 \\
        --population 10000 --shard-size 2048 --seed 7
    python -m repro run --spec darkgates --spec baseline \\
        --profile datacenter --ensemble 8 --tdp 35 --seed 7
    python -m repro optimize --spec darkgates --spec baseline \\
        --target-ghz 3.0 --tdp-grid 10:91:5 --cores 4
    python -m repro optimize --spec darkgates --population 10000 --seed 7 \\
        --asp premium-desktop=450 --asp mainstream-mobile=220 \\
        --cutoff premium-desktop:4.0:4.5:0.1
    python -m repro index
    python -m repro summarize --spec darkgates --kind dynamic --tdp 35
    python -m repro compare --spec darkgates --spec baseline --tdp 35
    python -m repro gc --apply
    python -m repro lint src/repro tests --json-report lint-report.json
    python -m repro lint --explain RPR003

The store root comes from ``--store``, the ``REPRO_STORE_DIR`` environment
variable, or ``~/.repro_store``, in that order.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.study import Study
from repro.common.errors import ConfigurationError, ReproError
from repro.common.validation import seed_or_default
from repro.devtools.lint import cli as lint_cli
from repro.sim.engine import ENGINE_VERSION
from repro.store.artifacts import RunStore
from repro.store.cache import StoreCache
from repro.store.index import RunIndex
from repro.workloads.dynamics import build_scenario, scenario_names
from repro.workloads.energy import energy_star_scenario, rmt_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import spec_cpu2006_base_suite, spec_cpu2006_rate_suite

#: Steady-state workload suites runnable by name from the CLI.
SUITE_BUILDERS = {
    "spec-base": lambda: list(spec_cpu2006_base_suite()),
    "spec-rate": lambda: list(spec_cpu2006_rate_suite(4)),
    "3dmark": lambda: list(three_dmark_suite()),
    "energy": lambda: [energy_star_scenario(), rmt_scenario()],
}


def _parse_opt(text: str) -> Any:
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _scenario_options(pairs: Sequence[str]) -> Dict[str, Any]:
    options: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ConfigurationError(
                f"bad --opt {pair!r}: expected key=value (e.g. duration_s=6)"
            )
        options[key] = _parse_opt(value)
    return options


def _format_metric(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def _sweep_kwargs(args: argparse.Namespace, cache: StoreCache) -> Dict[str, Any]:
    """The sweep keywords every ``run``/``optimize`` study takes from *args*."""
    return {
        "cache": cache,
        "seed": args.seed,
        "name": args.name,
        "max_workers": args.max_workers,
    }


def _reject_stray_opt(args: argparse.Namespace) -> None:
    """``--opt`` overrides scenario builder options; refuse it elsewhere."""
    if args.opt and not args.scenario:
        raise ConfigurationError(
            f"--opt {args.opt[0]} overrides a scenario builder option, so it "
            "needs --scenario; suites, fleet profiles and the static "
            "optimize probe build no scenario"
        )


def _report_tasks(cache: StoreCache, executed: int, total: int, *lines: str) -> int:
    """Index *cache*'s runs, then print *lines* and the executed/served
    footer (so ``| head`` cannot cut the index short); the exit code."""
    indexed = RunIndex(cache.store).update(cache.written, cache.served)
    print(*lines, sep="\n")
    print(
        f"{executed} task(s) executed, "
        f"{total - executed} served from the store ({cache.store.root})"
    )
    print(f"index: {indexed} run(s)")
    return 0


# -- subcommand handlers ---------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    _reject_stray_opt(args)
    cache = StoreCache(args.store, seed=seed_or_default(args.seed))
    if args.profile:
        return _cmd_run_fleet(args, cache)
    if args.ensemble is not None:
        raise ConfigurationError(
            "--ensemble sizes a fleet scenario ensemble; pass --profile "
            "NAME to pick the fleet profile"
        )
    if args.population is not None:
        return _cmd_run_population(args, cache)
    if args.shard_size is not None:
        raise ConfigurationError(
            "--shard-size streams a die population; pass --population N "
            "to pick the population size"
        )
    if bool(args.scenario) == bool(args.suite):
        raise ConfigurationError(
            "pick exactly one of --scenario (dynamic timeline) or --suite "
            f"(steady-state workloads); scenarios: {sorted(scenario_names())}, "
            f"suites: {sorted(SUITE_BUILDERS)}"
        )
    kwargs = _sweep_kwargs(args, cache)
    if args.scenario:
        options = _scenario_options(args.opt)
        scenarios = [build_scenario(name, **options) for name in args.scenario]
        study = Study.over_dynamics(
            args.spec, scenarios, tdp_levels_w=args.tdp or None, **kwargs
        )
    else:
        unknown = [name for name in args.suite if name not in SUITE_BUILDERS]
        if unknown:
            raise ConfigurationError(
                f"unknown suite(s) {unknown}; known: {sorted(SUITE_BUILDERS)}"
            )
        suites = {name: SUITE_BUILDERS[name]() for name in args.suite}
        if args.tdp:
            study = Study.over_tdp_levels(args.spec, args.tdp, suites, **kwargs)
        else:
            study = Study(args.spec, suites, **kwargs)
    result = study.run()
    return _report_tasks(cache, study.tasks_executed, len(study), result.as_table())


def _cmd_run_fleet(args: argparse.Namespace, cache: StoreCache) -> int:
    """``run --profile NAME [--ensemble N]``: a seeded fleet QoS sweep.

    Each profile compiles into a seeded scenario ensemble (bit-identical
    per seed); every member run lands in the store individually, so a warm
    re-run executes zero tasks and prints the same QoS table.
    """
    from repro.fleet.profiles import fleet_profile_names

    if args.scenario or args.suite:
        raise ConfigurationError(
            "--profile compiles its own scenario ensemble; drop --scenario/"
            "--suite (known profiles: "
            f"{sorted(fleet_profile_names())})"
        )
    if args.population is not None or args.shard_size is not None:
        raise ConfigurationError(
            "--profile sweeps nominal specs; drop --population/--shard-size"
        )
    kwargs = _sweep_kwargs(args, cache)
    study = Study.over_fleet(
        args.spec,
        args.profile,
        ensemble=args.ensemble if args.ensemble is not None else 8,
        tdp_levels_w=args.tdp or None,
        **kwargs,
    )
    result = study.run()
    table = result.as_table(
        title=(
            f"{result.name}: ensemble={result.ensemble}, "
            f"seed={result.seed}, "
            f"slo={result.slo_frequency_hz / 1e9:g}GHz"
        )
    )
    return _report_tasks(cache, study.tasks_executed, study.tasks_total, table)


def _cmd_run_population(args: argparse.Namespace, cache: StoreCache) -> int:
    """``run --population N [--shard-size M]``: a die-population sweep.

    With ``--shard-size`` the streaming engine runs (one bounded-memory
    task per die shard); without it the in-memory fast path runs.  Either
    way every task lands in the store, so a warm re-run executes zero
    tasks.
    """
    from repro.variation.distributions import skylake_process_variation

    if args.suite:
        raise ConfigurationError(
            "--population sweeps dynamic scenarios; drop --suite and pass "
            "--scenario instead"
        )
    if not args.scenario:
        raise ConfigurationError(
            "--population needs at least one --scenario; known: "
            f"{sorted(scenario_names())}"
        )
    options = _scenario_options(args.opt)
    scenarios = [build_scenario(name, **options) for name in args.scenario]
    kwargs = _sweep_kwargs(args, cache)
    kwargs["tdp_levels_w"] = args.tdp or None
    if args.shard_size is not None:
        kwargs["method"] = "streaming"
        kwargs["shard_size"] = args.shard_size
    study = Study.over_population(
        args.spec, scenarios, skylake_process_variation(), args.population,
        **kwargs,
    )
    result = study.run()
    rows = []
    for cell in result.cells:
        p5, p50, p95 = cell.sustained_quantiles_ghz((5.0, 50.0, 95.0))
        rows.append(
            [
                cell.spec.label,
                cell.scenario_name,
                f"{p5:.3f}",
                f"{p50:.3f}",
                f"{p95:.3f}",
            ]
        )
    title = (
        f"{result.name}: {result.count} dice, method={result.method}"
        + (
            f", shard_size={result.shard_size}"
            if result.shard_size is not None
            else ""
        )
        + f", seed={result.seed}"
    )
    headers = ["system", "scenario", "sustained_p5", "p50", "p95"]
    lines = [format_table(headers, rows, title=title)]
    for binning in result.binning:
        yields = ", ".join(
            f"{name}={fraction:.4f}"
            for name, fraction in sorted(binning.yield_fractions.items())
        )
        lines.append(f"yields[{binning.spec_name}]: {yields}")
    return _report_tasks(cache, study.tasks_executed, study.tasks_total, *lines)


def _parse_grid(text: str, what: str) -> List[float]:
    """``lo:hi:step`` (inclusive while step lands) or ``a,b,c`` -> floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"bad {what} {text!r}: expected lo:hi:step (e.g. 10:91:5) "
                "or a comma-separated list"
            )
        try:
            lo, hi, step = (float(part) for part in parts)
        except ValueError:
            raise ConfigurationError(
                f"bad {what} {text!r}: lo:hi:step must be numbers"
            ) from None
        if step <= 0 or hi < lo:
            raise ConfigurationError(
                f"bad {what} {text!r}: need hi >= lo and step > 0"
            )
        values = []
        value = lo
        while value <= hi + 1e-9:
            values.append(round(value, 9))
            value += step
        return values
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigurationError(
            f"bad {what} {text!r}: expected lo:hi:step or a comma-"
            "separated list of numbers"
        ) from None


def _cmd_optimize(args: argparse.Namespace) -> int:
    """``optimize``: solve an inverse query instead of sweeping densely.

    Two query forms: ``--target-ghz`` bisects the minimum TDP sustaining a
    frequency target (static ``--cores`` demand or a closed-loop
    ``--scenario``); ``--population`` + ``--cutoff``/``--asp`` maximises
    yield x ASP revenue over SKU-bin cutoff grids.  Probe cells and the
    condensed result land in the store, so a warm re-run executes nothing.
    """
    from repro.analysis.optimize import Constraint, Objective, OptimizationSpec
    from repro.pmu.dvfs import CpuDemand

    _reject_stray_opt(args)
    cache = StoreCache(args.store, seed=seed_or_default(args.seed))
    kwargs = _sweep_kwargs(args, cache)
    if (args.target_ghz is None) == (args.population is None):
        raise ConfigurationError(
            "pick exactly one query: --target-ghz F (min TDP sustaining F "
            "GHz) or --population N with --cutoff/--asp (yield x ASP SKU "
            "cutoffs)"
        )
    if args.population is not None:
        from repro.variation.distributions import skylake_process_variation

        if not args.cutoff:
            raise ConfigurationError(
                "--population needs at least one --cutoff bin:lo:hi:step "
                "(GHz) naming the SKU bin whose cutoff moves"
            )
        if not args.asp:
            raise ConfigurationError(
                "--population needs --asp bin=price for every policy bin "
                "(the yield x ASP revenue weights)"
            )
        variables: Dict[str, List[float]] = {}
        for entry in args.cutoff:
            name, separator, grid_text = entry.partition(":")
            if not separator or not name:
                raise ConfigurationError(
                    f"bad --cutoff {entry!r}: expected bin:lo:hi:step or "
                    "bin:a,b,c (GHz)"
                )
            variables[name] = [
                value * 1e9 for value in _parse_grid(grid_text, "--cutoff grid")
            ]
        asp: Dict[str, float] = {}
        for pair in args.asp:
            key, separator, value = pair.partition("=")
            if not separator or not key:
                raise ConfigurationError(
                    f"bad --asp {pair!r}: expected bin=price "
                    "(e.g. premium-desktop=450)"
                )
            try:
                asp[key] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad --asp {pair!r}: price must be a number"
                ) from None
        constraints = (
            (Constraint("yield.total", ">=", args.min_yield),)
            if args.min_yield is not None
            else ()
        )
        spec = OptimizationSpec(
            name=args.name,
            method="cutoff",
            objectives=(Objective("revenue_per_die", "max"),),
            constraints=constraints,
            variables=variables,
            asp=asp,
        )
        study = Study.optimize(
            args.spec,
            spec,
            variations=skylake_process_variation(),
            count=args.population,
            **kwargs,
        )
    else:
        grid = _parse_grid(args.tdp_grid, "--tdp-grid")
        spec = OptimizationSpec(
            name=args.name,
            method="bisect",
            objectives=(Objective("tdp_w", "min"),),
            constraints=(
                Constraint(
                    "sustained_frequency_hz", ">=", args.target_ghz * 1e9
                ),
            ),
            variables={"tdp_w": grid},
        )
        if args.scenario:
            options = _scenario_options(args.opt)
            scenario = build_scenario(args.scenario[0], **options)
            if len(args.scenario) > 1:
                raise ConfigurationError(
                    "optimize probes one scenario; give --scenario once"
                )
            study = Study.optimize(args.spec, spec, scenario=scenario, **kwargs)
        else:
            study = Study.optimize(
                args.spec,
                spec,
                demand=CpuDemand(active_cores=args.cores),
                **kwargs,
            )
    result = study.run()
    return _report_tasks(
        cache, study.tasks_executed, study.tasks_total, result.as_table()
    )


def _cmd_summarize(args: argparse.Namespace) -> int:
    index = RunIndex(RunStore(args.store))
    if not index.exists():
        index.rebuild()
    manifests = index.query(
        spec=args.spec,
        kind=args.kind,
        workload=args.workload,
        tdp_w=args.tdp,
        seed=args.seed,
    )
    rows = [
        [
            manifest.run_id[:12],
            manifest.spec_label or "-",
            manifest.kind,
            manifest.workload_name,
            "-" if manifest.tdp_w is None else f"{manifest.tdp_w:g}",
            _format_metric(manifest.primary_metric),
            manifest.engine_version,
            manifest.created_at or "-",
        ]
        for manifest in manifests
    ]
    headers = "run system kind workload tdp_w metric engine created".split()
    print(format_table(headers, rows, title=f"{len(rows)} stored run(s)"))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    index = RunIndex(RunStore(args.store))
    count = index.rebuild()
    print(f"indexed {count} run(s) -> {index.path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.spec) != 2:
        raise ConfigurationError(
            "compare needs exactly two --spec arguments (got "
            f"{len(args.spec)})"
        )
    index = RunIndex(RunStore(args.store))
    if not index.exists():
        index.rebuild()
    spec_a, spec_b = args.spec
    entries = index.compare(spec_a, spec_b, kind=args.kind, tdp_w=args.tdp)
    rows = [
        [
            entry["kind"],
            entry["workload_name"],
            "-" if entry["tdp_w"] is None else f"{entry['tdp_w']:g}",
            _format_metric(entry["metric_a"]),
            _format_metric(entry["metric_b"]),
            "-" if entry["ratio"] is None else f"{entry['ratio']:.4f}",
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["kind", "workload", "tdp_w", spec_a, spec_b, "ratio"],
            rows,
            title=f"{spec_a} vs {spec_b} ({len(rows)} shared cell(s))",
        )
    )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    keep_engine = None if args.all else (args.keep_engine_version or ENGINE_VERSION)
    selected = store.gc(
        keep_engine_version=keep_engine,
        tier=args.tier,
        delete_all=args.all,
        apply=args.apply,
    )
    for manifest in selected:
        print(
            f"{'removed' if args.apply else 'would remove'} "
            f"{manifest.run_id[:12]}  {manifest.spec_label or '-'}  "
            f"{manifest.kind}/{manifest.workload_name}  "
            f"engine={manifest.engine_version} tier={manifest.tier}"
        )
    if args.apply:
        index = RunIndex(store)
        if index.exists():
            index.prune([manifest.run_id for manifest in selected])
        print(f"removed {len(selected)} run(s)")
    else:
        print(
            f"dry run: {len(selected)} run(s) selected "
            "(pass --apply to delete)"
        )
    return 0


# -- parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store",
        default=None,
        help="store root (default: $REPRO_STORE_DIR or ~/.repro_store)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Persistent content-addressed run store for repro studies.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", parents=[common], help="execute a sweep through the store"
    )
    run.add_argument(
        "--spec",
        action="append",
        required=True,
        help="registered system spec name (repeatable)",
    )
    run.add_argument(
        "--scenario",
        action="append",
        default=[],
        help=f"dynamic scenario builder name (repeatable): {sorted(scenario_names())}",
    )
    run.add_argument(
        "--suite",
        action="append",
        default=[],
        help=f"steady-state workload suite (repeatable): {sorted(SUITE_BUILDERS)}",
    )
    run.add_argument(
        "--tdp",
        action="append",
        type=float,
        default=[],
        help="TDP level in W (repeatable)",
    )
    run.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario builder override, e.g. duration_s=6 or time_step_s=0.5",
    )
    run.add_argument(
        "--profile",
        action="append",
        default=[],
        help=(
            "fleet profile name (repeatable): compiles a seeded scenario "
            "ensemble and reports per-profile QoS"
        ),
    )
    run.add_argument(
        "--ensemble",
        type=int,
        default=None,
        metavar="N",
        help="ensemble members per fleet profile (default 8; needs --profile)",
    )
    run.add_argument(
        "--population",
        type=int,
        default=None,
        metavar="N",
        help="sweep a seeded N-die population instead of single runs",
    )
    run.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="M",
        help=(
            "stream the population through M-die shards (bounded memory); "
            "requires --population"
        ),
    )
    run.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="run the sweep on N processes (default: in-process)",
    )
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--name", default="cli-study")
    run.set_defaults(handler=_cmd_run)

    optimize = subparsers.add_parser(
        "optimize",
        parents=[common],
        help="solve an inverse query (min TDP / yield x ASP cutoffs)",
        description=(
            "Solve a declarative inverse query through the run store "
            "instead of sweeping densely: bisect the minimum TDP "
            "sustaining --target-ghz, or maximise yield x ASP revenue "
            "over --cutoff grids on a seeded --population."
        ),
    )
    optimize.add_argument(
        "--spec",
        action="append",
        required=True,
        help="registered system spec name (repeatable)",
    )
    optimize.add_argument(
        "--target-ghz",
        type=float,
        default=None,
        help="min-TDP query: sustained frequency target in GHz",
    )
    optimize.add_argument(
        "--tdp-grid",
        default="10:91:1",
        metavar="LO:HI:STEP",
        help="TDP candidate grid in W (or a,b,c list; default 10:91:1)",
    )
    optimize.add_argument(
        "--cores",
        type=int,
        default=4,
        help="static probe demand: active cores (default 4)",
    )
    optimize.add_argument(
        "--scenario",
        action="append",
        default=[],
        help=(
            "probe a closed-loop dynamic scenario instead of the static "
            f"resolver (give once): {sorted(scenario_names())}"
        ),
    )
    optimize.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario builder override, e.g. duration_s=6",
    )
    optimize.add_argument(
        "--population",
        type=int,
        default=None,
        metavar="N",
        help="cutoff query: draw a seeded N-die population",
    )
    optimize.add_argument(
        "--cutoff",
        action="append",
        default=[],
        metavar="BIN:LO:HI:STEP",
        help="cutoff query: bin fmax-cutoff grid in GHz (repeatable)",
    )
    optimize.add_argument(
        "--asp",
        action="append",
        default=[],
        metavar="BIN=PRICE",
        help="cutoff query: selling price per bin (repeatable)",
    )
    optimize.add_argument(
        "--min-yield",
        type=float,
        default=None,
        help="cutoff query: require yield.total >= this fraction",
    )
    optimize.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="run probe rounds on N processes (default: in-process)",
    )
    optimize.add_argument("--seed", type=int, default=None)
    optimize.add_argument("--name", default="cli-optimize")
    optimize.set_defaults(handler=_cmd_optimize)

    summarize = subparsers.add_parser(
        "summarize", parents=[common], help="tabulate stored runs"
    )
    summarize.add_argument("--spec", default=None, help="spec name or label filter")
    summarize.add_argument("--kind", default=None)
    summarize.add_argument("--workload", default=None)
    summarize.add_argument("--tdp", type=float, default=None)
    summarize.add_argument("--seed", type=int, default=None)
    summarize.set_defaults(handler=_cmd_summarize)

    index = subparsers.add_parser(
        "index", parents=[common], help="rebuild the SQLite index from manifests"
    )
    index.set_defaults(handler=_cmd_index)

    compare = subparsers.add_parser(
        "compare", parents=[common], help="join two specs' stored runs"
    )
    compare.add_argument(
        "--spec", action="append", required=True, help="give exactly twice"
    )
    compare.add_argument("--kind", default=None)
    compare.add_argument("--tdp", type=float, default=None)
    compare.set_defaults(handler=_cmd_compare)

    gc = subparsers.add_parser(
        "gc", parents=[common], help="collect stale runs (dry-run by default)"
    )
    gc.add_argument(
        "--all", action="store_true", help="select every stored run"
    )
    gc.add_argument(
        "--keep-engine-version",
        default=None,
        help=f"engine version to keep (default: current, {ENGINE_VERSION})",
    )
    gc.add_argument("--tier", default=None, help="also select runs of this tier")
    gc.add_argument(
        "--apply", action="store_true", help="actually delete (default: dry run)"
    )
    gc.set_defaults(handler=_cmd_gc)

    lint = subparsers.add_parser(
        "lint",
        help="static determinism/invariant analysis (repro.devtools.lint)",
        description=(
            "AST-based analyzer enforcing seed discipline, canonical "
            "JSON/hashing, the ReproError contract, and the import-layering "
            "contract of pyproject.toml.  Exit 0 clean, 1 findings."
        ),
    )
    lint_cli.add_arguments(lint)
    lint.set_defaults(handler=lint_cli.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = int(args.handler(args))
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left (``| head``): no exit-time flush error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
