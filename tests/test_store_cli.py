"""Tests for the ``python -m repro`` command line, run in-process."""

from __future__ import annotations

import contextlib
import io
import os
import re
import sqlite3
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.analysis.study import Study
from repro.sim.engine import ENGINE_VERSION
from repro.store import RunIndex, RunStore
from repro.store.cli import main
from repro.store.manifest import RunManifest, utc_timestamp
from repro.variation.distributions import skylake_process_variation
from repro.workloads.dynamics import build_scenario

TINY_SWEEP = [
    "run",
    "--spec",
    "darkgates",
    "--spec",
    "baseline",
    "--scenario",
    "sustained",
    "--tdp",
    "35",
    "--seed",
    "7",
    "--opt",
    "duration_s=4",
    "--opt",
    "time_step_s=1",
]


@pytest.fixture()
def store_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    return tmp_path


def test_run_cold_then_warm(store_root, capsys):
    assert main(TINY_SWEEP) == 0
    cold = capsys.readouterr().out
    assert "2 task(s) executed, 0 served from the store" in cold
    assert "sustained" in cold
    assert "index: 2 run(s)" in cold

    assert main(TINY_SWEEP) == 0
    warm = capsys.readouterr().out
    assert "0 task(s) executed, 2 served from the store" in warm


def test_run_requires_exactly_one_workload_source(store_root, capsys):
    assert main(["run", "--spec", "darkgates"]) == 2
    assert "exactly one of --scenario" in capsys.readouterr().err
    assert (
        main(
            ["run", "--spec", "darkgates", "--scenario", "sustained", "--suite", "energy"]
        )
        == 2
    )


def test_run_suite_sweep(store_root, capsys):
    assert main(["run", "--spec", "darkgates", "--suite", "energy"]) == 0
    out = capsys.readouterr().out
    assert "RMT" in out
    assert "2 task(s) executed" in out
    assert main(["run", "--spec", "darkgates", "--suite", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_bad_opt_and_bad_scenario_are_clean_errors(store_root, capsys):
    assert main(TINY_SWEEP + ["--opt", "duration_s"]) == 2
    assert "expected key=value" in capsys.readouterr().err
    assert main(["run", "--spec", "darkgates", "--scenario", "bogus"]) == 2
    assert "known scenarios" in capsys.readouterr().err


def test_run_suite_rejects_opt(store_root, capsys):
    argv = ["run", "--spec", "darkgates", "--suite", "energy", "--opt", "duration_s=4"]
    assert main(argv) == 2
    assert "--opt duration_s=4" in capsys.readouterr().err
    assert not any(RunStore(store_root).iter_manifests())


def test_run_fleet_profile_rejects_opt(store_root, capsys):
    argv = [
        "run", "--spec", "darkgates", "--profile", "datacenter",
        "--ensemble", "1", "--opt", "time_step_s=5",
    ]
    assert main(argv) == 2
    assert "--opt time_step_s=5" in capsys.readouterr().err
    assert not any(RunStore(store_root).iter_manifests())


def test_optimize_static_probe_rejects_opt(store_root, capsys):
    argv = [
        "optimize", "--spec", "darkgates", "--target-ghz", "3.0",
        "--tdp-grid", "35,91", "--opt", "duration_s=4",
    ]
    assert main(argv) == 2
    assert "--opt duration_s=4" in capsys.readouterr().err
    assert not any(RunStore(store_root).iter_manifests())


def test_warm_optimize_counts_the_stored_result_as_served(store_root, capsys):
    argv = [
        "optimize", "--spec", "darkgates", "--spec", "baseline",
        "--target-ghz", "3.0", "--tdp-grid", "10:91:5", "--cores", "4",
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 served from the store" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 task(s) executed, 1 served from the store" in warm
    assert warm.split("\n")[:-3] == cold.split("\n")[:-3]


def test_summarize_and_index(store_root, capsys):
    main(TINY_SWEEP)
    capsys.readouterr()
    assert main(["summarize", "--spec", "darkgates", "--kind", "dynamic"]) == 0
    out = capsys.readouterr().out
    assert "1 stored run(s)" in out
    assert "darkgates@35W" in out
    assert main(["index"]) == 0
    assert "indexed 2 run(s)" in capsys.readouterr().out


def test_summarize_rebuilds_missing_index(store_root, capsys):
    main(TINY_SWEEP)
    RunIndex(RunStore(store_root)).path.unlink()
    capsys.readouterr()
    assert main(["summarize"]) == 0
    assert "2 stored run(s)" in capsys.readouterr().out


def test_compare(store_root, capsys):
    main(TINY_SWEEP)
    capsys.readouterr()
    assert main(["compare", "--spec", "darkgates", "--spec", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "darkgates vs baseline (1 shared cell(s))" in out
    assert "ratio" in out
    assert main(["compare", "--spec", "darkgates"]) == 2
    assert "exactly two" in capsys.readouterr().err
    assert (
        main(["compare", "--spec", "darkgates", "--spec", "darkgates+c7"]) == 2
    )
    assert "no stored cells" in capsys.readouterr().err


POPULATION_SWEEP = [
    "run",
    "--spec",
    "darkgates",
    "--scenario",
    "sustained",
    "--tdp",
    "35",
    "--population",
    "256",
    "--shard-size",
    "128",
    "--seed",
    "7",
    "--opt",
    "duration_s=4",
    "--opt",
    "time_step_s=1",
]


def test_run_population_streaming_cold_then_warm(store_root, capsys):
    assert main(POPULATION_SWEEP) == 0
    cold = capsys.readouterr().out
    # One cell split into 2 shards plus 2 binning shards, all executed.
    assert "4 task(s) executed, 0 served from the store" in cold
    assert "256 dice" in cold and "shard_size=128" in cold
    assert "yields[darkgates]:" in cold

    assert main(POPULATION_SWEEP) == 0
    warm = capsys.readouterr().out
    assert "0 task(s) executed, 4 served from the store" in warm
    # The warm pass reads the same merged statistics back from the store.
    assert warm.splitlines()[:3] == cold.splitlines()[:3]


def test_run_population_without_shard_size_uses_fast_path(store_root, capsys):
    argv = [arg for arg in POPULATION_SWEEP if arg not in ("--shard-size", "128")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "method=fast" in out and "shard_size" not in out


UNSEEDED_POPULATION = ["run", "--spec", "darkgates", "--scenario", "sustained",
                       "--population", "64", "--opt", "duration_s=2", "--opt",
                       "time_step_s=1"]


def test_unseeded_cli_population_matches_the_unseeded_library(store_root, capsys):
    # One unseeded default: the CLI without --seed and Study.over_population
    # without seed draw the same population and report the same statistics.
    assert main(UNSEEDED_POPULATION) == 0
    out = capsys.readouterr().out
    result = Study.over_population(
        ("darkgates",),
        [build_scenario("sustained", duration_s=2, time_step_s=1)],
        skylake_process_variation(),
        64,
    ).run()
    assert re.search(r"seed=(\d+)", out).group(1) == str(result.seed)
    (cell,) = result.cells
    (row,) = [line for line in out.splitlines() if line.startswith("darkgates@")]
    quantiles = [field.strip() for field in row.split("|")[2:]]
    assert quantiles == [
        f"{q:.3f}" for q in cell.sustained_quantiles_ghz((5.0, 50.0, 95.0))
    ]


def test_unseeded_run_is_stored_under_the_seed_it_draws_with(store_root, capsys):
    # Without --seed the study draws with seed 0, so --seed 0 finds its run.
    assert main(UNSEEDED_POPULATION) == 0
    unseeded = capsys.readouterr().out
    assert "1 task(s) executed, 0 served from the store" in unseeded
    assert main(UNSEEDED_POPULATION + ["--seed", "0"]) == 0
    seeded = capsys.readouterr().out
    assert "0 task(s) executed, 1 served from the store" in seeded
    assert seeded.splitlines()[:-2] == unseeded.splitlines()[:-2]


@pytest.mark.parametrize("closed", ["before the first line", "after one line"])
def test_a_closed_stdout_ends_the_run_without_a_traceback(tmp_path, closed):
    """``python -m repro run ... | head -n 1`` indexes its runs and exits quietly.

    Unbuffered, every print reaches the pipe at once, as in a terminal
    pipeline.  A reader closed before the first line makes the first print
    fail; one closed after a line may or may not outrun the rest.
    """
    store = tmp_path / "store"
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
        PYTHONUNBUFFERED="1",
    )
    argv = [sys.executable, "-m", "repro", *UNSEEDED_POPULATION, "--store", str(store)]
    if closed == "before the first line":
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "wb") as stdout:
            run = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)
        assert run.returncode == 1
        stderr = run.stderr
    else:
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as process:
            assert process.stdout.readline().startswith(b"cli-study: 64 dice")
            process.stdout.close()
            stderr = process.stderr.read()
        assert process.returncode in (0, 1)
    assert b"Traceback" not in stderr, stderr.decode()
    # The run's own upsert holds every run a rebuild from the manifests finds.
    indexed = len(RunIndex(RunStore(store)).query())
    assert indexed >= 1
    rebuild = subprocess.run(
        [sys.executable, "-m", "repro", "index", "--store", str(store)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert rebuild.stdout.startswith(f"indexed {indexed} run(s)")


def test_run_shard_size_requires_population(store_root, capsys):
    assert main(["run", "--spec", "darkgates", "--scenario", "sustained",
                 "--shard-size", "128"]) == 2
    assert "pass --population" in capsys.readouterr().err


def test_run_population_rejects_suite(store_root, capsys):
    assert main(["run", "--spec", "darkgates", "--suite", "spec2006",
                 "--population", "64"]) == 2
    assert "drop --suite" in capsys.readouterr().err


def test_gc_dry_run_then_apply(store_root, capsys):
    main(TINY_SWEEP)
    store = RunStore(store_root)
    store.put(
        RunManifest(
            run_id="a" * 64,
            kind="dynamic",
            workload_name="stale",
            engine_version="0",
            repro_version="test",
            created_at=utc_timestamp(),
        ),
        {"v": 1},
    )
    main(["index"])
    capsys.readouterr()

    assert main(["gc"]) == 0
    out = capsys.readouterr().out
    assert "would remove" in out and "stale" in out
    assert "dry run: 1 run(s) selected" in out
    assert len(store) == 3

    assert main(["gc", "--apply"]) == 0
    assert "removed 1 run(s)" in capsys.readouterr().out
    assert len(store) == 2
    assert RunIndex(store).count() == 2  # pruned alongside the artifacts
    assert all(
        manifest.engine_version == ENGINE_VERSION
        for manifest in store.iter_manifests()
    )

    assert main(["gc", "--all", "--apply"]) == 0
    assert len(store) == 0


# -- the upsert-only index -----------------------------------------------------------------


def _sweep(store, tdp):
    argv = [arg if arg != "35" else tdp for arg in TINY_SWEEP]
    return argv + ["--store", str(store)]


def _index_rows(store):
    index = RunIndex(RunStore(store))
    if not index.exists():
        return None
    with sqlite3.connect(index.path) as connection:
        return sorted(connection.execute("SELECT * FROM runs").fetchall())


def _truncate_one_result(store, tdp):
    for manifest in RunStore(store).iter_manifests():
        if manifest.tdp_w == float(tdp):
            path = RunStore(store).run_dir(manifest.run_id) / "result.json"
            path.write_text(path.read_text()[:20])
            return


_INDEX_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "run",
                "gc",
                "gc-all",
                "truncate",
                "drop-index",
                "query-index",
                "failed-update",
            ]
        ),
        st.sampled_from(["35", "91"]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=20, deadline=None)
@given(steps=_INDEX_STEPS)
@example(steps=[("run", "35"), ("drop-index", "35"), ("failed-update", "91")])
@example(steps=[("run", "35"), ("drop-index", "35"), ("query-index", "35"),
                ("run", "91")])
def test_upserted_index_equals_a_fresh_rebuild(tmp_path_factory, steps):
    """After every completed ``run``, whatever came before it, the rows
    ``run`` left in the index are the rows a full rebuild writes.  A
    ``failed-update`` step is a ``run`` whose index transaction fails,
    then the same ``run`` again; ``query-index`` queries the index, which
    creates an empty one when it is missing."""
    store = tmp_path_factory.mktemp("store")
    for step, tdp in steps:
        if step == "gc":
            assert main(["gc", "--apply", "--store", str(store)]) == 0
            continue
        if step == "gc-all":
            assert main(["gc", "--all", "--apply", "--store", str(store)]) == 0
            continue
        if step == "drop-index":
            RunIndex(RunStore(store)).path.unlink(missing_ok=True)
            continue
        if step == "query-index":
            RunIndex(RunStore(store)).count()
            continue
        if step == "truncate":
            _truncate_one_result(store, tdp)
        elif step == "failed-update":
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(RunIndex, "_connect", _commit_fails)
                with pytest.raises(sqlite3.OperationalError):
                    main(_sweep(store, tdp))
        output = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(output):
            warnings.simplefilter("ignore")  # the truncated run re-runs
            assert main(_sweep(store, tdp)) == 0
        upserted = _index_rows(store)
        assert f"index: {len(upserted)} run(s)" in output.getvalue()
        assert RunIndex(RunStore(store)).rebuild() == len(upserted)
        assert _index_rows(store) == upserted


_connect = RunIndex._connect


@contextlib.contextmanager
def _commit_fails(index):
    """``RunIndex._connect`` whose every write transaction fails to commit."""
    with _connect(index) as connection:
        yield connection
        if connection.in_transaction:
            raise sqlite3.OperationalError("disk I/O error")


def test_warm_run_reads_no_manifest(store_root, monkeypatch, capsys):
    assert main(TINY_SWEEP) == 0
    reads = []
    for name in ("iter_manifests", "load_manifest"):
        original = getattr(RunStore, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            reads.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(RunStore, name, counted)
    assert main(TINY_SWEEP) == 0
    assert "0 task(s) executed, 2 served" in capsys.readouterr().out
    assert reads == []


def test_run_heals_served_runs_the_index_lacks(store_root, capsys):
    """Runs written without an index update (a failed update, another
    process) gain their rows when a later ``run`` serves them."""
    main(TINY_SWEEP)
    index = RunIndex(RunStore(store_root))
    index.prune(manifest.run_id for manifest in index.query())
    assert index.count() == 0
    capsys.readouterr()
    assert main(TINY_SWEEP) == 0
    assert "index: 2 run(s)" in capsys.readouterr().out
    assert index.count() == 2


def test_run_rebuilds_an_index_no_rebuild_completed(store_root, capsys):
    """An index a query created, or a failed rebuild left, is not trusted:
    the next ``run`` rebuilds it, so it also lists the other sweep's runs."""
    other = [arg if arg != "35" else "91" for arg in TINY_SWEEP]
    main(TINY_SWEEP)
    main(other)
    index = RunIndex(RunStore(store_root))
    index.path.unlink()
    assert index.count() == 0 and index.exists()
    capsys.readouterr()
    assert main(TINY_SWEEP) == 0
    assert "index: 4 run(s)" in capsys.readouterr().out
    index.path.unlink()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunIndex, "_connect", _commit_fails)
        with pytest.raises(sqlite3.OperationalError):
            index.rebuild()
    assert index.exists() and index.count() == 0
    assert main(TINY_SWEEP) == 0
    assert "index: 4 run(s)" in capsys.readouterr().out


def test_run_rejects_a_negative_seed(store_root, capsys):
    argv = [arg if arg != "7" else "-1" for arg in TINY_SWEEP]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not (store_root / "runs").exists()
