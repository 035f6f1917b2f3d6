"""Tests for the ``python -m repro`` command line, run in-process."""

from __future__ import annotations

import pytest

from repro.sim.engine import ENGINE_VERSION
from repro.store import RunIndex, RunStore
from repro.store.cli import main
from repro.store.manifest import RunManifest, utc_timestamp

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
