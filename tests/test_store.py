"""Tests for the persistent run store: canonical hashing, artifacts,
manifests, the store-backed study cache, and the cross-run SQLite index."""

from __future__ import annotations

import json
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.study import CallableTask, EngineTask, Study, StudyResult
from repro.common.errors import ConfigurationError, StoreError
from repro.core.spec import get_spec, spec_names
from repro.fleet import ScenarioGenerator, fleet_profile
from repro.sim.engine import ENGINE_VERSION, SimulationEngine
from repro.sim.metrics import RESULT_SCHEMA_VERSION, RunResult
from repro.store import (
    RunIndex,
    RunManifest,
    RunStore,
    StoreCache,
    StoreCorruptionWarning,
    canonical_json,
    canonical_payload,
    decode_value,
    digest,
    encode_value,
    resolve_store_root,
    run_id_for_task,
    task_fingerprint,
)
from repro.store import cache as cache_module
from repro.store.manifest import MANIFEST_SCHEMA_VERSION, utc_timestamp
from repro.variation.binning import skylake_binning_policy
from repro.variation.distributions import skylake_process_variation
from repro.variation.streaming import run_cell_shard
from repro.workloads.dynamics import build_scenario, scenario_names
from repro.workloads.energy import energy_star_scenario
from repro.workloads.spec import spec_benchmark

from oracles import hashing as oracle


def _scenario(**overrides):
    overrides.setdefault("duration_s", 4.0)
    overrides.setdefault("time_step_s", 1.0)
    return build_scenario("sustained", **overrides)


def _task(spec="darkgates", tdp_w=35.0, **overrides):
    return EngineTask(get_spec(spec, tdp_w=tdp_w), _scenario(**overrides))


def _manifest(run_id, **overrides):
    fields = dict(
        run_id=run_id,
        kind="dynamic",
        workload_name="sustained",
        engine_version=ENGINE_VERSION,
        repro_version="test",
        created_at=utc_timestamp(),
    )
    fields.update(overrides)
    return RunManifest(**fields)


# -- canonical hashing ---------------------------------------------------------------------------


def test_canonical_json_known_vector():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_canonical_json_normalises_negative_zero():
    assert canonical_json(-0.0) == canonical_json(0.0)


def test_canonical_json_rejects_nan_and_exotic_objects():
    with pytest.raises(ConfigurationError):
        canonical_json(float("nan"))
    with pytest.raises(ConfigurationError):
        canonical_json(object())
    with pytest.raises(ConfigurationError):
        canonical_json({1: "non-string-key"})


def test_digest_is_stable_across_calls():
    task = _task()
    assert digest(task.spec) == digest(get_spec("darkgates", tdp_w=35.0))
    assert run_id_for_task(
        task, seed=7, engine_version="1"
    ) == run_id_for_task(_task(), seed=7, engine_version="1")


def test_run_id_sensitive_to_every_identity_input():
    base = run_id_for_task(_task(), seed=7, engine_version="1")
    assert run_id_for_task(_task(), seed=8, engine_version="1") != base
    assert run_id_for_task(_task(), seed=7, engine_version="2") != base
    assert run_id_for_task(_task(tdp_w=91.0), seed=7, engine_version="1") != base
    assert (
        run_id_for_task(_task(spec="baseline"), seed=7, engine_version="1") != base
    )
    assert (
        run_id_for_task(_task(duration_s=5.0), seed=7, engine_version="1") != base
    )


def test_callable_task_fingerprint_includes_function_and_args():
    task = CallableTask("cell", _scenario_count, (3,))
    print_task = CallableTask("cell", _scenario_total, (3,))
    assert task_fingerprint(task)["fn"].endswith("_scenario_count")
    assert run_id_for_task(task, seed=None, engine_version="1") != run_id_for_task(
        print_task, seed=None, engine_version="1"
    )


def test_run_ids_are_pinned():
    """Literal IDs: a canonicalisation change must not orphan stored runs."""
    dynamic = _task()
    member = ScenarioGenerator(fleet_profile("datacenter")).ensemble(seed=0, count=2)[1]
    fleet = EngineTask(get_spec("baseline", tdp_w=45.0), member)
    spec = get_spec("darkgates", tdp_w=65.0)
    scenario = build_scenario("burst", time_step_s=1.0)
    shard = CallableTask(
        key=f"{spec.label}/{scenario.name}/shard1",
        fn=run_cell_shard,
        args=(
            spec, scenario, skylake_process_variation(), 16, 0, 1, 8,
            skylake_binning_policy(), get_spec("darkgates"),
        ),
    )
    assert run_id_for_task(dynamic, seed=7, engine_version="1") == (
        "a18a81c153facfe5d01a01eb30e2ffe32bd2fb6910f907536540738036bcb116"
    )
    assert run_id_for_task(fleet, seed=0, engine_version="1") == (
        "bd3d97b4bb46d3092bedd76f80bff04041e699dae9185253faf75bc5dacbde20"
    )
    assert run_id_for_task(shard, seed=None, engine_version="1") == (
        "8350b59aa2af5b9eea092bab2cdd5754b74f5c0249091c6c833b454b65139b05"
    )


def test_store_cache_hashes_each_task_once(tmp_path, monkeypatch):
    calls = []

    def counting(task, **kwargs):
        calls.append(task)
        return run_id_for_task(task, **kwargs)

    monkeypatch.setattr(cache_module, "run_id_for_task", counting)
    study = _dynamics_study(tmp_path)
    study.run()
    assert study.tasks_executed == 2
    assert len(calls) == 2  # the lookup miss and the write share one ID


# -- the whole-render oracle ---------------------------------------------------------------------


class _Colour(Enum):
    RED = "red"
    BLUE = 2


class _Level(IntEnum):  # an int first: both walkers keep the member itself
    LOW = 1
    HIGH = 3


@dataclass(frozen=True)
class _Leaf:
    weight: float
    tags: Tuple[str, ...] = ()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    st.just(-0.0),
    st.text(max_size=4),
    st.sampled_from(list(_Colour)),
    st.sampled_from(list(_Level)),
    st.integers(-(2**31), 2**31).map(np.int64),
    _FINITE.map(np.float64),
    st.booleans().map(np.bool_),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.builds(
            _Leaf, _FINITE, st.lists(st.text(max_size=2), max_size=2).map(tuple)
        ),
        st.lists(_FINITE, max_size=3).map(np.array),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(value=_PAYLOADS)
def test_canonical_json_matches_the_isinstance_ladder(value):
    assert canonical_json(value) == oracle.canonical_json(value)


@pytest.mark.parametrize(
    "value", [float("nan"), [float("inf")], {1: "key"}, object(), _Leaf]
)
def test_canonical_payload_rejects_what_the_ladder_rejects(value):
    with pytest.raises(ConfigurationError) as expected:
        oracle.canonical_payload(value)
    with pytest.raises(ConfigurationError, match=re.escape(str(expected.value))):
        canonical_payload(value)


_BUILDER_OPTIONS = st.fixed_dictionaries(
    {},
    optional={
        "time_step_s": st.sampled_from([0.01, 0.5, 1.0]),
        "activity": st.floats(min_value=0.05, max_value=1.0),
        "active_cores": st.integers(min_value=1, max_value=4),
    },
)
#: A recipe builds one or more scenarios; building it twice gives equal
#: but distinct objects.
_SCENARIO_RECIPES = st.one_of(
    st.tuples(
        st.just("builder"),
        st.sampled_from(["sustained", "burst", "sprint_and_rest"]),
        _BUILDER_OPTIONS,
    ),
    st.tuples(
        st.just("builder"),
        st.sampled_from(["fleet-consumer", "fleet-datacenter", "fleet-graphics"]),
        st.fixed_dictionaries(
            {"seed": st.integers(0, 2**16), "member": st.integers(0, 7)}
        ),
    ),
    st.tuples(
        st.just("ensemble"),
        st.sampled_from(["consumer", "datacenter", "graphics"]),
        st.fixed_dictionaries(
            {"seed": st.integers(0, 2**16), "count": st.integers(1, 3)}
        ),
    ),
)
_SPEC_RECIPES = st.tuples(
    st.sampled_from(spec_names()),
    st.sampled_from([35.0, 45.0, 65.0, 91.0])
    | st.floats(min_value=10.0, max_value=120.0),
)


def _build_scenarios(recipe):
    kind, name, options = recipe
    if kind == "ensemble":
        return list(ScenarioGenerator(fleet_profile(name)).ensemble(**options))
    return [build_scenario(name, **options)]


def _shard_task(spec, scenario, variations, binning, index, count, seed):
    return CallableTask(
        key=f"{spec.label}/{scenario.name}/shard{index}",
        fn=run_cell_shard,
        args=(
            spec, scenario, variations, count, seed, index, 8, binning,
            get_spec(spec.name),
        ),
    )


@settings(max_examples=30, deadline=None)
@given(
    spec_recipes=st.lists(_SPEC_RECIPES, min_size=1, max_size=3),
    scenario_recipes=st.lists(_SCENARIO_RECIPES, min_size=1, max_size=3),
    seed=st.none() | st.integers(0, 2**32),
    data=st.data(),
)
def test_store_cache_run_ids_match_the_whole_render_oracle(
    tmp_path_factory, spec_recipes, scenario_recipes, seed, data
):
    """Memoised fragments give the oracle's IDs whether a task reuses a
    descriptor object already rendered or names an equal, distinct one."""
    specs = [get_spec(name, tdp_w=tdp) for name, tdp in spec_recipes]
    scenarios = [
        (recipe, index, scenario)
        for recipe in scenario_recipes
        for index, scenario in enumerate(_build_scenarios(recipe))
    ]
    variations, binning = skylake_process_variation(), skylake_binning_policy()
    tasks = []
    for _ in range(data.draw(st.integers(2, 12), label="tasks")):
        i = data.draw(st.integers(0, len(specs) - 1), label="spec")
        j = data.draw(st.integers(0, len(scenarios) - 1), label="scenario")
        recipe, member, scenario = scenarios[j]
        spec = specs[i]
        if data.draw(st.booleans(), label="distinct copies"):
            name, tdp = spec_recipes[i]
            spec = get_spec(name, tdp_w=tdp)
            scenario = _build_scenarios(recipe)[member]
        if data.draw(st.booleans(), label="population shard"):
            fresh = data.draw(st.booleans(), label="fresh variation model")
            task = _shard_task(
                spec,
                scenario,
                skylake_process_variation() if fresh else variations,
                binning,
                data.draw(st.integers(0, 3), label="shard"),
                data.draw(st.integers(8, 64), label="dice"),
                0 if seed is None else seed,
            )
        else:
            task = EngineTask(spec, scenario)
        tasks.append(task)
    cache = StoreCache(tmp_path_factory.getbasetemp() / "ids", seed=seed)
    for task in tasks:
        pickled = pickle.dumps(task)
        expected = oracle.run_id_for_task(
            task, seed=seed, engine_version=ENGINE_VERSION
        )
        assert cache.run_id(task) == expected
        assert (
            run_id_for_task(task, seed=seed, engine_version=ENGINE_VERSION)
            == expected
        )
        hash(task)
        assert pickle.dumps(task) == pickled  # the kept hash never travels


def test_task_fingerprint_matches_the_oracle():
    member = ScenarioGenerator(fleet_profile("graphics")).ensemble(seed=3, count=1)[0]
    spec = get_spec("darkgates", tdp_w=65.0)
    for task in (
        EngineTask(spec, member),
        _shard_task(
            spec, member, skylake_process_variation(), skylake_binning_policy(),
            1, 16, 7,
        ),
    ):
        assert task_fingerprint(task) == oracle.task_fingerprint(task)


def test_engine_task_hash_stays_out_of_the_pickle():
    task = _task()
    pickled = pickle.dumps(task)
    value = hash(task)
    assert pickle.dumps(task) == pickled
    clone = pickle.loads(pickled)
    assert clone == task and hash(clone) == value


@pytest.mark.parametrize("seed", ["7", True, 1.5, -1])
def test_store_cache_rejects_bad_seeds(tmp_path, seed):
    with pytest.raises(ConfigurationError, match="seed"):
        StoreCache(tmp_path, seed=seed)


def test_store_cache_accepts_numpy_integer_seeds(tmp_path):
    cache = StoreCache(tmp_path, seed=np.int64(7))
    assert cache.seed == 7 and type(cache.seed) is int
    assert cache.run_id(_task()) == StoreCache(tmp_path, seed=7).run_id(_task())


def _scenario_count(n):
    return n


def _scenario_total(n):
    return n


# -- result payload schema -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    [spec_benchmark("416.gamess"), energy_star_scenario(), _scenario()],
    ids=["cpu", "energy", "dynamic"],
)
def test_result_payloads_round_trip_with_schema_version(workload):
    engine = SimulationEngine(get_spec("darkgates").build())
    result = engine.run(workload)
    payload = result.to_dict()
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    assert RunResult.from_dict(payload) == result


def test_newer_schema_version_rejected():
    engine = SimulationEngine(get_spec("darkgates").build())
    payload = engine.run(spec_benchmark("416.gamess")).to_dict()
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(ConfigurationError):
        RunResult.from_dict(payload)


def test_encode_decode_round_trips_engine_results():
    engine = SimulationEngine(get_spec("darkgates").build())
    result = engine.run(_scenario())
    payload = encode_value(result)
    assert payload["codec"] == "run_result"
    assert "frequencies_hz" not in payload["value"]
    traces = result.trace_table()
    assert decode_value(json.loads(json.dumps(payload)), traces) == result
    with pytest.raises(StoreError, match="trace table"):
        decode_value(payload)


def test_encode_rejects_unfaithful_values():
    assert decode_value(encode_value({"plain": [1, 2]})) == {"plain": [1, 2]}
    with pytest.raises(StoreError):
        encode_value((1, 2))  # would come back as a list
    with pytest.raises(StoreError):
        encode_value(object())


# -- the artifact store --------------------------------------------------------------------------


def test_resolve_store_root_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
    assert resolve_store_root(tmp_path / "explicit") == tmp_path / "explicit"
    assert resolve_store_root() == tmp_path / "env"
    monkeypatch.delenv("REPRO_STORE_DIR")
    assert resolve_store_root().name == ".repro_store"


def test_store_root_must_be_a_path(tmp_path):
    with pytest.raises(ConfigurationError, match="store="):
        StoreCache(RunStore(tmp_path))
    with pytest.raises(ConfigurationError, match="store="):
        RunStore(42)


def test_store_put_load_round_trip(tmp_path):
    store = RunStore(tmp_path)
    task = _task()
    engine = SimulationEngine(task.spec.build())
    result = engine.run(task.workload)
    run_id = run_id_for_task(task, seed=None, engine_version=ENGINE_VERSION)
    store.put(_manifest(run_id, spec_name="darkgates", tdp_w=35.0), result)
    assert run_id in store
    assert store.load_value(run_id) == result
    manifest = store.load_manifest(run_id)
    assert manifest.kind == "dynamic"
    assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
    assert len(store) == 1


def test_dynamic_run_round_trips_through_the_store(tmp_path):
    store = RunStore(tmp_path)
    task = _task(duration_s=30.0, time_step_s=0.1)
    result = SimulationEngine(task.spec.build()).run(task.workload)
    run_id = run_id_for_task(task, seed=None, engine_version=ENGINE_VERSION)
    store.put(_manifest(run_id), result)
    run_dir = store.run_dir(run_id)
    assert sorted(path.name for path in run_dir.iterdir()) == [
        "manifest.json", "result.json", "traces.npy",
    ]
    payload = json.loads((run_dir / "result.json").read_text())
    assert payload["traces"] == result.steps == 300
    assert "frequencies_hz" not in payload["value"]
    assert payload["value"]["summary"] == result.summary()
    loaded = store.load_value(run_id)
    assert loaded == result
    assert loaded.summary() == result.summary()
    # Every other value keeps its single JSON file.
    store.put(_manifest("a" * 64), {"v": 1})
    assert sorted(path.name for path in store.run_dir("a" * 64).iterdir()) == [
        "manifest.json", "result.json",
    ]


def test_cached_result_traces_are_read_only(tmp_path):
    task = _task()
    StoreCache(tmp_path)[task] = SimulationEngine(task.spec.build()).run(
        task.workload
    )
    cached = StoreCache(tmp_path)[task]  # decoded from disk
    with pytest.raises(ValueError, match="read-only"):
        cached.frequencies_hz[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        cached.cstate_codes[:] = 0


def test_manifest_run_id_mismatch_detected(tmp_path):
    store = RunStore(tmp_path)
    store.put(_manifest("a" * 64), {"v": 1})
    bad_dir = store.run_dir("b" * 64)
    bad_dir.mkdir(parents=True)
    for name in ("result.json", "manifest.json"):
        (bad_dir / name).write_text((store.run_dir("a" * 64) / name).read_text())
    with pytest.raises(StoreError, match="claims run_id"):
        store.load_manifest("b" * 64)


def test_corrupted_manifest_skipped_with_warning(tmp_path):
    store = RunStore(tmp_path)
    store.put(_manifest("a" * 64), {"v": 1})
    store.put(_manifest("b" * 64), {"v": 2})
    (store.run_dir("b" * 64) / "manifest.json").write_text('{"run_id": "b')
    with pytest.warns(StoreCorruptionWarning, match="b" * 8):
        manifests = list(store.iter_manifests())
    assert [m.run_id for m in manifests] == ["a" * 64]
    # The index rebuild rides the same path: corrupt runs stay out.
    index = RunIndex(store)
    with pytest.warns(StoreCorruptionWarning):
        assert index.rebuild() == 1
    assert index.count() == 1


def test_manifest_from_dict_rejects_bad_payloads():
    good = _manifest("c" * 64).to_dict()
    with pytest.raises(StoreError, match="missing"):
        RunManifest.from_dict({k: v for k, v in good.items() if k != "kind"})
    with pytest.raises(StoreError, match="unknown"):
        RunManifest.from_dict({**good, "surprise": 1})
    with pytest.raises(StoreError, match="newer"):
        RunManifest.from_dict(
            {**good, "schema_version": MANIFEST_SCHEMA_VERSION + 1}
        )


def _put_run(root, run_id):
    """Module-level so the process pool can pickle it (concurrency test)."""
    RunStore(root).put(_manifest(run_id), {"payload": list(range(2000))})
    return RunStore(root).load_manifest(run_id).run_id


def test_concurrent_writers_of_same_run_id(tmp_path):
    """Two processes racing on one run ID leave a clean, complete run."""
    run_id = "f" * 64
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(
            pool.map(_put_run, [str(tmp_path)] * 4, [run_id] * 4)
        )
    assert results == [run_id] * 4
    store = RunStore(tmp_path)
    assert store.load_manifest(run_id).run_id == run_id
    assert store.load_value(run_id) == {"payload": list(range(2000))}
    assert store.run_ids() == [run_id]


def test_gc_dry_run_then_apply(tmp_path):
    store = RunStore(tmp_path)
    store.put(_manifest("a" * 64, engine_version="0"), {"v": 1})
    store.put(_manifest("b" * 64), {"v": 2})
    selected = store.gc(keep_engine_version=ENGINE_VERSION)
    assert [m.run_id for m in selected] == ["a" * 64]
    assert len(store) == 2  # dry run deletes nothing
    store.gc(keep_engine_version=ENGINE_VERSION, apply=True)
    assert store.run_ids() == ["b" * 64]
    store.gc(delete_all=True, apply=True)
    assert len(store) == 0


# -- the store-backed study cache ----------------------------------------------------------------


def _dynamics_study(root, **kwargs):
    kwargs.setdefault("cache", StoreCache(root, seed=7))
    return Study.over_dynamics(
        ("darkgates", "baseline"),
        [_scenario()],
        tdp_levels_w=(35.0,),
        seed=7,
        **kwargs,
    )


def test_warm_sweep_executes_zero_tasks(tmp_path):
    """Acceptance: the second run of a seeded dynamics sweep is pure disk."""
    cold = _dynamics_study(tmp_path)
    first = cold.run()
    assert cold.tasks_executed == 2

    warm = _dynamics_study(tmp_path)
    second = warm.run()
    assert warm.tasks_executed == 0
    assert second.to_json() == first.to_json()


def test_cache_seed_partitions_runs(tmp_path):
    _dynamics_study(tmp_path).run()
    other_seed = _dynamics_study(tmp_path, cache=StoreCache(tmp_path, seed=8))
    other_seed.run()
    assert other_seed.tasks_executed == 2  # different seed, different run IDs


def test_cache_mapping_protocol(tmp_path):
    cache = StoreCache(tmp_path)
    task = _task()
    engine = SimulationEngine(task.spec.build())
    result = engine.run(task.workload)
    assert task not in cache
    cache[task] = result
    assert task in cache
    assert len(cache) == 1 and list(cache) == [task]

    fresh = StoreCache(tmp_path)
    assert fresh[task] == result  # read purely from disk
    del fresh[task]
    assert task not in StoreCache(tmp_path)
    with pytest.raises(KeyError):
        StoreCache(tmp_path)[task]


def test_cache_survives_corrupted_result(tmp_path):
    cache = StoreCache(tmp_path)
    task = _task()
    cache[task] = SimulationEngine(task.spec.build()).run(task.workload)
    run_id = cache.run_id(task)
    (cache.store.run_dir(run_id) / "result.json").write_text("{not json")
    fresh = StoreCache(tmp_path)
    with pytest.warns(UserWarning, match="re-running"):
        assert task not in fresh  # miss, not crash: the study re-runs it


def _drop_pl2(run_dir):
    path = run_dir / "result.json"
    payload = json.loads(path.read_text())
    del payload["value"]["pl2_w"]
    path.write_text(json.dumps(payload))


def _truncate_traces(run_dir):
    path = run_dir / "traces.npy"
    path.write_bytes(path.read_bytes()[:-7])


def _shorten_traces(run_dir):
    path = run_dir / "traces.npy"
    np.save(path, np.load(path)[:-1])


@pytest.mark.parametrize(
    "damage",
    [
        _drop_pl2,
        lambda run_dir: (run_dir / "traces.npy").unlink(),
        _truncate_traces,
        _shorten_traces,
        lambda run_dir: np.save(run_dir / "traces.npy", np.zeros(4)),
    ],
    ids=["missing-field", "missing-traces", "truncated-traces",
         "wrong-length-traces", "wrong-dtype-traces"],
)
def test_invalid_artifact_reruns_the_task(tmp_path, damage):
    """A parseable but invalid artifact is a cache miss, not an abort."""
    first = _dynamics_study(tmp_path)
    first.run()
    cache = StoreCache(tmp_path, seed=7)
    damage(cache.store.run_dir(cache.run_id(_task())))
    warm = _dynamics_study(tmp_path)
    with pytest.warns(UserWarning, match="re-running"):
        second = warm.run()
    assert warm.tasks_executed == 1
    assert second.to_json() == first.run().to_json()
    healed = _dynamics_study(tmp_path)
    healed.run()
    assert healed.tasks_executed == 0


def test_cache_keeps_unencodable_values_in_memory(tmp_path):
    cache = StoreCache(tmp_path)
    task = CallableTask("odd", _scenario_count, (3,))
    with pytest.warns(UserWarning, match="memory only"):
        cache[task] = object()
    assert cache.unpersisted == 1
    assert task in cache
    assert len(RunStore(tmp_path)) == 0


def test_store_cache_refuses_to_pickle(tmp_path):
    with pytest.raises(ConfigurationError, match="driving process"):
        pickle.dumps(StoreCache(tmp_path))


def test_store_cache_with_process_executor(tmp_path):
    """The cache stays on the main side; only tasks cross the pool."""
    study = _dynamics_study(tmp_path, max_workers=2)
    study.run()
    assert study.tasks_executed == 2
    warm = _dynamics_study(tmp_path, max_workers=2)
    warm.run()
    assert warm.tasks_executed == 0


def test_from_store_serves_completed_sweeps_and_rejects_cold(tmp_path):
    scenario = _scenario()
    _dynamics_study(tmp_path).run()
    specs = tuple(
        get_spec(name, tdp_w=35.0) for name in ("darkgates", "baseline")
    )
    served = StudyResult.from_store(
        StoreCache(tmp_path, seed=7), specs, [scenario], seed=7
    )
    assert served.get(specs[0], "sustained").primary_metric > 0.0
    with pytest.raises(ConfigurationError, match="missing from the run store"):
        StudyResult.from_store(
            StoreCache(tmp_path, seed=99), specs, [scenario], seed=99
        )


# -- the SQLite index ----------------------------------------------------------------------------


@pytest.fixture()
def populated_store(tmp_path):
    _dynamics_study(tmp_path).run()
    return RunStore(tmp_path)


def test_index_rebuild_and_query(populated_store):
    index = RunIndex(populated_store)
    assert index.rebuild() == 2
    assert index.exists() and index.count() == 2
    rows = index.query(spec="darkgates", kind="dynamic", tdp_w=35.0)
    assert len(rows) == 1
    assert rows[0].workload_name == "sustained"
    assert rows[0].primary_metric is not None
    assert index.query(spec="darkgates@35W") == rows  # label matches too
    assert index.query(kind="transient") == []


def test_index_rebuild_from_artifacts_alone(populated_store):
    index = RunIndex(populated_store)
    index.rebuild()
    index.path.unlink()  # lose the database entirely
    fresh = RunIndex(populated_store)
    assert not fresh.exists()
    assert fresh.rebuild() == 2  # recovered purely from manifests


def test_index_compare_joins_on_shared_cells(populated_store):
    index = RunIndex(populated_store)
    index.rebuild()
    entries = index.compare("darkgates", "baseline", kind="dynamic")
    assert len(entries) == 1
    entry = entries[0]
    assert entry["workload_name"] == "sustained"
    assert entry["ratio"] == pytest.approx(entry["metric_a"] / entry["metric_b"])
    with pytest.raises(StoreError, match="no stored cells"):
        index.compare("darkgates", "darkgates+c7")


def test_index_prune(populated_store):
    index = RunIndex(populated_store)
    index.rebuild()
    victim = index.query(spec="darkgates")[0].run_id
    index.prune([victim])
    assert index.count() == 1
    assert index.query(spec="darkgates") == []


# -- scenario registry ---------------------------------------------------------------------------


def test_scenario_registry():
    # Importing repro.fleet (pulled in by the repro facade) registers the
    # fleet-* builders next to the three hand-built timelines.
    assert scenario_names() == [
        "burst",
        "fleet-consumer",
        "fleet-datacenter",
        "fleet-graphics",
        "sprint_and_rest",
        "sustained",
    ]
    scenario = build_scenario("burst", burst_s=5.0, time_step_s=0.5)
    assert scenario.time_step_s == 0.5
    with pytest.raises(ConfigurationError, match="known scenarios"):
        build_scenario("nope")
    with pytest.raises(ConfigurationError, match="bad options"):
        build_scenario("sustained", no_such_knob=1)
