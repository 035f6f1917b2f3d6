"""The shared dataclass codec, checked once per codec type.

Every :class:`~repro.common.codec.Codec` dataclass in the package meets the
same contract: a JSON round trip returns an equal object, the payload that
repro 1.4.0 wrote for it (``tests/codec_fixtures/``) decodes to an equal
object, the payload carries ``schema_version``, an unknown key is rejected
naming the valid fields, and a newer schema version is rejected.  The store
artifacts and ``to_json`` documents that release wrote load the same way.

``tests/codec_fixtures/schema3_store/`` is the store repro 8.1.0 (schema 3,
float64 frequency traces) wrote for :data:`SCHEMA3_ARGV`, and
``schema3_store.txt`` the table it printed: its runs decode to the results
the engine computes today, and the same command is served from it.
``tests/codec_fixtures/schema4_store/`` is the population store repro 9.0.0
(schema 4, dense count lists) wrote for :data:`SCHEMA4_ARGV`, with
``schema4_store.txt`` the same way.

Since schema 5 every ``NDArray[np.int64]`` field travels as row spans
(:func:`~repro.common.codec.encode_spans`); a hypothesis round trip and the
malformed-span cases below pin that form.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from codec_samples import build_samples, qualified_name
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.fleet import FleetStudyResult
from repro.analysis.optimize import OptimizationResult
from repro.analysis.study import StudyResult
from repro.common import codec
from repro.common.codec import (
    RESULT_SCHEMA_VERSION,
    Codec,
    decode_spans,
    encode_spans,
    registered_types,
)
from repro.common.errors import ConfigurationError, StoreError
from repro.core.spec import SystemSpec, get_spec
from repro.sim import metrics
from repro.sim.dynamics import BatchedDynamicsSimulator
from repro.store.artifacts import RunStore, decode_value, encode_value
from repro.store.cli import main
from repro.variation.binning import BinningPolicy
from repro.variation.population import PopulationResult
from repro.variation.streaming import (
    ScalarAccumulator,
    StreamingCellShard,
    TraceCounts,
)
from repro.workloads.dynamics import build_scenario

FIXTURES = Path(__file__).parent / "codec_fixtures"
PAYLOADS = json.loads((FIXTURES / "payloads.json").read_text())
ARTIFACTS = json.loads((FIXTURES / "artifacts.json").read_text())
DOCUMENTS = {
    "fleet": FleetStudyResult,
    "optimization": OptimizationResult,
    "population": PopulationResult,
    "study": StudyResult,
}
CODEC_TYPES = [
    cls for cls in registered_types() if cls.__module__.startswith("repro.")
]
SCHEMA3_STORE = FIXTURES / "schema3_store"
SCHEMA3_ARGV = [
    "run",
    "--spec", "darkgates",
    "--spec", "baseline",
    "--scenario", "burst",
    "--scenario", "sustained",
    "--tdp", "35",
    "--seed", "7",
    "--opt", "time_step_s=1",
]  # fmt: skip
SCHEMA4_STORE = FIXTURES / "schema4_store"
SCHEMA4_ARGV = [
    "run",
    "--spec", "darkgates",
    "--scenario", "burst",
    "--tdp", "65",
    "--population", "64",
    "--shard-size", "64",
    "--opt", "time_step_s=10",
    "--seed", "7",
]  # fmt: skip


@pytest.fixture(scope="module")
def samples():
    return build_samples()


def same(a: Any, b: Any) -> bool:
    """Structural equality that also tells array dtypes and ints from floats."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
            if field.compare
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return (
            type(a) is type(b)
            and a.keys() == b.keys()
            and all(same(a[key], b[key]) for key in a)
        )
    return (
        a == b
        and isinstance(a, bool) == isinstance(b, bool)
        and isinstance(a, float) == isinstance(b, float)
    )


def test_every_codec_type_has_a_parent_payload():
    assert {qualified_name(cls) for cls in CODEC_TYPES} == set(PAYLOADS)


@pytest.mark.parametrize("cls", CODEC_TYPES, ids=qualified_name)
def test_codec_contract(cls, samples):
    name = qualified_name(cls)
    sample = samples["types"][name]
    payload = sample.to_dict()
    assert payload["schema_version"] == RESULT_SCHEMA_VERSION
    assert same(cls.from_json(sample.to_json()), sample)
    assert same(cls.from_dict(PAYLOADS[name]), sample)
    with pytest.raises(ConfigurationError, match="valid fields") as unknown:
        cls.from_dict({**payload, "no_such_field": 1})
    for field in dataclasses.fields(cls):
        assert field.name in str(unknown.value)
    with pytest.raises(ConfigurationError, match="newer"):
        cls.from_dict({**payload, "schema_version": RESULT_SCHEMA_VERSION + 1})


@pytest.mark.parametrize("cls", CODEC_TYPES, ids=qualified_name)
def test_schema4_payloads_decode(cls, samples):
    """Schema 5 changed only the form of int64 arrays, which decode in either
    form, so a current payload stamped 4 throughout decodes unchanged."""
    sample = samples["types"][qualified_name(cls)]
    text = sample.to_json().replace(
        f'"schema_version": {RESULT_SCHEMA_VERSION}', '"schema_version": 4'
    )
    assert '"schema_version": 5' not in text
    assert same(cls.from_json(text), sample)


@pytest.mark.parametrize("tag", sorted(ARTIFACTS))
def test_parent_store_artifacts_decode(tag, samples):
    value = samples["artifacts"][tag]
    assert encode_value(value)["codec"] == tag
    assert same(decode_value(ARTIFACTS[tag]), value)


@pytest.mark.parametrize("tag", ["streaming_cell", "streaming_shard"])
def test_streaming_payloads_require_a_spec(tag, tmp_path):
    artifact = dict(ARTIFACTS[tag], value={**ARTIFACTS[tag]["value"], "spec": None})
    with pytest.raises(ConfigurationError, match="SystemSpec payload"):
        decode_value(artifact)
    # In a store the payload reads as a corrupt run, which the cache re-runs.
    store = RunStore(tmp_path)
    run_id = "0" * 64
    store.run_dir(run_id).mkdir(parents=True)
    (store.run_dir(run_id) / "result.json").write_text(json.dumps(artifact))
    with pytest.raises(StoreError, match="does not decode"):
        store.load_value(run_id)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_parent_json_documents_load(name, samples):
    text = (FIXTURES / f"{name}_result.json").read_text()
    assert same(DOCUMENTS[name].from_json(text), samples["documents"][name])


def test_union_fields_dispatch_on_kind(samples):
    streamed = samples["types"][qualified_name(PopulationResult)]
    payload = streamed.to_dict()
    assert [cell["kind"] for cell in payload["cells"]] == ["streaming_cell"]
    in_memory = samples["documents"]["population"]
    untagged = in_memory.to_dict()
    assert "kind" not in untagged["cells"][0]
    assert same(PopulationResult.from_dict(untagged), in_memory)
    payload["cells"][0]["kind"] = "qos"
    with pytest.raises(ConfigurationError, match="kind 'qos'"):
        PopulationResult.from_dict(payload)


def test_arrays_and_int_keys_follow_the_annotations(samples):
    shard = samples["types"][qualified_name(StreamingCellShard)]
    restored = StreamingCellShard.from_json(shard.to_json())
    assert restored.active_steps.dtype == np.bool_
    assert restored.power.counts.dtype == np.int64
    assert restored.power.minima.dtype == np.float64
    payload = shard.sustained.to_dict()
    assert all(isinstance(key, str) for key in payload["shard_sums"])
    rebuilt = ScalarAccumulator.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.shard_sums == shard.sustained.shard_sums


def test_decoding_is_strict():
    with pytest.raises(ConfigurationError, match="missing required field"):
        SystemSpec.from_dict({"sku": "skylake-s"})
    with pytest.raises(ConfigurationError, match="JSON object"):
        SystemSpec.from_dict(["darkgates"])
    with pytest.raises(ConfigurationError, match="malformed BinningPolicy"):
        BinningPolicy.from_dict({"bins": 5})
    with pytest.raises(ConfigurationError, match="unknown PowerDeliveryMode"):
        SystemSpec.from_dict({"name": "x", "power_delivery": "turbo"})


def test_result_schema_version_lives_in_the_codec():
    assert metrics.RESULT_SCHEMA_VERSION is codec.RESULT_SCHEMA_VERSION == 5


@st.composite
def count_arrays(draw):
    """int64 arrays of shape (r, c) or (c,), r and c up to 40, mostly zeros."""
    rows = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=0, max_value=40))
    shape = draw(st.sampled_from([(rows, width), (width,)]))
    elements = st.integers(min_value=1, max_value=2**62)
    return draw(arrays(np.int64, shape, elements=elements, fill=st.just(0)))


@given(array=count_arrays())
@example(array=np.array([[0, 0, 0], [0, 7, 0], [1, 2, 3], [4, 0, 5]]))
@example(array=np.zeros((3, 0), dtype=np.int64))
@example(array=np.zeros((0, 3), dtype=np.int64))
@example(array=np.zeros((0,), dtype=np.int64))
@example(array=np.array([0, 0, 9]))
@settings(max_examples=150, deadline=None)
def test_count_arrays_round_trip_as_row_spans(array):
    payload = json.loads(json.dumps(encode_spans(array)))
    assert same(decode_spans(payload), array)
    matrix = array.reshape(-1, array.shape[-1]) if array.size else array
    starts, stops = payload["starts"], payload["stops"]
    assert payload["shape"] == list(array.shape)
    assert len(payload["counts"]) == sum(np.subtract(stops, starts))
    for row, start, stop in zip(matrix, starts, stops):
        nonzero = np.flatnonzero(row)
        assert (start, stop) == (
            (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
        )


def _trace_counts() -> TraceCounts:
    return TraceCounts(names=("a", "b", "c"), counts=np.array([[0, 1, 0], [2, 0, 3]]))


def test_dense_count_lists_still_decode():
    counts = _trace_counts()
    payload = counts.to_dict()
    assert payload["counts"] == {
        "shape": [2, 3], "starts": [1, 0], "stops": [2, 3], "counts": [1, 2, 0, 3]
    }  # fmt: skip
    dense = TraceCounts.from_dict({**payload, "counts": [[0, 1, 0], [2, 0, 3]]})
    assert same(dense, counts)


@pytest.mark.parametrize(
    ("spans", "needle"),
    [
        ({"starts": [1, 2], "stops": [2, 1]}, "start <= stop"),
        ({"stops": [2, 4]}, "past the row width 3"),
        ({"counts": [1, 2, 0]}, "4 in-span count"),
        ({"starts": [1]}, "one entry per row"),
        ({"shape": [-2, 3]}, "non-negative dimensions"),
        ({"width": 3}, "need the keys"),
    ],
)
def test_malformed_row_spans_name_the_field(spans, needle):
    payload = _trace_counts().to_dict()
    payload["counts"] = {**payload["counts"], **spans}
    with pytest.raises(ConfigurationError, match=needle) as error:
        TraceCounts.from_dict(payload)
    assert "malformed TraceCounts payload field 'counts'" in str(error.value)


def test_schema3_store_runs_decode_to_fresh_results():
    store = RunStore(SCHEMA3_STORE)
    manifests = list(store.iter_manifests())
    assert len(manifests) == 4
    fresh = BatchedDynamicsSimulator().run_batch(
        [
            (
                get_spec(manifest.spec_name, tdp_w=manifest.tdp_w).build(),
                build_scenario(manifest.workload_name, time_step_s=1.0),
            )
            for manifest in manifests
        ]
    )
    for manifest, result in zip(manifests, fresh):
        run_dir = store.run_dir(manifest.run_id)
        assert np.load(run_dir / "traces.npy").dtype == metrics.SCHEMA3_TRACE_DTYPE
        stored = store.load_value(manifest.run_id)
        assert stored == result
        assert stored.summary() == result.summary()


def test_schema3_store_stays_warm(tmp_path, capsys):
    root = tmp_path / "store"
    shutil.copytree(SCHEMA3_STORE, root)
    assert main([*SCHEMA3_ARGV, "--store", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.startswith((FIXTURES / "schema3_store.txt").read_text())
    assert "0 task(s) executed, 4 served from the store" in out


def _decoded(store: RunStore, run_id: str) -> str:
    value = store.load_value(run_id)
    return json.dumps(
        value.to_dict() if isinstance(value, Codec) else value, sort_keys=True
    )


def test_schema4_store_runs_decode_to_fresh_values(tmp_path, capsys):
    stored = RunStore(SCHEMA4_STORE)
    assert main([*SCHEMA4_ARGV, "--store", str(tmp_path)]) == 0
    capsys.readouterr()
    fresh = RunStore(tmp_path)
    assert stored.run_ids() == fresh.run_ids()
    assert len(stored.run_ids()) == 2
    for run_id in stored.run_ids():
        result = json.loads((stored.run_dir(run_id) / "result.json").read_text())
        assert result["schema_version"] == 4
        assert _decoded(stored, run_id) == _decoded(fresh, run_id)


def test_schema4_store_stays_warm(tmp_path, capsys):
    root = tmp_path / "store"
    shutil.copytree(SCHEMA4_STORE, root)
    assert main([*SCHEMA4_ARGV, "--store", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.startswith((FIXTURES / "schema4_store.txt").read_text())
    assert "0 task(s) executed, 2 served from the store" in out
