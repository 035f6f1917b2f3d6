"""The shared dataclass codec, checked once per codec type.

Every :class:`~repro.common.codec.Codec` dataclass in the package meets the
same contract: a JSON round trip returns an equal object, the payload that
repro 1.4.0 wrote for it (``tests/codec_fixtures/``) decodes to an equal
object, the payload carries ``schema_version``, an unknown key is rejected
naming the valid fields, and a newer schema version is rejected.  The store
artifacts and ``to_json`` documents that release wrote load the same way.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from codec_samples import build_samples, qualified_name

from repro.analysis.fleet import FleetStudyResult
from repro.analysis.optimize import OptimizationResult
from repro.analysis.study import StudyResult
from repro.common import codec
from repro.common.codec import RESULT_SCHEMA_VERSION, registered_types
from repro.common.errors import ConfigurationError
from repro.core.spec import SystemSpec
from repro.sim import metrics
from repro.store.artifacts import decode_value, encode_value
from repro.variation.binning import BinningPolicy
from repro.variation.population import PopulationResult
from repro.variation.streaming import ScalarAccumulator, StreamingCellShard

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


@pytest.mark.parametrize("tag", sorted(ARTIFACTS))
def test_parent_store_artifacts_decode(tag, samples):
    value = samples["artifacts"][tag]
    assert encode_value(value)["codec"] == tag
    assert same(decode_value(ARTIFACTS[tag]), value)


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
    assert metrics.RESULT_SCHEMA_VERSION is codec.RESULT_SCHEMA_VERSION == 3
