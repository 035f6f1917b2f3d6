"""Canonical content hashing: stable run identities for the run store.

A stored run is addressed by the SHA-256 digest of everything that
determines its outcome: the frozen :class:`~repro.core.spec.SystemSpec`,
the workload/scenario descriptor, the seed, and the engine version.  Two
processes that declare the same cell therefore compute the same run ID and
share one artifact directory — and any change to a spec field, a scenario
parameter, the seed, or the engine bumps the ID and misses naturally.

Hashes are computed over a *canonical* JSON rendering: keys sorted,
separators fixed, floats written with ``repr`` (shortest round-trip, stable
across CPython versions since 3.1), ``-0.0`` normalised to ``0.0``, and
NaN/Inf rejected.  Frozen dataclasses (specs, workloads, traces, variation
models) are rendered field-by-field and tagged with their type name, so two
different descriptor classes with coincidentally equal fields never
collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.study import CallableTask, EngineTask, StudyTask
from repro.common.errors import ConfigurationError

#: Key under which a dataclass payload records its type.
TYPE_KEY = "__type__"


#: Canonical converter per class, planned the first time the class is seen.
_PLANS: Dict[type, Callable[[Any], Any]] = {}


def canonical_payload(value: Any) -> Any:
    """Recursively convert *value* into a canonically-hashable JSON payload.

    Handles the vocabulary the study layer speaks: JSON scalars, numpy
    scalars, enums, mappings with string keys, sequences, and (nested)
    dataclasses.  Anything else is rejected — silently hashing ``repr``
    of an arbitrary object would make run IDs unstable.  How a value
    converts depends only on its class, so each class is planned once.
    """
    plan = _PLANS.get(type(value))
    if plan is None:
        plan = _PLANS[type(value)] = _plan(type(value))
    return plan(value)


def _plan(cls: type) -> Callable[[Any], Any]:
    """The converter of *cls* instances: the first of these checks that
    matches (``bool`` is an ``int``, ``numpy.float64`` is a ``float``)."""
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        return _same
    if issubclass(cls, float):
        return _finite
    if issubclass(cls, (np.floating, np.integer, np.bool_)):
        return lambda value: canonical_payload(value.item())
    if issubclass(cls, Enum):
        return lambda value: canonical_payload(value.value)
    if is_dataclass(cls):
        return _dataclass_plan(cls)
    if issubclass(cls, Mapping):
        return _mapping
    if issubclass(cls, (list, tuple)):
        return _listed
    if issubclass(cls, np.ndarray):
        return lambda value: _listed(value.tolist())
    return _reject


def _same(value: Any) -> Any:
    return value


def _finite(value: float) -> float:
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigurationError(
            "cannot canonicalise NaN/Inf floats into a run identity"
        )
    return 0.0 if value == 0.0 else value


def _dataclass_plan(cls: type) -> Callable[[Any], Dict[str, Any]]:
    tag = cls.__qualname__
    names = tuple(field.name for field in fields(cls))

    def convert(value: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {TYPE_KEY: tag}
        for name in names:
            payload[name] = canonical_payload(getattr(value, name))
        return payload

    return convert


def _mapping(value: Mapping[Any, Any]) -> Dict[str, Any]:
    converted: Dict[str, Any] = {}
    for key, item in value.items():
        if not isinstance(key, str):
            raise ConfigurationError(
                f"cannot canonicalise mapping key {key!r}: keys must be strings"
            )
        converted[key] = canonical_payload(item)
    return converted


def _listed(value: Any) -> List[Any]:
    return [canonical_payload(item) for item in value]


def _reject(value: Any) -> Any:
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__!s} into a run identity"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON document of *value* (sorted keys, fixed form)."""
    return json.dumps(
        canonical_payload(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of *value*."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


class CanonicalFragments:
    """A memo of the canonical JSON of immutable values, keyed by object.

    It holds the parts of run identities: frozen descriptors, seeds and
    engine versions.  Sweeps reuse descriptor objects: a fleet grid pairs
    every spec variant with every ensemble member, so of the specs and
    workloads its run IDs name, most are objects already rendered.  Each
    entry holds its object as well as its JSON, so no other object can
    take over its ``id`` while the memo lives.
    """

    def __init__(self) -> None:
        self._rendered: Dict[int, Tuple[Any, str]] = {}

    def render(self, value: Any) -> str:
        """:func:`canonical_json` of *value*, rendered once per object."""
        entry = self._rendered.get(id(value))
        if entry is None:
            entry = self._rendered[id(value)] = (value, canonical_json(value))
        return entry[1]


def _fingerprint_json(task: StudyTask, render: Callable[[Any], str]) -> str:
    """The canonical JSON of *task*'s fingerprint, composed from parts.

    *render* gives the canonical JSON of each descriptor (the spec, the
    workload, a dataclass argument).  Keys are written in sorted order, so
    the result is the text one render of the whole payload would give.
    """
    if isinstance(task, EngineTask):
        return (
            f'{{"spec":{render(task.spec)},"task":"engine",'
            f'"workload":{render(task.workload)}}}'
        )
    if isinstance(task, CallableTask):
        if isinstance(task.args, (list, tuple)):
            parts = [
                render(arg) if is_dataclass(arg) else canonical_json(arg)
                for arg in task.args
            ]
            args = f"[{','.join(parts)}]"
        else:
            args = canonical_json(task.args)
        fn = canonical_json(f"{task.fn.__module__}.{task.fn.__qualname__}")
        return (
            f'{{"args":{args},"fn":{fn},"key":{canonical_json(task.key)},'
            '"task":"callable"}'
        )
    raise ConfigurationError(
        f"cannot fingerprint {type(task).__name__!s}: not a study task"
    )


def task_fingerprint(task: StudyTask) -> Dict[str, Any]:
    """The canonical identity payload of one study task.

    Engine tasks are identified by their spec and workload descriptors;
    callable tasks by their key, the function's qualified name, and the
    canonicalised arguments.
    """
    return json.loads(_fingerprint_json(task, canonical_json))


def run_id_for_task(
    task: StudyTask,
    *,
    seed: Optional[int],
    engine_version: str,
    fragments: Optional[CanonicalFragments] = None,
) -> str:
    """The content-addressed run ID of one study task.

    ``sha256(task fingerprint x seed x engine version)`` — the key the run
    store files the task's artifacts under.  The identity document is
    composed from the canonical JSON of its parts; with *fragments*, each
    descriptor is rendered once per memo instead of once per task.
    """
    render = canonical_json if fragments is None else fragments.render
    document = (
        f'{{"engine_version":{render(engine_version)},'
        f'"fingerprint":{_fingerprint_json(task, render)},'
        f'"seed":{render(seed)}}}'
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
