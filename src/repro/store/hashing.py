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
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.analysis.study import CallableTask, EngineTask, StudyTask
from repro.common.errors import ConfigurationError

#: Key under which a dataclass payload records its type.
TYPE_KEY = "__type__"


def canonical_payload(value: Any) -> Any:
    """Recursively convert *value* into a canonically-hashable JSON payload.

    Handles the vocabulary the study layer speaks: JSON scalars, numpy
    scalars, enums, mappings with string keys, sequences, and (nested)
    dataclasses.  Anything else is rejected — silently hashing ``repr``
    of an arbitrary object would make run IDs unstable.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                "cannot canonicalise NaN/Inf floats into a run identity"
            )
        return 0.0 if value == 0.0 else value
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return canonical_payload(value.item())
    if isinstance(value, Enum):
        return canonical_payload(value.value)
    if is_dataclass(value) and not isinstance(value, type):
        payload: Dict[str, Any] = {TYPE_KEY: type(value).__qualname__}
        for field in fields(value):
            payload[field.name] = canonical_payload(getattr(value, field.name))
        return payload
    if isinstance(value, Mapping):
        converted: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cannot canonicalise mapping key {key!r}: keys must be "
                    "strings"
                )
            converted[key] = canonical_payload(item)
        return converted
    if isinstance(value, (list, tuple)):
        return [canonical_payload(item) for item in value]
    if isinstance(value, np.ndarray):
        return [canonical_payload(item) for item in value.tolist()]
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__!s} into a run identity"
    )


def _render(canonical: Any) -> str:
    """The fixed JSON form of an already-canonical payload."""
    return json.dumps(
        canonical, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON document of *value* (sorted keys, fixed form)."""
    return _render(canonical_payload(value))


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of *value*."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def task_fingerprint(task: StudyTask) -> Dict[str, Any]:
    """The canonical identity payload of one study task.

    Engine tasks are identified by their spec and workload descriptors;
    callable tasks by their key, the function's qualified name, and the
    canonicalised arguments.
    """
    if isinstance(task, EngineTask):
        return {
            "task": "engine",
            "spec": canonical_payload(task.spec),
            "workload": canonical_payload(task.workload),
        }
    if isinstance(task, CallableTask):
        return {
            "task": "callable",
            "key": canonical_payload(task.key),
            "fn": f"{task.fn.__module__}.{task.fn.__qualname__}",
            "args": canonical_payload(task.args),
        }
    raise ConfigurationError(
        f"cannot fingerprint {type(task).__name__!s}: not a study task"
    )


def run_id_for_task(
    task: StudyTask, *, seed: Optional[int], engine_version: str
) -> str:
    """The content-addressed run ID of one study task.

    ``sha256(task fingerprint x seed x engine version)`` — the key the run
    store files the task's artifacts under.  The fingerprint is canonical
    already, so it is hashed without a second canonical walk.
    """
    identity = {
        "fingerprint": task_fingerprint(task),
        "seed": canonical_payload(seed),
        "engine_version": canonical_payload(engine_version),
    }
    return hashlib.sha256(_render(identity).encode("utf-8")).hexdigest()
