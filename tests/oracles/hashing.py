"""One render of the whole identity document: the oracle of run-ID hashing.

:func:`run_id_for_task` walks the task's descriptors with an
``isinstance`` ladder, builds the complete identity payload and renders it
with one ``json.dumps``.  ``repro.store.hashing`` plans its walk once per
class and composes the same document from memoised per-descriptor renders;
it must return exactly the same canonical JSON and the same IDs.
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
from repro.store.hashing import TYPE_KEY


def canonical_payload(value: Any) -> Any:
    """Recursively convert *value* into a canonically-hashable JSON payload."""
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
    return json.dumps(
        canonical, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON document of *value*, rendered in one piece."""
    return _render(canonical_payload(value))


def task_fingerprint(task: StudyTask) -> Dict[str, Any]:
    """The canonical identity payload of one study task."""
    if isinstance(task, EngineTask):
        return {
            "task": "engine",
            "spec": canonical_payload(task.spec),
            "workload": canonical_payload(task.workload),
        }
    assert isinstance(task, CallableTask)
    return {
        "task": "callable",
        "key": canonical_payload(task.key),
        "fn": f"{task.fn.__module__}.{task.fn.__qualname__}",
        "args": canonical_payload(task.args),
    }


def run_id_for_task(
    task: StudyTask, *, seed: Optional[int], engine_version: str
) -> str:
    """``sha256`` of one canonical render of the whole identity document."""
    identity = {
        "fingerprint": task_fingerprint(task),
        "seed": canonical_payload(seed),
        "engine_version": canonical_payload(engine_version),
    }
    return hashlib.sha256(_render(identity).encode("utf-8")).hexdigest()
