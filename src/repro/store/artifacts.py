"""The on-disk run store: one artifact directory per content-addressed run.

Layout (root defaults to ``~/.repro_store``, overridable via the
``REPRO_STORE_DIR`` environment variable or an explicit path)::

    <root>/
      runs/<run_id>/traces.npy       # dynamic runs only: per-step traces
      runs/<run_id>/result.json      # encoded result payload
      runs/<run_id>/manifest.json    # RunManifest; written last
      index.sqlite                   # cross-run index (see repro.store.index)

A dynamic run keeps its per-step traces in ``traces.npy``: one structured
numpy array with a named column per trace
(:meth:`~repro.sim.metrics.DynamicRunResult.trace_table`; 27 bytes a step,
the frequency an int8 code), so its ``result.json`` holds only the
scalars, the frequency level table, the C-state names and the summary.
Every other value is one JSON file.

Every file is written atomically (temp file in the target directory, then
``os.replace``), in the order listed: a run directory is complete exactly
when it holds a valid manifest.  Two processes writing
the same run ID race harmlessly — both write identical content (the ID is
content-addressed) and the last rename wins file-whole; readers never see a
torn manifest.  Corrupted or truncated manifests are detected on read and
skipped with a :class:`StoreCorruptionWarning` instead of poisoning sweeps.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Type, Union

import numpy as np

from repro.common.codec import RESULT_SCHEMA_VERSION, Codec, encode
from repro.common.errors import ConfigurationError, StoreError
from repro.sim.metrics import (
    SCHEMA3_TRACE_DTYPE,
    TRACE_DTYPE,
    DynamicRunResult,
    RunResult,
)
from repro.store.manifest import RunManifest

#: Environment variable overriding the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Store directory under the user's home when nothing else is configured.
DEFAULT_STORE_DIRNAME = ".repro_store"

RESULT_FILENAME = "result.json"
MANIFEST_FILENAME = "manifest.json"
TRACES_FILENAME = "traces.npy"

#: Store-payload key of a run whose traces live in ``traces.npy``: the
#: number of steps (rows) that file holds.
TRACES_KEY = "traces"


class StoreCorruptionWarning(UserWarning):
    """A stored artifact failed validation and was skipped."""


def resolve_store_root(root: Union[str, Path, None] = None) -> Path:
    """The store root: explicit path > ``REPRO_STORE_DIR`` > ``~/.repro_store``."""
    if root is not None:
        if not isinstance(root, (str, os.PathLike)):
            raise ConfigurationError(
                f"a store root must be a path (str or os.PathLike), got "
                f"{type(root).__name__}; to share an existing RunStore, pass "
                "it as store=... (StoreCache(store=run_store))"
            )
        return Path(root).expanduser()
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / DEFAULT_STORE_DIRNAME


# -- value codec -----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _codec_classes() -> Dict[str, Type[Codec]]:
    """Store codec tag -> the codec class its payloads decode through.

    A value is stored under the first tag whose class it is an instance
    of.  The result modules are imported on first use so that importing
    the store does not import every one of them.
    """
    from repro.analysis.optimize import OptimizationResult
    from repro.variation.population import (
        PopulationCellResult,
        PopulationResult,
        SpecBinningResult,
    )
    from repro.variation.streaming import (
        StreamingBinningResult,
        StreamingCellResult,
        StreamingCellShard,
    )

    return {
        "run_result": RunResult,
        "optimization": OptimizationResult,
        "population_cell": PopulationCellResult,
        "spec_binning": SpecBinningResult,
        "streaming_shard": StreamingCellShard,
        "streaming_cell": StreamingCellResult,
        "streaming_binning": StreamingBinningResult,
        "population": PopulationResult,
    }


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode a study-task result into a JSON-safe store payload.

    Codec values (every :class:`~repro.sim.metrics.RunResult` kind,
    population and streaming cells, binnings and shards, whole population
    and optimization results) are tagged with their store codec; anything
    else must already be a faithful JSON value (tuples are rejected — they
    would silently come back as lists).

    A dynamic run's per-step traces stay out of the payload, which records
    their step count under ``"traces"`` instead: they travel as its
    :meth:`~repro.sim.metrics.DynamicRunResult.trace_table`.
    """
    for codec, cls in _codec_classes().items():
        if isinstance(value, cls):
            payload: Dict[str, Any] = {"codec": codec}
            if isinstance(value, DynamicRunResult):
                payload["value"] = encode(value, omit=value.trace_columns)
                payload[TRACES_KEY] = value.steps
            else:
                payload["value"] = value.to_dict()
            break
    else:
        try:
            faithful = (
                json.loads(json.dumps(value, sort_keys=True, allow_nan=False))
                == value
            )
        except (TypeError, ValueError):
            faithful = False
        if not faithful:
            raise StoreError(
                f"cannot persist {type(value).__name__!s}: not an engine "
                "result and not a faithful JSON value"
            )
        payload = {"codec": "json", "value": value}
    payload["schema_version"] = RESULT_SCHEMA_VERSION
    return payload


def decode_value(payload: Dict[str, Any], traces: Optional[np.ndarray] = None) -> Any:
    """Decode a store payload back into the value :func:`encode_value` saw.

    *traces* is the trace table of a dynamic run's payload: a
    :data:`~repro.sim.metrics.TRACE_DTYPE` table, or for a schema-3 payload
    the float-frequency one its codec upgrade re-encodes.  Payloads that
    carry their traces inline (schema 1/2 artifacts) decode without one.
    """
    if not isinstance(payload, dict):
        raise StoreError(f"a store payload must be a JSON object, got {payload!r:.40}")
    version = payload.get("schema_version", RESULT_SCHEMA_VERSION)
    if not isinstance(version, int) or version > RESULT_SCHEMA_VERSION:
        raise StoreError(
            f"stored result schema version {version!r} is newer than this "
            f"library understands (<= {RESULT_SCHEMA_VERSION})"
        )
    codec = payload.get("codec")
    value = payload.get("value")
    if codec == "json":
        return value
    cls = _codec_classes().get(codec) if isinstance(codec, str) else None
    if cls is None:
        raise StoreError(f"unknown store codec {codec!r}")
    if TRACES_KEY not in payload:
        return cls.from_dict(value)
    steps = payload[TRACES_KEY]
    dtype = TRACE_DTYPE if version > 3 else SCHEMA3_TRACE_DTYPE
    if not (
        isinstance(traces, np.ndarray)
        and traces.dtype == dtype
        and traces.shape == (steps,)
    ):
        raise StoreError(
            f"payload expects a trace table of {steps!r} {dtype} rows, "
            f"got shape {getattr(traces, 'shape', None)} "
            f"dtype {getattr(traces, 'dtype', None)}"
        )
    columns = {name: traces[name] for name in dtype.names or ()}
    return cls.from_dict({**value, **columns} if isinstance(value, dict) else value)


# -- the store -------------------------------------------------------------------------


class RunStore:
    """Persistent, content-addressed storage of completed runs.

    Parameters
    ----------
    root:
        Store root; ``None`` resolves through :func:`resolve_store_root`
        (``REPRO_STORE_DIR`` or ``~/.repro_store``).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = resolve_store_root(root)

    @property
    def root(self) -> Path:
        """The store root directory."""
        return self._root

    @property
    def runs_dir(self) -> Path:
        """The directory holding one subdirectory per run."""
        return self._root / "runs"

    def run_dir(self, run_id: str) -> Path:
        """The artifact directory of one run."""
        return self.runs_dir / run_id

    # -- writing -----------------------------------------------------------------------

    def _write_atomic(self, path: Path, data: Union[str, np.ndarray]) -> None:
        """Write *data* (text, or an array as ``.npy``) to *path* via a
        same-directory temp file + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}."
            f"{uuid.uuid4().hex}.tmp"  # repro-lint: disable=RPR002 -- temp-file name uniqueness only; the name never reaches a result, manifest, or fingerprint
        )
        try:
            if isinstance(data, str):
                tmp.write_text(data)
            else:
                with tmp.open("wb") as handle:
                    np.save(handle, data, allow_pickle=False)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    def put(self, manifest: RunManifest, value: Any) -> RunManifest:
        """Persist one run: a dynamic run's ``traces.npy`` first, then the
        encoded *value*, *manifest* last.

        Returns the manifest as written.  Concurrent writers of the same
        run ID each complete their own atomic renames; because the ID is
        content-addressed both wrote equivalent artifacts, so whichever
        rename lands last leaves a consistent directory.
        """
        run_dir = self.run_dir(manifest.run_id)
        payload = encode_value(value)
        if TRACES_KEY in payload:
            self._write_atomic(run_dir / TRACES_FILENAME, value.trace_table())
        self._write_atomic(
            run_dir / RESULT_FILENAME,
            json.dumps(payload, sort_keys=True, allow_nan=False),
        )
        self._write_atomic(
            run_dir / MANIFEST_FILENAME,
            json.dumps(manifest.to_dict(), sort_keys=True, allow_nan=False),
        )
        return manifest

    # -- reading -----------------------------------------------------------------------

    def __contains__(self, run_id: str) -> bool:
        """True when *run_id* has a complete (manifest + result) directory."""
        run_dir = self.run_dir(run_id)
        return (run_dir / MANIFEST_FILENAME).exists() and (
            run_dir / RESULT_FILENAME
        ).exists()

    def load_manifest(self, run_id: str) -> RunManifest:
        """The manifest of one run (raises :class:`StoreError` if invalid)."""
        path = self.run_dir(run_id) / MANIFEST_FILENAME
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise StoreError(f"run {run_id!r} is not in the store") from None
        except (json.JSONDecodeError, OSError) as error:
            raise StoreError(
                f"run {run_id!r} has a corrupted manifest: {error}"
            ) from None
        manifest = RunManifest.from_dict(data)
        if manifest.run_id != run_id:
            raise StoreError(
                f"manifest of run {run_id!r} claims run_id "
                f"{manifest.run_id!r} (torn or misplaced write)"
            )
        return manifest

    def load_value(self, run_id: str) -> Any:
        """The decoded result value of one run.

        Raises :class:`StoreError` when the run is missing, or when any of
        its files is unreadable or does not decode.
        """
        run_dir = self.run_dir(run_id)
        try:
            payload = json.loads((run_dir / RESULT_FILENAME).read_text())
        except FileNotFoundError:
            raise StoreError(f"run {run_id!r} is not in the store") from None
        except (json.JSONDecodeError, OSError) as error:
            raise StoreError(
                f"run {run_id!r} has a corrupted result payload: {error}"
            ) from None
        traces = None
        if isinstance(payload, dict) and TRACES_KEY in payload:
            try:
                traces = np.load(run_dir / TRACES_FILENAME, allow_pickle=False)
            except (OSError, ValueError, EOFError) as error:
                raise StoreError(
                    f"run {run_id!r} has a missing or corrupted "
                    f"{TRACES_FILENAME}: {error}"
                ) from None
        try:
            return decode_value(payload, traces)
        except (ConfigurationError, StoreError) as error:
            raise StoreError(f"run {run_id!r} does not decode: {error}") from None

    def run_ids(self) -> List[str]:
        """IDs of every run directory currently on disk, sorted."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in self.runs_dir.iterdir() if entry.is_dir()
        )

    def iter_manifests(
        self, known: Optional[Mapping[str, RunManifest]] = None
    ) -> Iterator[RunManifest]:
        """Yield the manifest of every complete run, skipping corrupt ones.

        A run directory named in *known* (run ID -> manifest, e.g. the runs
        a sweep has just written) yields that manifest unread.  In-flight
        directories (no manifest yet) are silently ignored; corrupted or
        truncated manifests raise a :class:`StoreCorruptionWarning` and are
        skipped, so one damaged artifact never poisons an index rebuild or
        a sweep.
        """
        known = known or {}
        for run_id in self.run_ids():
            if run_id in known:
                yield known[run_id]
                continue
            if not (self.run_dir(run_id) / MANIFEST_FILENAME).exists():
                continue
            try:
                yield self.load_manifest(run_id)
            except StoreError as error:
                warnings.warn(
                    f"skipping run {run_id}: {error}",
                    StoreCorruptionWarning,
                    stacklevel=2,
                )

    def __len__(self) -> int:
        return len(self.run_ids())

    # -- maintenance -------------------------------------------------------------------

    def delete(self, run_id: str) -> None:
        """Remove one run's artifact directory (missing runs are a no-op)."""
        run_dir = self.run_dir(run_id)
        if run_dir.is_dir():
            shutil.rmtree(run_dir)

    def gc(
        self,
        *,
        keep_engine_version: Optional[str] = None,
        tier: Optional[str] = None,
        delete_all: bool = False,
        apply: bool = False,
    ) -> List[RunManifest]:
        """Collect runs and (optionally) delete them.

        Returns the manifests of the runs selected for collection: every
        run when *delete_all* is set, otherwise runs whose engine version
        differs from *keep_engine_version* and/or whose tier matches
        *tier*.  Nothing is removed unless *apply* is true — the default
        is a dry run, mirroring the ``--update-baseline``-style workflow
        of the benchmark gate (inspect first, then apply explicitly).
        """
        selected: List[RunManifest] = []
        for manifest in self.iter_manifests():
            if delete_all:
                selected.append(manifest)
                continue
            stale_engine = (
                keep_engine_version is not None
                and manifest.engine_version != keep_engine_version
            )
            tier_match = tier is not None and manifest.tier == tier
            if stale_engine or tier_match:
                selected.append(manifest)
        if apply:
            for manifest in selected:
                self.delete(manifest.run_id)
        return selected
