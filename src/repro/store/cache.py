"""A store-backed study cache: sweeps persist, warm re-runs read from disk.

:class:`StoreCache` implements the ``MutableMapping[StudyTask, Any]``
protocol that :class:`~repro.analysis.study.Study` already accepts for its
``cache=`` parameter, backed by a :class:`~repro.store.artifacts.RunStore`.
Every executed cell is written to the store under its content-addressed run
ID; a repeated sweep (same specs, workloads, seed, and engine version) finds
every task on disk and executes **zero** simulator tasks — the warm path
touches no simulator code at all.

Values the store cannot encode faithfully (exotic callable-task results)
stay in the in-memory layer for the session and raise a warning, so a study
still completes; they are simply not shared across processes.
"""

from __future__ import annotations

import warnings
from collections.abc import MutableMapping
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.analysis.study import CallableTask, EngineTask, StudyTask
from repro.common.errors import ConfigurationError, StoreError
from repro.common.validation import ensure_seed
from repro.sim.engine import ENGINE_VERSION
from repro.sim.metrics import RunResult
from repro.store.artifacts import RunStore
from repro.store.hashing import CanonicalFragments, run_id_for_task
from repro.store.manifest import (
    DEFAULT_TIER,
    RunManifest,
    repro_version,
    utc_timestamp,
)


class StoreCache(MutableMapping[StudyTask, Any]):
    """Persistent task->result cache for :class:`~repro.analysis.study.Study`.

    Parameters
    ----------
    root:
        Store root (``None`` resolves ``REPRO_STORE_DIR`` /
        ``~/.repro_store``); ignored when *store* is given.
    store:
        An existing :class:`RunStore` to share.
    seed:
        Seed hashed into every run ID: ``None`` or an integer >= 0.  Pass
        the study's seed when the engine tasks themselves are stochastic;
        deterministic sweeps (the common case — dynamics, transients,
        steady-state grids) leave it ``None``.  Population callable tasks
        already carry their seed in their arguments, so it is hashed
        either way.
    tier:
        Storage tier stamped into the manifests this cache writes.

    Notes
    -----
    ``__iter__`` / ``__len__`` cover the tasks this session has touched
    (the store itself cannot reconstruct task objects from manifests);
    membership and item access consult the disk store transparently.
    :attr:`written` and :attr:`served` list the runs this session put into
    or read from the store, so an index update touches only those.

    The cache deliberately refuses to pickle: it would silently fork the
    in-memory layer across workers.  A :class:`StoreCache` belongs in the
    driving process — ``max_workers=N`` sweeps work unchanged, because the
    study keeps its cache on the main side and only tasks cross the pool
    boundary.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        store: Optional[RunStore] = None,
        seed: Optional[int] = None,
        tier: str = DEFAULT_TIER,
    ) -> None:
        self._store = store if store is not None else RunStore(root)
        self._seed = None if seed is None else ensure_seed(seed)
        self._tier = tier
        self._memory: Dict[StudyTask, Any] = {}
        self._run_ids: Dict[StudyTask, str] = {}
        self._fragments = CanonicalFragments()
        # Run ID -> the manifest this session wrote, or None if it served
        # the run from disk.
        self._touched: Dict[str, Optional[RunManifest]] = {}
        self._unpersisted = 0

    # -- introspection -----------------------------------------------------------------

    @property
    def store(self) -> RunStore:
        """The backing run store."""
        return self._store

    @property
    def seed(self) -> Optional[int]:
        """Seed hashed into this cache's run IDs."""
        return self._seed

    @property
    def unpersisted(self) -> int:
        """Number of values this session kept memory-only (encode failures)."""
        return self._unpersisted

    @property
    def written(self) -> Tuple[RunManifest, ...]:
        """Manifests of the runs this session wrote to the store."""
        return tuple(
            manifest for manifest in self._touched.values() if manifest is not None
        )

    @property
    def served(self) -> Tuple[str, ...]:
        """IDs of the runs this session read back from the store."""
        return tuple(
            run_id for run_id, manifest in self._touched.items() if manifest is None
        )

    def run_id(self, task: StudyTask) -> str:
        """The content-addressed run ID this cache files *task* under
        (computed once per task: tasks are frozen).  Descriptors shared
        between tasks are rendered once per cache."""
        run_id = self._run_ids.get(task)
        if run_id is None:
            run_id = self._run_ids[task] = run_id_for_task(
                task,
                seed=self._seed,
                engine_version=ENGINE_VERSION,
                fragments=self._fragments,
            )
        return run_id

    # -- mapping protocol --------------------------------------------------------------

    def __getitem__(self, task: StudyTask) -> Any:
        if task in self._memory:
            return self._memory[task]
        run_id = self.run_id(task)
        if run_id not in self._store:
            raise KeyError(task)  # repro-lint: disable=RPR005 -- MutableMapping.__getitem__ protocol; Study(cache=...) relies on the mapping contract
        try:
            value = self._store.load_value(run_id)
        except StoreError as error:
            warnings.warn(
                f"re-running task {run_id[:12]}…: {error}",
                stacklevel=2,
            )
            raise KeyError(task) from None  # repro-lint: disable=RPR005 -- MutableMapping.__getitem__ protocol; a corrupt artifact must read as a cache miss
        self._memory[task] = value
        self._touched[run_id] = None
        return value

    def __setitem__(self, task: StudyTask, value: Any) -> None:
        self._memory[task] = value
        manifest = self._manifest_for(task, value)
        try:
            self._store.put(manifest, value)
        except StoreError as error:
            self._unpersisted += 1
            warnings.warn(
                f"keeping task {manifest.workload_name!r} in memory only: "
                f"{error}",
                stacklevel=2,
            )
        else:
            self._touched[manifest.run_id] = manifest

    def __delitem__(self, task: StudyTask) -> None:
        found = task in self._memory
        self._memory.pop(task, None)
        run_id = self.run_id(task)
        self._touched.pop(run_id, None)
        if run_id in self._store:
            self._store.delete(run_id)
        elif not found:
            raise KeyError(task)  # repro-lint: disable=RPR005 -- MutableMapping.__delitem__ protocol

    def __iter__(self) -> Iterator[StudyTask]:
        return iter(self._memory)

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, task: Any) -> bool:
        if task in self._memory:
            return True
        try:
            self[task]
        except KeyError:
            return False
        return True

    # -- pickling guard ----------------------------------------------------------------

    def __reduce__(self) -> Any:
        raise ConfigurationError(
            "StoreCache cannot be pickled: it must stay in the driving "
            "process.  Process-pool sweeps already work — pass the cache "
            "to Study(cache=...) and keep it out of task arguments."
        )

    # -- manifest construction ---------------------------------------------------------

    def _manifest_for(self, task: StudyTask, value: Any) -> RunManifest:
        primary: Optional[float] = None
        if isinstance(value, RunResult):
            primary = float(value.primary_metric)
        if isinstance(task, EngineTask):
            kind = getattr(value, "kind", None) or getattr(
                task.workload, "kind", "engine"
            )
            return RunManifest(
                run_id=self.run_id(task),
                kind=str(kind),
                workload_name=task.workload.name,
                engine_version=ENGINE_VERSION,
                repro_version=repro_version(),
                spec_name=task.spec.name,
                spec_label=task.spec.label,
                sku=task.spec.sku,
                tdp_w=task.spec.tdp_w,
                seed=self._seed,
                primary_metric=primary,
                tier=self._tier,
                created_at=utc_timestamp(),
            )
        assert isinstance(task, CallableTask)
        return RunManifest(
            run_id=self.run_id(task),
            kind="callable",
            workload_name=task.key,
            engine_version=ENGINE_VERSION,
            repro_version=repro_version(),
            seed=self._seed,
            primary_metric=primary,
            tier=self._tier,
            created_at=utc_timestamp(),
        )
