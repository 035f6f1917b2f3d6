"""Cross-run SQLite index over the run store's manifests.

The index (``<store root>/index.sqlite``) holds one row per persisted run —
spec, kind, workload, TDP, seed, engine version, headline metric — so that
questions like *"all dynamic runs of spec darkgates at 35 W"* or *"compare
darkgates vs baseline across the stored SPEC suite"* are answered by a
query instead of a re-simulation.  The database is derived state: it can be
dropped at any time and rebuilt purely from the on-disk manifests
(:meth:`RunIndex.rebuild`), which is also how it recovers from corruption.
A sweep keeps the index current with :meth:`RunIndex.update`, which
touches only the sweep's own runs once a rebuild has completed the index,
and otherwise rebuilds it without re-reading the manifests it just wrote.
"""

from __future__ import annotations

import sqlite3
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.common.errors import StoreError
from repro.store.artifacts import RunStore, StoreCorruptionWarning
from repro.store.manifest import RunManifest

INDEX_FILENAME = "index.sqlite"

_CREATE_TABLE = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    workload_name TEXT NOT NULL,
    engine_version TEXT NOT NULL,
    repro_version TEXT NOT NULL,
    spec_name TEXT,
    spec_label TEXT,
    sku TEXT,
    tdp_w REAL,
    seed INTEGER,
    primary_metric REAL,
    tier TEXT NOT NULL,
    created_at TEXT NOT NULL,
    schema_version INTEGER NOT NULL
)
"""

_COLUMNS = (
    "run_id",
    "kind",
    "workload_name",
    "engine_version",
    "repro_version",
    "spec_name",
    "spec_label",
    "sku",
    "tdp_w",
    "seed",
    "primary_metric",
    "tier",
    "created_at",
    "schema_version",
)

_UPSERT = (
    f"INSERT OR REPLACE INTO runs ({', '.join(_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in _COLUMNS)})"
)

#: Run IDs bound per ``WHERE run_id IN (...)`` statement; stays under
#: SQLite's 999-variable limit of builds older than 3.32.
_MEMBERSHIP_CHUNK = 500

#: ``PRAGMA user_version`` of an index that a rebuild completed.  The
#: pragma commits with the rebuild's rows, so an index created by a query,
#: or left by a rebuild that failed, reads 0.
_REBUILT = 1


class RunIndex:
    """Queryable cross-run index of one store's manifests."""

    def __init__(self, store: Union[RunStore, str, Path, None] = None) -> None:
        self._store = store if isinstance(store, RunStore) else RunStore(store)
        self._path = self._store.root / INDEX_FILENAME

    @property
    def store(self) -> RunStore:
        """The store this index covers."""
        return self._store

    @property
    def path(self) -> Path:
        """Location of the SQLite database."""
        return self._path

    def exists(self) -> bool:
        """True when the database file has been materialised."""
        return self._path.exists()

    def _rebuilt(self) -> bool:
        """True when the index exists and a rebuild completed it."""
        if not self.exists():
            return False
        with self._connect() as connection:
            (version,) = connection.execute("PRAGMA user_version").fetchone()
        return bool(version == _REBUILT)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self._path)
        try:
            connection.execute(_CREATE_TABLE)
            yield connection
            connection.commit()
        finally:
            connection.close()

    # -- writing -----------------------------------------------------------------------

    @staticmethod
    def _row(manifest: RunManifest) -> Tuple[Any, ...]:
        data = manifest.to_dict()
        return tuple(data[column] for column in _COLUMNS)

    def update(self, written: Iterable[RunManifest], served: Sequence[str]) -> int:
        """Upsert the rows of one sweep's runs; returns the indexed run count.

        *written* manifests are upserted as given.  Of the *served* run
        IDs, those the index lacks — their sweep's index update failed, or
        another process wrote them — are found with one membership query
        and upserted from their manifests (corrupt ones are skipped with a
        warning, as in :meth:`rebuild`).  No other manifest is read, so
        the cost does not grow with the store.  An index that no rebuild
        completed (missing, created by a query, or left by a failed
        rebuild) is rebuilt instead, from the *written* manifests and the
        manifests of the other run directories.
        """
        if not self._rebuilt():
            return self.rebuild(written)
        rows = [self._row(manifest) for manifest in written]
        with self._connect() as connection:
            present: Set[str] = set()
            for start in range(0, len(served), _MEMBERSHIP_CHUNK):
                chunk = served[start : start + _MEMBERSHIP_CHUNK]
                marks = ", ".join("?" for _ in chunk)
                present.update(
                    run_id
                    for (run_id,) in connection.execute(
                        f"SELECT run_id FROM runs WHERE run_id IN ({marks})",
                        chunk,
                    )
                )
            for run_id in served:
                if run_id in present:
                    continue
                try:
                    rows.append(self._row(self._store.load_manifest(run_id)))
                except StoreError as error:
                    warnings.warn(
                        f"not indexing run {run_id}: {error}",
                        StoreCorruptionWarning,
                        stacklevel=2,
                    )
            connection.executemany(_UPSERT, rows)
            (count,) = connection.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def rebuild(self, written: Iterable[RunManifest] = ()) -> int:
        """Drop every row and re-index every run directory of the store.

        Works from the artifacts alone — this is the recovery path after
        index corruption or out-of-band store edits.  A run among the
        *written* manifests (the ones a sweep has just put) is indexed from
        that manifest instead of its file.  Returns the number of indexed
        runs (corrupt manifests are skipped with a warning by
        :meth:`~repro.store.artifacts.RunStore.iter_manifests`).
        """
        known = {manifest.run_id: manifest for manifest in written}
        manifests = list(self._store.iter_manifests(known))
        with self._connect() as connection:
            connection.execute("DELETE FROM runs")
            connection.executemany(
                _UPSERT, [self._row(manifest) for manifest in manifests]
            )
            connection.execute(f"PRAGMA user_version = {_REBUILT}")
        return len(manifests)

    def prune(self, run_ids: Iterable[str]) -> None:
        """Drop the rows of the given run IDs (gc support)."""
        with self._connect() as connection:
            connection.executemany(
                "DELETE FROM runs WHERE run_id = ?",
                [(run_id,) for run_id in run_ids],
            )

    # -- querying ----------------------------------------------------------------------

    def count(self) -> int:
        """Number of indexed runs."""
        with self._connect() as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def query(
        self,
        *,
        spec: Optional[str] = None,
        kind: Optional[str] = None,
        workload: Optional[str] = None,
        tdp_w: Optional[float] = None,
        seed: Optional[int] = None,
        engine_version: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> List[RunManifest]:
        """Manifests of the runs matching every given filter.

        *spec* matches either the spec name (``"darkgates"``) or the
        expanded label (``"darkgates@35W"``); results come back ordered by
        (spec label, kind, workload) so reports are stable.
        """
        clauses: List[str] = []
        params: List[Any] = []
        if spec is not None:
            clauses.append("(spec_name = ? OR spec_label = ?)")
            params.extend([spec, spec])
        for column, value in (
            ("kind", kind),
            ("workload_name", workload),
            ("tdp_w", tdp_w),
            ("seed", seed),
            ("engine_version", engine_version),
            ("tier", tier),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = f"SELECT {', '.join(_COLUMNS)} FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY spec_label, kind, workload_name, tdp_w"
        with self._connect() as connection:
            rows = connection.execute(sql, params).fetchall()
        return [
            RunManifest.from_dict(dict(zip(_COLUMNS, row))) for row in rows
        ]

    def compare(
        self,
        spec_a: str,
        spec_b: str,
        *,
        kind: Optional[str] = None,
        tdp_w: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Join two specs' stored runs on (kind, workload, TDP).

        Returns one entry per cell both specs have persisted, with each
        side's headline metric and the a/b ratio — the cross-run analogue
        of the paper's gated-vs-bypassed comparisons, served entirely from
        the index (no engine invocation).  Raises when the specs share no
        cells, which usually means the runs were never made (or gc'd).
        """
        runs_a = self.query(spec=spec_a, kind=kind, tdp_w=tdp_w)
        runs_b = self.query(spec=spec_b, kind=kind, tdp_w=tdp_w)

        def keyed(
            runs: List[RunManifest],
        ) -> Dict[Tuple[str, str, Optional[float]], RunManifest]:
            return {
                (run.kind, run.workload_name, run.tdp_w): run for run in runs
            }

        by_a, by_b = keyed(runs_a), keyed(runs_b)
        shared = sorted(set(by_a) & set(by_b))
        if not shared:
            raise StoreError(
                f"no stored cells shared by {spec_a!r} and {spec_b!r}; "
                "run the sweeps first (python -m repro run ...) and rebuild "
                "the index"
            )
        entries: List[Dict[str, Any]] = []
        for key in shared:
            run_a, run_b = by_a[key], by_b[key]
            ratio = None
            if (
                run_a.primary_metric is not None
                and run_b.primary_metric not in (None, 0.0)
            ):
                ratio = run_a.primary_metric / run_b.primary_metric
            entries.append(
                {
                    "kind": key[0],
                    "workload_name": key[1],
                    "tdp_w": key[2],
                    "metric_a": run_a.primary_metric,
                    "metric_b": run_b.primary_metric,
                    "ratio": ratio,
                }
            )
        return entries
