"""Persistent content-addressed run store, cross-run index, and CLI.

The store turns one-shot study sweeps into a serveable system: every
executed cell lands on disk under a content-addressed run ID
(:mod:`repro.store.hashing`), described by an atomic manifest
(:mod:`repro.store.manifest`, :mod:`repro.store.artifacts`); a
:class:`StoreCache` plugs the store into ``Study(cache=...)`` so repeated
sweeps execute zero simulator tasks (:mod:`repro.store.cache`); a SQLite
index answers cross-run queries (:mod:`repro.store.index`); and
``python -m repro`` drives it all from the command line
(:mod:`repro.store.cli`).
"""

from repro.store.artifacts import (
    RunStore,
    StoreCorruptionWarning,
    decode_value,
    encode_value,
)
from repro.store.cache import StoreCache
from repro.store.hashing import (
    digest,
    run_id_for_task,
)
from repro.store.index import RunIndex
from repro.store.manifest import (
    DEFAULT_TIER,
    RunManifest,
)

__all__ = [
    "RunStore",
    "StoreCache",
    "RunIndex",
    "RunManifest",
    "StoreCorruptionWarning",
    "DEFAULT_TIER",
    "digest",
    "run_id_for_task",
    "encode_value",
    "decode_value",
]
