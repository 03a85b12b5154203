"""Durable sighting store with pluggable backends (ROADMAP item 2).

The batch pipeline, the streaming engine, and the external-feed
ingester all observe *sightings* -- ``(feed, domain, time)`` facts --
but historically kept them only in process-local columns that died
with the run.  This package gives sightings a durable home:

* :mod:`repro.store.silver` -- the single validation gate between raw
  records and stored sightings.
* :mod:`repro.store.backend` -- :class:`StorageProtocol` with two
  observationally equivalent implementations, :class:`MemoryBackend`
  and :class:`SqliteBackend`.
* :mod:`repro.store.sightings` -- :class:`SightingStore` and
  :class:`RunWriter`: medallion-tier landing (bronze raw rows, silver
  validated sightings, gold per-``(feed, domain)`` aggregates) that is
  idempotent per run.
* :mod:`repro.store.query` -- the read-side answers behind
  ``python -m repro query``.

The store is an *output* of the deterministic pipeline, never an
input to analysis math: analyses keep reading each in-memory
``FeedDataset``'s column block, so a store-backed
run prints byte-identical results to a store-less one.
"""

from repro.store.backend import (
    BronzeRow,
    BronzeSummary,
    FeedSummary,
    GoldRow,
    MemoryBackend,
    RunRow,
    SilverRow,
    SqliteBackend,
    StorageProtocol,
    StoreError,
    STORE_FORMAT,
    STORE_VERSION,
)
from repro.store.sightings import (
    EMPTY_LANDING,
    LandingStats,
    RunWriter,
    SightingStore,
    run_key_for,
)
from repro.store.silver import (
    STATUS_OK,
    STATUS_REJECTED,
    validate_sighting,
)

__all__ = [
    "BronzeRow",
    "BronzeSummary",
    "EMPTY_LANDING",
    "FeedSummary",
    "GoldRow",
    "LandingStats",
    "MemoryBackend",
    "RunRow",
    "RunWriter",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STORE_FORMAT",
    "STORE_VERSION",
    "SightingStore",
    "SilverRow",
    "SqliteBackend",
    "StorageProtocol",
    "StoreError",
    "run_key_for",
    "validate_sighting",
]
