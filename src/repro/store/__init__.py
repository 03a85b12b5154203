"""Durable sighting store on one SQLite backend.

The batch pipeline and the streaming engine both observe *sightings*
-- ``(feed, domain, time)`` facts -- but historically kept them only
in process-local columns that died with the run.  This package gives
sightings a durable home:

* :mod:`repro.store.silver` -- the single validation gate between raw
  records and stored sightings, which the JSONL feed reader runs too.
* :mod:`repro.store.backend` -- :class:`SqliteBackend`, one SQLite
  file (or ``":memory:"``) holding every tier.
* :mod:`repro.store.sightings` -- :class:`SightingStore` and
  :class:`RunWriter`: medallion-tier landing of whole feed columns
  (bronze record counts per status and reason, silver validated
  sightings, gold per-``(feed, domain)`` aggregates derived in SQL)
  that is idempotent per run.
* :mod:`repro.store.query` -- the read-side answers behind
  ``python -m repro query``.

The store is an *output* of the deterministic pipeline, never an
input to analysis math: analyses keep reading each in-memory
``FeedDataset``'s column block, so a store-backed
run prints byte-identical results to a store-less one.
"""

from repro.store.backend import (
    BronzeSummary,
    FeedSummary,
    GoldRow,
    RunRow,
    SilverRow,
    SqliteBackend,
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
    "BronzeSummary",
    "EMPTY_LANDING",
    "FeedSummary",
    "GoldRow",
    "LandingStats",
    "RunRow",
    "RunWriter",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STORE_FORMAT",
    "STORE_VERSION",
    "SightingStore",
    "SilverRow",
    "SqliteBackend",
    "StoreError",
    "run_key_for",
    "validate_sighting",
]
