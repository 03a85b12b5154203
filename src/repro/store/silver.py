"""Silver-tier validation: the one gate between raw and stored sightings.

Every sighting that enters a :class:`~repro.store.sightings.SightingStore`
-- whether it came from a simulated feed collector, a stream engine's
as-of-day slice, or an externally ingested URL feed -- passes through
:func:`validate_sighting` before it may join the silver tier.  The
checks are *structural*, not semantic: they enforce exactly the
invariants the rest of the system relies on (domains are
newline-free DNS names so the packed column transport round-trips;
times fit in a signed 64-bit integer so ``array("q")`` blobs and the
SQLite ``INTEGER`` affinity hold them losslessly).

Keeping this in one module is what lets the external-ingest path
(:mod:`repro.io.url_ingest`) and the store agree byte-for-byte on what
counts as a drop: both call the same function and report the same
reason strings.
"""

from __future__ import annotations

from typing import Optional

#: Inclusive bounds of a signed 64-bit integer -- the storage type of
#: every sighting timestamp (``array("q")`` column blobs and SQLite
#: ``INTEGER`` columns alike).
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Rejection reasons :func:`validate_sighting` can return, in the order
#: the checks run.
REJECT_EMPTY_DOMAIN = "empty_domain"
REJECT_MALFORMED_DOMAIN = "malformed_domain"
REJECT_BAD_TIME = "bad_time"
REJECT_TIME_RANGE = "time_out_of_range"

#: Status strings for bronze-tier provenance rows.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"


def validate_sighting(domain: object, time: object) -> Optional[str]:
    """Validate one candidate sighting; returns a reason or ``None``.

    ``None`` means the sighting is silver-clean.  Otherwise the
    returned string names the first failed check (one of the
    ``REJECT_*`` constants above).
    """
    if not isinstance(domain, str) or not domain:
        return REJECT_EMPTY_DOMAIN
    # Domains are DNS labels: whitespace (newlines especially) would
    # corrupt the joined-string column blobs in feeds.base.PackedColumns
    # and the JSONL interchange format.
    if any(c.isspace() for c in domain) or not domain.isprintable():
        return REJECT_MALFORMED_DOMAIN
    # bool is an int subclass; a True timestamp is a lie, not minute 1.
    if isinstance(time, bool) or not isinstance(time, int):
        return REJECT_BAD_TIME
    if not (INT64_MIN <= time <= INT64_MAX):
        return REJECT_TIME_RANGE
    return None
