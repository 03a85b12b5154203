"""Silver-tier validation: the one gate between raw and stored sightings.

Every sighting from outside the program -- a record read by
:func:`repro.io.serialization.read_feed_jsonl` -- passes
:func:`validate_sighting` on its raw JSON values, and every sighting a
:class:`~repro.store.sightings.SightingStore` lands (collected feeds,
a stream engine's as-of-day slices) passes :func:`validate_domain` and
:func:`validate_time` before it may join the silver tier.  The checks
are *structural*, not semantic: they enforce exactly the invariants
the rest of the system relies on (domains are newline-free, printable
DNS names so the packed column transport round-trips; times are real
integers that fit in a signed 64-bit integer so ``array("q")`` blobs
and the SQLite ``INTEGER`` affinity hold them losslessly).

Keeping this in one module is what lets the feed reader and the store
agree on what counts as a bad sighting: both call the same functions
and report the same reason strings.
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


def validate_domain(domain: object) -> Optional[str]:
    """The domain half of :func:`validate_sighting`.

    An absent (``None``) or empty domain is ``empty_domain``; any other
    non-string value (a JSON number, list, ...) is ``malformed_domain``.
    """
    if not isinstance(domain, str):
        if domain is None:
            return REJECT_EMPTY_DOMAIN
        return REJECT_MALFORMED_DOMAIN
    if not domain:
        return REJECT_EMPTY_DOMAIN
    # Domains are DNS labels: whitespace (newlines especially) would
    # corrupt the joined-string column blobs in feeds.base.PackedColumns
    # and the JSONL interchange format.  ``str.split()`` splits on
    # exactly the characters ``str.isspace`` accepts, in one C pass.
    if domain.split() != [domain] or not domain.isprintable():
        return REJECT_MALFORMED_DOMAIN
    return None


def validate_time(time: object) -> Optional[str]:
    """The time half of :func:`validate_sighting`."""
    # bool is an int subclass; a True timestamp is a lie, not minute 1.
    if isinstance(time, bool) or not isinstance(time, int):
        return REJECT_BAD_TIME
    if not (INT64_MIN <= time <= INT64_MAX):
        return REJECT_TIME_RANGE
    return None


def validate_sighting(domain: object, time: object) -> Optional[str]:
    """Validate one candidate sighting; returns a reason or ``None``.

    ``None`` means the sighting is silver-clean.  Otherwise the
    returned string names the first failed check (one of the
    ``REJECT_*`` constants above): the domain is checked before the
    time.
    """
    return validate_domain(domain) or validate_time(time)
