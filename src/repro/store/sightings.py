"""The sighting store: medallion-tier landing over one SQLite backend.

:class:`SightingStore` is the one write/read surface for durable feed
sightings.  Data moves through three tiers (the FeedSpine pattern):

* **bronze** -- provenance counts: how many records each landing
  offered, per ``(status, reason)``, whether they validated or not, so
  drops are visible, never silent.  A feed reaches the store only as
  aligned ``(domain, time)`` columns, so every landing writes one
  counted row per ``(landing call, status, reason)``; there is no
  per-record raw form to keep.
* **silver** -- records that passed the silver gate
  (:func:`~repro.store.silver.validate_domain` and
  :func:`~repro.store.silver.validate_time`), normalized to
  ``(feed, domain, time)`` rows in landing order.
* **gold** -- per-``(feed, domain)`` natural-key aggregates
  ``(n_sightings, first_seen, last_seen)``, derived in SQL from the
  silver rows each landing appended and merged commutatively (sum /
  min / max), which is why batch landing, stream landing, and
  interleaved re-landing all converge to the same gold tier.

Landing is **idempotent per run**: every run lands under a
``run_key`` (config fingerprint + seed), and a :class:`RunWriter`
skips the per-feed prefix that a previous landing of the same run
already wrote (bronze record counts are the cursors).  Running ``run
--store`` and then ``stream --store`` against the same file therefore
lands each sighting exactly once, and a resumed stream completes the
store instead of duplicating its prefix.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.store.backend import (
    BronzeSummary,
    FeedSummary,
    GoldRow,
    RunRow,
    SilverRow,
    SqliteBackend,
)
from repro.store.silver import (
    STATUS_OK,
    STATUS_REJECTED,
    validate_domain,
    validate_time,
)


def run_key_for(config_fingerprint: str, seed: int) -> str:
    """The natural key identifying one (config, seed) run in a store."""
    return f"{config_fingerprint}:{seed}"


class LandingStats(NamedTuple):
    """What one landing call did."""

    bronze: int  #: records counted into bronze this call
    silver: int  #: validated sightings appended this call
    rejected: int  #: records counted into bronze with a rejection reason
    skipped: int  #: records skipped as an already-landed prefix

    def merge(self, other: "LandingStats") -> "LandingStats":
        return LandingStats(
            self.bronze + other.bronze,
            self.silver + other.silver,
            self.rejected + other.rejected,
            self.skipped + other.skipped,
        )


EMPTY_LANDING = LandingStats(0, 0, 0, 0)


class RunWriter:
    """Lands one run's sightings into a store, idempotently.

    Holds the run's identity plus per-feed cursors: how many records
    this run has already counted into bronze per feed.  Deterministic
    collection order makes a run position name the same record in
    every landing of the run, so re-landing a prefix is a cheap skip,
    never a duplicate.
    """

    def __init__(
        self, backend: SqliteBackend, run_id: int, created: bool
    ) -> None:
        self._backend = backend
        self.run_id = run_id
        self.created = created
        #: records already landed per feed (the prefix to skip)
        self._cursors: Dict[str, int] = backend.bronze_counts(run_id)

    def cursor(self, feed: str) -> int:
        """Records landed so far for *feed* (durable + this session)."""
        return self._cursors.get(feed, 0)

    def land_sightings(
        self,
        feed: str,
        domains: Sequence[str],
        times: Sequence[int],
        start: int = 0,
    ) -> LandingStats:
        """Land one feed's aligned ``(domain, time)`` columns.

        *start* is the run position of ``domains[0]``: a caller that
        lands a feed in slices (the stream engine) passes where each
        slice begins.  The already-landed prefix is skipped by
        arithmetic, without touching the columns.  Each distinct
        domain is validated once; times are checked per row only when
        the column is not an ``array("q")``, which cannot hold a bad
        one.  Accepted rows go to silver (and from there to gold) in
        one pass; bronze gets one counted row per (status, reason).
        """
        count = len(domains)
        if len(times) != count:
            raise ValueError("domain and time columns differ in length")
        if start < 0:
            raise ValueError("start must be non-negative")
        cursor = self._cursors.get(feed, 0)
        if start > cursor:
            raise ValueError(
                f"{feed}: landing from record {start} would leave records "
                f"{cursor}..{start - 1} unlanded"
            )
        skipped = min(cursor - start, count)
        if skipped == count:
            return self._note(LandingStats(0, 0, 0, skipped))
        if skipped:
            domains, times = domains[skipped:], times[skipped:]

        bad_domains: Dict[str, str] = {}
        for domain in set(domains):
            reason = validate_domain(domain)
            if reason is not None:
                bad_domains[domain] = reason
        reasons: Optional[List[Optional[str]]] = None
        if not (isinstance(times, array) and times.typecode == "q"):
            reasons = [
                bad_domains.get(domain) or validate_time(time)
                for domain, time in zip(domains, times)
            ]
        elif bad_domains:
            reasons = list(map(bad_domains.get, domains))
        rejections = Counter(reasons or ())
        del rejections[None]
        mask = [r is None for r in reasons] if rejections else None
        rejected = sum(rejections.values())
        accepted = count - skipped - rejected

        rows: List[Tuple[str, str, int]] = []
        if accepted:
            rows.append((STATUS_OK, "", accepted))
        rows += [
            (STATUS_REJECTED, reason, rejections[reason])
            for reason in sorted(rejections)
        ]
        self._backend.append_bronze(self.run_id, feed, rows)
        if accepted:
            self._backend.append_sightings(
                self.run_id, feed, domains, times, mask
            )
        self._cursors[feed] = start + count
        return self._note(
            LandingStats(count - skipped, accepted, rejected, skipped)
        )

    def finish(self) -> None:
        """Commit everything landed through this writer."""
        self._backend.flush()

    @staticmethod
    def _note(stats: LandingStats) -> LandingStats:
        if stats.bronze:
            obs.add("store.bronze_rows", stats.bronze)
        if stats.silver:
            obs.add("store.silver_rows", stats.silver)
        if stats.rejected:
            obs.add("store.rejected_rows", stats.rejected)
        if stats.skipped:
            obs.add("store.skipped_rows", stats.skipped)
        return stats


class SightingStore:
    """Read/write facade over one SQLite backend."""

    def __init__(self, backend: SqliteBackend) -> None:
        self.backend = backend

    @classmethod
    def open(cls, path: str, cross_thread: bool = False) -> "SightingStore":
        """Open (or create) a durable SQLite-backed store at *path*.

        ``cross_thread=True`` allows the connection to be used from
        threads other than the opener's; the caller must serialize
        access (the serve daemon does, behind one lock).
        """
        return cls(SqliteBackend(path, cross_thread=cross_thread))

    @classmethod
    def in_memory(cls) -> "SightingStore":
        """An ephemeral store for tests and one-shot runs."""
        return cls(SqliteBackend(":memory:"))

    # -- writing -------------------------------------------------------

    def open_run(
        self,
        run_key: str,
        seed: int,
        config_fingerprint: str,
        command: str,
    ) -> RunWriter:
        """Begin (or resume) landing the run identified by *run_key*."""
        run_id, created = self.backend.begin_run(
            run_key, seed, config_fingerprint, command
        )
        if created:
            self.backend.flush()
            obs.add("store.runs_created")
        else:
            obs.add("store.runs_resumed")
        return RunWriter(self.backend, run_id, created)

    # -- reading -------------------------------------------------------

    def runs(self) -> List[RunRow]:
        return self.backend.runs()

    def run_by_key(self, run_key: str) -> Optional[RunRow]:
        return self.backend.run_by_key(run_key)

    def first_seen(self, domain: str) -> List[GoldRow]:
        """Every feed's aggregate for *domain*, earliest sighting first."""
        return self.backend.first_seen(domain)

    def gold_rows(self, feed: Optional[str] = None) -> List[GoldRow]:
        return self.backend.gold_rows(feed)

    def feed_summaries(self) -> List[FeedSummary]:
        return self.backend.feed_summaries()

    def bronze_summary(self) -> List[BronzeSummary]:
        return self.backend.bronze_summary()

    def sightings(
        self,
        feed: Optional[str] = None,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SilverRow]:
        return self.backend.silver_rows(feed=feed, since=since, limit=limit)

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "SightingStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SightingStore({self.backend!r})"
