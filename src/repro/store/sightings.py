"""The sighting store: medallion-tier landing over a storage backend.

:class:`SightingStore` is the one write/read surface for durable feed
sightings.  Data moves through three tiers (the FeedSpine pattern):

* **bronze** -- every raw record exactly as received, one row each,
  whether it validated or not.  This is provenance: drops are visible,
  never silent.
* **silver** -- records that passed :func:`~repro.store.silver
  .validate_sighting`, normalized to ``(feed, domain, time)`` rows in
  landing order.
* **gold** -- per-``(feed, domain)`` natural-key aggregates
  ``(n_sightings, first_seen, last_seen)``, merged commutatively
  (sum / min / max), which is why batch landing, stream landing, and
  interleaved re-landing all converge to the same gold tier.

Landing is **idempotent per run**: every run lands under a
``run_key`` (config fingerprint + seed), and a :class:`RunWriter`
skips the per-feed prefix that a previous landing of the same run
already wrote (bronze row counts are the cursors).  Running ``run
--store`` and then ``stream --store`` against the same file therefore
lands each sighting exactly once, and a resumed stream completes the
store instead of duplicating its prefix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.store.backend import (
    BronzeSummary,
    FeedSummary,
    GoldRow,
    MemoryBackend,
    RunRow,
    SilverRow,
    SqliteBackend,
    StorageProtocol,
)
from repro.store.silver import STATUS_OK, STATUS_REJECTED, validate_sighting


def run_key_for(config_fingerprint: str, seed: int) -> str:
    """The natural key identifying one (config, seed) run in a store."""
    return f"{config_fingerprint}:{seed}"


class LandingStats(NamedTuple):
    """What one landing call did."""

    bronze: int  #: raw rows appended this call
    silver: int  #: validated sightings appended this call
    rejected: int  #: raw rows appended with a rejection reason
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

    Holds the run's identity plus per-feed cursors: how many bronze
    rows this run has already landed per feed.  Incoming records for a
    feed are matched positionally against that cursor -- deterministic
    collection order makes "same index" mean "same record" -- so
    re-landing a prefix is a cheap skip, never a duplicate.
    """

    def __init__(
        self, backend: StorageProtocol, run_id: int, created: bool
    ) -> None:
        self._backend = backend
        self.run_id = run_id
        self.created = created
        #: bronze rows already durable per feed (prefix to skip)
        self._cursors: Dict[str, int] = backend.bronze_counts(run_id)
        #: records offered per feed during this writer's lifetime
        self._positions: Dict[str, int] = {}

    def cursor(self, feed: str) -> int:
        """Bronze rows landed so far for *feed* (durable + this session)."""
        return self._cursors.get(feed, 0)

    def set_position(self, feed: str, position: int) -> None:
        """Declare where in the run's record sequence *feed* resumes.

        A writer normally assumes callers offer each feed's records
        from the start of the run (position 0) and skips the landed
        prefix.  The stream engine lands each feed in slices instead;
        it declares where each slice starts so position bookkeeping
        stays aligned with the records actually offered.
        """
        if position < 0:
            raise ValueError("position must be non-negative")
        self._positions[feed] = position

    def land_sightings(
        self,
        feed: str,
        sightings: Iterable[Tuple[str, int]],
        payloads: Optional[Iterable[str]] = None,
    ) -> LandingStats:
        """Land ``(domain, time)`` sightings for one feed.

        Every record gets a bronze row (with its validation status);
        valid records additionally get a silver row and fold into the
        gold aggregate.  Records inside the already-landed prefix are
        skipped.  *payloads*, when given, supplies the bronze raw-form
        string per record; otherwise a canonical ``"domain time"``
        rendering is stored.
        """
        bronze_rows: List[Tuple[str, str, str, str]] = []
        silver_rows: List[Tuple[str, str, int]] = []
        gold: Dict[Tuple[str, str], List[int]] = {}
        skipped = 0
        rejected = 0

        position = self._positions.get(feed, 0)
        cursor = self._cursors.get(feed, 0)
        payload_iter = iter(payloads) if payloads is not None else None
        for domain, time in sightings:
            payload = (
                next(payload_iter)
                if payload_iter is not None
                else f"{domain} {time}"
            )
            if position < cursor:
                position += 1
                skipped += 1
                continue
            position += 1
            reason = validate_sighting(domain, time)
            if reason is None:
                bronze_rows.append((feed, payload, STATUS_OK, ""))
                silver_rows.append((feed, domain, time))
                cell = gold.get((feed, domain))
                if cell is None:
                    gold[(feed, domain)] = [1, time, time]
                else:
                    cell[0] += 1
                    if time < cell[1]:
                        cell[1] = time
                    if time > cell[2]:
                        cell[2] = time
            else:
                bronze_rows.append((feed, payload, STATUS_REJECTED, reason))
                rejected += 1

        self._positions[feed] = position
        if bronze_rows:
            self._backend.append_bronze(self.run_id, bronze_rows)
            self._cursors[feed] = cursor + len(bronze_rows)
        if silver_rows:
            self._backend.append_silver(self.run_id, silver_rows)
        if gold:
            self._backend.merge_gold(
                [
                    (f, d, cell[0], cell[1], cell[2])
                    for (f, d), cell in sorted(gold.items())
                ]
            )

        stats = LandingStats(
            bronze=len(bronze_rows),
            silver=len(silver_rows),
            rejected=rejected,
            skipped=skipped,
        )
        self._note(stats)
        return stats

    def land_raw(
        self,
        feed: str,
        payload: str,
        domain: Optional[str],
        time: Optional[int],
        reject_reason: Optional[str] = None,
    ) -> Tuple[Optional[str], bool]:
        """Land one raw external record (the ingest path).

        *reject_reason* carries an upstream parse failure (the record
        never yielded a sighting); otherwise the candidate ``(domain,
        time)`` runs through silver validation here.  Returns
        ``(final_reason, landed)`` where *landed* is False when the
        record fell inside the already-landed prefix.  The reason is
        computed either way, so callers keep identical accounting on
        re-landing.
        """
        reason = reject_reason
        if reason is None:
            reason = validate_sighting(domain, time)

        position = self._positions.get(feed, 0)
        cursor = self._cursors.get(feed, 0)
        self._positions[feed] = position + 1
        if position < cursor:
            self._note(LandingStats(0, 0, 0, 1))
            return reason, False

        if reason is None:
            assert domain is not None and time is not None
            self._backend.append_bronze(
                self.run_id, [(feed, payload, STATUS_OK, "")]
            )
            self._backend.append_silver(
                self.run_id, [(feed, domain, time)]
            )
            self._backend.merge_gold([(feed, domain, 1, time, time)])
            stats = LandingStats(1, 1, 0, 0)
        else:
            self._backend.append_bronze(
                self.run_id, [(feed, payload, STATUS_REJECTED, reason)]
            )
            stats = LandingStats(1, 0, 1, 0)
        self._cursors[feed] = cursor + 1
        self._note(stats)
        return reason, True

    def finish(self) -> None:
        """Commit everything landed through this writer."""
        self._backend.flush()

    @staticmethod
    def _note(stats: LandingStats) -> None:
        if stats.bronze:
            obs.add("store.bronze_rows", stats.bronze)
        if stats.silver:
            obs.add("store.silver_rows", stats.silver)
        if stats.rejected:
            obs.add("store.rejected_rows", stats.rejected)
        if stats.skipped:
            obs.add("store.skipped_rows", stats.skipped)


class SightingStore:
    """Read/write facade over one storage backend."""

    def __init__(self, backend: StorageProtocol) -> None:
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
        return cls(MemoryBackend())

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
