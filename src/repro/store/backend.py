"""The SQLite backend of the sighting store.

:class:`SqliteBackend` keeps every tier in one SQLite file (or in
``":memory:"`` for tests and one-shot runs).  Writes accumulate inside
one transaction and become durable at :meth:`SqliteBackend.flush`, so
a crash mid-landing leaves the previous committed state intact.

The backend is column-shaped: silver takes a feed's aligned
``(domain, time)`` columns in one ``executemany``, bronze takes one
counted row per ``(landing call, status, reason)``, and gold is
derived in SQL from the silver rows a landing appended.  Tier logic
(validation, per-run cursors, idempotent re-landing) lives one layer
up in :class:`~repro.store.sightings.RunWriter`.  Every query is
ordered by explicit deterministic keys (never insertion-hash order),
which keeps query output reproducible.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
from itertools import compress, repeat
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

#: Store format marker and version, kept in the meta tier of every
#: store; readers fail loudly on foreign or future files.
STORE_FORMAT = "repro-sighting-store"
STORE_VERSION = 3

#: Column tuples of every store table, in CREATE TABLE order.  This is
#: the schema contract between the SQL below, the row NamedTuples
#: after it, and files written by earlier runs: reprolint's REP012 checks
#: every SQL string in this module against these declarations.
STORE_SCHEMA_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "meta": ("key", "value"),
    "runs": ("run_id", "run_key", "seed", "config_fingerprint", "command"),
    "bronze": ("seq", "run_id", "feed", "status", "reason", "n_records"),
    "silver": ("seq", "run_id", "feed", "domain", "time"),
    "gold": ("feed", "domain", "n_sightings", "first_seen", "last_seen"),
}

#: Fingerprint pinning (STORE_VERSION, STORE_SCHEMA_COLUMNS).  REP012
#: recomputes this from the declarations above; editing a column tuple
#: without bumping the version (and re-pinning) fails the lint.
#: Regenerate with ``python -m repro lint --store-schema-pin``.
STORE_SCHEMA_PIN = "v3:03cfac4a412f"


class StoreError(ValueError):
    """Raised when a store file or payload is invalid or mismatched."""


class RunRow(NamedTuple):
    """One landed run: the provenance unit of the store."""

    run_id: int
    run_key: str
    seed: int
    config_fingerprint: str
    command: str


class SilverRow(NamedTuple):
    """One validated sighting, in landing order."""

    seq: int
    run_id: int
    feed: str
    domain: str
    time: int


class GoldRow(NamedTuple):
    """Per-(feed, domain) natural-key aggregate the analyses read."""

    feed: str
    domain: str
    n_sightings: int
    first_seen: int
    last_seen: int


class FeedSummary(NamedTuple):
    """Per-feed rollup over the gold tier."""

    feed: str
    sightings: int
    domains: int
    first_seen: int
    last_seen: int


class BronzeSummary(NamedTuple):
    """Records counted in bronze per (feed, status, reason)."""

    feed: str
    status: str
    reason: str
    count: int


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs(
    run_id INTEGER PRIMARY KEY,
    run_key TEXT NOT NULL UNIQUE,
    seed INTEGER NOT NULL,
    config_fingerprint TEXT NOT NULL,
    command TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS bronze(
    seq INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    feed TEXT NOT NULL,
    status TEXT NOT NULL,
    reason TEXT NOT NULL,
    n_records INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS silver(
    seq INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    feed TEXT NOT NULL,
    domain TEXT NOT NULL,
    time INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS gold(
    feed TEXT NOT NULL,
    domain TEXT NOT NULL,
    n_sightings INTEGER NOT NULL,
    first_seen INTEGER NOT NULL,
    last_seen INTEGER NOT NULL,
    PRIMARY KEY(feed, domain)
);
CREATE INDEX IF NOT EXISTS idx_bronze_run_feed ON bronze(run_id, feed);
CREATE INDEX IF NOT EXISTS idx_silver_feed ON silver(feed, seq);
CREATE INDEX IF NOT EXISTS idx_gold_domain ON gold(domain);
"""

#: Folds the silver rows past a ``seq`` high-water mark into gold.  The
#: ``WHERE`` clause also keeps SQLite from parsing ``ON CONFLICT`` as a
#: join constraint of the ``SELECT``.
_GOLD_FOLD = """
INSERT INTO gold(feed, domain, n_sightings, first_seen, last_seen)
SELECT feed, domain, COUNT(*), MIN(time), MAX(time) FROM silver
WHERE seq > ? GROUP BY feed, domain
ON CONFLICT(feed, domain) DO UPDATE SET
    n_sightings = n_sightings + excluded.n_sightings,
    first_seen = min(first_seen, excluded.first_seen),
    last_seen = max(last_seen, excluded.last_seen)
"""


class SqliteBackend:
    """The sighting store's one backend: a SQLite file or ``:memory:``.

    Writes accumulate inside one SQLite transaction and become visible
    (and durable) at :meth:`flush`; a process killed mid-landing rolls
    back to the previous committed state, so the file never holds a
    half-landed batch.  Opening an existing file validates the embedded
    format marker and version.  A write SQLite refuses -- the file is
    locked by another connection past the busy timeout, or read-only --
    raises :class:`StoreError`.
    """

    def __init__(self, path: str, cross_thread: bool = False) -> None:
        self.path = path
        existed = path != ":memory:" and os.path.exists(path)
        try:
            # cross_thread drops SQLite's same-thread check for callers
            # (the serve daemon) that open on one thread and query from
            # request threads behind their own lock; the backend itself
            # never synchronizes.
            self._conn = sqlite3.connect(
                path, check_same_thread=not cross_thread
            )
        except sqlite3.Error as exc:
            raise StoreError(f"{path}: cannot open store: {exc}") from exc
        try:
            if existed:
                self._validate_meta()
            else:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    ("format", STORE_FORMAT),
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    ("version", str(STORE_VERSION)),
                )
                self._conn.commit()
        except BaseException:
            self._conn.close()
            raise

    def _validate_meta(self) -> None:
        try:
            rows = dict(
                self._conn.execute("SELECT key, value FROM meta").fetchall()
            )
        except sqlite3.Error as exc:
            raise StoreError(
                f"{self.path}: not a sighting store: {exc}"
            ) from exc
        if rows.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{self.path}: unrecognized store format "
                f"{rows.get('format')!r}"
            )
        version = rows.get("version")
        if version != str(STORE_VERSION):
            raise StoreError(
                f"{self.path}: unsupported store version {version!r} "
                f"(expected {STORE_VERSION})"
            )
        # Structural check: a file can carry a plausible meta table yet
        # miss (or mangle) the data tables — e.g. a foreign SQLite file
        # or a half-converted store.  Failing here turns what would be
        # a raw OperationalError mid-query into a clean StoreError at
        # open time.
        for table, expected in STORE_SCHEMA_COLUMNS.items():
            try:
                info = self._conn.execute(
                    f"PRAGMA table_info({table})"
                ).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"{self.path}: not a sighting store: {exc}"
                ) from exc
            present = tuple(row[1] for row in info)
            if not info:
                raise StoreError(
                    f"{self.path}: not a sighting store: missing "
                    f"table {table!r}"
                )
            if present != expected:
                raise StoreError(
                    f"{self.path}: not a sighting store: table "
                    f"{table!r} has columns {present}, expected "
                    f"{expected}"
                )

    # -- writes --------------------------------------------------------

    @contextlib.contextmanager
    def _writing(self) -> Iterator[None]:
        """Report a write SQLite refuses as a :class:`StoreError`.

        The open transaction is rolled back first, so a later commit
        (say, from :meth:`close`) cannot make a half-landed batch durable.
        """
        try:
            yield
        except sqlite3.OperationalError as exc:
            with contextlib.suppress(sqlite3.Error):
                self._conn.rollback()
            raise StoreError(f"{self.path}: {exc}") from exc

    def begin_run(
        self, run_key: str, seed: int, config_fingerprint: str, command: str
    ) -> Tuple[int, bool]:
        """Find or create the run for *run_key*; returns (id, created)."""
        row = self._conn.execute(
            "SELECT run_id FROM runs WHERE run_key = ?", (run_key,)
        ).fetchone()
        if row is not None:
            return int(row[0]), False
        with self._writing():
            cursor = self._conn.execute(
                "INSERT INTO runs(run_key, seed, config_fingerprint, command) "
                "VALUES(?, ?, ?, ?)",
                (run_key, seed, config_fingerprint, command),
            )
        run_id = cursor.lastrowid
        assert run_id is not None
        return int(run_id), True

    def append_bronze(
        self,
        run_id: int,
        feed: str,
        rows: Iterable[Tuple[str, str, int]],
    ) -> None:
        """Append counted ``(status, reason, n_records)`` rows."""
        with self._writing():
            self._conn.executemany(
                "INSERT INTO bronze(run_id, feed, status, reason, n_records) "
                "VALUES(?, ?, ?, ?, ?)",
                [(run_id, feed, *row) for row in rows],
            )

    def append_sightings(
        self,
        run_id: int,
        feed: str,
        domains: Iterable[str],
        times: Iterable[int],
        mask: Optional[Iterable[bool]] = None,
    ) -> None:
        """Append aligned sighting columns to silver and fold gold.

        Rows where *mask* is false are left out.  The rows stream into
        one ``executemany`` without an intermediate list, and gold
        absorbs exactly the silver rows this call appended.
        """
        (high_water,) = self._conn.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM silver"
        ).fetchone()
        rows = zip(repeat(run_id), repeat(feed), domains, times)
        with self._writing():
            self._conn.executemany(
                "INSERT INTO silver(run_id, feed, domain, time) "
                "VALUES(?, ?, ?, ?)",
                rows if mask is None else compress(rows, mask),
            )
            self._conn.execute(_GOLD_FOLD, (high_water,))

    def flush(self) -> None:
        """Commit everything appended so far."""
        with self._writing():
            self._conn.commit()

    def close(self) -> None:
        try:
            self.flush()
        finally:
            self._conn.close()

    # -- reads ---------------------------------------------------------

    def runs(self) -> List[RunRow]:
        """Every landed run, ordered by run id."""
        rows = self._conn.execute(
            "SELECT run_id, run_key, seed, config_fingerprint, command "
            "FROM runs ORDER BY run_id"
        ).fetchall()
        return [RunRow(int(r[0]), r[1], int(r[2]), r[3], r[4]) for r in rows]

    def run_by_key(self, run_key: str) -> Optional[RunRow]:
        """The run landed under *run_key*, if any."""
        row = self._conn.execute(
            "SELECT run_id, run_key, seed, config_fingerprint, command "
            "FROM runs WHERE run_key = ?",
            (run_key,),
        ).fetchone()
        if row is None:
            return None
        return RunRow(int(row[0]), row[1], int(row[2]), row[3], row[4])

    def bronze_counts(self, run_id: int) -> Dict[str, int]:
        """Records counted in bronze per feed for one run (the cursors)."""
        rows = self._conn.execute(
            "SELECT feed, SUM(n_records) FROM bronze WHERE run_id = ? "
            "GROUP BY feed ORDER BY feed",
            (run_id,),
        ).fetchall()
        return {r[0]: int(r[1]) for r in rows}

    def bronze_summary(self) -> List[BronzeSummary]:
        """Records per (feed, status, reason), ordered by that key."""
        rows = self._conn.execute(
            "SELECT feed, status, reason, SUM(n_records) FROM bronze "
            "GROUP BY feed, status, reason ORDER BY feed, status, reason"
        ).fetchall()
        return [BronzeSummary(r[0], r[1], r[2], int(r[3])) for r in rows]

    def silver_rows(
        self,
        feed: Optional[str] = None,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SilverRow]:
        """Silver sightings in landing order, optionally filtered."""
        clauses: List[str] = []
        params: List[object] = []
        if feed is not None:
            clauses.append("feed = ?")
            params.append(feed)
        if since is not None:
            clauses.append("time >= ?")
            params.append(since)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = ""
        if limit is not None:
            tail = " LIMIT ?"
            params.append(limit)
        rows = self._conn.execute(
            "SELECT seq, run_id, feed, domain, time FROM silver"
            + where + " ORDER BY seq" + tail,
            params,
        ).fetchall()
        return [
            SilverRow(int(r[0]), int(r[1]), r[2], r[3], int(r[4]))
            for r in rows
        ]

    def gold_rows(self, feed: Optional[str] = None) -> List[GoldRow]:
        """Gold aggregates ordered by (feed, domain)."""
        if feed is None:
            rows = self._conn.execute(
                "SELECT feed, domain, n_sightings, first_seen, last_seen "
                "FROM gold ORDER BY feed, domain"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT feed, domain, n_sightings, first_seen, last_seen "
                "FROM gold WHERE feed = ? ORDER BY domain",
                (feed,),
            ).fetchall()
        return [
            GoldRow(r[0], r[1], int(r[2]), int(r[3]), int(r[4])) for r in rows
        ]

    def first_seen(self, domain: str) -> List[GoldRow]:
        """Which feeds saw *domain*, ordered by (first_seen, feed)."""
        rows = self._conn.execute(
            "SELECT feed, domain, n_sightings, first_seen, last_seen "
            "FROM gold WHERE domain = ? ORDER BY first_seen, feed",
            (domain,),
        ).fetchall()
        return [
            GoldRow(r[0], r[1], int(r[2]), int(r[3]), int(r[4])) for r in rows
        ]

    def feed_summaries(self) -> List[FeedSummary]:
        """Per-feed gold rollups, ordered by feed."""
        rows = self._conn.execute(
            "SELECT feed, SUM(n_sightings), COUNT(*), MIN(first_seen), "
            "MAX(last_seen) FROM gold GROUP BY feed ORDER BY feed"
        ).fetchall()
        return [
            FeedSummary(r[0], int(r[1]), int(r[2]), int(r[3]), int(r[4]))
            for r in rows
        ]

    def __repr__(self) -> str:
        return f"SqliteBackend({self.path!r})"
