"""Unit and property tests for the ``repro.store`` subsystem.

Covers the silver validation gate, idempotent run-keyed landing, gold
merge convergence, SQLite durability across reopen, and -- the central
contract -- agreement between the store and a plain dict fold (the
reference model below) under arbitrary landing scripts.
"""

from __future__ import annotations

import sqlite3
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    FeedSummary,
    GoldRow,
    LandingStats,
    RunWriter,
    SightingStore,
    SqliteBackend,
    StoreError,
    run_key_for,
)
from repro.store.silver import (
    INT64_MAX,
    INT64_MIN,
    REJECT_BAD_TIME,
    REJECT_EMPTY_DOMAIN,
    REJECT_MALFORMED_DOMAIN,
    REJECT_TIME_RANGE,
    validate_sighting,
)


class TestSilverValidation:
    def test_accepts_plain_sighting(self):
        assert validate_sighting("pills.example.com", 1234) is None

    def test_accepts_extreme_but_storable_times(self):
        assert validate_sighting("a.com", INT64_MIN) is None
        assert validate_sighting("a.com", INT64_MAX) is None

    @pytest.mark.parametrize(
        "domain,reason",
        [
            ("", REJECT_EMPTY_DOMAIN),
            (None, REJECT_EMPTY_DOMAIN),
            (5, REJECT_MALFORMED_DOMAIN),
            ("has space.com", REJECT_MALFORMED_DOMAIN),
            ("line\nbreak.com", REJECT_MALFORMED_DOMAIN),
            ("tab\there.com", REJECT_MALFORMED_DOMAIN),
        ],
    )
    def test_rejects_unstorable_domains(self, domain, reason):
        assert validate_sighting(domain, 1) == reason

    @pytest.mark.parametrize(
        "time,reason",
        [
            (None, REJECT_BAD_TIME),
            (True, REJECT_BAD_TIME),
            (1.5, REJECT_BAD_TIME),
            ("7", REJECT_BAD_TIME),
            (INT64_MAX + 1, REJECT_TIME_RANGE),
            (INT64_MIN - 1, REJECT_TIME_RANGE),
        ],
    )
    def test_rejects_unstorable_times(self, time, reason):
        assert validate_sighting("a.com", time) == reason


class TestRunWriter:
    def _writer(self, store):
        return store.open_run(run_key_for("cfg", 7), 7, "cfg", "test")

    def test_landing_splits_tiers(self):
        store = SightingStore.in_memory()
        writer = self._writer(store)
        stats = writer.land_sightings(
            "mx1", ["a.com", "bad domain", "a.com"], [10, 11, 5]
        )
        assert (stats.bronze, stats.silver, stats.rejected) == (3, 2, 1)
        (gold,) = store.gold_rows("mx1")
        assert (gold.domain, gold.n_sightings) == ("a.com", 2)
        assert (gold.first_seen, gold.last_seen) == (5, 10)
        # the reject is provenance, never an aggregate
        (summary,) = [b for b in store.bronze_summary() if b.count == 1]
        assert summary.status == "rejected"

    def test_reland_same_run_is_a_noop(self):
        store = SightingStore.in_memory()
        records = (["a.com", "b.com"], [10, 20])
        self._writer(store).land_sightings("mx1", *records)
        stats = self._writer(store).land_sightings("mx1", *records)
        assert stats == LandingStats(bronze=0, silver=0, rejected=0, skipped=2)
        assert len(store.sightings()) == 2
        (gold_a, gold_b) = store.gold_rows("mx1")
        assert gold_a.n_sightings == gold_b.n_sightings == 1

    def test_reland_extends_past_landed_prefix(self):
        store = SightingStore.in_memory()
        self._writer(store).land_sightings("mx1", ["a.com"], [10])
        stats = self._writer(store).land_sightings(
            "mx1", ["a.com", "b.com"], [10, 20]
        )
        assert (stats.skipped, stats.bronze) == (1, 1)
        assert [row.domain for row in store.sightings()] == ["a.com", "b.com"]

    def test_start_offsets_the_offered_columns(self):
        store = SightingStore.in_memory()
        self._writer(store).land_sightings("mx1", ["a.com"], [10])
        # a resumed caller offers only the suffix and declares where
        # that suffix starts; nothing is skipped, nothing duplicated
        writer = self._writer(store)
        stats = writer.land_sightings("mx1", ["b.com"], [20], start=1)
        assert (stats.skipped, stats.bronze) == (0, 1)
        assert len(store.sightings()) == 2
        # a slice that overlaps the landed prefix lands only its tail
        stats = writer.land_sightings(
            "mx1", ["b.com", "c.com"], [20, 30], start=1
        )
        assert (stats.skipped, stats.bronze) == (1, 1)
        assert [row.domain for row in store.sightings()] == [
            "a.com",
            "b.com",
            "c.com",
        ]

    def test_start_rejects_negative(self):
        store = SightingStore.in_memory()
        with pytest.raises(ValueError):
            self._writer(store).land_sightings("mx1", [], [], start=-1)

    def test_start_past_the_cursor_is_refused(self):
        store = SightingStore.in_memory()
        writer = self._writer(store)
        writer.land_sightings("mx1", ["a.com"], [10])
        # landing from record 2 would silently lose record 1
        with pytest.raises(ValueError, match="unlanded"):
            writer.land_sightings("mx1", ["c.com"], [30], start=2)
        assert writer.cursor("mx1") == 1
        assert len(store.sightings()) == 1

    def test_columns_must_align(self):
        store = SightingStore.in_memory()
        with pytest.raises(ValueError):
            self._writer(store).land_sightings("mx1", ["a.com"], [1, 2])

    def test_reland_of_landed_int64_feed_never_touches_domains(self):
        class Untouchable:
            """A domain column that only knows its length."""

            def __init__(self, n):
                self.n = n

            def __len__(self):
                return self.n

            def __getitem__(self, index):
                raise AssertionError("domain column was indexed")

            def __iter__(self):
                raise AssertionError("domain column was iterated")

        store = SightingStore.in_memory()
        domains = ["a.com", "b.com", "a.com"]
        times = array("q", [1, 2, 3])
        self._writer(store).land_sightings("mx1", domains, times)
        writer = self._writer(store)
        stats = writer.land_sightings("mx1", Untouchable(3), times)
        assert stats == LandingStats(bronze=0, silver=0, rejected=0, skipped=3)
        stats = writer.land_sightings(
            "mx1", Untouchable(2), times[1:], start=1
        )
        assert stats.skipped == 2
        assert len(store.sightings()) == 3

    def test_column_landing_counts_bronze(self):
        store = SightingStore.in_memory()
        writer = self._writer(store)
        writer.land_sightings(
            "mx1",
            ["a.com", "bad domain", "", "b.com", "bad domain"],
            [1, 2, 3, 2**63, 5],
        )
        writer.land_sightings("mx2", ["c.com"], [7])
        rows = store.backend._conn.execute(
            "SELECT feed, status, reason, n_records FROM bronze "
            "ORDER BY seq"
        ).fetchall()
        # one counted row per (landing call, status, reason)
        assert rows == [
            ("mx1", "ok", "", 1),
            ("mx1", "rejected", "empty_domain", 1),
            ("mx1", "rejected", "malformed_domain", 2),
            ("mx1", "rejected", "time_out_of_range", 1),
            ("mx2", "ok", "", 1),
        ]
        assert writer.cursor("mx1") == 5
        assert writer.cursor("mx2") == 1

    def test_distinct_run_keys_land_independently(self):
        store = SightingStore.in_memory()
        store.open_run("k1", 7, "cfg", "run").land_sightings(
            "mx1", ["a.com"], [10]
        )
        store.open_run("k2", 11, "cfg", "run").land_sightings(
            "mx1", ["a.com"], [10]
        )
        assert len(store.runs()) == 2
        (gold,) = store.gold_rows("mx1")
        assert gold.n_sightings == 2  # gold aggregates across runs

    def test_gold_merge_is_batching_invariant(self):
        records = [("a.com", 30), ("b.com", 5), ("a.com", 10), ("a.com", 20)]
        one_shot = SightingStore.in_memory()
        domains, times = zip(*records)
        self._writer(one_shot).land_sightings("mx1", domains, times)
        trickle = SightingStore.in_memory()
        writer = self._writer(trickle)
        for position, (domain, time) in enumerate(records):
            writer.land_sightings("mx1", [domain], [time], start=position)
        assert one_shot.gold_rows() == trickle.gold_rows()
        assert one_shot.sightings() == trickle.sightings()


class TestSqliteDurability:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with SightingStore.open(path) as store:
            writer = store.open_run("k", 7, "cfg", "run")
            writer.land_sightings("mx1", ["a.com", "b.com"], [10, 20])
            writer.finish()
        with SightingStore.open(path) as store:
            assert [row.domain for row in store.sightings()] == [
                "a.com",
                "b.com",
            ]
            writer = store.open_run("k", 7, "cfg", "run")
            assert not writer.created
            assert writer.cursor("mx1") == 2

    def test_refuses_foreign_sqlite_file(self, tmp_path):
        path = str(tmp_path / "foreign.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            SightingStore.open(path)

    def test_refuses_non_sqlite_file(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_text("this is not a database")
        with pytest.raises(StoreError):
            SightingStore.open(str(path))


# ----------------------------------------------------------------------
# Property: the store agrees with a dict fold of its contract
# ----------------------------------------------------------------------


class _ReferenceStore:
    """The store's contract as a plain per-record dict fold.

    Every record is validated on its own with ``validate_sighting``;
    a run position below the run's per-feed cursor is skipped; gold
    folds (sum, min, max) one record at a time.  None of the store's
    shortcuts (per-distinct-domain validation, the int64 time skip,
    counted bronze, SQL-derived gold) appear here.
    """

    def __init__(self) -> None:
        self.runs: dict = {}  # run_key -> run_id
        self.cursors: dict = {}  # (run_id, feed) -> records landed
        self.bronze: Counter = Counter()  # (feed, status, reason) -> n
        self.silver: list = []  # (run_id, feed, domain, time)
        self.gold: dict = {}  # (feed, domain) -> [n, first, last]

    def cursor(self, run_key, feed):
        return self.cursors.get((self.runs.get(run_key), feed), 0)

    def land(self, run_key, feed, domains, times, start):
        run_id = self.runs.setdefault(run_key, len(self.runs) + 1)
        cursor = self.cursors.get((run_id, feed), 0)
        if start > cursor:
            return None  # refused: it would leave a hole
        bronze = silver = rejected = skipped = 0
        for position, (domain, time) in enumerate(zip(domains, times), start):
            if position < cursor:
                skipped += 1
                continue
            bronze += 1
            reason = validate_sighting(domain, time)
            if reason is not None:
                rejected += 1
                self.bronze[(feed, "rejected", reason)] += 1
                continue
            silver += 1
            self.bronze[(feed, "ok", "")] += 1
            self.silver.append((run_id, feed, domain, time))
            cell = self.gold.setdefault((feed, domain), [0, time, time])
            cell[0] += 1
            cell[1] = min(cell[1], time)
            cell[2] = max(cell[2], time)
        self.cursors[(run_id, feed)] = max(cursor, start + len(domains))
        return LandingStats(bronze, silver, rejected, skipped)

    def observe(self):
        gold = [GoldRow(f, d, *self.gold[(f, d)]) for f, d in sorted(self.gold)]
        feeds = sorted({row.feed for row in gold})
        summaries = []
        for feed in feeds:
            rows = [row for row in gold if row.feed == feed]
            summaries.append(
                FeedSummary(
                    feed,
                    sum(row.n_sightings for row in rows),
                    len(rows),
                    min(row.first_seen for row in rows),
                    max(row.last_seen for row in rows),
                )
            )
        return (
            sorted((run_id, key) for key, run_id in self.runs.items()),
            gold,
            summaries,
            [
                (feed, status, reason, self.bronze[(feed, status, reason)])
                for feed, status, reason in sorted(self.bronze)
            ],
            [(seq, *row) for seq, row in enumerate(self.silver, 1)],
            {
                domain: sorted(
                    (row for row in gold if row.domain == domain),
                    key=lambda row: (row.first_seen, row.feed),
                )
                for domain in _DOMAIN_POOL + ["nowhere.example"]
            },
        )


def _observe(store: SightingStore):
    """Everything a reader can see, as one comparable value."""
    return (
        [(r.run_id, r.run_key) for r in store.runs()],
        store.gold_rows(),
        store.feed_summaries(),
        [tuple(row) for row in store.bronze_summary()],
        [tuple(row) for row in store.sightings()],
        {
            domain: store.first_seen(domain)
            for domain in _DOMAIN_POOL + ["nowhere.example"]
        },
    )


_DOMAIN_POOL = ["a.com", "b.net", "c.org", "bad domain", "d.biz", "", "x\ny.io"]
_DOMAINS = st.sampled_from(_DOMAIN_POOL)
_TIMES = st.integers(min_value=-(2**63) - 2, max_value=2**63 + 2)
_FEEDS = st.sampled_from(["mx1", "mx2", "hum"])
_BATCH = st.lists(st.tuples(_DOMAINS, _TIMES), max_size=8)
#: One landing: run key, feed, records, where the slice starts
#: relative to the landed cursor (negative: overlap the landed prefix;
#: positive: a hole the writer must refuse), and whether to pass the
#: times as an ``array("q")`` when they all fit.
_STEP = st.tuples(
    st.sampled_from(["k1", "k2"]),
    _FEEDS,
    _BATCH,
    st.integers(min_value=-6, max_value=1),
    st.booleans(),
)
_SCRIPT = st.lists(_STEP, max_size=12)


def _columns(batch, as_array):
    domains = [domain for domain, _ in batch]
    times = [time for _, time in batch]
    if as_array and all(INT64_MIN <= t <= INT64_MAX for t in times):
        return domains, array("q", times)
    return domains, times


class TestReferenceModel:
    @settings(max_examples=80, deadline=None)
    @given(script=_SCRIPT)
    def test_readers_and_stats_match_dict_fold(self, script):
        model = _ReferenceStore()
        store = SightingStore.in_memory()
        try:
            for run_key, feed, batch, offset, as_array in script:
                start = max(0, model.cursor(run_key, feed) + offset)
                domains, times = _columns(batch, as_array)
                expected = model.land(run_key, feed, domains, times, start)
                writer = store.open_run(run_key, 7, "cfg", "test")
                if expected is None:
                    with pytest.raises(ValueError):
                        writer.land_sightings(feed, domains, times, start)
                else:
                    got = writer.land_sightings(feed, domains, times, start)
                    assert got == expected
                    assert writer.cursor(feed) == model.cursor(run_key, feed)
                writer.finish()
            assert _observe(store) == model.observe()
        finally:
            store.close()

    @settings(max_examples=30, deadline=None)
    @given(batch=_BATCH, as_array=st.booleans())
    def test_first_landing_counts_every_record(self, batch, as_array):
        model = _ReferenceStore()
        store = SightingStore.in_memory()
        try:
            domains, times = _columns(batch, as_array)
            stats = store.open_run("k", 7, "cfg", "test").land_sightings(
                "mx1", domains, times
            )
            assert stats == model.land("k", "mx1", domains, times, 0)
            assert stats.bronze == len(batch)
            assert sum(row.count for row in store.bronze_summary()) == len(
                batch
            )
        finally:
            store.close()


class TestRunWriterSurface:
    def test_run_key_format(self):
        assert run_key_for("abc", 2012) == "abc:2012"

    def test_in_memory_is_a_sqlite_memory_database(self):
        store = SightingStore.in_memory()
        assert isinstance(store.backend, SqliteBackend)
        assert store.backend.path == ":memory:"

    def test_open_gives_sqlite_backend(self, tmp_path):
        store = SightingStore.open(str(tmp_path / "s.sqlite"))
        try:
            assert isinstance(store.backend, SqliteBackend)
        finally:
            store.close()

    def test_writer_type_round_trip(self):
        store = SightingStore.in_memory()
        writer = store.open_run("k", 7, "cfg", "test")
        assert isinstance(writer, RunWriter)
        assert writer.created
        assert not store.open_run("k", 7, "cfg", "test").created
