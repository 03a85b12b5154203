"""Unit tests for the stream engine's day slices and prefix statistics.

The engine's position is one prefix length per feed, found by a bisect
over the feed's time column.  These tests pin the ordering, boundary,
repositioning and statistics properties of that view on small
hand-built feeds placed on the miniature world's timeline.
"""

import pickle

import pytest

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.simtime import MINUTES_PER_DAY
from repro.stream import StreamEngine


def _at(world, day, minute=0):
    return world.timeline.start + day * MINUTES_PER_DAY + minute


def _feed(name, records, feed_type=FeedType.MX_HONEYPOT):
    return FeedDataset(name, feed_type, records)


def _engine(world, feeds):
    return StreamEngine(world, feeds, seed=7, feed_order=list(feeds))


def _two_feeds(world):
    return {
        "a": _feed(
            "a", [FeedRecord(f"a{d}.com", _at(world, d)) for d in (5, 10, 20)]
        ),
        "b": _feed(
            "b",
            [FeedRecord(f"b{d}.com", _at(world, d)) for d in (1, 12)],
            FeedType.BLACKLIST,
        ),
    }


class TestRecordStream:
    """Ordering and position of the engine's day slices across feeds."""

    def test_time_ordered_interleave(self, small_world):
        feeds = _two_feeds(small_world)
        engine = _engine(small_world, feeds)
        times = sorted(r.time for ds in feeds.values() for r in ds.records)
        for day in range(22):
            engine.advance_to_day(day)
            before = [t for t in times if t < _at(small_world, day)]
            assert engine.records_processed == len(before)
            assert engine.position == (before[-1] if before else None)

    def test_tie_broken_by_source_registration_order(self, small_world):
        same = _at(small_world, 3)
        engine = _engine(
            small_world,
            {
                "b": _feed("b", [FeedRecord("y.com", same)]),
                "a": _feed("a", [FeedRecord("x.com", same)]),
            },
        )
        engine.advance_to_day(4)
        assert list(engine.snapshot().datasets) == ["b", "a"]

    def test_until_time_is_exclusive(self, small_world):
        boundary = _at(small_world, 2)
        engine = _engine(
            small_world,
            {
                "a": _feed(
                    "a",
                    [
                        FeedRecord("a.com", boundary - 1),
                        FeedRecord("b.com", boundary),
                        FeedRecord("c.com", boundary + 1),
                    ],
                )
            },
        )
        engine.advance_to_day(2)
        assert engine.records_processed == 1
        assert engine.position == boundary - 1
        assert not engine.exhausted
        assert engine.snapshot().datasets["a"].unique_domains() == {"a.com"}

    def test_rewind_matches_fresh_engine(self, small_world):
        feeds = _two_feeds(small_world)
        engine = _engine(small_world, feeds)
        engine.advance_to_day(46)
        assert engine.exhausted
        engine.advance_to_day(11)

        fresh = _engine(small_world, feeds)
        fresh.advance_to_day(11)
        assert fresh.records_processed == engine.records_processed == 3
        assert fresh.position == engine.position
        assert fresh.snapshot().table1() == engine.snapshot().table1()

        # A drained engine rewinds too, all the way to an earlier day.
        engine.run()
        assert engine.exhausted
        engine.advance_to_day(2)
        assert engine.records_processed == 1
        assert not engine.exhausted

    def test_empty_sources_rejected(self, small_world):
        with pytest.raises(ValueError):
            StreamEngine(small_world, {})

    def test_exhaustion(self, small_world):
        engine = _engine(
            small_world,
            {"a": _feed("a", [FeedRecord("x.com", _at(small_world, 0))])},
        )
        assert not engine.exhausted
        assert engine.run() == 1
        assert engine.exhausted
        assert engine.run() == 0

    def test_engine_time_sorts_unsorted_dataset(self, small_world):
        dataset = FeedDataset(
            "x", FeedType.BOTNET,
            [
                FeedRecord("b.com", 9),
                FeedRecord("c.com", 2),
                FeedRecord("a.com", 2),
            ],
        )
        for source in (dataset, pickle.loads(pickle.dumps(dataset))):
            engine = _engine(small_world, {"x": source})
            engine.run()
            prefix = engine.snapshot().datasets["x"]
            # A stable time sort: same-minute sightings keep record order.
            assert prefix.records == [
                FeedRecord("c.com", 2),
                FeedRecord("a.com", 2),
                FeedRecord("b.com", 9),
            ]
            assert list(prefix.first_seen()) == ["c.com", "a.com", "b.com"]
            assert engine.position == 9
        # The dataset itself is untouched.
        assert [r.time for r in dataset.records] == [9, 2, 2]


class TestStreamState:
    """Statistics of as-of-day prefixes and cross-feed domain counts."""

    def test_accumulator_matches_dataset_statistics(self, small_world):
        records = [
            FeedRecord("y.com", _at(small_world, 0, 5)),
            FeedRecord("x.com", _at(small_world, 1)),
            FeedRecord("y.com", _at(small_world, 1, 7)),
            FeedRecord("x.com", _at(small_world, 2)),
            FeedRecord("z.com", _at(small_world, 3)),
            FeedRecord("x.com", _at(small_world, 3, 1)),
        ]
        engine = _engine(small_world, {"a": _feed("a", records)})
        for day in range(5):
            engine.advance_to_day(day)
            prefix = engine.snapshot().datasets["a"]
            boundary = _at(small_world, day)
            expected = _feed("a", [r for r in records if r.time < boundary])
            assert prefix.total_samples == expected.total_samples
            assert prefix.unique_domains() == expected.unique_domains()
            # Dict orders too: downstream iteration depends on them.
            for view in ("first_seen", "last_seen"):
                assert list(getattr(prefix, view)().items()) == list(
                    getattr(expected, view)().items()
                )
            assert list(prefix.domain_counts().items()) == list(
                expected.domain_counts().items()
            )

    def test_exclusive_tracking(self, small_world):
        engine = _engine(
            small_world,
            {
                "a": _feed(
                    "a",
                    [
                        FeedRecord("only-a.com", _at(small_world, 1)),
                        FeedRecord("shared.com", _at(small_world, 3)),
                    ],
                ),
                "b": _feed(
                    "b", [FeedRecord("shared.com", _at(small_world, 2))]
                ),
            },
        )
        engine.advance_to_day(3)
        assert engine.snapshot().domain_spread() == (2, 2)
        engine.advance_to_day(4)
        assert engine.snapshot().domain_spread() == (2, 1)

    def test_repeat_sightings_do_not_change_cross_feed_counters(
        self, small_world
    ):
        engine = _engine(
            small_world,
            {
                "a": _feed(
                    "a",
                    [FeedRecord("x.com", _at(small_world, d)) for d in (1, 2, 3)],
                )
            },
        )
        engine.run()
        snapshot = engine.snapshot()
        assert snapshot.domain_spread() == (1, 1)
        assert snapshot.datasets["a"].total_samples == 3
        assert snapshot.datasets["a"].n_unique == 1

    def test_rewound_snapshot_matches_fresh_engine(self, small_world):
        feeds = _two_feeds(small_world)
        engine = _engine(small_world, feeds)
        engine.run()
        engine.advance_to_day(13)

        fresh = _engine(small_world, feeds)
        fresh.advance_to_day(13)
        before, after = engine.snapshot(), fresh.snapshot()
        assert after.records_processed == before.records_processed == 4
        assert after.as_of == before.as_of
        assert after.domain_spread() == before.domain_spread()
        for name in feeds:
            mine, theirs = before.datasets[name], after.datasets[name]
            assert mine.unique_domains() == theirs.unique_domains()
            assert mine.first_seen() == theirs.first_seen()
            assert mine.last_seen() == theirs.last_seen()

    def test_unknown_feed_rejected(self, small_world):
        with pytest.raises(ValueError, match="registered under"):
            StreamEngine(small_world, {"a": _feed("b", [])})
