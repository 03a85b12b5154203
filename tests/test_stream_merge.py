"""Unit tests for the stream engine's day slices, prefix statistics and
checkpoints.

The engine's position is one prefix length per feed, found by a bisect
over the feed's time column.  These tests pin the ordering, boundary,
statistics and checkpoint properties of that view on small hand-built
feeds placed on the miniature world's timeline.
"""

import pickle

import pytest

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.io.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.simtime import MINUTES_PER_DAY
from repro.stream import CHECKPOINT_KIND, StreamEngine

RUN_KEY = "config:7"


def _at(world, day, minute=0):
    return world.timeline.start + day * MINUTES_PER_DAY + minute


def _feed(name, records, feed_type=FeedType.MX_HONEYPOT):
    return FeedDataset(name, feed_type, records)


def _engine(world, feeds):
    return StreamEngine(
        world, feeds, seed=7, feed_order=list(feeds), run_key=RUN_KEY
    )


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

    def test_cursors_and_seek_roundtrip(self, small_world, tmp_path):
        feeds = _two_feeds(small_world)
        engine = _engine(small_world, feeds)
        engine.advance_to_day(11)
        path = str(tmp_path / "ck.json")
        engine.save_checkpoint(path)

        fresh = _engine(small_world, feeds)
        fresh.resume(path)
        assert fresh.records_processed == engine.records_processed == 3
        assert fresh.position == engine.position
        assert fresh.snapshot().table1() == engine.snapshot().table1()

        # A drained engine round-trips to drained; an earlier day rewinds.
        engine.run()
        engine.save_checkpoint(path)
        fresh.resume(path)
        assert fresh.exhausted
        engine.advance_to_day(2)
        engine.save_checkpoint(path)
        fresh.resume(path)
        assert fresh.records_processed == 1

    def test_seek_rejects_unknown_feed_and_bad_range(
        self, small_world, tmp_path
    ):
        engine = _engine(small_world, _two_feeds(small_world))
        path = str(tmp_path / "ck.json")
        write_checkpoint(
            path, CHECKPOINT_KIND, {"run_key": "other:7", "day": 1}
        )
        with pytest.raises(CheckpointError, match="belongs to run"):
            engine.resume(path)
        for day in (-1, "3", 1.5, True):
            write_checkpoint(
                path, CHECKPOINT_KIND, {"run_key": RUN_KEY, "day": day}
            )
            with pytest.raises(CheckpointError, match="bad"):
                engine.resume(path)
        assert engine.records_processed == 0

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

    def test_unknown_feed_rejected(self, small_world):
        with pytest.raises(ValueError, match="registered under"):
            StreamEngine(small_world, {"a": _feed("b", [])})

    def test_payload_roundtrip_preserves_everything(
        self, small_world, tmp_path
    ):
        feeds = _two_feeds(small_world)
        engine = _engine(small_world, feeds)
        engine.advance_to_day(13)
        payload = engine.checkpoint_payload()
        assert payload == {"run_key": RUN_KEY, "day": 13}
        path = str(tmp_path / "ck.json")
        engine.save_checkpoint(path)
        assert read_checkpoint(path, CHECKPOINT_KIND) == payload

        fresh = _engine(small_world, feeds)
        fresh.resume(path)
        assert fresh.checkpoint_payload() == payload
        before, after = engine.snapshot(), fresh.snapshot()
        assert after.records_processed == before.records_processed
        assert after.as_of == before.as_of
        assert after.domain_spread() == before.domain_spread()
        for name in feeds:
            mine, theirs = before.datasets[name], after.datasets[name]
            assert mine.unique_domains() == theirs.unique_domains()
            assert mine.first_seen() == theirs.first_seen()
            assert mine.last_seen() == theirs.last_seen()

    def test_bad_payload_rejected(self, small_world, tmp_path):
        engine = _engine(small_world, _two_feeds(small_world))
        path = str(tmp_path / "ck.json")
        for payload in ({}, {"run_key": 7, "day": 1}, {"day": 1}):
            write_checkpoint(path, CHECKPOINT_KIND, payload)
            with pytest.raises(CheckpointError, match="bad"):
                engine.resume(path)
        unkeyed = StreamEngine(small_world, _two_feeds(small_world))
        with pytest.raises(CheckpointError, match="no run key"):
            unkeyed.save_checkpoint(path)


class TestCheckpointIo:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "stream-engine", {"x": [1, 2]})
        assert read_checkpoint(path, "stream-engine") == {"x": [1, 2]}

    def test_kind_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "something-else", {})
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, "stream-engine")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all{{{")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path), "stream-engine")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            '{"format": "repro-checkpoint", "version": 999, '
            '"kind": "stream-engine", "payload": {}}'
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(path), "stream-engine")

    def test_no_partial_file_on_success(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "stream-engine", {"n": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]
