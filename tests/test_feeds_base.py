"""Unit tests for the feed data model."""

import pytest

from repro.feeds.base import FeedDataset, FeedRecord, FeedType


def make_dataset(records, name="test", feed_type=FeedType.MX_HONEYPOT,
                 has_volume=True):
    return FeedDataset(name, feed_type, records, has_volume)


SAMPLE = [
    FeedRecord("a.com", 10),
    FeedRecord("b.com", 5),
    FeedRecord("a.com", 30),
    FeedRecord("c.com", 20),
    FeedRecord("a.com", 20),
]


class TestBasics:
    def test_total_samples(self):
        assert make_dataset(SAMPLE).total_samples == 5

    def test_unique_domains(self):
        ds = make_dataset(SAMPLE)
        assert ds.unique_domains() == {"a.com", "b.com", "c.com"}
        assert ds.n_unique == 3

    def test_len(self):
        assert len(make_dataset(SAMPLE)) == 5

    def test_repr_mentions_name_and_counts(self):
        text = repr(make_dataset(SAMPLE, name="mx9"))
        assert "mx9" in text
        assert "samples=5" in text

    def test_empty_dataset(self):
        ds = make_dataset([])
        assert ds.total_samples == 0
        assert ds.n_unique == 0
        assert ds.first_seen() == {}


class TestVolumeView:
    def test_domain_counts(self):
        counts = make_dataset(SAMPLE).domain_counts()
        assert counts.count("a.com") == 3
        assert counts.count("b.com") == 1
        assert counts.probability("a.com") == 0.6

    def test_counts_cached(self):
        ds = make_dataset(SAMPLE)
        assert ds.domain_counts() is ds.domain_counts()


class TestTimingView:
    def test_first_seen(self):
        first = make_dataset(SAMPLE).first_seen()
        assert first["a.com"] == 10
        assert first["b.com"] == 5

    def test_last_seen(self):
        last = make_dataset(SAMPLE).last_seen()
        assert last["a.com"] == 30
        assert last["c.com"] == 20


class TestFeedTypes:
    def test_five_paper_categories_plus_hybrid(self):
        values = {t.value for t in FeedType}
        assert values == {
            "human_identified", "blacklist", "mx_honeypot",
            "honey_account", "botnet", "hybrid",
        }


class TestFinalize:
    def test_finalize_drops_out_of_window_and_sorts(self, small_world):
        from repro.feeds.base import FeedCollector
        from repro.io.columns import ColumnBuilder

        class Dummy(FeedCollector):
            name = "dummy"
            feed_type = FeedType.MX_HONEYPOT
            has_volume = False

            def collect(self, world):
                builder = ColumnBuilder()
                builder.append("a.com", -5)
                builder.append("b.com", 50)
                builder.append("c.com", world.timeline.end + 10)
                builder.append("d.com", 10)
                builder.append("e.com", world.timeline.end - 1)
                builder.append("g.com", world.timeline.end)
                builder.append("f.com", 10)
                return self._finalize(world, builder)

        ds = Dummy().collect(small_world)
        end = small_world.timeline.end
        # [start, end): the end minute is out; ties keep builder order.
        assert ds.records == [
            FeedRecord("d.com", 10),
            FeedRecord("f.com", 10),
            FeedRecord("b.com", 50),
            FeedRecord("e.com", end - 1),
        ]
        assert (ds.name, ds.feed_type, ds.has_volume) == (
            "dummy", FeedType.MX_HONEYPOT, False
        )
