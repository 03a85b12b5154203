"""Cross-module property tests (hypothesis) on core invariants."""

import pickle
import random
import statistics

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timing import _percentile
from repro.ecosystem.entities import DomainPlacement
from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.feeds.capture import capture_placement
from repro.io.serialization import (
    read_feed_jsonl,
    roundtrip_equal,
    write_feed_jsonl,
)
from repro.stats.distributions import EmpiricalDistribution
from repro.stats.kendall import kendall_tau_distributions

_domain = st.from_regex(r"[a-z]{1,8}[0-9]{0,3}\.(com|net|org|biz)",
                        fullmatch=True)


class TestCaptureInvariants:
    @given(
        st.integers(0, 10_000),   # start
        st.integers(30, 50_000),  # duration
        st.floats(1.0, 50_000.0),  # volume
        st.floats(0.0, 1.0),      # exposure
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_records_confined_to_placement(
        self, start, duration, volume, exposure, seed
    ):
        placement = DomainPlacement("x.com", start, start + duration, volume)
        records = capture_placement(
            random.Random(seed), placement, exposure
        )
        for record in records:
            assert placement.start <= record.time < placement.end
            assert record.domain == "x.com"

    @given(
        st.floats(1.0, 10_000.0),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_onset_reduces_or_preserves_expected_count(
        self, volume, exposure, onset, seed
    ):
        placement = DomainPlacement("x.com", 0, 10_000, volume)
        not_before = int(onset * placement.duration)
        full = len(
            capture_placement(random.Random(seed), placement, exposure)
        )
        truncated_records = capture_placement(
            random.Random(seed), placement, exposure, not_before=not_before
        )
        for record in truncated_records:
            assert record.time >= not_before
        del full  # counts are random; confinement is the invariant


class TestDatasetInvariants:
    @given(
        st.lists(
            st.tuples(_domain, st.integers(0, 100_000)),
            max_size=60,
        )
    )
    def test_first_seen_never_after_last_seen(self, raw):
        dataset = FeedDataset(
            "t", FeedType.MX_HONEYPOT,
            [FeedRecord(d, t) for d, t in raw],
        )
        first = dataset.first_seen()
        last = dataset.last_seen()
        assert set(first) == set(last) == dataset.unique_domains()
        for domain in first:
            assert first[domain] <= last[domain]

    @given(
        st.lists(
            st.tuples(_domain, st.integers(0, 100_000)),
            max_size=60,
        )
    )
    def test_counts_sum_to_samples(self, raw):
        dataset = FeedDataset(
            "t", FeedType.MX_HONEYPOT,
            [FeedRecord(d, t) for d, t in raw],
        )
        counts = dataset.domain_counts()
        assert counts.total == dataset.total_samples

    @given(
        st.lists(
            st.tuples(_domain, st.integers(0, 100_000)),
            max_size=40,
        ),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_jsonl_roundtrip(self, raw, has_volume):
        import os
        import tempfile

        dataset = FeedDataset(
            "t", FeedType.BOTNET,
            [FeedRecord(d, t) for d, t in raw],
            has_volume=has_volume,
        )
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            write_feed_jsonl(dataset, path)
            assert roundtrip_equal(dataset, read_feed_jsonl(path))
        finally:
            os.unlink(path)


def _record_loop_stats(pairs):
    """The per-record reference loop for the dataset statistics."""
    counts, first, last = {}, {}, {}
    for domain, t in pairs:
        counts[domain] = counts.get(domain, 0.0) + 1.0
        if domain not in first or t < first[domain]:
            first[domain] = t
        if domain not in last or t > last[domain]:
            last[domain] = t
    return counts, first, last


class TestColumnKernelsMatchRecordLoop:
    """Column kernels reproduce the per-record loop, dict order included."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a.com", "b.net", "c.org", "d.biz"]),
                st.integers(0, 40),
            ),
            max_size=60,
        ),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_statistics_equal_record_loop(self, raw, presorted):
        pairs = sorted(raw, key=lambda p: p[1]) if presorted else raw
        dataset = FeedDataset(
            "t", FeedType.MX_HONEYPOT, [FeedRecord(d, t) for d, t in pairs]
        )
        counts, first, last = _record_loop_stats(pairs)
        assert dataset.total_samples == len(pairs)
        assert dataset.unique_domains() == set(counts)
        assert list(dataset.domain_counts().items()) == list(counts.items())
        assert list(dataset.first_seen().items()) == list(first.items())
        assert list(dataset.last_seen().items()) == list(last.items())

        copy = pickle.loads(pickle.dumps(dataset))
        assert copy.records == dataset.records == [
            FeedRecord(d, t) for d, t in pairs
        ]
        assert copy.packed() == dataset.packed()


class TestRankAgreementInvariants:
    @given(
        st.dictionaries(_domain, st.integers(1, 100), min_size=2,
                        max_size=25),
        st.floats(1.1, 5.0),
    )
    @settings(max_examples=40)
    def test_scaling_preserves_perfect_rank_agreement(self, counts, factor):
        p = EmpiricalDistribution(counts)
        q = EmpiricalDistribution(
            {k: v * factor for k, v in counts.items()}
        )
        # Monotone scaling preserves ranks exactly; tau is 1 unless the
        # distribution carries no rank information (all counts tied).
        tau = kendall_tau_distributions(p, q)
        if len(set(counts.values())) > 1:
            assert tau == 1.0
        else:
            assert tau == 0.0


_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


class TestPercentileInvariants:
    @given(_samples, st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_bounded_by_sample_extremes(self, values, q):
        ordered = sorted(values)
        result = _percentile(ordered, q)
        assert ordered[0] <= result <= ordered[-1]

    @given(_samples, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_monotone_in_q(self, values, q1, q2):
        ordered = sorted(values)
        lo, hi = min(q1, q2), max(q1, q2)
        assert _percentile(ordered, lo) <= _percentile(ordered, hi)

    @given(_samples)
    @settings(max_examples=60)
    def test_endpoints_and_median(self, values):
        ordered = sorted(values)
        assert _percentile(ordered, 0.0) == ordered[0]
        assert _percentile(ordered, 1.0) == ordered[-1]
        assert _percentile(ordered, 0.5) == pytest.approx(
            statistics.median(ordered), rel=1e-9, abs=1e-9
        )

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=60)
    def test_agrees_with_statistics_quantiles(self, values):
        # statistics.quantiles(n=4, method="inclusive") uses the same
        # linear interpolation over the sorted sample.
        ordered = sorted(values)
        q1, q2, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
        def approx(v):
            return pytest.approx(v, rel=1e-9, abs=1e-9)

        assert _percentile(ordered, 0.25) == approx(q1)
        assert _percentile(ordered, 0.50) == approx(q2)
        assert _percentile(ordered, 0.75) == approx(q3)
