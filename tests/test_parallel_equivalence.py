"""Byte-equivalence of parallel execution at any worker count.

The determinism contract of :mod:`repro.parallel`: worker count is
pure execution width.  Every test here compares an in-process
(width-1) run against forked pools and requires *identical* values --
not statistically similar, identical -- including dict insertion
orders, which downstream analyses iterate.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

import pytest

from repro.ecosystem import build_world, paper_config, small_config
from repro.feeds import CollectState, collect_all, standard_feed_suite
from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.io.artifacts import ArtifactCache
from repro.parallel import WorkerPool, fork_available, resolve_jobs
from repro.pipeline import PaperPipeline
from repro.pipeline.runner import _render_task

EQUIVALENCE_SEEDS = (7, 11)

#: The pool contract is pinned at every seed the paper artifacts use.
POOL_SEEDS = (7, 11, 2012)


def _square(state, x):
    return x * x


def _apply(state, k):
    return state["fn"](k)


def _count(state, i):
    from repro import obs

    obs.add("test.sightings", i + 1)
    obs.add("test.floaty", 0.5)
    return i


# ----------------------------------------------------------------------
# The ordered fan-out contract, at every pool width
# ----------------------------------------------------------------------


class TestOrderedFanout:
    def test_serial_matches_list_comprehension(self):
        with WorkerPool(1) as pool:
            assert pool.run_batch(_square, list(range(8))) == [
                i * i for i in range(8)
            ]

    def test_parallel_preserves_task_order(self):
        with WorkerPool(4) as pool:
            assert pool.run_batch(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_closures_cross_the_fork(self):
        # Pool state is inherited through the fork, never pickled, so
        # it may hold closures a pickle could not carry.
        payload = {"nested": [1, 2, 3]}
        state = {"fn": lambda k: (k, payload["nested"][k])}
        with WorkerPool(3, state) as pool:
            assert pool.forked
            assert pool.run_batch(_apply, [0, 1, 2]) == [
                (0, 1), (1, 2), (2, 3),
            ]

    def test_empty_task_list(self):
        for width in (1, 4):
            with WorkerPool(width) as pool:
                assert pool.run_batch(_square, []) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # all cores
        assert resolve_jobs(-1) >= 1

    def test_fork_available_on_this_platform(self):
        # The CI/test platform is Linux; the parallel paths below all
        # assume this returns True there.
        assert fork_available()

    def test_worker_counters_fold_back_into_parent(self):
        # Regression: counters incremented inside forked workers died
        # with the worker process, so a parallel run under-reported
        # everything its tasks counted (cache hits, truncated records,
        # store landings).  Workers now ship per-task deltas.
        from repro import obs

        snapshots = []
        for width in (1, 3):
            tracer = obs.Tracer()
            with obs.activate(tracer):
                with WorkerPool(width) as pool:
                    pool.run_batch(_count, list(range(6)))
            snapshots.append(tracer.metrics)
        serial, parallel = snapshots
        for name in ("test.sightings", "test.floaty"):
            s = serial.counter(name)
            p = parallel.counter(name)
            assert s == p
            assert type(s) is type(p)  # ints stay ints across the fork


# ----------------------------------------------------------------------
# Datasets serve per-record statistics from their columns
# ----------------------------------------------------------------------


def _record_loop_stats(records):
    """The per-record reference: counts and first/last sightings in
    first-appearance order, as a straight loop over the records."""
    counts, first, last = {}, {}, {}
    for domain, t in records:
        counts[domain] = counts.get(domain, 0.0) + 1.0
        if domain not in first or t < first[domain]:
            first[domain] = t
        if domain not in last or t > last[domain]:
            last[domain] = t
    return counts, first, last


class TestColumnarDataset:
    def build(self):
        records = [
            FeedRecord("b.com", 5),
            FeedRecord("a.com", 10),
            FeedRecord("b.com", 12),
            FeedRecord("c.com", 12),
            FeedRecord("a.com", 3),
        ]
        return FeedDataset("x", FeedType.MX_HONEYPOT, records)

    def test_round_trip_preserves_everything(self):
        original = self.build()
        counts, first, last = _record_loop_stats(original.records)
        copies = (
            FeedDataset.from_packed(original.packed()),
            FeedDataset.from_block(
                "x", FeedType.MX_HONEYPOT, True, original.block
            ),
        )
        for copy in (original,) + copies:
            assert copy.records == original.records
            assert copy.name == original.name
            assert copy.feed_type is original.feed_type
            assert copy.has_volume == original.has_volume
            assert len(copy) == len(original) == 5
            assert copy.total_samples == 5
            assert copy.unique_domains() == set(counts)
            # Insertion order matters: analyses iterate these dicts.
            assert list(copy.domain_counts().items()) == list(counts.items())
            assert list(copy.first_seen().items()) == list(first.items())
            assert list(copy.last_seen().items()) == list(last.items())

    def test_stats_served_without_materializing_records(self):
        dataset = FeedDataset.from_packed(self.build().packed())
        assert dataset.n_unique == 3
        assert dataset.total_samples == 5
        assert dataset.first_seen()["a.com"] == 3
        assert dataset._records is None

    def test_column_length_mismatch_rejected(self):
        packed = self.build().packed()
        with pytest.raises(ValueError):
            FeedDataset.from_packed(packed._replace(n_records=4))

    def test_pickles_as_packed_columns(self):
        # How a dataset crosses a process boundary: packed columns in,
        # a dataset with identical statistics out.
        original = self.build()
        assert original.__reduce__() == (
            FeedDataset.from_packed, (original.packed(),)
        )
        copy = pickle.loads(pickle.dumps(original))
        assert isinstance(copy, FeedDataset)
        assert copy.packed() == original.packed()
        assert copy.records == original.records


# ----------------------------------------------------------------------
# Feed collection: in-process vs. forked pools
# ----------------------------------------------------------------------


def assert_same_datasets(reference, other, context):
    assert list(other) == list(reference)  # feed order preserved
    for name in reference:
        a, b = reference[name], other[name]
        assert b.records == a.records, (context, name)
        assert list(b.first_seen().items()) == list(a.first_seen().items())
        assert list(b.last_seen().items()) == list(a.last_seen().items())
        assert b.feed_type is a.feed_type
        assert b.has_volume == a.has_volume
        # The packed wire format is the byte-level contract.
        assert b.packed() == a.packed(), (context, name)


def collect_on_pool(world, seed, width):
    collectors = standard_feed_suite(seed)
    with WorkerPool(width, CollectState(world, collectors)) as pool:
        assert pool.forked == (width > 1)
        return collect_all(world, collectors, pool=pool)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_collect_all_byte_identical_across_jobs(seed):
    world = build_world(small_config(), seed=seed)
    serial = collect_all(world, standard_feed_suite(seed))
    for width in (1, 2, 4):
        assert_same_datasets(
            serial, collect_on_pool(world, seed, width), (seed, width)
        )


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_collect_matches_serial_and_legacy_fanout(seed):
    """An explicit pool and the pipeline's ``jobs`` width both match serial.

    ``collect_all(jobs=)`` was the old fan-out entry point; its
    successor is the pipeline's ``jobs`` knob, which opens the run's
    pool itself, so that route is held to the same packed bytes.
    """
    world = build_world(small_config(), seed=seed)
    serial = collect_all(world, standard_feed_suite(seed))
    with PaperPipeline(small_config(), seed=seed, jobs=2) as pipeline:
        legacy = pipeline.run().datasets
        assert pipeline._pool is not None and pipeline._pool.forked
    pooled = collect_on_pool(world, seed, 2)
    assert list(pooled) == list(serial) == list(legacy)
    for name in serial:
        s, f, p = serial[name], legacy[name], pooled[name]
        assert p.records == s.records == f.records, (seed, name)
        assert list(p.first_seen().items()) == list(s.first_seen().items())
        assert list(p.last_seen().items()) == list(s.last_seen().items())
        # The packed wire format is the byte-level contract.
        assert p.packed() == s.packed() == f.packed()


def test_paper_scale_collect_parallel_matches_serial(paper_pipeline):
    """Seed 2012 at paper scale: forked collection changes nothing."""
    result = paper_pipeline.run()
    for width in (2, 4):
        assert_same_datasets(
            result.datasets,
            collect_on_pool(result.world, 2012, width),
            (2012, width),
        )


def test_collect_all_rejects_a_pool_over_another_world():
    world = build_world(small_config(), seed=7)
    other = build_world(small_config(), seed=11)
    collectors = standard_feed_suite(7)
    with WorkerPool(1, CollectState(other, collectors)) as pool:
        with pytest.raises(ValueError, match="world"):
            collect_all(world, collectors, pool=pool)


def test_concurrent_cold_builds_keep_their_own_world(monkeypatch):
    """Two cold ``jobs=2`` builds in one process (serve builds one per
    ``?seed=``) each collect their own world.  Both threads are held
    just before pool construction, so the forks interleave."""
    from repro.pipeline import runner

    barrier = threading.Barrier(2, timeout=120)
    real_pool = runner.WorkerPool

    class GatedPool(real_pool):
        def __init__(self, width, *args, **kwargs):
            if width > 1:
                barrier.wait()
            super().__init__(width, *args, **kwargs)

    monkeypatch.setattr(runner, "WorkerPool", GatedPool)
    packed = {}
    errors = []

    def build(seed):
        try:
            with PaperPipeline(small_config(), seed=seed, jobs=2) as pipeline:
                datasets = pipeline.run().datasets
                packed[seed] = [datasets[n].packed() for n in datasets]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=build, args=(s,)) for s in (7, 11)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert not errors, errors
    for seed in (7, 11):
        world = build_world(small_config(), seed=seed)
        serial = collect_all(world, standard_feed_suite(seed))
        assert packed[seed] == [serial[n].packed() for n in serial], seed


# ----------------------------------------------------------------------
# Rendering: in-process vs. forked pools
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_pipeline_render_matches_serial(seed):
    serial = PaperPipeline(small_config(), seed=seed).render_all()
    with PaperPipeline(small_config(), seed=seed, jobs=2) as pipeline:
        pooled = pipeline.render_all()
        # The pool really carried both stages: forked once at run(),
        # still alive after render.
        assert pipeline._pool is not None
        assert pipeline._pool.forked
        assert not pipeline._pool.closed
    assert pooled == serial


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_render_all_byte_identical_across_jobs(seed):
    serial = PaperPipeline(small_config(), seed=seed).render_all()
    for jobs in (2, 4):
        text = PaperPipeline(
            small_config(), seed=seed, jobs=jobs
        ).render_all()
        assert text == serial, f"seed={seed} jobs={jobs}"


def test_paper_scale_render_parallel_matches_serial(paper_pipeline):
    """Seed 2012 at paper scale: the fan-out changes nothing.

    The pipelines adopt the paper_pipeline fixture's result, so their pools
    fork lazily at render time -- the state-cache-hit path.
    """
    serial = paper_pipeline.render_all()
    for jobs in (2, 4):
        with PaperPipeline(paper_config(), seed=2012, jobs=jobs) as pipeline:
            pipeline._result = paper_pipeline.run()
            assert pipeline.render_all() == serial, jobs
            assert pipeline._pool.forked


def test_state_cache_hit_forks_lazily_after_warming(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    serial = PaperPipeline(small_config(), seed=7).render_all()
    PaperPipeline(small_config(), seed=7, cache=cache).run()
    with PaperPipeline(
        small_config(), seed=7, jobs=2, cache=cache
    ) as pipeline:
        pipeline.run()
        assert pipeline._pool is None  # a cache hit forks nothing yet
        assert pipeline.render_all() == serial
        assert pipeline._pool.forked


def _crash_in_worker(state, name):  # pragma: no cover - kills a worker
    if multiprocessing.current_process().daemon:
        os._exit(17)
    return _render_task(state, name)


def test_render_recovers_from_a_crashed_worker(monkeypatch):
    from repro.pipeline import runner

    serial = PaperPipeline(small_config(), seed=7).render_all()
    monkeypatch.setattr(runner, "_render_task", _crash_in_worker)
    with PaperPipeline(small_config(), seed=7, jobs=2) as pipeline:
        assert pipeline.render_all() == serial
        assert pipeline._pool is None  # the crashed pool was released


def test_stream_engine_parallel_sources_identical():
    from repro.stream import build_stream_engine

    serial = build_stream_engine(small_config(), seed=7)
    parallel = build_stream_engine(small_config(), seed=7, jobs=4)
    serial.run()
    parallel.run()
    assert (
        parallel.snapshot().render_tables()
        == serial.snapshot().render_tables()
    )
