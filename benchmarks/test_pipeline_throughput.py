"""End-to-end pipeline wall time: serial vs. parallel, cold vs. warm.

Three benches at paper scale (seed 2012):

* the feed-collection stage, serial and on a forked worker pool;
* the full cold pipeline (world + collection + analysis + render),
  serial and with ``jobs=4`` fan-out; and
* a warm artifact-cache run against the cold run that populated it.

Every bench records its comparison partner and the resulting speedup
in ``extra_info``, along with ``available_cpus`` -- the parallel
numbers are only meaningful relative to the cores the host actually
has (a single-core container cannot show a parallel wall-time win, it
can only show that the overhead is bounded).  Parallel benches
re-assert byte-equivalence with the serial output so a fast-but-wrong
scheduling change cannot slip through.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.ecosystem import paper_config
from repro.feeds import CollectState, collect_all, standard_feed_suite
from repro.io.artifacts import ArtifactCache
from repro.parallel import WorkerPool
from repro.pipeline import PaperPipeline

SEED = 2012

#: Worker width for the parallel benches; the pool forks once and
#: carries every stage, so this is also the recorded ``jobs`` value.
JOBS = 4


def _available_cpus() -> int:
    return os.cpu_count() or 1  # reprolint: disable=REP007 -- reporting only


def _require_multicore() -> None:
    """Parallel wall-time benches are meaningless on one core."""
    cpus = _available_cpus()
    if cpus <= 1:
        pytest.skip(
            f"parallel bench needs more than one core; host has {cpus} "
            "(a single-core run can only measure overhead, not speedup)"
        )


def _once(fn):
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# Feed-collection stage
# ----------------------------------------------------------------------


def test_collect_stage_serial(benchmark, pipeline, show):
    world = pipeline.run().world
    total = sum(
        ds.total_samples for ds in pipeline.run().datasets.values()
    )

    def collect():
        return collect_all(world, standard_feed_suite(SEED))

    datasets = benchmark.pedantic(collect, rounds=3)
    assert sum(ds.total_samples for ds in datasets.values()) == total
    rate = total / benchmark.stats.stats.mean
    benchmark.extra_info["records"] = total
    benchmark.extra_info["records_per_sec"] = round(rate)
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["available_cpus"] = _available_cpus()
    show(f"[pipeline] collect serial: {total:,} records, {rate:,.0f}/s")


def test_collect_stage_parallel(benchmark, pipeline, show):
    _require_multicore()
    world = pipeline.run().world
    serial_seconds, serial = _once(
        lambda: collect_all(world, standard_feed_suite(SEED))
    )

    # The pool forks once, outside the timed region, exactly as the
    # pipeline uses it: the bench measures steady-state dispatch.
    collectors = standard_feed_suite(SEED)
    with WorkerPool(JOBS, CollectState(world, collectors)) as pool:

        def collect():
            return collect_all(world, collectors, pool=pool)

        datasets = benchmark.pedantic(collect, rounds=3)
    for name in serial:
        assert datasets[name].records == serial[name].records
    speedup = serial_seconds / benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["pool"] = True
    benchmark.extra_info["available_cpus"] = _available_cpus()
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    show(
        f"[pipeline] collect pool jobs={JOBS}: "
        f"{benchmark.stats.stats.mean:.2f}s "
        f"vs serial {serial_seconds:.2f}s "
        f"({speedup:.2f}x on {_available_cpus()} cpu)"
    )


# ----------------------------------------------------------------------
# Full cold pipeline
# ----------------------------------------------------------------------


def test_full_pipeline_cold_serial(benchmark, show):
    def render():
        return PaperPipeline(paper_config(), seed=SEED).render_all()

    text = benchmark.pedantic(render, rounds=1)
    assert "Table 1" in text
    benchmark.extra_info["jobs"] = 1
    benchmark.extra_info["available_cpus"] = _available_cpus()
    show(
        f"[pipeline] cold serial render_all: "
        f"{benchmark.stats.stats.mean:.2f}s"
    )


def test_full_pipeline_cold_parallel(benchmark, show):
    _require_multicore()
    serial_seconds, serial_text = _once(
        lambda: PaperPipeline(paper_config(), seed=SEED).render_all()
    )

    def render():
        # jobs >= 2 makes the pipeline fork its persistent pool right
        # after world build; collect and render both ride on it.
        with PaperPipeline(
            paper_config(), seed=SEED, jobs=JOBS
        ) as parallel_pipeline:
            return parallel_pipeline.render_all()

    text = benchmark.pedantic(render, rounds=1)
    assert text == serial_text  # worker count never changes bytes
    speedup = serial_seconds / benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["pool"] = True
    benchmark.extra_info["available_cpus"] = _available_cpus()
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    show(
        f"[pipeline] cold pool jobs={JOBS} render_all: "
        f"{benchmark.stats.stats.mean:.2f}s vs serial "
        f"{serial_seconds:.2f}s ({speedup:.2f}x on "
        f"{_available_cpus()} cpu)"
    )


# ----------------------------------------------------------------------
# Artifact cache: cold fill vs. warm hit
# ----------------------------------------------------------------------


def test_warm_cache_vs_cold(benchmark, tmp_path, show):
    cache = ArtifactCache(str(tmp_path / "artifacts"))
    cold_seconds, cold_text = _once(
        lambda: PaperPipeline(
            paper_config(), seed=SEED, cache=cache
        ).render_all()
    )

    # Warm state load alone (world + columnar datasets from disk,
    # render recomputed): invalidate only the rendered-text artifact.
    probe = PaperPipeline(paper_config(), seed=SEED, cache=cache)
    cache.invalidate(probe._cache_key("render-all"))
    state_seconds, state_text = _once(probe.render_all)
    assert state_text == cold_text

    def warm():
        return PaperPipeline(
            paper_config(), seed=SEED, cache=cache
        ).render_all()

    text = benchmark(warm)
    assert text == cold_text
    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_state_seconds"] = round(state_seconds, 3)
    benchmark.extra_info["speedup_cold_vs_warm"] = round(
        cold_seconds / warm_seconds, 1
    )
    show(
        f"[pipeline] cache: cold {cold_seconds:.2f}s, warm state "
        f"{state_seconds:.2f}s, warm render {warm_seconds * 1e3:.1f}ms "
        f"({cold_seconds / warm_seconds:,.0f}x)"
    )
