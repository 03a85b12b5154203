"""The ``pipeline-state`` cache entry: a verified world blob, read lazily.

A state-cache hit rebuilds only the feed datasets; the world stays the
pickled blob the entry holds until something reads it, and the
comparison is assembled over it on first read.  These tests pin the
three promises that layout makes: a render-cache hit never unpickles
the world, a corrupted entry is a miss (never a hit with other text),
and concurrent first reads share one world.
"""

from __future__ import annotations

import pickle
import shutil
import threading

import pytest

from repro import obs
from repro.ecosystem import small_config
from repro.ecosystem.world import World
from repro.io.artifacts import ArtifactCache, fingerprint
from repro.obs.manifest import build_manifest, manifest_stage_names
from repro.pipeline import PaperPipeline
from repro.pipeline import runner as runner_module

SEEDS = (7, 11, 2012)


@pytest.fixture(scope="module")
def cold_caches(tmp_path_factory):
    """``seed -> (cache dir, cold render_all text)``, filled once."""
    filled = {}
    for seed in SEEDS:
        root = str(tmp_path_factory.mktemp(f"state-cold-{seed}"))
        with PaperPipeline(
            small_config(), seed=seed, cache=ArtifactCache(root)
        ) as pipeline:
            filled[seed] = (root, pipeline.render_all())
    return filled


def _copy_cache(cold_caches, seed, tmp_path) -> ArtifactCache:
    root = str(tmp_path / "cache")
    shutil.copytree(cold_caches[seed][0], root)
    return ArtifactCache(root)


def _key(kind: str, seed: int) -> str:
    return PaperPipeline(
        small_config(), seed=seed, cache=ArtifactCache("unused")
    )._cache_key(kind)


@pytest.fixture
def world_unpickles(monkeypatch):
    """Counts every ``World`` built by unpickling, however it is loaded."""
    loads = []

    def counting_setstate(world, state):
        loads.append(1)
        world.__dict__.update(state)

    monkeypatch.setattr(World, "__setstate__", counting_setstate, raising=False)
    return loads


class TestDeferredWorld:
    def test_render_hit_never_unpickles_the_world(
        self, cold_caches, tmp_path, world_unpickles
    ):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
                result = warm.run()
                text = warm.render_all()
        assert text == cold_caches[7][1]
        assert sorted(result.datasets) == sorted(warm.feed_order)
        assert world_unpickles == []
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["cache.world_loads"] == 0
        assert "cache.load-world" not in tracer.stage_names()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_hit_render_miss_unpickles_once(
        self, cold_caches, tmp_path, world_unpickles, seed
    ):
        cache = _copy_cache(cold_caches, seed, tmp_path)
        assert cache.invalidate(_key("render-all", seed))
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with PaperPipeline(
                small_config(), seed=seed, cache=cache
            ) as warm:
                result = warm.run()
                text = warm.render_all()
                # Further reads reuse the one materialized world.
                assert result.world is warm.comparison.world
        assert text == cold_caches[seed][1]
        assert len(world_unpickles) == 1
        assert tracer.metrics.counter("cache.world_loads") == 1
        assert "cache.load-world" in tracer.stage_names()

    def test_concurrent_first_reads_share_one_world(
        self, cold_caches, tmp_path
    ):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        assert cache.invalidate(_key("render-all", 7))
        with PaperPipeline(small_config(), seed=7) as reference:
            expected_table2 = reference.render_table2()
        tracer = obs.Tracer()
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        seen = [None] * threads_n
        errors = []
        with obs.activate(tracer):
            with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
                result = warm.run()  # a state hit: nothing read yet

                def reader(index: int) -> None:
                    try:
                        barrier.wait(timeout=60)
                        comparison = warm.comparison
                        engine = warm.stream_engine()
                        table2 = warm.render_table2()
                        seen[index] = (
                            comparison, comparison.world, engine.world, table2
                        )
                    except BaseException as exc:  # reported below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=reader, args=(i,))
                    for i in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                world = result.world
        assert errors == []
        assert tracer.metrics.counter("cache.world_loads") == 1
        for comparison, comparison_world, engine_world, table2 in seen:
            assert comparison is result.comparison
            assert comparison_world is world
            assert engine_world is world
            assert table2 == expected_table2

    def test_parallel_state_hit_matches_cold(self, cold_caches, tmp_path):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        assert cache.invalidate(_key("render-all", 7))
        with PaperPipeline(
            small_config(), seed=7, cache=cache, jobs=2
        ) as warm:
            assert warm.render_all() == cold_caches[7][1]


def _flip_byte(path: str, region: bytes, text: bool) -> None:
    """Flip the low bit of one byte in the middle of *region* in *path*.

    In a text region the byte is the next lowercase letter, so the blob
    still decodes to the same number of domains: only the entry's
    digest can tell that it changed.
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    start = bytes(data).find(region)
    assert start >= 0 and bytes(data).find(region, start + 1) < 0
    offset = start + len(region) // 2
    while text and not 0x62 <= data[offset] <= 0x79:  # b..y
        offset += 1
    data[offset] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class TestStateIntegrity:
    @pytest.mark.parametrize("region", ["world", "domains", "times"])
    @pytest.mark.parametrize("seed", (7, 11))
    def test_flipped_byte_is_a_miss(
        self, cold_caches, tmp_path, monkeypatch, seed, region
    ):
        cache = _copy_cache(cold_caches, seed, tmp_path)
        state_key = _key("pipeline-state", seed)
        assert cache.invalidate(_key("render-all", seed))
        path = cache.path_for(state_key)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)["payload"]
        # The largest column, so its blobs are long enough to be unique.
        column = max(payload["columns"], key=lambda c: len(c.domain_blob))
        blob = {
            "world": payload["world"],
            "domains": column.domain_blob,
            "times": column.time_blob,
        }[region]
        _flip_byte(path, blob, text=region == "domains")

        builds = []
        real_build = runner_module.build_world

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_world", counting_build)
        with PaperPipeline(small_config(), seed=seed, cache=cache) as warm:
            text = warm.render_all()
        assert builds == [1]  # the corrupt entry was a miss
        assert text == cold_caches[seed][1]
        with PaperPipeline(small_config(), seed=seed, cache=cache) as again:
            again.run()
        assert builds == [1]  # the miss rewrote a sound entry

    def test_truncated_entry_is_a_miss(self, cold_caches, tmp_path):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        assert cache.invalidate(_key("render-all", 7))
        path = cache.path_for(_key("pipeline-state", 7))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
            assert warm.render_all() == cold_caches[7][1]

    def test_foreign_payload_is_a_miss(self, cold_caches, tmp_path):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        state_key = _key("pipeline-state", 7)
        assert cache.invalidate(_key("render-all", 7))
        payload = cache.load(state_key)
        # Well-formed columns whose blobs are not bytes.
        columns = [c._replace(domain_blob="text") for c in payload["columns"]]
        cache.store(state_key, dict(payload, columns=columns))
        with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
            assert warm.render_all() == cold_caches[7][1]

    def test_rejected_entry_counts_a_miss_not_a_hit(
        self, cold_caches, tmp_path
    ):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        state_key = _key("pipeline-state", 7)
        assert cache.invalidate(_key("render-all", 7))
        payload = cache.load(state_key)
        cache.store(state_key, dict(payload, sha256="0" * 64))
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
                assert warm.render_all() == cold_caches[7][1]
        manifest = build_manifest(
            tracer, command="run", seed=7,
            config_fingerprint=fingerprint(small_config()),
        )
        counters = manifest["metrics"]["counters"]
        assert counters["cache.hit"] == 0
        assert counters["cache.miss"] == 2  # the state and the render
        assert "world.build" in manifest_stage_names(manifest)


class TestRenderIntegrity:
    def test_flipped_table_byte_is_a_miss(self, cold_caches, tmp_path):
        cache = _copy_cache(cold_caches, 7, tmp_path)
        path = cache.path_for(_key("render-all", 7))
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        at = bytes(data).find(b"Table 2")
        assert at >= 0
        data[at + len("Table ")] ^= 0x01  # "Table 2" -> "Table 3"
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        cold = cold_caches[7][1]
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with PaperPipeline(small_config(), seed=7, cache=cache) as warm:
                assert warm.render_all() == cold
        assert tracer.metrics.counter("cache.miss") == 1  # the render
        with PaperPipeline(small_config(), seed=7, cache=cache) as again:
            assert again.render_all() == cold  # the miss rewrote it
        assert cache.load(_key("render-all", 7)) == {
            "text": cold, "sha256": runner_module._text_digest(cold),
        }
