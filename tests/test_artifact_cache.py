"""The content-addressed artifact cache and its pipeline integration."""

from __future__ import annotations

import dataclasses
import enum
import os

import pytest

from repro.ecosystem import small_config
from repro.io.artifacts import (
    ARTIFACT_FORMAT,
    ArtifactCache,
    FingerprintError,
    artifact_key,
    code_fingerprint,
    default_cache_dir,
    fingerprint,
)
from repro.pipeline import PaperPipeline
from repro.pipeline import runner as runner_module


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Inner:
    weight: float


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    tags: frozenset


class TestFingerprint:
    def test_stable_across_calls(self):
        value = Outer("x", Inner(2.5), frozenset({"a", "b"}))
        assert fingerprint(value) == fingerprint(value)

    def test_set_order_independent(self):
        assert fingerprint({"b", "a", "c"}) == fingerprint({"c", "a", "b"})

    def test_dict_key_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_value_changes_change_fingerprint(self):
        base = Outer("x", Inner(2.5), frozenset())
        bumped = Outer("x", Inner(2.6), frozenset())
        assert fingerprint(base) != fingerprint(bumped)

    def test_enum_members_distinguished(self):
        assert fingerprint(Color.RED) != fingerprint(Color.BLUE)

    def test_config_fingerprint_is_deterministic(self):
        assert fingerprint(small_config()) == fingerprint(small_config())

    def test_unfingerprintable_type_rejected(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())

    def test_artifact_key_varies_with_each_component(self):
        fp = fingerprint(small_config())
        base = artifact_key("render-all", fp, 7)
        assert artifact_key("pipeline-state", fp, 7) != base
        assert artifact_key("render-all", fp, 8) != base
        assert artifact_key("render-all", fp, 7, extra="variant") != base
        assert artifact_key("render-all", fp, 7, code_pin="other") != base
        # The code pin defaults to the live code fingerprint, so source
        # edits implicitly invalidate every cached artifact.
        assert base == artifact_key(
            "render-all", fp, 7, code_pin=code_fingerprint()
        )

    def test_code_fingerprint_is_stable_hex(self):
        pin = code_fingerprint()
        assert pin == code_fingerprint()  # process-cached
        assert len(pin) == 64
        int(pin, 16)  # valid hex digest


# ----------------------------------------------------------------------
# The cache directory
# ----------------------------------------------------------------------


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = artifact_key("k", "fp", 1)
        assert cache.load(key) is None
        path = cache.store(key, {"rows": [1, 2]})
        assert os.path.exists(path)
        assert cache.load(key) == {"rows": [1, 2]}
        assert cache.contains(key)
        assert list(cache.keys()) == [key]
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = artifact_key("k", "fp", 1)
        cache.store(key, "payload")
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"\x80truncated garbage")
        assert cache.load(key) is None
        assert not cache.contains(key)

    def test_foreign_pickle_is_a_miss(self, tmp_path):
        import pickle

        cache = ArtifactCache(str(tmp_path))
        key = artifact_key("k", "fp", 1)
        os.makedirs(os.path.dirname(cache.path_for(key)), exist_ok=True)
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump({"format": "something-else"}, handle)
        assert cache.load(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        a = artifact_key("k", "fp", 1)
        b = artifact_key("k", "fp", 2)
        cache.store(a, "payload")
        os.makedirs(os.path.dirname(cache.path_for(b)), exist_ok=True)
        os.replace(cache.path_for(a), cache.path_for(b))
        assert cache.load(b) is None

    def test_invalidate_and_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        keys = [artifact_key("k", "fp", seed) for seed in range(3)]
        for key in keys:
            cache.store(key, "payload")
        assert cache.invalidate(keys[0])
        assert not cache.invalidate(keys[0])  # already gone
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_missing_root_is_empty(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "never-created"))
        assert list(cache.keys()) == []
        assert cache.load(artifact_key("k", "fp", 1)) is None

    def test_default_cache_dir_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/custom-repro")
        assert default_cache_dir() == "/tmp/custom-repro"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert default_cache_dir() == os.path.join("/tmp/xdg", "repro")

    def test_envelope_format_marker(self):
        assert ARTIFACT_FORMAT == "repro-artifact"


# ----------------------------------------------------------------------
# Pipeline integration: skip world build + collection on warm cache
# ----------------------------------------------------------------------


class TestPipelineCache:
    def test_warm_run_skips_world_build(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        cold = PaperPipeline(small_config(), seed=7, cache=cache)
        cold_text = cold.render_all()

        calls = []
        real_build = runner_module.build_world

        def counting_build(*args, **kwargs):
            calls.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner_module, "build_world", counting_build)
        warm = PaperPipeline(small_config(), seed=7, cache=cache)
        result = warm.run()
        assert calls == []  # state came from the cache
        assert warm.render_all() == cold_text
        assert sorted(result.datasets) == sorted(cold.run().datasets)

    def test_render_cache_returns_identical_text(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        reference = PaperPipeline(small_config(), seed=7).render_all()
        cold = PaperPipeline(small_config(), seed=7, cache=cache)
        assert cold.render_all() == reference
        warm = PaperPipeline(small_config(), seed=7, cache=cache)
        assert warm.render_all() == reference

    def test_cache_distinguishes_seeds(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        text_7 = PaperPipeline(small_config(), seed=7, cache=cache).render_all()
        text_11 = PaperPipeline(
            small_config(), seed=11, cache=cache
        ).render_all()
        assert text_7 != text_11
        # Both warm loads return their own seed's text.
        assert (
            PaperPipeline(small_config(), seed=7, cache=cache).render_all()
            == text_7
        )
        assert (
            PaperPipeline(small_config(), seed=11, cache=cache).render_all()
            == text_11
        )

    def test_custom_collectors_are_never_cached(self, tmp_path):
        from repro.feeds import standard_feed_suite

        cache = ArtifactCache(str(tmp_path))
        pipeline = PaperPipeline(
            small_config(),
            seed=7,
            collectors=standard_feed_suite(7)[:3],
            cache=cache,
        )
        pipeline.run()
        pipeline.render_all()
        assert len(cache) == 0

    def test_explicit_invalidation(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        pipeline = PaperPipeline(small_config(), seed=7, cache=cache)
        pipeline.render_all()
        assert len(cache) == 2  # pipeline-state + render-all
        state_key = pipeline._cache_key("pipeline-state")
        assert cache.invalidate(state_key)
        fresh = PaperPipeline(small_config(), seed=7, cache=cache)
        fresh.run()  # recomputes and re-stores
        assert cache.contains(state_key)


class TestCrossProcessConcurrency:
    """The serve cold-start pattern: several *processes* store and load
    the same key at once.  ``store`` writes via mkstemp + ``os.replace``
    (atomic on POSIX), and the envelope check turns any conceivable
    partial state into a miss -- so concurrent readers must only ever
    see a full payload or a miss, never a torn one."""

    def test_concurrent_writers_and_readers_never_tear(self, tmp_path):
        import multiprocessing
        import pickle

        cache_dir = str(tmp_path / "cache")
        payload = {"rows": list(range(2000)), "tag": "serve-cold-start"}
        key = "deadbeef" * 8  # fixed 64-hex key: every process collides
        blob = pickle.dumps(payload)

        def hammer(result_queue) -> None:
            from repro.io.artifacts import ArtifactCache

            cache = ArtifactCache(cache_dir)
            outcomes = []
            for _ in range(40):
                cache.store(key, pickle.loads(blob))
                loaded = cache.load(key)
                # A miss (None) is acceptable mid-replace; a partial
                # or corrupt payload is not.
                outcomes.append(loaded is None or loaded == payload)
            result_queue.put(all(outcomes))

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=hammer, args=(queue,)) for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        assert all(results)
        # After the storm the key holds one intact copy.
        cache = ArtifactCache(cache_dir)
        assert cache.load(key) == payload
        # No stray temp files survived the concurrent replaces.
        stray = [
            name
            for _, _, files in os.walk(cache_dir)
            for name in files
            if name.endswith(".tmp")
        ]
        assert stray == []

    def test_reader_mid_replace_sees_old_or_new_never_mixed(self, tmp_path):
        import multiprocessing

        cache_dir = str(tmp_path / "cache")
        key = "cafebabe" * 8
        cache = ArtifactCache(cache_dir)
        cache.store(key, "A" * 65536)

        def flip(stop_queue) -> None:
            from repro.io.artifacts import ArtifactCache

            writer = ArtifactCache(cache_dir)
            for index in range(60):
                writer.store(key, ("A" if index % 2 else "B") * 65536)
            stop_queue.put(True)

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=flip, args=(queue,))
        proc.start()
        seen = set()
        while queue.empty():
            value = cache.load(key)
            if value is not None:
                seen.add(value[0])
                assert value in ("A" * 65536, "B" * 65536)
        proc.join(timeout=120)
        assert proc.exitcode == 0
        assert seen <= {"A", "B"} and seen
