"""Unit tests for repro.obs: tracing, metrics, and run manifests."""

import json

import pytest

from repro import obs
from repro.obs.hosttime import Stopwatch, monotonic_now, peak_rss_kib, wall_now
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ManifestError,
    build_manifest,
    manifest_stage_names,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.trace import BASELINE_COUNTERS, Span


def make_manifest(tracer=None, **overrides):
    tracer = tracer or obs.Tracer()
    manifest = build_manifest(
        tracer, command="run", seed=2012, config_fingerprint="abc123"
    )
    manifest.update(overrides)
    return manifest


class TestHosttime:
    def test_clocks_are_numbers(self):
        assert wall_now() > 0
        assert monotonic_now() >= 0

    def test_peak_rss_positive_on_unix(self):
        rss = peak_rss_kib()
        assert rss is None or rss > 0

    def test_stopwatch_monotone(self):
        watch = Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0 <= first <= second
        watch.restart()
        assert watch.elapsed() <= second + 1.0


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = obs.MetricsRegistry()
        registry.add("hits")
        registry.add("hits", 2)
        assert registry.counter("hits") == 3
        assert registry.counter("absent") == 0

    def test_gauges_overwrite(self):
        registry = obs.MetricsRegistry()
        registry.set_gauge("depth", 4)
        registry.set_gauge("depth", 2.5)
        assert registry.gauge("depth") == 2.5
        assert registry.gauge("absent") == 0

    def test_snapshot_sorted_and_detached(self):
        registry = obs.MetricsRegistry()
        registry.add("b")
        registry.add("a")
        registry.set_gauge("g", 1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        snap["counters"]["a"] = 99
        assert registry.counter("a") == 1


class TestTracer:
    def test_span_tree_nesting(self):
        tracer = obs.Tracer()
        with tracer.span("outer", seed=7):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert outer.attributes == {"seed": 7}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.duration_s >= outer.children[0].duration_s >= 0

    def test_attach_child_and_annotate(self):
        tracer = obs.Tracer()
        with tracer.span("stage"):
            tracer.attach_child("task", 0.25, worker=1)
            tracer.annotate(workers=2)
        stage = tracer.roots[0]
        assert stage.attributes == {"workers": 2}
        assert stage.children[0].duration_s == 0.25
        assert stage.children[0].attributes == {"worker": 1}

    def test_baseline_cache_counters_present(self):
        snap = obs.Tracer().metrics.snapshot()
        for name in BASELINE_COUNTERS:
            assert snap["counters"][name] == 0

    def test_stage_names_sorted_distinct(self):
        tracer = obs.Tracer()
        with tracer.span("b"):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert tracer.stage_names() == ["a", "b"]

    def test_span_walk_and_payload(self):
        root = Span("r", {}, 1.0, None, [Span("c", {"k": 1}, 0.5, 2, [])])
        depths = [(depth, span.name) for depth, span in root.walk()]
        assert depths == [(0, "r"), (1, "c")]
        payload = root.to_payload()
        assert payload["children"][0] == {
            "name": "c",
            "attributes": {"k": 1},
            "duration_s": 0.5,
            "rss_delta_kib": 2,
            "children": [],
        }


class TestActivation:
    def test_helpers_noop_without_tracer(self):
        assert obs.current_tracer() is None
        obs.add("x")
        obs.set_gauge("y", 1)
        obs.annotate(k=1)
        with obs.span("stage") as node:
            assert node is None

    def test_helpers_dispatch_to_active_tracer(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            assert obs.current_tracer() is tracer
            with obs.span("stage", seed=1) as node:
                obs.add("records", 5)
                obs.set_gauge("depth", 2)
                obs.annotate(extra=True)
            assert node is not None
        assert obs.current_tracer() is None
        assert tracer.metrics.counter("records") == 5
        assert tracer.metrics.gauge("depth") == 2
        assert tracer.roots[0].attributes == {"seed": 1, "extra": True}

    def test_activation_nests_and_restores(self):
        first, second = obs.Tracer(), obs.Tracer()
        with obs.activate(first):
            with obs.activate(second):
                obs.add("inner")
            with obs.activate(None):
                obs.add("suppressed")
            obs.add("outer")
        assert first.metrics.counter("outer") == 1
        assert first.metrics.counter("inner") == 0
        assert first.metrics.counter("suppressed") == 0
        assert second.metrics.counter("inner") == 1


class TestManifest:
    def test_build_is_schema_valid(self):
        tracer = obs.Tracer()
        with tracer.span("pipeline.run"):
            tracer.metrics.add("cache.hit")
        manifest = build_manifest(
            tracer,
            command="run",
            seed=7,
            config_fingerprint="f" * 8,
            jobs=2,
        )
        validate_manifest(manifest)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["jobs"] == 2
        assert manifest_stage_names(manifest) == ["pipeline.run"]
        # v4: the world has one build, so no shard count is recorded.
        assert MANIFEST_VERSION == 4
        assert "shards" not in manifest

    def test_roundtrip_through_disk(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("stage"):
            pass
        manifest = build_manifest(
            tracer, command="stream", seed=11, config_fingerprint="x"
        )
        path = tmp_path / "nested" / "manifest.json"
        write_manifest(str(path), manifest)
        assert read_manifest(str(path)) == manifest

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"format": "other"}, "format"),
            ({"version": 99}, "version"),
            ({"seed": "2012"}, "seed"),
            ({"seed": True}, "seed"),
            ({"jobs": "all"}, "jobs"),
            ({"metrics": {"counters": {}}}, "metrics"),
            ({"metrics": {"counters": {"c": "x"}, "gauges": {}}}, "c"),
            ({"extra_field": 1}, "unknown fields"),
            ({"shards": None}, "unknown fields"),
        ],
    )
    def test_invalid_manifests_rejected(self, overrides, fragment):
        manifest = make_manifest(**overrides)
        with pytest.raises(ManifestError, match=fragment):
            validate_manifest(manifest)

    def test_missing_field_rejected(self):
        manifest = make_manifest()
        del manifest["spans"]
        with pytest.raises(ManifestError, match="missing fields"):
            validate_manifest(manifest)

    @pytest.mark.parametrize(
        "span_override, fragment",
        [
            ({"name": ""}, "name"),
            ({"duration_s": -1.0}, "non-negative"),
            ({"rss_delta_kib": 1.5}, "rss_delta_kib"),
            ({"attributes": {"k": [1]}}, "non-scalar"),
            ({"children": None}, "children"),
        ],
    )
    def test_invalid_spans_rejected(self, span_override, fragment):
        span = {
            "name": "s",
            "attributes": {},
            "duration_s": 0.0,
            "rss_delta_kib": None,
            "children": [],
        }
        span.update(span_override)
        manifest = make_manifest(spans=[span])
        with pytest.raises(ManifestError, match=fragment):
            validate_manifest(manifest)

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            read_manifest(str(path))

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            read_manifest(str(tmp_path / "absent.json"))

    def test_written_file_is_pretty_sorted_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(str(path), make_manifest())
        text = path.read_text()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
