"""One artifact surface: batch, result and snapshot render through PaperView.

A drained :class:`StreamSnapshot` renders every table and figure of the
batch :class:`PaperPipeline` byte for byte, an as-of-day snapshot
renders the timing figures over its prefix, and the report writer
renders each artifact exactly once.
"""

from __future__ import annotations

import pytest

from repro.ecosystem import small_config
from repro.pipeline import PaperPipeline
from repro.pipeline.runner import ARTIFACTS
from repro.reporting.report import write_report


def _drained_render(pipeline: PaperPipeline) -> str:
    engine = pipeline.stream_engine()
    engine.run()
    return engine.snapshot().render()


class TestSnapshotRendersTheBatchReport:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_small_world(self, seed):
        with PaperPipeline(small_config(), seed=seed) as pipeline:
            assert _drained_render(pipeline) == pipeline.render_all()

    def test_paper_scale(self, paper_pipeline):
        assert (
            _drained_render(paper_pipeline) == paper_pipeline.render_all()
        )


class TestMidWindowSnapshot:
    def test_timing_figures_render_as_of_day_30(self):
        with PaperPipeline(small_config(), seed=7) as pipeline:
            engine = pipeline.stream_engine()
            engine.advance_to_day(30)
            snapshot = engine.snapshot()
        assert 0 < snapshot.records_processed
        assert not engine.exhausted
        for i in (9, 10, 11, 12):
            text = snapshot.render((f"figure{i}",))
            assert text.startswith(f"Figure {i}:"), text


class TestWriteReportRendersOnce:
    def test_each_renderer_runs_once(self, tmp_path, monkeypatch):
        calls = {artifact: 0 for artifact in ARTIFACTS}

        def counting(artifact, original):
            def render(self):
                calls[artifact] += 1
                return original(self)
            return render

        with PaperPipeline(small_config(), seed=7) as pipeline:
            for artifact in ARTIFACTS:
                name = f"render_{artifact}"
                monkeypatch.setattr(
                    PaperPipeline, name,
                    counting(artifact, getattr(PaperPipeline, name)),
                )
            write_report(pipeline, str(tmp_path))
            assert calls == {artifact: 1 for artifact in ARTIFACTS}
            report = (tmp_path / "report.txt").read_text(encoding="utf-8")
            assert report == pipeline.render_all() + "\n"
