"""End-to-end experiment pipeline.

:class:`PaperPipeline` wires the whole reproduction together: build the
world, collect the ten feeds and construct the oracles.  It is a
:class:`~repro.reporting.paper.PaperView` over the run's datasets --
one method per paper artifact (``table1()`` ... ``figure12()``), each
returning structured data plus a ``render_*`` companion producing the
paper-shaped text -- and :meth:`PaperPipeline.render_all` renders all
of them on the run's worker pool, behind the artifact cache.
"""

from repro.pipeline.runner import PaperPipeline, PipelineResult

__all__ = ["PaperPipeline", "PipelineResult"]
