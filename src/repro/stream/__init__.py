"""As-of-day analysis over collected feeds.

The batch pipeline answers "what do the feeds say over the whole
window"; this package answers the same question *as of any day*.
Collected datasets are time-sorted columns, so a feed as of day D is a
prefix of its columns found by one bisect over the time column:

* :class:`StreamEngine` holds one prefix length per feed, moves to any
  day, earlier or later (``advance_to_day``, ``run``), and lands the
  prefixes into a sighting store.  The sources are deterministic in
  ``(config, seed)``, so a position needs no saved state: "as of day
  D" is one ``advance_to_day(D)`` in any process.
* :class:`StreamSnapshot` wraps the prefixes in ``FeedDataset`` views
  and is a :class:`~repro.reporting.paper.PaperView` over them: it
  renders any of the paper's tables and figures "as of day N".

A snapshot of the fully drained engine matches the batch
:class:`~repro.pipeline.runner.PaperPipeline` byte-for-byte: both are
views of identical datasets through the same ``PaperView`` methods.
"""

from repro.stream.engine import (
    StreamEngine,
    StreamSnapshot,
    build_stream_engine,
)

__all__ = [
    "StreamEngine",
    "StreamSnapshot",
    "build_stream_engine",
]
