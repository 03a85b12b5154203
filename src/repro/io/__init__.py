"""Serialization: feed datasets to/from JSONL, tables to CSV.

Real deployments receive feeds as files and archive analysis outputs;
this package provides the same affordances so the library can be used on
externally-supplied feed data (one JSON record per sighting) rather than
only on simulator output.  :func:`read_feed_jsonl` is the one way in
for outside sightings, and it admits only records that pass the
store's silver gate (:mod:`repro.store.silver`).
:mod:`repro.io.checkpoint` adds versioned, atomically-written
checkpoint files for resumable streaming runs.
"""

from repro.io.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.io.serialization import (
    read_feed_jsonl,
    write_feed_jsonl,
    read_feeds_dir,
    write_feeds_dir,
)
from repro.io.csvexport import rows_to_csv, write_csv

__all__ = [
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
    "read_feed_jsonl",
    "read_feeds_dir",
    "rows_to_csv",
    "write_csv",
    "write_feed_jsonl",
    "write_feeds_dir",
]
