"""Feed dataset serialization (JSONL).

Format: the first line is a header object describing the feed; every
subsequent line is one sighting record:

    {"feed": "mx1", "type": "mx_honeypot", "has_volume": true}
    {"d": "pillstore99.info", "t": 12345}
    ...

Registered domains and integer minute timestamps only -- the lowest
common denominator the comparison operates on (Section 3).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.store.silver import validate_sighting


class FeedFormatError(ValueError):
    """Raised when a feed file does not match the expected format."""


def write_feed_jsonl(dataset: FeedDataset, path: str) -> None:
    """Write *dataset* to *path* in JSONL form."""
    header = {
        "feed": dataset.name,
        "type": dataset.feed_type.value,
        "has_volume": dataset.has_volume,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in dataset.records:
            handle.write(
                json.dumps({"d": record.domain, "t": record.time}) + "\n"
            )


def read_feed_jsonl(path: str) -> FeedDataset:
    """Read a feed dataset written by :func:`write_feed_jsonl`.

    Every record passes the store's silver gate
    (:func:`~repro.store.silver.validate_sighting`) on its raw JSON
    values, with no coercion: a record the store would refuse -- a
    non-string or malformed domain, a non-integer, boolean or
    out-of-int64 time -- fails here with its line and the silver
    reason, before it can reach a comparison or the packed columns.
    Any other malformed file, header or encoding included, raises
    :class:`FeedFormatError` too.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = _read_header(path, handle.readline())
            records: List[FeedRecord] = []
            for line_number, line in enumerate(handle, start=2):
                line = line.strip()
                if line:
                    records.append(_read_record(path, line_number, line))
    except UnicodeDecodeError as exc:
        raise FeedFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    name, feed_type, has_volume = header
    return FeedDataset(
        name=name, feed_type=feed_type, records=records, has_volume=has_volume
    )


def _read_header(path: str, line: str) -> Tuple[str, FeedType, bool]:
    """The ``(feed, type, has_volume)`` a header line declares."""
    if not line.strip():
        raise FeedFormatError(f"{path}: missing header line")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FeedFormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FeedFormatError(f"{path}: header is not a JSON object")
    for key in ("feed", "type"):
        if key not in header:
            raise FeedFormatError(f"{path}: header missing {key!r}")
    name = header["feed"]
    if not isinstance(name, str) or not name:
        raise FeedFormatError(f"{path}: feed name must be a non-empty string")
    try:
        feed_type = FeedType(header["type"])
    except ValueError as exc:
        raise FeedFormatError(
            f"{path}: unknown feed type {header['type']!r}"
        ) from exc
    has_volume = header.get("has_volume", True)
    if not isinstance(has_volume, bool):
        raise FeedFormatError(f"{path}: has_volume must be true or false")
    return name, feed_type, has_volume


def _read_record(path: str, line_number: int, line: str) -> FeedRecord:
    """One record line, admitted only through the silver gate."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        reason: Optional[str] = str(exc)
    else:
        reason = "record is not a JSON object"
        if isinstance(obj, dict):
            reason = validate_sighting(obj.get("d"), obj.get("t"))
            if reason is None:
                return FeedRecord(obj["d"], obj["t"])
    raise FeedFormatError(f"{path}:{line_number}: bad record: {reason}")


def write_feeds_dir(datasets: Dict[str, FeedDataset], directory: str) -> None:
    """Write every dataset as ``<directory>/<feed>.jsonl``."""
    os.makedirs(directory, exist_ok=True)
    for name, dataset in datasets.items():
        write_feed_jsonl(dataset, os.path.join(directory, f"{name}.jsonl"))


def read_feeds_dir(directory: str) -> Dict[str, FeedDataset]:
    """Read every ``*.jsonl`` feed file in *directory*."""
    datasets: Dict[str, FeedDataset] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".jsonl"):
            continue
        dataset = read_feed_jsonl(os.path.join(directory, entry))
        datasets[dataset.name] = dataset
    return datasets


def roundtrip_equal(a: FeedDataset, b: FeedDataset) -> bool:
    """True if two datasets are record-for-record identical."""
    return (
        a.name == b.name
        and a.feed_type is b.feed_type
        and a.has_volume == b.has_volume
        and a.records == b.records
    )
