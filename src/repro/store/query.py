"""Read-side queries over a persisted sighting store.

These are the answers ``python -m repro query`` renders: cross-run
first-seen lookups, per-feed gold rollups, and raw sighting listings.
Everything here is read-only and deterministic -- rows come out of the
backend in documented orders, and rendering uses the same aligned
:class:`~repro.reporting.tables.Table` style as the paper tables, so
query output is stable across runs.
"""

from __future__ import annotations

from os.path import exists
from typing import List, Optional

from repro.reporting.tables import Table
from repro.simtime import MINUTES_PER_DAY
from repro.store.backend import StoreError
from repro.store.sightings import SightingStore


def open_store_file(path: str) -> SightingStore:
    """Open an existing store file for querying.

    Unlike :meth:`SightingStore.open`, this refuses to create a file:
    a query against a mistyped path should fail loudly, not
    materialize an empty database and report zero sightings.
    """
    if not exists(path):
        raise StoreError(f"{path}: no such store file")
    return SightingStore.open(path)


def _fmt_time(t: int) -> str:
    """Render a sim time as ``minute (day D)``."""
    return f"{t} (day {t // MINUTES_PER_DAY})"


def render_first_seen(store: SightingStore, domain: str) -> str:
    """Which feeds saw *domain*, ordered earliest sighting first."""
    rows = store.first_seen(domain)
    if not rows:
        return f"domain {domain!r}: no sightings in store"
    table = Table(
        ["feed", "first seen", "last seen", "sightings"],
        title=f"first-seen: {domain}",
    )
    for row in rows:
        table.add_row(
            row.feed,
            _fmt_time(row.first_seen),
            _fmt_time(row.last_seen),
            row.n_sightings,
        )
    return table.render()


def render_feed_stats(store: SightingStore) -> str:
    """Per-feed gold rollups plus bronze drop accounting."""
    summaries = store.feed_summaries()
    if not summaries:
        return "store holds no sightings"
    rejected = {
        (row.feed, row.reason): row.count
        for row in store.bronze_summary()
        if row.status != "ok"
    }
    rejected_per_feed: dict[str, int] = {}
    for (feed, _reason), count in rejected.items():
        rejected_per_feed[feed] = rejected_per_feed.get(feed, 0) + count
    table = Table(
        ["feed", "sightings", "domains", "first", "last", "rejected"],
        title="feed-stats",
    )
    for row in summaries:
        table.add_row(
            row.feed,
            row.sightings,
            row.domains,
            _fmt_time(row.first_seen),
            _fmt_time(row.last_seen),
            rejected_per_feed.get(row.feed, 0),
        )
    lines = [table.render()]
    if rejected:
        detail = Table(["feed", "reason", "count"], title="rejections")
        for feed, reason in sorted(rejected):
            detail.add_row(feed, reason, rejected[(feed, reason)])
        lines.append("")
        lines.append(detail.render())
    return "\n".join(lines)


def render_sightings(
    store: SightingStore,
    feed: Optional[str] = None,
    since_day: Optional[int] = None,
    limit: Optional[int] = None,
) -> str:
    """Silver sightings in landing order, optionally filtered."""
    since = None if since_day is None else since_day * MINUTES_PER_DAY
    rows = store.sightings(feed=feed, since=since, limit=limit)
    if not rows:
        return "no sightings match"
    table = Table(
        ["seq", "run", "feed", "domain", "time"], title="sightings"
    )
    for row in rows:
        table.add_row(
            row.seq, row.run_id, row.feed, row.domain, _fmt_time(row.time)
        )
    return table.render()


def render_runs(store: SightingStore) -> str:
    """Every run landed in the store."""
    rows = store.runs()
    if not rows:
        return "store holds no runs"
    table = Table(
        ["run", "seed", "config", "command"], title="runs"
    )
    for row in rows:
        table.add_row(
            row.run_id, row.seed, row.config_fingerprint[:12], row.command
        )
    return table.render()


__all__: List[str] = [
    "open_store_file",
    "render_feed_stats",
    "render_first_seen",
    "render_runs",
    "render_sightings",
]
