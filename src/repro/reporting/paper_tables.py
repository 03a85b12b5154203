"""Shared Table 1/2/3 builders used by both batch and streaming paths.

The batch :class:`~repro.pipeline.runner.PaperPipeline` renders a
run's collected datasets; :class:`~repro.stream.engine.StreamSnapshot`
renders as-of-day prefixes of the same datasets and must print the
batch tables byte-for-byte once drained, so the data assembly and
rendering live here, in one place, and both call in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from repro.reporting.tables import Table, format_count, format_percent

#: Default titles, exactly as the paper-shaped report prints them.
TABLE1_TITLE = "Table 1: Summary of spam domain sources (feeds)"
TABLE2_TITLE = "Table 2: Positive and negative indicators of feed purity"
TABLE3_TITLE = "Table 3: Feed domain coverage"


def table1_data(
    datasets: Mapping[str, object], order: Sequence[str]
) -> Dict[str, Dict[str, int]]:
    """Table 1 cells: total samples and unique domains per feed.

    *datasets* maps feed name to any object with ``total_samples`` and
    ``n_unique`` (a :class:`~repro.feeds.base.FeedDataset`, whole or
    an as-of-day prefix).
    """
    return {
        name: {
            "samples": datasets[name].total_samples,
            "unique": datasets[name].n_unique,
        }
        for name in order
    }


def render_table1(
    datasets: Mapping[str, object],
    order: Sequence[str],
    title: str = TABLE1_TITLE,
) -> str:
    """Table 1 in the paper's layout."""
    table = Table(["Feed", "Type", "Domains", "Unique"], title=title)
    for name in order:
        dataset = datasets[name]
        samples = (
            "n/a"
            if dataset.feed_type.value == "blacklist"
            else format_count(dataset.total_samples)
        )
        table.add_row(
            name,
            dataset.feed_type.value.replace("_", " "),
            samples,
            format_count(dataset.n_unique),
        )
    return table.render()


def render_table2(rows: Iterable, title: str = TABLE2_TITLE) -> str:
    """Table 2 in the paper's layout, from :class:`PurityRow` rows."""
    table = Table(
        ["Feed", "DNS", "HTTP", "Tagged", "ODP", "Alexa"], title=title
    )
    for row in rows:
        table.add_row(
            row.feed,
            format_percent(row.dns),
            format_percent(row.http),
            format_percent(row.tagged),
            format_percent(row.odp),
            format_percent(row.alexa),
        )
    return table.render()


def render_table3(rows: Iterable, title: str = TABLE3_TITLE) -> str:
    """Table 3 in the paper's layout, from :class:`CoverageRow` rows."""
    table = Table(
        [
            "Feed",
            "All Total", "All Excl.",
            "Live Total", "Live Excl.",
            "Tagged Total", "Tagged Excl.",
        ],
        title=title,
    )
    for row in rows:
        table.add_row(
            row.feed,
            format_count(row.total_all),
            format_count(row.exclusive_all),
            format_count(row.total_live),
            format_count(row.exclusive_live),
            format_count(row.total_tagged),
            format_count(row.exclusive_tagged),
        )
    return table.render()
