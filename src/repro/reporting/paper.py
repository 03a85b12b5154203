"""The paper's artifacts -- Tables 1-3 and Figures 1-12 -- as one view.

:class:`PaperView` defines every artifact once: a data method
(``table1()`` ... ``figure12()``) and a ``render_*`` companion that
produces the paper-shaped text.  It reads only three attributes of
whatever it is mixed into:

* ``datasets`` -- feed name to :class:`~repro.feeds.base.FeedDataset`;
* ``feed_order`` -- the paper's row order for those feeds;
* ``comparison`` -- the :class:`~repro.analysis.FeedComparison` over
  those datasets.

The batch ``PaperPipeline``, its ``PipelineResult`` and an as-of-day
``StreamSnapshot`` all provide them, so a drained snapshot renders the
batch text byte for byte and an earlier one renders every artifact as
of its day.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis import (
    FeedComparison,
    affiliate_coverage_matrix,
    coverage_table,
    duration_errors,
    exclusive_scatter,
    first_appearance_latencies,
    kendall_matrix,
    last_appearance_gaps,
    pairwise_overlap,
    program_coverage_matrix,
    purity_table,
    revenue_coverage,
    variation_distance_matrix,
    volume_coverage,
)
from repro.analysis.affiliates import RevenueCoverageRow
from repro.analysis.coverage import CoverageRow, OverlapMatrix, ScatterPoint
from repro.analysis.purity import PurityRow
from repro.analysis.timing import BoxStats
from repro.analysis.volume import VolumeCoverageRow
from repro.feeds.base import FeedDataset
from repro.reporting.charts import (
    render_bars,
    render_box_stats,
    render_scatter,
    render_stacked_bars,
)
from repro.reporting.matrix import render_overlap_matrix, render_value_matrix
from repro.reporting.tables import Table, format_count, format_percent
from repro.simtime import MINUTES_PER_DAY, MINUTES_PER_HOUR

#: Every artifact, in paper order; each is rendered by the view's
#: ``render_<artifact>`` method.
ARTIFACTS = tuple(
    [f"table{i}" for i in (1, 2, 3)] + [f"figure{i}" for i in range(1, 13)]
)

#: Feeds measured in Figure 9 (all except Bot, whose domains barely
#: overlap the others).
FIG9_FEEDS = ("Hyb", "Ac2", "Ac1", "mx3", "mx2", "mx1", "uribl", "dbl", "Hu")

#: The live-mail (honeypot) feeds used for Figures 10-12.
HONEYPOT_FEEDS = ("Ac2", "Ac1", "mx3", "mx2", "mx1")


class PaperView:
    """Every paper table and figure over ``datasets``/``comparison``."""

    datasets: Mapping[str, FeedDataset]
    feed_order: Sequence[str]
    comparison: FeedComparison

    def _present(self, wanted: Optional[Sequence[str]] = None) -> List[str]:
        """*wanted* (default: ``feed_order``) minus feeds not held here."""
        present = self.datasets
        wanted = self.feed_order if wanted is None else wanted
        return [name for name in wanted if name in present]

    def render(self, artifacts: Sequence[str] = ARTIFACTS) -> str:
        """The named artifacts' text, separated by blank lines."""
        return "\n\n".join(
            getattr(self, f"render_{artifact}")() for artifact in artifacts
        )

    # -- Tables ----------------------------------------------------------

    def table1(self) -> Dict[str, Dict[str, int]]:
        """Feed summary: total samples and unique registered domains."""
        datasets = self.datasets
        return {
            name: {
                "samples": datasets[name].total_samples,
                "unique": datasets[name].n_unique,
            }
            for name in self._present()
        }

    def render_table1(self) -> str:
        """Table 1 in the paper's layout."""
        table = Table(
            ["Feed", "Type", "Domains", "Unique"],
            title="Table 1: Summary of spam domain sources (feeds)",
        )
        datasets = self.datasets
        for name in self._present():
            dataset = datasets[name]
            kind = dataset.feed_type.value
            table.add_row(
                name,
                kind.replace("_", " "),
                "n/a" if kind == "blacklist" else format_count(dataset.total_samples),
                format_count(dataset.n_unique),
            )
        return table.render()

    def table2(self) -> List[PurityRow]:
        """Purity indicators per feed."""
        return purity_table(self.comparison, self._present())

    def render_table2(self) -> str:
        """Table 2 in the paper's layout."""
        table = Table(
            ["Feed", "DNS", "HTTP", "Tagged", "ODP", "Alexa"],
            title="Table 2: Positive and negative indicators of feed purity",
        )
        for r in self.table2():
            cells = (r.dns, r.http, r.tagged, r.odp, r.alexa)
            table.add_row(r.feed, *map(format_percent, cells))
        return table.render()

    def table3(self) -> List[CoverageRow]:
        """Total/exclusive domain counts per feed."""
        return coverage_table(self.comparison, self._present())

    def render_table3(self) -> str:
        """Table 3 in the paper's layout."""
        table = Table(
            ["Feed", "All Total", "All Excl.", "Live Total", "Live Excl.",
             "Tagged Total", "Tagged Excl."],
            title="Table 3: Feed domain coverage",
        )
        for r in self.table3():
            cells = (r.total_all, r.exclusive_all, r.total_live,
                     r.exclusive_live, r.total_tagged, r.exclusive_tagged)
            table.add_row(r.feed, *map(format_count, cells))
        return table.render()

    # -- Figures 1-6: coverage -------------------------------------------

    def figure1(self, kind: str = "live") -> List[ScatterPoint]:
        """Distinct vs. exclusive scatter data."""
        return exclusive_scatter(self.comparison, kind, self._present())

    def render_figure1(self) -> str:
        """Both Figure 1 panels as scatter tables."""
        left = render_scatter(
            self.figure1("live"), title="Figure 1 (left): live domains"
        )
        right = render_scatter(
            self.figure1("tagged"), title="Figure 1 (right): tagged domains"
        )
        return f"{left}\n\n{right}"

    def figure2(self, kind: str = "live") -> OverlapMatrix:
        """Pairwise feed intersection matrix."""
        return pairwise_overlap(self.comparison, kind, self._present())

    def render_figure2(self) -> str:
        """Both Figure 2 matrices."""
        return "\n\n".join(
            render_overlap_matrix(
                self.figure2(kind),
                title=f"Figure 2 ({side}): pairwise intersection, {kind} domains",
            )
            for side, kind in (("left", "live"), ("right", "tagged"))
        )

    def figure3(self, kind: str = "live") -> List[VolumeCoverageRow]:
        """Volume coverage rows."""
        return volume_coverage(self.comparison, kind, self._present())

    def render_figure3(self) -> str:
        """Both Figure 3 panels as stacked bars."""
        return "\n\n".join(
            render_stacked_bars(
                [(r.feed, r.covered_fraction, r.benign_fraction)
                 for r in self.figure3(kind)],
                title=(
                    f"Figure 3 ({kind}): spam volume coverage "
                    "(# covered, : Alexa/ODP)"
                ),
            )
            for kind in ("live", "tagged")
        )

    def figure4(self) -> OverlapMatrix:
        """Affiliate-program coverage matrix."""
        return program_coverage_matrix(self.comparison, self._present())

    def render_figure4(self) -> str:
        """Figure 4 matrix."""
        return render_overlap_matrix(
            self.figure4(), title="Figure 4: pairwise affiliate-program coverage"
        )

    def figure5(self) -> OverlapMatrix:
        """RX-Promotion affiliate-id coverage matrix."""
        return affiliate_coverage_matrix(self.comparison, self._present())

    def render_figure5(self) -> str:
        """Figure 5 matrix."""
        return render_overlap_matrix(
            self.figure5(),
            title="Figure 5: pairwise RX-Promotion affiliate coverage",
        )

    def figure6(self) -> List[RevenueCoverageRow]:
        """Revenue-weighted affiliate coverage."""
        return revenue_coverage(self.comparison, self._present())

    def render_figure6(self) -> str:
        """Figure 6 bars (millions of USD)."""
        return render_bars(
            [(r.feed, r.covered_revenue / 1e6) for r in self.figure6()],
            unit="M USD",
            title=(
                "Figure 6: RX-Promotion affiliate coverage weighted by "
                "2010 revenue"
            ),
        )

    # -- Figures 7-8: proportionality ------------------------------------

    def _volume_feeds(self) -> List[str]:
        volume = set(self.comparison.volume_feed_names)
        return [name for name in self._present() if name in volume]

    def figure7(self) -> Dict[str, Dict[str, float]]:
        """Pairwise variation distance (volume feeds + Mail)."""
        return variation_distance_matrix(self.comparison, self._volume_feeds())

    def render_figure7(self) -> str:
        """Figure 7 matrix."""
        return render_value_matrix(
            self.figure7(),
            title=(
                "Figure 7: pairwise variational distance of tagged "
                "domain frequency"
            ),
        )

    def figure8(self) -> Dict[str, Dict[str, float]]:
        """Pairwise Kendall tau-b (volume feeds + Mail)."""
        return kendall_matrix(self.comparison, self._volume_feeds())

    def render_figure8(self) -> str:
        """Figure 8 matrix."""
        return render_value_matrix(
            self.figure8(),
            title=(
                "Figure 8: pairwise Kendall rank correlation of tagged "
                "domain frequency"
            ),
        )

    # -- Figures 9-12: timing --------------------------------------------

    def figure9(self) -> Dict[str, BoxStats]:
        """Relative first-appearance times, all feeds except Bot."""
        feeds = self._present(FIG9_FEEDS)
        return first_appearance_latencies(
            self.comparison, feeds, reference_feeds=feeds
        )

    def figure10(self) -> Dict[str, BoxStats]:
        """First-appearance times relative to honeypot feeds only."""
        return first_appearance_latencies(
            self.comparison, self._present(HONEYPOT_FEEDS)
        )

    def figure11(self) -> Dict[str, BoxStats]:
        """Last-appearance gap vs. aggregate campaign end."""
        return last_appearance_gaps(self.comparison, self._present(HONEYPOT_FEEDS))

    def figure12(self) -> Dict[str, BoxStats]:
        """Duration-estimate error vs. aggregate campaign duration."""
        return duration_errors(self.comparison, self._present(HONEYPOT_FEEDS))

    def render_figure9(self) -> str:
        """Figure 9 box summaries (days)."""
        return render_box_stats(
            self.figure9(),
            order=self._present(FIG9_FEEDS),
            divisor=MINUTES_PER_DAY,
            unit="days",
            title=(
                "Figure 9: relative first appearance time "
                "(campaign start from all feeds except Bot)"
            ),
        )

    def _render_hours(self, stats: Dict[str, BoxStats], title: str) -> str:
        """A honeypot-feed timing figure's box summaries, in hours."""
        return render_box_stats(
            stats,
            order=self._present(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title=title,
        )

    def render_figure10(self) -> str:
        """Figure 10 box summaries (hours)."""
        return self._render_hours(
            self.figure10(),
            "Figure 10: relative first appearance time "
            "(campaign start from MX/honey-account feeds only)",
        )

    def render_figure11(self) -> str:
        """Figure 11 box summaries (hours)."""
        return self._render_hours(
            self.figure11(), "Figure 11: last appearance vs. campaign end"
        )

    def render_figure12(self) -> str:
        """Figure 12 box summaries (hours)."""
        return self._render_hours(
            self.figure12(), "Figure 12: domain lifetime vs. campaign duration"
        )
