"""The paper's Section 4 analysis methodology.

Everything is computed from a :class:`FeedComparison` context, which
couples the ten collected feed datasets with the measurement oracles and
performs the impurity-removal step of Section 4.1.4 (live = at least one
successful crawl, minus Alexa/ODP; tagged = known storefront, minus
Alexa/ODP).  On top of it:

* :mod:`repro.analysis.purity` -- Table 2 indicators,
* :mod:`repro.analysis.coverage` -- Table 3, Figures 1-2,
* :mod:`repro.analysis.volume` -- Figure 3 via the mail oracle,
* :mod:`repro.analysis.affiliates` -- Figures 4-6,
* :mod:`repro.analysis.proportionality` -- Figures 7-8,
* :mod:`repro.analysis.timing` -- Figures 9-12.
"""

from repro.analysis.context import FeedComparison
from repro.analysis.purity import PurityRow, purity_table
from repro.analysis.coverage import (
    CoverageRow,
    OverlapMatrix,
    coverage_table,
    exclusive_scatter,
    pairwise_overlap,
)
from repro.analysis.volume import VolumeCoverageRow, volume_coverage
from repro.analysis.affiliates import (
    affiliate_coverage_matrix,
    program_coverage_matrix,
    revenue_coverage,
)
from repro.analysis.proportionality import (
    kendall_matrix,
    variation_distance_matrix,
)
from repro.analysis.timing import (
    BoxStats,
    duration_errors,
    first_appearance_latencies,
    last_appearance_gaps,
)
from repro.analysis.recommend import (
    FeedScore,
    Question,
    diverse_portfolio,
    rank_feeds,
    recommend,
)
from repro.analysis.filtering import (
    FilterReport,
    evaluate_all_filters,
    evaluate_filter,
)

__all__ = [
    "BoxStats",
    "FeedScore",
    "FilterReport",
    "Question",
    "diverse_portfolio",
    "evaluate_all_filters",
    "evaluate_filter",
    "rank_feeds",
    "recommend",
    "CoverageRow",
    "FeedComparison",
    "OverlapMatrix",
    "PurityRow",
    "VolumeCoverageRow",
    "affiliate_coverage_matrix",
    "coverage_table",
    "duration_errors",
    "exclusive_scatter",
    "first_appearance_latencies",
    "kendall_matrix",
    "last_appearance_gaps",
    "pairwise_overlap",
    "program_coverage_matrix",
    "purity_table",
    "revenue_coverage",
    "variation_distance_matrix",
    "volume_coverage",
]
