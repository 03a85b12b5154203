"""Statistics utilities used throughout the reproduction.

This package provides the deterministic random-variate samplers used by
the ecosystem simulator, the empirical-distribution machinery used by the
proportionality analysis, and the two distribution-comparison metrics the
paper uses in Section 4.3: variation distance and the tie-aware Kendall
rank correlation coefficient (tau-b).
"""

from repro.stats.distributions import (
    EmpiricalDistribution,
    bounded_pareto,
    truncated_lognormal,
    zipf_weights,
    zipf_sample,
)
from repro.stats.kendall import kendall_tau_b
from repro.stats.metrics import variation_distance
from repro.stats.rng import SeedSequence, derive_rng

__all__ = [
    "EmpiricalDistribution",
    "SeedSequence",
    "bounded_pareto",
    "derive_rng",
    "kendall_tau_b",
    "truncated_lognormal",
    "variation_distance",
    "zipf_sample",
    "zipf_weights",
]
