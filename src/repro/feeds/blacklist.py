"""Domain blacklist feeds (dbl, uribl analogs).

Blacklists are *meta-feeds*: operationally-maintained lists driven by
combinations of real-time spam sources (Section 3.2).  They represent a
domain in a binary fashion -- listed at time t or not -- so their
datasets carry one record per domain and no volume information.

The evidence model reflects the two source families the paper infers:

* *broad sensors* (honeypot-like): evidence grows with a domain's
  emitted volume weighted by how broadly its campaigns address mail, and
* *user reports* (webmail-like): evidence grows with volume actually
  delivered to real users, catching quiet campaigns too.

The dbl analog leans on user-style sources (huge coverage, lists quiet
domains, sub-day latency); the uribl analog leans on broad sensors
(smaller list, but nearly all of the high-volume domains -- which is why
it tops the tagged-volume coverage in Figure 3).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Optional

from repro.ecosystem.entities import AddressStrategy
from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset, FeedType
from repro.feeds.capture import delivered_placement_volume
from repro.io.columns import ColumnBuilder
from repro.stats.rng import derive_rng

#: How visible each address strategy is to broad (honeypot-like) sensors.
BROAD_SENSOR_REACH: Dict[AddressStrategy, float] = {
    AddressStrategy.BRUTE_FORCE: 1.0,
    AddressStrategy.HARVESTED: 0.7,
    AddressStrategy.PURCHASED: 0.05,
    AddressStrategy.SOCIAL: 0.02,
}


@dataclasses.dataclass(frozen=True)
class BlacklistConfig:
    """Evidence thresholds and latency for one blacklist."""

    name: str
    #: Volume scale at which broad-sensor evidence saturates.
    broad_volume_scale: float
    #: Delivered-volume scale at which user-report evidence saturates.
    user_volume_scale: float
    #: Weight of the user-report component in [0, 1].
    user_weight: float
    #: Mean listing latency after a domain first appears in spam.
    latency_mean_minutes: float
    #: Expected number of benign domains erroneously listed (the paper
    #: finds <1% for dbl, ~2% for uribl).
    benign_fp_domains: int = 5

    def __post_init__(self) -> None:
        if self.broad_volume_scale <= 0 or self.user_volume_scale <= 0:
            raise ValueError("volume scales must be positive")
        if not (0.0 <= self.user_weight <= 1.0):
            raise ValueError("user_weight out of range")
        if self.latency_mean_minutes <= 0:
            raise ValueError("latency must be positive")


class BlacklistFeed(FeedCollector):
    """One operational domain blacklist."""

    feed_type = FeedType.BLACKLIST
    has_volume = False

    def __init__(self, config: BlacklistConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed
        #: Listing evidence per domain, computed once per world.  A
        #: typed field (not a dynamic attribute) so mypy sees it and it
        #: survives pickling for process-pool transport.
        self._evidence: Optional[Dict[str, float]] = None

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def _domain_evidence(self, world: World) -> Dict[str, float]:
        """Accumulate listing evidence per advertised registered domain."""
        cfg = self.config
        evidence: Dict[str, float] = {}
        for campaign in world.campaigns:
            broad_reach = BROAD_SENSOR_REACH[campaign.strategy]
            for placement in campaign.placements:
                broad = placement.volume * broad_reach / cfg.broad_volume_scale
                user = (
                    cfg.user_weight
                    * delivered_placement_volume(campaign, placement)
                    / cfg.user_volume_scale
                )
                evidence[placement.domain] = (
                    evidence.get(placement.domain, 0.0) + broad + user
                )
        return evidence

    def collect(self, world: World) -> FeedDataset:
        """List domains whose evidence crosses the operational threshold."""
        cfg = self.config
        rng = self._rng("listing")
        first_advertised: Dict[str, int] = {}
        for domain, entries in world.placements_by_domain().items():
            first_advertised[domain] = min(p.start for _, p in entries)

        builder = ColumnBuilder()
        for domain in sorted(first_advertised):
            # Professional maintenance: never list names that do not
            # resolve (this keeps the DGA flood and junk out entirely).
            if not world.registry.is_registered(domain):
                continue
            evidence = self._evidence_cache(world).get(domain, 0.0)
            probability = 1.0 - math.exp(-evidence)
            if rng.random() >= probability:
                continue
            latency = rng.expovariate(1.0 / cfg.latency_mean_minutes)
            builder.append(domain, first_advertised[domain] + int(latency))

        self._benign_false_positives(world, builder)
        return self._finalize(world, builder)

    def _evidence_cache(self, world: World) -> Dict[str, float]:
        if self._evidence is None:
            self._evidence = self._domain_evidence(world)
        return self._evidence

    def _benign_false_positives(
        self, world: World, builder: ColumnBuilder
    ) -> None:
        """The occasional mistaken listing of an ordinary benign site."""
        cfg = self.config
        if cfg.benign_fp_domains <= 0:
            return
        rng = self._rng("benign-fp")
        pool = sorted(world.benign.odp_domains | world.benign.alexa_set)
        n = min(cfg.benign_fp_domains, len(pool))
        chosen = rng.sample(pool, n)
        tl = world.timeline
        for domain in chosen:
            builder.append(domain, rng.randrange(tl.start, tl.end))
