"""The hybrid feed (Hyb).

The paper could not learn this provider's exact methodology and believes
it mixes multiple collection methods, including non-email sources: the
feed contributes an enormous number of live domains that appear in no
other feed, yet its tagged domains cover almost none of the real mail
volume (Figures 1 and 3).  We model it as:

* an *email component* that includes domains broadly but with a penalty
  on the highest-volume placements (aggressive deduplication and odd
  trap placement under-sample the loudest head of the distribution), and
* a *web-spam component*: domains scraped from the web (link spam,
  search-engine bait) that never occur in email at all -- many of them
  dead or unregistered, dragging the feed's DNS purity down to ~64%.
"""

from __future__ import annotations

import dataclasses
import random

from repro.ecosystem.entities import CampaignClass
from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset, FeedType
from repro.feeds.capture import exponential_delay, poisson, scatter_times
from repro.io.columns import ColumnBuilder
from repro.stats.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class HybridFeedConfig:
    """Tuning of the hybrid feed's two components."""

    name: str = "Hyb"
    #: Base per-domain inclusion probability of the email component.
    domain_inclusion: float = 0.35
    #: Placement volume above which inclusion probability decays.
    volume_penalty_scale: float = 3_000.0
    volume_penalty_exponent: float = 1.3
    #: Captured records per unit of (penalty-capped) placement volume.
    catch_rate: float = 0.05
    #: Cap on the effective volume used for record counts (dedup-like).
    volume_cap: float = 600.0
    #: Mean observation delay of the email component (this feed contains
    #: user-reported material; Section 4.4).
    delay_mean_minutes: float = 2.0 * 24 * 60
    #: Expected records per web-spam domain.
    webspam_records_mean: float = 28.0
    #: Benign (Alexa/ODP) domains swept up by the web-spam scrapers.
    webspam_benign_domains: int = 2_200
    webspam_benign_records_mean: float = 6.0
    chaff_factor: float = 0.6

    def __post_init__(self) -> None:
        if not (0.0 <= self.domain_inclusion <= 1.0):
            raise ValueError("domain_inclusion out of range")
        if self.volume_penalty_scale <= 0:
            raise ValueError("volume_penalty_scale must be positive")


class HybridFeed(FeedCollector):
    """The hybrid (multi-methodology) feed collector."""

    feed_type = FeedType.HYBRID
    #: Table 1 reports sample counts for Hyb, but the provider's records
    #: are not per-message sightings, so the paper excludes it from the
    #: proportionality analysis (Section 4.3).
    has_volume = False

    def __init__(self, config: HybridFeedConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def _inclusion_probability(self, volume: float) -> float:
        """Per-placement-domain inclusion with a loud-head penalty."""
        cfg = self.config
        if volume <= cfg.volume_penalty_scale:
            return cfg.domain_inclusion
        penalty = (cfg.volume_penalty_scale / volume) ** (
            cfg.volume_penalty_exponent
        )
        return cfg.domain_inclusion * penalty

    def collect(self, world: World) -> FeedDataset:
        """Combine the email and web-spam components."""
        builder = ColumnBuilder()
        self._email_component(world, builder)
        self._webspam_component(world, builder)
        return self._finalize(world, builder)

    def _email_component(self, world: World, builder: ColumnBuilder) -> None:
        cfg = self.config
        rng_inclusion = self._rng("inclusion")
        rng_capture = self._rng("capture")
        delay = exponential_delay(cfg.delay_mean_minutes)
        for campaign in world.campaigns:
            if campaign.campaign_class is CampaignClass.DGA_POISON:
                continue
            for placement in campaign.placements:
                probability = self._inclusion_probability(placement.volume)
                if rng_inclusion.random() >= probability:
                    continue
                effective = min(placement.volume, cfg.volume_cap)
                n = poisson(rng_capture, effective * cfg.catch_rate)
                if n <= 0:
                    # Inclusion means the source saw it at least once.
                    n = 1
                times = scatter_times(
                    rng_capture,
                    n,
                    placement.start,
                    placement.end,
                    delay=delay,
                )
                builder.extend_burst(placement.domain, times)
                chaff_p = campaign.chaff_probability * cfg.chaff_factor
                for t in times:
                    if rng_capture.random() < chaff_p:
                        builder.append(
                            world.benign.sample_chaff(rng_capture), t
                        )

    def _webspam_component(
        self, world: World, builder: ColumnBuilder
    ) -> None:
        cfg = self.config
        rng = self._rng("webspam")
        tl = world.timeline
        for domain in world.hyb_webspam:
            n = max(1, poisson(rng, cfg.webspam_records_mean))
            builder.extend_burst(
                domain, scatter_times(rng, n, tl.start, tl.end)
            )
        # Scrapers also sweep up plenty of ordinary benign sites, which
        # is why the paper finds ~10-12% of Hyb on the Alexa/ODP lists.
        pool = sorted(world.benign.alexa_set | world.benign.odp_domains)
        n_benign = min(cfg.webspam_benign_domains, len(pool))
        for domain in rng.sample(pool, n_benign):
            n = max(1, poisson(rng, cfg.webspam_benign_records_mean))
            builder.extend_burst(
                domain, scatter_times(rng, n, tl.start, tl.end)
            )
