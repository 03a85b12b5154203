"""The human-identified feed (Hu).

A very large webmail provider's users press "this is spam"; the provider
exports the advertised domains.  Three mechanisms shape this feed
(Sections 3.2 and 4.2.1):

* **Enormous net.**  With hundreds of millions of accounts, the provider
  receives essentially every campaign that targets real users --
  including the quiet, deliverability-engineered ones invisible to all
  honeypot apparatus.  This is why the smallest feed by volume is the
  biggest by coverage.
* **Volume suppression.**  Once users report a domain, it feeds the
  provider's filters and subsequent messages never reach an inbox, so
  per-domain report counts stay small regardless of campaign volume.
* **Human timescales.**  Reports happen when people read mail, adding
  hours-to-days of delay and distorting last-appearance times.

The feed's false positives are user mistakes: mis-reported newsletters
(legitimate commercial mail) and junk strings that were never domains.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict

from repro.ecosystem.entities import Campaign, CampaignClass
from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset, FeedType
from repro.feeds.capture import (
    REAL_USER_REACH,
    poisson,
    scatter_times,
)
from repro.io.columns import ColumnBuilder
from repro.stats.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class HumanFeedConfig:
    """Tuning of the webmail provider's report pipeline."""

    name: str = "Hu"
    #: Fraction of all real-user spam deliveries landing at this provider.
    provider_share: float = 0.45
    #: Fraction of delivered (inbox) spam that users report.
    report_rate: float = 0.20
    #: Mean human report delay, in minutes (users read mail in batches).
    report_delay_mean: float = 10 * 60.0
    #: Mean of the per-domain report cap: after the first reports arrive
    #: the domain is filtered, so only a geometric handful get through.
    suppression_cap_mean: float = 1.8
    #: Reports are made on everything that reaches the mailbox --
    #: including the spam folder, which users inspect and confirm -- so
    #: the provider sees even heavily-filtered campaigns at this
    #: effective minimum evasion level.
    evasion_floor: float = 0.15
    #: Unique never-registered junk names reported by confused users.
    junk_domains: int = 1_400
    #: Unique legitimate newsletter domains users mark as spam.
    newsletter_fp_domains: int = 250
    newsletter_fp_volume: float = 800.0
    #: Users report the advertised domain, not message plumbing, so the
    #: chaff load is far lower than in full-URL feeds.
    chaff_factor: float = 0.08

    def __post_init__(self) -> None:
        if not (0.0 < self.provider_share <= 1.0):
            raise ValueError("provider_share out of range")
        if not (0.0 < self.report_rate <= 1.0):
            raise ValueError("report_rate out of range")
        if self.suppression_cap_mean < 1:
            raise ValueError("suppression_cap_mean must be >= 1")


class HumanIdentifiedFeed(FeedCollector):
    """The human-identified webmail feed collector."""

    feed_type = FeedType.HUMAN_IDENTIFIED
    #: The provider exports reported domains, not message counts; like
    #: the blacklists, this feed is excluded from the proportionality
    #: analysis (Section 4.3).
    has_volume = False

    def __init__(self, config: HumanFeedConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def _report_delay(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.config.report_delay_mean)

    def _domain_cap(self, rng: random.Random) -> int:
        """Per-domain report budget before filtering silences it."""
        mean = self.config.suppression_cap_mean
        # Geometric with the configured mean (support starting at 1).
        p = 1.0 / mean
        cap = 1
        while rng.random() > p:
            cap += 1
            if cap >= 200:
                break
        return cap

    def collect(self, world: World) -> FeedDataset:
        """Gather user reports with suppression and human delay."""
        cfg = self.config
        builder = ColumnBuilder()
        rng_capture = self._rng("capture")
        rng_caps = self._rng("caps")
        caps: Dict[str, int] = {}

        for campaign in world.campaigns:
            if campaign.campaign_class is CampaignClass.DGA_POISON:
                # DGA mail advertises dead names; filters drop nearly all
                # of it, and users who do see it have nothing to click.
                # A trickle still gets reported.
                self._capture_campaign(
                    world, campaign, 0.000_5, builder, rng_capture,
                    rng_caps, caps,
                )
                continue
            exposure = cfg.provider_share * cfg.report_rate
            self._capture_campaign(
                world, campaign, exposure, builder, rng_capture, rng_caps,
                caps,
            )

        self._junk_reports(world, builder)
        self._newsletter_reports(world, builder)
        return self._finalize(world, builder)

    def _capture_campaign(
        self,
        world: World,
        campaign: Campaign,
        exposure: float,
        builder: ColumnBuilder,
        rng: random.Random,
        rng_caps: random.Random,
        caps: Dict[str, int],
    ) -> None:
        cfg = self.config
        reach = REAL_USER_REACH[campaign.strategy]
        evasion = max(campaign.filter_evasion, cfg.evasion_floor)
        for placement in campaign.placements:
            delivered = placement.volume * reach * evasion
            expected = delivered * exposure
            n = poisson(rng, expected)
            if n <= 0:
                continue
            if placement.domain not in caps:
                caps[placement.domain] = self._domain_cap(rng_caps)
            budget = caps[placement.domain]
            if budget <= 0:
                continue
            n = min(n, budget)
            caps[placement.domain] = budget - n
            times = scatter_times(
                rng,
                n,
                placement.start,
                placement.end,
                delay=self._report_delay,
            )
            builder.extend_burst(placement.domain, times)
            for t in times:
                if rng.random() < campaign.chaff_probability * cfg.chaff_factor:
                    builder.append(world.benign.sample_chaff(rng), t)

    def _junk_reports(self, world: World, builder: ColumnBuilder) -> None:
        """Junk strings users submit that were never real domains."""
        cfg = self.config
        rng = self._rng("junk")
        pool = world.junk_domains
        if not pool or cfg.junk_domains <= 0:
            return
        n_domains = min(cfg.junk_domains, len(pool))
        chosen = rng.sample(pool, n_domains)
        tl = world.timeline
        for domain in chosen:
            n = 1 + poisson(rng, 0.3)
            builder.extend_burst(
                domain, scatter_times(rng, n, tl.start, tl.end)
            )

    def _newsletter_reports(
        self, world: World, builder: ColumnBuilder
    ) -> None:
        """Legitimate commercial mail mis-reported as spam."""
        cfg = self.config
        rng = self._rng("newsletters")
        pool = world.benign.newsletter_domains + world.benign.alexa_ranked[:500]
        if not pool or cfg.newsletter_fp_domains <= 0:
            return
        n_domains = min(cfg.newsletter_fp_domains, len(pool))
        chosen = rng.sample(pool, n_domains)
        tl = world.timeline
        per_domain = cfg.newsletter_fp_volume / n_domains
        for domain in chosen:
            n = max(1, poisson(rng, per_domain))
            builder.extend_burst(
                domain, scatter_times(rng, n, tl.start, tl.end)
            )
