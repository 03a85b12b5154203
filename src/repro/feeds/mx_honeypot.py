"""MX honeypot feeds (mx1, mx2, mx3).

An MX honeypot points a quiescent domain's MX record at an SMTP server
that accepts everything.  Such domains receive only spam addressed by
*brute force* (popular usernames sprayed at every domain with a valid
MX), so the feed sees broad, loud campaigns and almost nothing quiet
(Section 3.2).  False positives come from sender typos against
lexically-similar domains and from users entering dummy addresses at
sign-up forms (Section 3.3).
"""

from __future__ import annotations

import dataclasses
import random

from repro.ecosystem.entities import AddressStrategy, CampaignClass
from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset, FeedType
from repro.feeds.capture import (
    campaign_inclusion,
    capture_campaign_into,
    poisson,
    scatter_times,
)
from repro.io.columns import ColumnBuilder
from repro.stats.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class MxHoneypotConfig:
    """Tuning of one MX honeypot's apparatus.

    ``inclusion_probability`` models whether the honeypot's domain
    portfolio landed on a given campaign's brute-force list at all;
    ``catch_rate`` is the captured fraction of an included campaign's
    emitted volume (proportional to portfolio size).
    """

    name: str
    inclusion_probability: float
    catch_rate: float
    #: Inclusion probability for harvest-addressed campaigns.  Honeypots
    #: built on abandoned domains had their addresses harvested during
    #: the domain's former life, so they attract a slice of
    #: harvest-targeted broadcast spam as well (Section 3.2).
    harvested_inclusion: float = 0.0
    #: Whether the Rustock DGA episode's address list covered this
    #: honeypot's domains (true only for mx2 in the paper's data).
    sees_dga: bool = False
    #: Captured fraction of the DGA episode's volume when seen.
    dga_catch_rate: float = 0.0
    #: Unique benign domains leaking in via typos/sign-up addresses.
    benign_fp_domains: int = 60
    #: Expected total records of such benign leakage.
    benign_fp_volume: float = 300.0
    #: Multiplier on each campaign's chaff probability (MX feeds report
    #: every URL in a message, so they inherit the full chaff load).
    chaff_factor: float = 1.0
    #: Maximum list-traversal phase: the honeypot's domains occupy one
    #: position in a campaign's address list, so its first sighting of a
    #: domain lags the campaign start by up to this fraction of each
    #: placement (drives the honeypot lag in Figure 9).
    onset_max_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not (0.0 <= self.inclusion_probability <= 1.0):
            raise ValueError("inclusion_probability out of range")
        if self.catch_rate < 0:
            raise ValueError("catch_rate must be non-negative")


class MxHoneypotFeed(FeedCollector):
    """One MX honeypot feed collector."""

    feed_type = FeedType.MX_HONEYPOT
    has_volume = True

    def __init__(self, config: MxHoneypotConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def collect(self, world: World) -> FeedDataset:
        """Capture the brute-force-addressed slice of the world."""
        cfg = self.config
        builder = ColumnBuilder()
        rng_inclusion = self._rng("inclusion")
        rng_capture = self._rng("capture")

        for campaign in world.campaigns:
            if campaign.strategy is AddressStrategy.BRUTE_FORCE:
                inclusion = cfg.inclusion_probability
            elif campaign.strategy is AddressStrategy.HARVESTED:
                inclusion = cfg.harvested_inclusion
            else:
                continue
            if campaign.campaign_class is CampaignClass.DGA_POISON:
                if not cfg.sees_dga:
                    continue
                capture_campaign_into(
                    builder, rng_capture, campaign, cfg.dga_catch_rate
                )
                continue
            if not campaign_inclusion(rng_inclusion, inclusion):
                continue
            capture_campaign_into(
                builder,
                rng_capture,
                campaign,
                cfg.catch_rate,
                chaff_sampler=world.benign.sample_chaff,
                chaff_probability=(
                    campaign.chaff_probability * cfg.chaff_factor
                ),
                onset_max_fraction=cfg.onset_max_fraction,
                respect_broadcast_lag=True,
            )

        self._benign_leakage(world, builder)
        return self._finalize(world, builder)

    def _benign_leakage(self, world: World, builder: ColumnBuilder) -> None:
        """Typo mail and sign-up dummy addresses hitting the honeypot."""
        cfg = self.config
        rng = self._rng("benign-fp")
        pool = world.benign.alexa_ranked + world.benign.newsletter_domains
        if not pool or cfg.benign_fp_domains <= 0:
            return
        n_domains = min(cfg.benign_fp_domains, len(pool))
        chosen = rng.sample(pool, n_domains)
        tl = world.timeline
        per_domain = cfg.benign_fp_volume / n_domains
        for domain in chosen:
            n = max(1, poisson(rng, per_domain))
            builder.extend_burst(
                domain, scatter_times(rng, n, tl.start, tl.end)
            )
