"""Seeded honey-account feeds (Ac1, Ac2).

Honey accounts are mailboxes created across many providers and seeded
onto the vectors spammers harvest (forums, web pages, mailing lists).
They capture harvest-addressed campaigns well, brute-force campaigns
partially, and -- since the accounts are not real people -- nothing that
targets purchased lists or social graphs (Section 3.2).
"""

from __future__ import annotations

import dataclasses
import math
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
class HoneyAccountConfig:
    """Tuning of one honey-account network.

    Seeding quality is the whole game: a well-seeded network
    (high ``harvested_inclusion``) lands on many harvest lists; a poorly
    seeded one sees few campaigns -- though each included campaign may
    still hammer the accounts (``catch_rate``), which is how a feed ends
    up with huge volume over very few domains (the paper's Ac2).
    """

    name: str
    harvested_inclusion: float
    brute_inclusion: float
    catch_rate: float
    #: When positive, inclusion probability is additionally scaled by
    #: ``volume / (volume + volume_bias_scale)``: a thin or oddly-seeded
    #: account network only lands on the *big* harvest lists, so it sees
    #: few campaigns -- but loud ones (the paper's Ac2 signature: huge
    #: sample count over very few domains).
    volume_bias_scale: float = 0.0
    #: Lognormal sigma of per-campaign catch-rate jitter.  A thin,
    #: oddly-churned account network over- and under-samples campaigns
    #: erratically, distorting its volume proportions (the paper's Ac2
    #: is "most unlike the rest" in Figures 7 and 8).
    catch_jitter_sigma: float = 0.0
    benign_fp_domains: int = 50
    benign_fp_volume: float = 250.0
    chaff_factor: float = 1.0
    #: Maximum list-traversal phase (see MxHoneypotConfig).
    onset_max_fraction: float = 0.10

    def __post_init__(self) -> None:
        for field in ("harvested_inclusion", "brute_inclusion"):
            value = getattr(self, field)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{field} out of range")
        if self.catch_rate < 0:
            raise ValueError("catch_rate must be non-negative")


class HoneyAccountFeed(FeedCollector):
    """One seeded honey-account feed collector."""

    feed_type = FeedType.HONEY_ACCOUNT
    has_volume = True

    def __init__(self, config: HoneyAccountConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def _inclusion_probability(self, strategy: AddressStrategy) -> float:
        if strategy is AddressStrategy.HARVESTED:
            return self.config.harvested_inclusion
        if strategy is AddressStrategy.BRUTE_FORCE:
            return self.config.brute_inclusion
        # Purchased lists and social-graph targeting never reach
        # accounts that are not real users.
        return 0.0

    def collect(self, world: World) -> FeedDataset:
        """Capture the harvest/brute-force slice of the world."""
        cfg = self.config
        builder = ColumnBuilder()
        rng_inclusion = self._rng("inclusion")
        rng_capture = self._rng("capture")

        for campaign in world.campaigns:
            if campaign.campaign_class is CampaignClass.DGA_POISON:
                continue  # honey-account domains were not on Rustock's list
            probability = self._inclusion_probability(campaign.strategy)
            if cfg.volume_bias_scale > 0:
                volume = campaign.total_volume
                probability *= volume / (volume + cfg.volume_bias_scale)
            if not campaign_inclusion(rng_inclusion, probability):
                continue
            catch = cfg.catch_rate
            if cfg.catch_jitter_sigma > 0:
                catch *= math.exp(
                    rng_capture.gauss(0.0, cfg.catch_jitter_sigma)
                )
            capture_campaign_into(
                builder,
                rng_capture,
                campaign,
                catch,
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
        """Username typos and list cross-contamination."""
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
