"""The botnet feed (Bot).

Captured bot instances run in a contained environment; everything they
try to send is recorded.  The feed is perfectly pure in the sense that
every record really was emitted by a spamming botnet -- but it only
covers the campaigns the *monitored* botnets deliver, and during the
measurement period that included Rustock's domain-poisoning episode, so
the feed is flooded with unregistered random names (Section 4.1.1).
"""

from __future__ import annotations

import dataclasses
import random

from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset, FeedType
from repro.feeds.capture import capture_campaign_into
from repro.io.columns import ColumnBuilder
from repro.stats.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class BotnetFeedConfig:
    """Tuning of the botnet-monitoring apparatus.

    ``monitor_fraction`` is the share of a monitored botnet's total
    output the sandboxed instances represent (a handful of bots out of
    tens of thousands, but bots are interchangeable, so the sample is
    representative of the botnet's domain mix).
    """

    name: str = "Bot"
    monitor_fraction: float = 0.02
    #: The DGA episode is emitted by a monitored botnet at full tilt;
    #: its capture uses the same monitor fraction scaled by this factor
    #: (sandbox instances kept pace with the episode).
    dga_monitor_factor: float = 3.0
    chaff_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.monitor_fraction < 0:
            raise ValueError("monitor_fraction must be non-negative")
        if self.dga_monitor_factor < 0:
            raise ValueError("dga_monitor_factor must be non-negative")


class BotnetFeed(FeedCollector):
    """The monitored-botnet output feed."""

    feed_type = FeedType.BOTNET
    has_volume = True

    def __init__(self, config: BotnetFeedConfig, seed: int):
        self.config = config
        self.name = config.name
        self._seed = seed

    def _rng(self, label: str) -> random.Random:
        return derive_rng(self._seed, f"feed.{self.name}.{label}")

    def collect(self, world: World) -> FeedDataset:
        """Record the output of every monitored botnet's campaigns."""
        cfg = self.config
        monitored = world.monitored_botnet_ids()
        builder = ColumnBuilder()
        rng_capture = self._rng("capture")

        for campaign in world.campaigns:
            if campaign.botnet_id is None or campaign.botnet_id not in monitored:
                continue
            if world.dga_campaign is not None and campaign is world.dga_campaign:
                exposure = cfg.monitor_fraction * cfg.dga_monitor_factor
            else:
                exposure = cfg.monitor_fraction
            capture_campaign_into(
                builder,
                rng_capture,
                campaign,
                exposure,
                chaff_sampler=world.benign.sample_chaff,
                chaff_probability=(
                    campaign.chaff_probability * cfg.chaff_factor
                ),
                respect_broadcast_lag=True,
            )
        return self._finalize(world, builder)
