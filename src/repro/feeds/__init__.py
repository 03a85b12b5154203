"""Spam feed collectors.

Each collector observes the ground-truth :class:`repro.ecosystem.World`
through the biases of one collection methodology (Section 3.2 of the
paper) and produces a :class:`FeedDataset` of (registered domain,
timestamp) sighting records:

* :class:`MxHoneypotFeed` -- quiescent domains accepting all SMTP;
  sees only brute-force-addressed broadcast campaigns.
* :class:`HoneyAccountFeed` -- seeded accounts across providers; sees
  harvest-vector campaigns (and some brute force).
* :class:`BotnetFeed` -- output of monitored bots; perfectly pure except
  for the DGA poisoning episode, covers few programs/affiliates.
* :class:`HumanIdentifiedFeed` -- "this is spam" reports at a huge
  webmail provider; sees nearly every campaign but suppresses volume
  (reported domains are filtered thereafter) and adds human-timescale
  delay.
* :class:`BlacklistFeed` -- operational meta-feeds (dbl/uribl analogs);
  binary listing with latency, professionally scrubbed of false
  positives.
* :class:`HybridFeed` -- a mixture of email-derived and non-email
  (web-spam) sources.

:func:`standard_feed_suite` builds the paper's ten feeds.
"""

from repro.feeds.base import (
    FeedCollector,
    FeedDataset,
    FeedRecord,
    FeedType,
)
from repro.feeds.mx_honeypot import MxHoneypotConfig, MxHoneypotFeed
from repro.feeds.honey_account import HoneyAccountConfig, HoneyAccountFeed
from repro.feeds.botnet import BotnetFeedConfig, BotnetFeed
from repro.feeds.human import HumanFeedConfig, HumanIdentifiedFeed
from repro.feeds.blacklist import BlacklistConfig, BlacklistFeed
from repro.feeds.hybrid import HybridFeedConfig, HybridFeed
from repro.feeds.suite import (
    PAPER_FEED_ORDER,
    CollectState,
    collect_all,
    land_dataset,
    standard_feed_suite,
)

__all__ = [
    "BlacklistConfig",
    "BlacklistFeed",
    "BotnetFeed",
    "BotnetFeedConfig",
    "CollectState",
    "FeedCollector",
    "FeedDataset",
    "FeedRecord",
    "FeedType",
    "HoneyAccountConfig",
    "HoneyAccountFeed",
    "HumanFeedConfig",
    "HumanIdentifiedFeed",
    "HybridFeed",
    "HybridFeedConfig",
    "MxHoneypotConfig",
    "MxHoneypotFeed",
    "PAPER_FEED_ORDER",
    "collect_all",
    "land_dataset",
    "standard_feed_suite",
]
