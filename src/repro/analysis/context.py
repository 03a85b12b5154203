"""The shared analysis context: feeds + oracles + impurity removal."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.ecosystem.world import World
from repro.feeds.base import FeedDataset, FeedType
from repro.oracles.crawler import CrawlOracle, CrawlResult
from repro.oracles.dns_zone import ZoneOracle
from repro.oracles.mail_oracle import IncomingMailOracle
from repro.oracles.weblists import AlexaList, OdpDirectory
from repro.simtime import SimTime


class FeedComparison:
    """Couples feed datasets with oracles and derived domain sets.

    Accepts any mapping of :class:`~repro.feeds.base.FeedDataset`
    objects -- a batch run's collected datasets or a :mod:`repro.stream`
    snapshot's as-of-day prefixes -- and produces identical results for
    identical records.

    Mirrors the paper's data handling:

    * Blacklist feeds are restricted to domains that also occur in at
      least one of the eight base feeds (the original study could not
      crawl blacklist-only domains; Section 3.4).
    * Every domain is crawled at its earliest sighting across all feeds.
    * ``live``  = crawl reached a live site, minus Alexa/ODP listings.
    * ``tagged`` = crawl reached a known storefront, minus Alexa/ODP.
      (Section 4.1.4's conservative false-positive removal.)
    """

    def __init__(
        self,
        world: World,
        datasets: Mapping[str, FeedDataset],
        seed: int = 0,
        restrict_blacklists: bool = True,
    ):
        self.world = world
        self.datasets: Dict[str, FeedDataset] = dict(datasets)
        if not self.datasets:
            raise ValueError("need at least one feed dataset")
        self.zone = ZoneOracle.from_world(world)
        self.alexa = AlexaList.from_world(world)
        self.odp = OdpDirectory.from_world(world)
        self.crawler = CrawlOracle(world, seed)
        self.mail = IncomingMailOracle(world, seed=seed)
        self.restrict_blacklists = restrict_blacklists

        self._unique_cache: Optional[Dict[str, Set[str]]] = None
        self._first_seen_cache: Optional[Dict[str, SimTime]] = None
        self._crawl_cache: Optional[Dict[str, CrawlResult]] = None
        #: The crawler draws from one sequential RNG stream, so two
        #: threads crawling at once would interleave its draws and
        #: change verdicts; the first crawl runs under this lock.
        self._crawl_lock = threading.Lock()
        self._blacklist_excluded: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Feed partitions
    # ------------------------------------------------------------------

    @property
    def feed_names(self) -> List[str]:
        """All feed mnemonics, in insertion order."""
        return list(self.datasets)

    @property
    def base_feed_names(self) -> List[str]:
        """The non-blacklist ("base") feeds."""
        return [
            name
            for name, ds in self.datasets.items()
            if ds.feed_type is not FeedType.BLACKLIST
        ]

    @property
    def blacklist_names(self) -> List[str]:
        """The blacklist feeds."""
        return [
            name
            for name, ds in self.datasets.items()
            if ds.feed_type is FeedType.BLACKLIST
        ]

    @property
    def volume_feed_names(self) -> List[str]:
        """Feeds whose records carry per-message volume (Section 4.3)."""
        return [name for name, ds in self.datasets.items() if ds.has_volume]

    # ------------------------------------------------------------------
    # Domain sets
    # ------------------------------------------------------------------

    def unique_domains(self, feed: str) -> Set[str]:
        """A feed's distinct domains, after blacklist restriction."""
        return self._unique_domains()[feed]

    def _unique_domains(self) -> Dict[str, Set[str]]:
        if self._unique_cache is not None:
            return self._unique_cache
        base_union: Set[str] = set()
        for name in self.base_feed_names:
            base_union |= self.datasets[name].unique_domains()
        unique: Dict[str, Set[str]] = {}
        for name, ds in self.datasets.items():
            domains = set(ds.unique_domains())
            if (
                self.restrict_blacklists
                and ds.feed_type is FeedType.BLACKLIST
            ):
                restricted = domains & base_union
                self._blacklist_excluded[name] = len(domains) - len(
                    restricted
                )
                domains = restricted
            unique[name] = domains
        self._unique_cache = unique
        return unique

    def blacklist_excluded_count(self, feed: str) -> int:
        """How many blacklist-only domains the restriction dropped."""
        self._unique_domains()
        return self._blacklist_excluded.get(feed, 0)

    def union_domains(self, feeds: Optional[Iterable[str]] = None) -> Set[str]:
        """Union of unique domains over *feeds* (default: all)."""
        names = list(feeds) if feeds is not None else self.feed_names
        union: Set[str] = set()
        for name in names:
            union |= self.unique_domains(name)
        return union

    # ------------------------------------------------------------------
    # Crawling
    # ------------------------------------------------------------------

    def union_first_seen(self) -> Dict[str, SimTime]:
        """Earliest sighting of each domain across all feeds."""
        if self._first_seen_cache is not None:
            return self._first_seen_cache
        first: Dict[str, SimTime] = {}
        for name, ds in self.datasets.items():
            keep = self.unique_domains(name)
            for domain, t in ds.first_seen().items():
                if domain not in keep:
                    continue
                prev = first.get(domain)
                if prev is None or t < prev:
                    first[domain] = t
        self._first_seen_cache = first
        return first

    def crawl_results(self) -> Dict[str, CrawlResult]:
        """One crawl verdict per domain, at union first-seen time."""
        if self._crawl_cache is None:
            with self._crawl_lock:
                if self._crawl_cache is None:
                    self._crawl_cache = self.crawler.crawl_at_first_seen(
                        self.union_first_seen()
                    )
        return self._crawl_cache

    # ------------------------------------------------------------------
    # Impurity removal (Section 4.1.4)
    # ------------------------------------------------------------------

    def benign_listed(self, domains: Iterable[str]) -> Set[str]:
        """The Alexa/ODP-listed subset of *domains*."""
        return {
            d for d in domains if d in self.alexa or d in self.odp
        }

    def live_domains(self, feed: str) -> Set[str]:
        """Live domains of *feed*: crawl-alive minus Alexa/ODP."""
        results = self.crawl_results()
        return {
            d
            for d in self.unique_domains(feed)
            if results[d].http_ok
            and d not in self.alexa
            and d not in self.odp
        }

    def tagged_domains(self, feed: str) -> Set[str]:
        """Tagged domains of *feed*: storefront-tagged minus Alexa/ODP."""
        results = self.crawl_results()
        return {
            d
            for d in self.unique_domains(feed)
            if results[d].tagged
            and d not in self.alexa
            and d not in self.odp
        }

    def excluded_benign(self, feed: str, tagged_only: bool = False) -> Set[str]:
        """Alexa/ODP domains the removal step dropped from *feed*.

        With ``tagged_only`` the set is limited to benign domains whose
        crawl was nonetheless tagged (abused redirectors) -- the stack
        of the right-hand plot in Figure 3.
        """
        results = self.crawl_results()
        dropped: Set[str] = set()
        for d in self.unique_domains(feed):
            if d not in self.alexa and d not in self.odp:
                continue
            verdict = results[d]
            if tagged_only:
                if verdict.tagged:
                    dropped.add(d)
            elif verdict.http_ok:
                dropped.add(d)
        return dropped

    def all_live(self) -> Set[str]:
        """Union of live domains over all feeds (Figure 2's All column)."""
        union: Set[str] = set()
        for name in self.feed_names:
            union |= self.live_domains(name)
        return union

    def all_tagged(self) -> Set[str]:
        """Union of tagged domains over all feeds."""
        union: Set[str] = set()
        for name in self.feed_names:
            union |= self.tagged_domains(name)
        return union

    # ------------------------------------------------------------------
    # Affiliate structure (Section 4.2.3-4.2.4)
    # ------------------------------------------------------------------

    def programs_of(self, feed: str) -> Set[int]:
        """Affiliate programs represented by a feed's tagged domains."""
        results = self.crawl_results()
        return {
            results[d].program_id
            for d in self.tagged_domains(feed)
            if results[d].program_id is not None
        }

    def rx_affiliates_of(self, feed: str) -> Set[int]:
        """RX-Promotion affiliate ids visible in a feed's tagged domains."""
        results = self.crawl_results()
        rx = self.world.rx_program_id()
        return {
            results[d].affiliate_id
            for d in self.tagged_domains(feed)
            if results[d].program_id == rx
            and results[d].affiliate_id is not None
        }
