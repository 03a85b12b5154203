"""The paper's ten-feed suite, pre-configured.

Parameter choices are calibrated so the collected datasets reproduce the
qualitative relationships of Tables 1-3 and Figures 1-12 (see
EXPERIMENTS.md for the target shapes).  All values are per-feed
apparatus properties -- portfolio sizes, seeding quality, monitoring
fractions, listing thresholds -- not per-result fudge factors.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro import obs
from repro.ecosystem.world import World
from repro.feeds.base import FeedCollector, FeedDataset
from repro.feeds.blacklist import BlacklistConfig, BlacklistFeed
from repro.feeds.botnet import BotnetFeedConfig, BotnetFeed
from repro.feeds.honey_account import HoneyAccountConfig, HoneyAccountFeed
from repro.feeds.human import HumanFeedConfig, HumanIdentifiedFeed
from repro.feeds.hybrid import HybridFeedConfig, HybridFeed
from repro.feeds.mx_honeypot import MxHoneypotConfig, MxHoneypotFeed
from repro.parallel import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.sightings import RunWriter

#: Feed mnemonics in the paper's Table 1 order.
PAPER_FEED_ORDER = (
    "Hu", "uribl", "dbl", "mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb",
)


def standard_feed_suite(seed: int = 2012) -> List[FeedCollector]:
    """Build collectors for the paper's ten feeds."""
    return [
        HumanIdentifiedFeed(HumanFeedConfig(), seed),
        BlacklistFeed(
            BlacklistConfig(
                name="uribl",
                broad_volume_scale=600.0,
                user_volume_scale=2_600.0,
                user_weight=0.4,
                latency_mean_minutes=26 * 60.0,
                benign_fp_domains=24,
            ),
            seed,
        ),
        BlacklistFeed(
            BlacklistConfig(
                name="dbl",
                broad_volume_scale=6_000.0,
                user_volume_scale=70.0,
                user_weight=1.0,
                latency_mean_minutes=12 * 60.0,
                benign_fp_domains=8,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx1",
                inclusion_probability=0.80,
                harvested_inclusion=0.40,
                catch_rate=0.016,
                sees_dga=False,
                benign_fp_domains=90,
                benign_fp_volume=700.0,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx2",
                inclusion_probability=0.90,
                harvested_inclusion=0.55,
                catch_rate=0.045,
                sees_dga=True,
                dga_catch_rate=0.05,
                benign_fp_domains=40,
                benign_fp_volume=500.0,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx3",
                inclusion_probability=0.60,
                harvested_inclusion=0.30,
                catch_rate=0.014,
                sees_dga=False,
                benign_fp_domains=60,
                benign_fp_volume=350.0,
            ),
            seed,
        ),
        HoneyAccountFeed(
            HoneyAccountConfig(
                name="Ac1",
                harvested_inclusion=0.75,
                brute_inclusion=0.45,
                catch_rate=0.014,
                benign_fp_domains=70,
                benign_fp_volume=450.0,
            ),
            seed,
        ),
        HoneyAccountFeed(
            HoneyAccountConfig(
                name="Ac2",
                harvested_inclusion=0.55,
                brute_inclusion=0.35,
                catch_rate=0.02,
                volume_bias_scale=10_000.0,
                catch_jitter_sigma=1.4,
                benign_fp_domains=18,
                benign_fp_volume=300.0,
                chaff_factor=0.05,
            ),
            seed,
        ),
        BotnetFeed(
            BotnetFeedConfig(
                name="Bot",
                monitor_fraction=0.022,
                dga_monitor_factor=3.0,
                chaff_factor=0.15,
            ),
            seed,
        ),
        HybridFeed(HybridFeedConfig(), seed),
    ]


@dataclasses.dataclass(eq=False)
class CollectState:
    """What collect tasks read: the world and the collectors, by index.

    A :class:`~repro.parallel.WorkerPool` opened over it hands it to
    every forked worker at fork time (copy-on-write), so a task carries
    only a collector index.
    """

    world: World
    collectors: List[FeedCollector]


def _collect_task(state: CollectState, index: int) -> FeedDataset:
    """Pool task: run the *index*-th collector of *state*."""
    return state.collectors[index].collect(state.world)


def land_dataset(writer: "RunWriter", dataset: FeedDataset) -> None:
    """Land one collected dataset into a sighting-store run."""
    block = dataset.block
    writer.land_sightings(dataset.name, zip(block.domains, block.times))


def collect_all(
    world: World,
    collectors: Optional[Iterable[FeedCollector]] = None,
    writer: Optional["RunWriter"] = None,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, FeedDataset]:
    """Run every collector against *world*; keyed by feed mnemonic.

    The collectors run on *pool*, which must have been opened over the
    :class:`CollectState` of this world and collector list; without
    one they run in-process, in collector order.  Each collector draws
    only from its own seed-derived RNG streams and results are reduced
    in collector order, so the datasets are byte-identical at any pool
    width (a forked worker's dataset arrives as its packed columns and
    unpacks to the same block).

    With a *writer* attached, each dataset lands in the sighting store
    in collector order.  Landing is a store-side effect only -- the
    returned datasets are identical with or without it.
    """
    ordered = (
        list(collectors)
        if collectors is not None
        else standard_feed_suite()
    )
    seen: set = set()
    for name in (collector.name for collector in ordered):
        if name in seen:
            raise ValueError(f"duplicate feed name {name!r}")
        seen.add(name)
    if pool is None:
        pool = WorkerPool(1, CollectState(world, ordered))
    elif pool.state.world is not world:
        raise ValueError("pool was not opened over this world")

    datasets: Dict[str, FeedDataset] = {}
    for dataset in pool.run_batch(
        _collect_task,
        list(range(len(ordered))),
        labels=[f"feed.collect:{collector.name}" for collector in ordered],
    ):
        obs.add("feeds.records", dataset.total_samples)
        if writer is not None:
            with obs.span(f"store.land:{dataset.name}"):
                land_dataset(writer, dataset)
        datasets[dataset.name] = dataset
    return datasets
