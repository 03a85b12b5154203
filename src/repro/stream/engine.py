"""The streaming analysis engine: an as-of-day view over collected feeds.

Every :class:`~repro.feeds.base.FeedDataset` is a column block, and
collected ones are time-sorted, so the stream "as of day D" is each
feed's prefix of records strictly before D's start boundary -- one
``bisect_left`` over the feed's time column.  :class:`StreamEngine`
holds one prefix length per feed; moving it to any day (forward or
back) is a bisect per feed.  A :class:`StreamSnapshot` wraps the
prefixes in ``FeedDataset.from_block`` views (no copy of the columns
beyond the prefix slice) and is a
:class:`~repro.reporting.paper.PaperView` over them: the same
:class:`FeedComparison` analyses and renderers the batch
:class:`~repro.pipeline.runner.PaperPipeline` uses, so any snapshot
renders every table and figure as of its day, and a drained snapshot is
the batch output, byte for byte.

The sources are deterministic functions of ``(config, seed)``, so "as
of day D" needs no saved state: any process that rebuilds the sources
reaches the same position with one ``advance_to_day(D)``.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.analysis.context import FeedComparison
from repro.analysis.coverage import exclusive_counts
from repro.ecosystem import EcosystemConfig
from repro.ecosystem.world import World
from repro.feeds import (
    FeedCollector,
    FeedDataset,
    PAPER_FEED_ORDER,
)
from repro.io.columns import ColumnBlock
from repro.reporting.paper import PaperView
from repro.simtime import MINUTES_PER_DAY, SimTime
from repro.store.sightings import RunWriter, SightingStore, run_key_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.artifacts import ArtifactCache


@dataclasses.dataclass
class StreamSnapshot(PaperView):
    """Frozen as-of-now analysis over each feed's consumed prefix.

    ``datasets`` holds one dataset per feed over the prefix (feeds with
    no records yet hold an empty one).  Every table and figure of the
    :class:`~repro.reporting.paper.PaperView` is computed lazily through
    a :class:`FeedComparison` over those datasets, so taking a snapshot
    is cheap and analyzing it is decoupled from the engine's position.
    """

    world: World
    seed: int
    datasets: Mapping[str, FeedDataset]
    feed_order: Sequence[str]
    records_processed: int
    as_of: Optional[SimTime]

    def __post_init__(self) -> None:
        self._comparison: Optional[FeedComparison] = None

    @property
    def as_of_day(self) -> Optional[int]:
        """Zero-based day index of the snapshot clock (None when empty)."""
        if self.as_of is None:
            return None
        return self.world.timeline.day_of(self.as_of)

    @property
    def comparison(self) -> FeedComparison:
        """The (lazily built) analysis context over the prefix datasets."""
        if self._comparison is None:
            self._comparison = FeedComparison(
                self.world, dict(self.datasets), seed=self.seed
            )
        return self._comparison

    def domain_spread(self) -> Tuple[int, int]:
        """(distinct domains across all feeds, domains seen by one feed)."""
        sets = {
            name: ds.unique_domains() for name, ds in self.datasets.items()
        }
        singles = exclusive_counts(sets)
        return (
            len(set().union(*sets.values())),
            sum(singles[name] for name in sets),
        )

    def header(self) -> str:
        """One-line provenance banner for as-of-day output."""
        day = self.as_of_day
        when = "before any records" if day is None else f"day {day + 1}"
        return (
            f"[stream] as of {when}: "
            f"{self.records_processed:,} records processed"
        )

    def render_tables(self) -> str:
        """All three tables, separated by blank lines."""
        return self.render(("table1", "table2", "table3"))


def _time_sorted(dataset: FeedDataset) -> ColumnBlock:
    """*dataset*'s columns in non-decreasing time order.

    Collected datasets are already time-sorted and are used as they
    are; anything else gets one stable time sort, so same-minute
    sightings keep their record order.
    """
    block = dataset.block
    return block if block.is_chronological() else block.sorted_by_time()


class StreamEngine:
    """Positioned as-of-day view over a run's collected feed datasets.

    The position is a day boundary; each feed's prefix is its records
    strictly before that boundary.
    """

    def __init__(
        self,
        world: World,
        datasets: Mapping[str, FeedDataset],
        seed: int = 2012,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
    ):
        if not datasets:
            raise ValueError("need at least one feed dataset")
        for name, ds in datasets.items():
            # Snapshots and store landings key by name.
            if ds.name != name:
                raise ValueError(
                    f"dataset {ds.name!r} registered under {name!r}"
                )
        self.world = world
        self.seed = seed
        self.feed_order = list(feed_order)
        self.datasets = dict(datasets)
        self._blocks: Dict[str, ColumnBlock] = {
            name: _time_sorted(ds) for name, ds in self.datasets.items()
        }
        #: Per-feed prefix length: records before the current boundary.
        self._cuts: Dict[str, int] = {name: 0 for name in self._blocks}
        self._writer: Optional[RunWriter] = None
        #: Per-feed prefix length already offered to the store writer.
        self._landed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Store landing
    # ------------------------------------------------------------------

    def attach_store(
        self,
        store: SightingStore,
        config_fingerprint: str,
        command: str = "stream",
    ) -> None:
        """Land every consumed prefix into *store*, idempotently.

        The run key derives from (config fingerprint, seed), the same
        identity the artifact cache uses, so a batch ``run --store``
        and a ``stream --store`` against the same file land the same
        run exactly once.  The first advance after attaching offers
        each feed's prefix from record 0, so the writer's prefix skip
        makes the store hold the whole prefix even when the engine was
        positioned before the store was attached.
        """
        self._writer = store.open_run(
            run_key_for(config_fingerprint, self.seed),
            self.seed,
            config_fingerprint,
            command,
        )
        self._landed = {name: 0 for name in self._blocks}

    def _land(self) -> None:
        if self._writer is None:
            return
        for name, block in self._blocks.items():
            start, stop = self._landed[name], self._cuts[name]
            if stop <= start:
                continue
            self._writer.land_sightings(
                name,
                block.domains[start:stop],
                block.times[start:stop],
                start=start,
            )
            self._landed[name] = stop
        self._writer.finish()

    def finish_store(self) -> None:
        """Commit any store landings performed so far."""
        if self._writer is not None:
            self._writer.finish()

    # ------------------------------------------------------------------
    # Position
    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every feed's prefix covers all of its records."""
        return all(
            self._cuts[name] == len(block)
            for name, block in self._blocks.items()
        )

    @property
    def records_processed(self) -> int:
        """Records inside the current prefixes."""
        return sum(self._cuts[name] for name in self._blocks)

    @property
    def position(self) -> Optional[SimTime]:
        """Simulation time of the latest record inside the prefixes."""
        last = [
            block.times[self._cuts[name] - 1]
            for name, block in self._blocks.items()
            if self._cuts[name]
        ]
        return max(last) if last else None

    def _move(self, cuts: Dict[str, int]) -> int:
        before = self.records_processed
        self._cuts = cuts
        self._land()
        moved = self.records_processed - before
        if moved > 0:
            obs.add("stream.records", moved)
        return moved

    def advance_to_day(self, day: int) -> int:
        """Position the view at the start of (zero-based) *day*.

        Each feed's prefix becomes its records strictly before the day
        boundary.  Any day may be asked for, earlier or later than the
        current one.  Returns the change in :attr:`records_processed`.
        """
        boundary = self.world.timeline.start + day * MINUTES_PER_DAY
        with obs.span("stream.advance", day=day) as span:
            moved = self._move(
                {
                    name: bisect_left(block.times, boundary)
                    for name, block in self._blocks.items()
                }
            )
            if span is not None:
                span.attributes["records"] = moved
        return moved

    def run(self) -> int:
        """Extend every prefix to the feed's end; returns the change."""
        with obs.span("stream.drain") as span:
            moved = self._move(
                {name: len(block) for name, block in self._blocks.items()}
            )
            if span is not None:
                span.attributes["records"] = moved
        return moved

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> StreamSnapshot:
        """The analysis view over the current prefixes."""
        obs.add("stream.snapshots")
        datasets: Dict[str, FeedDataset] = {}
        for name, block in self._blocks.items():
            cut = self._cuts[name]
            if cut < len(block):
                block = ColumnBlock(
                    block.domains[:cut], block.times[:cut], chronological=True
                )
            ds = self.datasets[name]
            datasets[name] = FeedDataset.from_block(
                ds.name, ds.feed_type, ds.has_volume, block
            )
        return StreamSnapshot(
            world=self.world,
            seed=self.seed,
            datasets=datasets,
            feed_order=self.feed_order,
            records_processed=self.records_processed,
            as_of=self.position,
        )

    def __repr__(self) -> str:
        return (
            f"StreamEngine(records={self.records_processed}, "
            f"exhausted={self.exhausted})"
        )


def build_stream_engine(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    collectors: Optional[Sequence[FeedCollector]] = None,
    feed_order: Sequence[str] = PAPER_FEED_ORDER,
    jobs: Optional[int] = None,
    cache: Optional["ArtifactCache"] = None,
) -> StreamEngine:
    """Build the world, collect the feed suite, and wrap it in an engine.

    The datasets are deterministic functions of ``(config, seed)``,
    so every process that builds the engine for one run slices
    identical datasets.
    ``jobs`` parallelizes collection and ``cache`` reuses a previously
    built world + dataset state; neither changes a byte of the output.
    """
    # Imported lazily to keep the stream layer importable without the
    # pipeline layer.
    from repro.pipeline.runner import PaperPipeline

    # Close the pipeline once collected: the stream engine only needs
    # the state, so any worker pool the run forked would otherwise idle
    # for the engine's whole lifetime.
    with PaperPipeline(
        config, seed=seed, collectors=collectors, feed_order=feed_order,
        jobs=jobs, cache=cache,
    ) as pipeline:
        return pipeline.stream_engine()
