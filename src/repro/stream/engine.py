"""The streaming analysis engine: an as-of-day view over collected feeds.

Every :class:`~repro.feeds.base.FeedDataset` is a column block, and
collected ones are time-sorted, so the stream "as of day D" is each
feed's prefix of records strictly before D's start boundary -- one
``bisect_left`` over the feed's time column.  :class:`StreamEngine`
holds one prefix length per feed; moving it to any day (forward or
back) is a bisect per feed.  A :class:`StreamSnapshot` wraps the
prefixes in ``FeedDataset.from_block`` views (no copy of the columns
beyond the prefix slice) and hands them to the same
:class:`FeedComparison` analyses and renderers the batch
:class:`~repro.pipeline.runner.PaperPipeline` uses, so a drained
snapshot is the batch output, byte for byte.

The sources are deterministic functions of ``(config, seed)``, so a
checkpoint is just the run key and the day: resuming rebuilds the
sources and re-slices them through :mod:`repro.io.checkpoint`.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.analysis.context import FeedComparison
from repro.analysis.coverage import (
    CoverageRow,
    OverlapMatrix,
    ScatterPoint,
    coverage_table,
    exclusive_counts,
    exclusive_scatter,
    pairwise_overlap,
)
from repro.analysis.purity import PurityRow, purity_table
from repro.analysis.volume import VolumeCoverageRow, volume_coverage
from repro.ecosystem import EcosystemConfig
from repro.ecosystem.world import World
from repro.feeds import (
    FeedCollector,
    FeedDataset,
    PAPER_FEED_ORDER,
)
from repro.io.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.io.columns import ColumnBlock
from repro.reporting.paper_tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_data,
)
from repro.simtime import MINUTES_PER_DAY, SimTime
from repro.store.sightings import RunWriter, SightingStore, run_key_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.artifacts import ArtifactCache

#: Checkpoint envelope kind for stream-engine positions.
CHECKPOINT_KIND = "stream-engine"


@dataclasses.dataclass
class StreamSnapshot:
    """Frozen as-of-now analysis over each feed's consumed prefix.

    ``feeds`` holds one dataset per feed over the prefix
    (feeds with no records yet hold an empty one).  The heavy artifacts
    (purity, coverage, overlap, volume) are computed lazily through a
    :class:`FeedComparison` over those datasets, so taking a snapshot is
    cheap and analyzing it is decoupled from the engine's position.
    """

    world: World
    seed: int
    feeds: Mapping[str, FeedDataset]
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
                self.world, dict(self.feeds), seed=self.seed
            )
        return self._comparison

    def _present(self, wanted: Optional[Sequence[str]] = None) -> List[str]:
        wanted = self.feed_order if wanted is None else wanted
        return [name for name in wanted if name in self.feeds]

    def domain_spread(self) -> Tuple[int, int]:
        """(distinct domains across all feeds, domains seen by one feed)."""
        sets = {name: ds.unique_domains() for name, ds in self.feeds.items()}
        singles = exclusive_counts(sets)
        return (
            len(set().union(*sets.values())),
            sum(singles[name] for name in sets),
        )

    # -- Table/figure data, mirroring PaperPipeline ---------------------

    def table1(self) -> Dict[str, Dict[str, int]]:
        """Feed summary: total samples and unique domains so far."""
        return table1_data(self.feeds, self._present())

    def table2(self) -> List[PurityRow]:
        """Purity indicators per feed, as of the consumed prefix."""
        return purity_table(self.comparison, self._present())

    def table3(self) -> List[CoverageRow]:
        """Total/exclusive domain counts per feed."""
        return coverage_table(self.comparison, self._present())

    def figure1(self, kind: str = "live") -> List[ScatterPoint]:
        """Distinct vs. exclusive scatter data."""
        return exclusive_scatter(self.comparison, kind, self._present())

    def figure2(self, kind: str = "live") -> OverlapMatrix:
        """Pairwise feed intersection matrix."""
        return pairwise_overlap(self.comparison, kind, self._present())

    def figure3(self, kind: str = "live") -> List[VolumeCoverageRow]:
        """Volume coverage rows."""
        return volume_coverage(self.comparison, kind, self._present())

    # -- Rendering ------------------------------------------------------

    def header(self) -> str:
        """One-line provenance banner for as-of-day output."""
        day = self.as_of_day
        when = "before any records" if day is None else f"day {day + 1}"
        return (
            f"[stream] as of {when}: "
            f"{self.records_processed:,} records processed"
        )

    def render_table1(self) -> str:
        """Table 1 in the paper's layout (batch-identical when drained)."""
        return render_table1(self.feeds, self._present())

    def render_table2(self) -> str:
        """Table 2 in the paper's layout."""
        return render_table2(self.table2())

    def render_table3(self) -> str:
        """Table 3 in the paper's layout."""
        return render_table3(self.table3())

    def render_tables(self) -> str:
        """All three tables, separated by blank lines."""
        return "\n\n".join(
            [self.render_table1(), self.render_table2(), self.render_table3()]
        )


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
    strictly before that boundary.  ``run_key`` identifies the (config,
    seed) run the datasets came from and is what checkpoints record.
    """

    def __init__(
        self,
        world: World,
        datasets: Mapping[str, FeedDataset],
        seed: int = 2012,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
        run_key: Optional[str] = None,
    ):
        if not datasets:
            raise ValueError("need at least one feed dataset")
        for name, ds in datasets.items():
            # Snapshots, checkpoints and store landings all key by name.
            if ds.name != name:
                raise ValueError(
                    f"dataset {ds.name!r} registered under {name!r}"
                )
        self.world = world
        self.seed = seed
        self.feed_order = list(feed_order)
        self.datasets = dict(datasets)
        self.run_key = run_key
        self._blocks: Dict[str, ColumnBlock] = {
            name: _time_sorted(ds) for name, ds in self.datasets.items()
        }
        #: Per-feed prefix length: records before the current boundary.
        self._cuts: Dict[str, int] = {name: 0 for name in self._blocks}
        #: The day the cuts stand at; None once drained.
        self._day: Optional[int] = 0
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
        positioned (resumed) before the store was attached.
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
            self._day = day
            if span is not None:
                span.attributes["records"] = moved
        return moved

    def run(self) -> int:
        """Extend every prefix to the feed's end; returns the change."""
        with obs.span("stream.drain") as span:
            moved = self._move(
                {name: len(block) for name, block in self._blocks.items()}
            )
            self._day = None
            if span is not None:
                span.attributes["records"] = moved
        return moved

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> StreamSnapshot:
        """The analysis view over the current prefixes."""
        obs.add("stream.snapshots")
        feeds: Dict[str, FeedDataset] = {}
        for name, block in self._blocks.items():
            cut = self._cuts[name]
            if cut < len(block):
                block = ColumnBlock(
                    block.domains[:cut], block.times[:cut], chronological=True
                )
            ds = self.datasets[name]
            feeds[name] = FeedDataset.from_block(
                ds.name, ds.feed_type, ds.has_volume, block
            )
        return StreamSnapshot(
            world=self.world,
            seed=self.seed,
            feeds=feeds,
            feed_order=self.feed_order,
            records_processed=self.records_processed,
            as_of=self.position,
        )

    def daily_snapshots(
        self, every_days: int = 1
    ) -> Iterator[StreamSnapshot]:
        """Windowed emission: a snapshot after each *every_days* of data.

        Yields the snapshot as of the end of day ``every_days``,
        ``2*every_days``, ... up to and including the end of the window
        (the final snapshot covers every record).
        """
        if every_days <= 0:
            raise ValueError("every_days must be positive")
        timeline = self.world.timeline
        total_days = int(timeline.duration_days)
        day = every_days
        while day < total_days:
            self.advance_to_day(day)
            yield self.snapshot()
            day += every_days
        self.run()
        yield self.snapshot()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def checkpoint_payload(self) -> Dict[str, Any]:
        """The resumable position: run identity plus day (None: drained)."""
        return {"run_key": self.run_key, "day": self._day}

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the current position to *path*."""
        if self.run_key is None:
            raise CheckpointError(
                "engine has no run key; build it through "
                "PaperPipeline.stream_engine() to checkpoint it"
            )
        write_checkpoint(path, CHECKPOINT_KIND, self.checkpoint_payload())

    def resume(self, path: str) -> None:
        """Move to the position recorded in checkpoint *path*.

        The checkpoint must come from the same (config, seed) run as
        this engine's datasets; a foreign one raises
        :class:`CheckpointError`.
        """
        payload = read_checkpoint(path, CHECKPOINT_KIND)
        run_key = payload.get("run_key")
        day = payload.get("day")
        if not isinstance(run_key, str) or not (
            day is None
            or (type(day) is int and day >= 0)
        ):
            raise CheckpointError(f"{path}: bad stream checkpoint payload")
        if run_key != self.run_key:
            raise CheckpointError(
                f"{path}: checkpoint belongs to run {run_key!r}, not to "
                f"this run {self.run_key!r} (different config, scale or "
                "seed)"
            )
        if day is None:
            self.run()
        else:
            self.advance_to_day(day)

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
    shards: Optional[int] = None,
) -> StreamEngine:
    """Build the world, collect the feed suite, and wrap it in an engine.

    The datasets are deterministic functions of ``(config, seed)``,
    which is what makes checkpoints portable across processes: a
    resuming run rebuilds identical datasets and re-slices them.
    ``jobs`` parallelizes collection, ``shards`` parallelizes the world
    build itself, and ``cache`` reuses a previously built world +
    dataset state; none of them changes a byte of the output.
    """
    # Imported lazily to keep the stream layer importable without the
    # pipeline layer.
    from repro.pipeline.runner import PaperPipeline

    # Close the pipeline once collected: the stream engine only needs
    # the state, so any worker pool the run forked would otherwise idle
    # for the engine's whole lifetime.
    with PaperPipeline(
        config, seed=seed, collectors=collectors, feed_order=feed_order,
        jobs=jobs, cache=cache, shards=shards,
    ) as pipeline:
        return pipeline.stream_engine()
