"""The streaming analysis engine: consume, snapshot, checkpoint, resume.

:class:`StreamEngine` pulls bounded batches off a
:class:`~repro.stream.merge.RecordStream`, folds them into a
:class:`~repro.stream.state.StreamState`, and can at any moment produce
a :class:`StreamSnapshot` -- the paper's Table 1/2/3 (and Figure 1-3
data) *as of* the records consumed so far.  A snapshot taken after the
stream is fully drained is byte-identical to the batch
:class:`~repro.pipeline.runner.PaperPipeline` output: both paths feed
the same statistics into the same :class:`FeedComparison` analyses and
the same renderers.

Checkpointing serializes the accumulator state plus the merge-layer
cursor vector through :mod:`repro.io.checkpoint`; resuming rebuilds the
(deterministic) sources, seeks the cursors, and continues exactly where
the previous run stopped.
"""

from __future__ import annotations

import dataclasses
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
    read_checkpoint_any,
    write_checkpoint,
)
from repro.reporting.paper_tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_data,
)
from repro.simtime import MINUTES_PER_DAY, SimTime
from repro.store.sightings import RunWriter, SightingStore, run_key_for
from repro.stream.merge import DEFAULT_BATCH_SIZE, RecordStream, StreamEvent
from repro.stream.state import (
    FrozenFeedStats,
    OnlineCoverageRow,
    StreamState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.artifacts import ArtifactCache

#: Checkpoint envelope kind for stream-engine state.
CHECKPOINT_KIND = "stream-engine"

#: Checkpoint envelope kind for store-backed cursor checkpoints: the
#: accumulator state is reconstructed from the sighting store, so the
#: file carries only the merge cursors and a pointer at the store.
CURSOR_CHECKPOINT_KIND = "stream-cursor"


@dataclasses.dataclass
class StreamSnapshot:
    """Frozen as-of-now analysis over the consumed prefix of the stream.

    The heavy artifacts (purity, coverage, overlap, volume) are computed
    lazily through a :class:`FeedComparison` built over frozen
    accumulator statistics, so taking a snapshot is cheap and analyzing
    it is decoupled from the still-advancing stream.
    """

    world: World
    seed: int
    feeds: Mapping[str, FrozenFeedStats]
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
        """The (lazily built) analysis context over the frozen stats."""
        if self._comparison is None:
            self._comparison = FeedComparison(
                self.world, dict(self.feeds), seed=self.seed
            )
        return self._comparison

    def _present(self, wanted: Optional[Sequence[str]] = None) -> List[str]:
        wanted = self.feed_order if wanted is None else wanted
        return [name for name in wanted if name in self.feeds]

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


class StreamEngine:
    """Incrementally analyze feed records in simulation-time order."""

    def __init__(
        self,
        world: World,
        datasets: Mapping[str, FeedDataset],
        seed: int = 2012,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.world = world
        self.seed = seed
        self.feed_order = list(feed_order)
        self.datasets = dict(datasets)
        self._stream = RecordStream(
            {
                name: ds.chronological_records()
                for name, ds in self.datasets.items()
            },
            batch_size=batch_size,
        )
        self.state = StreamState(
            [
                (ds.name, ds.feed_type, ds.has_volume)
                for ds in self.datasets.values()
            ]
        )
        self._writer: Optional[RunWriter] = None
        self._store_path: Optional[str] = None
        self._run_key: Optional[str] = None
        #: True while every store landing this session validated clean;
        #: a rejection would desynchronize silver replay from the merge
        #: cursors, so checkpoints fall back to full state payloads.
        self._store_clean = True

    # ------------------------------------------------------------------
    # Store landing
    # ------------------------------------------------------------------

    def attach_store(
        self,
        store: SightingStore,
        path: str,
        config_fingerprint: str,
        command: str = "stream",
    ) -> None:
        """Land every consumed batch into *store*, idempotently.

        The run key derives from (config fingerprint, seed), the same
        identity the artifact cache uses, so a batch ``run --store``
        and a ``stream --store`` against the same file land the same
        run exactly once.  When the engine is already positioned
        mid-stream (a resumed run), the writer's per-feed positions
        are aligned with the merge cursors so the suffix about to be
        consumed lands after the already-durable prefix.
        """
        self._run_key = run_key_for(config_fingerprint, self.seed)
        self._writer = store.open_run(
            self._run_key, self.seed, config_fingerprint, command
        )
        self._store_path = path
        for feed, cursor in self._stream.cursors.items():
            self._writer.set_position(feed, cursor)

    def _land_batch(self, batch: Sequence[StreamEvent]) -> None:
        if self._writer is None:
            return
        groups: Dict[str, List[Tuple[str, SimTime]]] = {}
        for time, feed, domain in batch:
            groups.setdefault(feed, []).append((domain, time))
        for feed, rows in groups.items():
            stats = self._writer.land_sightings(feed, rows)
            if stats.rejected:
                self._store_clean = False

    def finish_store(self) -> None:
        """Commit any store landings performed so far."""
        if self._writer is not None:
            self._writer.finish()

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every source record has been consumed."""
        return self._stream.exhausted

    @property
    def records_processed(self) -> int:
        """Total records folded into the state so far."""
        return self.state.records_processed

    @property
    def position(self) -> Optional[SimTime]:
        """Simulation time of the last consumed record."""
        return self._stream.position

    def process(
        self,
        max_records: Optional[int] = None,
        until_time: Optional[SimTime] = None,
    ) -> int:
        """Consume events (bounded by count and/or time); returns #consumed."""
        consumed = 0
        batches = 0
        while max_records is None or consumed < max_records:
            limit = None if max_records is None else max_records - consumed
            batch = self._stream.next_batch(limit=limit, until_time=until_time)
            if not batch:
                break
            self.state.update_batch(batch)
            self._land_batch(batch)
            consumed += len(batch)
            batches += 1
        if self._writer is not None:
            self._writer.finish()
        obs.add("stream.records", consumed)
        obs.add("stream.batches", batches)
        return consumed

    def advance_to_day(self, day: int) -> int:
        """Consume everything before the start of (zero-based) *day*."""
        boundary = self.world.timeline.start + day * MINUTES_PER_DAY
        with obs.span("stream.advance", day=day) as span:
            consumed = self.process(until_time=boundary)
            if span is not None:
                span.attributes["records"] = consumed
        return consumed

    def run(self) -> int:
        """Drain the stream to the end of the window; returns #consumed."""
        with obs.span("stream.drain") as span:
            consumed = self.process()
            if span is not None:
                span.attributes["records"] = consumed
        return consumed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> StreamSnapshot:
        """Freeze the current state for analysis."""
        obs.add("stream.snapshots")
        return StreamSnapshot(
            world=self.world,
            seed=self.seed,
            feeds=self.state.freeze(),
            feed_order=self.feed_order,
            records_processed=self.state.records_processed,
            as_of=self.state.clock,
        )

    def online_coverage(self) -> List[OnlineCoverageRow]:
        """The cheap oracle-free running coverage view."""
        return self.state.online_coverage()

    def daily_snapshots(
        self, every_days: int = 1
    ) -> Iterator[StreamSnapshot]:
        """Windowed emission: a snapshot after each *every_days* of data.

        Yields the snapshot as of the end of day ``every_days``,
        ``2*every_days``, ... up to and including the end of the window
        (the final snapshot covers the fully drained stream).
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
        """The complete resumable position as a JSON-friendly payload."""
        return {
            "seed": self.seed,
            "feed_order": list(self.feed_order),
            "cursors": self._stream.cursors,
            "state": self.state.to_payload(),
        }

    def cursor_checkpoint_payload(self) -> Dict[str, Any]:
        """Cursor-only position for store-backed engines.

        The per-feed accumulator state is *not* serialized: the store's
        silver tier holds every consumed sighting, so resuming replays
        each feed's landed prefix (bounded by the cursors) instead.
        """
        return {
            "seed": self.seed,
            "feed_order": list(self.feed_order),
            "cursors": self._stream.cursors,
            "store": {"path": self._store_path, "run_key": self._run_key},
        }

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the current position to *path*.

        A store-backed engine writes a compact cursor checkpoint
        (flushing the store first, so the cursors never point past the
        durable silver rows); otherwise the full state payload is
        written as before.
        """
        if self._writer is not None and self._store_clean:
            self._writer.finish()
            write_checkpoint(
                path, CURSOR_CHECKPOINT_KIND, self.cursor_checkpoint_payload()
            )
        else:
            write_checkpoint(path, CHECKPOINT_KIND, self.checkpoint_payload())

    def restore(self, payload: Dict[str, Any]) -> None:
        """Restore a position produced by :meth:`checkpoint_payload`.

        The engine must have been constructed over the same world and
        datasets (same seed and feed suite) as the checkpointing run;
        mismatches raise :class:`CheckpointError`.
        """
        try:
            seed = int(payload["seed"])
            cursors = dict(payload["cursors"])
            state_payload = payload["state"]
            feed_order = list(payload["feed_order"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad engine checkpoint: {exc}") from exc
        if seed != self.seed:
            raise CheckpointError(
                f"checkpoint seed {seed} does not match engine seed "
                f"{self.seed}"
            )
        if set(cursors) != set(self.datasets):
            raise CheckpointError(
                "checkpoint feeds do not match engine feeds: "
                f"{sorted(cursors)} vs {sorted(self.datasets)}"
            )
        state = StreamState.from_payload(state_payload)
        consumed = sum(int(c) for c in cursors.values())
        if state.records_processed != consumed:
            raise CheckpointError(
                f"checkpoint state covers {state.records_processed} records "
                f"but cursors account for {consumed}"
            )
        self._stream.seek({name: int(c) for name, c in cursors.items()})
        self.state = state
        self.feed_order = feed_order

    def restore_from_store(
        self, payload: Dict[str, Any], store: SightingStore
    ) -> None:
        """Restore a cursor checkpoint by replaying store silver rows.

        Each feed's landed prefix (bounded by its cursor) is replayed
        through a fresh :class:`StreamState`.  An accumulator only ever
        sees its own feed's chronological subsequence, so per-feed
        replay rebuilds the exact state the live engine had -- the
        cross-feed interleaving it skips does not affect any
        accumulator, and the cross-feed counters are order-independent
        set sizes.
        """
        try:
            seed = int(payload["seed"])
            cursors = {
                str(k): int(v) for k, v in dict(payload["cursors"]).items()
            }
            feed_order = list(payload["feed_order"])
            run_key = str(dict(payload["store"])["run_key"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad cursor checkpoint: {exc}") from exc
        if seed != self.seed:
            raise CheckpointError(
                f"checkpoint seed {seed} does not match engine seed "
                f"{self.seed}"
            )
        if set(cursors) != set(self.datasets):
            raise CheckpointError(
                "checkpoint feeds do not match engine feeds: "
                f"{sorted(cursors)} vs {sorted(self.datasets)}"
            )
        run = store.run_by_key(run_key)
        if run is None:
            raise CheckpointError(
                f"store has no run {run_key!r}; cannot replay cursors"
            )
        state = StreamState(
            [
                (ds.name, ds.feed_type, ds.has_volume)
                for ds in self.datasets.values()
            ]
        )
        replayed = sum(  # reprolint: disable=REP004 -- int cursor counts
            cursors.values()
        )
        with obs.span("store.replay", records=replayed):
            for name in self.datasets:
                expected = cursors[name]
                if expected == 0:
                    continue
                rows = store.silver_prefix(run.run_id, name, limit=expected)
                if len(rows) != expected:
                    raise CheckpointError(
                        f"store holds {len(rows)} sightings for feed "
                        f"{name!r} but the checkpoint cursor expects "
                        f"{expected}; the store cannot replay this run"
                    )
                for domain, time in rows:
                    state.update(StreamEvent(time, name, domain))
        self._stream.seek(cursors)
        self.state = state
        self.feed_order = feed_order

    @classmethod
    def resume(
        cls,
        world: World,
        datasets: Mapping[str, FeedDataset],
        path: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        store: Optional[SightingStore] = None,
    ) -> "StreamEngine":
        """Build an engine over *datasets* positioned at checkpoint *path*.

        Accepts both checkpoint shapes: a full ``stream-engine`` state
        payload, or a ``stream-cursor`` checkpoint -- the latter needs
        *store* (the sighting store the checkpointing run landed into)
        to replay the consumed prefix.
        """
        kind, payload = read_checkpoint_any(
            path, (CHECKPOINT_KIND, CURSOR_CHECKPOINT_KIND)
        )
        engine = cls(
            world,
            datasets,
            seed=int(payload.get("seed", 0)),
            feed_order=list(payload.get("feed_order", PAPER_FEED_ORDER)),
            batch_size=batch_size,
        )
        if kind == CURSOR_CHECKPOINT_KIND:
            if store is None:
                raise CheckpointError(
                    f"{path}: cursor checkpoint needs its sighting store "
                    "(pass --store with the file the run landed into)"
                )
            engine.restore_from_store(payload, store)
        else:
            engine.restore(payload)
        return engine

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
    batch_size: int = DEFAULT_BATCH_SIZE,
    jobs: Optional[int] = None,
    cache: Optional["ArtifactCache"] = None,
    shards: Optional[int] = None,
) -> StreamEngine:
    """Build the world, collect the feed suite, and wrap it in an engine.

    The record *sources* are deterministic functions of ``(config,
    seed)``, which is what makes checkpoints portable across processes:
    a resuming run rebuilds identical sources and seeks the cursors.
    ``jobs`` parallelizes source collection, ``shards`` parallelizes the
    world build itself, and ``cache`` reuses a previously built world +
    dataset state; none of them changes a byte of the stream.
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
        return pipeline.stream_engine(batch_size)
