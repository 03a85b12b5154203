"""Feed data model: records, datasets, and the collector interface."""

from __future__ import annotations

import abc
import enum
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.ecosystem.world import World
from repro.simtime import SimTime
from repro.stats.distributions import EmpiricalDistribution


class FeedType(enum.Enum):
    """The five collection-methodology categories from Section 3.2."""

    HUMAN_IDENTIFIED = "human_identified"
    BLACKLIST = "blacklist"
    MX_HONEYPOT = "mx_honeypot"
    HONEY_ACCOUNT = "honey_account"
    BOTNET = "botnet"
    HYBRID = "hybrid"


class FeedRecord(NamedTuple):
    """One sighting: a registered domain observed at a simulation time."""

    domain: str
    time: SimTime


class PackedColumns(NamedTuple):
    """A :class:`FeedDataset` blob-packed for process/disk transport.

    The blob layout is owned by :class:`repro.io.columns.PackedBlock`:
    one joined string and one int64 array, which pickle close to a
    memcpy where hundreds of thousands of small string and int objects
    do not.  That is what lets datasets cross process boundaries
    (parallel collection, render broadcasts) and live in the on-disk
    artifact cache without the transport cost eating the win.
    """

    name: str
    feed_type: str
    has_volume: bool
    n_records: int
    domain_blob: bytes
    time_blob: bytes


class FeedDataset:
    """The collected output of one feed over the measurement window.

    This is the statistics surface every analysis consumes
    (:class:`~repro.analysis.context.FeedComparison` takes a mapping of
    these), whether the records are a whole collected run or a
    :mod:`repro.stream` as-of-day prefix.

    For volume-bearing feeds every record corresponds to one captured
    message (sample); blacklist-style feeds carry a single record per
    listed domain, and their ``has_volume`` flag is False so the
    proportionality analysis skips them (Section 4.3).

    A dataset is backed by a :class:`~repro.io.columns.ColumnBlock`
    and serves every statistic from the array-at-a-time kernels in
    :mod:`repro.io.columns`, which reproduce the per-record loops
    exactly -- sets, counts, first/last sightings *and their dict
    insertion orders* (first-appearance order), which downstream
    iteration orders depend on.  The per-record ``FeedRecord`` list is
    materialized only if a consumer (CSV export, say) asks for
    ``.records``.
    """

    def __init__(
        self,
        name: str,
        feed_type: FeedType,
        records: Iterable[FeedRecord],
        has_volume: bool = True,
    ):
        self._attach(
            name,
            feed_type,
            has_volume,
            ColumnBlock.from_records(list(records)),
        )

    @classmethod
    def from_block(
        cls,
        name: str,
        feed_type: FeedType,
        has_volume: bool,
        block: ColumnBlock,
    ) -> "FeedDataset":
        """Wrap an existing block without copying its columns."""
        self = cls.__new__(cls)
        self._attach(name, feed_type, has_volume, block)
        return self

    @classmethod
    def from_packed(cls, packed: PackedColumns) -> "FeedDataset":
        """Unpack straight into a block; raises on any length mismatch."""
        return cls.from_block(
            packed.name,
            FeedType(packed.feed_type),
            packed.has_volume,
            PackedBlock(
                packed.n_records, packed.domain_blob, packed.time_blob
            ).unpack(),
        )

    def _attach(
        self,
        name: str,
        feed_type: FeedType,
        has_volume: bool,
        block: ColumnBlock,
    ) -> None:
        self.name = name
        self.feed_type = feed_type
        self.has_volume = has_volume
        self._block = block
        self._records: Optional[List[FeedRecord]] = None
        self._unique: Optional[Set[str]] = None
        self._counts: Optional[EmpiricalDistribution] = None
        self._first_seen: Optional[Dict[str, SimTime]] = None
        self._last_seen: Optional[Dict[str, SimTime]] = None

    @property
    def block(self) -> ColumnBlock:
        """The backing column block (treat as immutable)."""
        return self._block

    @property
    def records(self) -> List[FeedRecord]:
        """Materialized record list (built on first access, then cached)."""
        if self._records is None:
            self._records = list(
                map(FeedRecord, self._block.domains, self._block.times)
            )
        return self._records

    # ------------------------------------------------------------------
    # Basic statistics (Table 1)
    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Total number of samples received (Table 1, Domains column)."""
        return len(self._block)

    def unique_domains(self) -> Set[str]:
        """Distinct registered domains in the feed (Table 1, Unique)."""
        if self._unique is None:
            self._unique = self._block.unique_domains()
        return self._unique

    @property
    def n_unique(self) -> int:
        """Number of distinct registered domains."""
        return len(self.unique_domains())

    # ------------------------------------------------------------------
    # Volume and timing views
    # ------------------------------------------------------------------

    def domain_counts(self) -> EmpiricalDistribution:
        """Empirical domain-volume distribution (Section 4.3).

        Meaningful only when ``has_volume`` is True; callers enforcing
        the paper's restriction should check that flag.
        """
        if self._counts is None:
            self._counts = EmpiricalDistribution(self._block.value_counts())
        return self._counts

    def first_seen(self) -> Dict[str, SimTime]:
        """Earliest sighting time per domain."""
        if self._first_seen is None:
            self._first_seen, self._last_seen = self._block.first_last_seen()
        return self._first_seen

    def last_seen(self) -> Dict[str, SimTime]:
        """Latest sighting time per domain."""
        if self._last_seen is None:
            self._first_seen, self._last_seen = self._block.first_last_seen()
        return self._last_seen

    def packed(self) -> PackedColumns:
        """This dataset blob-packed for process/disk transport."""
        packed = self._block.pack()
        return PackedColumns(
            name=self.name,
            feed_type=self.feed_type.value,
            has_volume=self.has_volume,
            n_records=packed.n_records,
            domain_blob=packed.domain_blob,
            time_blob=packed.time_blob,
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        # A dataset crossing a process boundary (a forked collect
        # task's result, a render broadcast) travels as its packed
        # columns: one flat blob per column instead of a pickle of
        # every record tuple.
        return (FeedDataset.from_packed, (self.packed(),))

    def __len__(self) -> int:
        return len(self._block)

    def __repr__(self) -> str:
        return (
            f"FeedDataset({self.name!r}, type={self.feed_type.value}, "
            f"samples={self.total_samples}, unique={self.n_unique}, "
            f"has_volume={self.has_volume})"
        )


# Imported below FeedDataset rather than at the top: repro.io's package
# init pulls in serialization, which imports FeedDataset/FeedRecord/
# FeedType back from this module, so those names must already exist
# when the import cycle re-enters here.
from repro.io.columns import (  # noqa: E402
    ColumnBlock,
    ColumnBuilder,
    PackedBlock,
)


class FeedCollector(abc.ABC):
    """Interface every feed implementation satisfies."""

    #: Feed mnemonic as used throughout the paper (e.g. ``"mx1"``).
    name: str
    feed_type: FeedType
    has_volume: bool = True

    @abc.abstractmethod
    def collect(self, world: World) -> FeedDataset:
        """Observe *world* and return this feed's dataset."""

    def _finalize(self, world: World, builder: ColumnBuilder) -> FeedDataset:
        """Clamp-drop sightings outside the window and time-sort them.

        Records outside [start, end) are dropped and the rest are
        stably sorted by time, as two array-at-a-time kernels; no
        ``FeedRecord`` is allocated unless a consumer materializes
        ``.records``.
        """
        tl = world.timeline
        block = builder.build().window(tl.start, tl.end).sorted_by_time()
        return FeedDataset.from_block(
            self.name, self.feed_type, self.has_volume, block
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
