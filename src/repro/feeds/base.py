"""Feed data model: records, datasets, and the collector interface."""

from __future__ import annotations

import abc
import enum
from array import array
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
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


class DatasetColumns(NamedTuple):
    """A feed dataset in columnar form: cheap to pickle, cheap to load.

    One tuple and two flat lists serialize an order of magnitude faster
    than a list of per-record tuples, which is what lets datasets cross
    process boundaries (parallel collection) and live in the on-disk
    artifact cache without the transport cost eating the win.  For the
    hot transport paths :meth:`pack` flattens the columns further into
    two byte blobs (see :class:`PackedColumns`).
    """

    name: str
    feed_type: str
    has_volume: bool
    domains: List[str]
    times: List[SimTime]

    def pack(self) -> "PackedColumns":
        """Flatten the columns into two byte blobs.

        The blob layout is owned by :class:`repro.io.columns
        .ColumnBlock`: one joined string and one int64 array, which
        pickle close to a memcpy where hundreds of thousands of small
        string and int objects do not.  Domain names cannot contain the
        newline separator (they are DNS labels), which
        :meth:`PackedColumns.unpack` re-checks via column-length
        agreement.
        """
        packed = ColumnBlock(list(self.domains), array("q", self.times)).pack()
        return PackedColumns(
            name=self.name,
            feed_type=self.feed_type,
            has_volume=self.has_volume,
            n_records=packed.n_records,
            domain_blob=packed.domain_blob,
            time_blob=packed.time_blob,
        )


class PackedColumns(NamedTuple):
    """Blob-packed :class:`DatasetColumns` for process/disk transport."""

    name: str
    feed_type: str
    has_volume: bool
    n_records: int
    domain_blob: bytes
    time_blob: bytes

    def unpack(self) -> DatasetColumns:
        """Restore the columnar form; raises on any length mismatch."""
        block = PackedBlock(
            self.n_records, self.domain_blob, self.time_blob
        ).unpack()
        return DatasetColumns(
            name=self.name,
            feed_type=self.feed_type,
            has_volume=self.has_volume,
            domains=block.domains,
            times=list(block.times),
        )


@runtime_checkable
class FeedStats(Protocol):
    """The statistics surface every analysis consumes.

    Both the batch :class:`FeedDataset` (record-backed) and the
    streaming :class:`~repro.stream.state.FeedAccumulator`
    (counter-backed) satisfy this protocol, which is what lets
    :class:`~repro.analysis.context.FeedComparison` serve either path
    with identical results.
    """

    name: str
    feed_type: FeedType
    has_volume: bool

    @property
    def total_samples(self) -> int: ...

    @property
    def n_unique(self) -> int: ...

    def unique_domains(self) -> Set[str]: ...

    def domain_counts(self) -> EmpiricalDistribution: ...

    def first_seen(self) -> Dict[str, SimTime]: ...

    def last_seen(self) -> Dict[str, SimTime]: ...


class FeedDataset:
    """The collected output of one feed over the measurement window.

    For volume-bearing feeds every record corresponds to one captured
    message (sample); blacklist-style feeds carry a single record per
    listed domain, and their ``has_volume`` flag is False so the
    proportionality analysis skips them (Section 4.3).
    """

    def __init__(
        self,
        name: str,
        feed_type: FeedType,
        records: Iterable[FeedRecord],
        has_volume: bool = True,
    ):
        self.name = name
        self.feed_type = feed_type
        self.has_volume = has_volume
        self.records: List[FeedRecord] = list(records)
        self._chronological: Optional[List[FeedRecord]] = None
        self._unique: Optional[Set[str]] = None
        self._counts: Optional[EmpiricalDistribution] = None
        self._first_seen: Optional[Dict[str, SimTime]] = None
        self._last_seen: Optional[Dict[str, SimTime]] = None

    # ------------------------------------------------------------------
    # Basic statistics (Table 1)
    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Total number of samples received (Table 1, Domains column)."""
        return len(self.records)

    def unique_domains(self) -> Set[str]:
        """Distinct registered domains in the feed (Table 1, Unique)."""
        if self._unique is None:
            self._unique = {r.domain for r in self.records}
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
            counts: Dict[str, float] = {}
            for record in self.records:
                counts[record.domain] = counts.get(record.domain, 0.0) + 1.0
            self._counts = EmpiricalDistribution(counts)
        return self._counts

    def first_seen(self) -> Dict[str, SimTime]:
        """Earliest sighting time per domain."""
        if self._first_seen is None:
            first: Dict[str, SimTime] = {}
            for domain, t in self.records:
                prev = first.get(domain)
                if prev is None or t < prev:
                    first[domain] = t
            self._first_seen = first
        return self._first_seen

    def last_seen(self) -> Dict[str, SimTime]:
        """Latest sighting time per domain."""
        if self._last_seen is None:
            last: Dict[str, SimTime] = {}
            for domain, t in self.records:
                prev = last.get(domain)
                if prev is None or t > prev:
                    last[domain] = t
            self._last_seen = last
        return self._last_seen

    def chronological_records(self) -> List[FeedRecord]:
        """Records in non-decreasing time order (stream emission order).

        Collector output is already time-sorted (``_finalize`` sorts),
        in which case the record list itself is returned; otherwise a
        stable-sorted copy is cached, preserving the original relative
        order of same-minute sightings.  The streaming merge layer
        requires this ordering for deterministic interleaving.
        """
        if self._chronological is None:
            records = self.records
            if all(
                records[i].time <= records[i + 1].time
                for i in range(len(records) - 1)
            ):
                self._chronological = records
            else:
                self._chronological = sorted(records, key=lambda r: r.time)
        return self._chronological

    def restrict(self, domains: Iterable[str]) -> "FeedDataset":
        """A new dataset containing only records for *domains*."""
        keyset = set(domains)
        return FeedDataset(
            name=self.name,
            feed_type=self.feed_type,
            records=[r for r in self.records if r.domain in keyset],
            has_volume=self.has_volume,
        )

    def to_columns(self) -> DatasetColumns:
        """This dataset in columnar transport form (record order kept)."""
        return DatasetColumns(
            name=self.name,
            feed_type=self.feed_type.value,
            has_volume=self.has_volume,
            domains=[r.domain for r in self.records],
            times=[r.time for r in self.records],
        )

    def packed(self) -> PackedColumns:
        """This dataset blob-packed for process/disk transport."""
        return self.to_columns().pack()

    def __reduce__(self) -> Tuple[Any, ...]:
        # A dataset crossing a process boundary (a forked collect
        # task's result, a render broadcast) travels as its packed
        # columns and arrives column-backed: one flat blob per column
        # instead of a pickle of every record tuple.
        return (ColumnarFeedDataset.from_packed, (self.packed(),))

    def __len__(self) -> int:
        return len(self.records)

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


class ColumnarFeedDataset(FeedDataset):
    """A :class:`FeedDataset` backed by a :class:`ColumnBlock`.

    Serves the whole :class:`FeedStats` surface straight from the two
    flat columns -- the per-record ``FeedRecord`` list is materialized
    lazily, only if a consumer (streaming merge, CSV export) actually
    asks for ``.records``.  Statistics come from the array-at-a-time
    kernels in :mod:`repro.io.columns`, which reproduce every derived
    value of the record-backed path exactly -- sets, counts, first/last
    sightings *and their dict insertion orders* (first-appearance
    order), which downstream iteration orders depend on.
    """

    def __init__(
        self,
        columns: DatasetColumns,
        chronological: Optional[bool] = None,
    ):
        domains = (
            columns.domains
            if isinstance(columns.domains, list)
            else list(columns.domains)
        )
        times = (
            columns.times
            if isinstance(columns.times, array)
            else array("q", columns.times)
        )
        self._init_from_block(
            columns.name,
            FeedType(columns.feed_type),
            columns.has_volume,
            ColumnBlock(domains, times, chronological),
        )

    @classmethod
    def from_block(
        cls,
        name: str,
        feed_type: FeedType,
        has_volume: bool,
        block: ColumnBlock,
    ) -> "ColumnarFeedDataset":
        """Wrap an existing block without copying its columns."""
        self = cls.__new__(cls)
        self._init_from_block(name, feed_type, has_volume, block)
        return self

    @classmethod
    def from_packed(cls, packed: "PackedColumns") -> "ColumnarFeedDataset":
        """Unpack straight into a block (no intermediate list column)."""
        return cls.from_block(
            packed.name,
            FeedType(packed.feed_type),
            packed.has_volume,
            PackedBlock(
                packed.n_records, packed.domain_blob, packed.time_blob
            ).unpack(),
        )

    def _init_from_block(
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
        self._domains = block.domains
        self._times = block.times
        self._materialized: Optional[List[FeedRecord]] = None
        self._chronological: Optional[List[FeedRecord]] = None
        self._unique: Optional[Set[str]] = None
        self._counts: Optional[EmpiricalDistribution] = None
        self._first_seen: Optional[Dict[str, SimTime]] = None
        self._last_seen: Optional[Dict[str, SimTime]] = None

    @property  # type: ignore[override]
    def records(self) -> List[FeedRecord]:
        """Materialized record list (built on first access, then cached)."""
        if self._materialized is None:
            self._materialized = list(
                map(FeedRecord, self._domains, self._times)
            )
        return self._materialized

    @property
    def total_samples(self) -> int:
        return len(self._domains)

    def unique_domains(self) -> Set[str]:
        if self._unique is None:
            self._unique = self._block.unique_domains()
        return self._unique

    def domain_counts(self) -> EmpiricalDistribution:
        if self._counts is None:
            self._counts = EmpiricalDistribution(self._block.value_counts())
        return self._counts

    def first_seen(self) -> Dict[str, SimTime]:
        if self._first_seen is None:
            self._first_seen, self._last_seen = self._block.first_last_seen()
        return self._first_seen

    def last_seen(self) -> Dict[str, SimTime]:
        if self._last_seen is None:
            self._first_seen, self._last_seen = self._block.first_last_seen()
        return self._last_seen

    def chronological_records(self) -> List[FeedRecord]:
        """See :meth:`FeedDataset.chronological_records`.

        The sortedness test runs on the time column (one C pass)
        instead of scanning materialized record tuples.
        """
        if self._chronological is None:
            if self._block.is_chronological():
                self._chronological = self.records
            else:
                self._chronological = sorted(
                    self.records, key=lambda r: r.time
                )
        return self._chronological

    def to_columns(self) -> DatasetColumns:
        return DatasetColumns(
            name=self.name,
            feed_type=self.feed_type.value,
            has_volume=self.has_volume,
            domains=self._domains,
            times=list(self._times),
        )

    def packed(self) -> PackedColumns:
        """Blob-packed transport form, straight from the block."""
        packed = self._block.pack()
        return PackedColumns(
            name=self.name,
            feed_type=self.feed_type.value,
            has_volume=self.has_volume,
            n_records=packed.n_records,
            domain_blob=packed.domain_blob,
            time_blob=packed.time_blob,
        )

    def __len__(self) -> int:
        return len(self._domains)


class FeedCollector(abc.ABC):
    """Interface every feed implementation satisfies."""

    #: Feed mnemonic as used throughout the paper (e.g. ``"mx1"``).
    name: str
    feed_type: FeedType
    has_volume: bool = True

    @abc.abstractmethod
    def collect(self, world: World) -> FeedDataset:
        """Observe *world* and return this feed's dataset."""

    def _finalize(self, world: World, records: List[FeedRecord]) -> FeedDataset:
        """Clamp-drop records outside the window and build the dataset."""
        tl = world.timeline
        kept = [r for r in records if tl.start <= r.time < tl.end]
        kept.sort(key=lambda r: r.time)
        return FeedDataset(
            name=self.name,
            feed_type=self.feed_type,
            records=kept,
            has_volume=self.has_volume,
        )

    def _finalize_columns(
        self, world: World, builder: ColumnBuilder
    ) -> ColumnarFeedDataset:
        """Columnar :meth:`_finalize`: window-clamp and time-sort.

        Same semantics (drop outside [start, end), stable sort by
        time), executed as two array-at-a-time kernels instead of a
        per-record filter and a tuple sort, and the result stays
        column-backed -- no ``FeedRecord`` is ever allocated unless a
        consumer materializes ``.records``.
        """
        tl = world.timeline
        block = builder.build().window(tl.start, tl.end).sorted_by_time()
        return ColumnarFeedDataset.from_block(
            self.name, self.feed_type, self.has_volume, block
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
