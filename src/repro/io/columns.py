"""First-class columnar records: one string column, one int64 column.

PR 3 introduced the packed ``(joined-string, int64-array)`` blob as a
transport format for parallel workers; this module promotes it to the
canonical in-memory layout for sighting data.  A :class:`ColumnBlock`
holds a domain column (``list`` of ``str``) and a time column
(``array('q')``), and every hot per-record operation -- window
filtering, time sorting, uniques, per-domain counts, first/last
sightings -- is an *array-at-a-time kernel* built from C-speed
primitives (``zip`` into ``dict``, ``Counter``, ``set``, slice copies),
with zero third-party dependencies.

Determinism contract: dict-returning kernels reproduce not just the
mapping but the **insertion order** of the per-record loops they
replace (first-appearance order), because downstream consumers iterate
those dicts and their output order is part of the byte-identical
guarantee.  The fast first/last kernels additionally require the time
column to be non-decreasing; :func:`first_last_seen` checks and falls
back to the straight loop otherwise.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: The array typecode of the time column: signed 64-bit, matching the
#: on-disk/pipe blob layout.
TIME_TYPECODE = "q"


def is_time_sorted(times: Sequence[int]) -> bool:
    """True when *times* is non-decreasing.

    Implemented as a compare against a sorted copy: Timsort detects an
    already-sorted run in one C pass, which is far cheaper than a
    per-element Python loop at the million-record scale.
    """
    values = list(times)
    return values == sorted(values)


def value_counts(domains: Sequence[str]) -> Dict[str, float]:
    """Per-domain record counts as floats, in first-appearance order.

    ``Counter`` iterates the column in C and preserves first-encounter
    insertion order; values are floats because the per-record
    accumulation this replaced produced ``5.0``, and the distinction
    can leak into serialized artifacts.
    """
    return {domain: float(n) for domain, n in Counter(domains).items()}


def first_last_seen(
    domains: Sequence[str],
    times: Sequence[int],
    chronological: Optional[bool] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(first-seen, last-seen) time per domain, first-appearance order.

    Fast path (time-sorted columns): ``dict(zip(domains, times))``
    keeps the *first* insertion position of every key but the *last*
    value written -- exactly last-seen in first-appearance order.  The
    same zip over the reversed columns yields first-seen values, which
    are then re-keyed in the last-seen dict's order.  Both passes run
    entirely in C.  Unsorted columns take the original per-record loop.
    """
    if chronological is None:
        chronological = is_time_sorted(times)
    if not chronological:
        first: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for domain, t in zip(domains, times):
            prev = first.get(domain)
            if prev is None or t < prev:
                first[domain] = t
            prev = last.get(domain)
            if prev is None or t > prev:
                last[domain] = t
        return first, last
    last_sorted = dict(zip(domains, times))
    by_last_occurrence = dict(zip(reversed(domains), reversed(times)))
    first_sorted = {d: by_last_occurrence[d] for d in last_sorted}
    return first_sorted, last_sorted


class PackedBlock(NamedTuple):
    """A :class:`ColumnBlock` flattened to two blobs for transport.

    Pickling one joined string and one int64 array is close to a
    memcpy; pickling hundreds of thousands of small string and int
    objects is not.  Domain names cannot contain the newline separator
    (they are DNS labels), which :meth:`unpack` re-checks via
    column-length agreement.
    """

    n_records: int
    domain_blob: bytes
    time_blob: bytes

    def unpack(self) -> "ColumnBlock":
        """Restore the columns; raises on any length mismatch."""
        domains = (
            self.domain_blob.decode("utf-8").split("\n")
            if self.domain_blob
            else []
        )
        times = array(TIME_TYPECODE)
        times.frombytes(self.time_blob)
        if len(domains) != self.n_records or len(times) != self.n_records:
            raise ValueError(
                "packed columns do not round-trip to "
                f"{self.n_records} records"
            )
        return ColumnBlock(domains, times)


class ColumnBlock:
    """An aligned (domain, time) column pair with columnar kernels.

    Treat instances as immutable: kernels return new blocks (or
    ``self`` when a no-op), and the chronological flag is computed once
    and cached.  Construction validates column alignment; a known
    time-sortedness can be passed to skip the check that the fast
    first/last kernels would otherwise run.
    """

    __slots__ = ("domains", "times", "_chronological")

    def __init__(
        self,
        domains: List[str],
        times: "array[int]",
        chronological: Optional[bool] = None,
    ):
        if len(domains) != len(times):
            raise ValueError("domain and time columns differ in length")
        self.domains = domains
        self.times = times
        self._chronological = chronological

    @classmethod
    def from_pairs(
        cls, domains: Iterable[str], times: Iterable[int]
    ) -> "ColumnBlock":
        """Build a block from two parallel iterables."""
        return cls(list(domains), array(TIME_TYPECODE, times))

    @classmethod
    def from_records(
        cls, records: Sequence[Tuple[str, int]]
    ) -> "ColumnBlock":
        """Decompose (domain, time) tuples into columns (one C pass)."""
        if not records:
            return cls([], array(TIME_TYPECODE))
        domains, times = zip(*records)
        return cls(list(domains), array(TIME_TYPECODE, times))

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def is_chronological(self) -> bool:
        """True when the time column is non-decreasing (cached)."""
        if self._chronological is None:
            self._chronological = is_time_sorted(self.times)
        return self._chronological

    def window(self, start: int, end: int) -> "ColumnBlock":
        """Records with ``start <= time < end`` (relative order kept)."""
        times = self.times
        if not times:
            return self
        if start <= min(times) and max(times) < end:
            return self  # common case: nothing to drop
        mask = [start <= t < end for t in times]
        return ColumnBlock(
            list(compress(self.domains, mask)),
            array(TIME_TYPECODE, compress(times, mask)),
            # Dropping records cannot unsort a sorted column; an
            # unknown or unsorted input stays unknown.
            chronological=True if self._chronological else None,
        )

    def sorted_by_time(self) -> "ColumnBlock":
        """A stable time-sort of the block (ties keep input order).

        Skips the work only when sortedness is already *known*: probing
        an unknown block would cost a full throwaway sort, while
        Timsort on input that happens to be sorted is near-linear
        anyway.
        """
        if self._chronological:
            return self
        times = self.times
        order = sorted(range(len(times)), key=times.__getitem__)
        return ColumnBlock(
            list(map(self.domains.__getitem__, order)),
            array(TIME_TYPECODE, map(times.__getitem__, order)),
            chronological=True,
        )

    def unique_domains(self) -> Set[str]:
        """Distinct domains in the block."""
        return set(self.domains)

    def value_counts(self) -> Dict[str, float]:
        """Per-domain record counts (first-appearance order, floats)."""
        return value_counts(self.domains)

    def first_last_seen(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(first-seen, last-seen) maps in first-appearance order."""
        return first_last_seen(
            self.domains, self.times, self.is_chronological()
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def pack(self) -> PackedBlock:
        """Flatten to two byte blobs (see :class:`PackedBlock`)."""
        return PackedBlock(
            n_records=len(self.domains),
            domain_blob="\n".join(self.domains).encode("utf-8"),
            time_blob=self.times.tobytes()
            if self.times.typecode == TIME_TYPECODE
            else array(TIME_TYPECODE, self.times).tobytes(),
        )


class ColumnBuilder:
    """Append-only accumulator that grows a :class:`ColumnBlock`.

    Collectors accumulate sightings here instead of building a
    ``FeedRecord`` tuple per message: a burst of *n* sightings of one
    domain costs one ``[domain] * n`` list repeat and one array extend
    -- two C calls -- instead of *n* tuple allocations.
    """

    __slots__ = ("_domains", "_times")

    def __init__(self) -> None:
        self._domains: List[str] = []
        self._times: "array[int]" = array(TIME_TYPECODE)

    def __len__(self) -> int:
        return len(self._times)

    def append(self, domain: str, time: int) -> None:
        """Add one sighting."""
        self._domains.append(domain)
        self._times.append(time)

    def extend_burst(self, domain: str, times: Sequence[int]) -> None:
        """Add many sightings of one domain (the scatter hot path)."""
        self._domains += [domain] * len(times)
        self._times.extend(times)

    def extend_pairs(
        self, domains: Iterable[str], times: Iterable[int]
    ) -> None:
        """Add parallel columns of sightings."""
        before = len(self._domains)
        self._domains.extend(domains)
        self._times.extend(times)
        if len(self._domains) != len(self._times):  # pragma: no cover
            del self._domains[before:]
            raise ValueError("domain and time iterables differ in length")

    def build(self) -> ColumnBlock:
        """The accumulated block (the builder must not be reused)."""
        return ColumnBlock(self._domains, self._times)
