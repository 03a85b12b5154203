"""World registry for the serve daemon: build once, answer many.

A *world* here is everything ``python -m repro run`` computes before
rendering: the simulated ecosystem plus the ten collected feed
datasets, identified by ``(config fingerprint, seed)`` -- the same
identity the artifact cache and the sighting store use.  The daemon
keeps recently used worlds resident in :class:`WorldEntry` objects so
repeated queries skip straight to (cached) rendering, and coalesces
concurrent cold-starts through one :class:`~repro.serve.singleflight
.SingleFlight` registry per cache.

Each entry owns its :class:`~repro.pipeline.PaperPipeline` *open*: the
persistent :class:`~repro.parallel.pool.WorkerPool` the pipeline forked
right after the world build stays alive across requests, so parallel
renders keep reusing the same copy-on-write workers until the entry is
evicted or the daemon shuts down.  As-of-day questions reuse one
:class:`~repro.stream.StreamEngine` per entry: moving it to any day,
earlier or later, is a bisect over each feed's in-RAM time column.

Everything served from an entry is a pure function of its key (plus
the as-of day), which is what makes the concurrency safe to reason
about: locks and coalescing change who computes and when, never what
comes out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, cast

from repro.ecosystem import EcosystemConfig
from repro.io.artifacts import ArtifactCache
from repro.obs.metrics import MetricsRegistry, Number
from repro.pipeline import PaperPipeline
from repro.serve.singleflight import SingleFlight
from repro.store import SightingStore
from repro.stream.engine import StreamEngine


class ServeStats:
    """Thread-safe counters for the daemon (``/v1/stats`` feeds on it).

    A plain :class:`MetricsRegistry` behind one lock: request handler
    threads increment concurrently, and read-modify-write on a dict is
    not atomic, so the registry the tests assert single-flight behavior
    against must be guarded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics = MetricsRegistry()

    def add(self, name: str, value: Number = 1) -> None:
        with self._lock:
            self._metrics.add(name, value)

    def set_gauge(self, name: str, value: Number) -> None:
        with self._lock:
            self._metrics.set_gauge(name, value)

    def counter(self, name: str) -> Number:
        with self._lock:
            return self._metrics.counter(name)

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        with self._lock:
            return self._metrics.snapshot()


class WorldEntry:
    """One resident world and its finished answers.

    Every answer is memoized as the exact response body the daemon
    writes, so a warm request neither renders nor encodes anything.
    The memo lives and dies with the entry: LRU eviction frees it.
    """

    def __init__(self, key: Tuple[str, int], pipeline: PaperPipeline):
        self.key = key
        self.pipeline = pipeline
        self.seed = pipeline.seed
        #: Response bodies per ``(kind, name)``: ``("render", artifact)``,
        #: ``("payload", endpoint name)`` and ``("snapshot", day)``.
        #: Written only by the one flight leader computing that answer.
        self.bodies: Dict[Tuple[str, Any], bytes] = {}
        #: The as-of-day view and its guard.
        self._engine: Optional[StreamEngine] = None
        self._engine_lock = threading.Lock()

    def render_body(self, name: str) -> bytes:
        """The named rendered artifact ("all", "table1", ...) as served."""
        if name == "all":
            text = self.pipeline.render_all()
        else:
            text = str(getattr(self.pipeline, f"render_{name}")())
        # print() in the batch CLI appends one newline; matching it
        # here is what makes `GET /v1/tables` byte-identical to
        # `python -m repro run` stdout.
        return (text + "\n").encode("utf-8")

    # -- as-of-day snapshots -------------------------------------------

    def total_days(self) -> int:
        return int(self.pipeline.run().world.timeline.duration_days)

    def snapshot_body(self, day: int) -> bytes:
        """Tables as of the start of (zero-based) *day*, as served.

        One engine answers every day.  Serialized per entry: two days
        computed at once never interleave on one engine.
        """
        with self._engine_lock:
            if self._engine is None:
                self._engine = self.pipeline.stream_engine()
            self._engine.advance_to_day(day)
            snapshot = self._engine.snapshot()
            text = f"{snapshot.header()}\n\n{snapshot.render_tables()}\n"
        return text.encode("utf-8")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the pipeline's worker pool.  Idempotent."""
        self.pipeline.close()


class WorldCache:
    """LRU registry of resident worlds with coalesced cold builds."""

    def __init__(
        self,
        stats: ServeStats,
        jobs: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        store_path: Optional[str] = None,
        max_worlds: int = 4,
    ):
        if max_worlds < 1:
            raise ValueError("the daemon must keep at least one world")
        self.stats = stats
        self.jobs = jobs
        self.cache = cache
        self.store_path = store_path
        self.max_worlds = max_worlds
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int], WorldEntry]" = (
            OrderedDict()
        )
        self._flights = SingleFlight()

    # -- lookup --------------------------------------------------------

    def entry(
        self, config: EcosystemConfig, config_fingerprint: str, seed: int
    ) -> WorldEntry:
        """The resident entry for ``(config, seed)``, building on demand.

        *config_fingerprint* is ``fingerprint(config)``, which the caller
        already holds: hashing the config here would cost every warm
        request more than the rest of the lookup.  Concurrent identical
        cold-starts coalesce: exactly one request thread builds
        (``serve.worlds_built`` counts it), everyone else blocks and
        shares the entry.  A completed entry is an LRU dict hit -- no
        flight, no lock beyond the bookkeeping.
        """
        key = (config_fingerprint, seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.add("serve.world_hits")
                return entry

        def build() -> WorldEntry:
            # Leadership can be won *after* a previous flight already
            # published (dict-miss then flight-miss race); re-check
            # before paying for a rebuild.
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None:
                    self._entries.move_to_end(key)
                    self.stats.add("serve.world_hits")
                    return existing
            # Publish into the LRU *inside* the flight, before the key
            # is forgotten: a request that missed the dict but arrives
            # after the flight completes must find the entry resident,
            # not start a second build.
            built = self._build(key, config, seed)
            evicted: List[WorldEntry] = []
            with self._lock:
                self._entries[key] = built
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_worlds:
                    _, old = self._entries.popitem(last=False)
                    evicted.append(old)
            for old in evicted:
                old.close()
                self.stats.add("serve.worlds_evicted")
            return built

        entry, leader = self._flights.do(("world",) + key, build)
        if not leader:
            self.stats.add("serve.coalesced_builds")
        return entry

    def _build(
        self, key: Tuple[str, int], config: EcosystemConfig, seed: int
    ) -> WorldEntry:
        """Leader-only: build (or cache-load) the world and land it."""
        store = None
        if self.store_path is not None:
            # A fresh thread-bound connection per build: SQLite
            # connections must stay on their creating thread, and the
            # leader runs on a request thread, so the daemon-level
            # read connection cannot be borrowed here.
            store = SightingStore.open(self.store_path)
        try:
            pipeline = PaperPipeline(
                config,
                seed=seed,
                jobs=self.jobs,
                cache=self.cache,
                store=store,
            )
            try:
                pipeline.run()
            except BaseException:
                pipeline.close()
                raise
        finally:
            if store is not None:
                store.close()
        self.stats.add("serve.worlds_built")
        return WorldEntry(key, pipeline)

    # -- coalesced derived answers -------------------------------------

    def _body(
        self,
        entry: WorldEntry,
        kind: str,
        name: Any,
        compute: Callable[[], bytes],
    ) -> bytes:
        """Coalesced memoized response body ``(kind, name)`` of *entry*.

        A hit counts ``serve.<kind>_hits``; a miss computes once per
        concurrent burst (``serve.<kind>s_built``) and shares it with
        the rest (``serve.coalesced_<kind>s``).
        """
        memo = (kind, name)
        body = entry.bodies.get(memo)
        if body is not None:
            self.stats.add(f"serve.{kind}_hits")
            return body

        def build() -> bytes:
            # A leader can win after an earlier flight published.
            done = entry.bodies.get(memo)
            if done is None:
                done = entry.bodies[memo] = compute()
            return done

        body, leader = self._flights.do((kind, entry.key, name), build)
        self.stats.add(
            f"serve.{kind}s_built" if leader else f"serve.coalesced_{kind}s"
        )
        return cast(bytes, body)

    def render(self, entry: WorldEntry, name: str) -> bytes:
        """Coalesced memoized render of one artifact for *entry*."""
        return self._body(
            entry, "render", name, lambda: entry.render_body(name)
        )

    def payload(
        self, entry: WorldEntry, name: str, compute: Callable[[], bytes]
    ) -> bytes:
        """Coalesced memoized JSON body for *entry*.

        The JSON endpoints (feeds, recommend) walk the comparison
        analyses, which are far from free -- without this they would
        recompute per request while their text twins ride the render
        cache.
        """
        return self._body(entry, "payload", name, compute)

    def snapshot(self, entry: WorldEntry, day: int) -> bytes:
        """Coalesced memoized as-of-day tables for *entry*."""
        return self._body(
            entry, "snapshot", day, lambda: entry.snapshot_body(day)
        )

    # -- introspection / lifecycle -------------------------------------

    def resident(self) -> List[Dict[str, Any]]:
        """JSON-friendly description of the resident worlds (stats)."""
        with self._lock:
            entries = list(self._entries.values())
        return [
            {
                "config_fingerprint": entry.key[0],
                "seed": entry.key[1],
                "pool_workers": entry.pipeline.pool_width,
            }
            for entry in entries
        ]

    def close(self) -> None:
        """Close every resident pipeline (drains worker pools)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.close()


__all__ = ["ServeStats", "WorldCache", "WorldEntry"]
