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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ecosystem import EcosystemConfig
from repro.io.artifacts import ArtifactCache, fingerprint
from repro.obs.metrics import MetricsRegistry, Number
from repro.pipeline import PaperPipeline
from repro.serve.singleflight import SingleFlight
from repro.store import SightingStore
from repro.store.sightings import run_key_for
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
    """One resident world and its derived-answer caches."""

    def __init__(self, key: Tuple[str, int], pipeline: PaperPipeline):
        self.key = key
        self.pipeline = pipeline
        self.seed = pipeline.seed
        #: Rendered text per artifact name ("all", "table1", ...).
        self._renders: Dict[str, str] = {}
        #: Computed JSON payloads per endpoint-specific name.
        self._payloads: Dict[str, Any] = {}
        #: Rendered as-of-day tables per day index.
        self._snapshots: Dict[int, str] = {}
        #: The as-of-day view and its guard.
        self._engine: Optional[StreamEngine] = None
        self._engine_lock = threading.Lock()

    # -- rendering -----------------------------------------------------

    def render(self, name: str) -> str:
        """The named rendered artifact (memoized; caller coalesces)."""
        text = self._renders.get(name)
        if text is not None:
            return text
        if name == "all":
            text = self.pipeline.render_all()
        else:
            text = str(getattr(self.pipeline, f"render_{name}")())
        self._renders[name] = text
        return text

    def has_render(self, name: str) -> bool:
        return name in self._renders

    def has_payload(self, name: str) -> bool:
        return name in self._payloads

    def payload(self, name: str, compute: "Callable[[], Any]") -> Any:
        """The named JSON payload (memoized; caller coalesces)."""
        cached = self._payloads.get(name)
        if cached is None:
            cached = compute()
            self._payloads[name] = cached
        return cached

    # -- as-of-day snapshots -------------------------------------------

    def total_days(self) -> int:
        return int(self.pipeline.run().world.timeline.duration_days)

    def has_snapshot(self, day: int) -> bool:
        return day in self._snapshots

    def snapshot_text(self, day: int) -> str:
        """Tables as of the start of (zero-based) *day*, memoized.

        One engine answers every day.  Serialized per entry: two
        coalesced days never interleave on one engine.
        """
        cached = self._snapshots.get(day)
        if cached is not None:
            return cached
        with self._engine_lock:
            cached = self._snapshots.get(day)
            if cached is not None:
                return cached
            if self._engine is None:
                self._engine = self.pipeline.stream_engine()
            self._engine.advance_to_day(day)
            snapshot = self._engine.snapshot()
            text = f"{snapshot.header()}\n\n{snapshot.render_tables()}"
            self._snapshots[day] = text
            return text

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
        shards: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        store_path: Optional[str] = None,
        max_worlds: int = 4,
    ):
        if max_worlds < 1:
            raise ValueError("the daemon must keep at least one world")
        self.stats = stats
        self.jobs = jobs
        self.shards = shards
        self.cache = cache
        self.store_path = store_path
        self.max_worlds = max_worlds
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int], WorldEntry]" = (
            OrderedDict()
        )
        self._flights = SingleFlight()

    # -- lookup --------------------------------------------------------

    def entry(self, config: EcosystemConfig, seed: int) -> WorldEntry:
        """The resident entry for ``(config, seed)``, building on demand.

        Concurrent identical cold-starts coalesce: exactly one request
        thread builds (``serve.worlds_built`` counts it), everyone else
        blocks and shares the entry.  A completed entry is an LRU dict
        hit -- no flight, no lock beyond the bookkeeping.
        """
        key = (fingerprint(config), seed)
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
                shards=self.shards,
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

    def run_key(self, config: EcosystemConfig, seed: int) -> str:
        """The sighting-store run key a build of this world lands under."""
        return run_key_for(fingerprint(config), seed)

    # -- coalesced derived answers -------------------------------------

    def render(self, entry: WorldEntry, name: str) -> str:
        """Coalesced memoized render of one artifact for *entry*."""
        if entry.has_render(name):
            self.stats.add("serve.render_hits")
            return entry.render(name)

        def compute() -> str:
            return entry.render(name)

        text, leader = self._flights.do(
            ("render", entry.key, name), compute
        )
        self.stats.add(
            "serve.renders_built" if leader else "serve.coalesced_renders"
        )
        return str(text)

    def payload(
        self, entry: WorldEntry, name: str, compute: Callable[[], Any]
    ) -> Any:
        """Coalesced memoized JSON payload for *entry*.

        The JSON endpoints (feeds, recommend) walk the comparison
        analyses, which are far from free -- without this they would
        recompute per request while their text twins ride the render
        cache.
        """
        if entry.has_payload(name):
            self.stats.add("serve.payload_hits")
            return entry.payload(name, compute)

        def build() -> Any:
            return entry.payload(name, compute)

        value, leader = self._flights.do(
            ("payload", entry.key, name), build
        )
        self.stats.add(
            "serve.payloads_built" if leader else "serve.coalesced_payloads"
        )
        return value

    def snapshot(self, entry: WorldEntry, day: int) -> str:
        """Coalesced memoized as-of-day tables for *entry*."""
        if entry.has_snapshot(day):
            self.stats.add("serve.snapshot_hits")
            return entry.snapshot_text(day)

        def compute() -> str:
            return entry.snapshot_text(day)

        text, leader = self._flights.do(
            ("snapshot", entry.key, day), compute
        )
        self.stats.add(
            "serve.snapshots_built" if leader else "serve.coalesced_snapshots"
        )
        return str(text)

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
