"""The paper pipeline: one object, every table and figure."""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import threading
from typing import Any, Dict, Optional, Sequence

from repro import obs
from repro.analysis import FeedComparison
from repro.ecosystem import EcosystemConfig, build_world, paper_config
from repro.ecosystem.world import World
from repro.feeds import (
    CollectState,
    FeedCollector,
    FeedDataset,
    PAPER_FEED_ORDER,
    collect_all,
    land_dataset,
    standard_feed_suite,
)
from repro.feeds.base import PackedColumns
from repro.io.artifacts import ArtifactCache, artifact_key, fingerprint
from repro.store.sightings import RunWriter, SightingStore, run_key_for
from repro.parallel import PoolClosed, WorkerCrashed, WorkerPool, resolve_jobs
from repro.reporting.paper import (  # noqa: F401 -- re-exported
    ARTIFACTS,
    FIG9_FEEDS,
    HONEYPOT_FEEDS,
    PaperView,
)


class PipelineResult(PaperView):
    """Everything a pipeline run produces: world, datasets, comparison.

    As a :class:`~repro.reporting.paper.PaperView` it renders every
    paper artifact over those datasets, in ``feed_order``.

    A cold run builds all three.  A ``pipeline-state`` cache hit builds
    only the datasets: the entry keeps the world as one pickled blob
    beside the packed feed columns, with a SHA-256 over both (see
    :func:`_state_digest`), and the result holds on to that blob, with
    ``world`` and ``comparison`` passed as None.  The first read of
    ``world`` unpickles it (a ``cache.load-world`` span, counted as
    ``cache.world_loads``) and drops the blob; the first read of
    ``comparison`` assembles it over that world.  A warm render-cache
    hit reads neither, so it never pays for the world.

    Each lazy value is built once per result, under a lock: serve
    threads share one result.  A forking pool must not inherit that
    lock held, so the pipeline reads both values before it forks
    (:meth:`PaperPipeline._open_pool`); after that no reader takes the
    lock again.
    """

    def __init__(
        self,
        world: Optional[World],
        datasets: Dict[str, FeedDataset],
        comparison: Optional[FeedComparison],
        world_blob: Optional[bytes] = None,
        seed: int = 0,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
    ):
        self.datasets = datasets
        self.feed_order = list(feed_order)
        self._world = world
        self._comparison = comparison
        #: The pickled world of a deferred result, until it is read.
        self._world_blob = world_blob
        #: The seed a deferred comparison is assembled with.
        self._seed = seed
        self._lock = threading.Lock()

    @property
    def world(self) -> World:
        """The simulated ecosystem (unpickled on first read if deferred)."""
        world = self._world
        if world is None:
            with self._lock:
                if self._world is None:
                    with obs.span("cache.load-world"):
                        self._world = pickle.loads(self._world_blob)
                    obs.add("cache.world_loads")
                    self._world_blob = None
                world = self._world
        return world

    @property
    def comparison(self) -> FeedComparison:
        """The analysis context (assembled on first read if deferred)."""
        comparison = self._comparison
        if comparison is None:
            world = self.world
            with self._lock:
                if self._comparison is None:
                    # The module-level name, looked up at call time, so
                    # code that wraps ``runner.FeedComparison`` sees
                    # this assembly as it sees a cold run's.
                    self._comparison = FeedComparison(
                        world, self.datasets, seed=self._seed
                    )
                comparison = self._comparison
        return comparison


def _text_digest(text: str) -> str:
    """SHA-256 of a ``render-all`` entry's text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _accept_render(payload: Any) -> Optional[str]:
    """The text of a ``render-all`` payload, or None unless its digest holds.

    The cache envelope checks only the pickle's framing, so without the
    digest a byte changed inside the stored text would print altered
    tables from a warm cache.
    """
    if not isinstance(payload, dict):
        return None
    text = payload.get("text")
    if not isinstance(text, str) or payload.get("sha256") != _text_digest(text):
        return None
    return text


def _state_digest(world_blob: bytes, columns: Sequence[PackedColumns]) -> str:
    """SHA-256 over a ``pipeline-state`` entry's world blob and columns.

    Every column contributes its metadata and both blob lengths as a
    header, then its domain and time blobs, so a changed byte anywhere
    in the entry's data -- not only in the pickle framing the cache
    envelope checks -- changes the digest.
    """
    digest = hashlib.sha256(b"%d\x00" % len(world_blob))
    digest.update(world_blob)
    for packed in columns:
        header = repr((
            packed.name, packed.feed_type, packed.has_volume,
            packed.n_records, len(packed.domain_blob), len(packed.time_blob),
        ))
        digest.update(header.encode("utf-8"))
        digest.update(packed.domain_blob)
        digest.update(packed.time_blob)
    return digest.hexdigest()


@dataclasses.dataclass(eq=False)
class _RunState(CollectState):
    """The state a pipeline's pool tasks run against.

    Collect tasks read the world and collectors; render tasks render
    ``result``.  In-process this is the parent's own state, holding the
    result as soon as collection finishes.  Forked workers inherit a
    copy at fork time; when the fork preceded collection, a broadcast
    of :func:`_install_render_state` fills in their ``result``.
    """

    seed: int
    feed_order: Sequence[str]
    result: Optional[PipelineResult] = None


def _install_render_state(
    state: _RunState, datasets: Dict[str, FeedDataset]
) -> bool:
    """Pool broadcast: give a forked worker the collected result.

    The world is inherited copy-on-write (it existed when the pool
    forked); only the datasets -- which did not -- are shipped, as
    packed columns.  Each worker assembles its own comparison and warms
    the shared crawl so the render tasks find everything cached.
    Rendering is a pure function of ``(world, datasets, seed)``, so
    worker-built state yields byte-identical text.
    """
    comparison = FeedComparison(state.world, datasets, seed=state.seed)
    comparison.crawl_results()
    state.result = PipelineResult(
        state.world, datasets, comparison, feed_order=state.feed_order
    )
    return True


def _render_task(state: _RunState, name: str) -> str:
    """Pool task: run one named renderer over the state's result."""
    if state.result is None:
        raise RuntimeError("render state was not installed in this worker")
    # Looked up on PaperPipeline so code that wraps its renderers sees it.
    return str(getattr(PaperPipeline, name)(state.result))


class PaperPipeline(PaperView):
    """Builds the world once and serves every paper artifact from it.

    The artifacts themselves (``table1()`` ... ``render_figure12()``)
    come from :class:`~repro.reporting.paper.PaperView` over the run's
    datasets and comparison; :meth:`render_all` renders them all on the
    run's pool, behind the render cache.
    """

    def __init__(
        self,
        config: Optional[EcosystemConfig] = None,
        seed: int = 2012,
        collectors: Optional[Sequence[FeedCollector]] = None,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
        jobs: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        store: Optional[SightingStore] = None,
    ):
        self.config = config or paper_config()
        self.seed = seed
        self._collectors = list(collectors) if collectors else None
        self.feed_order = list(feed_order)
        #: Worker count for collection and rendering fan-outs.  Pure
        #: execution width: every artifact is byte-identical at any
        #: value (None/1 = serial, 0 = all cores).
        self.jobs = jobs
        #: Optional content-addressed artifact cache.  Only runs with
        #: the standard feed suite are cached -- custom collector lists
        #: are not part of the cache key.
        self.cache = cache
        #: Optional sighting store.  Every collected record lands in it
        #: under a run key derived from (config fingerprint, seed) --
        #: like the cache key, a custom collector list is not part of
        #: the key.  The store is an output only: analyses never read
        #: it, so results are byte-identical with or without one.
        self.store = store
        self._result: Optional[PipelineResult] = None
        #: The run's worker pool: opened right after the world build on
        #: a cold run (after the cached state loads, on a state-cache
        #: hit), it serves collect and render alike, so both stages
        #: share one fork bill; :meth:`close` releases it.
        self._pool: Optional[WorkerPool] = None
        #: Whether the pool's workers hold the collected result.
        self._render_installed = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _cache_key(self, kind: str) -> Optional[str]:
        """The content address for this run's *kind* artifact.

        None when caching does not apply: no cache configured, or a
        custom collector suite whose behavior the config fingerprint
        cannot capture.
        """
        if self.cache is None or self._collectors is not None:
            return None
        return artifact_key(kind, fingerprint(self.config), self.seed)

    def _load_cached_state(self) -> Optional[PipelineResult]:
        """The cached state as a deferred result, or None on any miss."""
        key = self._cache_key("pipeline-state")
        if key is None or self.cache is None:
            return None
        return self.cache.load(key, self._accept_state)

    def _accept_state(self, payload: Any) -> Optional[PipelineResult]:
        """A ``pipeline-state`` payload as a deferred result, or None.

        Only the datasets are rebuilt here; the world stays a verified
        blob until something reads it.  An entry whose digest does not
        match its data is a miss, like a torn or foreign one.
        """
        if not isinstance(payload, dict):
            return None
        world_blob = payload.get("world")
        columns = payload.get("columns")
        if not isinstance(world_blob, bytes) or not isinstance(columns, list):
            return None
        if not all(isinstance(c, PackedColumns) for c in columns):
            return None
        try:
            if payload.get("sha256") != _state_digest(world_blob, columns):
                return None
            datasets: Dict[str, FeedDataset] = {
                packed.name: FeedDataset.from_packed(packed)
                for packed in columns
            }
        except (TypeError, ValueError):
            return None  # blob does not round-trip: treat as a miss
        return PipelineResult(
            None, datasets, None, world_blob=world_blob, seed=self.seed,
            feed_order=self.feed_order,
        )

    def _store_state(self, result: PipelineResult) -> None:
        key = self._cache_key("pipeline-state")
        if key is None or self.cache is None:
            return
        world_blob = pickle.dumps(result.world, pickle.HIGHEST_PROTOCOL)
        columns = [
            result.datasets[name].packed() for name in result.datasets
        ]
        self.cache.store(
            key,
            {
                "world": world_blob,
                "columns": columns,
                "sha256": _state_digest(world_blob, columns),
            },
        )

    def run(self) -> PipelineResult:
        """Build world, collect feeds, assemble the comparison (cached).

        With an artifact cache attached, a warm run rebuilds the
        columnar datasets from the cache and defers the world and the
        comparison to their first read (see :class:`PipelineResult`);
        the result is identical either way because both the world build
        and every collector are pure functions of ``(config, seed)``.
        """
        if self._result is not None:
            return self._result
        try:
            return self._run_cold()
        except BaseException:
            # An interrupt (or any crash) between the pool fork and the
            # end of collection must not orphan the workers: reap them
            # on the way out so Ctrl-C leaves no children behind.
            self.close()
            raise

    def _run_cold(self) -> PipelineResult:
        with obs.span("pipeline.run", seed=self.seed):
            writer = self._open_store_run()
            with obs.span("cache.load-state"):
                self._result = self._load_cached_state()
            if self._result is None:
                world = build_world(self.config, seed=self.seed)
                collectors = (
                    self._collectors or standard_feed_suite(self.seed)
                )
                pool = self._open_pool(world, collectors)
                with obs.span("feeds.collect", feeds=len(collectors)):
                    datasets = collect_all(
                        world, collectors, writer=writer, pool=pool
                    )
                with obs.span("comparison.assemble"):
                    comparison = FeedComparison(
                        world, datasets, seed=self.seed
                    )
                self._result = PipelineResult(
                    world, datasets, comparison, feed_order=self.feed_order
                )
                pool.state.result = self._result
                with obs.span("cache.store-state"):
                    self._store_state(self._result)
            elif writer is not None:
                # Cache hit: the datasets never passed through
                # collect_all, so land them here.  Idempotent landing
                # makes this a no-op when a previous run of the same
                # (config, seed) already landed into this store.
                with obs.span("store.land"):
                    for name in self._result.datasets:
                        land_dataset(writer, self._result.datasets[name])
            if writer is not None:
                writer.finish()
        return self._result

    def _open_pool(
        self, world: World, collectors: Sequence[FeedCollector]
    ) -> WorkerPool:
        """Open this run's pool over the state that exists right now.

        Placement is the point: a forked pool inherits everything that
        exists at construction copy-on-write.  A cold run opens it
        *after* the world is built -- and after its shared placement
        index is pre-warmed -- and *before* collection, so collect and
        render reuse the same workers.  A state-cache hit opens it
        from :meth:`render_all`, after warming the comparison, so the
        workers inherit the whole result and need no broadcast.  Those
        reads of ``world`` and ``comparison`` also materialize a
        deferred result before the fork, so no worker takes its lazy
        path or inherits its lock held.
        """
        width = resolve_jobs(self.jobs)
        if width > 1:
            world.placements_by_domain()
            if self._result is not None:
                with obs.span("comparison.warm"):
                    self._result.comparison.crawl_results()
        self._pool = WorkerPool(width, self._run_state(world, collectors))
        self._render_installed = self._result is not None
        return self._pool

    def _run_state(
        self, world: World, collectors: Sequence[FeedCollector]
    ) -> _RunState:
        return _RunState(
            world,
            list(collectors),
            self.seed,
            list(self.feed_order),
            self._result,
        )

    @property
    def pool_width(self) -> int:
        """Live forked workers in the run's pool (0 = in-process)."""
        if self._pool is None or self._pool.closed or not self._pool.forked:
            return 0
        return self._pool.width

    def close(self) -> None:
        """Release the worker pool.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._render_installed = False

    def __enter__(self) -> "PaperPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()

    def _open_store_run(self) -> Optional[RunWriter]:
        if self.store is None:
            return None
        config_fingerprint = fingerprint(self.config)
        return self.store.open_run(
            run_key_for(config_fingerprint, self.seed),
            self.seed,
            config_fingerprint,
            "run",
        )

    @property
    def datasets(self) -> Dict[str, FeedDataset]:
        """The run's collected datasets (runs the pipeline on first use)."""
        return self.run().datasets

    @property
    def comparison(self) -> FeedComparison:
        """The (lazily built) analysis context."""
        return self.run().comparison

    def stream_engine(self):
        """A fresh :class:`~repro.stream.StreamEngine` over this run's data.

        The engine slices the already-collected datasets by day;
        draining it and snapshotting reproduces this pipeline's tables
        and figures byte-for-byte.
        """
        from repro.stream.engine import StreamEngine

        result = self.run()
        return StreamEngine(
            result.world,
            result.datasets,
            seed=self.seed,
            feed_order=self.feed_order,
        )

    # ------------------------------------------------------------------
    # Everything at once
    # ------------------------------------------------------------------

    def render_all(self) -> str:
        """Every table and figure, separated by blank lines.

        The fifteen renderers are independent given a warmed
        comparison, so they run as tasks on the run's pool and come
        back joined in the fixed paper order -- the text is
        byte-identical at any pool width.  Workers forked before
        collection first receive the collected datasets in one
        broadcast (the world was inherited at fork time); a state-cache
        hit forks its pool here instead.  A warm render cache
        short-circuits the whole computation.
        """
        with obs.span("render.all"):
            with obs.span("cache.load-render"):
                cache_key = self._cache_key("render-all")
                if cache_key is not None and self.cache is not None:
                    cached = self.cache.load(cache_key, _accept_render)
                    if isinstance(cached, str):
                        return cached

            result = self.run()
            names = [f"render_{artifact}" for artifact in ARTIFACTS]
            labels = [f"render.{artifact}" for artifact in ARTIFACTS]
            try:
                pool = self._pool
                if pool is None or pool.closed:
                    pool = self._open_pool(result.world, [])
                if not self._render_installed:
                    pool.broadcast(_install_render_state, result.datasets)
                    self._render_installed = True
                parts = pool.run_batch(_render_task, names, labels=labels)
            except (PoolClosed, WorkerCrashed):
                # A crashed pool, or one an evicting serve thread closed
                # under us, is gone; renders are pure, so running them
                # in-process yields the identical text.
                self.close()
                parts = WorkerPool(
                    1, self._run_state(result.world, [])
                ).run_batch(_render_task, names, labels=labels)
            text = "\n\n".join(parts)
            with obs.span("cache.store-render"):
                if cache_key is not None and self.cache is not None:
                    self.cache.store(
                        cache_key, {"text": text, "sha256": _text_digest(text)}
                    )
            return text
