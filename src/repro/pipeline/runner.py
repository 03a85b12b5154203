"""The paper pipeline: one object, every table and figure."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.analysis import (
    FeedComparison,
    coverage_table,
    exclusive_scatter,
    first_appearance_latencies,
    duration_errors,
    kendall_matrix,
    last_appearance_gaps,
    pairwise_overlap,
    program_coverage_matrix,
    affiliate_coverage_matrix,
    purity_table,
    revenue_coverage,
    variation_distance_matrix,
    volume_coverage,
)
from repro.analysis.coverage import CoverageRow, OverlapMatrix, ScatterPoint
from repro.analysis.purity import PurityRow
from repro.analysis.timing import BoxStats
from repro.analysis.volume import VolumeCoverageRow
from repro.analysis.affiliates import RevenueCoverageRow
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
from repro.feeds.base import ColumnarFeedDataset, PackedColumns
from repro.io.artifacts import ArtifactCache, artifact_key, fingerprint
from repro.store.sightings import RunWriter, SightingStore, run_key_for
from repro.parallel import PoolClosed, WorkerCrashed, WorkerPool, resolve_jobs
from repro.reporting.charts import (
    render_bars,
    render_box_stats,
    render_scatter,
    render_stacked_bars,
)
from repro.reporting.matrix import render_overlap_matrix, render_value_matrix
from repro.reporting.paper_tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_data,
)
from repro.simtime import MINUTES_PER_DAY, MINUTES_PER_HOUR

#: Feeds measured in Figure 9 (all except Bot, whose domains barely
#: overlap the others).
FIG9_FEEDS = ("Hyb", "Ac2", "Ac1", "mx3", "mx2", "mx1", "uribl", "dbl", "Hu")

#: The live-mail (honeypot) feeds used for Figures 10-12.
HONEYPOT_FEEDS = ("Ac2", "Ac1", "mx3", "mx2", "mx1")


@dataclasses.dataclass
class PipelineResult:
    """Everything a pipeline run produces."""

    world: World
    datasets: Dict[str, FeedDataset]
    comparison: FeedComparison


#: The artifacts of :meth:`PaperPipeline.render_all`, in paper order;
#: each is rendered by the pipeline's ``render_<artifact>`` method.
ARTIFACTS = tuple(
    [f"table{i}" for i in (1, 2, 3)] + [f"figure{i}" for i in range(1, 13)]
)


@dataclasses.dataclass(eq=False)
class _RunState(CollectState):
    """The state a pipeline's pool tasks run against.

    Collect tasks read the world and collectors; render tasks read
    ``result``.  In-process this is the parent's own state, holding the
    result as soon as collection finishes.  Forked workers inherit a
    copy at fork time; when the fork preceded collection, a broadcast
    of :func:`_install_render_state` fills in their ``result``.
    """

    config: EcosystemConfig
    seed: int
    feed_order: Sequence[str]
    result: Optional[PipelineResult] = None
    _renderer: Optional["PaperPipeline"] = dataclasses.field(
        default=None, init=False, repr=False
    )

    def renderer(self) -> "PaperPipeline":
        """A pool-free pipeline over ``result`` (built once per process)."""
        if self._renderer is None:
            renderer = PaperPipeline(
                self.config, seed=self.seed, feed_order=self.feed_order
            )
            renderer._result = self.result
            self._renderer = renderer
        return self._renderer


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
    state.result = PipelineResult(state.world, datasets, comparison)
    return True


def _render_task(state: _RunState, name: str) -> str:
    """Pool task: run one named renderer over the state's result."""
    if state.result is None:
        raise RuntimeError("render state was not installed in this worker")
    return str(getattr(state.renderer(), name)())


class PaperPipeline:
    """Builds the world once and serves every paper artifact from it."""

    def __init__(
        self,
        config: Optional[EcosystemConfig] = None,
        seed: int = 2012,
        collectors: Optional[Sequence[FeedCollector]] = None,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
        jobs: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        store: Optional[SightingStore] = None,
        shards: Optional[int] = None,
    ):
        self.config = config or paper_config()
        self.seed = seed
        self._collectors = list(collectors) if collectors else None
        self.feed_order = list(feed_order)
        #: Worker count for collection and rendering fan-outs.  Pure
        #: execution width: every artifact is byte-identical at any
        #: value (None/1 = serial, 0 = all cores).
        self.jobs = jobs
        #: Shard count for the world build.  Like ``jobs``, pure
        #: execution width: ``shards=1`` (or None) builds serially and
        #: any other value produces a byte-identical world in parallel
        #: shard workers.  Not part of any cache key for that reason.
        self.shards = shards
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
        key = self._cache_key("pipeline-state")
        if key is None:
            return None
        payload = self.cache.load(key) if self.cache else None
        if not isinstance(payload, dict):
            return None
        world = payload.get("world")
        columns = payload.get("columns")
        if not isinstance(world, World) or not isinstance(columns, list):
            return None
        if not all(isinstance(c, PackedColumns) for c in columns):
            return None
        try:
            datasets: Dict[str, FeedDataset] = {
                packed.name: ColumnarFeedDataset.from_packed(packed)
                for packed in columns
            }
        except ValueError:
            return None  # blob does not round-trip: treat as a miss
        comparison = FeedComparison(world, datasets, seed=self.seed)
        return PipelineResult(world, datasets, comparison)

    def _store_state(self, result: PipelineResult) -> None:
        key = self._cache_key("pipeline-state")
        if key is None or self.cache is None:
            return
        self.cache.store(
            key,
            {
                "world": result.world,
                "columns": [
                    result.datasets[name].packed()
                    for name in result.datasets
                ],
            },
        )

    def run(self) -> PipelineResult:
        """Build world, collect feeds, assemble the comparison (cached).

        With an artifact cache attached, a warm run deserializes the
        world and the columnar datasets instead of rebuilding them; the
        resulting comparison is identical either way because both the
        world build and every collector are pure functions of
        ``(config, seed)``.
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
                with obs.span("world.build", shards=self.shards or 1):
                    if self.shards is not None and self.shards > 1:
                        from repro.ecosystem.shard import build_world_sharded

                        world = build_world_sharded(
                            self.config,
                            seed=self.seed,
                            shards=self.shards,
                            jobs=self.jobs,
                        )
                    else:
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
                self._result = PipelineResult(world, datasets, comparison)
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
        workers inherit the whole result and need no broadcast.
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
            self.config,
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
    def comparison(self) -> FeedComparison:
        """The (lazily built) analysis context."""
        return self.run().comparison

    def stream_engine(self, batch_size: Optional[int] = None):
        """A fresh :class:`~repro.stream.StreamEngine` over this run's data.

        The engine replays the already-collected records incrementally;
        draining it and snapshotting reproduces this pipeline's
        Table 1/2/3 byte-for-byte.
        """
        from repro.stream.engine import StreamEngine
        from repro.stream.merge import DEFAULT_BATCH_SIZE

        result = self.run()
        return StreamEngine(
            result.world,
            result.datasets,
            seed=self.seed,
            feed_order=self.feed_order,
            batch_size=batch_size or DEFAULT_BATCH_SIZE,
        )

    def _present_feeds(self, wanted: Sequence[str]) -> List[str]:
        present = set(self.run().datasets)
        return [name for name in wanted if name in present]

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------

    def table1(self) -> Dict[str, Dict[str, int]]:
        """Feed summary: total samples and unique registered domains."""
        result = self.run()
        return table1_data(
            result.datasets, self._present_feeds(self.feed_order)
        )

    def render_table1(self) -> str:
        """Table 1 in the paper's layout."""
        result = self.run()
        return render_table1(
            result.datasets, self._present_feeds(self.feed_order)
        )

    # ------------------------------------------------------------------
    # Table 2
    # ------------------------------------------------------------------

    def table2(self) -> List[PurityRow]:
        """Purity indicators per feed."""
        return purity_table(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_table2(self) -> str:
        """Table 2 in the paper's layout."""
        return render_table2(self.table2())

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------

    def table3(self) -> List[CoverageRow]:
        """Total/exclusive domain counts per feed."""
        return coverage_table(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_table3(self) -> str:
        """Table 3 in the paper's layout."""
        return render_table3(self.table3())

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def figure1(self, kind: str = "live") -> List[ScatterPoint]:
        """Distinct vs. exclusive scatter data."""
        return exclusive_scatter(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure1(self) -> str:
        """Both Figure 1 panels as scatter tables."""
        left = render_scatter(
            self.figure1("live"), title="Figure 1 (left): live domains"
        )
        right = render_scatter(
            self.figure1("tagged"), title="Figure 1 (right): tagged domains"
        )
        return f"{left}\n\n{right}"

    def figure2(self, kind: str = "live") -> OverlapMatrix:
        """Pairwise feed intersection matrix."""
        return pairwise_overlap(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure2(self) -> str:
        """Both Figure 2 matrices."""
        left = render_overlap_matrix(
            self.figure2("live"),
            title="Figure 2 (left): pairwise intersection, live domains",
        )
        right = render_overlap_matrix(
            self.figure2("tagged"),
            title="Figure 2 (right): pairwise intersection, tagged domains",
        )
        return f"{left}\n\n{right}"

    def figure3(self, kind: str = "live") -> List[VolumeCoverageRow]:
        """Volume coverage rows."""
        return volume_coverage(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure3(self) -> str:
        """Both Figure 3 panels as stacked bars."""
        parts = []
        for kind, label in (("live", "live"), ("tagged", "tagged")):
            rows = self.figure3(kind)
            parts.append(
                render_stacked_bars(
                    [
                        (r.feed, r.covered_fraction, r.benign_fraction)
                        for r in rows
                    ],
                    title=(
                        f"Figure 3 ({label}): spam volume coverage "
                        "(# covered, : Alexa/ODP)"
                    ),
                )
            )
        return "\n\n".join(parts)

    def figure4(self) -> OverlapMatrix:
        """Affiliate-program coverage matrix."""
        return program_coverage_matrix(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure4(self) -> str:
        """Figure 4 matrix."""
        return render_overlap_matrix(
            self.figure4(),
            title="Figure 4: pairwise affiliate-program coverage",
        )

    def figure5(self) -> OverlapMatrix:
        """RX-Promotion affiliate-id coverage matrix."""
        return affiliate_coverage_matrix(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure5(self) -> str:
        """Figure 5 matrix."""
        return render_overlap_matrix(
            self.figure5(),
            title="Figure 5: pairwise RX-Promotion affiliate coverage",
        )

    def figure6(self) -> List[RevenueCoverageRow]:
        """Revenue-weighted affiliate coverage."""
        return revenue_coverage(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure6(self) -> str:
        """Figure 6 bars (millions of USD)."""
        rows = self.figure6()
        return render_bars(
            [(r.feed, r.covered_revenue / 1e6) for r in rows],
            unit="M USD",
            title=(
                "Figure 6: RX-Promotion affiliate coverage weighted by "
                "2010 revenue"
            ),
        )

    def _volume_feeds(self) -> List[str]:
        order = self._present_feeds(self.feed_order)
        volume = set(self.comparison.volume_feed_names)
        return [n for n in order if n in volume]

    def figure7(self) -> Dict[str, Dict[str, float]]:
        """Pairwise variation distance (volume feeds + Mail)."""
        return variation_distance_matrix(
            self.comparison, self._volume_feeds()
        )

    def render_figure7(self) -> str:
        """Figure 7 matrix."""
        matrix = self.figure7()
        return render_value_matrix(
            matrix,
            title=(
                "Figure 7: pairwise variational distance of tagged "
                "domain frequency"
            ),
        )

    def figure8(self) -> Dict[str, Dict[str, float]]:
        """Pairwise Kendall tau-b (volume feeds + Mail)."""
        return kendall_matrix(self.comparison, self._volume_feeds())

    def render_figure8(self) -> str:
        """Figure 8 matrix."""
        return render_value_matrix(
            self.figure8(),
            title=(
                "Figure 8: pairwise Kendall rank correlation of tagged "
                "domain frequency"
            ),
        )

    def figure9(self) -> Dict[str, BoxStats]:
        """Relative first-appearance times, all feeds except Bot."""
        feeds = self._present_feeds(FIG9_FEEDS)
        return first_appearance_latencies(
            self.comparison, feeds, reference_feeds=feeds
        )

    def render_figure9(self) -> str:
        """Figure 9 box summaries (days)."""
        return render_box_stats(
            self.figure9(),
            order=self._present_feeds(FIG9_FEEDS),
            divisor=MINUTES_PER_DAY,
            unit="days",
            title=(
                "Figure 9: relative first appearance time "
                "(campaign start from all feeds except Bot)"
            ),
        )

    def figure10(self) -> Dict[str, BoxStats]:
        """First-appearance times relative to honeypot feeds only."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return first_appearance_latencies(self.comparison, feeds)

    def render_figure10(self) -> str:
        """Figure 10 box summaries (hours)."""
        return render_box_stats(
            self.figure10(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title=(
                "Figure 10: relative first appearance time "
                "(campaign start from MX/honey-account feeds only)"
            ),
        )

    def figure11(self) -> Dict[str, BoxStats]:
        """Last-appearance gap vs. aggregate campaign end."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return last_appearance_gaps(self.comparison, feeds)

    def render_figure11(self) -> str:
        """Figure 11 box summaries (hours)."""
        return render_box_stats(
            self.figure11(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title="Figure 11: last appearance vs. campaign end",
        )

    def figure12(self) -> Dict[str, BoxStats]:
        """Duration-estimate error vs. aggregate campaign duration."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return duration_errors(self.comparison, feeds)

    def render_figure12(self) -> str:
        """Figure 12 box summaries (hours)."""
        return render_box_stats(
            self.figure12(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title="Figure 12: domain lifetime vs. campaign duration",
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
                    cached = self.cache.load(cache_key)
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
                    self.cache.store(cache_key, text)
            return text
