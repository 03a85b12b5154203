"""The benchmark's metric registry and the arithmetic that fills it.

Every workload prints every end-to-end metric (untraced runs) or every
per-layer metric (traced runs) under one fixed name and unit, so two
results compare name by name.  ``BENCHMARK.json`` repeats the names,
units and bounds; ``test_smoke.py`` checks that the two agree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from tracing import RENDERERS

FEEDS = ("Hu", "uribl", "dbl", "mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb")

#: (name, unit, better, bound).  What each one means on each workload
#: is in README.md ("End-to-end metrics").  Timing bounds sit at the
#: 0.25 ceiling: on the shared 2-core host this was tuned on, the speed
#: of one CPU shifts by 10-40 % for stretches of seconds to minutes
#: (with no steal time to show for it), so ten runs of one fixed world
#: spread up to about 0.2.  Peak RSS moves only with request timing in
#: the serve daemon.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
)

#: Serve endpoints the request mix reaches (``serve.app.<endpoint>``).
ENDPOINTS = (
    "healthz", "tables", "table", "feeds", "snapshot", "recommend",
    "first-seen",
)

LANDING = "land_rows_per_s@store store_bytes_per_row@store"

#: The workloads that run each layer.  A traced run prints every layer;
#: a layer a workload does not run reads 0 there.  On serve, collection
#: and the renders run in forked pool workers, whose spans the recorder
#: (in the daemon's parent process) does not see, so they are not listed
#: for serve even where ``--jobs 1`` leaves them in the parent.
BATCH, STORE, SERVE = ("batch",), ("store",), ("serve",)
BUILD = ("batch", "store", "serve")

#: (name, unit, better, moves, on): *moves* names the end-to-end
#: metric(s) the layer should move and on which workload, by their
#: ``detail`` names; *on* names the workloads that measure it.
PER_LAYER: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = tuple(
    [("world.build", "s", "lower", "cold_run_s@batch serve_cold_s@serve",
      BUILD)]
    + [
        (f"feed.collect.{feed}", "s", "lower",
         "cold_run_s@batch serve_cold_s@serve", BATCH + STORE)
        for feed in FEEDS
    ]
    + [
        ("feeds.records", "count", "higher", "cold_run_s@batch",
         BATCH + STORE),
        ("comparison.assemble", "s", "lower",
         "cold_run_s@batch serve_cold_s@serve", BATCH + SERVE),
        ("comparison.crawl", "s", "lower",
         "cold_run_s@batch serve_cold_s@serve", BATCH + SERVE),
    ]
    + [
        (f"render.{name}", "s", "lower",
         "cold_run_s@batch serve_cold_s@serve", BATCH)
        for name in RENDERERS
    ]
    + [
        ("cache.store-state", "s", "lower", "cold_run_s@batch", BATCH),
        ("cache.store-render", "s", "lower", "cold_run_s@batch", BATCH),
        ("cache.load-state", "s", "lower", "warm_run_s@batch", BATCH),
        ("cache.load-render", "s", "lower", "warm_run_s@batch", BATCH),
        ("cache.state_bytes", "bytes", "lower", "warm_run_s@batch", BATCH),
        ("store.open", "s", "lower", LANDING, STORE),
    ]
    + [
        (f"store.land.{feed}", "s", "lower", LANDING, STORE)
        for feed in FEEDS
    ]
    + [
        ("store.finish", "s", "lower", LANDING, STORE),
        ("store.bronze_rows", "count", "higher", LANDING, STORE),
        ("store.silver_rows", "count", "higher", LANDING, STORE),
        ("store.gold_rows", "count", "higher", LANDING, STORE),
        ("store.skipped_rows", "count", "higher", LANDING, STORE),
        ("store.reland", "s", "lower", "reland_s@store serve_cold_s@serve",
         STORE + SERVE),
        ("store.first_seen", "us", "lower",
         "lookup_p50_us@store lookup_p99_us@store serve_p50_ms@serve",
         STORE + SERVE),
    ]
    + [
        (f"serve.app.{endpoint}", "ms", "lower",
         "serve_p50_ms@serve serve_rps@serve", SERVE)
        for endpoint in ENDPOINTS
    ]
    + [
        ("serve.transport", "ms", "lower", "serve_p50_ms@serve", SERVE),
        ("serve.config.resolve", "us", "lower", "serve_p50_ms@serve", SERVE),
        ("serve.world.lookup", "us", "lower", "serve_p50_ms@serve", SERVE),
        ("stream.advance", "s", "lower", "serve_p99_ms@serve", SERVE),
        ("stream.snapshot", "s", "lower", "serve_p99_ms@serve", SERVE),
        ("stream.snapshot_hit_ratio", "ratio", "higher",
         "serve_p99_ms@serve", SERVE),
        ("batch.unattributed", "s", "lower", "cold_run_s@batch", BATCH),
        ("trace.overhead_ratio", "ratio", "lower", "(none: tracing cost)",
         BUILD),
    ]
)

UNITS: Dict[str, str] = {
    name: unit for name, unit, _, _ in END_TO_END
}
UNITS.update({entry[0]: entry[1] for entry in PER_LAYER})


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``{name: value}`` -> ``{name: {"value": v, "unit": u}}``."""
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }


def layer_names() -> List[str]:
    return [entry[0] for entry in PER_LAYER]


def measured_on(workload: str) -> List[str]:
    """The layers *workload* runs: each reads above 0 in its traced run."""
    return [entry[0] for entry in PER_LAYER if workload in entry[4]]
