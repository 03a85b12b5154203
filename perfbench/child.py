"""Fresh-process roles: ``python3 perfbench/child.py ROLE PARAMS_JSON``.

Every measured phase runs in a process of its own, started by
``workloads.py``.  A role reads its parameters from a JSON file, does
its phase, and writes a JSON result file; large outputs (rendered text)
go to files named in the parameters.  ``ready`` is the
``time.monotonic()`` reading at which the process could start its
measured work; the parent subtracts its own spawn time to get the
set-up time.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from ledger import median, quantile
from tracing import (
    RENDERERS,
    Recorder,
    install_pipeline,
    install_serve,
    install_store,
    span_cost_s,
)

#: Domains drawn per store run; the closed lookup loop cycles through
#: them.  No lookup record exists in the repository, so the pool size
#: and the share of hits (domains some feed saw) are a stand-in, not a
#: claim about real traffic.  The share is not an even split because
#: hits and misses have separate latency modes (~28 us and ~14 us on
#: the 2-core tuning host): at 1:1 the median sits in the gap between
#: them and moved by 60 % when the share moved by 5 %.  At 3:1 it sits
#: at the hits' first tercile.
LOOKUP_QUERIES = 4096
LOOKUP_HIT_SHARE = 0.75
#: Re-landings of the landed run, each followed by a lookup burst of
#: ``--seconds / RELANDS``; the median re-landing is reported.
RELANDS = 12
#: Domains whose store answers are checked against the analysis.
GATE_HITS, GATE_MISSES = 256, 64


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def config_for(small: bool) -> Any:
    from repro.ecosystem import paper_config, small_config

    return small_config() if small else paper_config()


@contextlib.contextmanager
def maybe_span(recorder: Optional[Recorder], name: str) -> Iterator[None]:
    if recorder is None:
        yield
    else:
        with recorder.span(name):
            yield


def sample_domains(
    datasets: Dict[str, Any], rng: random.Random, hits: int, misses: int
) -> List[str]:
    """*hits* domains some feed saw plus *misses* no feed saw, shuffled."""
    seen = set()
    for dataset in datasets.values():
        seen.update(dataset.unique_domains())
    chosen = rng.sample(sorted(seen), hits)
    while len(chosen) < hits + misses:
        candidate = f"nx{rng.getrandbits(48):012x}.example"
        if candidate not in seen:
            chosen.append(candidate)
    rng.shuffle(chosen)
    return chosen


def expected_first_seen(
    comparison: Any, domains: List[str]
) -> Dict[str, List[List[Any]]]:
    """``domain -> sorted [feed, first_seen, last_seen]`` from the analysis."""
    from repro.analysis.timing import feed_first_seen, feed_last_seen

    wanted = set(domains)
    expected: Dict[str, List[List[Any]]] = {d: [] for d in domains}
    for feed in comparison.datasets:
        first = feed_first_seen(comparison, feed, wanted)
        last = feed_last_seen(comparison, feed, wanted)
        for domain, seen_at in first.items():
            expected[domain].append([feed, seen_at, last[domain]])
    return {d: sorted(rows) for d, rows in expected.items()}


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------


def role_batch(p: Dict[str, Any]) -> Dict[str, Any]:
    """One ``PaperPipeline(...).run()`` + ``render_all()`` (cold or warm)."""
    from repro.io.artifacts import (
        ArtifactCache,
        artifact_key,
        code_fingerprint,
        fingerprint,
    )
    from repro.pipeline import PaperPipeline

    config = config_for(p["small"])
    seed = p["seed"]
    cache = ArtifactCache(p["cache_dir"])
    recorder = Recorder() if p["trace"] else None
    if recorder is not None:
        install_pipeline(recorder, config, seed)
    ready = time.monotonic()
    with maybe_span(recorder, f"batch.{p['phase']}"):
        start = time.monotonic()
        with PaperPipeline(config, seed=seed, cache=cache) as pipeline:
            result = pipeline.run()
            text = pipeline.render_all()
        run_s = time.monotonic() - start
    with open(p["text_path"], "w", encoding="utf-8") as handle:
        handle.write(text)
    out: Dict[str, Any] = {
        "ready": ready,
        "run_s": run_s,
        "rss_mib": peak_rss_mib(),
        "records": sum(d.total_samples for d in result.datasets.values()),
        "code_fingerprint": code_fingerprint(),
    }
    state = cache.path_for(
        artifact_key("pipeline-state", fingerprint(config), seed)
    )
    out["state_bytes"] = os.path.getsize(state) if os.path.exists(state) else 0
    if recorder is not None:
        parts = [recorder.outputs.get(f"render.{name}") for name in RENDERERS]
        if all(part is not None for part in parts):
            with open(p["joined_path"], "w", encoding="utf-8") as handle:
                handle.write("\n\n".join(parts))
        recorder.dump(p["spans_path"], f"batch-{p['phase']}")
        out["span_cost_s"] = span_cost_s()
    return out


def _tier_counts(path: str) -> Dict[str, Any]:
    from repro.store.silver import STATUS_REJECTED
    from repro.store.sightings import SightingStore

    store = SightingStore.open(path)
    try:
        bronze = store.bronze_summary()
        feeds = store.feed_summaries()
    finally:
        store.close()
    return {
        "bronze": sum(row.count for row in bronze),
        "rejected": sum(
            row.count for row in bronze if row.status == STATUS_REJECTED
        ),
        "silver": sum(row.sightings for row in feeds),
        "gold": sum(row.domains for row in feeds),
        "bytes": os.path.getsize(path),
    }


def role_store(p: Dict[str, Any]) -> Dict[str, Any]:
    """Land a collected run, re-land it, then a closed lookup loop."""
    from repro import obs
    from repro.analysis import FeedComparison
    from repro.ecosystem import build_world
    from repro.feeds import standard_feed_suite, suite
    from repro.io.artifacts import code_fingerprint, fingerprint
    from repro.store.sightings import SightingStore, run_key_for

    config = config_for(p["small"])
    seed, path = p["seed"], p["store_path"]
    recorder = Recorder() if p["trace"] else None
    if recorder is not None:
        install_store(recorder)
    with maybe_span(recorder, "world.build"):
        world = build_world(config, seed=seed)
    datasets = {}
    for collector in standard_feed_suite(seed):
        with maybe_span(recorder, f"feed.collect.{collector.name}"):
            datasets[collector.name] = collector.collect(world)
    records = sum(d.total_samples for d in datasets.values())
    config_fingerprint = fingerprint(config)
    run_key = run_key_for(config_fingerprint, seed)
    ready = time.monotonic()

    def land() -> None:
        store = SightingStore.open(path)
        try:
            writer = store.open_run(run_key, seed, config_fingerprint, "run")
            for dataset in datasets.values():
                suite.land_dataset(writer, dataset)
            writer.finish()
        finally:
            store.close()

    start = time.monotonic()
    with maybe_span(recorder, "store.landing"):
        land()
    land_s = time.monotonic() - start
    landed = _tier_counts(path)

    rng = random.Random(f"store-lookups:{p['draw_seed']}")
    queries = sample_domains(
        datasets, rng,
        round(LOOKUP_QUERIES * LOOKUP_HIT_SHARE),
        LOOKUP_QUERIES - round(LOOKUP_QUERIES * LOOKUP_HIT_SHARE),
    )
    relands: List[float] = []
    # The program's own counters, read for the rows a re-land skipped.
    counts = obs.Tracer()
    latencies: List[float] = []
    clock = time.perf_counter
    index = 0
    store = SightingStore.open(path)
    try:
        pragmas = _sqlite_settings(store)
        # Re-landings alternate with lookup bursts, so both are sampled
        # across the whole --seconds window: the host's CPU speed
        # shifts by up to 40 % for stretches of several seconds, and
        # back-to-back samples would all land in one stretch.
        for _ in range(RELANDS):
            start = time.monotonic()
            with maybe_span(recorder, "store.reland"), obs.activate(counts):
                land()
            relands.append(time.monotonic() - start)
            deadline = clock() + p["seconds"] / RELANDS
            with maybe_span(recorder, "store.lookups"):
                while True:
                    domain = queries[index % len(queries)]
                    index += 1
                    began = clock()
                    store.first_seen(domain)
                    ended = clock()
                    latencies.append(ended - began)
                    if ended >= deadline:
                        break
        relanded = _tier_counts(path)
        gate_domains = sample_domains(
            datasets, random.Random(f"store-gate:{p['draw_seed']}"),
            GATE_HITS, GATE_MISSES,
        )
        answers = {d: store.first_seen(d) for d in gate_domains}
    finally:
        store.close()
    expected = expected_first_seen(
        FeedComparison(world, datasets, seed=seed), gate_domains
    )
    if recorder is not None:
        recorder.dump(p["spans_path"], "store")
    return {
        "span_cost_s": span_cost_s() if recorder is not None else 0.0,
        "ready": ready,
        "records": records,
        "land_s": land_s,
        "reland_s": median(relands),
        "landed": landed,
        "relanded": relanded,
        "reland_skipped": counts.metrics.counter("store.skipped_rows")
        // len(relands),
        "lookups": len(latencies),
        "lookup_total_s": sum(latencies),
        "lookup_p50_s": median(latencies),
        "lookup_p99_s": quantile(latencies, 0.99),
        "first_seen_mismatches": sorted(
            d for d, rows in answers.items()
            if sorted([r.feed, r.first_seen, r.last_seen] for r in rows)
            != expected[d]
        ),
        "first_seen_checked": len(answers),
        "first_seen_ordered": all(
            [r.first_seen for r in rows] == sorted(r.first_seen for r in rows)
            for rows in answers.values()
        ),
        "sqlite": pragmas,
        "rss_mib": peak_rss_mib(),
        "code_fingerprint": code_fingerprint(),
    }


def _sqlite_settings(store: Any) -> Dict[str, Any]:
    """The flush settings of the program's own store connection."""
    import sqlite3

    conn = getattr(store.backend, "_conn", None)
    settings: Dict[str, Any] = {"sqlite_version": sqlite3.sqlite_version}
    if conn is not None:
        for pragma in ("synchronous", "journal_mode"):
            settings[pragma] = conn.execute(f"PRAGMA {pragma}").fetchone()[0]
    return settings


def role_serve_prep(p: Dict[str, Any]) -> Dict[str, Any]:
    """Pre-land the serve store and compute the batch reference answers."""
    from repro.analysis.recommend import Question
    from repro.io.artifacts import code_fingerprint
    from repro.pipeline import PaperPipeline
    from repro.store.sightings import SightingStore

    config = config_for(p["small"])
    seed = p["seed"]
    store = SightingStore.open(p["store_path"])
    try:
        with PaperPipeline(config, seed=seed, store=store) as pipeline:
            result = pipeline.run()
            reference = {
                "tables": pipeline.render_all() + "\n",
                "table": {
                    str(i): getattr(pipeline, f"render_table{i}")() + "\n"
                    for i in (1, 2, 3)
                },
            }
            rng = random.Random(f"serve-domains:{p['draw_seed']}")
            domains = sample_domains(result.datasets, rng, 16, 16)
            reference["first_seen"] = expected_first_seen(
                pipeline.comparison, domains
            )
            reference["days"] = int(result.world.timeline.duration_days)
    finally:
        store.close()
    reference["questions"] = [q.value for q in Question]
    with open(p["reference_path"], "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    return {
        "rss_mib": peak_rss_mib(),
        "code_fingerprint": code_fingerprint(),
    }


def role_serve(p: Dict[str, Any]) -> int:
    """``python -m repro serve ...`` in this process, optionally traced."""
    from repro.__main__ import main

    recorder = None
    if p["trace"]:
        recorder = Recorder()
        install_pipeline(recorder, config_for(p["small"]), p["seed"])
        install_store(recorder)
        install_serve(recorder)
    code = main(p["argv"])
    result = {"exit": code, "rss_mib": peak_rss_mib()}
    if recorder is not None:
        recorder.dump(p["spans_path"], p["process"])
        result["span_cost_s"] = span_cost_s()
    _write(p["result_path"], result)
    return int(code)


ROLES: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "batch": role_batch,
    "store": role_store,
    "serve-prep": role_serve_prep,
}


def _write(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv: List[str]) -> int:
    role, params_path = argv
    with open(params_path, encoding="utf-8") as handle:
        params = json.load(handle)
    if params.get("cpu") is not None:
        os.sched_setaffinity(0, {params["cpu"]})
    if role == "serve":
        return role_serve(params)
    _write(params["result_path"], ROLES[role](params))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
