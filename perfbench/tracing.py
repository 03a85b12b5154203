"""Span recording around the public functions of each layer.

The benchmark times layers from its own files: either with an explicit
``recorder.span(name)`` around a call it makes itself, or by replacing a
public function or method with a wrapper that opens a span around the
original.  The wrappers matter where the program calls the layer
internally (``PaperPipeline.run`` calling ``build_world``, the serve
daemon calling ``ServeApp.handle``); nothing under ``src/`` changes.

Spans are ``(id, parent, name, start, end, thread)`` with start and end
read from ``time.monotonic()``, which on Linux is one system-wide clock,
so spans recorded in the serve daemon line up with client timestamps
taken in the benchmark process.  Recording takes no lock (``list.append``
and ``next(count)`` are atomic under the interpreter lock), so a pool
that forks while a span is open cannot inherit a held lock.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

#: One finished span: (id, parent id or 0, name, start, end, thread id).
SpanRow = Tuple[int, int, str, float, float, int]

#: Renderers of ``PaperPipeline.render_all``, in paper order.
RENDERERS = tuple(
    [f"table{i}" for i in (1, 2, 3)] + [f"figure{i}" for i in range(1, 13)]
)


class Recorder:
    """Collects spans in memory; :meth:`dump` writes them out once."""

    def __init__(self) -> None:
        self.spans: List[SpanRow] = []
        #: Last return value per captured span name (render outputs).
        self.outputs: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def dump(self, path: str, process: str) -> None:
        rows = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "thread": s[5], "process": process}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def _wrap(
    recorder: Recorder,
    owner: Any,
    attr: str,
    name_of: Callable[..., Optional[str]],
    capture: bool = False,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    *owner* is a module, a class or one instance.  *name_of* gets the
    call's arguments (``self`` first for class-level methods) and
    returns the span name, or None to call through unrecorded.  Class
    and static methods keep their descriptor kind.
    """
    kind = None
    if inspect.isclass(owner) or inspect.ismodule(owner):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            raw = raw.__func__
        original = raw
    else:
        original = getattr(owner, attr)  # an instance: keep it bound

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = name_of(*args, **kwargs)
        if name is None:
            return original(*args, **kwargs)
        with recorder.span(name):
            result = original(*args, **kwargs)
        if capture:
            recorder.outputs[name] = result
        return result

    setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)


def span_cost_s(calls: int = 20000) -> float:
    """What recording one wrapped call adds, measured here and now.

    Times *calls* calls of a no-op through a span wrapper against the
    bare no-op.  Spans recorded times this cost is the tracing overhead
    of a traced run; a traced-versus-untraced comparison cannot resolve
    it on a host whose speed drifts by more than the overhead.
    """
    class Probe:
        def call(self) -> None:
            return None

    bare = Probe()
    wrapped = Probe()
    _wrap(Recorder(), wrapped, "call", _named("probe"))
    timings = []
    for target in (bare, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            target.call()
        timings.append(time.perf_counter() - start)
    return max(0.0, (timings[1] - timings[0]) / calls)


def _named(name: str) -> Callable[..., str]:
    return lambda *args, **kwargs: name


def install_pipeline(recorder: Recorder, config: Any, seed: int) -> None:
    """Wrap the layers ``PaperPipeline.run``/``render_all`` call into.

    Cache loads and stores are named by what they carry: the
    ``pipeline-state`` and ``render-all`` artifact keys of *config* and
    *seed*, worked out on the first cache call (after the pipeline has
    already paid for the code fingerprint the keys include).
    """
    from repro.analysis.context import FeedComparison
    from repro.io.artifacts import ArtifactCache, artifact_key, fingerprint
    from repro.pipeline import runner
    from repro.pipeline.runner import PaperPipeline

    _wrap(recorder, runner, "build_world", _named("world.build"))
    _wrap(recorder, runner, "FeedComparison", _named("comparison.assemble"))
    _wrap(
        recorder, FeedComparison, "crawl_results", _named("comparison.crawl")
    )
    for artifact in RENDERERS:
        _wrap(
            recorder, PaperPipeline, f"render_{artifact}",
            _named(f"render.{artifact}"), capture=True,
        )

    kinds: Dict[str, str] = {}

    def cache_name(op: str) -> Callable[..., Optional[str]]:
        def name_of(cache: Any, key: str, *rest: Any) -> Optional[str]:
            if not kinds:
                config_fingerprint = fingerprint(config)
                for kind, label in (("pipeline-state", "state"),
                                    ("render-all", "render")):
                    kinds[artifact_key(kind, config_fingerprint, seed)] = label
            kind = kinds.get(key)
            return f"cache.{op}-{kind}" if kind else None
        return name_of

    _wrap(recorder, ArtifactCache, "load", cache_name("load"))
    _wrap(recorder, ArtifactCache, "store", cache_name("store"))

    suite = runner.standard_feed_suite

    def timed_suite(*args: Any, **kwargs: Any) -> Any:
        collectors = suite(*args, **kwargs)
        for collector in collectors:
            _wrap(
                recorder, collector, "collect",
                _named(f"feed.collect.{collector.name}"),
            )
        return collectors

    runner.standard_feed_suite = timed_suite


def install_store(recorder: Recorder) -> None:
    """Wrap the sighting-store calls the program makes internally."""
    from repro.feeds import suite
    from repro.store.sightings import RunWriter, SightingStore

    _wrap(
        recorder, suite, "land_dataset",
        lambda writer, dataset: f"store.land.{dataset.name}",
    )
    _wrap(recorder, SightingStore, "open", _named("store.open"))
    _wrap(recorder, SightingStore, "open_run", _named("store.open"))
    _wrap(recorder, RunWriter, "finish", _named("store.finish"))
    _wrap(recorder, SightingStore, "first_seen", _named("store.first_seen"))


def endpoint_of(path: str) -> str:
    """``/v1/table/2`` -> ``table``; ``/healthz`` -> ``healthz``."""
    parts = [p for p in path.split("/") if p and p != "v1"]
    return parts[0] if parts else "root"


def install_serve(recorder: Recorder) -> None:
    """Wrap the serve request path: app dispatch, lookup, stream."""
    from repro.serve.app import ServeApp
    from repro.serve.worlds import WorldCache
    from repro.stream.engine import StreamEngine

    _wrap(
        recorder, ServeApp, "handle",
        lambda app, path, query: f"serve.app.{endpoint_of(path)}",
    )
    _wrap(
        recorder, ServeApp, "resolve_config", _named("serve.config.resolve")
    )
    _wrap(recorder, WorldCache, "entry", _named("serve.world.lookup"))
    _wrap(recorder, WorldCache, "snapshot", _named("serve.world.snapshot"))
    _wrap(recorder, StreamEngine, "advance_to_day", _named("stream.advance"))
    _wrap(recorder, StreamEngine, "snapshot", _named("stream.snapshot"))


# ----------------------------------------------------------------------
# Reading a span file back
# ----------------------------------------------------------------------


def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return list(json.load(handle))


def self_time_by_name(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time per span name: durations minus their children's."""
    rows = list(spans)
    covered: Dict[Tuple[str, int], float] = {}
    for span in rows:
        if span["parent"]:
            key = (span["process"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span in rows:
        own = span["end"] - span["start"] - covered.get(
            (span["process"], span["id"]), 0.0
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def subtree(
    spans: List[Dict[str, Any]], root_name: str
) -> List[Dict[str, Any]]:
    """The spans named *root_name* and everything below them."""
    children: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault((span["process"], span["parent"]), []).append(span)
    chosen: List[Dict[str, Any]] = []
    todo = [s for s in spans if s["name"] == root_name]
    while todo:
        span = todo.pop()
        chosen.append(span)
        todo.extend(children.get((span["process"], span["id"]), ()))
    return chosen
