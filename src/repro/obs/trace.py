"""Span-tree tracing with an activate/deactivate current-tracer scope.

A :class:`Tracer` records what a run *did* — nested stages with
wall-clock durations and peak-RSS deltas — and carries the run's
:class:`~repro.obs.metrics.MetricsRegistry`.  Instrumented modules do
not hold a tracer; they call the module-level helpers (:func:`span`,
:func:`add`, :func:`set_gauge`, :func:`annotate`), which dispatch to
the currently activated tracer or do nothing.  The inactive path is a
dictionary load and a ``None`` check, so instrumentation stays in the
code permanently at negligible cost.

Fork-based worker pools inherit the active tracer but their in-child
span mutations die with the child; parallel stages therefore measure
child durations explicitly and attach them in the parent via
:meth:`Tracer.attach_child`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.hosttime import monotonic_now, peak_rss_kib
from repro.obs.metrics import MetricsRegistry, Number

AttrValue = Union[None, bool, int, float, str]


@dataclasses.dataclass
class Span:
    """One finished stage: name, attributes, duration, RSS growth."""

    name: str
    attributes: Dict[str, AttrValue]
    duration_s: float
    rss_delta_kib: Optional[int]
    children: List["Span"]

    def to_payload(self) -> Dict[str, Any]:
        """JSON-friendly form (the manifest's ``spans`` entries)."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "duration_s": self.duration_s,
            "rss_delta_kib": self.rss_delta_kib,
            "children": [child.to_payload() for child in self.children],
        }

    def walk(self) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) traversal, self included at 0."""
        stack: List[Tuple[int, Span]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def stage_names(self) -> List[str]:
        """Every distinct stage name in this subtree, sorted."""
        return sorted({node.name for _, node in self.walk()})


#: Counters every traced run reports even when nothing incremented
#: them — a manifest consumer can rely on their presence.
BASELINE_COUNTERS = (
    "cache.hit",
    "cache.miss",
    "cache.store",
    "cache.invalidation",
    "cache.world_loads",
    "feeds.truncated_records",
    "feeds.truncated_placements",
)


class Tracer:
    """Records a span tree plus counters/gauges for one run."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        for name in BASELINE_COUNTERS:
            self.metrics.add(name, 0)
        self.roots: List[Span] = []
        #: Open spans, outermost first; children attach to the last.
        self._open: List[Span] = []

    # -- recording -----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attributes: AttrValue) -> Iterator[Span]:
        """Record a stage around the ``with`` body.

        Duration and RSS delta are measured here (the only timing
        source is :mod:`repro.obs.hosttime`); nesting follows the
        dynamic call structure.
        """
        node = Span(
            name=name,
            attributes=dict(attributes),
            duration_s=0.0,
            rss_delta_kib=None,
            children=[],
        )
        self._attach(node)
        self._open.append(node)
        rss_before = peak_rss_kib()
        started = monotonic_now()
        try:
            yield node
        finally:
            node.duration_s = monotonic_now() - started
            rss_after = peak_rss_kib()
            if rss_before is not None and rss_after is not None:
                node.rss_delta_kib = rss_after - rss_before
            self._open.pop()

    def attach_child(
        self,
        name: str,
        duration_s: float,
        **attributes: AttrValue,
    ) -> Span:
        """Attach an externally measured span (e.g. from a fork worker).

        The child's clock never crosses the process boundary — workers
        report a duration they measured themselves through
        :mod:`repro.obs.hosttime`, and the parent records it here.
        """
        node = Span(
            name=name,
            attributes=dict(attributes),
            duration_s=duration_s,
            rss_delta_kib=None,
            children=[],
        )
        self._attach(node)
        return node

    def annotate(self, **attributes: AttrValue) -> None:
        """Set attributes on the innermost open span (no-op outside one)."""
        if self._open:
            self._open[-1].attributes.update(attributes)

    def _attach(self, node: Span) -> None:
        if self._open:
            self._open[-1].children.append(node)
        else:
            self.roots.append(node)

    # -- export --------------------------------------------------------

    def span_payloads(self) -> List[Dict[str, Any]]:
        """The root spans as JSON-friendly payloads."""
        return [root.to_payload() for root in self.roots]

    def stage_names(self) -> List[str]:
        """Every distinct stage name recorded, sorted."""
        names = set()
        for root in self.roots:
            names.update(root.stage_names())
        return sorted(names)


# ----------------------------------------------------------------------
# The current tracer and its no-op-safe helpers
# ----------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The tracer activated in this process, if any."""
    return _ACTIVE


@contextlib.contextmanager
def activate(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Make *tracer* current for the ``with`` body (None = no tracing).

    Scoped, not global-set: the previous tracer is restored on exit,
    so tests can nest activations safely.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@contextlib.contextmanager
def span(name: str, **attributes: AttrValue) -> Iterator[Optional[Span]]:
    """Record a stage on the current tracer; no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attributes) as node:
        yield node


def add(name: str, value: Number = 1) -> None:
    """Increment a counter on the current tracer (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.add(name, value)


def set_gauge(name: str, value: Number) -> None:
    """Set a gauge on the current tracer (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.metrics.set_gauge(name, value)


def annotate(**attributes: AttrValue) -> None:
    """Annotate the innermost open span (no-op when off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.annotate(**attributes)
