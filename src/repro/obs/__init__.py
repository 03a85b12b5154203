"""Runtime observability: tracing, metrics, and run manifests.

``repro.obs`` is the *only* package allowed to read the host clock
(enforced by reprolint rule REP008).  Everything else in the system is
a deterministic function of ``(config, seed)``; observability is a
side channel layered on top of it:

* :class:`Tracer` records a span tree (stage name, attributes,
  wall-clock duration, peak-RSS delta) plus counters and gauges.
* Instrumented call sites use the module-level helpers — :func:`span`,
  :func:`add`, :func:`set_gauge`, :func:`annotate` — which are cheap
  no-ops unless a tracer has been activated with :func:`activate`.
* :mod:`repro.obs.manifest` freezes a finished run into a versioned
  JSON *run manifest* (config fingerprint, seed, git describe, span
  tree, metric snapshot) with a hand-rolled schema validator.

Two invariants keep observability from contaminating reproducibility:
host-time values never flow into any analysis artifact (spans and
metrics are written only to the manifest side channel), and manifests
are never part of artifact-cache keys.  A traced run is therefore
byte-identical to an untraced one in every table and figure.
"""

from repro.obs.hosttime import Stopwatch, peak_rss_kib, wall_now
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    add,
    annotate,
    current_tracer,
    set_gauge,
    span,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Stopwatch",
    "Tracer",
    "activate",
    "add",
    "annotate",
    "current_tracer",
    "peak_rss_kib",
    "set_gauge",
    "span",
    "wall_now",
]
