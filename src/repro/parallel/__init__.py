"""Deterministic multi-core fan-out.

The pipeline's expensive stages decompose into tasks that are pure
functions of state created *before* the fan-out point: the ten feed
collectors are independent given the world (each draws from its own
``stats.rng.derive_rng(seed, label)`` stream), and every figure/table
is an independent function of the warmed analysis context.  This
package executes such task lists under a strict determinism contract:

* **Seeding** -- tasks never share an RNG; every stream is derived
  from the root seed plus a stable task label, so a task's draws are
  identical no matter which worker runs it, or when.
* **Ordered reduction** -- results are reassembled by *task index*,
  never completion order, so the output is byte-identical at every
  width (including 1).
* **Copy-on-write state** -- workers are forked, so they inherit the
  state their pool was opened with (world, datasets, memoized caches)
  without serialization; only task descriptors and results cross the
  process boundary.  Callers pre-warm any shared lazily-built index
  before the fork so no worker pays the first-toucher cost.

One executor implements the contract: :class:`~repro.parallel.pool
.WorkerPool`.  At width 1, on platforms without ``fork``, or inside a
daemonic worker (where nesting pools is impossible) it runs tasks
in-process; wider pools fork **once** per run right after the shared
world is built and stay alive across stages, so collect and render
share a single fork bill (see the pool module docstring).
"""

from repro.parallel.pool import (
    PoolClosed,
    WorkerCrashed,
    WorkerPool,
    fork_available,
    resolve_jobs,
)

__all__ = [
    "PoolClosed",
    "WorkerCrashed",
    "WorkerPool",
    "fork_available",
    "resolve_jobs",
]
