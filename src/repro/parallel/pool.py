"""The one executor: a width-aware worker pool.

Every fan-out in the package -- the ten feed collectors, the fifteen
renderers, reprolint's per-file summaries --
runs through :class:`WorkerPool`.  Width is pure execution width: it
can change wall time, never bytes.

* **Width 1** (or no ``fork`` here) runs in-process: no fork, no
  ``gc.collect``/``gc.freeze``, tasks run inline in index order against
  the parent's own state, and nothing crosses a process boundary.
* **Width N > 1** forks N workers **once**, right after the expensive
  shared state exists, and keeps them alive across stages.  The state
  is handed to every worker as a ``Process`` argument, which under
  ``fork`` is inherited copy-on-write rather than pickled, so two
  pools in one process never see each other's state.  Later stages
  ship only *small task descriptors* down a per-worker pipe: a
  module-level function (pickled by reference) plus a small payload
  such as a collector index.

Tasks are ``fn(state, payload)``.  Results come back tagged with their
submission index and are reduced in that order.  A result that crosses
a process boundary is pickled, so result types that are costly to
pickle define a compact reduction (a feed dataset travels as its packed
columns); in-process results are never
pickled.

The per-task accounting is the same at every width: a
``parallel.fanout`` span, ``worker.N.tasks`` and ``fanout.tasks``
counters, and every tracer counter a task incremented (forked workers
ship per-task counter deltas, folded back in task-index order, so ints
stay ints and serial and parallel snapshots match).

Crash safety: submission and collection multiplex over the result
pipes *and* the worker process sentinels, so a worker dying mid-task
(OOM kill, ``os._exit``) raises :class:`WorkerCrashed` naming the lost
worker and its task instead of hanging the parent.  A dispatch that
ends early -- a task error, a broadcast error, an interrupt -- first
drains or closes the pool, so no reply is ever left in flight for the
next dispatch to pick up.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import sys
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.obs.hosttime import Stopwatch

#: Message opcodes on the task pipe (parent -> worker).
_OP_TASK = "task"
_OP_STOP = "stop"

#: A counter value: ints stay ints end-to-end so the parallel and
#: serial metric snapshots serialize identically (5, never 5.0).
Number = Union[int, float]

#: Whether the oversubscription warning has been printed yet; the
#: warning fires once per process so a run with many fan-outs does not
#: spam stderr.
_WARNED_OVERSUBSCRIBED = False


class WorkerCrashed(RuntimeError):
    """A pool worker died without returning its task's result."""


class PoolClosed(RuntimeError):
    """The pool was used after :meth:`WorkerPool.close`."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value to a concrete worker count.

    ``None`` and ``1`` mean serial; ``0`` or negative mean "all cores".
    The resolved count only ever affects execution width -- results are
    reduced by task index -- which is why the ``cpu_count`` dependence
    below is legitimate.  Requesting more workers than the host has
    cores is honored (width never changes bytes) but warned about once
    on stderr and counted, since the extra workers only add contention.
    """
    global _WARNED_OVERSUBSCRIBED
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1  # reprolint: disable=REP007 -- width only
    cores = os.cpu_count() or 1  # reprolint: disable=REP007 -- warning only
    if jobs > cores:
        obs.add("parallel.oversubscribed")
        if not _WARNED_OVERSUBSCRIBED:
            # A worker that re-resolves jobs marks only its own copy of
            # the flag; the cost is at most one duplicate stderr line,
            # never a changed byte of output.
            _WARNED_OVERSUBSCRIBED = True  # reprolint: disable=REP009 -- advisory warn-once flag
            print(
                f"repro: --jobs {jobs} exceeds the {cores} available "
                "core(s); extra workers only add contention",
                file=sys.stderr,
            )
    return jobs


def fork_available() -> bool:
    """True when fork-based worker pools can be used here and now."""
    if multiprocessing.current_process().daemon:
        # Pool workers are daemonic and may not spawn children; a pool
        # opened inside a worker runs in-process instead.
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _counter_snapshot() -> Dict[str, Number]:
    """Current counter values of the active tracer (empty when none)."""
    tracer = obs.current_tracer()
    if tracer is None:
        return {}
    return dict(tracer.metrics.snapshot()["counters"])


def _task_label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None:
        return labels[index]
    return f"task[{index}]"


def _record_worker_stats(
    meta: Sequence[Tuple[int, int, float]],
    labels: Optional[Sequence[str]],
    elapsed_s: float,
) -> None:
    """Reduce worker-reported (index, pid, duration) into trace data.

    Workers are renumbered densely by sorted pid so metric names do not
    depend on what pids the host handed out.
    """
    tracer = obs.current_tracer()
    if tracer is None:
        return
    by_pid: Dict[int, List[Tuple[int, float]]] = {}
    for index, pid, duration in meta:
        by_pid.setdefault(pid, []).append((index, duration))
    total_idle = 0.0
    for worker, pid in enumerate(sorted(by_pid)):
        ran = by_pid[pid]
        busy = sum(duration for _, duration in ran)
        idle = max(0.0, elapsed_s - busy)
        total_idle += idle
        tracer.metrics.add(f"worker.{worker}.tasks", len(ran))
        tracer.metrics.add(f"worker.{worker}.busy_s", busy)
        tracer.metrics.set_gauge(f"worker.{worker}.idle_s", idle)
        for index, duration in sorted(ran):
            tracer.attach_child(
                _task_label(labels, index), duration, worker=worker
            )
    tracer.metrics.add("fanout.idle_s", total_idle)
    tracer.annotate(workers=len(by_pid))


def _worker_main(
    state: Any,
    task_conn: Connection,
    result_conn: Connection,
    parent_conns: Sequence[Connection] = (),
) -> None:
    """Worker loop: run ``fn(state, payload)`` until told to stop.

    The worker measures each task's duration through the :mod:`repro.obs`
    clock quarantine and ships the delta of every tracer counter the
    task incremented, so the parent can fold them back in and keep
    serial and parallel counter snapshots identical.  Failures are
    shipped as ``("err", ...)`` messages -- the worker survives a
    failing task; only the parent decides whether to keep going.
    """
    # Ctrl-C delivers SIGINT to the whole foreground process group.
    # Workers must not race the parent with their own KeyboardInterrupt
    # tracebacks: they ignore the signal and exit when the parent's
    # interrupt path closes the pool (stop message or EOF on the pipe).
    # SIGTERM must stay *fatal*: the CLI installs a handler that raises
    # SystemExit, and a forked worker inheriting it could swallow the
    # parent's terminate() inside the task error path while blocked in
    # a full result pipe -- the worker would outlive the parent.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # The fork copied every parent-side pipe end into this process:
    # our own task pipe's *write* end (recv() could never see EOF --
    # we would be holding it open ourselves) and earlier siblings'
    # result-pipe *read* ends (their sends could never raise
    # BrokenPipeError while we live).  Close them all so "the parent
    # is gone" is always observable from inside a worker.
    for conn in parent_conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    while True:
        try:
            message = task_conn.recv()
        except EOFError:
            # Parent went away without a clean shutdown; nothing left
            # to serve.
            break
        if message[0] == _OP_STOP:
            break
        _, index, fn, payload = message
        try:
            before = _counter_snapshot()
            watch = Stopwatch()
            result = fn(state, payload)
            elapsed = watch.elapsed()
            deltas = {
                name: value - before.get(name, 0)
                for name, value in _counter_snapshot().items()
                if value != before.get(name, 0)
            }
            result_conn.send(
                ("ok", index, result, os.getpid(), elapsed, deltas)
            )
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                # Shutdown, not a task failure: die now so the parent
                # sees EOF instead of this worker wedging in another
                # blocking send on an already-full result pipe.
                raise
            try:
                result_conn.send(("err", index, exc))
            except Exception:
                # The exception itself does not pickle; ship a
                # description instead of dying silently.
                result_conn.send(
                    ("err", index, RuntimeError(repr(exc)))
                )


class WorkerPool:
    """A fixed-width pool running ``fn(state, payload)`` tasks.

    ``WorkerPool(1, state)`` -- or any width where ``fork`` is
    unavailable -- runs tasks inline in the parent against *state*.
    Wider pools fork their workers at construction, so placement is the
    whole point: construct the pool *after* the expensive shared state
    exists and every worker inherits it copy-on-write, paying the fork
    once per run no matter how many stages fan out.  While forked
    workers live, the parent heap is frozen into the permanent GC
    generation so child collections do not dirty the inherited pages.

    Task functions must be module-level callables (they are pickled by
    reference); per-task inputs travel as small payloads.  State that
    comes into being *after* the fork can be installed into every
    worker's copy of *state* once per stage with :meth:`broadcast`.
    """

    def __init__(self, width: int, state: Any = None):
        # Pre-seed shutdown state so close()/__del__ are safe even if
        # construction raises before any worker exists.
        self._closed = True
        self._frozen = False
        self._workers: List[Any] = []
        self._task_conns: List[Connection] = []
        self._result_conns: List[Connection] = []
        if width < 1:
            raise ValueError("a worker pool needs at least 1 worker")
        #: The state tasks run against (the parent's own copy).
        self.state = state
        # Open for business *before* forking so an interrupt landing
        # mid-construction still reaps the workers already started
        # (close() is a no-op while _closed is True).
        self._closed = False
        if width == 1 or not fork_available():
            return
        context = multiprocessing.get_context("fork")
        with obs.span("pool.fork", width=width):
            # Freeze before forking (see the class docstring).
            gc.collect()
            gc.freeze()
            self._frozen = True
            try:
                for _ in range(width):
                    self._fork_worker(context, state)
            except BaseException:
                self.close()
                raise

    def _fork_worker(self, context: Any, state: Any) -> None:
        # Pipe(duplex=False) returns (read-end, write-end): the parent
        # writes tasks and reads results, the worker holds the
        # opposite ends.
        task_recv, task_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        # Everything parent-side the fork is about to duplicate into
        # this worker; the worker closes them on startup.
        inherited = (
            list(self._task_conns)
            + list(self._result_conns)
            + [task_send, result_recv]
        )
        process = context.Process(
            target=_worker_main,
            args=(state, task_recv, result_send, inherited),
            daemon=True,
        )
        process.start()
        # The worker holds the other ends; closing ours makes its
        # recv() raise EOFError if the parent dies uncleanly.
        task_recv.close()
        result_send.close()
        self._workers.append(process)
        self._task_conns.append(task_send)
        self._result_conns.append(result_recv)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Tasks in flight at once: forked workers, or 1 in-process."""
        return len(self._workers) or 1

    @property
    def forked(self) -> bool:
        """True when tasks run in forked workers, not in the parent."""
        return bool(self._workers)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (or the pool broke)."""
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_batch(
        self,
        fn: Callable[[Any, Any], Any],
        payloads: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Run ``fn(state, payload)`` for every payload; results in order.

        Forked tasks are dealt one at a time to whichever worker is free
        (completion-order *scheduling* for load balance), but results
        are slotted by submission index and counter deltas are folded
        in that same index order, so scheduling never shows up in the
        output.  ``labels`` (one per payload) names the per-task spans
        in the run manifest.
        """
        self._check_open()
        if not payloads:
            return []
        if labels is not None and len(labels) != len(payloads):
            raise ValueError("labels must match payloads one-to-one")
        with obs.span(
            "parallel.fanout", tasks=len(payloads), width=self.width
        ):
            if self.forked:
                return self._dispatch(fn, payloads, labels)
            results: List[Any] = []
            for index, payload in enumerate(payloads):
                with obs.span(_task_label(labels, index), worker=0):
                    results.append(fn(self.state, payload))
            obs.add("worker.0.tasks", len(payloads))
            obs.add("fanout.tasks", len(payloads))
            return results

    def _dispatch(
        self,
        fn: Callable[[Any, Any], Any],
        payloads: Sequence[Any],
        labels: Optional[Sequence[str]],
    ) -> List[Any]:
        """The forked dispatch loop behind :meth:`run_batch`."""
        n = len(payloads)
        watch = Stopwatch()
        meta: List[Tuple[int, int, float]] = []
        results: List[Any] = [None] * n
        pending: Dict[int, Dict[str, Number]] = {}  # index -> deltas
        busy: Dict[int, int] = {}  # worker -> outstanding task index
        next_task = next_fold = 0

        def submit(worker: int) -> None:
            nonlocal next_task
            self._task_conns[worker].send(
                (_OP_TASK, next_task, fn, payloads[next_task])
            )
            busy[worker] = next_task
            next_task += 1

        try:
            for worker in range(min(self.width, n)):
                submit(worker)
            while busy:
                ready = wait(
                    [self._result_conns[w] for w in busy]
                    + [self._workers[w].sentinel for w in busy]
                )
                progressed = False
                for worker in sorted(busy):
                    conn = self._result_conns[worker]
                    if conn not in ready or not conn.poll():
                        continue
                    progressed = True
                    label = _task_label(labels, busy[worker])
                    message = self._reply(
                        worker, f"while running task {label!r}"
                    )
                    del busy[worker]
                    if message[0] == "err":
                        raise message[2]
                    _, index, result, pid, elapsed, deltas = message
                    results[index] = result
                    pending[index] = deltas
                    meta.append((index, pid, elapsed))
                    if next_task < n:
                        submit(worker)
                if not progressed:
                    for worker in sorted(busy):
                        if not self._workers[worker].is_alive():
                            label = _task_label(labels, busy[worker])
                            raise self._crash(
                                worker, f"while running task {label!r}"
                            )
                    continue
                while next_fold in pending:
                    deltas = pending.pop(next_fold)
                    for name in sorted(deltas):
                        obs.add(name, deltas[name])
                    next_fold += 1
        except BaseException as exc:
            self._settle(busy, exc)
            raise
        obs.add("fanout.tasks", n)
        _record_worker_stats(meta, labels, watch.elapsed())
        return results

    def broadcast(self, fn: Callable[[Any, Any], Any], payload: Any) -> List[Any]:
        """Run ``fn(state, payload)`` once in *every* forked worker.

        This is the stage-boundary hook: state assembled after the fork
        (for example the collected feed columns) is installed into all
        workers in one shot, instead of riding along with every task.
        In-process it does nothing and returns ``[]``: the parent is
        the only worker and already holds that state.  Broadcast
        effects are worker-local by design -- counter deltas are *not*
        folded back, because a serial run has no equivalent step -- so
        broadcast functions must only build caches, never produce
        results the run depends on.  Every worker's reply is collected
        before an error is raised, so none stays in flight.
        """
        self._check_open()
        if not self.forked:
            return []
        with obs.span("parallel.pool.broadcast", width=self.width):
            # Pickle once, not once per worker: the payload is the
            # stage's bulk state.
            message = ForkingPickler.dumps((_OP_TASK, 0, fn, payload))
            try:
                for conn in self._task_conns:
                    conn.send_bytes(message)
                replies = [
                    self._reply(worker, "during a broadcast")
                    for worker in range(self.width)
                ]
            except BaseException:
                self.close()
                raise
        for reply in replies:
            if reply[0] == "err":
                raise reply[2]
        return [reply[2] for reply in replies]

    # ------------------------------------------------------------------
    # Replies and failure
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise PoolClosed("worker pool has been closed")

    def _reply(self, worker: int, detail: str) -> Any:
        """Block for *worker*'s next reply; a dead worker raises."""
        conn = self._result_conns[worker]
        wait([conn, self._workers[worker].sentinel])
        try:
            if conn.poll():
                return conn.recv()
        except EOFError:
            # The worker died with its result pipe open; the EOF is the
            # crash signal.
            pass
        raise self._crash(worker, detail)

    def _crash(self, worker: int, detail: str) -> "WorkerCrashed":
        # A dead worker cannot be trusted for further tasks; tear the
        # whole pool down so the caller's next attempt starts clean.
        self.close()
        return WorkerCrashed(
            f"pool worker {worker} (pid {self._workers[worker].pid}) "
            f"died {detail}"
        )

    def _settle(self, busy: Dict[int, int], exc: BaseException) -> None:
        """Leave no reply in flight after a dispatch ended early.

        A task error waits out the tasks still running and discards
        their replies, so the pool stays usable.  Anything else -- an
        interrupt, a failure while draining --
        closes the pool rather than wait on tasks nobody will read.
        """
        if self._closed or not busy:
            return
        if not isinstance(exc, Exception):
            self.close()
            return
        try:
            for worker in sorted(busy):
                self._reply(worker, "while draining an aborted dispatch")
        except BaseException:
            self.close()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop and reap all workers.  Safe to call any number of times.

        Shutdown escalates: STOP message, then SIGTERM, then SIGKILL.
        Between steps the parent drains each result pipe -- a worker
        mid-task when the pool closes may be blocked writing a large
        result into a full pipe, and it cannot notice the STOP (or be
        unblocked by the parent closing its ends: forked siblings hold
        duplicate descriptors) until someone reads.  SIGKILL is the
        backstop that makes close() unconditionally terminal, so an
        interrupted run can never leak live workers past process exit.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._task_conns:
            try:
                conn.send((_OP_STOP, None))
            except (BrokenPipeError, OSError):
                pass  # worker already gone
        for worker, process in enumerate(self._workers):
            self._drain_result(worker)
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout)
            if process.is_alive():  # pragma: no cover - wedged in send
                process.kill()
                process.join(timeout)
        for conn in self._task_conns + self._result_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._frozen:
            self._frozen = False
            gc.unfreeze()

    def _drain_result(self, worker: int) -> None:
        """Discard buffered results so a send-blocked worker can exit."""
        conn = self._result_conns[worker]
        try:
            while self._workers[worker].is_alive() and conn.poll(0.05):
                conn.recv()
        except (EOFError, OSError):  # pragma: no cover - worker raced us
            pass
