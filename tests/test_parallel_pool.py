"""Lifecycle and safety of the worker pool.

Equivalence of pool-executed pipelines lives in
``test_parallel_equivalence.py``; this module covers the pool's own
contract: ordered results, exception shipping, crash detection (a dead
worker must raise, not hang), no stale replies after a failed
dispatch, idempotent shutdown, per-pool worker state, broadcast-
installed worker state, the in-process width-1 mode, and counter
folding.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.parallel import PoolClosed, WorkerCrashed, WorkerPool
from repro.parallel.pool import _OP_STOP


# Pool tasks are pickled by reference, so they must be module-level.
# Every task is ``fn(state, payload)``.


def _square(state, x: int) -> int:
    return x * x


def _fail_on_two(state, x: int) -> int:
    if x == 2:
        raise ValueError("boom on two")
    return x


def _die(state, x: int) -> int:  # pragma: no cover - runs in a worker
    os._exit(13)


def _count(state, x: int) -> int:
    obs.add("pooltest.count", x)
    obs.add("pooltest.half", 0.5)
    return x


def _echo_state(state, _):
    return state


def _pid(state, _):
    return os.getpid()


def _boom_or_sleep(state, tag: str) -> str:
    """``boom`` fails at once; ``slow-*`` replies after its sibling failed."""
    if tag == "boom":
        raise ValueError("boom")
    if tag.startswith("slow"):
        time.sleep(0.3)
    return tag


def _install(state, value):  # pragma: no cover - runs in workers
    state["installed"] = value
    return True


def _read_installed(state, _):  # pragma: no cover - runs in workers
    return state.get("installed")


def _fail_in_worker(state, pid):  # pragma: no cover - runs in workers
    """A broadcast handler that raises in the worker with *pid* only."""
    if os.getpid() == pid:
        raise ValueError("broadcast boom")
    time.sleep(0.2)
    return "installed"


class TestRunBatch:
    def test_results_in_submission_order(self):
        with WorkerPool(3) as pool:
            assert pool.run_batch(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_more_workers_than_tasks(self):
        with WorkerPool(4) as pool:
            assert pool.run_batch(_square, [3]) == [9]

    def test_empty_batch(self):
        with WorkerPool(2) as pool:
            assert pool.run_batch(_square, []) == []

    def test_pool_reused_across_batches(self):
        # The whole point: one fork, many stages.
        with WorkerPool(2) as pool:
            first = pool.run_batch(_square, [1, 2, 3])
            second = pool.run_batch(_square, [4, 5, 6])
        assert first == [1, 4, 9]
        assert second == [16, 25, 36]

    def test_labels_must_match_payloads(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.run_batch(_square, [1, 2], labels=["only-one"])

    def test_task_exception_reaches_parent(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom on two"):
                pool.run_batch(_fail_on_two, [0, 1, 2, 3])
            # A failing *task* does not kill its worker; the pool
            # stays usable for the caller to decide what to do.
            assert not pool.closed
            assert pool.run_batch(_square, [5]) == [25]

    def test_state_reaches_tasks(self):
        with WorkerPool(2, {"k": 1}) as pool:
            assert pool.run_batch(_echo_state, [None] * 4) == [{"k": 1}] * 4

    def test_concurrent_pools_keep_their_own_state(self):
        # State is a fork-time Process argument, never a module
        # global: a second pool forked while the first is alive cannot
        # overwrite what the first one's workers see.
        with WorkerPool(2, "first") as first:
            with WorkerPool(2, "second") as second:
                assert second.run_batch(_echo_state, [0, 1]) == [
                    "second", "second",
                ]
                assert first.run_batch(_echo_state, [0, 1]) == [
                    "first", "first",
                ]


class TestNoStaleReplies:
    def test_failed_batch_leaves_no_reply_in_flight(self):
        # "boom" fails at once on worker 0 while worker 1 is still
        # running "slow-A"; that late reply must not surface in the
        # next batch.
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run_batch(_boom_or_sleep, ["boom", "slow-A"])
            assert pool.run_batch(_boom_or_sleep, ["B0", "B1"]) == [
                "B0", "B1",
            ]

    def test_failed_broadcast_leaves_no_reply_in_flight(self):
        with WorkerPool(2, {}) as pool:
            with pytest.raises(ValueError, match="broadcast boom"):
                pool.broadcast(_fail_in_worker, pool._workers[0].pid)
            assert pool.run_batch(_square, [3, 4]) == [9, 16]


class TestInProcess:
    """Width 1 runs tasks inline in the parent: no fork, same contract."""

    def test_runs_in_the_parent_process(self):
        with WorkerPool(1) as pool:
            assert not pool.forked
            assert pool.width == 1
            assert pool.run_batch(_pid, [None] * 3) == [os.getpid()] * 3

    def test_state_is_the_parents_own(self):
        state = {"k": 1}
        with WorkerPool(1, state) as pool:
            assert pool.run_batch(_echo_state, [None])[0] is state

    def test_broadcast_does_nothing(self):
        state = {}
        with WorkerPool(1, state) as pool:
            assert pool.broadcast(_install, 42) == []
        assert state == {}

    def test_task_exception_propagates(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="boom on two"):
                pool.run_batch(_fail_on_two, [0, 1, 2, 3])
            assert pool.run_batch(_square, [5]) == [25]

    def test_no_fork_runs_in_process(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        with WorkerPool(4) as pool:
            assert not pool.forked
            assert pool.run_batch(_square, [1, 2, 3]) == [1, 4, 9]

    def test_counters_match_forked(self):
        counters = []
        for width in (1, 3):
            tracer = obs.Tracer()
            with obs.activate(tracer):
                with WorkerPool(width) as pool:
                    pool.run_batch(_count, list(range(1, 7)))
            counters.append(tracer.metrics.snapshot()["counters"])
        for name in ("pooltest.count", "pooltest.half", "fanout.tasks"):
            assert counters[0][name] == counters[1][name]
            assert type(counters[0][name]) is type(counters[1][name])
        assert counters[0]["worker.0.tasks"] == 6


class TestCrashSafety:
    def test_dead_worker_raises_instead_of_hanging(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(WorkerCrashed, match="died"):
                pool.run_batch(_die, [1, 2])
            # A crash poisons the pool: it cannot be trusted further.
            assert pool.closed
            with pytest.raises(PoolClosed):
                pool.run_batch(_square, [1])
        finally:
            pool.close()

    def test_crash_during_broadcast_raises(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(WorkerCrashed):
                pool.broadcast(_die, None)
            assert pool.closed
        finally:
            pool.close()


class TestShutdown:
    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        pool.close()
        assert pool.closed

    def test_use_after_close_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.run_batch(_square, [1])
        with pytest.raises(PoolClosed):
            pool.broadcast(_install, 1)

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            assert not pool.closed
        assert pool.closed

    def test_workers_are_reaped(self):
        pool = WorkerPool(2)
        processes = list(pool._workers)
        pool.close()
        assert all(not p.is_alive() for p in processes)

    def test_minimum_width(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_stop_opcode_is_distinct(self):
        # The stop opcode shares the task pipe; a clash with the task
        # opcode would shut workers down mid-batch.
        assert _OP_STOP != "task"


class TestBroadcast:
    def test_broadcast_installs_worker_local_state(self):
        state = {}
        with WorkerPool(2, state) as pool:
            acks = pool.broadcast(_install, {"payload": 42})
            assert acks == [True, True]
            # Every worker sees the installed state in later tasks.
            seen = pool.run_batch(_read_installed, [None] * 6)
            assert seen == [{"payload": 42}] * 6
        # The parent's copy of the state never changed (worker-local).
        assert state == {}


class TestCounterFolding:
    def test_pool_counters_match_serial(self):
        payloads = list(range(1, 7))
        serial = obs.Tracer()
        with obs.activate(serial):
            for value in payloads:
                _count(None, value)
        pooled = obs.Tracer()
        with obs.activate(pooled):
            # The pool inherits the active tracer at fork time, like
            # collectors inherit the world.
            with WorkerPool(3) as pool:
                pool.run_batch(_count, payloads)
        for name in ("pooltest.count", "pooltest.half"):
            s = serial.metrics.counter(name)
            p = pooled.metrics.counter(name)
            assert s == p
            assert type(s) is type(p)  # ints stay ints across the fork

    def test_worker_stats_recorded(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with WorkerPool(2) as pool:
                pool.run_batch(_square, list(range(8)))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["fanout.tasks"] == 8
        assert counters["worker.0.tasks"] >= 1
