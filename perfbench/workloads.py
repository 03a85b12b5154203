"""The three workloads, driven from the benchmark process.

Each workload starts fresh processes (``child.py`` roles, or the serve
daemon), times them from outside, runs the correctness gates and
returns an :class:`Outcome`.  Why each workload exists, and what every
metric means on it, is in README.md.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

import gates as gate_checks
from ledger import ENDPOINTS, FEEDS, layer_names, median, quantile
from child import RELANDS
from tracing import load_spans, self_time_by_name, subtree

HERE = os.path.dirname(os.path.abspath(__file__))

#: Daemons started on an empty cache (the last one also runs the fill
#: and the loop) and restarted over the cache it filled.  Each start
#: gives one ``setup_s`` sample and one first ``/v1/tables`` answer;
#: the medians are reported.
SERVE_COLD_STARTS = 5
SERVE_WARM_RESTARTS = 3
#: As-of-day snapshots the request mix asks for: days 0-21.
SNAPSHOT_DAYS = 22
#: Endpoint kinds of the closed loop's request mix, drawn with equal
#: weight.  No request log exists in the repository, so the mix is a
#: neutral stand-in over the endpoints serve offers, not a traffic claim.
MIX = (
    "healthz", "tables", "table", "feeds", "recommend", "first-seen",
    "snapshot",
)
#: The world every workload measures: paper config (miniature for
#: serve) at the paper's seed, the one the repo's golden outputs pin.
#: It is fixed because world size moves with its seed (1.03-1.65 M
#: feed records over seeds 11-15), which spread cold times by 10-22 %
#: across seeds.  The workload seed draws what the benchmark chooses:
#: lookup domains, the request mix and the snapshot day order.
WORLD_SEED = 2012
#: Warm batch reruns always measured, even past ``--seconds``.
MIN_WARM_RUNS = 3

READY_LINE = re.compile(r"\[serve\] listening on http://([\d.]+):(\d+)")


class BenchError(RuntimeError):
    """A phase could not finish: a child failed or time ran out."""


@dataclasses.dataclass
class Outcome:
    """What one workload variant measured and checked."""

    e2e: Dict[str, float]
    detail: Dict[str, Tuple[float, str]]
    gates: List[Tuple[str, bool]]
    attempted: int
    failed: int
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    host: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Child:
    result: Dict[str, Any]
    setup_s: float
    wall_s: float


class Context:
    """One benchmark run: its seed, directories, clock and processes."""

    def __init__(
        self, root: str, work: str, out: str, seed: int, seconds: int,
        small: bool, deadline: float,
    ):
        self.root, self.work, self.out = root, work, out
        self.seed, self.seconds, self.small = seed, seconds, small
        self.deadline = deadline
        allowed = sorted(os.sched_getaffinity(0))
        self.cpus = len(allowed)
        #: Serial children (batch, store, serve preparation) run pinned
        #: to this one CPU.
        #: On the 2-core tuning host the two CPUs differ in speed by up
        #: to 15 % at a time, so an unpinned child's speed depended on
        #: where the scheduler put it.
        self.pinned_cpu = allowed[0]
        #: Where the program would put its default cache; pointed inside
        #: the work directory so a stray default-cache use is both
        #: harmless and detected (gates.default_cache_gate).
        self.default_cache = os.path.join(work, "default-cache")
        scratch = os.path.join(work, "tmp")
        os.makedirs(scratch)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            REPRO_CACHE_DIR=self.default_cache,
            TMPDIR=scratch,
            SQLITE_TMPDIR=scratch,
        )
        self._counter = 0
        self._live: List[subprocess.Popen] = []

    def fresh(self, stem: str) -> str:
        """A new path under the work directory (nothing created)."""
        self._counter += 1
        return os.path.join(self.work, f"{stem}-{self._counter}")

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def _params(self, role: str, params: Dict[str, Any]) -> str:
        path = self.fresh(f"{role}-params") + ".json"
        params.setdefault("seed", WORLD_SEED)
        params.setdefault("draw_seed", self.seed)
        params.setdefault("small", self.small)
        params.setdefault("result_path", self.fresh(f"{role}-result") + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(params, handle)
        return path

    def spawn(
        self, role: str, params: Dict[str, Any], **popen: Any
    ) -> Tuple[subprocess.Popen, float]:
        argv = [sys.executable, os.path.join(HERE, "child.py"), role,
                self._params(role, params)]
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=self.env, cwd=self.root, **popen)
        self._live.append(proc)
        return proc, started

    def wait(self, proc: subprocess.Popen) -> int:
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {proc.args[2]} overran the run") from None
        self._live.remove(proc)
        return code

    def child(self, role: str, params: Dict[str, Any]) -> Child:
        """Run one serial child role, pinned, and read its result."""
        params.setdefault("cpu", self.pinned_cpu)
        log = self.fresh(f"{role}-log") + ".txt"
        with open(log, "wb") as stderr:
            proc, started = self.spawn(
                role, params, stdout=subprocess.DEVNULL, stderr=stderr
            )
            code = self.wait(proc)
        ended = time.monotonic()
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise BenchError(f"child {role} exited {code}:\n{tail}")
        with open(params["result_path"], encoding="utf-8") as handle:
            result = json.load(handle)
        ready = result.get("ready", ended)
        return Child(result, ready - started, ended - started)

    def spans_path(self, name: str) -> str:
        return os.path.join(self.out, f"spans-seed{self.seed}-{name}.json")

    def close(self) -> None:
        """Stop and reap every process still running (error paths).

        SIGTERM first: a serve daemon drains and reaps its pool workers
        on it; anything still running after a grace period is killed.
        """
        for proc in list(self._live):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.wait()
            self._live.remove(proc)


def _mean_duration(spans: List[Dict[str, Any]], name: str) -> float:
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return sum(durations) / len(durations) if durations else 0.0


def _empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in layer_names()}


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------


def batch(ctx: Context, traced: bool) -> Outcome:
    """Cold ``run()`` + ``render_all()`` into a fresh cache, then warm reruns."""
    cache = ctx.fresh("batch-cache")
    tag = "traced" if traced else "plain"

    def run(phase: str, n: int, cache: str) -> Tuple[Child, str, str]:
        text = ctx.fresh(f"batch-{phase}-text")
        joined = ctx.fresh(f"batch-{phase}-joined")
        spans = ctx.spans_path(f"batch-{phase}{n}-{tag}")
        child = ctx.child("batch", {
            "phase": phase, "cache_dir": cache, "trace": traced,
            "text_path": text, "joined_path": joined, "spans_path": spans,
        })
        return child, text, joined

    cold, cold_text_path, joined_path = run("cold", 0, cache)
    warms: List[Tuple[Child, str]] = []
    loop_started = time.monotonic()
    while (len(warms) < MIN_WARM_RUNS
           or time.monotonic() - loop_started < ctx.seconds):
        child, text, _ = run("warm", len(warms), cache)
        warms.append((child, text))
    # A second cold run at the other end of the run: one 15 s cold run
    # depends on which stretch of host speed it falls in.
    second, second_text_path, _ = run("cold", 1, ctx.fresh("batch-cache"))

    gates = gate_checks.batch_gates(
        _read(cold_text_path),
        [_read(second_text_path)] + [_read(text) for _, text in warms],
        joined=_read(joined_path) if traced else None,
    )
    walls = [child.wall_s for child, _ in warms]
    colds = [cold, second]
    children = colds + [child for child, _ in warms]
    e2e = {
        "setup_s": median([child.setup_s for child in children]),
        "cold_s": median([child.result["run_s"] for child in colds]),
        "warm_s": median([child.result["run_s"] for child, _ in warms]),
        "p50_ms": median(walls) * 1e3,
        "p99_ms": quantile(walls, 0.99) * 1e3,
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mib": max(child.result["rss_mib"] for child in children),
    }
    detail = {
        "cold_run_s": (e2e["cold_s"], "s"),
        "warm_run_s": (e2e["warm_s"], "s"),
        "warm_command_p50_s": (median(walls), "s"),
        "warm_runs": (len(walls), "count"),
        "records": (cold.result["records"], "count"),
        "state_bytes": (cold.result["state_bytes"], "bytes"),
    }
    outcome = Outcome(
        e2e, detail, gates, attempted=len(children), failed=0,
        host={"code_fingerprint": cold.result["code_fingerprint"]},
    )
    if traced:
        layers = _empty_layers()
        cold_spans, warm_spans = [
            [
                load_spans(ctx.spans_path(f"batch-{phase}{i}-{tag}"))
                for i in range(count)
            ]
            for phase, count in (("cold", len(colds)), ("warm", len(warms)))
        ]
        cold_own = [self_time_by_name(spans) for spans in cold_spans]
        warm_own = [self_time_by_name(spans) for spans in warm_spans]
        from_warm = {"cache.load-state", "cache.load-render"}
        for name in layers:
            phase = warm_own if name in from_warm else cold_own
            layers[name] = median([times.get(name, 0.0) for times in phase])
        # Every cold-run span not reported above (the root's own time,
        # the cold run's cache-load misses) is unattributed, so the
        # reported cold layers plus this add up to the cold run.
        from_cold = set(layers) - from_warm
        layers["batch.unattributed"] = median([
            sum(own for name, own in times.items() if name not in from_cold)
            for times in cold_own
        ])
        layers["trace.overhead_ratio"] = median([
            len(spans) * child.result["span_cost_s"] / child.result["run_s"]
            for spans, child in zip(cold_spans, colds)
        ])
        layers["feeds.records"] = float(cold.result["records"])
        layers["cache.state_bytes"] = float(cold.result["state_bytes"])
        outcome.layers = layers
    return outcome


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


def store(ctx: Context, traced: bool) -> Outcome:
    """Land one collected run, re-land it, then a closed first-seen loop."""
    tag = "traced" if traced else "plain"
    spans_path = ctx.spans_path(f"store-{tag}")
    child = ctx.child("store", {
        "store_path": ctx.fresh("store") + ".db", "seconds": ctx.seconds,
        "trace": traced, "spans_path": spans_path,
    })
    r = child.result
    bronze = r["landed"]["bronze"]
    e2e = {
        "setup_s": child.setup_s,
        "cold_s": r["land_s"],
        "warm_s": r["reland_s"],
        "p50_ms": r["lookup_p50_s"] * 1e3,
        "p99_ms": r["lookup_p99_s"] * 1e3,
        "ops_per_s": r["lookups"] / r["lookup_total_s"],
        "peak_rss_mib": r["rss_mib"],
    }
    detail = {
        "land_rows_per_s": (bronze / r["land_s"], "1/s"),
        "reland_s": (r["reland_s"], "s"),
        "store_bytes_per_row": (r["landed"]["bytes"] / bronze, "bytes"),
        "lookup_p50_us": (r["lookup_p50_s"] * 1e6, "us"),
        "lookup_p99_us": (r["lookup_p99_s"] * 1e6, "us"),
        "lookups": (r["lookups"], "count"),
        "rows_landed": (bronze, "count"),
    }
    outcome = Outcome(
        e2e, detail, gate_checks.store_gates(r),
        attempted=1 + RELANDS + r["lookups"], failed=0,
        host={"code_fingerprint": r["code_fingerprint"], "sqlite": r["sqlite"]},
    )
    if traced:
        spans = load_spans(spans_path)
        layers = _empty_layers()
        setup_own = self_time_by_name([s for s in spans if s["parent"] == 0])
        for name in ["world.build"] + [f"feed.collect.{f}" for f in FEEDS]:
            layers[name] = setup_own.get(name, 0.0)
        landing = self_time_by_name(subtree(spans, "store.landing"))
        for name in ["store.open", "store.finish"] + [
            f"store.land.{f}" for f in FEEDS
        ]:
            layers[name] = landing.get(name, 0.0)
        layers["store.reland"] = _mean_duration(spans, "store.reland")
        layers["store.first_seen"] = 1e6 * _mean_duration(
            subtree(spans, "store.lookups"), "store.first_seen"
        )
        # One span per lookup: the share of a lookup that is recording.
        layers["trace.overhead_ratio"] = (
            r["span_cost_s"] * r["lookups"] / r["lookup_total_s"]
        )
        layers["feeds.records"] = float(r["records"])
        layers["store.bronze_rows"] = float(bronze)
        layers["store.silver_rows"] = float(r["landed"]["silver"])
        layers["store.gold_rows"] = float(r["landed"]["gold"])
        layers["store.skipped_rows"] = float(r["reland_skipped"])
        outcome.layers = layers
    return outcome


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process: start, talk to, stop.

    The daemon runs the miniature world (``repro --small``).  At paper
    scale a serve run needs a ~30 s pre-landed store, a ~15 s cold build
    and ~20 s of first-time snapshot replays before its loop starts,
    which does not fit 22 runs per check; the request path it measures
    (transport, dispatch, memo hits, snapshot replays, first-seen, the
    pool) is the same code at either scale.  Paper-scale build layers
    are measured on ``batch``.
    """

    def __init__(
        self, ctx: Context, cache_dir: str, store_path: str, traced: bool,
        name: str,
    ):
        argv = ["--seed", str(WORLD_SEED), "--small", "-q", "serve",
                "--jobs", str(ctx.cpus), "--store", store_path,
                "--cache-dir", cache_dir]
        self.ctx = ctx
        self.result_path = ctx.fresh("serve-result") + ".json"
        self.spans_path = ctx.spans_path(name)
        self.proc, started = ctx.spawn("serve", {
            "argv": argv, "trace": traced, "small": True,
            "spans_path": self.spans_path, "process": name,
            "result_path": self.result_path,
        }, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.stderr: List[str] = []
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._read_stderr, args=(lines,), daemon=True
        )
        self._reader.start()
        while True:
            try:
                line = lines.get(timeout=ctx.remaining())
            except queue.Empty:
                raise BenchError("serve daemon never became ready") from None
            if line is None:
                raise BenchError(
                    "serve daemon exited before ready:\n"
                    + "".join(self.stderr)[-2000:]
                )
            match = READY_LINE.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self.setup_s = time.monotonic() - started

    def _read_stderr(self, lines: "queue.Queue[Optional[str]]") -> None:
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace")
            self.stderr.append(line)
            lines.put(line)
        lines.put(None)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (graceful drain) and the launcher's exit record."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.ctx.wait(self.proc)
        self._reader.join(timeout=5)
        result: Dict[str, Any] = {"rss_mib": 0.0}
        if os.path.exists(self.result_path):
            with open(self.result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        result["exit"] = code
        return result


def _get(conn: http.client.HTTPConnection, path: str) -> Tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _first_byte_get(
    conn: http.client.HTTPConnection, path: str
) -> Tuple[int, bytes, float]:
    """GET *path*; the time runs until the status line and headers arrive.

    The daemon writes headers and body separately, and Nagle's algorithm
    holds the body until the client ACKs the headers, which a delayed
    ACK can postpone by ~40 ms -- on some fresh connections and not
    others.  Time to first byte is the daemon's work without that stall;
    the closed loop reports full latencies, stall included.
    """
    began = time.monotonic()
    conn.request("GET", path)
    response = conn.getresponse()
    took = time.monotonic() - began
    return response.status, response.read(), took


def _counters(daemon: "Daemon") -> Dict[str, float]:
    conn = daemon.connect()  # idle keep-alive sockets time out server-side
    try:
        status, body = _get(conn, "/v1/stats")
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"/v1/stats answered {status}")
    return dict(json.loads(body)["metrics"]["counters"])


def serve(ctx: Context, traced: bool) -> Outcome:
    """Cold ``/v1/tables`` through the daemon, fill, closed loop, restart."""
    tag = "traced" if traced else "plain"
    store_path = ctx.fresh("serve-store") + ".db"
    reference_path = ctx.fresh("serve-reference") + ".json"
    prep = ctx.child("serve-prep", {
        "store_path": store_path, "reference_path": reference_path,
        "small": True,
    })
    with open(reference_path, encoding="utf-8") as handle:
        ref = json.load(handle)

    setups: List[float] = []
    exits: List[int] = []
    answers: List[Tuple[str, bytes]] = []

    def first_tables(daemon: Daemon, label: str) -> float:
        setups.append(daemon.setup_s)
        conn = daemon.connect()
        status, body, took = _first_byte_get(conn, "/v1/tables")
        conn.close()
        answers.append((label, body if status == 200 else b""))
        return took

    colds = []
    for i in range(SERVE_COLD_STARTS - 1):
        daemon = Daemon(ctx, ctx.fresh("serve-cache"), store_path, False,
                        f"serve-cold{i}-{tag}")
        colds.append(first_tables(daemon, f"cold{i}"))
        exits.append(daemon.stop()["exit"])
    cache = ctx.fresh("serve-cache")
    daemon = Daemon(ctx, cache, store_path, traced, f"serve-main-{tag}")
    colds.append(first_tables(daemon, "cold-main"))
    attempted, failed = len(colds), 0
    conn = daemon.connect()
    before = _counters(daemon)

    # Fill: every distinct answer once, snapshot days in seed order.
    days = list(range(min(SNAPSHOT_DAYS, ref["days"] + 1)))
    random.Random(f"serve-days:{ctx.seed}").shuffle(days)
    domains = sorted(ref["first_seen"])
    expect: Dict[str, Callable[[bytes], bool]] = {
        "/healthz": lambda body: body == b"ok\n",
        "/v1/tables": lambda body: body == ref["tables"].encode(),
    }
    for n in ("1", "2", "3"):
        expect[f"/v1/table/{n}"] = (
            lambda body, n=n: body == ref["table"][n].encode()
        )
    for domain in domains:
        expect[f"/v1/first-seen?domain={quote(domain)}"] = (
            lambda body, d=domain: gate_checks.first_seen_matches(
                body, ref["first_seen"][d]
            )
        )
    learned = ["/v1/feeds"] + [
        f"/v1/recommend?question={q}" for q in ref["questions"]
    ] + [f"/v1/snapshot?day={day}" for day in days]
    fill_started = time.monotonic()
    for path in list(expect) + learned:
        status, body = _get(conn, path)
        attempted += 1
        ok = status == 200 and (path not in expect or expect[path](body))
        failed += int(not ok)
        if path not in expect:
            expect[path] = lambda b, first=body: b == first
    fill_s = time.monotonic() - fill_started
    conn.close()

    def draw(rng: random.Random) -> str:
        kind = rng.choice(MIX)
        if kind == "healthz":
            return "/healthz"
        if kind == "tables":
            return "/v1/tables"
        if kind == "table":
            return f"/v1/table/{rng.choice('123')}"
        if kind == "feeds":
            return "/v1/feeds"
        if kind == "recommend":
            return f"/v1/recommend?question={rng.choice(ref['questions'])}"
        if kind == "first-seen":
            return f"/v1/first-seen?domain={quote(rng.choice(domains))}"
        return f"/v1/snapshot?day={rng.choice(days)}"

    samples: List[Tuple[float, float, bool]] = []
    loop_started = time.monotonic()
    loop_deadline = loop_started + ctx.seconds

    def client(index: int) -> None:
        rng = random.Random(f"serve-mix:{ctx.seed}:{index}")
        client_conn = daemon.connect()
        try:
            while time.monotonic() < loop_deadline:
                path = draw(rng)
                began = time.monotonic()
                try:
                    status, body = _get(client_conn, path)
                    ok = status == 200 and expect[path](body)
                except (OSError, http.client.HTTPException):
                    client_conn.close()
                    client_conn = daemon.connect()
                    ok = False
                samples.append((began, time.monotonic() - began, ok))
        finally:
            client_conn.close()

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(ctx.cpus)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=ctx.remaining())
    if any(thread.is_alive() for thread in threads):
        raise BenchError("serve clients did not finish")
    loop_ended = time.monotonic()
    after = _counters(daemon)
    main = daemon.stop()
    exits.append(main["exit"])

    warms = []
    for i in range(SERVE_WARM_RESTARTS):
        restart = Daemon(ctx, cache, store_path, False,
                         f"serve-restart{i}-{tag}")
        warms.append(first_tables(restart, f"warm{i}"))
        exits.append(restart.stop()["exit"])
    attempted += len(warms)

    latencies = [latency for _, latency, _ in samples]
    attempted += len(samples)
    failed += sum(1 for _, _, ok in samples if not ok)
    e2e = {
        "setup_s": median(setups),
        "cold_s": median(colds),
        "warm_s": median(warms),
        "p50_ms": median(latencies) * 1e3,
        "p99_ms": quantile(latencies, 0.99) * 1e3,
        "ops_per_s": len(samples) / (loop_ended - loop_started),
        "peak_rss_mib": main["rss_mib"],
    }

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    hits = delta("serve.snapshot_hits")
    asked = hits + delta("serve.snapshots_built") + delta(
        "serve.coalesced_snapshots"
    )
    detail = {
        "serve_cold_s": (e2e["cold_s"], "s"),
        "serve_rps": (e2e["ops_per_s"], "1/s"),
        "serve_p50_ms": (e2e["p50_ms"], "ms"),
        "serve_p99_ms": (e2e["p99_ms"], "ms"),
        "serve_warm_restart_s": (e2e["warm_s"], "s"),
        "serve_fill_s": (fill_s, "s"),
        "serve_prep_s": (prep.wall_s, "s"),
        "serve_requests": (len(samples), "count"),
        "snapshot_hit_ratio": (hits / asked if asked else 0.0, "ratio"),
    }
    outcome = Outcome(
        e2e, detail,
        gate_checks.serve_gates(ref["tables"], answers, exits),
        attempted=attempted, failed=failed,
        host={
            "code_fingerprint": prep.result["code_fingerprint"],
            "serve_connections": ctx.cpus,
            "serve_jobs": ctx.cpus,
        },
    )
    if traced:
        spans = load_spans(daemon.spans_path)
        layers = _empty_layers()
        own = self_time_by_name(spans)
        for name in layers:
            if name in own:
                layers[name] = own[name]
        layers["store.reland"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"].startswith("store.land.")
        )
        for name in [f"store.land.{f}" for f in FEEDS] + ["store.open", "store.finish"]:
            layers[name] = 0.0  # the daemon only re-lands; see store.reland
        window = [
            s for s in spans if loop_started <= s["start"] < loop_ended
        ]
        for endpoint in ENDPOINTS:
            layers[f"serve.app.{endpoint}"] = 1e3 * _mean_duration(
                window, f"serve.app.{endpoint}"
            )
        handled = [s for s in window if s["name"].startswith("serve.app.")]
        if handled and latencies:
            layers["serve.transport"] = 1e3 * (
                sum(latencies) / len(latencies)
                - sum(s["end"] - s["start"] for s in handled) / len(handled)
            )
        layers["serve.config.resolve"] = 1e6 * _mean_duration(
            window, "serve.config.resolve"
        )
        layers["serve.world.lookup"] = 1e6 * _mean_duration(
            window, "serve.world.lookup"
        )
        layers["store.first_seen"] = 1e6 * _mean_duration(
            window, "store.first_seen"
        )
        layers["stream.snapshot_hit_ratio"] = detail["snapshot_hit_ratio"][0]
        layers["trace.overhead_ratio"] = (
            len(window) * main["span_cost_s"] / sum(latencies)
        )
        outcome.layers = layers
    return outcome


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


WORKLOADS: Dict[str, Callable[[Context, bool], Outcome]] = {
    "batch": batch,
    "store": store,
    "serve": serve,
}

