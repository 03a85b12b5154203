"""The HTTP transport and lifecycle of ``python -m repro serve``.

Zero dependencies: :class:`http.server.ThreadingHTTPServer` over a
local socket, one thread per request, all request logic delegated to
:class:`~repro.serve.app.ServeApp`.  This module owns the two things
the app deliberately does not know about:

* **Lifecycle.**  SIGINT and SIGTERM initiate a graceful drain: stop
  accepting connections, let every in-flight request finish and flush
  its response, then close the resident worlds (reaping their worker
  pools), the sighting store, and the socket.  Handler threads are
  non-daemon and joined on close -- a client that got its request in
  before the signal always gets its full response.
* **Per-request manifests.**  With ``--manifest-dir``, every request
  is traced on its own :class:`~repro.obs.Tracer` (thread-private, so
  concurrent requests never interleave span trees) and frozen into a
  standard ``repro-run-manifest`` JSON naming the endpoint and the
  world that answered.  Manifests are a side channel: response bytes
  are identical with and without them.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.trace import Tracer
from repro.serve.app import Response, ServeApp


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim: parse, delegate to the app, write bytes."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections poll at this interval, which bounds
    #: how long a graceful drain waits for threads that are not
    #: actually computing anything.
    timeout = 1.0
    #: TCP_NODELAY: a response is never held back waiting for the ACK
    #: of the one before it, which a delayed ACK stalls by ~40 ms.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        daemon: "ServeDaemon" = self.server.repro_daemon  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        response = daemon.handle_request(split.path, query)
        body = response.body
        self.log_request(response.status)
        head = [
            f"{self.protocol_version} {response.status} "
            f"{self.responses[response.status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(body)}",
        ]
        if daemon.draining:
            head.append("Connection: close")
            self.close_connection = True
        head.extend(("", ""))
        try:
            # Status line, headers and body leave in one write: split
            # into several sends, the body waits on the client's ACK
            # of the headers.
            self.wfile.write("\r\n".join(head).encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-write; nothing to salvage.
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        daemon: "ServeDaemon" = self.server.repro_daemon  # type: ignore[attr-defined]
        if daemon.verbose:
            sys.stderr.write(
                "[serve] %s %s\n" % (self.address_string(), format % args)
            )


class _Server(ThreadingHTTPServer):
    """Threaded server that joins in-flight requests on close."""

    #: Non-daemon handler threads + block_on_close: server_close()
    #: waits for every in-flight request -- the graceful-drain half of
    #: the SIGINT/SIGTERM contract.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class ServeDaemon:
    """Binds the app to a socket and owns start/drain/close."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        manifest_dir: Optional[str] = None,
        verbose: bool = False,
    ):
        self.app = app
        self.manifest_dir = manifest_dir
        self.verbose = verbose
        self.draining = False
        self._request_ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._stop = threading.Event()
        self._received: List[int] = []
        self._previous_handlers: Optional[Dict[int, Any]] = None
        self._server = _Server((host, port), _RequestHandler)
        self._server.repro_daemon = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- introspection -------------------------------------------------

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        return int(self._server.server_address[1])

    # -- request path --------------------------------------------------

    def handle_request(self, path: str, query: Any) -> Response:
        """One request: app dispatch plus optional manifest emission."""
        if self.manifest_dir is None:
            return self.app.handle(path, query)
        with self._id_lock:
            request_id = next(self._request_ids)
        tracer = Tracer()
        with tracer.span("serve.request", path=path) as span:
            response = self.app.handle(path, query)
            span.attributes["status"] = response.status
        self._write_request_manifest(request_id, path, tracer, response)
        return response

    def _write_request_manifest(
        self,
        request_id: int,
        path: str,
        tracer: Tracer,
        response: Response,
    ) -> None:
        assert self.manifest_dir is not None
        manifest = build_manifest(
            tracer,
            command="serve",
            seed=(
                response.seed
                if response.seed is not None
                else self.app.default_seed
            ),
            config_fingerprint=response.config_fingerprint,
            request=f"{request_id:06d} GET {path} -> {response.status}",
        )
        target = os.path.join(
            self.manifest_dir, f"request-{request_id:06d}.json"
        )
        try:
            write_manifest(target, manifest)
        except OSError as exc:
            # Manifests are a side channel; losing one degrades
            # observability, never the response.
            sys.stderr.write(
                f"warning: cannot write request manifest {target}: {exc}\n"
            )
            return
        self.app.stats.add("serve.manifests_written")

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Serve in a background thread (returns once accepting)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-accept",
        )
        self._thread.start()

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Idempotent; safe to call from any thread except a request
        handler (a handler draining the server that is joining it
        would deadlock).
        """
        if self.draining:
            return
        self.draining = True
        self._server.shutdown()  # stop the accept loop
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # server_close() joins every in-flight (non-daemon) handler
        # thread before closing the listening socket: responses first,
        # then teardown.
        self._server.server_close()
        self.app.worlds.close()  # reap worker pools
        self.app.close()  # flush + close the sighting store
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM to a graceful drain from now on.

        Called *before* the readiness line is printed so there is no
        window where a supervisor that just read the line can signal
        the daemon and still hit the CLI's exit-with-status handlers
        instead of the drain path.
        """
        if self._previous_handlers is not None:
            return

        def on_signal(signum: int, frame: Any) -> None:
            self._received.append(signum)
            self._stop.set()

        self._previous_handlers = {
            signum: signal.signal(signum, on_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }

    def wait_for_signal(self) -> int:
        """Block until SIGINT/SIGTERM, then drain; returns exit status."""
        self.install_signal_handlers()
        previous = self._previous_handlers or {}
        try:
            self._stop.wait()
            self.drain()
        finally:
            self._previous_handlers = None
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        if self.verbose and self._received:
            sys.stderr.write(
                f"[serve] {signal.Signals(self._received[0]).name}: "
                "drained and closed cleanly\n"
            )
        return 0

    def close(self) -> None:
        """Hard close for error paths (no accept loop running)."""
        try:
            self._server.server_close()
        except OSError:
            pass
        self.app.worlds.close()
        self.app.close()


def probe(address: str, timeout: float = 1.0) -> bool:
    """True when a serve daemon is accepting at ``host:port``."""
    split = urlsplit(address if "//" in address else f"//{address}")
    assert split.hostname is not None and split.port is not None
    try:
        with socket.create_connection(
            (split.hostname, split.port), timeout=timeout
        ):
            return True
    except OSError:
        return False


__all__ = ["ServeDaemon", "probe"]
