"""The serve daemon's request logic, transport-free.

:class:`ServeApp` maps ``(path, query)`` to a :class:`Response` using a
:class:`~repro.serve.worlds.WorldCache`; the HTTP layer in
:mod:`repro.serve.server` only parses requests and writes bytes.  The
split keeps every endpoint unit-testable without a socket and keeps the
answer surface honest: each endpoint is a pure function of its
parameters plus the deterministic world they select.

Endpoints (all GET):

* ``/healthz`` -- liveness probe, never touches a world.
* ``/v1/tables`` -- every table and figure, byte-identical to
  ``python -m repro run`` stdout for the same config and seed.
* ``/v1/table/{1,2,3}`` -- one paper table.
* ``/v1/feeds`` -- per-feed purity and coverage as JSON.
* ``/v1/snapshot?day=D`` -- Table 1/2/3 as of the start of day D.
* ``/v1/recommend?question=Q`` -- Section 5 feed ranking as JSON.
* ``/v1/first-seen?domain=X`` -- cross-run first-seen from the
  daemon's sighting store.
* ``/v1/stats`` -- daemon counters, resident worlds, uptime.

World-selecting endpoints share three query parameters: ``seed``
(default from the CLI), ``small`` (0/1) and ``scale`` (float) -- the
same knobs the batch CLI exposes, resolved to the same configs.  Bad
parameters are 400s; a world whose build cannot land in the daemon's
``--store`` (e.g. a file another connection holds locked) is a 503.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.recommend import Question, rank_feeds
from repro.ecosystem import (
    EcosystemConfig,
    paper_config,
    scaled_config,
    small_config,
)
from repro.io.artifacts import fingerprint
from repro.serve.worlds import ServeStats, WorldCache, WorldEntry
from repro.store.backend import StoreError
from repro.store.sightings import SightingStore


TEXT = "text/plain; charset=utf-8"
JSON = "application/json"


def json_body(payload: Any) -> bytes:
    """The bytes every JSON answer is served as."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


@dataclasses.dataclass
class Response:
    """One finished answer, ready for any transport."""

    status: int
    content_type: str
    body: bytes
    #: Key of the world that answered (manifest provenance), if any.
    config_fingerprint: str = ""
    seed: Optional[int] = None

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        return cls(status, JSON, json_body(payload))

    @classmethod
    def answer(
        cls, entry: WorldEntry, body: bytes, content_type: str = TEXT
    ) -> "Response":
        """A 200 carrying a memoized *body* that *entry*'s world answered."""
        return cls(
            200, content_type, body,
            config_fingerprint=entry.key[0], seed=entry.seed,
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message}, status=status)


class BadRequest(ValueError):
    """A malformed or unanswerable request (becomes a 400)."""


def _first(query: Mapping[str, List[str]], name: str) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None


class ServeApp:
    """Routes requests over one world cache and one optional store."""

    def __init__(
        self,
        worlds: WorldCache,
        stats: ServeStats,
        default_seed: int = 2012,
        default_small: bool = False,
        store: Optional[SightingStore] = None,
    ):
        self.worlds = worlds
        self.stats = stats
        self.default_seed = default_seed
        self.default_small = default_small
        #: Daemon-held read connection for first-seen queries, guarded
        #: by the store lock in :mod:`repro.serve.server` handlers via
        #: :meth:`first_seen_rows`.
        self._store = store
        self._store_lock = threading.Lock()
        #: The unscaled configs (``small`` 0/1) with their fingerprints,
        #: built once: hashing a config per request cost more than
        #: answering it from a warm memo.  Scaled configs are not kept,
        #: so nothing here grows with what clients send.
        self._configs: Dict[bool, Tuple[EcosystemConfig, str]] = {
            small: (config, fingerprint(config))
            for small, config in ((False, paper_config()),
                                  (True, small_config()))
        }
        self._routes: Dict[str, Callable[..., Response]] = {
            "/healthz": self._healthz,
            "/v1/tables": self._tables,
            "/v1/table/1": self._one_table,
            "/v1/table/2": self._one_table,
            "/v1/table/3": self._one_table,
            "/v1/feeds": self._feeds,
            "/v1/snapshot": self._snapshot,
            "/v1/recommend": self._recommend,
            "/v1/first-seen": self._first_seen,
            "/v1/stats": self._stats,
        }

    # -- parameter resolution ------------------------------------------

    def resolve_config(
        self, query: Mapping[str, List[str]]
    ) -> Tuple[EcosystemConfig, str, int]:
        """The (config, config fingerprint, seed) a request selects."""
        seed_raw = _first(query, "seed")
        try:
            seed = self.default_seed if seed_raw is None else int(seed_raw)
        except ValueError:
            raise BadRequest(
                f"seed must be an integer, got {seed_raw!r}"
            ) from None
        small_raw = _first(query, "small")
        if small_raw is None:
            small = self.default_small
        elif small_raw in ("0", "1"):
            small = small_raw == "1"
        else:
            raise BadRequest(f"small must be 0 or 1, got {small_raw!r}")
        config, config_fingerprint = self._configs[small]
        scale_raw = _first(query, "scale")
        if scale_raw is not None:
            try:
                scale = float(scale_raw)
            except ValueError:
                raise BadRequest(
                    f"scale must be a number, got {scale_raw!r}"
                ) from None
            if not (math.isfinite(scale) and scale > 0):
                raise BadRequest(
                    f"scale must be a positive number, got {scale_raw!r}"
                )
            if scale != 1.0:
                config = scaled_config(config, scale)
                config_fingerprint = fingerprint(config)
        return config, config_fingerprint, seed

    # -- dispatch ------------------------------------------------------

    def endpoints(self) -> List[str]:
        """Every routable path, sorted (the 404 body lists them)."""
        return sorted(self._routes)

    def handle(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        """Answer one parsed request (transport-independent)."""
        self.stats.add("serve.requests")
        route = self._routes.get(path)
        if route is None:
            self.stats.add("serve.not_found")
            return Response.json(
                {"error": f"no such endpoint: {path}",
                 "endpoints": self.endpoints()},
                status=404,
            )
        try:
            return route(path, query)
        except BadRequest as exc:
            self.stats.add("serve.bad_requests")
            return Response.error(400, str(exc))
        except StoreError as exc:
            # A world build could not land its sightings, e.g. another
            # connection held the store locked past SQLite's busy
            # timeout.  The world was not published and its pool was
            # reaped, so the next request builds it afresh.
            # /v1/first-seen turns its own store errors into 400s.
            self.stats.add("serve.unavailable")
            return Response.error(503, str(exc))

    # -- endpoints -----------------------------------------------------

    def _healthz(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        return Response(200, TEXT, b"ok\n")

    def _entry(self, query: Mapping[str, List[str]]) -> WorldEntry:
        return self.worlds.entry(*self.resolve_config(query))

    def _tables(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        entry = self._entry(query)
        return Response.answer(entry, self.worlds.render(entry, "all"))

    def _one_table(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        number = path.rsplit("/", 1)[1]
        entry = self._entry(query)
        return Response.answer(
            entry, self.worlds.render(entry, f"table{number}")
        )

    def _feeds(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        entry = self._entry(query)
        pipeline = entry.pipeline

        def compute() -> bytes:
            purity = {
                row.feed: {
                    "dns": row.dns,
                    "http": row.http,
                    "tagged": row.tagged,
                    "odp": row.odp,
                    "alexa": row.alexa,
                    "n_domains": row.n_domains,
                }
                for row in pipeline.table2()
            }
            coverage = {
                row.feed: {
                    "total_all": row.total_all,
                    "exclusive_all": row.exclusive_all,
                    "total_live": row.total_live,
                    "exclusive_live": row.exclusive_live,
                    "total_tagged": row.total_tagged,
                    "exclusive_tagged": row.exclusive_tagged,
                }
                for row in pipeline.table3()
            }
            return json_body({
                "seed": entry.seed,
                "config_fingerprint": entry.key[0],
                "feeds": list(pipeline.feed_order),
                "purity": purity,
                "coverage": coverage,
            })

        return Response.answer(
            entry, self.worlds.payload(entry, "feeds", compute), JSON
        )

    def _snapshot(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        day_raw = _first(query, "day")
        if day_raw is None:
            raise BadRequest("snapshot requires a day parameter")
        try:
            day = int(day_raw)
        except ValueError:
            raise BadRequest(
                f"day must be an integer, got {day_raw!r}"
            ) from None
        entry = self._entry(query)
        total = entry.total_days()
        if not 0 <= day <= total:
            raise BadRequest(
                f"day must be between 0 and {total}, got {day}"
            )
        return Response.answer(entry, self.worlds.snapshot(entry, day))

    def _recommend(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        question_raw = _first(query, "question")
        if question_raw is None:
            raise BadRequest(
                "recommend requires a question parameter; one of: "
                + ", ".join(q.value for q in Question)
            )
        try:
            question = Question(question_raw)
        except ValueError:
            raise BadRequest(
                f"unknown question {question_raw!r}; one of: "
                + ", ".join(q.value for q in Question)
            ) from None
        entry = self._entry(query)

        def compute() -> bytes:
            ranking = rank_feeds(entry.pipeline.comparison, question)
            return json_body({
                "seed": entry.seed,
                "config_fingerprint": entry.key[0],
                "question": question.value,
                "ranking": [
                    {
                        "rank": rank,
                        "feed": score.feed,
                        "score": score.score,
                        "rationale": score.rationale,
                    }
                    for rank, score in enumerate(ranking, start=1)
                ],
            })

        return Response.answer(
            entry,
            self.worlds.payload(entry, f"recommend:{question.value}", compute),
            JSON,
        )

    def _first_seen(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        if self._store is None:
            raise BadRequest(
                "the daemon has no sighting store; restart serve with "
                "--store PATH to enable first-seen queries"
            )
        domain = _first(query, "domain")
        if not domain:
            raise BadRequest("first-seen requires a domain parameter")
        with self._store_lock:
            try:
                rows = self._store.first_seen(domain)
            except StoreError as exc:
                raise BadRequest(str(exc)) from exc
        return Response.json(
            {
                "domain": domain,
                "sightings": [
                    {
                        "feed": row.feed,
                        "first_seen": row.first_seen,
                        "last_seen": row.last_seen,
                        "n_sightings": row.n_sightings,
                    }
                    for row in rows
                ],
            }
        )

    def _stats(
        self, path: str, query: Mapping[str, List[str]]
    ) -> Response:
        return Response.json(
            {
                "metrics": self.stats.snapshot(),
                "worlds": self.worlds.resident(),
                "store": self.worlds.store_path,
            }
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop the daemon store connection (the server closes worlds)."""
        if self._store is not None:
            self._store.close()
            self._store = None


__all__ = ["BadRequest", "Response", "ServeApp"]
