"""Content-addressed on-disk cache for expensive pipeline artifacts.

World construction and feed collection are pure functions of
``(ecosystem config, seed)``; rendered tables and figures additionally
depend only on deterministic analysis code.  This module caches such
artifacts under a content-addressed key so repeated runs -- benchmarks,
examples, the CLI -- skip the expensive stages entirely:

    key = SHA-256(kind, config fingerprint, seed, code fingerprint)

The package code fingerprint is part of the key on purpose: any
source edit, payload-layout changes included, makes old artifacts
stale and re-addresses the cache -- an entry from an older code
generation can never be resurrected; it simply stops being
addressed.  Every entry also carries a format/version envelope
and is atomically written, so a torn write or a foreign file reads as
a cache *miss*.  The envelope check covers the pickle's framing, not
its data: a byte changed inside a stored string or blob still loads.
A payload that must not load altered carries its own digest (the
pipeline's ``pipeline-state`` and ``render-all`` entries do), checked
by the ``accept`` callback of :meth:`ArtifactCache.load`.

Payloads are Python pickles.  The cache directory is a local,
per-user acceleration structure (like pip's or mypy's cache), not an
interchange format; do not point it at untrusted files.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Callable, Iterator, Mapping, Optional, Tuple

from repro import obs

#: Envelope format marker for cache entries.
ARTIFACT_FORMAT = "repro-artifact"

#: Envelope version; bump on incompatible entry layout changes.
ARTIFACT_VERSION = 1

#: File suffix of every cache entry.
ARTIFACT_SUFFIX = ".art"


class FingerprintError(TypeError):
    """Raised when a value cannot be canonically fingerprinted."""


def _canonical(value: Any) -> Any:
    """A JSON-representable canonical form of *value*.

    Dataclasses become name-tagged field mappings, enums become
    ``ClassName.MEMBER`` strings, mappings and sets are sorted by the
    JSON encoding of their canonical keys/elements.  Unknown object
    types raise instead of silently fingerprinting their ``repr``,
    which could change between runs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        canon = {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        canon["@type"] = type(value).__name__
        return canon
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        entries = [
            [_canonical(key), _canonical(item)]
            for key, item in value.items()
        ]
        entries.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"@map": entries}
    if isinstance(value, (set, frozenset)):
        elements = [_canonical(item) for item in value]
        elements.sort(key=lambda e: json.dumps(e, sort_keys=True))
        return {"@set": elements}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise FingerprintError(
        f"cannot fingerprint value of type {type(value).__name__}"
    )


def fingerprint(value: Any) -> str:
    """Stable SHA-256 hex fingerprint of any canonicalizable value."""
    canon = json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


#: Process-cached result of :func:`code_fingerprint`.
_CODE_PIN: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` package source file.

    Cached artifacts are pure functions of ``(config, seed, code)`` --
    the code is as much an input as the seed.  Without it in the
    address, editing an algorithm and re-running would serve the *old*
    algorithm's output from a warm cache: plausible numbers, silently
    stale.  Any source edit therefore re-addresses every artifact;
    orphaned entries are simply never read again.

    Hashed once per process (file order is the sorted relative path,
    so the fingerprint is machine-independent for identical sources).
    """
    global _CODE_PIN
    if _CODE_PIN is None:
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(package_root):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__"
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, package_root)
                digest.update(relpath.encode("utf-8"))
                digest.update(b"\x00")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\x00")
        # Fork-safe memo: the value is a pure function of the on-disk
        # sources, so parent and worker always compute the same pin; a
        # worker's write landing in its CoW copy only costs that
        # worker a recompute, never a divergent key.
        _CODE_PIN = digest.hexdigest()  # reprolint: disable=REP009 -- idempotent process-local memo
    return _CODE_PIN


def artifact_key(
    kind: str,
    config_fingerprint: str,
    seed: int,
    extra: str = "",
    code_pin: Optional[str] = None,
) -> str:
    """The content address of one artifact.

    *kind* names the payload family (``"pipeline-state"``,
    ``"render-all"``, ...); *extra* discriminates variants within a
    kind (e.g. a non-standard collector suite).  *code_pin* defaults
    to the live :func:`code_fingerprint`, so source edits implicitly
    invalidate every cached artifact.
    """
    material = json.dumps(
        {
            "kind": kind,
            "config": config_fingerprint,
            "seed": seed,
            "extra": extra,
            "code": code_fingerprint() if code_pin is None else code_pin,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    """The cache location used when the caller does not pick one.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class ArtifactCache:
    """A directory of content-addressed, version-enveloped pickles."""

    def __init__(self, root: str):
        self.root = root

    def path_for(self, key: str) -> str:
        """Entry path for *key* (two-level fan-out like git objects)."""
        return os.path.join(self.root, key[:2], key + ARTIFACT_SUFFIX)

    def load(
        self, key: str, accept: Optional[Callable[[Any], Any]] = None
    ) -> Optional[Any]:
        """The payload stored under *key*, or None on any kind of miss.

        Unreadable, truncated, foreign-format and version-mismatched
        entries all count as misses: the caller recomputes and the bad
        entry is overwritten on the next :meth:`store`.  *accept*, when
        given, turns the stored payload into the value the caller uses,
        or returns None to reject it (a digest mismatch, a foreign
        shape), which is a miss too.  Hits and misses are counted on the
        active tracer once that verdict is in (side channel only -- the
        payload is identical either way).
        """
        payload = self._load_unmetered(key)
        if payload is not None and accept is not None:
            payload = accept(payload)
        obs.add("cache.hit" if payload is not None else "cache.miss")
        return payload

    def _load_unmetered(self, key: str) -> Optional[Any]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                TypeError, AttributeError, ImportError, IndexError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("format") != ARTIFACT_FORMAT:
            return None
        if envelope.get("version") != ARTIFACT_VERSION:
            return None
        if envelope.get("key") != key:
            return None
        return envelope.get("payload")

    def store(self, key: str, payload: Any) -> str:
        """Atomically write *payload* under *key*; returns the path."""
        path = self.path_for(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        envelope = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "key": key,
            "payload": payload,
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=key[:8] + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        obs.add("cache.store")
        return path

    def contains(self, key: str) -> bool:
        """True when a loadable entry exists for *key* (not metered)."""
        return self._load_unmetered(key) is not None

    def invalidate(self, key: str) -> bool:
        """Remove the entry for *key*; True if one was removed."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return False
        obs.add("cache.invalidation")
        return True

    def keys(self) -> Iterator[str]:
        """Keys of every entry currently in the cache directory."""
        if not os.path.isdir(self.root):
            return
        for subdir in sorted(os.listdir(self.root)):
            subpath = os.path.join(self.root, subdir)
            if not os.path.isdir(subpath) or len(subdir) != 2:
                continue
            for name in sorted(os.listdir(subpath)):
                if name.endswith(ARTIFACT_SUFFIX):
                    yield name[: -len(ARTIFACT_SUFFIX)]

    def clear(self) -> int:
        """Remove every cache entry; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            if self.invalidate(key):
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:
        return f"ArtifactCache({self.root!r})"


__all__: Tuple[str, ...] = (
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactCache",
    "FingerprintError",
    "artifact_key",
    "code_fingerprint",
    "default_cache_dir",
    "fingerprint",
)
