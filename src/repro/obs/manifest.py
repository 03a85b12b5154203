"""Versioned JSON run manifests: what a run did, signed with what built it.

A *run manifest* is the per-run provenance record Section 3.3 of the
paper asks feed consumers to demand: which code (git describe), which
configuration (fingerprint), which seed, where the time went (span
tree), and what the counters saw (metric snapshot).  It is a **side
channel**: manifests are written next to the analysis artifacts, never
into them — they do not enter artifact-cache keys, so two runs that
differ only in tracing produce byte-identical tables and figures.

The schema is hand-rolled (zero dependencies) and versioned; consumers
should reject manifests whose ``format``/``version`` they do not know,
exactly like the artifact-cache envelopes.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.hosttime import wall_now
from repro.obs.trace import Tracer

#: Envelope format marker for run manifests.
MANIFEST_FORMAT = "repro-run-manifest"

#: Manifest schema version; bump on incompatible layout changes.
#: v2 added ``scale`` and ``shards`` (sharded world build).
#: v3 added ``request`` (per-request manifests from the serve daemon).
#: v4 dropped ``shards``: the world has one (unit-planned) build.
MANIFEST_VERSION = 4

#: Top-level manifest fields and a human-readable type description —
#: the documentation twin of :func:`validate_manifest`.
MANIFEST_SCHEMA: Dict[str, str] = {
    "format": f"literal {MANIFEST_FORMAT!r}",
    "version": f"literal {MANIFEST_VERSION}",
    "command": "str — the CLI subcommand that produced the run",
    "seed": "int — the run's master seed",
    "config_fingerprint": "str — SHA-256 of the ecosystem config",
    "git": "str | null — `git describe --always --dirty` of the source",
    "jobs": "int | null — requested worker count (null = serial)",
    "scale": "number | null — world scale factor (null = paper scale)",
    "request": "str | null — serve request descriptor (null = batch run)",
    "created_unix": "float — wall-clock write time (side channel only)",
    "spans": "list[Span] — the span tree (see Span payload fields)",
    "metrics": "{'counters': {str: num}, 'gauges': {str: num}}",
}

#: Fields of one span payload inside ``spans`` (recursive).
SPAN_SCHEMA: Dict[str, str] = {
    "name": "str — stage name",
    "attributes": "dict[str, null|bool|int|float|str]",
    "duration_s": "float — wall-clock duration, >= 0",
    "rss_delta_kib": "int | null — peak-RSS growth across the span",
    "children": "list[Span]",
}


class ManifestError(ValueError):
    """Raised when a manifest fails structural validation."""


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` for the source tree, or None.

    Best-effort provenance: a missing git binary, a non-repo install
    (e.g. from a wheel), or any git failure degrades to None rather
    than failing the run.
    """
    source_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=source_dir,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    described = proc.stdout.strip()
    return described or None


def build_manifest(
    tracer: Tracer,
    command: str,
    seed: int,
    config_fingerprint: str,
    jobs: Optional[int] = None,
    scale: Optional[float] = None,
    request: Optional[str] = None,
) -> Dict[str, Any]:
    """Freeze a finished run into a schema-valid manifest dict."""
    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "seed": seed,
        "config_fingerprint": config_fingerprint,
        "git": git_describe(),
        "jobs": jobs,
        "scale": scale,
        "request": request,
        "created_unix": wall_now(),
        "spans": tracer.span_payloads(),
        "metrics": tracer.metrics.snapshot(),
    }
    validate_manifest(manifest)
    return manifest


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _fail(path: str, message: str) -> None:
    raise ManifestError(f"{path}: {message}")


def _check_number(value: Any, path: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")


def _validate_metric_block(block: Any, path: str) -> None:
    if not isinstance(block, dict):
        _fail(path, "expected an object of metric name -> number")
    for name, value in block.items():
        if not isinstance(name, str) or not name:
            _fail(path, f"metric name {name!r} is not a non-empty string")
        _check_number(value, f"{path}.{name}")


def _validate_span(span: Any, path: str) -> None:
    if not isinstance(span, dict):
        _fail(path, "expected a span object")
    missing = sorted(set(SPAN_SCHEMA) - set(span))
    if missing:
        _fail(path, f"missing span fields: {', '.join(missing)}")
    unknown = sorted(set(span) - set(SPAN_SCHEMA))
    if unknown:
        _fail(path, f"unknown span fields: {', '.join(unknown)}")
    if not isinstance(span["name"], str) or not span["name"]:
        _fail(path, "span name must be a non-empty string")
    attributes = span["attributes"]
    if not isinstance(attributes, dict):
        _fail(path, "span attributes must be an object")
    for key, value in attributes.items():
        if not isinstance(key, str):
            _fail(path, f"attribute key {key!r} is not a string")
        if value is not None and not isinstance(value, (bool, int, float, str)):
            _fail(
                path,
                f"attribute {key!r} has non-scalar type "
                f"{type(value).__name__}",
            )
    _check_number(span["duration_s"], f"{path}.duration_s")
    if span["duration_s"] < 0:
        _fail(path, "span duration must be non-negative")
    rss = span["rss_delta_kib"]
    if rss is not None and (isinstance(rss, bool) or not isinstance(rss, int)):
        _fail(path, "rss_delta_kib must be an int or null")
    children = span["children"]
    if not isinstance(children, list):
        _fail(path, "span children must be a list")
    for index, child in enumerate(children):
        _validate_span(child, f"{path}.children[{index}]")


def validate_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` unless *manifest* matches the schema."""
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    missing = sorted(set(MANIFEST_SCHEMA) - set(manifest))
    if missing:
        _fail("manifest", f"missing fields: {', '.join(missing)}")
    unknown = sorted(set(manifest) - set(MANIFEST_SCHEMA))
    if unknown:
        _fail("manifest", f"unknown fields: {', '.join(unknown)}")
    if manifest["format"] != MANIFEST_FORMAT:
        _fail("format", f"expected {MANIFEST_FORMAT!r}")
    if manifest["version"] != MANIFEST_VERSION:
        _fail("version", f"expected {MANIFEST_VERSION}")
    if not isinstance(manifest["command"], str) or not manifest["command"]:
        _fail("command", "must be a non-empty string")
    if isinstance(manifest["seed"], bool) or not isinstance(
        manifest["seed"], int
    ):
        _fail("seed", "must be an integer")
    if not isinstance(manifest["config_fingerprint"], str):
        _fail("config_fingerprint", "must be a string")
    if manifest["git"] is not None and not isinstance(manifest["git"], str):
        _fail("git", "must be a string or null")
    jobs = manifest["jobs"]
    if jobs is not None and (isinstance(jobs, bool) or not isinstance(jobs, int)):
        _fail("jobs", "must be an integer or null")
    scale = manifest["scale"]
    if scale is not None:
        _check_number(scale, "scale")
    request = manifest["request"]
    if request is not None and not isinstance(request, str):
        _fail("request", "must be a string or null")
    _check_number(manifest["created_unix"], "created_unix")
    spans = manifest["spans"]
    if not isinstance(spans, list):
        _fail("spans", "must be a list of span objects")
    for index, span in enumerate(spans):
        _validate_span(span, f"spans[{index}]")
    metrics = manifest["metrics"]
    if not isinstance(metrics, dict) or sorted(metrics) != [
        "counters",
        "gauges",
    ]:
        _fail("metrics", "must be {'counters': ..., 'gauges': ...}")
    _validate_metric_block(metrics["counters"], "metrics.counters")
    _validate_metric_block(metrics["gauges"], "metrics.gauges")


# ----------------------------------------------------------------------
# I/O and queries
# ----------------------------------------------------------------------


def write_manifest(path: str, manifest: Mapping[str, Any]) -> None:
    """Validate and atomically write *manifest* as pretty JSON."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_manifest(path: str) -> Dict[str, Any]:
    """Read and validate the manifest at *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    validate_manifest(manifest)
    return manifest


def manifest_stage_names(manifest: Mapping[str, Any]) -> List[str]:
    """Distinct span names in a manifest, sorted."""
    names = set()

    def visit(span: Mapping[str, Any]) -> None:
        names.add(str(span["name"]))
        for child in span["children"]:
            visit(child)

    for span in manifest["spans"]:
        visit(span)
    return sorted(names)
