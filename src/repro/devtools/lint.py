"""The reprolint engine: walk files, run rules, collect findings.

v2 runs in three phases:

1. **Summarize** -- every file gets a single-file rule pass plus a
   :class:`~repro.devtools.summaries.FileSummary` (calls, writes, RNG
   draws, fan-out sites).  Summaries are pure functions of the file's
   bytes and the engine's own source, so they are cached
   content-addressed through :mod:`repro.io.artifacts` and only
   re-computed for files that changed.  Cache misses can be
   summarized in parallel through ``repro.parallel`` itself -- the
   linter self-hosts the fork machinery it audits.
2. **Graph** -- the summaries compose into a module/call graph
   (:mod:`repro.devtools.graph`).
3. **Interprocedural rules** -- REP009-REP012 run over the graph
   (:mod:`repro.devtools.rules_interproc`).

Findings are merged, pragma-suppressed, and sorted by
``(path, line, rule)``, so output is byte-stable at any ``--jobs``
and identical between cold and warm runs.

Entry points:

* :func:`lint_source` -- one file's source text.
* :func:`lint_paths` -- files and/or directory trees, including every
  cross-file rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Dict, Iterator, List, Optional, Sequence

from repro.devtools.config import (
    DEFAULT_RULES,
    LintConfig,
    Severity,
    SuppressionIndex,
    scan_pragmas,
)
from repro.devtools.rules import RawFinding
from repro.devtools.rules_interproc import run_interproc_rules
from repro.devtools.summaries import (
    SUMMARY_VERSION,
    FileSummary,
    content_hash,
    summarize_source,
)
from repro.io.artifacts import ArtifactCache, artifact_key
from repro.parallel import WorkerPool, resolve_jobs


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to ``path:line``."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    @property
    def anchor(self) -> str:
        """The clickable ``path:line`` location string."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (stable field set)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class LintError(ValueError):
    """Raised when an input file cannot be read or parsed."""


def _relative_package_path(path: str) -> Optional[str]:
    """Path of *path* below the ``repro`` package root, if any."""
    parts = os.path.abspath(path).replace("\\", "/").split("/")
    for index in range(len(parts) - 1, 0, -1):
        if parts[index - 1] == "repro":
            return "/".join(parts[index:])
    return None


def _finalize(
    raw: Sequence[RawFinding],
    path: str,
    suppressions: SuppressionIndex,
    config: LintConfig,
) -> List[Finding]:
    enabled = set(config.enabled_rules())
    findings = []
    for hit in raw:
        if hit.rule not in enabled:
            continue
        if suppressions.is_suppressed(hit.rule, hit.line):
            continue
        findings.append(
            Finding(
                rule=hit.rule,
                severity=config.severity_of(hit.rule),
                path=path,
                line=hit.line,
                col=hit.col,
                message=hit.message,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Phase 1: per-file summaries (cached, optionally parallel)
# ----------------------------------------------------------------------

#: Artifact kind for cached per-file summaries.
SUMMARY_KIND = "reprolint-file-summary"

#: Process-cached result of :func:`engine_fingerprint`.
_ENGINE_PIN: Optional[str] = None


def engine_fingerprint() -> str:
    """SHA-256 over the devtools package's own sources.

    A cached summary is a pure function of ``(file bytes, engine
    code)``: editing any analyzer module must invalidate every stored
    summary, while editing an analyzed file only invalidates that
    file's entry (keys embed the file's content hash).  Hashed once
    per process; always computed in the lint parent, before any
    fan-out.
    """
    global _ENGINE_PIN
    if _ENGINE_PIN is None:
        package_root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for name in sorted(os.listdir(package_root)):
            if not name.endswith(".py"):
                continue
            with open(
                os.path.join(package_root, name), "rb"
            ) as handle:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(handle.read())
                digest.update(b"\x00")
        _ENGINE_PIN = digest.hexdigest()
    return _ENGINE_PIN


def summarize_path(path: str, source: str) -> FileSummary:
    """One file's summary; parse failures become :class:`LintError`."""
    try:
        return summarize_source(
            path, source, _relative_package_path(path)
        )
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc


def _summarize_task(sources: Dict[str, str], path: str) -> FileSummary:
    """Pool task: summarize one file of the inherited *sources*."""
    return summarize_path(path, sources[path])


def _summary_key(source: str, path: str, pin: str) -> str:
    return artifact_key(
        kind=SUMMARY_KIND,
        config_fingerprint=content_hash(source),
        seed=SUMMARY_VERSION,
        extra=path,
        code_pin=pin,
    )


def _gather_summaries(
    files: Sequence[str],
    sources: Dict[str, str],
    jobs: Optional[int],
    cache: Optional[ArtifactCache],
) -> List[FileSummary]:
    """Phase 1 over *files*: cache hits load, misses compute (+store).

    Misses run on a :class:`~repro.parallel.WorkerPool` of ``jobs``
    width (in-process at 1) that inherits *sources*; the parent stores
    results, so no two processes ever write the cache concurrently.
    Output order is ``files`` order regardless of jobs or hit pattern.
    """
    summaries: Dict[str, FileSummary] = {}
    keys: Dict[str, str] = {}
    if cache is not None:
        pin = engine_fingerprint()
        for path in files:
            key = _summary_key(sources[path], path, pin)
            keys[path] = key
            payload = cache.load(key)
            if (
                isinstance(payload, FileSummary)
                and payload.path == path
            ):
                summaries[path] = payload
    missing = [path for path in files if path not in summaries]
    if missing:
        with WorkerPool(
            min(resolve_jobs(jobs), len(missing)), sources
        ) as pool:
            produced = pool.run_batch(
                _summarize_task,
                missing,
                labels=[f"lint-summary:{path}" for path in missing],
            )
        for path, summary in zip(missing, produced):
            summaries[path] = summary
            if cache is not None:
                cache.store(keys[path], summary)
    return [summaries[path] for path in files]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def lint_source(
    path: str,
    source: str,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run the full engine over one file's *source* (as *path*).

    Single-file rules always apply; the cross-file rules see a
    one-node graph, so fixtures exercising REP009-REP012 within one
    file work here too.
    """
    config = config or LintConfig()
    summary = summarize_path(path, source)
    suppressions = summary.pragmas
    findings = _finalize(
        summary.module_findings, path, suppressions, config
    )
    for raw_path, raw in run_interproc_rules([summary]).items():
        findings.extend(_finalize(raw, raw_path, suppressions, config))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under *paths*, sorted and deduplicated."""
    seen = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [
                    d for d in dirnames if d != "__pycache__"
                ]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        else:
            collected.append(path)
    for path in sorted(collected):
        if path not in seen:
            seen.add(path)
            yield path


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
) -> List[Finding]:
    """Lint files and directory trees with every rule.

    *jobs* parallelizes the per-file summary phase (None/1 = serial);
    *cache* enables incremental re-linting.  Findings come back
    sorted by ``(path, line, rule)`` -- byte-identical for any
    ``jobs`` value and any cache hit pattern.
    """
    config = config or LintConfig()
    files: List[str] = []
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources[path] = handle.read()
        except OSError as exc:
            raise LintError(f"{path}: cannot read: {exc}") from exc
        files.append(path)
    summaries = _gather_summaries(files, sources, jobs, cache)
    by_path = {summary.path: summary for summary in summaries}

    findings: List[Finding] = []
    for summary in summaries:
        findings.extend(
            _finalize(
                summary.module_findings,
                summary.path,
                summary.pragmas,
                config,
            )
        )
    for path, raw in run_interproc_rules(summaries).items():
        findings.extend(
            _finalize(raw, path, by_path[path].pragmas, config)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def has_errors(findings: Sequence[Finding]) -> bool:
    """True when any finding carries ERROR severity."""
    return any(f.severity is Severity.ERROR for f in findings)


def rule_codes() -> List[str]:
    """All known rule codes, sorted."""
    return sorted(DEFAULT_RULES)
