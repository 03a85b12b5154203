"""Rule metadata, per-rule configuration, and suppression pragmas.

Suppression uses source comments:

* ``# reprolint: disable=REP001`` on a line suppresses the named
  rule(s) for findings reported on that physical line.  Several rules
  may be listed, separated by commas.
* The same pragma on a comment-only line within the first five lines
  of a file suppresses the rule(s) for the whole file.
* ``# reprolint: disable`` (no rule list) suppresses every rule for
  the line (or file, in the header position).

Anything after ``--`` inside the pragma is a free-form justification
and is ignored by the parser:

    total = sum(counts.values())  # reprolint: disable=REP004 -- ints
"""

from __future__ import annotations

import dataclasses
import enum
import re
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple


class Severity(enum.Enum):
    """How seriously a finding should be treated."""

    WARNING = "warning"
    ERROR = "error"


#: Packages (relative to ``src/repro``) whose code must never read the
#: wall clock: simulation components take time from the shared
#: simulation clock only.
SIMULATION_PACKAGES: Tuple[str, ...] = (
    "ecosystem",
    "feeds",
    "oracles",
    "analysis",
    "stream",
    "store",
)

#: Packages whose floating-point accumulations must be order-stable
#: (the batch and streaming paths must agree byte-for-byte).
ACCUMULATION_PACKAGES: Tuple[str, ...] = ("analysis", "stream")

#: The host-time quarantine (REP008): the only packages inside
#: ``src/repro`` allowed to read any host clock — wall or monotonic.
#: Everything else must route timing through ``repro.obs``.
OBS_PACKAGES: Tuple[str, ...] = ("obs",)


@dataclasses.dataclass(frozen=True)
class RuleInfo:
    """Static description of one reprolint rule."""

    code: str
    title: str
    rationale: str
    default_severity: Severity = Severity.ERROR


DEFAULT_RULES: Dict[str, RuleInfo] = {
    rule.code: rule
    for rule in (
        RuleInfo(
            "REP001",
            "no module-level random state",
            "Module-level random functions share one hidden global "
            "stream; any new draw anywhere perturbs every later draw. "
            "Derive a component stream with stats.rng.derive_rng "
            "instead.",
        ),
        RuleInfo(
            "REP002",
            "no builtin hash() for seeds or keys",
            "hash() is salted per process (PYTHONHASHSEED), so seeds "
            "and derived keys built from it differ between runs. Use "
            "stats.rng.derive_seed (SHA-256) instead.",
        ),
        RuleInfo(
            "REP003",
            "no wall clock in simulation code",
            "Simulation components must take time from the shared "
            "simulation clock (repro.simtime); reading the host clock "
            "makes results depend on when the run happened.",
        ),
        RuleInfo(
            "REP004",
            "sort before float accumulation",
            "Float addition is not associative; summing a set or dict "
            "view accumulates in container order, which differs "
            "between the batch and streaming paths. Wrap the iterable "
            "in sorted(...).",
        ),
        RuleInfo(
            "REP005",
            "no RNG draws while iterating an unordered collection",
            "Drawing from an RNG inside a loop over a set consumes the "
            "stream in container order, so equal-content sets built in "
            "different orders yield different results. Iterate "
            "sorted(...) instead.",
        ),
        RuleInfo(
            "REP006",
            "checkpoint schema changes need a version bump",
            "Checkpoint payload fields are pinned (version + "
            "fingerprint) in io/checkpoint.py; changing fields without "
            "bumping CHECKPOINT_VERSION lets old readers resume from "
            "incompatible files.",
        ),
        RuleInfo(
            "REP007",
            "parallel results must be reduced in task order",
            "Completion-order reduction (as_completed, imap_unordered) "
            "makes parallel results depend on OS scheduling, and "
            "host-derived worker counts (os.cpu_count) leak hardware "
            "into anything beyond execution width. Tag results with "
            "their task index and reduce in index order; a pragma "
            "records why a flagged site is width-only or "
            "index-ordered.",
        ),
        RuleInfo(
            "REP008",
            "no host-clock reads outside repro.obs",
            "Host-time reads (time.time, perf_counter, monotonic, "
            "datetime.now, ...) are quarantined in repro.obs so that "
            "every timing source feeding traces and run manifests is "
            "auditable in one place. Other repro packages must use "
            "obs.hosttime (Stopwatch, wall_now) instead of reading "
            "clocks directly.",
        ),
        RuleInfo(
            "REP009",
            "no shared-state writes reachable from a parallel task",
            "Functions dispatched through a parallel.WorkerPool "
            "(run_batch, broadcast) run in forked workers: "
            "writes to globals, closed-over objects, or module-level "
            "caches land in a copy-on-write child and silently "
            "vanish -- or, under a future threaded "
            "executor, race. State must flow back through task return "
            "values; a pragma records why a flagged write is "
            "fork-safe (e.g. an idempotent process-local memo).",
        ),
        RuleInfo(
            "REP010",
            "no shared sequential RNG stream across a task boundary",
            "A draw inside fan-out work that consumes a module-level or "
            "closed-over RNG advances a stream whose position depends "
            "on task interleaving and worker count. Every task must "
            "draw from its own stats.rng.derive_rng keyed stream "
            "(the mail-oracle bug class).",
        ),
        RuleInfo(
            "REP011",
            "no float accumulation over unordered helper results",
            "sum() over the return value of a helper that (transitively) "
            "returns a set or dict view accumulates floats in container "
            "order even though the call site looks innocent. Sort the "
            "result before accumulating, or return a sorted sequence.",
        ),
        RuleInfo(
            "REP012",
            "store SQL must match the pinned schema",
            "SQL strings in repro.store must agree with the column "
            "tuples pinned by STORE_SCHEMA_PIN; unpinned drift lets a "
            "schema edit ship without a version bump, breaking stores "
            "written by earlier runs.",
        ),
    )
}

#: Pragma grammar: ``# reprolint: disable`` or
#: ``# reprolint: disable=REP001,REP002`` with an optional trailing
#: ``-- justification``.
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable"
    r"(?:\s*=\s*(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*))?"
    r"(?:\s+--.*)?\s*$"
)

#: A file-level pragma must appear on a comment-only line within the
#: first this-many lines of the file.
FILE_PRAGMA_WINDOW = 5

#: Sentinel rule set meaning "every rule".
ALL_RULES: FrozenSet[str] = frozenset(DEFAULT_RULES)


def _parse_pragma(comment: str) -> Optional[FrozenSet[str]]:
    """Parse one pragma comment; None when it is not a pragma."""
    match = _PRAGMA_RE.search(comment)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return ALL_RULES
    return frozenset(part.strip() for part in rules.split(","))


@dataclasses.dataclass(frozen=True)
class SuppressionIndex:
    """Which rules are suppressed, per line and for the whole file."""

    by_line: Mapping[int, FrozenSet[str]]
    file_wide: FrozenSet[str]

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when *rule* is pragma-disabled at *line*."""
        if rule in self.file_wide:
            return True
        return rule in self.by_line.get(line, frozenset())


def scan_pragmas(source: str) -> SuppressionIndex:
    """Build the suppression index for one file's source text."""
    by_line: Dict[int, FrozenSet[str]] = {}
    file_wide: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "reprolint" not in text:
            continue
        rules = _parse_pragma(text)
        if rules is None:
            continue
        by_line[lineno] = rules
        comment_only = text.lstrip().startswith("#")
        if comment_only and lineno <= FILE_PRAGMA_WINDOW:
            file_wide |= rules
    return SuppressionIndex(by_line=by_line, file_wide=frozenset(file_wide))


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Per-rule enablement and severity overrides."""

    disabled: FrozenSet[str] = frozenset()
    severities: Mapping[str, Severity] = dataclasses.field(
        default_factory=dict
    )

    def enabled_rules(self) -> Tuple[str, ...]:
        """Codes of the rules this configuration runs, sorted."""
        return tuple(
            code for code in sorted(DEFAULT_RULES) if code not in self.disabled
        )

    def severity_of(self, rule: str) -> Severity:
        """Effective severity for *rule*."""
        override = self.severities.get(rule)
        if override is not None:
            return override
        return DEFAULT_RULES[rule].default_severity

    @classmethod
    def with_disabled(cls, codes: Tuple[str, ...]) -> "LintConfig":
        """A config with *codes* disabled (unknown codes rejected)."""
        unknown = sorted(set(codes) - set(DEFAULT_RULES))
        if unknown:
            raise ValueError(f"unknown rule codes: {', '.join(unknown)}")
        return cls(disabled=frozenset(codes))
