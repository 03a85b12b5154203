"""Development tooling: the ``reprolint`` static analyzer.

The paper's comparison methodology is reproducible only because every
stochastic draw and every floating-point accumulation in this codebase
is deterministic.  ``reprolint`` enforces those invariants statically,
as named, suppressible rules (REP001..REP012), so order-sensitivity
bugs are caught at lint time instead of being rediscovered whenever a
new execution path (streaming, parallel workers, ...) must match batch
output byte-for-byte.

v2 is interprocedural: per-file summaries (:mod:`.summaries`) compose
into a module/call graph (:mod:`.graph`) that powers the cross-function
rules (:mod:`.rules_interproc`) -- fork-safety, RNG stream discipline,
cross-boundary float accumulation, and store-schema pinning.
Summaries are content-hash cached through :mod:`repro.io.artifacts`
and can be computed in parallel through :mod:`repro.parallel` -- the
linter self-hosts the machinery it audits.

Public surface:

* :func:`repro.devtools.lint.lint_paths` -- run every rule over files
  or directory trees and collect :class:`~repro.devtools.lint.Finding`s.
* :class:`repro.devtools.config.LintConfig` -- per-rule severity and
  enablement, plus ``# reprolint: disable=REPxxx`` pragma handling.
* :mod:`repro.devtools.report` -- text and JSON renderings with
  ``file:line`` anchors; :mod:`repro.devtools.sarif` -- SARIF 2.1.0
  for CI annotation.
"""

from repro.devtools.config import (
    DEFAULT_RULES,
    LintConfig,
    RuleInfo,
    Severity,
)
from repro.devtools.graph import ProjectGraph
from repro.devtools.lint import Finding, lint_paths, lint_source
from repro.devtools.report import render_json, render_text
from repro.devtools.sarif import render_sarif, write_sarif
from repro.devtools.summaries import FileSummary, summarize_source

__all__ = [
    "DEFAULT_RULES",
    "FileSummary",
    "Finding",
    "LintConfig",
    "ProjectGraph",
    "RuleInfo",
    "Severity",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "summarize_source",
    "write_sarif",
]
