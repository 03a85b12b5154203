"""The source tree must stay reprolint-clean.

This is the guard the tentpole exists for: any new order-sensitive
accumulation, hidden-global RNG use, wall-clock read, or unpinned
store schema change fails this test (and ``python -m repro lint
--strict`` in CI) at the file:line that introduced it.
"""

from __future__ import annotations

import os

import repro
from repro.devtools import lint_paths, render_text

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def test_source_tree_has_zero_findings():
    findings = lint_paths([PACKAGE_DIR])
    assert findings == [], "\n" + render_text(findings)
