"""reprolint rule engine: triggers, suppressions, output, CLI.

Every REP rule gets a fixture snippet that triggers it and a
counterpart that stays clean (sorted-wrapping, pragma suppression, or
out-of-scope placement).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.devtools import (
    DEFAULT_RULES,
    LintConfig,
    Severity,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.devtools.lint import LintError, has_errors
from repro.devtools.rules import compute_schema_pin

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def findings_for(code, path="/fixtures/snippet.py", config=None):
    return lint_source(path, textwrap.dedent(code), config)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# REP001: module-level random state
# ----------------------------------------------------------------------


class TestRep001:
    def test_module_level_draw_flagged(self):
        findings = findings_for(
            """
            import random
            x = random.random()
            """
        )
        assert rules_of(findings) == ["REP001"]
        assert findings[0].line == 3

    def test_seed_and_shuffle_flagged(self):
        findings = findings_for(
            """
            import random
            random.seed(4)
            random.shuffle([1, 2])
            """
        )
        assert [f.line for f in findings] == [3, 4]

    def test_import_from_flagged(self):
        findings = findings_for("from random import shuffle, randint\n")
        assert rules_of(findings) == ["REP001"]
        assert "shuffle" in findings[0].message

    def test_random_random_instance_ok(self):
        findings = findings_for(
            """
            import random
            rng = random.Random(7)
            value = rng.random()
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP002: builtin hash()
# ----------------------------------------------------------------------


class TestRep002:
    def test_hash_call_flagged(self):
        findings = findings_for('seed = hash("label")\n')
        assert rules_of(findings) == ["REP002"]

    def test_hashlib_ok(self):
        findings = findings_for(
            """
            import hashlib
            digest = hashlib.sha256(b"label").digest()
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003: wall clock in simulation code
# ----------------------------------------------------------------------


class TestRep003:
    def test_time_time_flagged(self):
        findings = findings_for(
            """
            import time
            started = time.time()
            """
        )
        assert rules_of(findings) == ["REP003"]

    def test_perf_counter_ok(self):
        findings = findings_for(
            """
            import time
            started = time.perf_counter()
            """
        )
        assert findings == []

    def test_datetime_now_flagged(self):
        findings = findings_for(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        )
        assert rules_of(findings) == ["REP003"]

    def test_from_time_import_flagged(self):
        findings = findings_for("from time import time\n")
        assert rules_of(findings) == ["REP003"]

    def test_scoped_to_simulation_packages(self):
        code = """
        import time
        started = time.time()
        """
        inside = findings_for(code, path="/x/repro/feeds/mod.py")
        outside = findings_for(code, path="/x/repro/reporting/mod.py")
        # Inside the package a wall-clock read also breaches the REP008
        # host-time quarantine; REP003 is the simulation-scope rule.
        assert rules_of(inside) == ["REP003", "REP008"]
        assert rules_of(outside) == ["REP008"]


# ----------------------------------------------------------------------
# REP004: unsorted float accumulation
# ----------------------------------------------------------------------


class TestRep004:
    def test_sum_over_values_flagged(self):
        findings = findings_for("total = sum(volumes.values())\n")
        assert rules_of(findings) == ["REP004"]

    def test_sorted_wrap_ok(self):
        findings = findings_for("total = sum(sorted(volumes.values()))\n")
        assert findings == []

    def test_generator_over_items_flagged(self):
        findings = findings_for(
            "total = sum(v for d, v in volumes.items() if d)\n"
        )
        assert rules_of(findings) == ["REP004"]

    def test_generator_over_sorted_items_ok(self):
        findings = findings_for(
            "total = sum(v for d, v in sorted(volumes.items()))\n"
        )
        assert findings == []

    def test_integer_counting_ok(self):
        findings = findings_for(
            "n = sum(1 for v in volumes.values() if v > 0)\n"
        )
        assert findings == []

    def test_int_cast_ok(self):
        findings = findings_for(
            "n = sum(int(c) for c in cursors.values())\n"
        )
        assert findings == []

    def test_set_intersection_flagged(self):
        findings = findings_for(
            "total = sum(w[d] for d in (listed & benign))\n"
        )
        assert rules_of(findings) == ["REP004"]

    def test_augmented_accumulation_in_set_loop_flagged(self):
        findings = findings_for(
            """
            total = 0.0
            for domain in set(domains):
                total += weights[domain]
            """
        )
        assert rules_of(findings) == ["REP004"]

    def test_augmented_accumulation_sorted_loop_ok(self):
        findings = findings_for(
            """
            total = 0.0
            for domain in sorted(set(domains)):
                total += weights[domain]
            """
        )
        assert findings == []

    def test_scoped_to_accumulation_packages(self):
        code = "total = sum(volumes.values())\n"
        inside = findings_for(code, path="/x/repro/analysis/mod.py")
        outside = findings_for(code, path="/x/repro/ecosystem/mod.py")
        assert rules_of(inside) == ["REP004"]
        assert outside == []


# ----------------------------------------------------------------------
# REP005: RNG draws over unordered iteration
# ----------------------------------------------------------------------


class TestRep005:
    def test_draw_in_set_loop_flagged(self):
        findings = findings_for(
            """
            for domain in candidates | extras:
                noise = rng.gauss(0.0, 1.0)
            """
        )
        assert rules_of(findings) == ["REP005"]

    def test_draw_in_sorted_loop_ok(self):
        findings = findings_for(
            """
            for domain in sorted(candidates | extras):
                noise = rng.gauss(0.0, 1.0)
            """
        )
        assert findings == []

    def test_draw_in_comprehension_flagged(self):
        findings = findings_for(
            "noise = [self._rng.random() for d in set(domains)]\n"
        )
        assert rules_of(findings) == ["REP005"]

    def test_non_rng_call_ok(self):
        findings = findings_for(
            """
            for domain in set(domains):
                results.append(lookup.resolve(domain))
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP006: checkpoint schema pin (cross-file)
# ----------------------------------------------------------------------

GOOD_SCHEMAS = {"stream-engine": ["seed", "cursors"]}


def write_schema_module(tmp_path, pin, name="checkpoint.py", schemas=None):
    schemas = GOOD_SCHEMAS if schemas is None else schemas
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            f"""
            CHECKPOINT_VERSION = 1
            CHECKPOINT_SCHEMAS = {schemas!r}
            CHECKPOINT_SCHEMA_PIN = {pin!r}
            """
        )
    )
    return str(path)


def write_payload_module(tmp_path, keys, name="engine.py"):
    body = ", ".join(f'"{key}": 0' for key in keys)
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            f"""
            CHECKPOINT_KIND = "stream-engine"

            def checkpoint_payload():
                return {{{body}}}
            """
        )
    )
    return str(path)


class TestRep006:
    def test_stale_pin_flagged(self, tmp_path):
        write_schema_module(tmp_path, "v1:000000000000")
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["REP006"]
        assert "version bump" in findings[0].message

    def test_fresh_pin_ok(self, tmp_path):
        write_schema_module(tmp_path, compute_schema_pin(1, GOOD_SCHEMAS))
        assert lint_paths([str(tmp_path)]) == []

    def test_payload_key_mismatch_flagged(self, tmp_path):
        write_schema_module(tmp_path, compute_schema_pin(1, GOOD_SCHEMAS))
        write_payload_module(tmp_path, ["seed", "cursors", "extra"])
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["REP006"]
        assert "extra" in findings[0].message

    def test_matching_payload_ok(self, tmp_path):
        write_schema_module(tmp_path, compute_schema_pin(1, GOOD_SCHEMAS))
        write_payload_module(tmp_path, ["seed", "cursors"])
        assert lint_paths([str(tmp_path)]) == []

    def test_unknown_kind_flagged(self, tmp_path):
        write_schema_module(tmp_path, compute_schema_pin(1, {}), schemas={})
        write_payload_module(tmp_path, ["seed"])
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["REP006"]
        assert "no entry" in findings[0].message

    def test_version_bump_changes_pin(self):
        assert compute_schema_pin(1, GOOD_SCHEMAS) != compute_schema_pin(
            2, GOOD_SCHEMAS
        )


# ----------------------------------------------------------------------
# REP007: parallel reduction order
# ----------------------------------------------------------------------


class TestRep007:
    def test_os_cpu_count_flagged(self):
        findings = findings_for(
            """
            import os
            workers = os.cpu_count()
            """
        )
        assert rules_of(findings) == ["REP007"]
        assert findings[0].line == 3

    def test_multiprocessing_cpu_count_flagged(self):
        findings = findings_for(
            """
            import multiprocessing
            workers = multiprocessing.cpu_count()
            """
        )
        assert rules_of(findings) == ["REP007"]

    def test_cpu_count_import_flagged(self):
        findings = findings_for("from os import cpu_count\n")
        assert rules_of(findings) == ["REP007"]
        assert "cpu_count" in findings[0].message

    def test_as_completed_call_flagged(self):
        findings = findings_for(
            """
            for future in as_completed(futures):
                results.append(future.result())
            """
        )
        assert rules_of(findings) == ["REP007"]
        assert "completion order" in findings[0].message

    def test_as_completed_import_flagged(self):
        findings = findings_for(
            "from concurrent.futures import as_completed\n"
        )
        assert rules_of(findings) == ["REP007"]

    def test_imap_unordered_flagged(self):
        findings = findings_for(
            """
            for result in pool.imap_unordered(work, items):
                results.append(result)
            """
        )
        assert rules_of(findings) == ["REP007"]

    def test_pool_map_flagged(self):
        findings = findings_for("results = pool.map(work, items)\n")
        assert rules_of(findings) == ["REP007"]
        assert "task index" in findings[0].message

    def test_executor_map_flagged(self):
        findings = findings_for(
            "results = list(self.executor.map(work, items))\n"
        )
        assert rules_of(findings) == ["REP007"]

    def test_plain_map_receiver_ok(self):
        findings = findings_for("points = series.map(transform)\n")
        assert findings == []

    def test_pool_map_pragma_suppresses(self):
        findings = findings_for(
            "r = pool.map(w, items)"
            "  # reprolint: disable=REP007 -- index-tagged\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP008: host-clock quarantine (repro.obs)
# ----------------------------------------------------------------------


class TestRep008:
    def test_perf_counter_flagged_inside_package(self):
        findings = findings_for(
            """
            import time
            started = time.perf_counter()
            """,
            path="/x/repro/pipeline/mod.py",
        )
        assert rules_of(findings) == ["REP008"]
        assert "repro.obs" in findings[0].message

    def test_monotonic_import_flagged_inside_package(self):
        findings = findings_for(
            "from time import monotonic, process_time\n",
            path="/x/repro/io/mod.py",
        )
        assert rules_of(findings) == ["REP008"]
        assert "monotonic" in findings[0].message

    def test_datetime_now_flagged_inside_package(self):
        findings = findings_for(
            """
            import datetime
            stamp = datetime.datetime.now()
            """,
            path="/x/repro/reporting/mod.py",
        )
        assert rules_of(findings) == ["REP008"]

    def test_wallclock_inside_simulation_scope_hits_both(self):
        findings = findings_for(
            "from time import time\n", path="/x/repro/stream/mod.py"
        )
        assert rules_of(findings) == ["REP003", "REP008"]

    def test_obs_package_allowlisted(self):
        findings = findings_for(
            """
            import time
            started = time.perf_counter()
            now = time.time()
            """,
            path="/x/repro/obs/hosttime.py",
        )
        assert findings == []

    def test_outside_files_unaffected(self):
        # Fixture/outside files keep exercising REP003 without the
        # quarantine rule piling on.
        findings = findings_for(
            """
            import time
            started = time.perf_counter()
            """
        )
        assert findings == []

    def test_sleep_not_flagged(self):
        findings = findings_for(
            """
            import time
            time.sleep(0.1)
            """,
            path="/x/repro/parallel/mod.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = findings_for(
            "from time import perf_counter"
            "  # reprolint: disable=REP008 -- bench harness\n",
            path="/x/repro/devtools/mod.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Pragmas and configuration
# ----------------------------------------------------------------------


class TestSuppression:
    def test_line_pragma_suppresses(self):
        findings = findings_for(
            "t = sum(v.values())  # reprolint: disable=REP004\n"
        )
        assert findings == []

    def test_line_pragma_with_justification(self):
        findings = findings_for(
            "t = sum(v.values())  # reprolint: disable=REP004 -- ints\n"
        )
        assert findings == []

    def test_line_pragma_is_rule_specific(self):
        findings = findings_for(
            "t = sum(v.values())  # reprolint: disable=REP001\n"
        )
        assert rules_of(findings) == ["REP004"]

    def test_bare_pragma_suppresses_everything(self):
        findings = findings_for(
            "t = sum(v.values())  # reprolint: disable\n"
        )
        assert findings == []

    def test_file_pragma_in_header_suppresses_file(self):
        findings = findings_for(
            """
            # reprolint: disable=REP004
            a = sum(v.values())
            b = sum(w.values())
            """
        )
        assert findings == []

    def test_file_pragma_below_header_window_is_line_only(self):
        lines = ["x = 0"] * 6
        lines.append("# reprolint: disable=REP004")
        lines.append("a = sum(v.values())")
        findings = findings_for("\n".join(lines) + "\n")
        assert rules_of(findings) == ["REP004"]

    def test_disabled_rule_config(self):
        config = LintConfig.with_disabled(("REP004",))
        findings = findings_for("t = sum(v.values())\n", config=config)
        assert findings == []

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            LintConfig.with_disabled(("REP999",))

    def test_severity_override(self):
        config = LintConfig(severities={"REP004": Severity.WARNING})
        findings = findings_for("t = sum(v.values())\n", config=config)
        assert findings[0].severity is Severity.WARNING
        assert not has_errors(findings)


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


class TestReports:
    def trigger(self):
        return findings_for(
            """
            import random
            x = random.random()
            t = sum(v.values())
            """
        )

    def test_text_report_has_anchors(self):
        text = render_text(self.trigger())
        assert "/fixtures/snippet.py:3" in text
        assert "REP001" in text and "REP004" in text
        assert "2 finding(s)" in text

    def test_empty_text_report(self):
        assert render_text([]) == "reprolint: no findings"

    def test_json_roundtrip_and_shape(self):
        document = json.loads(render_json(self.trigger()))
        assert document["format"] == "reprolint"
        assert document["version"] == 1
        assert document["summary"]["total"] == 2
        assert document["summary"]["errors"] == 2
        assert document["summary"]["by_rule"] == {"REP001": 1, "REP004": 1}
        finding = document["findings"][0]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message",
        }

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            findings_for("def broken(:\n")


# ----------------------------------------------------------------------
# CLI: python -m repro lint
# ----------------------------------------------------------------------


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def seed_all_rule_violations(tmp_path):
    """One file per rule, each containing exactly one seeded violation."""
    (tmp_path / "rep001.py").write_text(
        "import random\nx = random.random()\n"
    )
    (tmp_path / "rep002.py").write_text('seed = hash("label")\n')
    (tmp_path / "rep003.py").write_text(
        "import time\nstarted = time.time()\n"
    )
    (tmp_path / "rep004.py").write_text("total = sum(volumes.values())\n")
    (tmp_path / "rep005.py").write_text(
        "for d in set(domains):\n    noise = rng.random()\n"
    )
    write_schema_module(tmp_path, "v1:000000000000", name="rep006.py")
    (tmp_path / "rep007.py").write_text(
        "import os\nworkers = os.cpu_count()\n"
    )
    # REP008 fires only inside the repro package, so seed it under a
    # repro/ directory (the linter keys the scope off the path).
    pkg = tmp_path / "repro" / "pipeline"
    pkg.mkdir(parents=True)
    (pkg / "rep008.py").write_text(
        "import time\nstarted = time.perf_counter()\n"
    )
    (tmp_path / "rep009.py").write_text(
        "from repro.parallel import WorkerPool\n"
        "\n"
        "COUNT = 0\n"
        "\n"
        "def work(state, payload):\n"
        "    global COUNT\n"
        "    COUNT = COUNT + 1\n"
        "    return COUNT\n"
        "\n"
        "def run_all():\n"
        "    return WorkerPool(2).run_batch(work, [0])\n"
    )
    (tmp_path / "rep010.py").write_text(
        "from random import Random\n"
        "from repro.parallel import WorkerPool\n"
        "\n"
        "shared_rng = Random(7)\n"
        "\n"
        "def draw(state, payload):\n"
        "    return shared_rng.random()\n"
        "\n"
        "def run_all():\n"
        "    return WorkerPool(2).run_batch(draw, [0])\n"
    )
    (tmp_path / "rep011.py").write_text(
        "def helper():\n"
        "    return {1.5, 2.5}\n"
        "\n"
        "def total():\n"
        "    return sum(helper())\n"
    )
    (tmp_path / "rep012.py").write_text(
        "STORE_VERSION = 1\n"
        'STORE_SCHEMA_COLUMNS = {"meta": ("key", "value")}\n'
        'STORE_SCHEMA_PIN = "v1:000000000000"\n'
    )


class TestCli:
    def test_strict_fails_on_every_seeded_rule(self, tmp_path):
        seed_all_rule_violations(tmp_path)
        result = run_cli(str(tmp_path), "--strict", "--json")
        assert result.returncode != 0
        document = json.loads(result.stdout)
        flagged = {f["rule"] for f in document["findings"]}
        assert flagged == set(DEFAULT_RULES)

    def test_clean_fixture_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1 + 1\n")
        result = run_cli(str(tmp_path), "--strict")
        assert result.returncode == 0
        assert "no findings" in result.stdout

    def test_disable_flag(self, tmp_path):
        (tmp_path / "rep004.py").write_text(
            "total = sum(volumes.values())\n"
        )
        result = run_cli(str(tmp_path), "--strict", "--disable", "REP004")
        assert result.returncode == 0

    def test_unknown_disable_is_usage_error(self, tmp_path):
        result = run_cli(str(tmp_path), "--disable", "REP999")
        assert result.returncode == 2

    def test_schema_pin_matches_declared(self):
        from repro.io import checkpoint

        result = run_cli("--schema-pin")
        assert result.returncode == 0
        assert result.stdout.strip() == checkpoint.CHECKPOINT_SCHEMA_PIN
