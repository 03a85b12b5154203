"""The interprocedural reprolint rules (REP009-REP012) and v2 engine.

Covers the seeded known-bad fixtures the issue calls for
(global-mutation-in-task, shared-stream-across-fanout), the
soundness-limit negatives, the incremental cache (warm == cold, byte
for byte), parallel linting stability, SARIF output, and the CLI
exit-code contract.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.devtools import (
    LintConfig,
    ProjectGraph,
    lint_paths,
    lint_source,
    render_sarif,
    summarize_source,
)
from repro.devtools.graph import module_name_for
from repro.devtools.lint import (
    SUMMARY_KIND,
    engine_fingerprint,
    summarize_path,
)
from repro.io.artifacts import ArtifactCache
from repro.store.backend import (
    STORE_SCHEMA_COLUMNS,
    STORE_SCHEMA_PIN,
    STORE_VERSION,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(HERE), "src")
PACKAGE_DIR = os.path.join(SRC_DIR, "repro")


def findings_for(source, path="/fixtures/snippet.py"):
    return lint_source(path, textwrap.dedent(source))


def rules_hit(source, path="/fixtures/snippet.py"):
    return {f.rule for f in findings_for(source, path)}


POOL_IMPORT = "from repro.parallel import WorkerPool\n"


# ----------------------------------------------------------------------
# REP009: fork-safety
# ----------------------------------------------------------------------


class TestRep009ForkSafety:
    def test_global_mutation_in_task(self):
        # The issue's seeded known-bad fixture: a task body assigns a
        # module global through `global`.
        findings = findings_for(
            """
            from repro.parallel import WorkerPool
            COUNT = 0

            def work(state, payload):
                global COUNT
                COUNT = COUNT + 1
                return COUNT

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )
        assert [f.rule for f in findings] == ["REP009"]
        assert "COUNT" in findings[0].message
        assert "fan-out" in findings[0].message

    def test_mutating_method_on_module_object(self):
        assert "REP009" in rules_hit(
            """
            from repro.parallel import WorkerPool
            RESULTS = []

            def work(state, payload):
                RESULTS.append(1)
                return len(RESULTS)

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )

    def test_closed_over_mutation_through_lambda(self):
        assert "REP009" in rules_hit(
            """
            from repro.parallel import WorkerPool
            def run_all():
                shared = []
                return WorkerPool(2).run_batch(
                    lambda state, i: shared.append(i), range(3)
                )
            """
        )

    def test_subscript_store_on_module_dict(self):
        assert "REP009" in rules_hit(
            """
            from repro.parallel import WorkerPool
            CACHE = {}

            def work(state, payload):
                CACHE["k"] = 1
                return CACHE

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )

    def test_write_reached_through_a_call_chain(self):
        # The write is two calls below the task root.
        assert "REP009" in rules_hit(
            """
            from repro.parallel import WorkerPool
            STATE = {}

            def inner():
                STATE["k"] = 1

            def middle():
                inner()

            def work(state, payload):
                middle()
                return 1

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )

    def test_unreachable_writer_is_clean(self):
        # The same write NOT reachable from any fan-out is fine.
        assert rules_hit(
            """
            from repro.parallel import WorkerPool
            STATE = {}

            def writer():
                STATE["k"] = 1

            def work(state, payload):
                return 1

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        ) == set()

    def test_local_and_returned_state_is_clean(self):
        # The fixed shape: tasks build and return their own state.
        assert rules_hit(
            """
            from repro.parallel import WorkerPool
            def work(state, payload):
                local = []
                local.append(1)
                return local

            def run_all():
                parts = WorkerPool(2).run_batch(work, [0])
                merged = []
                for part in parts:
                    merged.extend(part)
                return merged
            """
        ) == set()

    def test_namespace_call_is_not_a_mutation(self):
        # obs.add(...) is a call into an imported module's function,
        # not a method on a shared object.
        assert rules_hit(
            """
            from repro.parallel import WorkerPool
            from repro import obs

            def work(state, payload):
                obs.add("tasks")
                return 1

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        ) == set()

    def test_pragma_suppresses_with_justification(self):
        assert rules_hit(
            """
            from repro.parallel import WorkerPool
            MEMO = {}

            def work(state, payload):
                MEMO["pin"] = 1  # reprolint: disable=REP009 -- idempotent memo
                return 1

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        ) == set()


# ----------------------------------------------------------------------
# REP009/REP010 over worker-pool dispatches
# ----------------------------------------------------------------------


class TestPoolDispatchBoundaries:
    """``pool.run_batch(fn, ...)``/``pool.broadcast(fn, ...)`` are
    fan-out boundaries: the submitted callable runs in forked workers,
    so the same reachability rules apply to it."""

    def test_global_mutation_in_pool_task(self):
        # Seeded known-bad fixture: a run_batch-submitted task assigns
        # a module global; the write dies with the worker.
        findings = findings_for(
            """
            from repro.parallel.pool import WorkerPool
            COUNT = 0

            def work(payload):
                global COUNT
                COUNT = COUNT + payload
                return COUNT

            def run_all(payloads):
                with WorkerPool(2) as pool:
                    return pool.run_batch(work, payloads)
            """
        )
        assert [f.rule for f in findings] == ["REP009"]
        assert "COUNT" in findings[0].message

    def test_broadcast_task_mutating_module_state(self):
        findings = findings_for(
            """
            from repro.parallel.pool import WorkerPool
            CACHE = {}

            def install(payload):
                CACHE["state"] = payload
                return True

            def prime(pool, payload):
                return pool.broadcast(install, payload)
            """
        )
        assert [f.rule for f in findings] == ["REP009"]
        assert "CACHE" in findings[0].message

    def test_shared_stream_in_pool_task(self):
        findings = findings_for(
            """
            from random import Random
            from repro.parallel.pool import WorkerPool
            shared_rng = Random(7)

            def draw(payload):
                return shared_rng.random() + payload

            def run_all(pool, payloads):
                return pool.run_batch(draw, payloads)
            """
        )
        assert [f.rule for f in findings] == ["REP010"]

    def test_pure_pool_task_is_clean(self):
        assert rules_hit(
            """
            from repro.parallel.pool import WorkerPool

            def work(payload):
                return payload * payload

            def run_all(payloads):
                with WorkerPool(2) as pool:
                    return pool.run_batch(work, payloads)
            """
        ) == set()

    def test_pragma_suppresses_pool_finding(self):
        assert rules_hit(
            """
            from repro.parallel.pool import WorkerPool
            _STATE = {}

            def install(payload):
                _STATE["x"] = payload  # reprolint: disable=REP009 -- post-fork, worker-local install
                return True

            def prime(pool, payload):
                return pool.broadcast(install, payload)
            """
        ) == set()


# ----------------------------------------------------------------------
# REP010: RNG stream discipline
# ----------------------------------------------------------------------


class TestRep010StreamDiscipline:
    def test_shared_stream_across_fanout(self):
        # The issue's seeded known-bad fixture: a module-level
        # sequential stream consumed inside fan-out work.
        findings = findings_for(
            """
            from random import Random
            from repro.parallel import WorkerPool
            shared_rng = Random(7)

            def draw(state, payload):
                return shared_rng.random()

            def run_all():
                return WorkerPool(2).run_batch(draw, [0])
            """
        )
        assert [f.rule for f in findings] == ["REP010"]
        assert "module-level RNG stream" in findings[0].message
        assert "derive_rng" in findings[0].message

    def test_closed_over_stream_in_lambda(self):
        assert "REP010" in rules_hit(
            """
            from random import Random
            from repro.parallel import WorkerPool
            def run_all():
                rng = Random(7)
                return WorkerPool(2).run_batch(
                    lambda state, i: rng.random(), range(3)
                )
            """
        )

    def test_shared_stream_passed_into_drawing_helper(self):
        findings = findings_for(
            """
            from random import Random
            from repro.parallel import WorkerPool
            shared_rng = Random(7)

            def helper(rng):
                return rng.random()

            def work(state, payload):
                return helper(shared_rng)

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )
        assert {f.rule for f in findings} == {"REP010"}
        assert any("passes" in f.message for f in findings)

    def test_shared_object_with_sequential_self_stream(self):
        # The mail-oracle bug class (fixed by hand in an earlier PR):
        # a shared object's method draws from self.rng created at
        # construction time.
        findings = findings_for(
            """
            from random import Random
            from repro.parallel import WorkerPool
            class Oracle:
                def __init__(self):
                    self.rng = Random(7)

                def observe(self):
                    return self.rng.random()

            ORACLE = Oracle()

            def work(state, payload):
                return ORACLE.observe()

            def run_all():
                return WorkerPool(2).run_batch(work, [0])
            """
        )
        assert {f.rule for f in findings} == {"REP010"}
        assert any("sequential self-attribute" in f.message for f in findings)

    def test_per_task_derived_stream_is_clean(self):
        assert rules_hit(
            """
            from repro.stats.rng import derive_rng
            from repro.parallel import WorkerPool
            def work(state, label):
                rng = derive_rng(7, label)
                return rng.random()

            def run_all():
                return WorkerPool(2).run_batch(work, ["a", "b"])
            """
        ) == set()

    def test_draw_outside_fanout_is_clean(self):
        assert rules_hit(
            """
            from random import Random
            shared_rng = Random(7)

            def draw(state, payload):
                return shared_rng.random()
            """
        ) == set()


# ----------------------------------------------------------------------
# REP011: cross-boundary float accumulation
# ----------------------------------------------------------------------


class TestRep011CrossBoundarySums:
    def test_sum_over_set_returning_helper(self):
        findings = findings_for(
            """
            def helper():
                return {1.5, 2.5}

            def total():
                return sum(helper())
            """
        )
        assert [f.rule for f in findings] == ["REP011"]
        assert "helper" in findings[0].message

    def test_transitively_unordered_return(self):
        # middle() just forwards helper()'s unordered result.
        assert "REP011" in rules_hit(
            """
            def helper():
                return set()

            def middle():
                return helper()

            def total():
                return sum(middle())
            """
        )

    def test_sorted_wrapper_is_clean(self):
        assert rules_hit(
            """
            def helper():
                return {1.5, 2.5}

            def total():
                return sum(sorted(helper()))
            """
        ) == set()

    def test_list_returning_helper_is_clean(self):
        assert rules_hit(
            """
            def helper():
                return [1.5, 2.5]

            def total():
                return sum(helper())
            """
        ) == set()

    def test_scope_gate_matches_rep004(self):
        # Outside the accumulation packages (inside the repro package
        # but not analysis/stream), the rule stays quiet.
        source = """
        def helper():
            return {1.5, 2.5}

        def total():
            return sum(helper())
        """
        assert (
            rules_hit(source, path="/x/repro/feeds/snippet.py") == set()
        )
        assert "REP011" in rules_hit(
            source, path="/x/repro/analysis/snippet.py"
        )


# ----------------------------------------------------------------------
# REP012: store-schema discipline
# ----------------------------------------------------------------------

STORE_HEADER = """
STORE_VERSION = 1
STORE_SCHEMA_COLUMNS = {{"meta": ("key", "value")}}
STORE_SCHEMA_PIN = "{pin}"
"""


def store_fixture(sql="", pin=None):
    from repro.devtools.rules import compute_schema_pin

    if pin is None:
        pin = compute_schema_pin(1, {"meta": ("key", "value")})
    return STORE_HEADER.format(pin=pin) + sql


class TestRep012StoreSchema:
    def test_fresh_pin_and_matching_sql_is_clean(self):
        source = store_fixture(
            '_SCHEMA = """\n'
            "CREATE TABLE IF NOT EXISTS meta(\n"
            "    key TEXT PRIMARY KEY,\n"
            "    value TEXT NOT NULL\n"
            ');\n"""\n'
            '_Q = "SELECT key, value FROM meta"\n'
        )
        assert rules_hit(source) == set()

    def test_stale_pin_is_flagged(self):
        findings = findings_for(store_fixture(pin="v1:000000000000"))
        assert [f.rule for f in findings] == ["REP012"]
        assert "bump" in findings[0].message

    def test_create_table_column_drift(self):
        source = store_fixture(
            '_SCHEMA = "CREATE TABLE meta(key TEXT, val TEXT)"\n'
        )
        findings = findings_for(source)
        assert [f.rule for f in findings] == ["REP012"]
        assert "CREATE TABLE meta" in findings[0].message

    def test_insert_into_unknown_column(self):
        source = store_fixture(
            '_Q = "INSERT INTO meta(key, extra) VALUES(?, ?)"\n'
        )
        assert any(
            "extra" in f.message for f in findings_for(source)
        )

    def test_select_from_undeclared_table(self):
        source = store_fixture('_Q = "SELECT key FROM metadata"\n')
        assert any(
            "undeclared table metadata" in f.message
            for f in findings_for(source)
        )

    def test_aggregates_and_placeholders_are_ignored(self):
        source = store_fixture(
            '_Q = "SELECT COUNT(*) FROM meta WHERE key = ?"\n'
        )
        assert rules_hit(source) == set()

    def test_real_store_pin_is_fresh(self):
        from repro.devtools.rules import compute_schema_pin

        assert STORE_SCHEMA_PIN == compute_schema_pin(
            STORE_VERSION, STORE_SCHEMA_COLUMNS
        )


# ----------------------------------------------------------------------
# Graph construction: aliases, re-exports, cycles
# ----------------------------------------------------------------------


def summarize_tree(tmp_path, files):
    summaries = []
    for relative, source in sorted(files.items()):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        summaries.append(summarize_path(str(path), path.read_text()))
    return summaries


class TestGraphConstruction:
    def test_aliased_import_resolves(self, tmp_path):
        files = {
            "repro/util.py": """
            def helper():
                return 1
            """,
            "repro/caller.py": """
            from repro.util import helper as h

            def outer():
                return h()
            """,
        }
        graph = ProjectGraph(summarize_tree(tmp_path, files))
        origin = graph.reachable_from(
            [("repro.caller", "outer")]
        )
        assert ("repro.util", "helper") in origin

    def test_reexport_through_package_init(self, tmp_path):
        files = {
            "repro/pkg/__init__.py": """
            from repro.pkg.impl import helper
            """,
            "repro/pkg/impl.py": """
            def helper():
                return 1
            """,
            "repro/caller.py": """
            from repro.pkg import helper

            def outer():
                return helper()
            """,
        }
        graph = ProjectGraph(summarize_tree(tmp_path, files))
        origin = graph.reachable_from([("repro.caller", "outer")])
        assert ("repro.pkg.impl", "helper") in origin

    def test_import_cycle_terminates(self, tmp_path):
        files = {
            "repro/a.py": """
            from repro.b import g

            def f():
                return g()
            """,
            "repro/b.py": """
            from repro.a import f

            def g():
                return f()
            """,
        }
        graph = ProjectGraph(summarize_tree(tmp_path, files))
        origin = graph.reachable_from([("repro.a", "f")])
        assert ("repro.b", "g") in origin
        assert ("repro.a", "f") in origin

    def test_recursive_returns_unordered_fixpoint_terminates(self):
        source = textwrap.dedent(
            """
            def ping():
                return pong()

            def pong():
                return ping()
            """
        )
        summary = summarize_source("/fixtures/rec.py", source, None)
        graph = ProjectGraph([summary])
        assert graph.returns_unordered(("rec", "ping")) is False

    def test_module_name_mapping(self):
        assert (
            module_name_for("/x/src/repro/feeds/suite.py", "feeds/suite.py")
            == "repro.feeds.suite"
        )
        assert (
            module_name_for("/x/src/repro/feeds/__init__.py", "feeds/__init__.py")
            == "repro.feeds"
        )
        assert module_name_for("/tmp/fix.py", None) == "fix"


# ----------------------------------------------------------------------
# Engine: cache identity, parallel identity
# ----------------------------------------------------------------------


def write_fixture_tree(tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "clean.py").write_text("value = 1\n")
    (tmp_path / "bad.py").write_text(
        POOL_IMPORT
        + "STATE = {}\n"
        "def work(state, payload):\n"
        '    STATE["k"] = 1\n'
        "    return 1\n"
        "def run_all():\n"
        "    return WorkerPool(2).run_batch(work, [0])\n"
    )


class TestEngineIdentity:
    def test_warm_equals_cold_byte_for_byte(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        cache = ArtifactCache(str(tmp_path / "cache"))
        cold = lint_paths([str(tmp_path / "tree")], cache=cache)
        warm = lint_paths([str(tmp_path / "tree")], cache=cache)
        assert cold == warm
        assert [f.rule for f in cold] == ["REP009"]

    def test_parallel_equals_serial(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        serial = lint_paths([str(tmp_path / "tree")])
        parallel = lint_paths([str(tmp_path / "tree")], jobs=4)
        assert serial == parallel

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        cache = ArtifactCache(str(tmp_path / "cache"))
        lint_paths([str(tmp_path / "tree")], cache=cache)
        (tmp_path / "tree" / "clean.py").write_text("value = 2\n")
        # Warm run after the edit: bad.py loads from cache, clean.py
        # re-summarizes; findings unchanged.
        findings = lint_paths([str(tmp_path / "tree")], cache=cache)
        assert [f.rule for f in findings] == ["REP009"]

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        cache = ArtifactCache(str(tmp_path / "cache"))
        cold = lint_paths([str(tmp_path / "tree")], cache=cache)
        for dirpath, _dirnames, filenames in os.walk(str(tmp_path / "cache")):
            for name in filenames:
                with open(os.path.join(dirpath, name), "wb") as handle:
                    handle.write(b"garbage")
        assert lint_paths([str(tmp_path / "tree")], cache=cache) == cold

    def test_engine_fingerprint_covers_devtools_sources(self):
        pin = engine_fingerprint()
        assert pin == engine_fingerprint()
        assert len(pin) == 64
        assert SUMMARY_KIND == "reprolint-file-summary"


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


class TestSarif:
    def test_document_shape_and_determinism(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        findings = lint_paths([str(tmp_path / "tree")])
        first = render_sarif(findings, base_dir=str(tmp_path))
        second = render_sarif(findings, base_dir=str(tmp_path))
        assert first == second
        document = json.loads(first)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(
            r["id"] for r in rules
        )
        assert {r["id"] for r in rules} >= {"REP009", "REP012"}
        result = run["results"][0]
        assert result["ruleId"] == "REP009"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "tree/bad.py"
        assert location["region"]["startLine"] == 4

    def test_empty_findings_keep_full_rule_table(self):
        document = json.loads(render_sarif([]))
        run = document["runs"][0]
        assert run["results"] == []
        assert len(run["tool"]["driver"]["rules"]) == 11


# ----------------------------------------------------------------------
# CLI: exit codes, --sarif, --jobs stability
# ----------------------------------------------------------------------


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestCliContract:
    def test_exit_zero_on_clean(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        result = run_cli(str(tmp_path), "--no-cache")
        assert result.returncode == 0

    def test_exit_one_on_findings(self, tmp_path):
        write_fixture_tree(tmp_path)
        result = run_cli(str(tmp_path), "--no-cache")
        assert result.returncode == 1

    def test_exit_two_on_unknown_rule(self, tmp_path):
        result = run_cli(str(tmp_path), "--disable", "REP999")
        assert result.returncode == 2

    def test_exit_two_on_unparsable_input(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        result = run_cli(str(tmp_path), "--no-cache")
        assert result.returncode == 2
        assert "cannot parse" in result.stderr

    def test_exit_two_on_unwritable_sarif(self, tmp_path):
        (tmp_path / "ok.py").write_text("value = 1\n")
        result = run_cli(
            str(tmp_path),
            "--no-cache",
            "--sarif",
            str(tmp_path / "missing-dir" / "out.sarif"),
        )
        assert result.returncode == 2

    def test_sarif_flag_writes_document(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        sarif_path = tmp_path / "out.sarif"
        result = run_cli(
            str(tmp_path / "tree"),
            "--no-cache",
            "--sarif",
            str(sarif_path),
        )
        assert result.returncode == 1
        document = json.loads(sarif_path.read_text())
        assert document["runs"][0]["results"]

    def test_jobs_output_is_byte_stable(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        serial = run_cli(str(tmp_path / "tree"), "--no-cache")
        parallel = run_cli(
            str(tmp_path / "tree"), "--no-cache", "--jobs", "4"
        )
        assert serial.stdout == parallel.stdout
        assert serial.returncode == parallel.returncode == 1

    def test_warm_cli_equals_cold_cli(self, tmp_path):
        write_fixture_tree(tmp_path / "tree")
        cache_dir = str(tmp_path / "cache")
        cold = run_cli(
            str(tmp_path / "tree"), "--cache-dir", cache_dir
        )
        warm = run_cli(
            str(tmp_path / "tree"), "--cache-dir", cache_dir
        )
        assert cold.stdout == warm.stdout
        assert cold.returncode == warm.returncode == 1

    def test_store_schema_pin_flag(self):
        result = run_cli("--store-schema-pin")
        assert result.returncode == 0
        assert result.stdout.strip() == STORE_SCHEMA_PIN


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
