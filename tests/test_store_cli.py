"""Integration tests for ``--store`` and the ``query`` subcommand.

The store is an *output*, never an input, of the analyses: a store-
backed run must print byte-identical artifacts to a store-less one, at
any seed and any worker count.  Queries against the landed store must
then agree with what the in-process timing analysis computed -- the
store is a durable second witness, not a second implementation.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys

import pytest

from repro import obs
from repro.__main__ import main
from repro.analysis.timing import campaign_start_times
from repro.feeds import land_dataset
from repro.store import STORE_VERSION, SightingStore

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStoreBackedRunIsByteIdentical:
    @pytest.mark.parametrize("seed", ["7", "11", "2012"])
    def test_run_store_on_off(self, seed, tmp_path, capsys):
        base = ["--small", "--seed", seed, "-q", "run"]
        code, plain, _ = _run(capsys, base)
        assert code == 0
        store_path = str(tmp_path / f"s{seed}.sqlite")
        code, stored, _ = _run(capsys, base + ["--store", store_path])
        assert code == 0
        assert stored == plain

    def test_run_store_parallel(self, tmp_path, capsys):
        base = ["--small", "--seed", "7", "-q", "run"]
        code, plain, _ = _run(capsys, base)
        assert code == 0
        code, stored, _ = _run(
            capsys,
            base + ["--jobs", "4", "--no-cache",
                    "--store", str(tmp_path / "par.sqlite")],
        )
        assert code == 0
        assert stored == plain

    def test_stream_store_on_off(self, tmp_path, capsys):
        base = ["--small", "--seed", "7", "-q", "stream"]
        code, plain, _ = _run(capsys, base)
        assert code == 0
        code, stored, _ = _run(
            capsys, base + ["--store", str(tmp_path / "st.sqlite")]
        )
        assert code == 0
        assert stored == plain

    def test_run_then_stream_lands_once(self, tmp_path, capsys):
        path = str(tmp_path / "both.sqlite")
        assert _run(
            capsys,
            ["--small", "--seed", "7", "-q", "run", "--store", path],
        )[0] == 0
        with SightingStore.open(path) as store:
            once = len(store.sightings())
            assert len(store.runs()) == 1
        # the stream path lands under the same (config, seed) run key,
        # so everything it offers is an already-landed prefix
        assert _run(
            capsys,
            ["--small", "--seed", "7", "-q", "stream", "--store", path],
        )[0] == 0
        with SightingStore.open(path) as store:
            assert len(store.sightings()) == once
            assert len(store.runs()) == 1


class TestTwoSessionLanding:
    """``stream --until-day D --store s`` then ``stream --store s``.

    The engine's sources are deterministic in (config, seed), so a
    later session reaches any day again without saved state, and the
    store's per-run prefix skip makes the second session land only
    what the first did not: the store ends up holding what one
    straight ``stream --store`` lands.
    """

    BASE = ["--small", "--seed", "7", "-q", "stream"]

    def test_first_session_lands_only_its_prefix(self, tmp_path, capsys):
        path = str(tmp_path / "half.sqlite")
        code, _, err = _run(
            capsys,
            ["--small", "--seed", "7", "stream", "--until-day", "46",
             "--store", path],
        )
        assert code == 0
        done = int(
            err.split("[stream] done: ")[1].split(" records")[0]
            .replace(",", "")
        )
        with SightingStore.open(path) as store:
            assert len(store.sightings()) == done
        assert 0 < done < 59583

    @pytest.mark.parametrize("day", ["20", "46"])
    def test_second_session_stdout_matches_straight_stream(
        self, day, tmp_path, capsys
    ):
        path = str(tmp_path / "s.sqlite")
        argv = self.BASE + ["--until-day", day, "--store", path]
        assert _run(capsys, argv)[0] == 0
        code, second, err = _run(capsys, self.BASE + ["--store", path])
        assert code == 0 and err == ""
        code, straight, _ = _run(capsys, self.BASE)
        assert code == 0
        assert second == straight

    def test_two_session_store_queries_match_straight_landing(
        self, tmp_path, capsys
    ):
        two = str(tmp_path / "two.sqlite")
        straight = str(tmp_path / "straight.sqlite")
        for argv in (
            ["--until-day", "46", "--store", two],
            ["--store", two],
            ["--store", straight],
        ):
            assert _run(capsys, self.BASE + argv)[0] == 0
        for query in (["feed-stats"], ["runs"]):
            outputs = [
                _run(capsys, ["query", "--store", path, *query])
                for path in (two, straight)
            ]
            assert outputs[0][0] == 0
            assert outputs[0] == outputs[1], query
        # Same rows; only ``seq`` (landing order) differs, because the
        # first session lands every feed's pre-day-46 prefix first.
        listings = []
        for path in (two, straight):
            code, out, _ = _run(
                capsys,
                ["query", "--store", path,
                 "sightings", "--feed", "mx1", "--limit", "500"],
            )
            assert code == 0
            listings.append(
                [line.split(None, 1)[1:] for line in out.splitlines()]
            )
        assert len(listings[0]) == 503
        assert listings[0] == listings[1]
        with SightingStore.open(two) as store:
            assert len(store.sightings()) == 59583


class TestQueryCli:
    @pytest.fixture(scope="class")
    def landed(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("query") / "landed.sqlite")
        code = main(
            ["--small", "--seed", "7", "-q", "run", "--store", path]
        )
        assert code == 0
        return path

    def test_feed_stats(self, landed, capsys):
        code, out, _ = _run(capsys, ["query", "--store", landed, "feed-stats"])
        assert code == 0
        assert "feed-stats" in out
        assert "mx1" in out and "Hu" in out

    def test_first_seen(self, landed, capsys):
        with SightingStore.open(landed) as store:
            domain = store.sightings(limit=1)[0].domain
        code, out, _ = _run(
            capsys, ["query", "--store", landed, "first-seen", domain]
        )
        assert code == 0
        assert domain in out

    def test_first_seen_unknown_domain(self, landed, capsys):
        code, out, _ = _run(
            capsys,
            ["query", "--store", landed, "first-seen", "nowhere.example"],
        )
        assert code == 0
        assert "no sightings" in out

    def test_sightings_filters(self, landed, capsys):
        code, out, _ = _run(
            capsys,
            ["query", "--store", landed, "sightings",
             "--feed", "mx1", "--since", "45", "--limit", "5"],
        )
        assert code == 0
        assert "mx1" in out

    def test_runs_listing(self, landed, capsys):
        code, out, _ = _run(capsys, ["query", "--store", landed, "runs"])
        assert code == 0
        assert "runs" in out
        assert "7" in out  # the landed run's seed

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["query", "--store", str(tmp_path / "absent.sqlite"),
             "feed-stats"],
        )
        assert code == 2
        assert "error:" in err


class TestStoreAgreesWithTimingAnalysis:
    """The landed gold tier is a second witness for first-seen times."""

    @pytest.fixture(scope="class")
    def landed_store(self, small_comparison):
        store = SightingStore.in_memory()
        writer = store.open_run("test", 7, "cfg", "test")
        for name in small_comparison.datasets:
            land_dataset(writer, small_comparison.datasets[name])
        writer.finish()
        return store

    def test_per_feed_first_seen_matches(
        self, landed_store, small_comparison
    ):
        for name, dataset in small_comparison.datasets.items():
            expected = dataset.first_seen()
            got = {
                row.domain: row.first_seen
                for row in landed_store.gold_rows(name)
            }
            assert got == expected

    def test_campaign_starts_match_cross_feed_minimum(
        self, landed_store, small_comparison
    ):
        feeds = list(small_comparison.datasets)
        domains = set()
        for name in feeds:
            domains |= small_comparison.unique_domains(name)
        starts = campaign_start_times(small_comparison, feeds, domains)
        for domain in sorted(domains)[:200]:
            rows = landed_store.first_seen(domain)
            assert rows, f"store lost {domain!r}"
            assert rows[0].first_seen == starts[domain]
            # ordered earliest-first, ties broken by feed name
            times = [row.first_seen for row in rows]
            assert times == sorted(times)

    def test_sighting_totals_match(self, landed_store, small_comparison):
        for summary in landed_store.feed_summaries():
            dataset = small_comparison.datasets[summary.feed]
            assert summary.sightings == dataset.total_samples
            assert summary.domains == len(dataset.unique_domains())


class TestTruncationWarning:
    def test_truncation_counter_surfaces_in_stderr(self, capsys):
        import argparse

        from repro.__main__ import _finish_observability
        from repro.ecosystem import small_config

        tracer = obs.Tracer()
        with obs.activate(tracer):
            obs.add("feeds.truncated_records", 123)
            obs.add("feeds.truncated_placements", 2)
        args = argparse.Namespace(
            quiet=False, trace=None, metrics=False, seed=7
        )
        _finish_observability(args, tracer, "run", small_config())
        err = capsys.readouterr().err
        assert "123" in err and "placement" in err

    def test_no_warning_when_nothing_truncated(self, capsys):
        import argparse

        from repro.__main__ import _finish_observability
        from repro.ecosystem import small_config

        tracer = obs.Tracer()
        args = argparse.Namespace(
            quiet=False, trace=None, metrics=False, seed=7
        )
        _finish_observability(args, tracer, "run", small_config())
        assert "warning" not in capsys.readouterr().err


def _store_with_meta(path, version, tables=()):
    """A SQLite file carrying a sighting-store meta table.

    *tables* are created with a single ``wrong`` column each.
    """
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
    )
    conn.execute("INSERT INTO meta VALUES('format', 'repro-sighting-store')")
    conn.execute("INSERT INTO meta VALUES('version', ?)", (str(version),))
    for table in tables:
        conn.execute(f"CREATE TABLE {table}(wrong INTEGER)")
    conn.commit()
    conn.close()
    return path


def _garbage_file(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"\x00" * 128)
    return str(path)


def _foreign_file(tmp_path):
    path = str(tmp_path / "foreign.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE users(id INTEGER PRIMARY KEY)")
    conn.commit()
    conn.close()
    return path


def _wrong_columns_file(tmp_path):
    return _store_with_meta(
        str(tmp_path / "drifted.sqlite"),
        STORE_VERSION,
        ("runs", "bronze", "silver", "gold"),
    )


def _v1_store(tmp_path):
    """A store written by schema version 1 (payload per bronze row)."""
    path = str(tmp_path / "v1.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
        INSERT INTO meta VALUES('format', 'repro-sighting-store');
        INSERT INTO meta VALUES('version', '1');
        CREATE TABLE runs(run_id INTEGER PRIMARY KEY,
            run_key TEXT NOT NULL UNIQUE, seed INTEGER NOT NULL,
            config_fingerprint TEXT NOT NULL, command TEXT NOT NULL);
        CREATE TABLE bronze(seq INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL, feed TEXT NOT NULL,
            payload TEXT NOT NULL, status TEXT NOT NULL,
            reason TEXT NOT NULL);
        CREATE TABLE silver(seq INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL, feed TEXT NOT NULL,
            domain TEXT NOT NULL, time INTEGER NOT NULL);
        CREATE TABLE gold(feed TEXT NOT NULL, domain TEXT NOT NULL,
            n_sightings INTEGER NOT NULL, first_seen INTEGER NOT NULL,
            last_seen INTEGER NOT NULL, PRIMARY KEY(feed, domain));
        """
    )
    conn.commit()
    conn.close()
    return path


def _v2_store(tmp_path):
    """A store written by schema version 2 (nullable bronze payload)."""
    path = str(tmp_path / "v2.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL);
        INSERT INTO meta VALUES('format', 'repro-sighting-store');
        INSERT INTO meta VALUES('version', '2');
        CREATE TABLE runs(run_id INTEGER PRIMARY KEY,
            run_key TEXT NOT NULL UNIQUE, seed INTEGER NOT NULL,
            config_fingerprint TEXT NOT NULL, command TEXT NOT NULL);
        CREATE TABLE bronze(seq INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL, feed TEXT NOT NULL,
            payload TEXT, status TEXT NOT NULL,
            reason TEXT NOT NULL, n_records INTEGER NOT NULL);
        CREATE TABLE silver(seq INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL, feed TEXT NOT NULL,
            domain TEXT NOT NULL, time INTEGER NOT NULL);
        CREATE TABLE gold(feed TEXT NOT NULL, domain TEXT NOT NULL,
            n_sightings INTEGER NOT NULL, first_seen INTEGER NOT NULL,
            last_seen INTEGER NOT NULL, PRIMARY KEY(feed, domain));
        """
    )
    conn.commit()
    conn.close()
    return path


class TestQueryRejectsMalformedStores:
    """``query`` against anything that is not a sighting store: a clean
    two-line error and exit code 2, never a traceback -- whatever shape
    the corruption takes."""

    def _query(self, capsys, path, *args):
        code = main(["query", "--store", path, *(args or ("runs",))])
        captured = capsys.readouterr()
        return code, captured.err

    def test_missing_path(self, tmp_path, capsys):
        code, err = self._query(capsys, str(tmp_path / "absent.sqlite"))
        assert code == 2
        assert "error:" in err

    def test_garbage_file(self, tmp_path, capsys):
        code, err = self._query(capsys, _garbage_file(tmp_path))
        assert code == 2
        assert "not a sighting store" in err

    def test_foreign_sqlite_file(self, tmp_path, capsys):
        code, err = self._query(capsys, _foreign_file(tmp_path))
        assert code == 2
        assert "not a sighting store" in err

    def test_valid_meta_but_missing_data_tables(self, tmp_path, capsys):
        """A file carrying a plausible meta table but none of the data
        tables used to escape as a raw ``sqlite3.OperationalError``
        traceback (exit 1)."""
        path = _store_with_meta(
            str(tmp_path / "meta-only.sqlite"), STORE_VERSION
        )
        for sub in (
            ("runs",),
            ("feed-stats",),
            ("sightings",),
            ("first-seen", "x.example"),
        ):
            code, err = self._query(capsys, path, *sub)
            assert code == 2, sub
            assert "not a sighting store" in err
            assert "Traceback" not in err

    def test_wrong_columns(self, tmp_path, capsys):
        code, err = self._query(capsys, _wrong_columns_file(tmp_path))
        assert code == 2
        assert "not a sighting store" in err

    def test_version_1_store(self, tmp_path, capsys):
        code, err = self._query(capsys, _v1_store(tmp_path))
        assert code == 2
        assert "unsupported store version '1'" in err

    def test_version_2_store(self, tmp_path, capsys):
        code, err = self._query(capsys, _v2_store(tmp_path))
        assert code == 2
        assert "unsupported store version '2'" in err

    def test_good_store_still_opens(self, tmp_path, capsys):
        path = str(tmp_path / "good.sqlite")
        store = SightingStore.open(path)
        store.close()
        code, err = self._query(capsys, path)
        assert code == 0, err


class TestStoreCommandsRejectMalformedStores:
    """``run``, ``stream`` and ``serve`` refuse a bad ``--store`` file
    the way ``query`` does: one ``error: <path>: <reason>`` line and
    exit 2, never a traceback.  Each runs as its own process, so a
    command that wrongly accepted the file (serve would start its
    daemon) fails on the timeout instead of hanging the suite."""

    COMMANDS = {
        "run": ["--small", "-q", "run", "--no-cache"],
        "stream": ["--small", "-q", "stream", "--no-cache"],
        "serve": ["--small", "-q", "serve", "--port", "0", "--no-cache"],
    }

    def _invoke(self, command, path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR, env.get("PYTHONPATH", "")]
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.COMMANDS[command],
             "--store", path],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "make,reason",
        [
            (_garbage_file, "not a sighting store"),
            (_foreign_file, "not a sighting store"),
            (_wrong_columns_file, "not a sighting store"),
            (_v1_store, "unsupported store version '1'"),
            (_v2_store, "unsupported store version '2'"),
        ],
        ids=["garbage", "foreign", "wrong-columns", "version-1",
             "version-2"],
    )
    def test_bad_store_exits_2(self, command, make, reason, tmp_path):
        path = make(tmp_path)
        result = self._invoke(command, path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: {path}: "), result.stderr
        assert reason in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


class TestCrossThreadOpen:
    def test_cross_thread_connection_usable_from_another_thread(
        self, tmp_path
    ):
        import threading

        path = str(tmp_path / "xt.sqlite")
        store = SightingStore.open(path, cross_thread=True)
        errors = []

        def use():
            try:
                store.runs()
                store.first_seen("x.example")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        thread = threading.Thread(target=use)
        thread.start()
        thread.join(timeout=30)
        store.close()
        assert errors == []

    def test_default_open_stays_thread_bound(self, tmp_path):
        import sqlite3
        import threading

        path = str(tmp_path / "bound.sqlite")
        store = SightingStore.open(path)
        errors = []

        def use():
            try:
                store.runs()
            except sqlite3.ProgrammingError as exc:
                errors.append(exc)

        thread = threading.Thread(target=use)
        thread.start()
        thread.join(timeout=30)
        store.close()
        assert len(errors) == 1
