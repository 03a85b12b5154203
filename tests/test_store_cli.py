"""Integration tests for ``--store`` and the ``query`` subcommand.

The store is an *output*, never an input, of the analyses: a store-
backed run must print byte-identical artifacts to a store-less one, at
any seed and any worker count.  Queries against the landed store must
then agree with what the in-process timing analysis computed -- the
store is a durable second witness, not a second implementation.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.__main__ import main
from repro.analysis.timing import campaign_start_times
from repro.feeds import land_dataset
from repro.store import SightingStore


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


class TestCursorCheckpoint:
    def test_resume_from_cursor_checkpoint_is_identical(
        self, tmp_path, capsys
    ):
        store_path = str(tmp_path / "ck.sqlite")
        ck = str(tmp_path / "ck.json")
        code, _, _ = _run(
            capsys,
            ["--small", "--seed", "7", "-q", "stream", "--store", store_path,
             "--until-day", "46", "--checkpoint", ck],
        )
        assert code == 0
        code, resumed, _ = _run(
            capsys,
            ["--small", "--seed", "7", "-q", "stream", "--store", store_path,
             "--resume", ck],
        )
        assert code == 0
        code, straight, _ = _run(
            capsys, ["--small", "--seed", "7", "-q", "stream"]
        )
        assert code == 0
        assert resumed == straight

    def test_resume_without_store_matches_straight_run(
        self, tmp_path, capsys
    ):
        store_path = str(tmp_path / "ck.sqlite")
        ck = str(tmp_path / "ck.json")
        assert _run(
            capsys,
            ["--small", "--seed", "7", "-q", "stream", "--store", store_path,
             "--until-day", "20", "--checkpoint", ck],
        )[0] == 0
        code, resumed, err = _run(
            capsys, ["--small", "--seed", "7", "-q", "stream", "--resume", ck]
        )
        assert code == 0 and err == ""
        code, straight, _ = _run(
            capsys, ["--small", "--seed", "7", "-q", "stream"]
        )
        assert code == 0
        assert resumed == straight

    def test_resumed_store_lands_the_whole_prefix(self, tmp_path, capsys):
        base = ["--small", "--seed", "7", "-q", "stream"]
        ck = str(tmp_path / "ck.json")
        assert _run(
            capsys, base + ["--until-day", "46", "--checkpoint", ck]
        )[0] == 0
        fresh = str(tmp_path / "fresh.sqlite")
        assert _run(capsys, base + ["--resume", ck, "--store", fresh])[0] == 0
        straight = str(tmp_path / "straight.sqlite")
        assert _run(capsys, base + ["--store", straight])[0] == 0

        stats = []
        for path in (fresh, straight):
            code, out, _ = _run(capsys, ["query", "--store", path, "feed-stats"])
            assert code == 0
            with SightingStore.open(path) as store:
                stats.append((out, len(store.sightings())))
        assert stats[0] == stats[1]
        assert stats[0][1] == 59583


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
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00" * 128)
        code, err = self._query(capsys, str(path))
        assert code == 2
        assert "not a sighting store" in err

    def test_foreign_sqlite_file(self, tmp_path, capsys):
        import sqlite3

        path = str(tmp_path / "foreign.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users(id INTEGER PRIMARY KEY)")
        conn.commit()
        conn.close()
        code, err = self._query(capsys, path)
        assert code == 2
        assert "not a sighting store" in err

    def test_valid_meta_but_missing_data_tables(self, tmp_path, capsys):
        """The regression this PR fixes: a file carrying a plausible
        meta table but none of the data tables used to escape as a raw
        ``sqlite3.OperationalError`` traceback (exit 1)."""
        import sqlite3

        path = str(tmp_path / "meta-only.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta VALUES('format', 'repro-sighting-store')"
        )
        conn.execute("INSERT INTO meta VALUES('version', '1')")
        conn.commit()
        conn.close()
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
        import sqlite3

        path = str(tmp_path / "drifted.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta VALUES('format', 'repro-sighting-store')"
        )
        conn.execute("INSERT INTO meta VALUES('version', '1')")
        for table in ("runs", "bronze", "silver", "gold"):
            conn.execute(f"CREATE TABLE {table}(wrong INTEGER)")
        conn.commit()
        conn.close()
        code, err = self._query(capsys, path)
        assert code == 2
        assert "not a sighting store" in err

    def test_good_store_still_opens(self, tmp_path, capsys):
        path = str(tmp_path / "good.sqlite")
        store = SightingStore.open(path)
        store.close()
        code, err = self._query(capsys, path)
        assert code == 0, err


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
