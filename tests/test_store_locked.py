"""A sighting store locked by another connection is an error, not a crash.

SQLite waits out its busy timeout and then refuses the write; the
store reports that as a :class:`StoreError`, and ``run``/``stream
--store`` print ``error: <path>: <reason>`` and exit 2.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.store import SightingStore, StoreError

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture
def locked_store(tmp_path):
    """A valid store file that a second connection holds write-locked."""
    path = str(tmp_path / "locked.db")
    SightingStore.open(path).close()
    holder = sqlite3.connect(path, isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")
    yield path
    holder.execute("ROLLBACK")
    holder.close()


@pytest.mark.parametrize("command", ["run", "stream"])
def test_locked_store_exits_2(command, locked_store):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--small", "--seed", "11", "-q",
         command, "--no-cache", "--store", locked_store],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {locked_store}: "), result.stderr
    assert "locked" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_refused_write_leaves_the_store_usable(tmp_path):
    path = str(tmp_path / "s.db")
    store = SightingStore.open(path)
    writer = store.open_run("key", 1, "fp", "run")
    # Fail at once instead of waiting out the default busy timeout.
    store.backend._conn.execute("PRAGMA busy_timeout = 0")
    holder = sqlite3.connect(path, isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")
    try:
        with pytest.raises(StoreError, match="locked"):
            writer.land_sightings("f", ["a.com"], [5])
    finally:
        holder.execute("ROLLBACK")
        holder.close()
    store.close()
    with SightingStore.open(path) as reopened:
        assert reopened.sightings() == []
        writer = reopened.open_run("key", 1, "fp", "run")
        writer.land_sightings("f", ["a.com"], [5])
        writer.finish()
        assert [row.domain for row in reopened.sightings()] == ["a.com"]
