"""A sighting store locked by another connection is an error, not a crash.

SQLite waits out its busy timeout and then refuses the write; the
store reports that as a :class:`StoreError`, ``run``/``stream
--store`` print ``error: <path>: <reason>`` and exit 2, and ``serve
--store`` answers 503 and keeps serving.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, env.get("PYTHONPATH", "")])
    return env


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.mark.parametrize("command", ["run", "stream"])
def test_locked_store_exits_2(command, locked_store):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--small", "--seed", "11", "-q",
         command, "--no-cache", "--store", locked_store],
        capture_output=True,
        text=True,
        timeout=120,
        env=_env(),
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


def test_serve_answers_503_while_locked_then_recovers(tmp_path):
    path = str(tmp_path / "locked.db")
    SightingStore.open(path).close()
    holder = sqlite3.connect(path, isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")
    locked = True
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--small", "--seed", "11", "-q",
         "serve", "--no-cache", "--store", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        match = re.search(
            r"listening on (http://[\d.]+:\d+)", proc.stderr.readline()
        )
        assert match
        base = match.group(1)
        # Concurrent identical requests coalesce onto one build; every
        # one of them gets the leader's answer.
        with ThreadPoolExecutor(3) as pool:
            answers = list(
                pool.map(lambda _: _get(base + "/v1/tables"), range(3))
            )
        for status, body in answers:
            assert status == 503
            assert json.loads(body) == {
                "error": f"{path}: database is locked"
            }
        status, body = _get(base + "/v1/stats")
        stats = json.loads(body)
        assert stats["worlds"] == []
        assert "serve.worlds_built" not in stats["metrics"]["counters"]

        holder.execute("ROLLBACK")
        locked = False
        status, served = _get(base + "/v1/tables")
        assert status == 200
        batch = subprocess.run(
            [sys.executable, "-m", "repro", "--small", "--seed", "11",
             "-q", "run", "--no-cache"],
            capture_output=True, text=True, timeout=120, env=_env(),
            check=True,
        )
        assert served.decode("utf-8") == batch.stdout

        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if locked:
            holder.execute("ROLLBACK")
        holder.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
