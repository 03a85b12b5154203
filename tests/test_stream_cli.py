"""CLI tests for the ``stream`` subcommand and the ``--quiet`` flag."""

import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run_repro(*argv, timeout=60):
    """``python -m repro`` in a subprocess; a hang fails, never stalls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestStreamCli:
    def test_stream_prints_final_tables(self, capsys):
        code = main(["--small", "--seed", "7", "stream"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "Table 2" in captured.out
        assert "Table 3" in captured.out
        assert "[stream] done:" in captured.err

    def test_stream_matches_batch_run_table1(self, capsys):
        assert main(["--small", "--seed", "7", "-q", "stream"]) == 0
        stream_out = capsys.readouterr().out
        assert main(["--small", "--seed", "7", "-q", "run"]) == 0
        run_out = capsys.readouterr().out

        def table1_section(text):
            start = text.index("Table 1")
            return text[start : text.index("\n\n", start)]

        assert table1_section(stream_out) == table1_section(run_out)

    def test_snapshot_progress_lines(self, capsys):
        code = main(
            ["--small", "--seed", "7", "stream", "--snapshot-every", "30"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[stream] day 30/92:" in err
        assert "[stream] day 60/92:" in err
        assert "records/s" in err

    def test_snapshot_loop_is_monotone_and_ends_at_run_tables(self, capsys):
        assert main(
            ["--small", "--seed", "7", "stream", "--snapshot-every", "23"]
        ) == 0
        captured = capsys.readouterr()
        lines = re.findall(
            r"\[stream\] (?:day (\d+)/92|done): ([\d,]+) records", captured.err
        )
        assert [day for day, _ in lines] == ["23", "46", "69", ""]
        counts = [int(n.replace(",", "")) for _, n in lines]
        assert counts == sorted(counts) and counts[0] > 0

        assert main(["--small", "--seed", "7", "-q", "run"]) == 0
        run_out = capsys.readouterr().out
        tables = captured.out.rstrip("\n")
        assert run_out.startswith(tables + "\n\n")

    def test_snapshot_every_zero_is_off(self, capsys):
        assert main(
            ["--small", "--seed", "7", "stream", "--snapshot-every", "0"]
        ) == 0
        assert "[stream] day " not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--snapshot-every", "-1"],
            ["stream", "--until-day", "-3"],
            ["stream", "--until-day", "x"],
        ],
        ids=["negative-snapshot-every", "negative-until-day", "non-integer"],
    )
    def test_bad_day_options_are_usage_errors(self, argv):
        result = run_repro("--small", "--seed", "7", *argv, "--no-cache")
        assert result.returncode == 2
        assert "usage:" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--checkpoint", "x"],
            ["stream", "--resume", "x"],
            ["lint", "--schema-pin"],
        ],
        ids=["checkpoint", "resume", "schema-pin"],
    )
    def test_deleted_flags_are_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--small", "--seed", "7", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_until_day_session_then_plain_stream_is_identical(self, capsys):
        base = ["--small", "--seed", "7", "-q", "stream"]
        assert main(base) == 0
        straight_out = capsys.readouterr().out
        assert main(base + ["--until-day", "46"]) == 0
        cut_out = capsys.readouterr().out
        assert cut_out != straight_out

        # A later session reaches the end again from (config, seed)
        # alone; the cut session leaves nothing behind that shows.
        assert main(base) == 0
        assert capsys.readouterr().out == straight_out

    def test_until_day_prints_asof_header(self, capsys):
        code = main(
            ["--small", "--seed", "7", "stream", "--until-day", "20"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[stream] as of day" in captured.err
        assert "Table 3" in captured.out


class TestQuietFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--small", "--seed", "7", "-q", "stream"],
            ["--small", "--seed", "7", "--quiet", "run"],
            ["--small", "--seed", "7", "-q", "recommend", "coverage"],
            ["--small", "--seed", "7", "-q", "filter"],
        ],
        ids=["stream", "run", "recommend", "filter"],
    )
    def test_quiet_silences_stderr(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out != ""

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["--small", "--seed", "7", "run"]) == 0
        captured = capsys.readouterr()
        assert "Building world" in captured.err
        assert "Building world" not in captured.out
