"""CLI tests for the ``stream`` subcommand and the ``--quiet`` flag."""

import json

import pytest

from repro.__main__ import main


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

    def test_checkpoint_then_resume_is_identical(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--until-day", "46", "--checkpoint", path]
        )
        assert code == 0
        capsys.readouterr()

        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", path]
        )
        assert code == 0
        resumed_out = capsys.readouterr().out

        assert main(["--small", "--seed", "7", "-q", "stream"]) == 0
        straight_out = capsys.readouterr().out
        assert resumed_out == straight_out

    def test_resume_with_wrong_seed_fails_cleanly(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        assert main(
            ["--small", "--seed", "7", "-q", "stream",
             "--until-day", "10", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--small", "--seed", "8", "-q", "stream", "--resume", path]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("day", ["46", "10"])
    def test_foreign_scale_checkpoint_fails_cleanly(
        self, day, tmp_path, capsys
    ):
        path = str(tmp_path / "ck.json")
        assert main(
            ["--small", "--seed", "7", "-q", "stream", "--scale", "2",
             "--until-day", day, "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", path]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "belongs to run" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["stream-engine", "stream-cursor"])
    def test_v1_checkpoint_envelopes_are_rejected(
        self, kind, tmp_path, capsys
    ):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "repro-checkpoint", "version": 1, "kind": kind,
            "payload": {"seed": 7, "feed_order": [], "cursors": {},
                        "state": {}, "store": {}},
        }))
        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported checkpoint version" in err
        assert "Traceback" not in err

    def test_resume_from_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--resume", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_unwritable_checkpoint_path_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "file-not-dir"
        target.write_text("x")
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--checkpoint", str(target / "ck.json")]
        )
        assert code == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    def test_resume_from_garbage_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", str(path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
