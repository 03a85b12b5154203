"""Unit tests for serialization."""

import dataclasses

import pytest

from repro.feeds.base import FeedDataset, FeedRecord, FeedType
from repro.io.csvexport import rows_to_csv, write_csv
from repro.io.serialization import (
    FeedFormatError,
    read_feed_jsonl,
    read_feeds_dir,
    roundtrip_equal,
    write_feed_jsonl,
    write_feeds_dir,
)


def sample_dataset(name="mx1", has_volume=True):
    return FeedDataset(
        name,
        FeedType.MX_HONEYPOT,
        [FeedRecord("a.com", 5), FeedRecord("b.com", 10)],
        has_volume=has_volume,
    )


class TestJsonlRoundtrip:
    def test_roundtrip(self, tmp_path):
        original = sample_dataset()
        path = tmp_path / "mx1.jsonl"
        write_feed_jsonl(original, str(path))
        loaded = read_feed_jsonl(str(path))
        assert roundtrip_equal(original, loaded)

    def test_has_volume_preserved(self, tmp_path):
        original = sample_dataset(has_volume=False)
        path = tmp_path / "f.jsonl"
        write_feed_jsonl(original, str(path))
        assert not read_feed_jsonl(str(path)).has_volume

    def test_empty_dataset(self, tmp_path):
        original = FeedDataset("x", FeedType.BLACKLIST, [], has_volume=False)
        path = tmp_path / "x.jsonl"
        write_feed_jsonl(original, str(path))
        loaded = read_feed_jsonl(str(path))
        assert loaded.total_samples == 0
        assert loaded.feed_type is FeedType.BLACKLIST

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            '{"feed": "x", "type": "botnet"}\n'
            '\n'
            '{"d": "a.com", "t": 3}\n'
        )
        loaded = read_feed_jsonl(str(path))
        assert loaded.total_samples == 1


class TestJsonlErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        with pytest.raises(FeedFormatError):
            read_feed_jsonl(str(path))

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("not json\n")
        with pytest.raises(FeedFormatError):
            read_feed_jsonl(str(path))

    def test_header_missing_fields(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"feed": "x"}\n')
        with pytest.raises(FeedFormatError):
            read_feed_jsonl(str(path))

    def test_unknown_feed_type(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"feed": "x", "type": "telepathy"}\n')
        with pytest.raises(FeedFormatError):
            read_feed_jsonl(str(path))

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            '{"feed": "x", "type": "botnet"}\n{"d": "a.com"}\n'
        )
        with pytest.raises(FeedFormatError, match=":2:"):
            read_feed_jsonl(str(path))

    @pytest.mark.parametrize(
        "record, reason",
        [
            ('{"d": "", "t": 5}', "empty_domain"),
            ('{"d": "a.com\\nb.com", "t": 5}', "malformed_domain"),
            ('{"d": "a.com", "t": 9223372036854775808}', "time_out_of_range"),
            ('{"d": "a.com", "t": -9223372036854775809}',
             "time_out_of_range"),
            ('{"d": "\\ud800.com", "t": 5}', "malformed_domain"),
            ('{"d": "a.com", "t": NaN}', "bad_time"),
            ('{"d": "a.com", "t": Infinity}', "bad_time"),
            ('{"d": "a.com", "t": -Infinity}', "bad_time"),
            ('{"d": "a.com", "t": true}', "bad_time"),
            ('{"d": "a.com", "t": false}', "bad_time"),
            ('{"d": "a.com", "t": "12"}', "bad_time"),
            ('{"d": "a.com", "t": 1.9}', "bad_time"),
            ('{"d": "a.com"}', "bad_time"),
            ('{"d": "a.com", "t": null}', "bad_time"),
            ('{"d": "a.com", "t": [5]}', "bad_time"),
            ('{"d": "a.com", "t": {"v": 5}}', "bad_time"),
            ('{"d": 5, "t": 5}', "malformed_domain"),
            ('{"d": "a .com", "t": 5}', "malformed_domain"),
            ('{"d": 5, "t": true}', "malformed_domain"),
            ('{"d": "ALSO NOT A DOMAIN", "t": "12"}', "malformed_domain"),
            ('["a.com", 5]', "record is not a JSON object"),
            ('{"t": 5}', "empty_domain"),
        ],
        ids=["empty-domain", "newline-in-domain", "time-past-int64",
             "time-before-int64", "lone-surrogate", "nan-time",
             "infinity-time", "minus-infinity-time", "true-time",
             "false-time", "string-time", "float-time", "missing-time",
             "null-time", "list-time", "object-time",
             "non-string-domain", "inner-whitespace-domain",
             "probe-number-domain-bool-time", "probe-spaced-string-time",
             "non-object-record", "missing-domain"],
    )
    def test_unpackable_record_rejected(self, tmp_path, record, reason):
        # A record is admitted only through the store's silver gate, on
        # its raw JSON values: nothing is coerced, and a record the
        # store or the packed columns would refuse fails here with its
        # line and the silver reason, not at the first pickle.
        path = tmp_path / "f.jsonl"
        path.write_text('{"feed": "x", "type": "botnet"}\n' + record + "\n")
        with pytest.raises(FeedFormatError) as info:
            read_feed_jsonl(str(path))
        assert str(info.value) == f"{path}:2: bad record: {reason}"

    @pytest.mark.parametrize(
        "header",
        [
            '"feedtype"',
            '{"feed": 5, "type": "botnet"}',
            '{"feed": "", "type": "botnet"}',
            '{"feed": "x", "type": "botnet", "has_volume": "false"}',
            '{"feed": "x", "type": "botnet", "has_volume": 0}',
        ],
        ids=["string-header", "number-feed", "empty-feed",
             "string-has-volume", "number-has-volume"],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "f.jsonl"
        path.write_text(header + '\n{"d": "a.com", "t": 5}\n')
        with pytest.raises(FeedFormatError, match=r"f\.jsonl: "):
            read_feed_jsonl(str(path))

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(
            b'{"feed": "x", "type": "botnet"}\n{"d": "\xff.com", "t": 5}\n'
        )
        with pytest.raises(FeedFormatError, match="not UTF-8"):
            read_feed_jsonl(str(path))

    def test_deeply_nested_record_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"feed": "x", "type": "botnet"}\n' + "[" * 100000)
        with pytest.raises(FeedFormatError, match=r":2: bad record"):
            read_feed_jsonl(str(path))


class TestDirectoryIo:
    def test_write_read_dir(self, tmp_path):
        datasets = {
            "mx1": sample_dataset("mx1"),
            "Hu": sample_dataset("Hu", has_volume=False),
        }
        write_feeds_dir(datasets, str(tmp_path / "feeds"))
        loaded = read_feeds_dir(str(tmp_path / "feeds"))
        assert set(loaded) == {"mx1", "Hu"}
        assert roundtrip_equal(datasets["mx1"], loaded["mx1"])

    def test_non_jsonl_files_ignored(self, tmp_path):
        directory = tmp_path / "feeds"
        write_feeds_dir({"mx1": sample_dataset()}, str(directory))
        (directory / "README.txt").write_text("ignore me")
        assert set(read_feeds_dir(str(directory))) == {"mx1"}


@dataclasses.dataclass(frozen=True)
class _Row:
    feed: str
    count: int


class TestCsvExport:
    def test_rows_to_csv(self):
        text = rows_to_csv([_Row("Hu", 5), _Row("mx1", 2)])
        lines = text.strip().splitlines()
        assert lines[0] == "feed,count"
        assert lines[1] == "Hu,5"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([_Row("Hu", 5)], str(path))
        assert path.read_text().startswith("feed,count")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_mixed_types_rejected(self):
        @dataclasses.dataclass
        class Other:
            x: int

        with pytest.raises(ValueError):
            rows_to_csv([_Row("a", 1), Other(2)])

    def test_non_dataclass_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([{"feed": "Hu"}])
