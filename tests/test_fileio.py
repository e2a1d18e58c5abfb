"""The streaming JSONL writer against the join-then-encode original, and
the ``outputs`` block that commits a stage's files together."""

import errno
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexforge import fileio
from lexforge.errors import MalformedRecord

from oracles import lines_oracle

RECORDS = [
    {"case_id": "c1", "fact": "被告人张某于2019年盗窃财物，价值人民币三千元。"},
    {"text": "非BMP字符 \U00020BB7\U0001F600 与 tab\tand\nnewline", "n": 3, "a": [1.5, None]},
    {"z": "ｆｕｌｌ　width", "b": {"nested": "盗窃罪"}, "empty": ""},
    {},
]


def _joined_bytes(records):
    """What ``write_jsonl`` wrote when it joined every line and encoded the
    whole file at once."""
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n"
                   for r in records).encode("utf-8")


def _leftovers(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("records", [RECORDS, RECORDS[:1], []])
def test_streamed_bytes_equal_the_joined_file(tmp_path, records):
    path = tmp_path / "out.jsonl"
    assert fileio.write_jsonl(path, iter(records)) == len(records)
    assert path.read_bytes() == _joined_bytes(records)
    assert [r for _, r in fileio.read_jsonl(path)] == records


def _raising_after(k):
    for record in RECORDS[:k]:
        yield record
    raise RuntimeError(f"source failed after {k} records")


def _write_in_block(path, records):
    """write_jsonl records to path in a one-output ``outputs`` block."""
    with fileio.outputs(path) as (temp,):
        return fileio.write_jsonl(temp, records)


@pytest.mark.parametrize("k", [0, 1, len(RECORDS)])
def test_a_failing_source_keeps_the_old_file(tmp_path, k):
    path = tmp_path / "out.jsonl"
    fileio.write_jsonl(path, [{"old": "旧"}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match=f"after {k} records"):
        _write_in_block(path, _raising_after(k))
    assert path.read_bytes() == before
    assert _leftovers(tmp_path) == []


def test_a_record_that_cannot_be_encoded_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    fileio.write_jsonl(path, [{"old": "旧"}])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        _write_in_block(path, RECORDS[:2] + [{"text": "lone \ud800 surrogate"}])
    assert path.read_bytes() == before
    assert _leftovers(tmp_path) == []


def test_a_failed_first_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError):
        _write_in_block(path, _raising_after(2))
    assert list(tmp_path.iterdir()) == []


class TestOutputs:
    """Every output of a block is renamed into place only when the block
    ends, together; a block that raises leaves every output as it was."""

    EARLIER = "an earlier file\n".encode("utf-8")

    def _earlier(self, tmp_path, names):
        paths = [tmp_path / name for name in names]
        for path in paths:
            path.write_bytes(self.EARLIER)
        return paths

    def test_outputs_change_only_when_the_block_ends(self, tmp_path):
        a, b = self._earlier(tmp_path, ["a.jsonl", "b.bin"])
        with fileio.outputs(a, None, b) as temps:
            assert temps[1] is None
            assert [os.path.dirname(t) for t in temps[::2]] == [str(tmp_path)] * 2
            assert fileio.write_jsonl(temps[0], RECORDS) == len(RECORDS)
            assert fileio.write_bytes(temps[2], b"x", memoryview(b"yz")) == 3
            assert [a.read_bytes(), b.read_bytes()] == [self.EARLIER] * 2
        assert a.read_bytes() == _joined_bytes(RECORDS) and b.read_bytes() == b"xyz"
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failed_write_of_any_output_keeps_every_output(self, tmp_path, failing):
        """Output ``failing`` fails partway, as a full disk does, after the
        outputs before it are written whole: every output keeps its earlier
        bytes, no temp file is left, and the error names that output."""
        paths = self._earlier(tmp_path, ["a.jsonl", "b.jsonl", "c.jsonl"])

        def full_disk():
            yield RECORDS[0]
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with pytest.raises(OSError) as raised:
            with fileio.outputs(*paths) as temps:
                for k, temp in enumerate(temps):
                    fileio.write_jsonl(temp, full_disk() if k == failing else RECORDS)
        assert raised.value.filename == str(paths[failing])
        assert [p.read_bytes() for p in paths] == [self.EARLIER] * 3
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_directory_fails_before_the_block(self, tmp_path, failing):
        paths = self._earlier(tmp_path, ["a.jsonl", "b.jsonl"])
        paths[failing].unlink()
        paths[failing].mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            with fileio.outputs(*paths):
                pytest.fail("the block ran")
        assert raised.value.filename == str(paths[failing])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"]

    def test_nothing_is_made_before_a_writer_writes(self, tmp_path):
        path = tmp_path / "new" / "out.jsonl"
        with pytest.raises(RuntimeError):
            with fileio.outputs(path) as (temp,):
                assert not (tmp_path / "new").exists()
                raise RuntimeError("the stage failed before its first write")
        assert list(tmp_path.iterdir()) == []
        with fileio.outputs(path) as (temp,):
            fileio.write_jsonl(temp, RECORDS[:1])
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["out.jsonl"]

    def test_a_failed_rename_removes_the_temp_files_left(self, tmp_path, monkeypatch):
        """A rename that fails names its output and removes the temp files
        not yet renamed; the outputs renamed before it stay renamed, the gap
        the module documents."""
        paths = self._earlier(tmp_path, ["a.jsonl", "b.jsonl", "c.jsonl"])
        real_replace = os.replace

        def replace(src, dst):
            if dst == paths[1]:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)
            real_replace(src, dst)

        monkeypatch.setattr(fileio.os, "replace", replace)
        with pytest.raises(PermissionError) as raised:
            with fileio.outputs(*paths) as temps:
                for temp in temps:
                    fileio.write_jsonl(temp, RECORDS[:1])
        assert (raised.value.filename, raised.value.filename2) == (str(paths[1]), None)
        assert [p.read_bytes() for p in paths] == [_joined_bytes(RECORDS[:1]),
                                                   self.EARLIER, self.EARLIER]
        assert _leftovers(tmp_path) == []


#: Line contents: text with multi-byte characters, raw bytes that may not be
#: UTF-8, carriage returns, and runs of 4 to 32 KiB, so that lines are longer
#: than 8 KiB and multi-byte characters straddle 8 KiB offsets.
LINE_PIECES = st.one_of(
    st.text("盗窃 a\r\U0001F600", max_size=30).map(str.encode),
    st.binary(max_size=8),
    st.builds(lambda c, n: (c * n).encode(), st.sampled_from(["盗", "ab", "\U0001F600"]),
              st.integers(1 << 11, 1 << 13)))


@given(st.lists(LINE_PIECES, max_size=8), st.sampled_from([b"\n", b"\r\n"]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_lines_equal_the_per_line_decode(pieces, newline, trailing):
    """The line reader yields each line, and raises at the first bad line
    and byte, as decoding each line's bytes on its own does, for long
    lines too."""
    data = newline.join(pieces) + (newline if trailing else b"")
    got, error = [], None
    try:
        for line in fileio._lines("x.jsonl", io.BytesIO(data)):
            got.append(line)
    except MalformedRecord as exc:
        error = str(exc)
    assert (got, error) == lines_oracle("x.jsonl", data)


def test_a_record_of_several_mib(tmp_path):
    """One record of 6 MiB reads back as written, and a bad byte at the end
    of its line is named by its line and its byte."""
    path = tmp_path / "x.jsonl"
    records = [RECORDS[0], {"fact": "盗\U0001F600a" * (3 << 18)}]
    assert fileio.write_jsonl(path, records) == 2
    assert list(fileio.read_jsonl(path)) == [(1, records[0]), (2, records[1])]
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + second[:-1] + b"\xff\n")
    with pytest.raises(MalformedRecord) as raised:
        list(fileio.read_jsonl(path))
    assert str(raised.value) == f"{path}:2: not UTF-8 at byte {len(second)}"


@pytest.mark.parametrize("line, escape", [
    (r'{"text": "a\ud800b"}', r"\ud800"),
    (r'{"text": "a\udfffb", "n": 1}', r"\udfff"),
    (r'{"id": "c1", "ids": ["x", "\ude00\ud83d"]}', r"\ude00"),
    (r'{"\udbff": "key"}', r"\udbff"),
    (r'{"b": {"nested": "\uD834"}}', r"\ud834"),
])
def test_a_lone_surrogate_escape_is_malformed(tmp_path, line, escape):
    """A string that holds an escape of a lone surrogate, as a value, in a
    list, as a key or nested, names the file, the line and the escape."""
    path = tmp_path / "x.jsonl"
    path.write_text('{"ok": "\\u00e9"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as raised:
        list(fileio.read_jsonl(path))
    assert str(raised.value) == f"{path}:2: lone surrogate escape {escape} in a string"


def test_escapes_that_encode_are_read(tmp_path):
    """A surrogate pair escapes one character, and an escaped backslash
    before ``ud800`` is text."""
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": "\\ud83d\\ude00", "b": "\\\\ud800", "c": "\\u00e9\\u4e00"}\n')
    assert list(fileio.read_jsonl(path)) == [(1, {"a": "\U0001F600", "b": "\\ud800", "c": "é一"})]
