"""The streaming atomic JSONL writer against the join-then-encode original."""

import io
import json

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


@pytest.mark.parametrize("k", [0, 1, len(RECORDS)])
def test_a_failing_source_keeps_the_old_file(tmp_path, k):
    path = tmp_path / "out.jsonl"
    fileio.write_jsonl(path, [{"old": "旧"}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match=f"after {k} records"):
        fileio.write_jsonl(path, _raising_after(k))
    assert path.read_bytes() == before
    assert _leftovers(tmp_path) == []


def test_a_record_that_cannot_be_encoded_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    fileio.write_jsonl(path, [{"old": "旧"}])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        fileio.write_jsonl(path, RECORDS[:2] + [{"text": "lone \ud800 surrogate"}])
    assert path.read_bytes() == before
    assert _leftovers(tmp_path) == []


def test_a_failed_first_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError):
        fileio.write_jsonl(path, _raising_after(2))
    assert list(tmp_path.iterdir()) == []


#: Line contents: text with multi-byte characters, raw bytes that may not be
#: UTF-8, carriage returns, and lines longer than one read block.
LINE_PIECES = st.one_of(
    st.text("盗窃 a\r\U0001F600", max_size=30).map(str.encode),
    st.binary(max_size=8),
    st.builds(lambda c, n: (c * n).encode(), st.sampled_from(["盗", "ab", "\U0001F600"]),
              st.integers(fileio.READ_BLOCK // 4, fileio.READ_BLOCK)))


@given(st.lists(LINE_PIECES, max_size=8), st.sampled_from([b"\n", b"\r\n"]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_lines_equal_the_per_line_decode(pieces, newline, trailing):
    """The block-wise decode yields each line, and raises at the first bad
    line and byte, as decoding each line's bytes on its own does; lines
    cross block boundaries, and a character may be split across two."""
    data = newline.join(pieces) + (newline if trailing else b"")
    got, error = [], None
    try:
        for line in fileio._lines("x.jsonl", io.BytesIO(data)):
            got.append(line)
    except MalformedRecord as exc:
        error = str(exc)
    assert (got, error) == lines_oracle("x.jsonl", data)
