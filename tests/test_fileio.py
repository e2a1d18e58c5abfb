"""The streaming atomic JSONL writer against the join-then-encode original."""

import json

import pytest

from lexforge import fileio

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
