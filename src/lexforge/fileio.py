"""Line-delimited JSON file helpers with atomic replacement.

Pipeline artifacts are files of one JSON object per line, and checkpoints
and BM25 indexes are binary. Every writer goes through one
temp-file-then-rename (:func:`_atomic_file`): it writes into a temp file
beside the target as it goes, JSONL a record at a time, and renames the
file over the target only once the last byte is written, so a re-run can
never leave a partially written artifact behind.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

from .errors import MalformedRecord


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file to write path's new content into: a temp file in the
    same directory, renamed over path when the block ends, removed if the
    block raises, so that a failed write leaves any earlier file at path as
    it was. The file gets the mode a plain ``open`` would give it: 0o666
    less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, *chunks) -> int:
    """Write the chunks, each ``bytes`` or another C-contiguous buffer, in
    order to path atomically (:func:`_atomic_file`); returns the byte
    count."""
    with _atomic_file(path) as fh:
        return sum(fh.write(chunk) for chunk in chunks)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path atomically, as :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> int:
    """Write records as one JSON object per line, UTF-8, keys sorted;
    returns the line count. Each line is written as its record arrives, so
    only the file's buffer is held; a record that cannot be encoded, or an
    iterator that raises, leaves any earlier file at path as it was."""
    count = 0
    with _atomic_file(path) as fh:
        for record in records:
            fh.write((json.dumps(record, ensure_ascii=False, sort_keys=True)
                      + "\n").encode("utf-8"))
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, dict) for each non-empty line; raises
    MalformedRecord, naming the file and the line, on bad JSON."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecord(f"{path}:{lineno}: expected an object")
            yield lineno, record
