"""Line-delimited JSON file helpers with atomic replacement.

Pipeline artifacts are files of one JSON object per line, and checkpoints
and BM25 indexes are binary. Every writer goes through one
temp-file-then-rename (:func:`_atomic_file`): it writes into a temp file
beside the target as it goes, JSONL a record at a time, and renames the
file over the target only once the last byte is written, so a re-run can
never leave a partially written artifact behind.
"""

from __future__ import annotations

import errno
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
    less the umask. An ``OSError`` that names no file, as a failed write
    does, or that names the temp file, is made to name path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (None, os.fspath(tmp)):
            exc.filename, exc.filename2 = os.fspath(path), None
        raise


def check_outputs(*paths: str | Path | None) -> None:
    """Raise ``IsADirectoryError`` for the first path, Nones aside, that is a
    directory: a stage calls this before its first write, so that an output
    it cannot write fails it before an earlier output is replaced."""
    for path in paths:
        if path is not None and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


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


#: Bytes per read of :func:`_lines`, as many as a text file reads at a time.
READ_BLOCK = 1 << 13


def _lines(path: str | Path, fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary file; a line ends at a
    newline byte, so a file with CRLF line ends has the same line numbers
    as one without. The lines are decoded a block of whole lines at a time,
    so no line is held as bytes too. A block that is not UTF-8 is decoded
    line by line, and its first bad line is a MalformedRecord naming the
    file, the line and the byte, counting from 1 within the line."""
    lineno, rest = 0, b""
    while True:
        block = fh.read(READ_BLOCK)
        if not block:
            if not rest:
                return
            block = b"\n"  # end the file's last line, which has no newline
        head = rest + block
        cut = head.rfind(b"\n") + 1
        whole, rest = head[:cut], head[cut:]
        try:
            lines = whole.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = whole.split(b"\n")
        for line in lines[:-1]:  # the last piece is the empty one after a newline
            lineno += 1
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise MalformedRecord(f"{path}:{lineno}: not UTF-8 at byte "
                                          f"{exc.start + 1}") from None
            yield lineno, line


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, dict) for each non-empty line. The file is read
    as bytes and decoded by :func:`_lines`, so a line that is not UTF-8,
    like one that is not a JSON object, is a MalformedRecord naming the
    file, the line and the reason."""
    with open(path, "rb") as fh:
        for lineno, line in _lines(path, fh):
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
