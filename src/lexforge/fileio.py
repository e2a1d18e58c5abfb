"""Line-delimited JSON file helpers, and the one way a stage writes.

Pipeline artifacts are files of one JSON object per line, and checkpoints
and BM25 indexes are binary. Each input is read in one forward pass from
its open file, JSONL a line at a time, so no reader holds a file's bytes
beside what it parses from them. A stage writes all its outputs in one
:func:`outputs` block: each writer streams into a temp file beside its
output, JSONL a record at a time, and the temp files are renamed over the
outputs, in order, only once the block ends. A failed stage leaves every
earlier output as it was; a crash between two renames can leave a mix.
"""

from __future__ import annotations

import errno
import json
import os
import re
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

from .errors import MalformedRecord


@contextmanager
def outputs(*paths: str | Path | None) -> Iterator[list[str | None]]:
    """A temp path beside each output path, Nones kept, for the block to
    write into; an output that is a directory is an ``IsADirectoryError``
    before the block runs. Only a writer makes a temp file, and its parent
    directory. When the block ends, each temp file is renamed over its
    output, in order. If it raises, every temp file is removed, every
    output is left as it was, and an ``OSError`` that names a temp file is
    made to name its output."""
    for path in paths:
        if path is not None and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    temps = [path and f"{path}.{os.urandom(8).hex()}.tmp" for path in paths]
    named = [(temp, path) for temp, path in zip(temps, paths) if temp]
    try:
        yield temps
        for temp, path in named:
            os.replace(temp, path)
    except BaseException as exc:
        for temp, path in named:
            Path(temp).unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename == temp:
                exc.filename, exc.filename2 = os.fspath(path), None
        raise


@contextmanager
def _created(path: str | Path) -> Iterator[BinaryIO]:
    """path opened to write, its parent directory made first; an ``OSError``
    that names no file, as a failed write does, is made to name path."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        exc.filename = os.fspath(path) if exc.filename is None else exc.filename
        raise


def write_bytes(path: str | Path, *chunks) -> int:
    """Write the chunks, each ``bytes`` or another C-contiguous buffer, in
    order to path; returns the byte count."""
    with _created(path) as fh:
        return sum(fh.write(chunk) for chunk in chunks)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path in a one-output :func:`outputs` block."""
    with outputs(path) as (temp,):
        write_bytes(temp, text.encode("utf-8"))


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> int:
    """Write records to path as one JSON object per line, UTF-8, keys
    sorted; returns the line count. Each line is written as its record
    arrives, so only the file's buffer is held."""
    count = 0
    with _created(path) as fh:
        for record in records:
            fh.write((json.dumps(record, ensure_ascii=False, sort_keys=True)
                      + "\n").encode("utf-8"))
            count += 1
    return count


def _lines(path: str | Path, fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary file, read with the
    file's own line iterator; a line ends at a newline byte, so a file with
    CRLF line ends has the same line numbers as one without. A line that is
    not UTF-8 is a MalformedRecord naming the file, the line and the byte,
    counting from 1 within the line."""
    for lineno, raw in enumerate(fh, 1):
        # decoded through a view, so dropping the newline copies no bytes
        view = memoryview(raw)[:len(raw) - raw.endswith(b"\n")]
        try:
            line = str(view, "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path}:{lineno}: not UTF-8 at byte "
                                  f"{exc.start + 1}") from None
        yield lineno, line


#: A code point that UTF-8 cannot encode: JSON gives one for a ``\u``
#: escape of a lone surrogate.
_SURROGATE = re.compile("[\ud800-\udfff]")


def lone_surrogate(payload) -> str | None:
    """The escape, ``\\uXXXX``, of the first lone surrogate in the strings
    of a decoded JSON value, keys too, or None if it has none."""
    lone = _SURROGATE.search(json.dumps(payload, ensure_ascii=False))
    return lone and f"\\u{ord(lone.group()):04x}"


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, dict) for each non-empty line. Each line is read
    as bytes and decoded on its own by :func:`_lines`, so a line that is
    not UTF-8, like one that is not a JSON object or one whose ``\\u``
    escapes leave a lone surrogate in a string, is a MalformedRecord naming
    the file, the line and the reason."""
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
            if "\\u" in line and (escape := lone_surrogate(record)):
                raise MalformedRecord(f"{path}:{lineno}: lone surrogate escape {escape} "
                                      "in a string")
            yield lineno, record
