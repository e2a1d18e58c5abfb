"""Line-delimited JSON file helpers with atomic replacement.

Pipeline artifacts are files of one JSON object per line, and checkpoints
and BM25 indexes are binary. Every writer goes through one
temp-file-then-rename, so a re-run can never leave a partially written
artifact behind.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from .errors import MalformedRecord


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the chunks, each ``bytes`` or another C-contiguous buffer, in
    order to path via a temp file in the same directory, renamed over it.

    A write that fails leaves any earlier file at path as it was. The file
    gets the mode a plain ``open`` would give it: 0o666 less the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path atomically, as :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> int:
    """Write records as one JSON object per line; returns the line count."""
    lines = []
    for record in records:
        lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


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
