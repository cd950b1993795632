"""Append-only JSON-lines files with one torn-tail rule.

The soak's ``metrics.jsonl``, ``telemetry.jsonl`` and the obs traces
share a crash discipline: each record is one canonical JSON line, and a
record is appended (and fsynced) before the state that depends on it
advances. A hard kill mid-append can therefore leave one torn final line
and nothing worse. Every reader here applies the same rule:

* blank lines are skipped;
* a *final* line that opens a JSON object (``{``) but does not parse is
  that torn tail, and is dropped;
* any other line that does not parse is corruption, and raises
  ``ValueError`` naming the file and the line number.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

__all__ = ["append_record", "read_records", "trim_records"]


def append_record(path, record: dict) -> None:
    """Append ``record`` as one sorted-key JSON line, fsynced before returning."""
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _malformed(path, held) -> ValueError:
    line_no, _line, exc = held
    return ValueError(f"{path}:{line_no}: malformed JSON record: {exc}")


def _parsed_lines(path) -> Iterator[tuple]:
    """Yield ``(line, record)`` per non-blank line; a torn tail yields
    ``(line, None)``, and corruption raises."""
    held = None  # (line_no, line, error) of a line that did not parse
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if held is not None:
                raise _malformed(path, held)  # more data after a bad line
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                held = (line_no, line, exc)
                continue
            yield line, record
    if held is not None:
        if not held[1].startswith("{"):
            raise _malformed(path, held)
        yield held[1], None


def read_records(path) -> Iterator[dict]:
    """Yield the records of ``path`` in file order (streaming)."""
    for _line, record in _parsed_lines(path):
        if record is not None:
            yield record


def trim_records(path, next_epoch: int) -> int:
    """Drop the records whose ``epoch`` is at or past ``next_epoch``.

    The resume cursor's trim: streaming (line in, line out, then one
    atomic rename), kept lines copied byte for byte. Returns how many
    lines were dropped, a torn tail included; a missing file is a no-op.
    Corruption raises before ``path`` is touched.
    """
    if not os.path.exists(path):
        return 0
    dropped = 0
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as dst:
            for line, record in _parsed_lines(path):
                if record is not None and record["epoch"] < next_epoch:
                    dst.write(line + "\n")
                else:
                    dropped += 1
            dst.flush()
            os.fsync(dst.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)  # a failed rewrite leaves no stray copy
    return dropped
