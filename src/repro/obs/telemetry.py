"""Append-only per-epoch telemetry for soak-scale runs.

``telemetry.jsonl`` lives beside the soak checkpoint: one record per
completed epoch, written with the same crash discipline as
``metrics.jsonl`` (append + fsync *before* the state cursor advances, a
streaming trim of at-most-one orphan on resume).

Every record segregates its fields into two namespaces:

``det``
    Values that are a **pure function of (workload, fault profile,
    epoch index)** — goodput, transmissions, demote/re-promote counts,
    fault-window occupancy. The *deterministic view* (``det`` plus the
    epoch key, canonical JSON) must be byte-identical across kill/resume
    at any worker/shard count: the same contract ``state.json`` and
    ``metrics.jsonl`` already honour, extended to live telemetry.

``wall``
    Everything the machine and the execution geometry leak into — epoch
    wall seconds, frames per wall-second, parent RSS, pool/IPC counters,
    worker and shard counts. Legitimately different between runs;
    excluded from every identity gate.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from repro.util.jsonl import append_record, read_records, trim_records

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_FILE",
    "HEALTH_FILE",
    "telemetry_paths",
    "make_record",
    "append_telemetry_record",
    "read_telemetry_records",
    "trim_telemetry_records",
    "deterministic_view",
    "deterministic_view_bytes",
    "fault_occupancy",
    "rss_mb",
]

TELEMETRY_SCHEMA = 1

TELEMETRY_FILE = "telemetry.jsonl"
HEALTH_FILE = "health.json"


def telemetry_paths(directory) -> dict:
    """Absolute paths of the telemetry artifacts in a checkpoint dir."""
    directory = os.fspath(directory)
    return {
        "telemetry": os.path.join(directory, TELEMETRY_FILE),
        "health": os.path.join(directory, HEALTH_FILE),
    }


def fault_occupancy(schedule: dict, epoch_duration: float) -> float:
    """Fraction of the epoch covered by ≥1 impairment window.

    Computed from :func:`repro.serve.scheduler.schedule_position` output —
    a pure function of (profile, epoch index, epoch duration), so the
    figure belongs in the deterministic namespace. Overlapping episode
    windows are unioned, keeping the fraction in ``[0, 1]``.
    """
    episodes = schedule.get("episodes", ())
    if not episodes or epoch_duration <= 0:
        return 0.0
    intervals = sorted(tuple(e["window"]) for e in episodes)
    covered = 0.0
    span_start, span_stop = intervals[0]
    for start, stop in intervals[1:]:
        if start > span_stop:
            covered += span_stop - span_start
            span_start, span_stop = start, stop
        else:
            span_stop = max(span_stop, stop)
    covered += span_stop - span_start
    return min(1.0, covered / epoch_duration)


def rss_mb() -> float:
    """Parent-process peak RSS in MiB (the ``wall.rss_mb`` sample).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalising
    here keeps absolute RSS budgets comparable across platforms.
    """
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def make_record(*, epoch: int, det: dict, wall: dict) -> dict:
    """One telemetry record with the det/wall segregation made explicit."""
    return {
        "schema_version": TELEMETRY_SCHEMA,
        "epoch": int(epoch),
        "det": dict(det),
        "wall": dict(wall),
    }


def append_telemetry_record(directory, record: dict) -> None:
    """Append one record (fsynced), mirroring ``append_epoch_record``:
    called *before* the state cursor advances, so a hard kill leaves at
    most one orphan for :func:`trim_telemetry_records` to drop."""
    append_record(telemetry_paths(directory)["telemetry"], record)


def read_telemetry_records(directory) -> Iterator[dict]:
    """Yield records in file order (streaming, constant memory).

    A torn final line — what a kill mid-append leaves — is skipped: it
    is the same ≤1-orphan artifact the resume path trims, and a live
    ``repro status`` reader must tolerate it. Any other malformed line
    raises ``ValueError`` (:mod:`repro.util.jsonl`).
    """
    path = telemetry_paths(directory)["telemetry"]
    if os.path.exists(path):
        yield from read_records(path)


def trim_telemetry_records(directory, next_epoch: int) -> int:
    """Drop records at or past the cursor, and a torn tail; return how
    many were dropped. The telemetry twin of ``trim_epoch_records``."""
    return trim_records(telemetry_paths(directory)["telemetry"], next_epoch)


def deterministic_view(records: Iterable[dict]) -> list:
    """The identity-gated projection: epoch + ``det`` fields only."""
    return [
        {"schema_version": r["schema_version"], "epoch": r["epoch"],
         "det": r["det"]}
        for r in records
    ]


def deterministic_view_bytes(directory) -> bytes:
    """Canonical JSONL bytes of the deterministic view of a checkpoint's
    telemetry — what the kill/resume gates byte-compare."""
    lines = [json.dumps(entry, sort_keys=True)
             for entry in deterministic_view(read_telemetry_records(directory))]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
