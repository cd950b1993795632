"""Atomic soak checkpoints: aggregate + epoch cursor + schedule position.

A checkpoint directory holds three files:

``state.json``
    The *deterministic* resume state, rewritten atomically after every
    epoch (``.tmp`` + ``os.replace``): schema version, the workload
    payload and its :func:`~repro.obs.manifest.config_hash`, the fault
    profile and rolling-schedule position, the next epoch cursor,
    cumulative user/frame counters, and the rolling
    :class:`~repro.net.aggregate.DeploymentAggregate` serialised through
    its exact JSON form. **No timestamps, worker counts, or shard counts
    live here** — the file is a pure function of (workload, fault
    profile, epochs completed), which is exactly the kill/resume identity
    contract: byte-compare ``state.json`` of an interrupted-and-resumed
    run against an uninterrupted one and they must be equal.

``metrics.jsonl``
    One JSON record per completed epoch, append-only, deterministic for
    the same reason. The epoch record is appended *before* ``state.json``
    advances, so a hard kill between the two leaves at most one record
    ahead of the cursor; :func:`trim_epoch_records` drops such orphans on
    resume, restoring the exact prefix an uninterrupted run would have.

``manifest.json``
    A :class:`~repro.obs.manifest.RunManifest` provenance record,
    refreshed each epoch. Wall/CPU timings legitimately differ between
    runs; its ``config_hash`` field must not, and the identity tests pin
    that.
"""

from __future__ import annotations

import json
import os

from repro.net.aggregate import DeploymentAggregate
from repro.obs.manifest import config_hash
from repro.util.jsonl import append_record, read_records, trim_records

__all__ = [
    "CHECKPOINT_SCHEMA",
    "STATE_FILE",
    "METRICS_FILE",
    "MANIFEST_FILE",
    "save_state",
    "load_state",
    "append_epoch_record",
    "read_epoch_records",
    "trim_epoch_records",
    "state_paths",
]

CHECKPOINT_SCHEMA = 1

STATE_FILE = "state.json"
METRICS_FILE = "metrics.jsonl"
MANIFEST_FILE = "manifest.json"


def state_paths(directory) -> dict:
    """Absolute paths of the three checkpoint files."""
    directory = os.fspath(directory)
    return {
        "state": os.path.join(directory, STATE_FILE),
        "metrics": os.path.join(directory, METRICS_FILE),
        "manifest": os.path.join(directory, MANIFEST_FILE),
    }


def save_state(directory, *, identity: dict, next_epoch: int,
               cumulative_users: int, cumulative_frames: int,
               aggregate: DeploymentAggregate, schedule: dict) -> str:
    """Atomically persist the resume state after an epoch completes.

    ``identity`` is the run's identity payload (workload + fault
    profile); its hash is stored alongside so resume can refuse a
    checkpoint minted by a different run. The write is crash-safe: the
    payload lands in ``state.json.tmp`` first and is renamed over the
    live file in one :func:`os.replace`, so a kill at any instant leaves
    either the old complete state or the new complete state — never a
    torn file.
    """
    os.makedirs(directory, exist_ok=True)
    path = state_paths(directory)["state"]
    payload = {
        "schema": CHECKPOINT_SCHEMA,  # legacy name, kept for old readers
        "schema_version": CHECKPOINT_SCHEMA,
        "identity": identity,
        "config_hash": config_hash(identity),
        "next_epoch": int(next_epoch),
        "cumulative_users": int(cumulative_users),
        "cumulative_frames": int(cumulative_frames),
        "schedule": schedule,
        "aggregate": aggregate.to_dict(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_state(directory, *, identity: dict | None = None) -> dict:
    """Load a checkpoint; restore the aggregate; verify run identity.

    Returns the ``state.json`` payload with ``aggregate`` replaced by a
    live :class:`DeploymentAggregate`. When ``identity`` is given, the
    stored ``config_hash`` must match — resuming under a different
    workload or fault profile would silently fork the run's semantics,
    so it is an error, not a warning.
    """
    path = state_paths(directory)["state"]
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no checkpoint at {path}; start a fresh run or point "
            "--checkpoint at an existing soak directory"
        )
    with open(path, encoding="utf-8") as handle:
        state = json.load(handle)
    # ``schema_version`` is the canonical field; old checkpoints carry
    # only the legacy ``schema`` key, and absent-entirely is accepted so
    # formats can evolve without stranding resumable runs. Whichever of
    # the two is present must match — a mismatch in either means the
    # file was written by an incompatible version.
    for key in ("schema_version", "schema"):
        version = state.get(key)
        if version is not None and version != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema {version!r} != {CHECKPOINT_SCHEMA}"
            )
    if identity is not None:
        expected = config_hash(identity)
        if state.get("config_hash") != expected:
            raise ValueError(
                "checkpoint identity mismatch: the checkpoint was written "
                f"by config_hash={state.get('config_hash')}, this run is "
                f"{expected}; refusing to resume a different run"
            )
    state["aggregate"] = DeploymentAggregate.from_dict(state["aggregate"])
    return state


def append_epoch_record(directory, record: dict) -> None:
    """Append one epoch's metrics record (fsynced before returning).

    Called *before* :func:`save_state` advances the cursor — the ordering
    that makes a hard kill recoverable: the record file may run at most
    one epoch ahead of the state, never behind it.
    """
    if "schema_version" not in record:
        record = dict(record, schema_version=CHECKPOINT_SCHEMA)
    append_record(state_paths(directory)["metrics"], record)


def read_epoch_records(directory):
    """Yield epoch records in file order (streaming, constant memory)."""
    path = state_paths(directory)["metrics"]
    if os.path.exists(path):
        yield from read_records(path)


def trim_epoch_records(directory, next_epoch: int) -> int:
    """Drop records at or past the cursor; return how many were dropped.

    A kill that landed between the record append and the state rewrite
    left one orphan record (or a torn half of one), and a resumed run
    must not double it.
    """
    return trim_records(state_paths(directory)["metrics"], next_epoch)
