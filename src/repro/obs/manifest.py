"""Run manifests: provenance records written next to run output.

A manifest answers "what produced this file?" months later: the seed,
the exact code revision, a stable hash of the run configuration, the
interpreter and numpy versions, and how long the run took — plus the
merged metrics snapshot when observability was on.

Manifests are plain JSON with sorted keys, so two runs of the same
configuration differ only in the timing/provenance fields.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = [
    "RunManifest",
    "manifest_scope",
    "write_manifest",
    "git_sha",
    "config_hash",
]

MANIFEST_VERSION = 1


def git_sha(cwd=None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout (or
    when git itself is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _jsonable(value):
    """Best-effort conversion of config payloads (dataclasses, tuples,
    numpy scalars) into JSON-serialisable structures."""
    if hasattr(value, "__dataclass_fields__"):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


def config_hash(config) -> Optional[str]:
    """Stable sha256 over the canonical JSON form of a run configuration."""
    if config is None:
        return None
    payload = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunManifest:
    """Provenance for one invocation (``run_trials`` batch, deployment,
    or soak)."""

    kind: str
    seed: Optional[int] = None
    git_sha: Optional[str] = None
    config_hash: Optional[str] = None
    config: Optional[dict] = None
    python_version: str = field(default_factory=platform.python_version)
    numpy_version: Optional[str] = None
    platform: str = field(default_factory=platform.platform)
    wall_seconds: Optional[float] = None
    cpu_seconds: Optional[float] = None
    trace_path: Optional[str] = None
    n_events: int = 0
    metrics: dict = field(default_factory=dict)
    manifest_version: int = MANIFEST_VERSION
    argv: list = field(default_factory=lambda: list(sys.argv))

    def to_dict(self) -> dict:
        return asdict(self)


def write_manifest(path, *, kind, seed=None, config=None, metrics=None,
                   wall_seconds=None, cpu_seconds=None, trace_path=None,
                   n_events=0) -> RunManifest:
    """Build a :class:`RunManifest` and write it to ``path`` atomically."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    manifest = RunManifest(
        kind=kind,
        seed=seed,
        git_sha=git_sha(),
        config_hash=config_hash(config),
        config=_jsonable(config) if config is not None else None,
        numpy_version=numpy_version,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        trace_path=os.fspath(trace_path) if trace_path is not None else None,
        n_events=n_events,
        metrics=metrics or {},
    )
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return manifest


@contextmanager
def manifest_scope(path=None, *, kind, seed=None, config=None):
    """Time a run and write its manifest on exit.

    The boilerplate every long-running driver repeats — snapshot wall and
    CPU clocks, run, write a manifest carrying the timings and the
    ambient metrics — in one scope. ``path=None`` still measures but
    writes nothing, so callers can wrap unconditionally. Deployment runs
    use this.

    The metrics snapshot is taken at exit from the ambient registry
    (:func:`repro.obs.trace.metrics`), which is a no-op dict when
    metrics collection is off.
    """
    t_wall = time.perf_counter()
    t_cpu = time.process_time()
    yield
    if path is None:
        return
    from .trace import metrics

    write_manifest(
        path,
        kind=kind,
        seed=seed,
        config=config,
        metrics=metrics().to_dict(),
        wall_seconds=time.perf_counter() - t_wall,
        cpu_seconds=time.process_time() - t_cpu,
    )
