"""Keyed, process-safe result caching for expensive sweep inputs.

System-level sweeps (goodput vs. receivers, payload, loss regime) share
expensive inputs across points: every point at the same SNR/MCS re-runs
the *same* PHY calibration (`repro.analysis.calibration`), which costs
seconds per point while the MAC simulation itself costs milliseconds.
This module provides the cache those sweeps go through:

* **Keyed by content** — :func:`content_key` hashes the experiment inputs
  *and* a fingerprint of the source code that produces the result
  (:func:`code_fingerprint`), so editing the PHY chain or the calibration
  logic invalidates every stale entry automatically.
* **Two tiers** — an in-memory dict for hits within a process, a JSON
  file per entry on disk for hits across processes and runs.
* **Process-safe** — disk writes go to a temp file in the same directory
  followed by an atomic ``os.replace``; concurrent writers of the same
  key both write the same deterministic payload, so last-writer-wins is
  correct. Corrupt or half-written files read as misses.
* **Escape hatches** — ``REPRO_NO_CACHE=1`` bypasses the cache entirely
  (every lookup recomputes), ``REPRO_CACHE_DIR`` relocates it, and
  :meth:`ResultCache.clear` wipes one namespace.

Values must be JSON-serialisable; callers wrap/unwrap their own types
(e.g. the calibration stores the four floats of a ``BerCurveErrorModel``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from types import ModuleType

from ..obs.log import get_logger
from ..obs.trace import active_recorder

log = get_logger(__name__)

__all__ = [
    "ResultCache",
    "cache_enabled",
    "code_fingerprint",
    "content_key",
    "default_cache_dir",
]

_ENV_DISABLE = "REPRO_NO_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a truthy value."""
    return os.environ.get(_ENV_DISABLE, "").strip().lower() not in (
        "1", "true", "yes", "on",
    )


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else a per-user directory under the home cache."""
    env = os.environ.get(_ENV_DIR, "").strip()
    if env:
        return env
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro")
    return os.path.join(tempfile.gettempdir(), "repro-cache")


def _module_files(module: ModuleType) -> list:
    """Source files backing ``module`` (every ``.py`` under a package)."""
    path = getattr(module, "__file__", None)
    if path is None:  # pragma: no cover - namespace/builtin modules
        return []
    if os.path.basename(path) != "__init__.py":
        return [path]
    files = []
    for root, _dirs, names in os.walk(os.path.dirname(path)):
        files.extend(
            os.path.join(root, name) for name in names if name.endswith(".py")
        )
    return sorted(files)


@lru_cache(maxsize=None)
def _fingerprint_cached(module_names: tuple) -> str:
    import importlib

    digest = hashlib.sha256()
    for name in module_names:
        module = importlib.import_module(name)
        for path in _module_files(module):
            digest.update(path.encode())
            try:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            except OSError:  # pragma: no cover - unreadable source
                digest.update(b"<unreadable>")
    return digest.hexdigest()[:16]


def code_fingerprint(*modules) -> str:
    """Stable hash of the source of ``modules`` (packages walk recursively).

    Accepts module objects or dotted names. Computed once per process per
    module set — calibration callers can afford to fingerprint the whole
    PHY chain on every lookup.
    """
    names = tuple(
        sorted(m.__name__ if isinstance(m, ModuleType) else str(m) for m in modules)
    )
    return _fingerprint_cached(names)


def content_key(namespace: str, payload: dict, fingerprint: str = "") -> str:
    """Deterministic cache key from a namespace, inputs, and code version.

    ``payload`` must be JSON-serialisable with a stable repr (sorted keys
    are enforced here); embed ``code_fingerprint(...)`` so code changes
    invalidate old entries.
    """
    body = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha256(f"{namespace}\0{fingerprint}\0{body}".encode())
    return digest.hexdigest()[:32]


class ResultCache:
    """Two-tier (memory + disk) cache of JSON-serialisable results.

    >>> cache = ResultCache(namespace="demo")
    >>> cache.get_or_compute("k", lambda: {"x": 1})
    {'x': 1}

    One JSON file per entry under ``<directory>/<namespace>/<key>.json``.
    """

    def __init__(self, directory: str | None = None, namespace: str = "default"):
        self.directory = os.path.join(directory or default_cache_dir(), namespace)
        self.namespace = namespace
        self._memory: dict = {}
        self.hits = 0
        self.misses = 0

    # -- storage ------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str):
        """The cached value, or ``None`` on a miss (or disabled cache)."""
        if not cache_enabled():
            return None
        if key in self._memory:
            self.hits += 1
            self._record("hit", key, tier="memory")
            return self._memory[key]
        try:
            with open(self._path(key)) as handle:
                value = json.load(handle)
        except (OSError, ValueError):
            # Missing, unreadable, or half-written entry: treat as a miss.
            self.misses += 1
            self._record("miss", key)
            return None
        self._memory[key] = value
        self.hits += 1
        self._record("hit", key, tier="disk")
        return value

    def _record(self, outcome: str, key: str, tier: str = "") -> None:
        """Forward one lookup outcome to the obs layer (no-ops when off)."""
        rec = active_recorder()
        if rec is not None:
            fields = {"namespace": self.namespace, "key": key}
            if tier:
                fields["tier"] = tier
            rec.emit("runtime", f"cache_{outcome}", **fields)
        log.debug("cache %s: %s/%s%s", outcome, self.namespace, key,
                  f" ({tier})" if tier else "")

    def put(self, key: str, value) -> None:
        """Store a JSON-serialisable value under ``key`` (atomic on disk)."""
        if not cache_enabled():
            return
        self._memory[key] = value
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(value, handle)
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):  # pragma: no cover - replace failed
                    os.unlink(tmp)
        except OSError:  # pragma: no cover - read-only filesystem
            pass  # memory tier still serves this process

    def get_or_compute(self, key: str, compute):
        """``get(key)``, falling back to ``compute()`` (stored on miss)."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry in this namespace (memory and disk)."""
        self._memory.clear()
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.endswith(".json") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - concurrent clear
                    pass
