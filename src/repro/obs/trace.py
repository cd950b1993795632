"""Structured trace recording and the ambient observability state.

The recorder emits typed JSONL events::

    {"seq": 0, "ts": 0.000012, "layer": "mac", "event": "demote",
     "cid": "t00003-9f2c11aa", "node": "STA1", ...}

* ``seq`` — monotone per-recorder sequence number (re-stamped when worker
  events are ingested, so a merged trace has one gap-free ordering).
* ``ts`` — seconds since the recorder was created (``time.monotonic``
  based). Omitted entirely in *deterministic* mode so traces from
  identical seeded runs are byte-identical regardless of wall time or
  worker count.
* ``layer``/``event`` — dotted taxonomy (``phy.crc``, ``runtime.cache_hit``).
* ``cid`` — correlation id, set via :meth:`TraceRecorder.correlate`; trial
  ids come from :func:`trial_correlation_id`, which derives from the run
  seed and the trial's ``SeedSequence`` spawn position — never from
  ``id()`` or the clock — so parallel traces match serial ones.

This module also owns the **ambient state**: the module-global recorder
and metrics registry that instrumented code looks up. The contract for
hot paths is::

    rec = active_recorder()        # hoisted once per frame/subframe
    ...
    if rec is not None:            # one pointer test when disabled
        rec.emit("phy", "crc", ok=passed)

and for metrics, ``metrics()`` returns :data:`~repro.obs.metrics.NULL_REGISTRY`
when disabled, whose counters are shared no-ops — no conditional needed.
The registry's counters are all counted in the parent process, so it
never leaves it.

Worker processes never write the parent's trace file. ``runtime.trials``
ships a picklable spec (:func:`worker_spec`) to each chunk of a traced
run; the worker wraps execution in :func:`chunk_capture`, which installs
a fresh buffering recorder, and returns an :class:`ObsChunk` whose
events the parent folds back in span order (= trial order) via
:func:`ingest_chunk`. A pid guard in the recorder additionally drops
emissions from forked children that inherited the parent's recorder.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from ..util.rng import derive_seed
from .metrics import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "TraceRecorder",
    "ObsChunk",
    "ObsSession",
    "active_recorder",
    "set_recorder",
    "metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "collecting",
    "suspended",
    "worker_spec",
    "chunk_capture",
    "ingest_chunk",
    "trial_correlation_id",
]


class TraceRecorder:
    """Buffering JSONL event recorder.

    Parameters
    ----------
    path:
        Destination file. ``None`` buffers in memory only (worker-side
        recorders and tests read :attr:`events` directly).
    sample_every:
        Rate for high-frequency *sampled* events (per-symbol EVM, per-CRC
        snapshots): :meth:`sample` returns True for every ``sample_every``-th
        index. ``0`` (the default) disables sampling entirely, so an
        enabled-but-unsampled recorder emits no per-symbol events and the
        decode path stays bit-identical to the disabled one.
    deterministic:
        Omit wall-clock ``ts`` fields so traces of identical seeded runs
        are byte-identical across worker counts and machines.
    """

    def __init__(self, path=None, *, sample_every: int = 0,
                 deterministic: bool = False):
        self.path = os.fspath(path) if path is not None else None
        self.sample_every = int(sample_every)
        self.deterministic = bool(deterministic)
        self.events: list = []
        self._seq = 0
        self._t0 = time.monotonic()
        self._pid = os.getpid()
        self._cid: Optional[str] = None
        self._written = 0  # events already flushed to disk

    # -- emission -------------------------------------------------------------

    def emit(self, layer: str, event: str, **fields) -> None:
        """Record one event. Silently dropped in forked children that
        inherited this recorder (workers get their own, see
        :func:`chunk_capture`)."""
        if os.getpid() != self._pid:
            return
        record: dict = {"seq": self._seq}
        if not self.deterministic:
            record["ts"] = round(time.monotonic() - self._t0, 9)
        record["layer"] = layer
        record["event"] = event
        if self._cid is not None:
            record["cid"] = self._cid
        record.update(fields)
        self.events.append(record)
        self._seq += 1

    @contextlib.contextmanager
    def correlate(self, cid: str):
        """Attach ``cid`` to every event emitted inside the block."""
        previous = self._cid
        self._cid = cid
        try:
            yield self
        finally:
            self._cid = previous

    def sample(self, index: int) -> bool:
        """True when the high-frequency event at ``index`` should be kept."""
        return self.sample_every > 0 and index % self.sample_every == 0

    # -- merging & persistence ------------------------------------------------

    def ingest(self, events) -> None:
        """Fold events captured elsewhere (a worker chunk) into this
        recorder, re-stamping ``seq`` so the merged trace has a single
        gap-free ordering. Caller is responsible for span order."""
        if os.getpid() != self._pid:
            return
        for record in events:
            merged = {"seq": self._seq}
            merged.update((k, v) for k, v in record.items() if k != "seq")
            self.events.append(merged)
            self._seq += 1

    def flush(self) -> None:
        """Append any unwritten events to :attr:`path` as JSONL."""
        if self.path is None or os.getpid() != self._pid:
            return
        pending = self.events[self._written:]
        if not pending:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            for record in pending:
                fh.write(json.dumps(record, separators=(", ", ": ")))
                fh.write("\n")
        self._written = len(self.events)

    def close(self) -> None:
        self.flush()

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------------
# Ambient state: the recorder and registry instrumented code looks up.
# --------------------------------------------------------------------------

_RECORDER: Optional[TraceRecorder] = None
_REGISTRY = NULL_REGISTRY


def active_recorder() -> Optional[TraceRecorder]:
    """The installed recorder, or ``None`` when tracing is disabled.

    Hot paths hoist this once per frame and branch on ``is not None``.
    """
    return _RECORDER


def set_recorder(recorder: Optional[TraceRecorder]):
    """Install (or with ``None``, remove) the ambient recorder.
    Returns the previous one so callers can restore it."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def metrics():
    """The ambient metrics registry — :data:`NULL_REGISTRY` (all no-op
    counters) unless :func:`enable_metrics` installed a real one."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY is not NULL_REGISTRY


def enable_metrics() -> MetricsRegistry:
    """Install a fresh metrics registry and return it."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable_metrics() -> None:
    """Restore the no-op registry."""
    global _REGISTRY
    _REGISTRY = NULL_REGISTRY


@contextlib.contextmanager
def collecting():
    """Install a fresh registry for the duration of the block and yield it,
    restoring the prior ambient state on exit.

    The ``bench/`` workloads read pool counters through this without
    disturbing an outer ``--metrics`` session (the previous registry comes
    back intact).
    """
    global _REGISTRY
    prev_registry = _REGISTRY
    _REGISTRY = registry = MetricsRegistry()
    try:
        yield registry
    finally:
        _REGISTRY = prev_registry


@contextlib.contextmanager
def suspended():
    """Temporarily disable all ambient observability.

    Used around work that would double-count — e.g. the in-process probe
    trials of ``autotune_chunk_size``, whose results are discarded.
    """
    global _REGISTRY
    prev_recorder = set_recorder(None)
    prev_registry, _REGISTRY = _REGISTRY, NULL_REGISTRY
    try:
        yield
    finally:
        set_recorder(prev_recorder)
        _REGISTRY = prev_registry


# --------------------------------------------------------------------------
# Worker-side capture for runtime.trials pools.
# --------------------------------------------------------------------------


@dataclass
class ObsChunk:
    """What a traced worker chunk returns: the trial results plus the
    events captured while computing them."""

    results: list
    events: list


def worker_spec() -> Optional[dict]:
    """Picklable description of the ambient recorder for pool workers,
    or ``None`` when the run is not traced (a trace with holes where the
    workers ran is useless, so tracing always ships)."""
    if _RECORDER is None:
        return None
    return {"sample_every": _RECORDER.sample_every,
            "deterministic": _RECORDER.deterministic}


@contextlib.contextmanager
def chunk_capture(spec: Optional[dict]):
    """Run a worker chunk under a fresh, local trace recorder.

    Installs a buffering recorder per ``spec`` (always replacing whatever
    fork inheritance left behind), yields a function that wraps the
    chunk's results into an :class:`ObsChunk`, and restores the prior
    recorder afterwards. With ``spec=None`` the wrapper is the identity —
    zero overhead on the untraced path.
    """
    if spec is None:
        yield lambda results: results
        return
    recorder = TraceRecorder(None, sample_every=spec["sample_every"],
                             deterministic=spec["deterministic"])
    prev_recorder = set_recorder(recorder)
    try:
        yield lambda results: ObsChunk(results=results,
                                       events=recorder.events)
    finally:
        set_recorder(prev_recorder)


def ingest_chunk(chunk):
    """Parent-side: fold an :class:`ObsChunk`'s events into the ambient
    recorder and return the bare results. Plain (non-chunk) results pass
    through."""
    if not isinstance(chunk, ObsChunk):
        return chunk
    recorder = active_recorder()
    if recorder is not None:
        recorder.ingest(chunk.events)
    return chunk.results


def trial_correlation_id(seed, index: int) -> str:
    """Deterministic correlation id for trial ``index`` of a seeded run.

    Derived from the run seed and the trial's spawn position via
    :func:`repro.util.rng.derive_seed` — the same id whether the trial
    runs serially, in a 2-worker pool, or a 16-worker pool.
    """
    return f"t{index:05d}-{derive_seed(seed, f'trial{index}') & 0xFFFFFFFF:08x}"


# --------------------------------------------------------------------------
# Session wrapper used by the CLI and bench entry points.
# --------------------------------------------------------------------------


class ObsSession:
    """Install observability for one run, then tear it down cleanly.

    On exit the session appends a final ``obs.metrics`` event carrying the
    registry snapshot to the trace (so ``repro report`` renders the
    runtime counters from a single JSONL file), flushes the trace, writes
    a run manifest next to it, and restores the previous ambient state.
    """

    def __init__(self, *, trace_path=None, metrics_on: bool = False,
                 sample_every: int = 0, deterministic: bool = False,
                 manifest_kind: str = "run", manifest_config=None, seed=None):
        self.trace_path = os.fspath(trace_path) if trace_path is not None else None
        self.metrics_on = metrics_on or trace_path is not None
        self.sample_every = sample_every
        self.deterministic = deterministic
        self.manifest_kind = manifest_kind
        self.manifest_config = manifest_config
        self.seed = seed
        self.recorder: Optional[TraceRecorder] = None
        self.registry = None
        self.manifest_path: Optional[str] = None

    def __enter__(self) -> "ObsSession":
        if self.trace_path is not None:
            # Truncate any stale trace from a previous run at this path.
            open(self.trace_path, "w", encoding="utf-8").close()
            self.recorder = TraceRecorder(
                self.trace_path, sample_every=self.sample_every,
                deterministic=self.deterministic)
            self._prev_recorder = set_recorder(self.recorder)
        else:
            self._prev_recorder = None
        if self.metrics_on:
            self.registry = enable_metrics()
        self._t_wall = time.perf_counter()
        self._t_cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall = time.perf_counter() - self._t_wall
        cpu = time.process_time() - self._t_cpu
        snapshot = self.registry.to_dict() if self.registry is not None else {}
        if self.recorder is not None:
            if snapshot:
                self.recorder.emit("obs", "metrics", metrics=snapshot)
            self.recorder.close()
            set_recorder(self._prev_recorder)
        if self.registry is not None:
            disable_metrics()
        if self.trace_path is not None and exc_type is None:
            from .manifest import write_manifest

            self.manifest_path = self.trace_path + ".manifest.json"
            write_manifest(
                self.manifest_path,
                kind=self.manifest_kind,
                seed=self.seed,
                config=self.manifest_config,
                metrics=snapshot,
                wall_seconds=wall,
                cpu_seconds=cpu,
                trace_path=self.trace_path,
                n_events=len(self.recorder) if self.recorder is not None else 0,
            )
        return False
