"""Seeded, chunked parallel execution of Monte-Carlo trials.

Every paper figure is a Monte-Carlo sweep: hundreds of statistically
independent trials pushed through the PHY/MAC stack. This module is the
shared runtime those sweeps go through:

* **Determinism** — each trial gets its own RNG derived with
  ``np.random.SeedSequence(seed).spawn(n_trials)``, so trial *i* sees the
  same random stream no matter which worker runs it, in what order, or how
  the trials are chunked. Serial and parallel runs are bit-identical.
* **Parallelism** — trials are grouped into chunks and submitted to a
  ``ProcessPoolExecutor``; the worker count auto-detects from
  ``REPRO_WORKERS`` or ``os.cpu_count()``. ``n_workers=1`` (or a single
  trial) short-circuits to a plain loop with zero pool overhead.
* **Pool persistence** — worker pools are kept alive and reused across
  :func:`run_trials` calls, keyed by worker count and a *content
  fingerprint* of the shared payload
  (:func:`repro.runtime.cache.stable_digest`): an equal re-created
  payload maps back onto the warm pool, distinct payloads can never
  alias one. :func:`shutdown_pools` tears everything down.
* **Shared tables** — pass ``shared=...`` to ship one payload to every
  worker through the pool initializer (forked workers inherit it without
  a pickle). Trial functions read the payload back with
  :func:`shared_payload` on every path, serial included.
* **Batched chunks** — pass ``batch_fn=...`` to run a whole chunk of
  trials as *one* vectorised call instead of N scalar calls. The batch
  function receives the same per-trial ``SeedSequence`` children the
  scalar path would and must return bit-identical per-trial results;
  traced runs always take the scalar path so correlation ids attach to
  single trials.
* **Worker-side reduction** — pass ``reduce_fn=`` / ``reduce_init=`` and
  each worker folds its chunk's per-trial results into one small
  mergeable accumulator *before* IPC: only accumulators cross the pipe,
  and the parent merges them in span order. The scalar per-trial path
  stays the oracle — traced runs bypass worker reduction (the parent
  folds instead) so traces stay byte-identical — which is only sound
  when the accumulator is exactly associative; see
  :mod:`repro.runtime.reduction` for primitives that are.
* **Lazy trial specs** — pass ``trial_source=`` (a picklable
  ``(start, stop) -> sequence``) and each chunk *generates* its own
  shard of work items inside the worker instead of the parent
  materialising (and shipping) the whole list up front; the trial
  function then receives the item as ``fn(index, rng, item, *args)``.
* **IPC accounting** — when metrics are being collected, the parent
  counts the pickled size of every chunk result it receives under
  ``runtime.ipc_result_bytes``, which is how reduction is shown to shrink
  the pipe traffic.
* **Chunk autotuning** — ``chunk_size="auto"`` measures the actual
  round-trip cost of a pool submission (cached per pool) plus a short
  serial probe of the trial cost, and picks the smallest chunk that
  keeps IPC overhead to a few percent of useful work.

The trial function and its extra arguments must be picklable (a module-level
function, not a lambda or closure).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..obs.log import get_logger
from ..obs.trace import (
    active_recorder,
    chunk_capture,
    ingest_chunk,
    metrics,
    metrics_enabled,
    suspended,
    trial_correlation_id,
    worker_spec,
)
from .cache import stable_digest

log = get_logger(__name__)

__all__ = [
    "resolve_workers",
    "trial_rngs",
    "run_trials",
    "autotune_chunk_size",
    "persistent_pool",
    "shared_payload",
    "shutdown_pools",
]


def resolve_workers(n_workers: int | None = None) -> int:
    """Resolve a worker count: explicit > ``$REPRO_WORKERS`` > CPU count."""
    if n_workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def trial_rngs(seed: int, n_trials: int) -> list:
    """Independent per-trial generators via ``SeedSequence.spawn``."""
    return [np.random.default_rng(ss) for ss in _trial_seeds(seed, n_trials)]


def _trial_seeds(seed: int, n_trials: int):
    return np.random.SeedSequence(seed).spawn(n_trials)


def _mp_context():
    """Prefer fork where available: cheap start-up, no re-import races."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


def _chunk_spans(n: int, chunk_size: int) -> list:
    return [(start, min(start + chunk_size, n)) for start in range(0, n, chunk_size)]


# --------------------------------------------------------------------------- #
# Persistent pools and shared read-only payloads.
# --------------------------------------------------------------------------- #


@dataclass
class _PoolEntry:
    """One registered persistent pool and its measured IPC cost."""

    pool: ProcessPoolExecutor
    ipc_seconds: float | None = None


# Pool registry: (max_workers, payload_fingerprint | None) -> _PoolEntry.
# A worker's payload is fixed at initializer time, so the registry keys by
# *content*: an equal re-created payload (same fingerprint) reuses the warm
# pool, a different payload at the same worker count retires the old pool
# rather than leaking it (sweeps call run_trials(shared=...) with a fresh
# payload per invocation), and two distinct payloads can never alias.
_POOLS: dict = {}

# The worker-side (and serial-path) shared payload, set per worker by the
# pool initializer instead of being pickled into every chunk.
_SHARED = None


def _init_worker(shared) -> None:
    """Pool initializer: stash the shared read-only payload in the worker."""
    global _SHARED
    _SHARED = shared


def shared_payload():
    """The payload this worker was initialised with (``None`` if absent).

    Trial functions call this instead of taking big read-only tables
    through ``args`` — the payload crosses the process boundary once per
    worker (at pool start-up) rather than once per chunk.
    """
    return _SHARED


@contextmanager
def _payload_installed(shared):
    """Expose ``shared`` via :func:`shared_payload` for the duration.

    Serial runs (and the in-parent autotune probe) read the payload
    through the same accessor the workers use. The previous payload is
    restored on exit so a nested ``run_trials(shared=...)`` executing
    *inside* a worker — e.g. a calibration inside a deployment cell —
    cannot clobber the worker's own initializer payload.
    """
    global _SHARED
    if shared is None:
        yield
        return
    previous = _SHARED
    _SHARED = shared
    try:
        yield
    finally:
        _SHARED = previous


def persistent_pool(n_workers: int, shared=None) -> ProcessPoolExecutor:
    """A long-lived pool for ``n_workers``, created on first use.

    Pools are keyed by worker count and the *content fingerprint* of the
    shared payload; repeated calls — including with an equal, re-created
    payload — return the same executor, so process start-up is paid once
    per configuration instead of once per ``run_trials`` call.
    """
    global _SHARED
    fingerprint = stable_digest(shared) if shared is not None else None
    key = (n_workers, fingerprint)
    entry = _POOLS.get(key)
    if entry is not None:
        if shared is not None:
            # Equal content, possibly a different object: point the
            # parent-side accessor at the caller's copy.
            _SHARED = shared
        metrics().counter("runtime.pool_reused").inc()
        return entry.pool
    if shared is not None:
        # A *different* payload at this worker count: the old pool's
        # workers were initialised with the previous tables, so retire it
        # instead of accumulating one pool per historical payload.
        for stale in [k for k in _POOLS if k[0] == n_workers and k[1] is not None]:
            _retire_entry(stale)
    if shared is None:
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=_mp_context())
    else:
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(shared,),
        )
        # With fork, workers inherit parent globals at spawn time; setting
        # the parent-side payload too keeps shared_payload() consistent
        # everywhere (and serves the n_workers=1 serial path).
        _SHARED = shared
    _POOLS[key] = _PoolEntry(pool=pool)
    metrics().counter("runtime.pool_spawned").inc()
    log.debug("spawned persistent pool: %d workers, shared=%s",
              n_workers, shared is not None)
    return pool


def _retire_entry(key) -> None:
    """Drop one registry entry and tear its pool down."""
    entry = _POOLS.pop(key, None)
    if entry is not None:
        _abandon_pool(entry.pool)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on its workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    # shutdown() does not interrupt a hung or crashed worker; terminate
    # whatever processes are left so they cannot linger past the run.
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - defensive
            pass


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Remove a (broken) pool from the registry and tear it down."""
    for key, entry in list(_POOLS.items()):
        if entry.pool is pool:
            _retire_entry(key)
            return
    _abandon_pool(pool)


def shutdown_pools() -> None:
    """Shut down every persistent pool (registered atexit)."""
    global _SHARED
    for key in list(_POOLS):
        _retire_entry(key)
    _POOLS.clear()
    _SHARED = None


atexit.register(shutdown_pools)


# --------------------------------------------------------------------------- #
# Chunk sizing.
# --------------------------------------------------------------------------- #

# Fallback per-submission IPC cost when no live pool is available to
# measure: a conservative figure for a local fork-start executor.
_DEFAULT_IPC_SECONDS = 2e-3


def _noop_chunk():
    return None


def _pool_ipc_seconds(pool, entry=None, repeats: int = 3) -> float:
    """Measured round-trip cost of one no-op pool submission.

    Cached on the registry entry — the cost is a property of the pool and
    the host, not of the workload, so one measurement serves every
    subsequent ``chunk_size="auto"`` call on that pool.
    """
    if entry is not None and entry.ipc_seconds is not None:
        return entry.ipc_seconds
    with suspended():
        pool.submit(_noop_chunk).result()  # absorb worker start-up
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            pool.submit(_noop_chunk).result()
            best = min(best, time.perf_counter() - t0)
    if entry is not None:
        entry.ipc_seconds = best
    return best


def autotune_chunk_size(
    fn,
    n_trials: int,
    *,
    seed: int,
    n_workers: int,
    args: tuple = (),
    ipc_seconds: float | None = None,
    target_overhead: float = 0.02,
    max_probe_trials: int = 3,
    max_probe_seconds: float = 0.25,
    trial_source=None,
) -> int:
    """Pick trials-per-chunk so measured IPC cost is amortised.

    Runs up to ``max_probe_trials`` leading trials in-process (their
    results are discarded; the chunks re-run them with identical RNGs, so
    determinism is unaffected) to estimate per-trial cost, then sizes
    chunks so the per-chunk submission cost ``ipc_seconds`` — measured on
    the live pool when the caller has one, a conservative default
    otherwise — stays below ``target_overhead`` of the chunk's useful
    work. The result is clamped so every worker still gets at least one
    chunk.
    """
    if n_trials <= 1 or n_workers <= 1:
        return max(1, n_trials)
    children = _trial_seeds(seed, n_trials)
    probe_n = min(max_probe_trials, n_trials)
    items = None if trial_source is None else list(trial_source(0, probe_n))
    start = time.perf_counter()
    probed = 0
    # Probe results are discarded and the chunks re-run the same trials,
    # so any obs events they would emit are duplicates: suspend capture.
    with suspended():
        for index in range(probe_n):
            rng = np.random.default_rng(children[index])
            if items is not None:
                fn(index, rng, items[index], *args)
            else:
                fn(index, rng, *args)
            probed += 1
            if time.perf_counter() - start >= max_probe_seconds:
                break
    per_trial = (time.perf_counter() - start) / probed
    upper = max(1, -(-n_trials // n_workers))  # ceil: >= one chunk per worker
    if per_trial <= 0:
        return upper
    ipc = _DEFAULT_IPC_SECONDS if ipc_seconds is None else max(ipc_seconds, 1e-6)
    min_work_seconds = ipc * (1.0 - target_overhead) / target_overhead
    size = max(1, int(-(-min_work_seconds // per_trial)))
    return int(min(size, upper))


def _measured_ipc(n_workers: int, shared) -> float | None:
    """IPC cost of the persistent pool serving ``(n_workers, shared)``."""
    fingerprint = stable_digest(shared) if shared is not None else None
    pool = persistent_pool(n_workers, shared=shared)
    try:
        return _pool_ipc_seconds(pool, _POOLS.get((n_workers, fingerprint)))
    except BrokenProcessPool:
        _discard_pool(pool)
        return None


# --------------------------------------------------------------------------- #
# Chunk execution.
# --------------------------------------------------------------------------- #


class _Reduced:
    """Marks a chunk result as an accumulator rather than per-trial list."""

    __slots__ = ("acc",)

    def __init__(self, acc):
        self.acc = acc

    def __reduce__(self):
        return (_Reduced, (self.acc,))


def _chunk_items(trial_source, start, stop):
    """Materialise one chunk's work items from a lazy trial source."""
    items = list(trial_source(start, stop))
    if len(items) != stop - start:
        raise RuntimeError(
            f"trial_source({start}, {stop}) returned {len(items)} items "
            f"for {stop - start} trials"
        )
    return items


def _run_trial_chunk(fn, seed, n_trials, start, stop, args, obs_spec=None,
                     batch_fn=None, trial_source=None, reduce_fn=None,
                     reduce_init=None):
    """Run trials ``start..stop`` of ``n_trials`` (executes inside a worker).

    The full spawn is recomputed here so a chunk's RNGs are identical to
    the ones a serial run hands the same trial indices — ``spawn`` is cheap
    (micro-seconds per child), so this costs nothing measurable.

    ``obs_spec`` (only passed on pool submissions, and only when the
    parent has observability on) makes the worker capture its own events
    and metrics under a fresh local capture state and return an
    ``ObsChunk`` for the parent to fold back in span order. With it
    ``None`` — every uninstrumented run — the plain results list comes
    back untouched. Serial in-process calls leave it ``None`` too: there
    the parent's own ambient recorder is already active.

    ``batch_fn`` routes the whole chunk through one vectorised call. A
    *traced* chunk always takes the scalar loop instead: correlation ids
    wrap exactly one trial's events, which a batched call cannot honour —
    and since ``batch_fn`` is bit-identical by contract, tracing only
    changes wall time, never results.

    ``trial_source`` generates this chunk's work items in-process; the
    trial function then runs as ``fn(index, rng, item, *args)``.

    ``reduce_fn`` / ``reduce_init`` fold the chunk's results into one
    accumulator, returned wrapped in :class:`_Reduced` so the parent can
    tell it from a per-trial list. A *traced* chunk skips the fold and
    returns per-trial results — the parent folds them instead, which is
    result-identical exactly because the accumulators are associative —
    so the trace carries the same per-trial events at any worker count.
    """
    children = _trial_seeds(seed, n_trials)[start:stop]
    items = (None if trial_source is None
             else _chunk_items(trial_source, start, stop))

    def one(index, ss):
        rng = np.random.default_rng(ss)
        if items is not None:
            return fn(index, rng, items[index - start], *args)
        return fn(index, rng, *args)

    def payload():
        rec = active_recorder()
        if rec is None:
            if batch_fn is not None:
                rngs = [np.random.default_rng(ss) for ss in children]
                if items is not None:
                    results = list(batch_fn(start, rngs, items, *args))
                else:
                    results = list(batch_fn(start, rngs, *args))
                if len(results) != stop - start:
                    raise RuntimeError(
                        f"batch_fn returned {len(results)} results for "
                        f"{stop - start} trials"
                    )
                if reduce_fn is not None:
                    acc = reduce_init()
                    for index, result in zip(range(start, stop), results):
                        acc = reduce_fn(acc, index, result)
                    return _Reduced(acc)
                return results
            if reduce_fn is not None:
                acc = reduce_init()
                for index, ss in zip(range(start, stop), children):
                    acc = reduce_fn(acc, index, one(index, ss))
                return _Reduced(acc)
            return [one(index, ss)
                    for index, ss in zip(range(start, stop), children)]
        results = []
        for index, ss in zip(range(start, stop), children):
            # Correlation ids derive from the run seed and the trial's
            # SeedSequence spawn position, never id()/clock, so serial
            # and parallel traces carry identical ids.
            with rec.correlate(trial_correlation_id(seed, index)):
                results.append(one(index, ss))
        return results

    with chunk_capture(obs_spec) as wrap:
        return wrap(payload())


def _count_ipc_result(raw) -> None:
    """Charge one received chunk result to ``runtime.ipc_result_bytes``.

    Only measured while metrics are being collected: re-pickling the
    result is pure overhead otherwise, and the counter exists for
    observability reports, not for steady-state runs. The
    pickled size of what crossed the pipe is re-measured parent-side —
    equivalent to what the executor shipped, without reaching into it.
    """
    if metrics_enabled():
        try:
            size = len(pickle.dumps(raw, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # pragma: no cover - unpicklable results cannot
            return  # have crossed a pipe in the first place
        metrics().counter("runtime.ipc_result_bytes").inc(size)


def _fold_chunk(acc, chunk, span, reduce_fn, reduce_init):
    """Fold one ingested chunk result into the running accumulator.

    ``chunk`` is either a :class:`_Reduced` accumulator (worker already
    folded) or a per-trial list (traced runs bypass worker reduction);
    either way the outcome is identical for associative accumulators.
    """
    if isinstance(chunk, _Reduced):
        if acc is None:
            return chunk.acc
        merged = acc.merge(chunk.acc)
        return acc if merged is None else merged
    if acc is None:
        acc = reduce_init()
    start, _stop = span
    for offset, result in enumerate(chunk):
        acc = reduce_fn(acc, start + offset, result)
    return acc


def _consume_futures(futures, spans, reduce_fn, reduce_init):
    """Consume chunk futures in span order; list out, or merged accumulator.

    Span order matters twice: worker-captured obs events fold back into
    the parent trace in trial order, and — although associative
    accumulators make any merge order *result*-identical — a fixed order
    keeps the engine deterministic by construction rather than by proof.
    """
    if reduce_fn is None:
        results: list = []
        for future in futures:
            raw = future.result()
            _count_ipc_result(raw)
            results.extend(ingest_chunk(raw))
        return results
    acc = None
    for span, future in zip(spans, futures):
        raw = future.result()
        _count_ipc_result(raw)
        acc = _fold_chunk(acc, ingest_chunk(raw), span, reduce_fn,
                          reduce_init)
    return acc


def run_trials(
    fn,
    n_trials: int,
    *,
    seed: int,
    n_workers: int | None = None,
    chunk_size: int | str | None = None,
    args: tuple = (),
    shared=None,
    batch_fn=None,
    reduce_fn=None,
    reduce_init=None,
    trial_source=None,
) -> list:
    """Run ``fn(trial_index, rng, *args)`` for every trial; ordered results.

    Args:
        fn: Picklable callable ``(trial_index, rng, *args) -> result``.
        n_trials: Number of independent trials.
        seed: Root seed; trial *i* always receives the *i*-th spawned RNG.
        n_workers: Process count; ``None`` auto-detects (``REPRO_WORKERS``
            or CPU count), ``1`` runs serially in-process.
        chunk_size: Trials per task; defaults to ~4 chunks per worker to
            balance scheduling slack against submission overhead. Pass
            ``"auto"`` to size chunks from the measured per-submission IPC
            cost of the live pool plus a quick serial timing probe
            (:func:`autotune_chunk_size`).
        args: Extra (picklable) positional arguments passed to every trial.
        shared: Optional read-only payload shipped to each worker once,
            through the pool initializer. Trial functions retrieve it with
            :func:`shared_payload`. Serial runs see it too.
        batch_fn: Optional vectorised executor
            ``(start_index, rngs, *args) -> sequence of per-trial
            results``. Untraced chunks call it once per chunk with the
            same spawned per-trial RNGs the scalar path would use; it must
            return results bit-identical to ``fn`` trial by trial (traced
            runs always use ``fn``, so any divergence shows up as a trace
            vs. plain mismatch).
        reduce_fn: Optional fold ``(acc, trial_index, result) -> acc``.
            Untraced workers fold their own chunk before IPC and ship one
            accumulator; the parent merges chunk accumulators in span
            order with ``acc_a.merge(acc_b)`` and :func:`run_trials`
            returns the merged accumulator instead of a results list. Traced runs ship per-trial results
            as usual and the parent folds — identical by construction
            when the accumulator is *exactly associative*
            (:mod:`repro.runtime.reduction`).
        reduce_init: Picklable zero-argument factory for a fresh
            accumulator (required with ``reduce_fn``).
        trial_source: Optional picklable ``(start, stop) -> sequence`` of
            per-trial work items, generated *inside* the worker per chunk
            instead of materialised and shipped whole by the parent. With
            it, the trial function runs as ``fn(index, rng, item, *args)``
            (and ``batch_fn`` as ``batch_fn(start, rngs, items, *args)``).

    Returns:
        ``[fn(0, rng0, *args), ..., fn(n_trials-1, ...)]`` — identical for
        every worker count. With ``reduce_fn`` the merged accumulator.
    """
    with metrics().timer("runtime.run_trials").time():
        if n_trials < 0:
            raise ValueError(f"n_trials must be >= 0, got {n_trials}")
        reducing = reduce_fn is not None
        if reducing and reduce_init is None:
            raise ValueError(
                "reduce_fn requires reduce_init (accumulator factory)")
        if reduce_init is not None and not reducing:
            raise ValueError("reduce_init without reduce_fn does nothing")
        if n_trials == 0:
            return reduce_init() if reducing else []
        n_workers = resolve_workers(n_workers)

        with _payload_installed(shared):
            if chunk_size == "auto":
                ipc = None
                if n_workers > 1 and n_trials > 1:
                    ipc = _measured_ipc(n_workers, shared)
                chunk_size = autotune_chunk_size(
                    fn, n_trials, seed=seed, n_workers=n_workers, args=args,
                    ipc_seconds=ipc, trial_source=trial_source,
                )
            elif chunk_size is not None:
                chunk_size = max(1, int(chunk_size))

            if chunk_size is None:
                chunk_size = max(1, -(-n_trials // (4 * n_workers)))

            if n_workers == 1 or n_trials == 1:
                if reducing:
                    # Chunk-at-a-time even in-process: with a lazy
                    # trial_source only one chunk's items are ever alive,
                    # which is the constant-memory contract sharded callers
                    # rely on.
                    acc = None
                    for span in _chunk_spans(n_trials, chunk_size):
                        chunk = _run_trial_chunk(
                            fn, seed, n_trials, span[0], span[1], args, None,
                            batch_fn, trial_source, reduce_fn, reduce_init,
                        )
                        acc = _fold_chunk(acc, chunk, span, reduce_fn,
                                          reduce_init)
                    return acc
                return _run_trial_chunk(fn, seed, n_trials, 0, n_trials,
                                        args, None, batch_fn, trial_source)
            spans = _chunk_spans(n_trials, chunk_size)
            spec = worker_spec()
            pool = persistent_pool(min(n_workers, len(spans)), shared=shared)
            try:
                futures = [
                    pool.submit(_run_trial_chunk, fn, seed, n_trials,
                                start, stop, args, spec, batch_fn,
                                trial_source, reduce_fn, reduce_init)
                    for start, stop in spans
                ]
                return _consume_futures(futures, spans, reduce_fn,
                                        reduce_init)
            except BrokenProcessPool:
                # A dead worker poisons the pool for every later call:
                # evict it so the next run starts fresh, then re-raise.
                _discard_pool(pool)
                raise
