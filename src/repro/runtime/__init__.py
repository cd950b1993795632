"""Shared parallel-execution runtime for Monte-Carlo experiments.

``repro.runtime.trials`` provides the seeded, chunked trial runner every
BER sweep and deployment goes through — with one persistent worker pool
per worker count, per-chunk work items built in the parent, and
probe-based chunk autotuning. ``repro.runtime.cache`` is the keyed,
process-safe result cache expensive sweep inputs (PHY calibration) go
through, and ``repro.runtime.reduction`` holds the exactly-associative
accumulators workers fold their chunks into before IPC.
"""

from repro.runtime.cache import (
    ResultCache,
    cache_enabled,
    code_fingerprint,
    content_key,
    default_cache_dir,
)
from repro.runtime.reduction import (
    ExactSum,
    MergeableHistogram,
    StreamMoments,
)
from repro.runtime.trials import (
    autotune_chunk_size,
    persistent_pool,
    resolve_workers,
    run_trials,
    shutdown_pools,
    trial_rngs,
)

__all__ = [
    "ExactSum",
    "MergeableHistogram",
    "ResultCache",
    "StreamMoments",
    "autotune_chunk_size",
    "cache_enabled",
    "code_fingerprint",
    "content_key",
    "default_cache_dir",
    "persistent_pool",
    "resolve_workers",
    "run_trials",
    "shutdown_pools",
    "trial_rngs",
]
