"""repro.obs — observability for the PHY/MAC/runtime/net stack.

Three pieces, all zero-dependency and disabled by default:

* a process-local **metrics registry** (:mod:`repro.obs.metrics`) of
  the runtime's pool and IPC counters — the facts no result or trace
  event records — whose disabled fast path hands out a shared no-op
  counter,
* a **structured trace recorder** (:mod:`repro.obs.trace`) emitting typed
  JSONL events with deterministic correlation ids, safe across
  ``runtime.trials`` worker pools,
* **run manifests** (:mod:`repro.obs.manifest`) recording seed, git SHA,
  config hash, versions and timing next to run output,

plus the live-run layer grown for soak-scale service:

* **telemetry** (:mod:`repro.obs.telemetry`) — append-only
  per-epoch samples with deterministic fields segregated from wall-clock
  ones, written beside the soak checkpoint,
* **SLO watchdogs** (:mod:`repro.obs.slo`) — declarative threshold /
  rolling-window / trend rules over those series, driving ``health.json``
  and breach policies (log / checkpoint / drain),

and a renderer (:mod:`repro.obs.report`) behind the CLI ``report``/
``status`` subcommands plus the library-wide ``repro`` logger
(:mod:`repro.obs.log`).
"""

from .log import configure_logging, get_logger
from .manifest import RunManifest, config_hash, git_sha, write_manifest
from .slo import SloBreach, SloSpec, SloWatchdog, read_health, write_health
from .telemetry import (
    append_telemetry_record,
    deterministic_view,
    deterministic_view_bytes,
    fault_occupancy,
    make_record,
    read_telemetry_records,
    telemetry_paths,
    trim_telemetry_records,
)
from .metrics import (
    COUNTER_NAMES,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    NullInstrument,
)
from .report import format_report, load_events
from .trace import (
    ObsChunk,
    ObsSession,
    TraceRecorder,
    active_recorder,
    chunk_capture,
    collecting,
    disable_metrics,
    enable_metrics,
    ingest_chunk,
    metrics,
    metrics_enabled,
    set_recorder,
    suspended,
    trial_correlation_id,
    worker_spec,
)

__all__ = [
    "COUNTER_NAMES",
    "Counter",
    "MetricsRegistry",
    "NullInstrument",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "TraceRecorder",
    "ObsChunk",
    "ObsSession",
    "active_recorder",
    "set_recorder",
    "metrics",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "collecting",
    "suspended",
    "worker_spec",
    "chunk_capture",
    "ingest_chunk",
    "trial_correlation_id",
    "RunManifest",
    "write_manifest",
    "git_sha",
    "config_hash",
    "SloSpec",
    "SloBreach",
    "SloWatchdog",
    "write_health",
    "read_health",
    "telemetry_paths",
    "make_record",
    "append_telemetry_record",
    "read_telemetry_records",
    "trim_telemetry_records",
    "deterministic_view",
    "deterministic_view_bytes",
    "fault_occupancy",
    "get_logger",
    "configure_logging",
    "format_report",
    "load_events",
]
