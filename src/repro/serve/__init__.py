"""repro.serve — million-user soak mode: a resumable trace-replay service.

Turns the batch deployment engine into a long-running service: lazy
epoch workloads (:mod:`repro.serve.workload`), rolling fault schedules
(:mod:`repro.serve.scheduler`), the checkpointing epoch loop
(:mod:`repro.serve.service`), and atomic resume state
(:mod:`repro.serve.checkpoint`). Driven by ``repro soak`` on the CLI and
measured by the ``soak`` workload of ``bench/run.py``.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_SCHEMA,
    append_epoch_record,
    load_state,
    read_epoch_records,
    save_state,
    state_paths,
    trim_epoch_records,
)
from repro.serve.scheduler import (
    FAULT_PROFILES,
    rolling_fault_plan,
    schedule_position,
)
from repro.serve.service import SoakConfig, SoakSummary, run_soak
from repro.serve.workload import (
    TRAFFIC_MODES,
    EpochSpec,
    SoakWorkload,
    deployment_config,
    epoch_seed,
    epoch_spec,
    iter_epoch_arrivals,
    iter_epochs,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "FAULT_PROFILES",
    "TRAFFIC_MODES",
    "EpochSpec",
    "SoakConfig",
    "SoakSummary",
    "SoakWorkload",
    "append_epoch_record",
    "deployment_config",
    "epoch_seed",
    "epoch_spec",
    "iter_epoch_arrivals",
    "iter_epochs",
    "load_state",
    "read_epoch_records",
    "rolling_fault_plan",
    "run_soak",
    "save_state",
    "schedule_position",
    "state_paths",
    "trim_epoch_records",
]
