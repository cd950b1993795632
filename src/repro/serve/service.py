"""The soak service: a resumable epoch loop over sharded deployments.

:func:`run_soak` is the long-running driver behind ``repro soak``. Each
iteration mints one lazy :class:`~repro.serve.workload.EpochSpec`,
composes the rolling fault plan for that epoch, runs it through
:func:`~repro.net.deployment.simulate_deployment` (worker-side reduction
when ``shards`` is set), folds the epoch's
:class:`~repro.net.aggregate.DeploymentAggregate` into the run's rolling
aggregate, and checkpoints — metrics record first, then the atomic
``state.json``, then the refreshed manifest.

Determinism contract (the one every layer below already honours): the
deterministic artifacts — ``state.json``, ``metrics.jsonl``, and the
manifest's ``config_hash`` — are pure functions of (workload, fault
profile, epochs completed). Worker count, shard count, wall time, and
whether the run was killed and resumed at any epoch boundary cannot leak
into them; the kill/resume regression tests byte-compare the files to
enforce it.

Graceful drain: SIGINT/SIGTERM set a stop flag; the epoch in flight
finishes, its checkpoint lands, and the loop exits cleanly — so an
operator's Ctrl-C (or the CI job's mid-epoch SIGTERM) always leaves a
resumable directory, never a torn one.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from dataclasses import dataclass, field

from repro.net.aggregate import DeploymentAggregate
from repro.net.deployment import simulate_deployment
from repro.obs.log import get_logger
from repro.obs.manifest import config_hash, write_manifest
from repro.obs.metrics import COUNTER_NAMES
from repro.obs.slo import SloWatchdog, write_health
from repro.obs.telemetry import (
    append_telemetry_record,
    fault_occupancy,
    make_record,
    read_telemetry_records,
    rss_mb,
    trim_telemetry_records,
)
from repro.obs.trace import active_recorder, metrics, metrics_enabled
from repro.serve.checkpoint import (
    append_epoch_record,
    load_state,
    save_state,
    state_paths,
    trim_epoch_records,
)
from repro.serve.scheduler import rolling_fault_plan, schedule_position
from repro.serve.workload import (
    SoakWorkload,
    deployment_config,
    iter_epoch_arrivals,
    iter_epochs,
)

log = get_logger(__name__)

__all__ = ["SoakConfig", "SoakSummary", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak invocation: identity knobs + runtime knobs, kept apart.

    ``workload`` and ``fault_profile`` are the run's *identity* — they
    key the checkpoint and the manifest ``config_hash``. Everything else
    is a runtime knob (budgets, parallelism, checkpoint cadence) that
    may differ between an interrupted run and its resume without
    breaking bit-identity of the deterministic artifacts.
    """

    workload: SoakWorkload = field(default_factory=SoakWorkload)
    fault_profile: str = "none"
    checkpoint_dir: str = "soak-checkpoint"
    resume: bool = False
    #: Stop once this absolute epoch count has completed (``None`` = no cap).
    epochs: int | None = None
    #: Stop once this many cumulative users (station-epochs) have been
    #: served (``None`` = no cap). Deterministic: both budget kinds stop
    #: straight and resumed runs at the same epoch.
    max_users: int | None = None
    #: Wall-clock budget for *this invocation* (``None`` = no cap). An
    #: operational limit, not an identity knob: runs cut by it stop at a
    #: timing-dependent epoch and are meant to be resumed.
    max_wall_seconds: float | None = None
    n_workers: int | None = 1
    shards: int | None = None
    #: Rewrite ``state.json`` every N epochs (metrics records append
    #: every epoch regardless; a final checkpoint always lands on exit).
    checkpoint_every: int = 1
    #: Write per-epoch ``telemetry.jsonl`` + ``health.json`` beside the
    #: checkpoint. A runtime knob, not identity: turning telemetry on or
    #: off cannot move a deterministic artifact by a byte.
    telemetry: bool = False
    #: SLO rules evaluated each epoch — :class:`~repro.obs.slo.SloSpec`
    #: instances or their compact string form (``goodput_bps<2e6``,
    #: ``trend:goodput_bps<-1e5@5!drain``). Any rule implies telemetry.
    slos: tuple = ()

    def __post_init__(self):
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.max_users is not None and self.max_users < 1:
            raise ValueError("max_users must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def identity(self) -> dict:
        """The JSON payload whose hash names this run."""
        return {
            "kind": "soak",
            "workload": dataclasses.asdict(self.workload),
            "fault_profile": self.fault_profile,
        }


@dataclass
class SoakSummary:
    """What one invocation did (not an identity artifact: may differ
    between an interrupted leg and its resume — the checkpoint files are
    where identity is stated)."""

    checkpoint_dir: str
    config_hash: str
    epochs_completed: int
    epochs_this_run: int
    cumulative_users: int
    cumulative_frames: int
    total_goodput_bps: float
    total_useful_goodput_bps: float
    jain_fairness: float
    interrupted: bool
    wall_seconds: float
    #: Final watchdog verdict — ``ok`` / ``degraded`` / ``breached``
    #: (``ok`` when no watchdog ran).
    slo_status: str = "ok"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class _DrainSignals:
    """Install SIGINT/SIGTERM stop-flag handlers; restore on exit.

    Installation is best-effort (``signal.signal`` refuses outside the
    main thread — in-process test harnesses just skip it), and the
    previous handlers are always restored, so embedding a soak in a
    larger program never hijacks its signal disposition.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self.stop = False
        self._previous = {}

    def _handle(self, signum, frame):
        self.stop = True
        log.info("signal %d: draining after the current epoch", signum)

    def __enter__(self) -> "_DrainSignals":
        for sig in self._SIGNALS:
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                pass
        return self

    def __exit__(self, *exc):
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        return False


def _count_offered(workload: SoakWorkload, spec) -> int:
    """Offered downlink frames for the epoch (lazy count, cell 0 scaled).

    Streams the representative cell's merged arrival generators without
    ever holding them; the deployment's cells draw their own independent
    workloads, so this is the *offered-load estimate* the epoch record
    carries, not a replay of what the cells consumed.
    """
    per_cell = sum(1 for _ in iter_epoch_arrivals(workload, spec))
    return per_cell * workload.n_aps


def _sample_pool_counters() -> dict:
    """Current pool/IPC counter values from the *ambient* registry.

    Real figures under ``--metrics`` (or a ``collecting()`` session, as
    the ``bench/`` workloads open); zeros otherwise. Telemetry
    deliberately does not install its own registry: a live registry puts
    the per-chunk IPC re-pickling on the hot path of every telemetry-on
    soak. The epoch's wall record carries deltas of whatever the ambient
    session measures.
    """
    if not metrics_enabled():
        return dict.fromkeys(COUNTER_NAMES, 0)
    return metrics().to_dict()["counters"]


def _observe_epoch(config: SoakConfig, watchdog: SloWatchdog,
                   *, epoch: int, spec, epoch_agg, rolling, offered: int,
                   pool_deltas: dict, epoch_wall: float, cursor: int) -> None:
    """Append the epoch's telemetry record, evaluate SLOs, write health.

    The record's ``det`` namespace repeats the deterministic figures the
    epoch record carries (plus the per-epoch demotion/re-promotion
    counters and the fault-window occupancy — all pure functions of the
    workload and epoch index); ``wall`` holds everything the machine and
    execution geometry leak into. Appended *before* ``state.json``
    advances, the same ≤1-orphan crash discipline as ``metrics.jsonl``.
    """
    workload = config.workload
    det = {
        "stas_per_ap": spec.stas_per_ap,
        "frame_bytes": spec.frame_bytes,
        "frames_per_second": spec.frames_per_second,
        "offered_frames": offered,
        "transmissions": int(epoch_agg.transmissions),
        "collisions": int(epoch_agg.collisions),
        "dropped_frames": int(epoch_agg.dropped_frames),
        "goodput_bps": epoch_agg.total_goodput_bps(),
        "useful_goodput_bps": epoch_agg.total_useful_goodput_bps(),
        "busy_airtime_s": epoch_agg.busy_airtime_s(),
        "jain_fairness": epoch_agg.jain_fairness(),
        "rolling_goodput_bps": rolling.total_goodput_bps(),
        "demotions": int(epoch_agg.demotions),
        "repromotions": int(epoch_agg.repromotions),
        "fault_occupancy": fault_occupancy(
            schedule_position(config.fault_profile, epoch,
                              workload.epoch_duration),
            workload.epoch_duration,
        ),
    }
    wall = {
        "wall_seconds": epoch_wall,
        "frames_per_wall_s": (int(epoch_agg.transmissions) / epoch_wall
                              if epoch_wall > 0 else 0.0),
        "rss_mb": rss_mb(),
        "n_workers": config.n_workers,
        "shards": config.shards,
        "pool_spawned": pool_deltas["runtime.pool_spawned"],
        "pool_reused": pool_deltas["runtime.pool_reused"],
        "ipc_result_bytes": pool_deltas["runtime.ipc_result_bytes"],
    }
    append_telemetry_record(
        config.checkpoint_dir, make_record(epoch=epoch, det=det, wall=wall))
    breaches = watchdog.observe(epoch, det)
    write_health(
        config.checkpoint_dir,
        watchdog.health_payload(epoch=epoch, det=det,
                                epochs_completed=cursor),
    )
    if breaches:
        rec = active_recorder()
        for breach in breaches:
            log.warning("SLO breach at epoch %d: %s (value %.6g, policy %s)",
                        epoch, breach.spec.describe(), breach.value,
                        breach.spec.policy)
            if rec is not None:
                rec.emit("serve", "slo_breach", **breach.to_dict())


def run_soak(config: SoakConfig) -> SoakSummary:
    """Run (or resume) a soak until a budget, a signal, or forever."""
    workload = config.workload
    identity = config.identity()
    run_hash = config_hash(identity)
    paths = state_paths(config.checkpoint_dir)
    # Any SLO rule needs the per-epoch deterministic sample, so rules
    # imply the telemetry stream they are evaluated over.
    telemetry_on = bool(config.telemetry or config.slos)
    watchdog = SloWatchdog(config.slos) if telemetry_on else None

    if config.resume:
        state = load_state(config.checkpoint_dir, identity=identity)
        cursor = int(state["next_epoch"])
        cumulative_users = int(state["cumulative_users"])
        cumulative_frames = int(state["cumulative_frames"])
        rolling = state["aggregate"]
        orphans = trim_epoch_records(config.checkpoint_dir, cursor)
        # The telemetry stream honours the same cursor: drop the ≤1
        # orphan a kill may have left, then rebuild the watchdog's
        # rolling-window history from what survived so a window rule
        # sees the same samples as an uninterrupted run.
        trim_telemetry_records(config.checkpoint_dir, cursor)
        if watchdog is not None:
            watchdog.seed_history(
                r["det"] for r in read_telemetry_records(config.checkpoint_dir)
            )
        log.info("resuming soak %s at epoch %d (%d users so far%s)",
                 run_hash, cursor, cumulative_users,
                 f", dropped {orphans} orphan record(s)" if orphans else "")
    else:
        if os.path.exists(paths["state"]):
            raise ValueError(
                f"checkpoint already exists at {paths['state']}; pass "
                "resume=True (--resume) to continue it, or use a fresh "
                "directory"
            )
        cursor = 0
        cumulative_users = 0
        cumulative_frames = 0
        rolling = DeploymentAggregate(track_stations=False)
        if telemetry_on:
            # A stale stream from an abandoned run in this directory
            # would shadow the fresh one; epoch 0 trims everything.
            trim_telemetry_records(config.checkpoint_dir, 0)
        log.info("starting soak %s in %s", run_hash, config.checkpoint_dir)

    start_wall = time.perf_counter()
    epochs_this_run = 0
    interrupted = False
    dirty = False  # epochs completed since the last state.json rewrite

    def checkpoint(next_epoch: int) -> None:
        save_state(
            config.checkpoint_dir,
            identity=identity,
            next_epoch=next_epoch,
            cumulative_users=cumulative_users,
            cumulative_frames=cumulative_frames,
            aggregate=rolling,
            schedule=schedule_position(
                config.fault_profile, next_epoch, workload.epoch_duration
            ),
        )
        write_manifest(
            paths["manifest"],
            kind="soak",
            seed=workload.seed,
            config=identity,
            wall_seconds=time.perf_counter() - start_wall,
            metrics={
                "epochs_completed": next_epoch,
                "cumulative_users": cumulative_users,
                "cumulative_frames": cumulative_frames,
            },
        )

    with _DrainSignals() as drain:
        for spec in iter_epochs(workload, start=cursor):
            if config.epochs is not None and spec.index >= config.epochs:
                break
            if (config.max_users is not None
                    and cumulative_users >= config.max_users):
                break
            if (config.max_wall_seconds is not None
                    and time.perf_counter() - start_wall
                    >= config.max_wall_seconds):
                interrupted = True
                break
            if drain.stop:
                interrupted = True
                break

            plan = rolling_fault_plan(
                config.fault_profile, spec.index, workload.epoch_duration
            )
            epoch_config = deployment_config(workload, spec,
                                             extra_faults=plan)
            # Telemetry observes the epoch from the outside — the
            # simulation call below is byte-for-byte the same with
            # telemetry on or off (its deterministic counters ride
            # the DeploymentAggregate, not the metrics registry), so
            # turning it on cannot perturb what it measures.
            pool_before = (_sample_pool_counters() if telemetry_on
                           else {})
            epoch_t0 = time.perf_counter()
            _, epoch_agg = simulate_deployment(
                epoch_config,
                n_workers=config.n_workers,
                use_cache=False,
                shards=config.shards,
                return_aggregate=True,
            )
            epoch_wall = time.perf_counter() - epoch_t0
            offered = _count_offered(workload, spec)
            rolling.merge(epoch_agg)
            cursor = spec.index + 1
            cumulative_users += workload.n_aps * spec.stas_per_ap
            cumulative_frames += int(epoch_agg.transmissions)
            epochs_this_run += 1

            append_epoch_record(config.checkpoint_dir, {
                "epoch": spec.index,
                "seed": spec.seed,
                "stas_per_ap": spec.stas_per_ap,
                "frame_bytes": spec.frame_bytes,
                "frames_per_second": spec.frames_per_second,
                "offered_frames": offered,
                "transmissions": int(epoch_agg.transmissions),
                "collisions": int(epoch_agg.collisions),
                "dropped_frames": int(epoch_agg.dropped_frames),
                "goodput_bps": epoch_agg.total_goodput_bps(),
                "useful_goodput_bps": epoch_agg.total_useful_goodput_bps(),
                "busy_airtime_s": epoch_agg.busy_airtime_s(),
                "jain_fairness": epoch_agg.jain_fairness(),
                "rolling_goodput_bps": rolling.total_goodput_bps(),
                "cumulative_users": cumulative_users,
                "cumulative_frames": cumulative_frames,
            })
            dirty = True

            if telemetry_on:
                pool_after = _sample_pool_counters()
                _observe_epoch(
                    config, watchdog,
                    epoch=spec.index, spec=spec, epoch_agg=epoch_agg,
                    rolling=rolling, offered=offered,
                    pool_deltas={k: pool_after[k] - pool_before[k]
                                 for k in pool_after},
                    epoch_wall=epoch_wall, cursor=cursor,
                )
                if watchdog.wants_drain() and not drain.stop:
                    drain.stop = True
                    log.warning(
                        "SLO drain policy tripped at epoch %d: draining "
                        "after this checkpoint", spec.index)
                if watchdog.wants_checkpoint() and dirty:
                    checkpoint(cursor)
                    dirty = False

            if dirty and epochs_this_run % config.checkpoint_every == 0:
                checkpoint(cursor)
                dirty = False
            log.info(
                "epoch %d: %d STAs/AP, %d tx, goodput %.2f Mbit/s "
                "(%d users cumulative)",
                spec.index, spec.stas_per_ap, int(epoch_agg.transmissions),
                epoch_agg.total_goodput_bps() / 1e6, cumulative_users,
            )

    # The final checkpoint always lands, whatever ended the loop — a
    # budget, a drain signal, or a caller-side wall clock.
    if dirty or epochs_this_run == 0 or interrupted:
        checkpoint(cursor)
    wall = time.perf_counter() - start_wall
    log.info("soak %s: %d epoch(s) this run, %d total, %d users, %s",
             run_hash, epochs_this_run, cursor, cumulative_users,
             "interrupted (resumable)" if interrupted else "complete")
    return SoakSummary(
        checkpoint_dir=config.checkpoint_dir,
        config_hash=run_hash,
        epochs_completed=cursor,
        epochs_this_run=epochs_this_run,
        cumulative_users=cumulative_users,
        cumulative_frames=cumulative_frames,
        total_goodput_bps=rolling.total_goodput_bps(),
        total_useful_goodput_bps=rolling.total_useful_goodput_bps(),
        jain_fairness=rolling.jain_fairness(),
        interrupted=interrupted,
        wall_seconds=wall,
        slo_status=watchdog.status() if watchdog is not None else "ok",
    )
