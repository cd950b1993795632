"""Lazy epoch workload streams for the soak service.

A soak run is an unbounded sequence of *epochs*: short, fixed-duration
deployment simulations whose station population churns epoch to epoch
(:func:`repro.traffic.trace_models.active_sta_timeseries`) and whose
traffic shape comes from one of the :mod:`repro.traffic` models
(CBR / VoIP-like / trace-mixed). Millions of cumulative users means
millions of *station-epochs* folded through the rolling aggregate — the
streamer must therefore keep nothing that grows with the run:

* **No whole-run state.** Every epoch is minted independently by
  :func:`epoch_spec` from the root seed — random access by index, so a
  resumed run jumps straight to its cursor without replaying anything.
* **One root ``SeedSequence``.** Epoch ``e`` draws its seed from
  ``np.random.SeedSequence(root, spawn_key=(e,))``; epochs are
  statistically independent and no seed depends on how many epochs came
  before.
* **Cell workloads stay in the workers.** Cells generate their arrivals
  inside pool workers; the parent only counts one cell's epoch of
  arrivals (:func:`iter_epoch_arrivals`) to report offered load, and
  that list lives for one epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.deployment import DeploymentConfig
from repro.traffic.flows import cbr_downlink_arrivals
from repro.traffic.trace_models import TRACE_MODELS, active_sta_timeseries, sample_frame_sizes
from repro.util.rng import RngStream

__all__ = [
    "TRAFFIC_MODES",
    "SoakWorkload",
    "EpochSpec",
    "epoch_seed",
    "epoch_spec",
    "iter_epochs",
    "iter_epoch_arrivals",
    "deployment_config",
]

#: Supported traffic shapes and the (frame_bytes, frames_per_second,
#: latency_requirement) they pin when not trace-driven.  ``cbr`` is the
#: paper's Fig. 17 workload; ``voip`` approximates 20 ms-packetised
#: G.711 (160 B payload at 50 pps) driven through the CBR engine;
#: ``trace-mixed`` draws each epoch's frame size from a public-WLAN
#: trace CDF at the trace's TCP packet rate.
TRAFFIC_MODES = ("cbr", "voip", "trace-mixed")


@dataclass(frozen=True)
class SoakWorkload:
    """Everything that defines a soak run's workload (and its identity).

    The frozen payload of this dataclass *is* the run's configuration
    hash: two runs with equal workloads and equal epoch counts are the
    same run, bit for bit, which is what kill/resume identity is stated
    against.
    """

    seed: int = 42
    n_aps: int = 9
    max_stas_per_ap: int = 16
    target_active_stas: float = 6.0
    epoch_duration: float = 2.0
    traffic: str = "cbr"
    trace_model: str = "SIGCOMM'08"
    protocol: str = "Carpool"
    channels: int = 1
    coupling: bool = True
    with_background: bool = False

    def __post_init__(self):
        if self.n_aps < 1:
            raise ValueError("need at least one AP")
        if self.max_stas_per_ap < 1:
            raise ValueError("max_stas_per_ap must be >= 1")
        if not 0 < self.target_active_stas < self.max_stas_per_ap:
            raise ValueError(
                "target_active_stas must be in (0, max_stas_per_ap)"
            )
        if self.epoch_duration <= 0:
            raise ValueError("epoch_duration must be positive")
        if self.traffic not in TRAFFIC_MODES:
            raise ValueError(
                f"unknown traffic mode {self.traffic!r}; known: {TRAFFIC_MODES}"
            )
        if self.traffic == "trace-mixed" and self.trace_model not in TRACE_MODELS:
            raise ValueError(
                f"unknown trace model {self.trace_model!r}; "
                f"known: {sorted(TRACE_MODELS)}"
            )


@dataclass(frozen=True)
class EpochSpec:
    """One epoch, fully determined: a pure function of (workload, index)."""

    index: int
    seed: int
    stas_per_ap: int
    frame_bytes: int
    frames_per_second: float
    duration: float

    @property
    def users(self) -> int:
        """Station-epochs this epoch contributes to the cumulative count."""
        return self.stas_per_ap  # per AP; the service scales by n_aps


def epoch_seed(root_seed: int, epoch_index: int) -> int:
    """Epoch ``epoch_index``'s seed from the run's root ``SeedSequence``.

    ``spawn_key`` addressing gives random access: epoch *e*'s seed never
    depends on any other epoch having been generated, which is what lets
    a resumed run fast-forward to its cursor in O(1).
    """
    if epoch_index < 0:
        raise ValueError("epoch_index must be >= 0")
    sequence = np.random.SeedSequence(root_seed, spawn_key=(epoch_index,))
    return int(sequence.generate_state(1, np.uint32)[0])


def _epoch_population(workload: SoakWorkload, rng: RngStream) -> int:
    """This epoch's active STAs per AP from the churn model.

    The two-state Markov :func:`active_sta_timeseries` runs across the
    epoch's seconds; the epoch simulates its rounded mean occupancy
    (at least one station — an all-idle draw still anchors the epoch).
    """
    seconds = max(1, math.ceil(workload.epoch_duration))
    series = active_sta_timeseries(
        seconds, rng,
        num_stations=workload.max_stas_per_ap,
        target_mean_active=workload.target_active_stas,
    )
    mean = float(series.mean())
    return min(workload.max_stas_per_ap, max(1, int(round(mean))))


def _epoch_traffic(workload: SoakWorkload, rng: RngStream) -> tuple:
    """(frame_bytes, frames_per_second) for one epoch."""
    if workload.traffic == "cbr":
        return 120, 100.0
    if workload.traffic == "voip":
        return 160, 50.0
    model = TRACE_MODELS[workload.trace_model]
    size = int(sample_frame_sizes(model, 1, rng.child("frame-size"))[0])
    rate = 1.0 / model.tcp_interarrival
    return max(40, size), rate


def epoch_spec(workload: SoakWorkload, epoch_index: int) -> EpochSpec:
    """Mint epoch ``epoch_index`` — deterministic, random-access."""
    seed = epoch_seed(workload.seed, epoch_index)
    rng = RngStream(seed)
    stas = _epoch_population(workload, rng.child("churn"))
    frame_bytes, fps = _epoch_traffic(workload, rng.child("traffic"))
    return EpochSpec(
        index=epoch_index,
        seed=seed,
        stas_per_ap=stas,
        frame_bytes=frame_bytes,
        frames_per_second=fps,
        duration=workload.epoch_duration,
    )


def iter_epochs(workload: SoakWorkload, start: int = 0):
    """Lazily stream epoch specs from ``start`` — the soak's work queue.

    An unbounded generator: the service decides when to stop (epoch
    budget, user budget, wall-clock budget, or a signal). Nothing about
    the stream is cumulative, so generating epoch *n* costs the same
    whether or not epochs ``0..n-1`` were ever produced.
    """
    index = start
    while True:
        yield epoch_spec(workload, index)
        index += 1


def iter_epoch_arrivals(workload: SoakWorkload, spec: EpochSpec,
                        cell_index: int = 0):
    """Iterate over one cell's downlink arrivals for an epoch.

    The cell's CBR arrivals from
    :func:`repro.traffic.flows.cbr_downlink_arrivals`, time-sorted with
    equal timestamps in station order. The service counts this stream
    each epoch to report offered load; the cells themselves regenerate
    their workloads independently inside pool workers.
    """
    rng = RngStream(spec.seed).child(f"preview-cell{cell_index}")
    stations = [f"sta{i}" for i in range(spec.stas_per_ap)]
    return iter(cbr_downlink_arrivals(stations, spec.duration,
                                      spec.frame_bytes,
                                      spec.frames_per_second, rng))


def deployment_config(workload: SoakWorkload, spec: EpochSpec,
                      extra_faults=None) -> DeploymentConfig:
    """The :class:`~repro.net.deployment.DeploymentConfig` one epoch runs.

    The epoch's seed becomes the deployment seed, so topology, shadowing,
    association, and every cell's draws are independent across epochs by
    the seed-tree construction.
    """
    return DeploymentConfig(
        n_aps=workload.n_aps,
        stas_per_ap=spec.stas_per_ap,
        duration=spec.duration,
        seed=spec.seed,
        protocol=workload.protocol,
        channels=workload.channels,
        frame_bytes=spec.frame_bytes,
        frames_per_second=spec.frames_per_second,
        with_background=workload.with_background,
        coupling=workload.coupling,
        extra_faults=extra_faults,
    )
