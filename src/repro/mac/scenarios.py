"""Ready-made evaluation scenarios (the §7.2 setups).

Each scenario assembles the topology (two APs sharing one collision
domain, N STAs per AP), the workload, and the trace-driven error model,
and runs any of the five protocols over it — so every MAC benchmark and
example drives the exact same machinery with only the protocol swapped.
Both scenarios, and every deployment cell in :mod:`repro.net` (static
ones through :meth:`CbrScenario.run`, roaming ones through
:meth:`CbrScenario.run_arrivals`), simulate through one function,
:func:`_simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mac.engine import AP_NAME, WlanSimulator
from repro.mac.error_model import DEFAULT_ERROR_MODEL
from repro.mac.parameters import DEFAULT_PARAMETERS, PhyMacParameters
from repro.mac.protocols.base import AggregationLimits
from repro.traffic.trace_models import SIGCOMM08, TraceModel
from repro.traffic.voip import BradyModel
from repro.util.rng import RngStream

# The arrival generators are imported lazily inside build_arrivals() to
# keep `import repro.traffic` → `repro.mac.frames` → `repro.mac` (this
# module) from forming an import cycle; trace_models is safe (no mac
# dependency).

__all__ = ["ScenarioResult", "VoipScenario", "CbrScenario", "EVALUATION_VOIP_MODEL"]

# The evaluation's VoIP load: 96 kbit/s peak with a high activity factor, so
# offered downlink load grows ≈ 0.086·N Mbit/s and crosses the baselines'
# saturation point inside the paper's 10–30 STA sweep.
EVALUATION_VOIP_MODEL = BradyModel(mean_on=9.0, mean_off=1.0)


@dataclass
class ScenarioResult:
    """What a benchmark reports for one (scenario, protocol) pair.

    ``measured_ap_useful_goodput_bps`` counts only frames delivered within
    the scenario's latency bound — the goodput a deadline-driven (VoIP)
    application actually experiences, and the quantity the paper's goodput
    plots respond to.
    """

    protocol: str
    num_stations: int
    measured_ap_goodput_bps: float
    measured_ap_useful_goodput_bps: float
    total_downlink_goodput_bps: float
    downlink_mean_delay: float
    downlink_p95_delay: float
    collisions: int
    transmissions: int
    retransmitted_subframes: int
    dropped_frames: int
    channel_busy_fraction: float
    #: Destination → delivered payload bytes; feeds per-station fairness
    #: accounting (e.g. deployment-wide Jain index in ``repro.net``).
    delivered_bytes_by_destination: dict = field(default_factory=dict)
    #: Fallback-protocol state transitions (0 for protocols without a
    #: demote/re-promote cycle) — deterministic simulation outputs, so
    #: they ride the result rather than the metrics registry.
    demotions: int = 0
    repromotions: int = 0


def _ap_station_names(ap_index: int, count: int) -> list:
    prefix = "" if ap_index == 0 else f"b{ap_index}_"
    return [f"{prefix}sta{i}" for i in range(count)]


def _ap_name(ap_index: int) -> str:
    return AP_NAME if ap_index == 0 else f"ap{ap_index}"


def _simulate(scenario, protocol, arrivals, stations,
              latency_bound: float) -> ScenarioResult:
    """Run ``protocol`` over ``arrivals`` under ``scenario``'s settings."""
    sim = WlanSimulator(
        protocol,
        num_stations=len(stations),
        arrivals=arrivals,
        params=scenario.params,
        error_model=scenario.error_model,
        rng=RngStream(scenario.seed).child("sim"),
        num_aps=scenario.num_aps,
        station_names=stations,
        faults=scenario.fault_plan,
        sequential_ack_recovery=scenario.sequential_ack_recovery,
    )
    summary = sim.run(scenario.duration)
    return ScenarioResult(
        protocol=protocol.name,
        num_stations=scenario.num_stations,
        measured_ap_goodput_bps=sim.metrics.goodput_of_source(AP_NAME, scenario.duration),
        measured_ap_useful_goodput_bps=sim.metrics.goodput_of_source(
            AP_NAME, scenario.duration, latency_bound=latency_bound
        ),
        total_downlink_goodput_bps=summary.downlink_goodput_bps,
        downlink_mean_delay=summary.downlink_mean_delay,
        downlink_p95_delay=summary.downlink_p95_delay,
        collisions=summary.collisions,
        transmissions=summary.transmissions,
        retransmitted_subframes=summary.retransmitted_subframes,
        dropped_frames=summary.dropped_frames,
        channel_busy_fraction=summary.channel_busy_fraction,
        delivered_bytes_by_destination=sim.metrics.delivered_bytes_by_destination(),
        demotions=int(getattr(protocol, "demotions", 0)),
        repromotions=int(getattr(protocol, "repromotions", 0)),
    )


@dataclass
class VoipScenario:
    """Fig. 15/16: VoIP downlink per STA, optional uplink + background.

    Args:
        num_stations: STAs associated with *each* AP.
        num_aps: Co-channel APs (the paper's setup has two).
        duration: Simulated seconds.
        voip_model: Brady ON/OFF parameters.
        include_uplink: Conversational uplink VoIP from every STA.
        with_background: Inject SIGCOMM'08 uplink TCP/UDP (Fig. 16).
        limits: Aggregation stop conditions.
    """

    num_stations: int
    num_aps: int = 2
    duration: float = 15.0
    seed: int = 42
    voip_model: BradyModel = field(default_factory=lambda: EVALUATION_VOIP_MODEL)
    include_uplink: bool = True
    with_background: bool = False
    background_model: TraceModel = SIGCOMM08
    limits: AggregationLimits = field(default_factory=AggregationLimits)
    params: PhyMacParameters = DEFAULT_PARAMETERS
    error_model: object = DEFAULT_ERROR_MODEL
    #: VoIP playout deadline: frames later than this are useless.
    latency_bound: float = 0.4
    #: Optional :class:`repro.faults.FaultPlan` applied to every run.
    fault_plan: object = None
    #: Timestamp-based sequential-ACK matching (see WlanSimulator).
    sequential_ack_recovery: bool = False

    def build_arrivals(self) -> tuple:
        """Returns (arrivals, all_station_names)."""
        from repro.traffic.background import background_uplink_arrivals
        from repro.traffic.flows import merge_arrivals
        from repro.traffic.voip import voip_downlink_arrivals, voip_uplink_arrivals

        rng = RngStream(self.seed)
        streams = []
        all_stations = []
        for ap_index in range(self.num_aps):
            stations = _ap_station_names(ap_index, self.num_stations)
            all_stations.extend(stations)
            ap = _ap_name(ap_index)
            streams.append(
                voip_downlink_arrivals(
                    stations, self.duration, rng.child(f"down{ap_index}"),
                    self.voip_model, ap_name=ap,
                )
            )
            if self.include_uplink:
                streams.append(
                    voip_uplink_arrivals(
                        stations, self.duration, rng.child(f"up{ap_index}"),
                        self.voip_model, ap_name=ap,
                    )
                )
            if self.with_background:
                streams.append(
                    background_uplink_arrivals(
                        stations, self.duration, rng.child(f"bg{ap_index}"),
                        self.background_model, ap_name=ap,
                    )
                )
        return merge_arrivals(*streams), all_stations

    def run(self, protocol_cls) -> ScenarioResult:
        """Run one protocol over this scenario."""
        arrivals, stations = self.build_arrivals()
        return _simulate(self, protocol_cls(self.params, self.limits),
                         arrivals, stations, self.latency_bound)


@dataclass
class CbrScenario:
    """Fig. 17: fixed-size downlink flows with a latency requirement.

    The latency requirement doubles as the aggregation deadline: the AP
    flushes its aggregate when the oldest frame has waited that long.
    """

    num_stations: int = 30
    num_aps: int = 2
    duration: float = 15.0
    seed: int = 42
    frame_bytes: int = 120
    frames_per_second: float = 100.0
    latency_requirement: float = 0.010
    with_background: bool = True
    background_model: TraceModel = SIGCOMM08
    #: Uplink load multiplier — Fig. 17 runs in the saturated busy-network
    #: regime where background traffic keeps STAs contending continuously.
    background_intensity: float = 3.0
    params: PhyMacParameters = DEFAULT_PARAMETERS
    error_model: object = DEFAULT_ERROR_MODEL
    max_frame_bytes: int = 65535
    #: Optional :class:`repro.faults.FaultPlan` applied to every run.
    fault_plan: object = None
    #: Timestamp-based sequential-ACK matching (see WlanSimulator).
    sequential_ack_recovery: bool = False

    def build_arrivals(self) -> tuple:
        """Returns (arrivals, all_station_names)."""
        from repro.traffic.background import background_uplink_arrivals
        from repro.traffic.flows import cbr_downlink_arrivals, merge_arrivals

        rng = RngStream(self.seed)
        streams = []
        all_stations = []
        for ap_index in range(self.num_aps):
            stations = _ap_station_names(ap_index, self.num_stations)
            all_stations.extend(stations)
            ap = _ap_name(ap_index)
            streams.append(
                cbr_downlink_arrivals(
                    stations, self.duration, self.frame_bytes,
                    self.frames_per_second, rng.child(f"cbr{ap_index}"), ap_name=ap,
                )
            )
            if self.with_background:
                streams.append(
                    background_uplink_arrivals(
                        stations, self.duration, rng.child(f"bg{ap_index}"),
                        self.background_model, ap_name=ap,
                        intensity=self.background_intensity,
                    )
                )
        return merge_arrivals(*streams), all_stations

    def run(self, protocol_cls) -> ScenarioResult:
        """Run one protocol over this scenario with the latency requirement as aggregation deadline."""
        return self.run_arrivals(protocol_cls, *self.build_arrivals())

    def run_arrivals(self, protocol_cls, arrivals, stations) -> ScenarioResult:
        """Run one protocol over explicit ``arrivals`` to ``stations``.

        Everything but the workload comes from this scenario: limits,
        parameters, error model, faults and the simulator seed. A roaming
        deployment cell runs its pre-routed arrivals through here.
        """
        limits = AggregationLimits(
            max_frame_bytes=self.max_frame_bytes,
            max_latency=self.latency_requirement,
        )
        return _simulate(self, protocol_cls(self.params, limits),
                         arrivals, stations, self.latency_requirement)
