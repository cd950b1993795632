"""Deployment-scale simulation: many cells, one runtime, one answer.

:func:`simulate_deployment` is the entry point the deployment sweeps and
the ``repro net`` CLI drive. It composes the rest of the package:

1. :func:`~repro.net.topology.build_topology` places APs and STAs and
   fixes every link budget.
2. :func:`~repro.net.roaming.build_association_timeline` associates every
   station (byte-exact §4.3 handshake) and, with mobility, roams it.
3. :func:`~repro.net.interference.coupling_fault_plans` turns co-channel
   overlap into per-cell fault plans.
4. Each cell becomes one :class:`CellSpec` — a picklable, self-seeded
   unit of work — and the cells fan out over the persistent
   :mod:`repro.runtime` pool in one
   :func:`~repro.runtime.trials.run_trials` call. The parent builds the
   plan above once per call and mints each chunk's specs from it as it
   submits the chunk (``trial_source=``); the specs travel with the chunk.
5. Each chunk folds its cells into a mergeable
   :class:`~repro.net.aggregate.DeploymentAggregate` where it runs
   (``reduce_fn=``), the parent merges the chunk accumulators in span
   order, and the result is finalised into a :class:`DeploymentResult`
   (total and useful goodput, busy airtime, deployment-wide Jain
   fairness, roam statistics, per-cell moments and histograms), which is
   stored in the :class:`~repro.runtime.cache.ResultCache` keyed by the
   config content and a fingerprint of the producing code.

Unsharded runs use a *collecting* aggregate that also carries each
cell's wire dict, which gives the per-cell breakdown (``result.cells``).
**Sharded mode** (``shards=k``) is the constant-memory variant for large
deployments: chunks of ~``n_aps / k`` cells, and an aggregate that drops
the cells, so only small accumulators cross the pipe and
``result.cells`` is empty. Because the aggregate is exactly associative,
every deployment-level number is bit-identical between the two modes.

Determinism: a cell's result is a pure function of its spec, and every
spec derives its seed from the deployment seed and the AP index — so the
same config gives bit-identical results for any worker count, chunking,
or shard count. Every cell is executed *through*
:class:`repro.mac.scenarios.CbrScenario` with a derived seed
(:func:`cell_seed`): a static (no-mobility) cell builds its workload with
:meth:`~repro.mac.scenarios.CbrScenario.run`, which makes the degenerate
one-AP, coupling-off deployment reproduce the existing single-cell
machinery bit for bit; a roaming cell replays its pre-routed arrivals
with :meth:`~repro.mac.scenarios.CbrScenario.run_arrivals`, under the
same limits, parameters, error model and simulator seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.mac.engine import AP_NAME
from repro.mac.protocols import PROTOCOLS
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.mac.scenarios import CbrScenario
from repro.faults.plan import FaultPlan
from repro.net.aggregate import aggregate_factory, reduce_cell
from repro.net.interference import (
    background_duty,
    coupling_fault_plans,
    estimated_duty,
)
from repro.net.roaming import RandomWaypointMobility, build_association_timeline
from repro.net.topology import Arena, build_topology
from repro.obs.log import get_logger
from repro.obs.trace import active_recorder
from repro.runtime.cache import ResultCache, code_fingerprint, content_key
from repro.runtime.trials import run_trials
from repro.traffic.background import background_uplink_arrivals
from repro.traffic.flows import cbr_downlink_arrivals, merge_arrivals
from repro.util.rng import RngStream, derive_seed

log = get_logger(__name__)

__all__ = [
    "DeploymentConfig",
    "CellSpec",
    "CellResult",
    "DeploymentResult",
    "cell_seed",
    "simulate_deployment",
]


def cell_seed(root_seed: int, ap_index: int) -> int:
    """The seed cell ``ap_index`` of a deployment simulates under.

    Public because the parity tests (and anyone validating the layering)
    use it to rebuild a cell's reference single-cell scenario directly.
    """
    return derive_seed(root_seed, f"net-cell{ap_index}")


@dataclass(frozen=True)
class DeploymentConfig:
    """Everything that defines one deployment run (and its cache key)."""

    n_aps: int = 4
    stas_per_ap: int = 4
    duration: float = 5.0
    seed: int = 42
    protocol: str = "Carpool"
    # Geometry ---------------------------------------------------------------
    arena_width_m: float = 50.0
    arena_height_m: float = 50.0
    ap_placement: str = "grid"
    sta_placement: str = "uniform"
    channels: int = 3
    shadowing_sigma_db: float = 6.0
    # Workload (CbrScenario conventions) -------------------------------------
    frame_bytes: int = 120
    frames_per_second: float = 100.0
    latency_requirement: float = 0.010
    with_background: bool = True
    background_intensity: float = 3.0
    # Association / roaming --------------------------------------------------
    mobility: bool = False
    hysteresis_db: float = 5.0
    handoff_delay: float = 0.05
    legacy_fraction: float = 0.0
    # Inter-cell coupling ----------------------------------------------------
    coupling: bool = True
    hit_probability: float = 0.35
    #: Deployment-wide :class:`~repro.faults.plan.FaultPlan` applied to
    #: every cell on top of the coupling-derived plan (the soak
    #: scheduler's rolling impairment episodes enter here). ``None`` = no
    #: extra faults; part of the frozen config, so it keys the cache.
    extra_faults: object = None

    def __post_init__(self):
        if self.n_aps < 1:
            raise ValueError("need at least one AP")
        if self.stas_per_ap < 0:
            raise ValueError("stas_per_ap must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; known: {sorted(PROTOCOLS)}"
            )
        if not 0.0 <= self.legacy_fraction <= 1.0:
            raise ValueError("legacy_fraction must be in [0, 1]")

    @property
    def n_stas(self) -> int:
        """Total stations in the deployment."""
        return self.n_aps * self.stas_per_ap

    @property
    def arena(self) -> Arena:
        """The deployment arena."""
        return Arena(self.arena_width_m, self.arena_height_m)

    def to_payload(self) -> dict:
        """JSON-stable dict of every input (the cache-key payload)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CellSpec:
    """One cell as a self-contained, picklable unit of work.

    The worker runs every cell through one
    :class:`~repro.mac.scenarios.CbrScenario`. ``static=True`` cells carry
    only a seed: the scenario rebuilds the whole workload, which is what
    makes static deployments provably the existing single-cell machinery.
    Roaming cells carry their explicit, pre-routed arrival list (global
    station names) instead, which the scenario replays.
    """

    ap_index: int
    protocol: str
    seed: int
    duration: float
    frame_bytes: int
    frames_per_second: float
    latency_requirement: float
    with_background: bool
    background_intensity: float
    n_stations: int
    static: bool = True
    arrivals: tuple = ()
    #: ((cell_name, global_name), ...) in station order; its keys are the
    #: cell's stations. Static cells use CbrScenario's local names
    #: ``sta0..n-1``; roaming cells pair each global name with itself.
    name_map: tuple = ()
    #: Mixed networks: names (cell-local in static mode, global otherwise)
    #: of the members that negotiated Carpool; ``None`` = pure protocol.
    carpool_stations: tuple | None = None
    fault_plan: object = None


@dataclass
class CellResult:
    """What one cell reports back to the deployment aggregator."""

    ap_index: int
    protocol: str
    n_stations: int
    goodput_bps: float
    useful_goodput_bps: float
    mean_delay_s: float
    p95_delay_s: float
    collisions: int
    transmissions: int
    retransmitted_subframes: int
    dropped_frames: int
    channel_busy_fraction: float
    busy_airtime_s: float
    #: Global station name → delivered payload bytes.
    delivered_bytes_by_sta: dict = field(default_factory=dict)
    coupled: bool = False
    #: Fallback demote/re-promote transitions (0 for protocols without
    #: the cycle). Defaults keep pre-telemetry cached payloads loadable.
    demotions: int = 0
    repromotions: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (cache / cross-process transport)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class DeploymentResult:
    """Deployment-level aggregates plus the per-cell breakdown.

    Every deployment-level number is finalised from the exactly-
    associative :class:`~repro.net.aggregate.DeploymentAggregate`, so it
    is identical whether the run was sharded or not. ``cells`` holds the
    per-cell breakdown in unsharded runs and is empty for sharded
    runs (the constant-memory trade: shard mode never materialises
    per-cell results anywhere).
    """

    config: dict
    cells: list
    total_goodput_bps: float
    total_useful_goodput_bps: float
    busy_airtime_s: float
    jain_fairness: float
    n_roams: int
    interruption_time_s: float
    n_coupled_cells: int
    # Streaming-aggregate fields (defaults keep pre-streaming cached
    # payloads loadable).
    n_cells: int = 0
    mean_cell_goodput_bps: float = 0.0
    cell_goodput_stddev_bps: float = 0.0
    mean_cell_busy_fraction: float = 0.0
    goodput_histogram: dict = field(default_factory=dict)
    busy_fraction_histogram: dict = field(default_factory=dict)
    #: Deployment-wide fallback transition totals (defaults keep
    #: pre-telemetry cached payloads loadable).
    demotions: int = 0
    repromotions: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (the cached value)."""
        data = dataclasses.asdict(self)
        data["cells"] = [c.to_dict() for c in self.cells]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentResult":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["cells"] = [CellResult.from_dict(c) for c in data["cells"]]
        return cls(**data)


# --------------------------------------------------------------------------- #
# Cell execution (runs inside pool workers).
# --------------------------------------------------------------------------- #


def _protocol_factory(spec: CellSpec):
    if spec.carpool_stations is None:
        return PROTOCOLS[spec.protocol]
    return lambda params, limits: CarpoolMixedProtocol(
        params, limits, carpool_stations=spec.carpool_stations
    )


def _idle_cell(spec: CellSpec) -> CellResult:
    return CellResult(
        ap_index=spec.ap_index, protocol=spec.protocol, n_stations=0,
        goodput_bps=0.0, useful_goodput_bps=0.0,
        mean_delay_s=0.0, p95_delay_s=0.0,
        collisions=0, transmissions=0, retransmitted_subframes=0,
        dropped_frames=0, channel_busy_fraction=0.0, busy_airtime_s=0.0,
        coupled=spec.fault_plan is not None,
    )


def _run_cell(spec: CellSpec) -> CellResult:
    """Run a cell *through* CbrScenario: static cells build their own
    workload, roaming cells replay their pre-routed arrivals."""
    scenario = CbrScenario(
        num_stations=spec.n_stations,
        num_aps=1,
        duration=spec.duration,
        seed=spec.seed,
        frame_bytes=spec.frame_bytes,
        frames_per_second=spec.frames_per_second,
        latency_requirement=spec.latency_requirement,
        with_background=spec.with_background,
        background_intensity=spec.background_intensity,
        fault_plan=spec.fault_plan,
    )
    to_global = dict(spec.name_map)
    if spec.static:
        result = scenario.run(_protocol_factory(spec))
    else:
        result = scenario.run_arrivals(
            _protocol_factory(spec), spec.arrivals, list(to_global)
        )
    delivered = {
        to_global[name]: size
        for name, size in result.delivered_bytes_by_destination.items()
        if name in to_global  # uplink deliveries land on "ap"
    }
    return CellResult(
        ap_index=spec.ap_index,
        protocol=spec.protocol,
        n_stations=spec.n_stations,
        goodput_bps=result.measured_ap_goodput_bps,
        useful_goodput_bps=result.measured_ap_useful_goodput_bps,
        mean_delay_s=result.downlink_mean_delay,
        p95_delay_s=result.downlink_p95_delay,
        collisions=result.collisions,
        transmissions=result.transmissions,
        retransmitted_subframes=result.retransmitted_subframes,
        dropped_frames=result.dropped_frames,
        channel_busy_fraction=result.channel_busy_fraction,
        busy_airtime_s=result.channel_busy_fraction * spec.duration,
        delivered_bytes_by_sta=delivered,
        coupled=spec.fault_plan is not None,
        demotions=result.demotions,
        repromotions=result.repromotions,
    )


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell spec (pure function of the spec)."""
    if spec.n_stations == 0:
        result = _idle_cell(spec)
    else:
        result = _run_cell(spec)
    rec = active_recorder()
    if rec is not None:
        rec.emit(
            "net", "cell_done",
            ap_index=spec.ap_index,
            protocol=spec.protocol,
            n_stations=result.n_stations,
            goodput_bps=round(result.goodput_bps, 3),
            busy_fraction=round(result.channel_busy_fraction, 6),
            coupled=result.coupled,
        )
    return result


def _cell_trial(trial_index: int, rng, spec: CellSpec) -> dict:
    """run_trials adapter: run the cell ``spec`` the parent shipped.

    The handed RNG is deliberately unused — every cell is seeded by its
    spec, so results cannot depend on worker count or chunking.
    """
    return run_cell(spec).to_dict()


# --------------------------------------------------------------------------- #
# Arrival routing for roaming deployments.
# --------------------------------------------------------------------------- #


def _route_arrivals(arrivals: list, segments: list, duration: float) -> dict:
    """Split one station's time-sorted arrivals across its cell segments.

    An arrival inside a segment goes to that cell at its own time; one in
    a handoff gap is deferred to the start of the next segment (the frame
    waits out the handoff in the distribution system and lands in the new
    cell's queue the moment the station is reachable); one after the last
    segment is dropped. The time mapping is monotone, so each per-cell
    output list stays sorted.
    """
    routed: dict = {}
    cursor = 0
    for arrival in arrivals:
        while cursor < len(segments) and arrival.time >= segments[cursor].stop:
            cursor += 1
        if cursor == len(segments):
            break  # roamed past every segment: nothing can deliver this
        segment = segments[cursor]
        if arrival.time >= segment.start:
            routed.setdefault(segment.ap_index, []).append(arrival)
        elif segment.start < duration:
            routed.setdefault(segment.ap_index, []).append(
                dataclasses.replace(arrival, time=segment.start)
            )
    return routed


def _build_roaming_cell_arrivals(config: DeploymentConfig, timeline) -> dict:
    """ap_index → time-sorted arrival list with global station names."""
    rng = RngStream(config.seed)
    per_cell: dict = {}
    for sta_index in range(config.n_stas):
        name = f"sta{sta_index}"
        streams = [
            cbr_downlink_arrivals(
                [name], config.duration, config.frame_bytes,
                config.frames_per_second, rng.child(f"net-cbr-sta{sta_index}"),
                ap_name=AP_NAME,
            )
        ]
        if config.with_background:
            streams.append(
                background_uplink_arrivals(
                    [name], config.duration, rng.child(f"net-bg-sta{sta_index}"),
                    ap_name=AP_NAME, intensity=config.background_intensity,
                )
            )
        segments = timeline.segments_for(sta_index)
        for stream in streams:
            for ap_index, routed in _route_arrivals(
                stream, segments, config.duration
            ).items():
                per_cell.setdefault(ap_index, []).append(routed)
    return {
        ap_index: merge_arrivals(*streams)
        for ap_index, streams in per_cell.items()
    }


# --------------------------------------------------------------------------- #
# The deployment driver.
# --------------------------------------------------------------------------- #


@dataclass
class _DeploymentPlan:
    """The expensive, cell-independent decomposition of a config.

    Everything :func:`_make_cell_spec` needs to mint any single cell's
    spec: built once per deployment, in the parent, and reused for every
    cell.
    """

    timeline: object
    members: dict
    plans: dict
    cell_arrivals: dict
    mixed: bool
    ap_order: tuple


def _deployment_plan(config: DeploymentConfig) -> _DeploymentPlan:
    """Topology → associations → coupling plans → routed arrivals."""
    topology = build_topology(
        config.n_aps, config.n_stas, config.seed,
        arena=config.arena,
        ap_placement=config.ap_placement,
        sta_placement=config.sta_placement,
        channels=config.channels,
        shadowing_sigma_db=config.shadowing_sigma_db,
    )
    mobility = RandomWaypointMobility() if config.mobility else None
    timeline = build_association_timeline(
        topology, config.duration, config.seed,
        mobility=mobility,
        hysteresis_db=config.hysteresis_db,
        handoff_delay=config.handoff_delay,
        legacy_fraction=config.legacy_fraction,
    )
    members = {ap.index: timeline.members(ap.index) for ap in topology.aps}
    if config.coupling:
        plans = coupling_fault_plans(
            topology, config.duration, config.seed,
            duty_by_ap={
                index: min(0.9, estimated_duty(
                    len(stas), config.frames_per_second, config.frame_bytes
                ) + (background_duty(
                    len(stas), intensity=config.background_intensity
                ) if config.with_background else 0.0))
                for index, stas in members.items()
            },
            hit_probability=config.hit_probability,
        )
    else:
        plans = {ap.index: None for ap in topology.aps}

    mixed = config.legacy_fraction > 0.0 and config.protocol == "Carpool"
    cell_arrivals = (
        {} if not config.mobility
        else _build_roaming_cell_arrivals(config, timeline)
    )
    return _DeploymentPlan(
        timeline=timeline,
        members=members,
        plans=plans,
        cell_arrivals=cell_arrivals,
        mixed=mixed,
        ap_order=tuple(ap.index for ap in topology.aps),
    )


def _cell_fault_plan(config: DeploymentConfig, coupling_plan):
    """Compose a cell's coupling plan with the deployment-wide extras.

    Stream independence holds by construction: coupling specs are salted
    ``ap{i}-w{k}`` while soak episodes are salted per epoch, so composing
    the two never collides a fault RNG stream.
    """
    extra = config.extra_faults
    if not extra:
        return coupling_plan
    if not coupling_plan:
        return extra
    return FaultPlan.of(*coupling_plan.specs, *extra.specs)


def _make_cell_spec(config: DeploymentConfig, plan: _DeploymentPlan,
                    ap_index: int) -> CellSpec:
    """Mint one cell's spec from the shared deployment plan."""
    timeline, members = plan.timeline, plan.members
    common = dict(
        ap_index=ap_index,
        protocol=config.protocol,
        seed=cell_seed(config.seed, ap_index),
        duration=config.duration,
        frame_bytes=config.frame_bytes,
        frames_per_second=config.frames_per_second,
        latency_requirement=config.latency_requirement,
        with_background=config.with_background,
        background_intensity=config.background_intensity,
        fault_plan=_cell_fault_plan(config, plan.plans[ap_index]),
    )
    if not config.mobility:
        # Static: local names sta0..n-1 (the CbrScenario convention)
        # mapped back to the deployment's global indices.
        cell_members = members[ap_index]
        name_map = tuple(
            (f"sta{local}", f"sta{global_index}")
            for local, global_index in enumerate(cell_members)
        )
        carpool = None
        if plan.mixed:
            to_local = {g: l for l, g in name_map}
            carpool = tuple(
                to_local[name]
                for name in timeline.carpool_stations(ap_index)
            )
        return CellSpec(
            n_stations=len(cell_members), static=True,
            name_map=name_map, carpool_stations=carpool, **common,
        )
    names = tuple(f"sta{i}" for i in members[ap_index])
    carpool = (
        tuple(timeline.carpool_stations(ap_index)) if plan.mixed else None
    )
    return CellSpec(
        n_stations=len(names), static=False,
        arrivals=tuple(plan.cell_arrivals.get(ap_index, ())),
        name_map=tuple((name, name) for name in names),
        carpool_stations=carpool, **common,
    )


def _spec_source(config: DeploymentConfig, plan: _DeploymentPlan):
    """``run_trials`` trial_source: mint cells ``start..stop`` of the plan."""
    def specs(start: int, stop: int) -> list:
        return [_make_cell_spec(config, plan, plan.ap_order[i])
                for i in range(start, stop)]
    return specs


def _finalize(config: DeploymentConfig, agg,
              plan: _DeploymentPlan) -> DeploymentResult:
    """One :class:`DeploymentResult` from the folded aggregate.

    The aggregate's primitives are exactly associative, so every
    deployment-level field is bit-identical however the cells were
    grouped into chunks, sharded or not. ``cells`` comes from a
    collecting aggregate and is empty otherwise.
    """
    return DeploymentResult(
        config=config.to_payload(),
        cells=[CellResult.from_dict(cell) for cell in agg.cells or ()],
        total_goodput_bps=agg.total_goodput_bps(),
        total_useful_goodput_bps=agg.total_useful_goodput_bps(),
        busy_airtime_s=agg.busy_airtime_s(),
        jain_fairness=agg.jain_fairness(),
        n_roams=plan.timeline.n_roams,
        interruption_time_s=plan.timeline.interruption_time,
        n_coupled_cells=sum(1 for cell_plan in plan.plans.values()
                            if cell_plan is not None),
        n_cells=agg.n_cells,
        mean_cell_goodput_bps=agg.cell_goodput.mean(),
        cell_goodput_stddev_bps=agg.cell_goodput.stddev(),
        mean_cell_busy_fraction=agg.busy_fraction.mean(),
        goodput_histogram=agg.goodput_hist.to_dict(),
        busy_fraction_histogram=agg.busy_hist.to_dict(),
        demotions=agg.demotions,
        repromotions=agg.repromotions,
    )


def _emit_handoffs(config: DeploymentConfig, timeline) -> None:
    rec = active_recorder()
    if rec is None or not config.mobility:
        return
    for sta_index in range(config.n_stas):
        segments = timeline.segments_for(sta_index)
        for prev, nxt in zip(segments, segments[1:]):
            rec.emit("net", "handoff", sta=sta_index,
                     t=round(nxt.start, 6),
                     from_ap=prev.ap_index, to_ap=nxt.ap_index)


def simulate_deployment(
    config: DeploymentConfig,
    n_workers: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    chunk_size: int | str | None = "auto",
    shards: int | None = None,
    return_aggregate: bool = False,
) -> DeploymentResult:
    """Simulate a whole deployment; cells fan out over the runtime pools.

    Each trial is one whole cell, and ``chunk_size`` defaults to
    ``"auto"``: the runtime measures the pool's per-submission IPC cost
    and batches enough cells per chunk to amortise it (cells are coarse,
    so this usually lands at a few cells per chunk). Chunking never
    affects results.

    ``shards=k`` runs ~``n_aps / k`` cells per chunk and drops the
    per-cell breakdown: chunks fold their cells into a
    :class:`~repro.net.aggregate.DeploymentAggregate` that keeps only
    deployment-level state, and ``result.cells`` is empty (the memory
    being saved is exactly that list). Deployment-level numbers are
    bit-identical to the unsharded run at any ``shards``/worker
    combination.

    Results are cached under the ``deployment`` namespace, keyed by the
    full config payload and a fingerprint of every package that shapes
    the outcome — editing the MAC, traffic, fault, or net code invalidates
    stale entries automatically. Sharded results cache under a distinct
    key: the two modes return differently-shaped results (with and
    without ``cells``), so neither may satisfy the other's lookup.
    ``use_cache=False`` forces a recompute (the fresh result is still
    stored).

    ``return_aggregate=True`` returns ``(result, aggregate)`` — the live
    :class:`~repro.net.aggregate.DeploymentAggregate` the result was
    finalised from, so streaming callers (the :mod:`repro.serve` epoch
    loop) can keep folding it into a rolling deployment-of-deployments
    accumulator. It requires ``use_cache=False`` (a cache hit has no
    aggregate to hand back) and skips the cache write: epoch configs are
    one-shot, and persisting thousands of them would grow the cache
    without a future hit ever reading them.
    """
    if return_aggregate and use_cache:
        raise ValueError("return_aggregate=True requires use_cache=False")
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ValueError("shards must be >= 1")
    streaming = shards is not None
    key_payload = config.to_payload()
    if streaming:
        key_payload = dict(key_payload, result_shape="aggregate-only")
    key = content_key(
        "deployment", key_payload,
        code_fingerprint("repro.net", "repro.mac", "repro.traffic",
                         "repro.faults"),
    )
    cache = cache or ResultCache(namespace="deployment")
    if use_cache:
        cached = cache.get(key)
        if cached is not None:
            log.info("deployment cache hit (%d APs, seed %d)",
                     config.n_aps, config.seed)
            return DeploymentResult.from_dict(cached)
    log.info("simulating deployment: %d APs x %d STAs, %s, seed %d%s",
             config.n_aps, config.stas_per_ap, config.protocol, config.seed,
             f" ({shards} shards)" if streaming else "")
    plan = _deployment_plan(config)
    _emit_handoffs(config, plan.timeline)
    if streaming:
        chunk_size = max(1, math.ceil(config.n_aps / shards))
    agg = run_trials(
        _cell_trial, len(plan.ap_order),
        seed=derive_seed(config.seed, "net-cells"),
        n_workers=n_workers,
        chunk_size=chunk_size,
        trial_source=_spec_source(config, plan),
        reduce_fn=reduce_cell,
        reduce_init=aggregate_factory(config.mobility,
                                      collect_cells=not streaming),
    )
    result = _finalize(config, agg, plan)
    if not return_aggregate:
        cache.put(key, result.to_dict())
    if return_aggregate:
        return result, agg
    return result
