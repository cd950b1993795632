"""The protocol interface: the APs' downlink policy, asked pure questions.

* ``ready_time`` and ``build`` are asked of APs only; ``ready_time`` only
  of backlogged APs, and it changes nothing; ``build`` only pops the
  frames it ships.
* STAs are the engine's: every STA exchange is one legacy frame.
* Policy state changes only at ``on_round`` (once per loop round, every
  AP, before any readiness query) and ``on_exchange`` (after an AP
  exchange reached its receivers).
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac import PROTOCOLS
from repro.mac.engine import AP_NAME, WlanSimulator
from repro.mac.error_model import BerCurveErrorModel
from repro.mac.fairness import FairCarpoolProtocol
from repro.mac.frames import Arrival, Direction, MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.base import AggregationLimits, SubframeTx, Transmission
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.mac.scenarios import VoipScenario
from repro.util.rng import RngStream

_STATIONS = [f"sta{i}" for i in range(12)]
_CAPABLE = tuple(_STATIONS[::2])


class _HalfLegacy(CarpoolMixedProtocol):
    """Carpool-mixed where only ``sta0``, ``sta2``, … speak Carpool."""

    def __init__(self, params, limits=None):
        super().__init__(params, limits, carpool_stations=_CAPABLE)


#: Every policy the engine runs: the registry plus the two extra Carpools.
POLICIES = {**PROTOCOLS, "Carpool-mixed": _HalfLegacy,
            "Carpool-fair": FairCarpoolProtocol}


def _make(name, limits=None):
    return POLICIES[name](DEFAULT_PARAMETERS, limits or AggregationLimits())


def _strict(cls, log):
    """``cls`` with queries that fail when asked about anything but an AP."""

    class Strict(cls):
        def ready_time(self, ap, now):
            if not (ap.is_ap and ap.queue):
                raise AssertionError(f"ready_time asked of {ap.name}")
            log.append("ready_time")
            return super().ready_time(ap, now)

        def build(self, ap, now):
            if not ap.is_ap:
                raise AssertionError(f"build asked of {ap.name}")
            log.append("build")
            return super().build(ap, now)

    return Strict


def _voip():
    return VoipScenario(num_stations=4, num_aps=2, duration=0.5, seed=11,
                        include_uplink=True,
                        error_model=BerCurveErrorModel(base_symbol_error=2e-3))


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_voip_with_uplink_never_asks_the_protocol_about_stas(name):
    log = []
    result = _voip().run(_strict(POLICIES[name], log))
    assert dataclasses.asdict(result) \
        == dataclasses.asdict(_voip().run(POLICIES[name]))
    assert "ready_time" in log and "build" in log


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_stas_send_single_legacy_frames(name):
    """However a policy aggregates, a STA's deep backlog leaves one frame
    per exchange, decoded without RTE."""
    arrivals = []
    for i in range(40):
        t = 2e-4 * i
        arrivals.append(Arrival(time=t, source="sta0", destination=AP_NAME,
                                size_bytes=200, direction=Direction.UPLINK))
        arrivals.append(Arrival(time=t, source=AP_NAME,
                                destination=_STATIONS[i % 4], size_bytes=200))
    sim = WlanSimulator(_make(name), 4, sorted(arrivals, key=lambda a: a.time),
                        rng=RngStream(5))
    # The error draw runs once per sent exchange, after every abort path.
    # Only sta0 sends uplink, so an exchange addressed to the AP is sta0's.
    sent = []
    draw = sim._error_draws.draw

    def record(subframes):
        sent.append(subframes)
        return draw(subframes)

    sim._error_draws.draw = record
    sim.run(0.05)
    from_sta = [sfs for sfs in sent if sfs[0].destination == AP_NAME]
    assert len(from_sta) >= 20
    for subframes in from_sta:
        assert len(subframes) == 1
        assert len(subframes[0].frames) == 1
        assert not subframes[0].rte
    if name not in ("802.11", "WiFox"):
        assert any(len(sfs[0].frames) > 1 or len(sfs) > 1
                   for sfs in sent if sfs[0].destination != AP_NAME)


class _Recording(_HalfLegacy):
    """Logs every engine call in order."""

    def __init__(self, params, limits=None):
        super().__init__(params, limits)
        self.calls = []

    def on_round(self, aps, now):
        self.calls.append(("on_round", now, tuple(ap.name for ap in aps)))

    def ready_time(self, ap, now):
        self.calls.append(("ready_time", now, ap.name))
        return super().ready_time(ap, now)

    def on_exchange(self, transmission, acked, now):
        self.calls.append(("on_exchange", now, transmission.node_name))


def test_on_round_precedes_every_readiness_query_and_sees_every_ap():
    scenario = VoipScenario(num_stations=3, num_aps=3, duration=0.3, seed=2,
                            include_uplink=True)
    protocols = []

    def factory(params, limits):
        protocols.append(_Recording(params, limits))
        return protocols[0]

    scenario.run(factory)
    calls = protocols[0].calls
    rounds = [c for c in calls if c[0] == "on_round"]
    assert rounds and all(c[2] == (AP_NAME, "ap1", "ap2") for c in rounds)
    current = None
    for kind, now, _ in calls:
        if kind == "on_round":
            current = now
        elif kind == "ready_time":
            assert now == current  # asked in the round it was announced
    assert any(kind == "on_exchange" for kind, *_ in calls)


# --------------------------------------------------------------------------- #
# Pure queries over random AP queues
# --------------------------------------------------------------------------- #

_frames = st.lists(
    st.tuples(st.integers(0, len(_STATIONS) - 1), st.integers(40, 4095),
              st.floats(0.0, 0.05), st.booleans()),
    min_size=1, max_size=80,
)


def _ap(frames, cw_steps, scale, backoff):
    ap = Node(AP_NAME, DEFAULT_PARAMETERS, RngStream(0).child("ap"),
              is_ap=True)
    for dest, size, t, sensitive in frames:
        ap.enqueue(MacFrame(destination=_STATIONS[dest], size_bytes=size,
                            arrival_time=t, delay_sensitive=sensitive))
    if scale != 1.0:
        ap.set_priority_scale(scale)
    for _ in range(cw_steps):
        ap.on_collision()
    ap.backoff_slots = backoff
    return ap


def _node_state(node):
    return ([(id(f), dataclasses.astuple(f)) for f in node.queue],
            node.cw, node.cw_scale, node.backoff_slots)


def _seed_policy_state(protocol, degraded, now):
    """Give stateful policies some history: failures, demotions, charges."""
    for i, dest in enumerate(degraded):
        subframe = SubframeTx(destination=_STATIONS[dest], frames=[],
                              start_symbol=0, n_symbols=3 + i, rte=True)
        exchange = Transmission("ap", 0.0, 0.0, [subframe] * (1 + i % 4))
        protocol.on_exchange(exchange, [False] * (1 + i % 4), now)


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=30, deadline=None)
@given(
    frames=_frames,
    wait=st.floats(0.0, 0.03),
    cw_steps=st.integers(0, 4),
    scale=st.sampled_from([1.0, 0.5, 0.125]),
    backoff=st.one_of(st.none(), st.integers(0, 40)),
    degraded=st.lists(st.integers(0, len(_STATIONS) - 1), max_size=6),
    max_latency=st.floats(1e-4, 0.02),
    max_receivers=st.integers(1, 8),
)
def test_queries_are_pure(name, frames, wait, cw_steps, scale, backoff,
                          degraded, max_latency, max_receivers):
    protocol = _make(name, AggregationLimits(max_latency=max_latency,
                                             max_receivers=max_receivers))
    now = max(f[2] for f in frames) + wait
    _seed_policy_state(protocol, degraded, now - wait)
    ap = _ap(frames, cw_steps, scale, backoff)
    node_before = _node_state(ap)
    policy_before = copy.deepcopy(vars(protocol))

    ready = protocol.ready_time(ap, now)
    assert isinstance(ready, float) and ready >= now
    assert protocol.ready_time(ap, now) == ready
    assert _node_state(ap) == node_before
    assert vars(protocol) == policy_before

    transmission = protocol.build(ap, now)
    shipped = [(id(f), dataclasses.astuple(f))
               for sf in transmission.subframes for f in sf.frames]
    assert shipped
    assert all(entry in node_before[0] for entry in shipped)  # popped, not changed
    shipped_ids = {entry[0] for entry in shipped}
    assert len(shipped_ids) == len(shipped)
    # The unshipped frames stay queued, unchanged and in their order.
    assert _node_state(ap)[0] == [entry for entry in node_before[0]
                                  if entry[0] not in shipped_ids]
    assert (ap.cw, ap.cw_scale, ap.backoff_slots) == node_before[1:]
    assert vars(protocol) == policy_before
