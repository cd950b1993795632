"""The engine's event timeline, read from an in-memory trace recorder."""

import pytest

from repro.mac import (
    CarpoolProtocol,
    DEFAULT_PARAMETERS,
    Dot11Protocol,
    FixedFerModel,
    WlanSimulator,
)
from repro.mac.engine import AP_NAME
from repro.mac.frames import Arrival, Direction
from repro.mac.scenarios import CbrScenario
from repro.obs.trace import TraceRecorder, active_recorder, set_recorder
from repro.util.rng import RngStream


def _arrivals(n=40):
    out = []
    for k in range(n):
        out.append(Arrival(time=0.0005 * k + 1e-4, source=AP_NAME,
                           destination=f"sta{k % 3}", size_bytes=200,
                           direction=Direction.DOWNLINK))
        out.append(Arrival(time=0.0005 * k + 2e-4, source=f"sta{k % 3}",
                           destination=AP_NAME, size_bytes=200,
                           direction=Direction.UPLINK))
    return out


@pytest.fixture
def recorder():
    rec = TraceRecorder(deterministic=True)
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


def _mac_events(rec):
    return [e for e in rec.events if e["layer"] == "mac"]


#: Every trace event that marks a destroyed exchange, one per collision.
_COLLISION_EVENTS = ("collision", "hidden-collision", "fault-hidden",
                     "fault-cts-loss")


def _logged_collisions(rec):
    return sum(1 for e in _mac_events(rec) if e["event"] in _COLLISION_EVENTS)


def _sim(protocol, n_stations, arrivals, seed):
    return WlanSimulator(protocol, n_stations, arrivals,
                         error_model=FixedFerModel(0.0), rng=RngStream(seed))


class TestTimeline:
    def test_disabled_by_default(self):
        assert active_recorder() is None
        plain = _sim(Dot11Protocol(DEFAULT_PARAMETERS), 3, _arrivals(), 1).run(0.2)
        rec = TraceRecorder(deterministic=True)
        previous = set_recorder(rec)
        try:
            traced = _sim(Dot11Protocol(DEFAULT_PARAMETERS), 3, _arrivals(), 1).run(0.2)
        finally:
            set_recorder(previous)
        assert _mac_events(rec)
        assert traced == plain  # recording observes, never steers

    def test_records_arrivals_and_transmissions(self, recorder):
        _sim(Dot11Protocol(DEFAULT_PARAMETERS), 3, _arrivals(), 1).run(0.2)
        kinds = {e["event"] for e in _mac_events(recorder)}
        assert "arrival" in kinds
        assert "transmit" in kinds

    def test_times_monotone(self, recorder):
        _sim(CarpoolProtocol(DEFAULT_PARAMETERS), 3, _arrivals(), 2).run(0.2)
        times = [e["t"] for e in _mac_events(recorder)]
        assert times
        assert times == sorted(times)

    def test_collisions_logged_under_contention(self, recorder):
        arrivals = []
        for k in range(200):
            for i in range(4):
                arrivals.append(Arrival(time=0.0004 * k + 1e-6 * i,
                                        source=f"sta{i}", destination=AP_NAME,
                                        size_bytes=400,
                                        direction=Direction.UPLINK))
        summary = _sim(Dot11Protocol(DEFAULT_PARAMETERS), 4, arrivals, 3).run(0.3)
        assert _logged_collisions(recorder) == summary.collisions > 0

    @pytest.mark.parametrize("use_rts_cts", [False, True], ids=["plain", "rts-cts"])
    def test_hidden_collisions_logged(self, recorder, use_rts_cts):
        """A hidden-terminal hit is a collision, so it leaves an event too."""
        arrivals, stations = CbrScenario(
            num_stations=3, num_aps=1, duration=0.3, seed=1).build_arrivals()
        sim = WlanSimulator(CarpoolProtocol(DEFAULT_PARAMETERS), 3, arrivals,
                            error_model=FixedFerModel(0.0), rng=RngStream(1),
                            station_names=stations,
                            hidden_pairs={(AP_NAME, "sta2")},
                            use_rts_cts=use_rts_cts)
        summary = sim.run(0.3)
        assert _logged_collisions(recorder) == summary.collisions > 0
        hidden = sum(1 for e in _mac_events(recorder)
                     if e["event"] == "hidden-collision")
        assert hidden == sim.hidden_collisions > 0
