"""FallbackCarpoolProtocol: demotion, fail-fast, re-promotion."""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.mac import (
    Arrival,
    DEFAULT_PARAMETERS,
    FallbackCarpoolProtocol,
    PROTOCOLS,
    WlanSimulator,
    FixedFerModel,
)
from repro.mac.engine import AP_NAME
from repro.mac.frames import Direction
from repro.mac.protocols.base import AggregationLimits, SubframeTx, Transmission
from repro.util.rng import RngStream


def _protocol(**kwargs):
    return FallbackCarpoolProtocol(
        DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.005), **kwargs)


def _report(proto, destination, ok, now):
    """One single-subframe exchange to ``destination`` with ACK outcome ``ok``."""
    subframe = SubframeTx(destination=destination, frames=[], start_symbol=0,
                          n_symbols=1, rte=True)
    proto.on_exchange(Transmission("ap", 0.0, 0.0, [subframe]), [ok], now)


class TestDemotionLogic:
    def test_registered(self):
        assert PROTOCOLS["Carpool-fallback"] is FallbackCarpoolProtocol

    def test_healthy_receiver_stays_carpool(self):
        proto = _protocol()
        for i in range(50):
            _report(proto, "sta0", True, i * 1e-3)
        assert proto.is_carpool("sta0")
        assert proto.demotions == 0

    def test_fail_fast_demotes_on_consecutive_failures(self):
        """An outage (all failures) must demote long before the windowed
        rate would react — within ``fail_fast`` subframes."""
        proto = _protocol(fail_fast=3)
        # A long success history that would anchor the windowed rate.
        for i in range(20):
            _report(proto, "sta0", True, i * 1e-3)
        _report(proto, "sta0", False, 0.021)
        _report(proto, "sta0", False, 0.022)
        assert proto.is_carpool("sta0")  # 2 < fail_fast
        _report(proto, "sta0", False, 0.023)
        assert not proto.is_carpool("sta0")
        assert proto.demotions == 1
        assert proto.demoted_stations() == {"sta0"}

    def test_success_resets_the_failure_streak(self):
        proto = _protocol(fail_fast=3, failure_threshold=0.95)
        for t, ok in enumerate([False, False, True, False, False, True]):
            _report(proto, "sta0", ok, t * 1e-3)
        assert proto.is_carpool("sta0")

    def test_windowed_rate_demotes_on_sustained_loss(self):
        """Interleaved failures below the fail-fast streak still demote
        once the windowed rate crosses the threshold."""
        proto = _protocol(failure_threshold=0.5, window=10, min_attempts=4,
                          fail_fast=0)
        outcomes = [False, False, True, False, False, True, False, False]
        for t, ok in enumerate(outcomes):
            _report(proto, "sta0", ok, t * 1e-3)
        assert not proto.is_carpool("sta0")

    def test_demotion_is_per_receiver(self):
        proto = _protocol(fail_fast=2)
        for t in range(2):
            _report(proto, "bad", False, t * 1e-3)
            _report(proto, "good", True, t * 1e-3)
        assert not proto.is_carpool("bad")
        assert proto.is_carpool("good")

    def test_never_capable_stations_stay_legacy(self):
        proto = _protocol(carpool_stations=("sta0",))
        assert proto.is_carpool("sta0")
        assert not proto.is_carpool("sta1")


class TestRepromotion:
    def test_cooldown_restores_carpool_service(self):
        proto = _protocol(fail_fast=2, cooldown=0.25)
        _report(proto, "sta0", False, 0.010)
        _report(proto, "sta0", False, 0.011)
        assert not proto.is_carpool("sta0")
        proto.on_round((), 0.100)
        assert not proto.is_carpool("sta0")  # cooldown not yet elapsed
        proto.on_round((), 0.300)
        assert proto.is_carpool("sta0")
        assert proto.repromotions == 1

    def test_history_cleared_on_demotion(self):
        """After re-promotion the receiver starts with a clean slate: old
        failures must not trigger an instant re-demotion."""
        proto = _protocol(fail_fast=3, cooldown=0.1)
        for t in range(3):
            _report(proto, "sta0", False, t * 1e-3)
        proto.on_round((), 1.0)
        _report(proto, "sta0", False, 1.001)
        assert proto.is_carpool("sta0")  # one failure < fail_fast again


class TestEndToEnd:
    def test_fallback_avoids_outage_drops(self):
        """Under periodic total A-HDR outages the fallback demotes to
        unicast and delivers what naive Carpool drops."""
        arrivals = [
            Arrival(time=0.002 * i, source=AP_NAME, destination=f"sta{i % 4}",
                    size_bytes=300, direction=Direction.DOWNLINK)
            for i in range(200)
        ]
        specs = [FaultSpec.make("ahdr_corruption", probability=1.0,
                                miss_probability=1.0, start=t, stop=t + 0.06,
                                seed_salt=f"w{k}")
                 for k, t in enumerate((0.05, 0.45, 0.85))]
        plan = FaultPlan.of(*specs)
        results = {}
        for name in ("Carpool", "Carpool-fallback"):
            proto = PROTOCOLS[name](DEFAULT_PARAMETERS,
                                    AggregationLimits(max_latency=0.005))
            sim = WlanSimulator(proto, 4, arrivals,
                                error_model=FixedFerModel(0.0),
                                rng=RngStream(3), faults=plan,
                                sequential_ack_recovery=name != "Carpool")
            results[name] = sim.run(1.2)
        assert results["Carpool"].dropped_frames > 0
        assert (results["Carpool-fallback"].dropped_frames
                < results["Carpool"].dropped_frames)
        assert (results["Carpool-fallback"].delivered_downlink_frames
                > results["Carpool"].delivered_downlink_frames)
