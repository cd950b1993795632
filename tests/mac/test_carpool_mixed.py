import pytest

from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.base import AggregationLimits
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.util.rng import RngStream


def _ap():
    return Node("ap", DEFAULT_PARAMETERS, RngStream(0).child("ap"), is_ap=True)


def _frame(dest, t=0.0, size=300, sensitive=False):
    return MacFrame(destination=dest, size_bytes=size, arrival_time=t,
                    delay_sensitive=sensitive)


CAPABLE = {"sta0", "sta1", "sta2"}


def _proto(**kwargs):
    return CarpoolMixedProtocol(
        DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.01),
        carpool_stations=CAPABLE, **kwargs,
    )


class TestMixedProtocol:
    def test_legacy_head_gets_single_frame(self):
        proto = _proto()
        ap = _ap()
        ap.enqueue(_frame("legacy9", t=0.0))
        ap.enqueue(_frame("sta0", t=0.1))
        ap.enqueue(_frame("sta1", t=0.2))
        tx = proto.build(ap, 1.0)
        assert len(tx.subframes) == 1
        assert tx.subframes[0].destination == "legacy9"
        assert not tx.subframes[0].rte
        assert len(ap.queue) == 2

    def test_carpool_head_aggregates_capable_only(self):
        proto = _proto()
        ap = _ap()
        ap.enqueue(_frame("sta0", t=0.0))
        ap.enqueue(_frame("legacy9", t=0.1))
        ap.enqueue(_frame("sta1", t=0.2))
        tx = proto.build(ap, 1.0)
        destinations = {sf.destination for sf in tx.subframes}
        assert destinations == {"sta0", "sta1"}
        assert all(sf.rte for sf in tx.subframes)
        # The legacy frame is still queued for the next access.
        assert [f.destination for f in ap.queue] == ["legacy9"]

    def test_legacy_never_waits_for_aggregation(self):
        proto = _proto()
        ap = _ap()
        ap.enqueue(_frame("legacy9", t=5.0))
        assert proto.ready_time(ap, 5.0) == 5.0

    def test_carpool_backlog_waits(self):
        proto = _proto()
        ap = _ap()
        ap.enqueue(_frame("sta0", t=5.0))
        assert proto.ready_time(ap, 5.0) == pytest.approx(5.01)

    def test_alternates_between_populations(self):
        """Legacy and Carpool backlogs both drain: serving one never
        starves the other indefinitely."""
        proto = _proto()
        ap = _ap()
        for i in range(3):
            ap.enqueue(_frame("legacy9", t=0.1 * i))
            ap.enqueue(_frame(f"sta{i}", t=0.1 * i + 0.05))
        served = []
        now = 10.0
        while ap.queue:
            tx = proto.build(ap, now)
            served.append({sf.destination for sf in tx.subframes})
            now += 0.001
        assert {"legacy9"} in served
        assert any("sta0" in group for group in served)
        assert not ap.queue
