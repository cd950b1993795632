import pytest

from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.amsdu import AMSDU_MAX_BYTES, AmsduProtocol
from repro.mac.protocols.ampdu import AmpduProtocol
from repro.mac import Arrival, Direction, FixedFerModel, WlanSimulator
from repro.mac.engine import AP_NAME
from repro.mac.error_model import BerCurveErrorModel
from repro.util.rng import RngStream


def _ap():
    return Node("ap", DEFAULT_PARAMETERS, RngStream(0).child("ap"), is_ap=True)


def _frame(dest="sta0", size=500, t=0.0):
    return MacFrame(destination=dest, size_bytes=size, arrival_time=t)


class TestAmsduBuild:
    def test_single_subframe_single_crc(self):
        proto = AmsduProtocol(DEFAULT_PARAMETERS)
        ap = _ap()
        for _ in range(5):
            ap.enqueue(_frame())
        tx = proto.build(ap, 0.0)
        assert len(tx.subframes) == 1
        assert len(tx.subframes[0].frames) == 5

    def test_respects_byte_cap(self):
        proto = AmsduProtocol(DEFAULT_PARAMETERS)
        ap = _ap()
        for _ in range(30):
            ap.enqueue(_frame(size=500))
        tx = proto.build(ap, 0.0)
        assert tx.subframes[0].payload_bytes <= AMSDU_MAX_BYTES
        assert len(ap.queue) > 0

    def test_only_head_destination(self):
        proto = AmsduProtocol(DEFAULT_PARAMETERS)
        ap = _ap()
        ap.enqueue(_frame("sta0"))
        ap.enqueue(_frame("sta1"))
        tx = proto.build(ap, 0.0)
        assert {f.destination for f in tx.subframes[0].frames} == {"sta0"}


class TestAllOrNothingReliability:
    def _arrivals(self):
        """Bursty downlink: 25 frames land together every 20 ms, so the AP
        always has a deep backlog and builds maximum-size aggregates."""
        out = []
        for burst in range(40):
            for i in range(25):
                out.append(Arrival(time=0.02 * burst + 1e-6 * i + 1e-4,
                                   source=AP_NAME, destination="sta0",
                                   size_bytes=700, direction=Direction.DOWNLINK))
        return out

    def test_amsdu_suffers_more_than_ampdu_under_bias(self):
        """With the BER-bias error model, A-MSDU (whole-aggregate CRC)
        retransmits everything an A-MPDU would only partially lose."""
        model = BerCurveErrorModel()
        results = {}
        for cls in (AmsduProtocol, AmpduProtocol):
            sim = WlanSimulator(cls(DEFAULT_PARAMETERS), 2, self._arrivals(),
                                error_model=model, rng=RngStream(9))
            results[cls.name] = sim.run(1.0)
        assert (results["A-MSDU"].downlink_goodput_bps
                < results["A-MPDU"].downlink_goodput_bps)

    def test_equal_on_perfect_channel(self):
        results = {}
        for cls in (AmsduProtocol, AmpduProtocol):
            sim = WlanSimulator(cls(DEFAULT_PARAMETERS), 2, self._arrivals(),
                                error_model=FixedFerModel(0.0), rng=RngStream(10))
            results[cls.name] = sim.run(1.0)
        assert results["A-MSDU"].downlink_goodput_bps == pytest.approx(
            results["A-MPDU"].downlink_goodput_bps, rel=0.1
        )
