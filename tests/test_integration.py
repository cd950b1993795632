"""Cross-module integration tests: the full system, end to end."""

import numpy as np
import pytest

from repro.channel import ChannelModel, FadingProfile
from repro.core import (
    CarpoolReceiver,
    CarpoolTransmitter,
    MacAddress,
    SubframeSpec,
)
from repro.mac import (
    AmpduProtocol,
    CarpoolProtocol,
    DEFAULT_PARAMETERS,
    Dot11Protocol,
    FixedFerModel,
    WlanSimulator,
)
from repro.mac.engine import AP_NAME
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.protocols.base import AggregationLimits
from repro.mac.protocols.multi_receiver import select_multi_receiver_batch
from repro.mac.scenarios import VoipScenario
from repro.phy import PhyReceiver, PhyTransmitter, mcs_by_name
from repro.traffic import merge_arrivals, voip_downlink_arrivals, voip_uplink_arrivals
from repro.util.rng import RngStream


class TestQueueToAirPipeline:
    """AP queueing policy → Carpool frame → channel → every receiver."""

    def test_aggregation_batch_becomes_decodable_frame(self):
        ap = Node(AP_NAME, DEFAULT_PARAMETERS, RngStream(0).child(AP_NAME),
                  is_ap=True)
        macs = {f"sta{i}": MacAddress.from_int(i) for i in range(4)}
        rng = np.random.default_rng(0)
        payloads = {}
        for i, name in enumerate(macs):
            size = 150 + 100 * i
            payloads[name] = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            ap.enqueue(MacFrame(destination=name, size_bytes=size,
                                arrival_time=0.0))
        batch = select_multi_receiver_batch(
            ap, AggregationLimits(max_latency=0.01))
        assert len(batch) == 4

        specs = [
            SubframeSpec(macs[name], payloads[name], mcs_by_name("QAM16-1/2"))
            for name in batch
        ]
        frame = CarpoolTransmitter(coded=True).build_frame(specs)
        channel = ChannelModel(snr_db=30, rng=RngStream(1))
        received = channel.transmit(frame.symbols)
        for name, mac in macs.items():
            result = CarpoolReceiver(mac, coded=True).receive(received)
            assert len(result.matched_positions) >= 1
            assert result.payload_for(result.matched_positions[0]) == payloads[name]


class TestStandardVsCarpoolOnSameChannel:
    def test_carpool_frame_longer_but_amortised(self):
        """One Carpool frame for 4 STAs beats 4 standard frames in total
        symbols (preamble amortisation)."""
        rng = np.random.default_rng(2)
        payloads = [bytes(rng.integers(0, 256, 400, dtype=np.uint8)) for _ in range(4)]
        mcs = mcs_by_name("QAM16-1/2")
        specs = [
            SubframeSpec(MacAddress.from_int(i), p, mcs)
            for i, p in enumerate(payloads)
        ]
        carpool = CarpoolTransmitter(coded=True).build_frame(specs)
        singles = sum(
            PhyTransmitter(mcs, coded=True).build_frame(p).n_symbols for p in payloads
        )
        assert carpool.n_symbols < singles

    def test_legacy_receiver_decodes_legacy_frame_alongside(self):
        payload = b"legacy coexistence" * 10
        mcs = mcs_by_name("QPSK-1/2")
        frame = PhyTransmitter(mcs, coded=True).build_frame(payload)
        channel = ChannelModel(snr_db=28, rng=RngStream(3))
        rx = PhyReceiver(coded=True).receive(channel.transmit(frame.symbols))
        assert rx.payload == payload


class TestTrafficThroughMac:
    def test_voip_scenario_end_to_end_all_protocols(self):
        scenario = VoipScenario(num_stations=6, duration=2.0)
        for cls in (Dot11Protocol, AmpduProtocol, CarpoolProtocol):
            result = scenario.run(cls)
            assert result.measured_ap_goodput_bps > 0

    def test_offered_equals_delivered_when_uncongested(self):
        stas = [f"sta{i}" for i in range(4)]
        rng = RngStream(4)
        arrivals = merge_arrivals(
            voip_downlink_arrivals(stas, 3.0, rng.child("d")),
            voip_uplink_arrivals(stas, 3.0, rng.child("u")),
        )
        total_offered = sum(a.size_bytes for a in arrivals)
        sim = WlanSimulator(
            CarpoolProtocol(DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.005)),
            num_stations=4,
            arrivals=arrivals,
            error_model=FixedFerModel(0.0),
            rng=RngStream(5),
        )
        summary = sim.run(4.0)  # run past the arrival horizon to drain queues
        delivered = (
            summary.downlink_goodput_bps + summary.uplink_goodput_bps
        ) * 4.0 / 8.0
        assert delivered == pytest.approx(total_offered, rel=0.01)


class TestChannelPhyConsistency:
    @pytest.mark.slow
    def test_snr_sweep_monotone_fer(self):
        """Frame error rate decreases with SNR through the whole stack."""
        payload = bytes(np.random.default_rng(6).integers(0, 256, 300, dtype=np.uint8))
        mcs = mcs_by_name("QAM16-1/2")
        frame = PhyTransmitter(mcs, coded=True).build_frame(payload)
        fers = []
        profile = FadingProfile(num_taps=2, delay_spread_taps=0.35,
                                ricean_k_db=18.0, coherence_time=np.inf)
        for snr in (8.0, 16.0, 30.0):
            channel = ChannelModel(snr_db=snr, rng=RngStream(7), profile=profile)
            receiver = PhyReceiver(coded=True)
            errors = 0
            for _ in range(15):
                rx = receiver.receive(channel.transmit(frame.symbols))
                errors += rx.payload != payload
            fers.append(errors / 15)
        assert fers[0] >= fers[1] >= fers[2]
        assert fers[2] == 0.0
