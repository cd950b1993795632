"""Hypothesis property tests on cross-cutting system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CarpoolReceiver,
    CarpoolTransmitter,
    MacAddress,
    SubframeSpec,
)
from repro.core.side_channel import ONE_BIT_SCHEME, TWO_BIT_SCHEME
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.base import AggregationLimits
from repro.mac.protocols.multi_receiver import select_multi_receiver_batch
from repro.phy import PhyReceiver, PhyTransmitter, MCS_TABLE
from repro.util.rng import RngStream


class TestPhyPipelineProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.binary(min_size=1, max_size=300), st.integers(0, 7), st.booleans())
    def test_loopback_identity(self, payload, mcs_idx, coded):
        """Any payload × any MCS × either coding mode survives loopback."""
        mcs = MCS_TABLE[mcs_idx]
        frame = PhyTransmitter(mcs, coded=coded).build_frame(payload)
        rx = PhyReceiver(coded=coded).receive(frame.symbols)
        assert rx.payload == payload
        assert rx.sig.mcs is mcs

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(1, 400), min_size=1, max_size=8, unique=False),
           st.integers(0, 2**16))
    def test_carpool_loopback_all_receivers(self, sizes, seed):
        """Every receiver of any ≤8-subframe Carpool frame gets exactly its
        own bytes back on a clean channel."""
        rng = np.random.default_rng(seed)
        mcs = MCS_TABLE[2]  # QPSK-1/2
        specs = [
            SubframeSpec(MacAddress.from_int(i),
                         bytes(rng.integers(0, 256, s, dtype=np.uint8)), mcs)
            for i, s in enumerate(sizes)
        ]
        frame = CarpoolTransmitter(coded=True).build_frame(specs)
        for spec in specs:
            result = CarpoolReceiver(spec.receiver, coded=True).receive(frame.symbols)
            assert result.num_subframes_seen == len(sizes)
            payload = result.payload_for(
                frame.subframe_for(spec.receiver).position
            )
            assert payload == spec.payload


class TestSideChannelProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([ONE_BIT_SCHEME, TWO_BIT_SCHEME]),
           st.floats(min_value=-0.3, max_value=0.3))
    def test_round_trip_under_any_drift_rate(self, seed, scheme, drift_per_symbol):
        """Differential decoding is exact for any constant inherent-drift
        rate below half the decision distance (±45°/2 for the 2-bit map)."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 40 * scheme.bits_per_symbol, dtype=np.uint8)
        injected = scheme.encode_phases(bits)
        n = injected.size
        drift = drift_per_symbol * np.arange(1, n + 1)
        measured = np.angle(np.exp(1j * (injected + drift)))
        decoded = scheme.decode_phases(measured, reference_phase=0.0)
        np.testing.assert_array_equal(decoded, bits)


class TestAggregationProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 2000),
                              st.booleans()), min_size=1, max_size=40),
           st.integers(1, 8))
    def test_selector_conserves_frames(self, frames_spec, max_receivers):
        """The multi-receiver selector never loses, duplicates or invents
        frames, and always respects every limit."""
        node = Node("ap", DEFAULT_PARAMETERS, RngStream(0).child("ap"), is_ap=True)
        frames = [
            MacFrame(destination=f"sta{d}", size_bytes=s, arrival_time=0.001 * i,
                     delay_sensitive=sens)
            for i, (d, s, sens) in enumerate(frames_spec)
        ]
        for frame in frames:
            node.enqueue(frame)
        limits = AggregationLimits(
            max_frame_bytes=4000, max_receivers=max_receivers,
            max_subframe_bytes=3000, max_mpdus=10,
        )
        batch = select_multi_receiver_batch(node, limits)
        taken = [f for group in batch.values() for f in group]
        ids_taken = {f.frame_id for f in taken}
        ids_left = {f.frame_id for f in node.queue}
        assert ids_taken | ids_left == {f.frame_id for f in frames}
        assert not ids_taken & ids_left
        assert len(taken) >= 1  # head frame always ships
        assert len(batch) <= max_receivers
        for dest, group in batch.items():
            assert all(f.destination == dest for f in group)
            assert len(group) <= limits.max_mpdus
