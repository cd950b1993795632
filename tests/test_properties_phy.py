"""Hypothesis property tests on the PHY-side invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compat import FrameFormat, classify_frame
from repro.core.frame import CarpoolTransmitter, SubframeSpec
from repro.core.mac_address import MacAddress
from repro.phy import MCS_TABLE, PhyTransmitter
from repro.phy.mimo import MimoChannel, zero_forcing_precoder
from repro.util.rng import RngStream


class TestClassificationProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 400))
    def test_legacy_frames_always_classified_legacy(self, mcs_idx, size):
        frame = PhyTransmitter(MCS_TABLE[mcs_idx]).build_frame(bytes(size))
        assert classify_frame(frame.symbols) is FrameFormat.LEGACY

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**16))
    def test_carpool_frames_always_classified_carpool(self, n, seed):
        rng = np.random.default_rng(seed)
        specs = [
            SubframeSpec(MacAddress.from_int(i),
                         bytes(rng.integers(0, 256, 60, dtype=np.uint8)),
                         MCS_TABLE[2])
            for i in range(n)
        ]
        frame = CarpoolTransmitter().build_frame(specs)
        assert classify_frame(frame.symbols) is FrameFormat.CARPOOL


class TestZeroForcingProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 4))
    def test_interference_nulled_for_any_channel(self, seed, antennas):
        channel = MimoChannel(num_users=antennas, num_antennas=antennas,
                              rng=RngStream(seed))
        users = list(range(antennas))
        w = zero_forcing_precoder(channel, users)
        for k in (0, 26, 51):
            gains = channel.group_matrix(users, k) @ w[:, :, k]
            off_diagonal = gains - np.diag(np.diag(gains))
            assert np.max(np.abs(off_diagonal)) < 1e-6
