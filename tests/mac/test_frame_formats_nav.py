import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mac_address import MacAddress
from repro.mac.frame_formats import (
    AckFrame,
    CtsFrame,
    DataFrame,
    FcsError,
    FrameType,
    RtsFrame,
    decode_duration,
    encode_duration,
    parse_frame,
)

A = MacAddress.from_int(1)
B = MacAddress.from_int(2)
BSS = MacAddress.from_int(99)


class TestDuration:
    def test_round_trip(self):
        for seconds in (0.0, 10e-6, 54e-6, 1e-3):
            assert decode_duration(encode_duration(seconds)) == pytest.approx(
                seconds, abs=1e-6
            )

    def test_rounds_up(self):
        assert encode_duration(10.4e-6) == 11

    def test_bounds(self):
        with pytest.raises(ValueError):
            encode_duration(-1.0)
        with pytest.raises(ValueError):
            encode_duration(0.04)  # 40 ms > 15-bit µs field
        with pytest.raises(ValueError):
            decode_duration(1 << 15)


class TestFrames:
    def test_data_round_trip(self):
        frame = DataFrame(receiver=A, transmitter=B, bssid=BSS,
                          payload=b"hello mac", duration=150e-6, sequence=7)
        raw = frame.to_bytes()
        kind, parsed = parse_frame(raw)
        assert kind == FrameType.DATA
        assert parsed.payload == b"hello mac"
        assert parsed.receiver == A
        assert parsed.sequence == 7
        assert parsed.duration == pytest.approx(150e-6)

    def test_ack_is_14_bytes(self):
        """Table-2-consistent: the simulator charges 14 B per ACK."""
        assert len(AckFrame(receiver=A).to_bytes()) == 14

    def test_rts_is_20_bytes(self):
        assert len(RtsFrame(receiver=A, transmitter=B).to_bytes()) == 20

    def test_cts_is_14_bytes(self):
        assert len(CtsFrame(receiver=A).to_bytes()) == 14

    def test_fcs_detects_corruption(self):
        raw = bytearray(DataFrame(A, B, BSS, b"payload").to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(FcsError):
            parse_frame(bytes(raw))

    def test_wrong_type_rejected(self):
        raw = AckFrame(receiver=A).to_bytes()
        with pytest.raises(ValueError):
            DataFrame.from_bytes(raw)

    def test_unknown_fc_rejected(self):
        with pytest.raises(ValueError):
            parse_frame(b"\xff\xff" + bytes(10))

    def test_sequence_bounds(self):
        with pytest.raises(ValueError):
            DataFrame(A, B, BSS, b"x", sequence=1 << 12)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=200), st.integers(0, 4095),
           st.floats(min_value=0, max_value=0.03))
    def test_property_round_trip(self, payload, seq, duration):
        frame = DataFrame(A, B, BSS, payload, duration=duration, sequence=seq)
        _, parsed = parse_frame(frame.to_bytes())
        assert parsed.payload == payload
        assert parsed.sequence == seq
