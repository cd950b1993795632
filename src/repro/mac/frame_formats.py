"""On-the-wire 802.11 MAC frame formats.

The MAC data units Carpool carries in its subframes are ordinary 802.11
frames; the sequential-ACK design manipulates their **Duration/NAV**
field (§4.2). This module provides byte-exact build/parse for the frame
types the design touches — data, ACK, RTS, CTS — including the CRC-32
FCS, so tests and examples can exercise real frames rather than opaque
byte counts.

Layout implemented (802.11-2012 §8.2/8.3, simplified to the three-address
data frame):

    data:  FC(2) Dur(2) A1(6) A2(6) A3(6) Seq(2) payload FCS(4)
    ACK:   FC(2) Dur(2) RA(6) FCS(4)                     = 14 bytes
    RTS:   FC(2) Dur(2) RA(6) TA(6) FCS(4)               = 20 bytes
    CTS:   FC(2) Dur(2) RA(6) FCS(4)                     = 14 bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.mac_address import MacAddress
from repro.phy.crc import crc32

__all__ = [
    "FrameType",
    "DataFrame",
    "AckFrame",
    "RtsFrame",
    "CtsFrame",
    "encode_duration",
    "decode_duration",
    "parse_frame",
    "FcsError",
]

# Frame-control (type, subtype) values, already shifted into FC bits 2–7.
_FC_DATA = 0x0008
_FC_ACK = 0x00D4
_FC_RTS = 0x00B4
_FC_CTS = 0x00C4

_DURATION_MAX_US = 32767


class FcsError(ValueError):
    """Raised when a parsed frame's FCS does not match its contents."""


class FrameType:
    """String labels for the implemented frame kinds."""

    DATA = "data"
    ACK = "ack"
    RTS = "rts"
    CTS = "cts"


def encode_duration(seconds: float) -> int:
    """Seconds → the 15-bit Duration/ID field (microseconds, rounded up)."""
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    microseconds = int(-(-seconds * 1e6 // 1))
    if microseconds > _DURATION_MAX_US:
        raise ValueError(f"duration {microseconds} µs exceeds the 15-bit field")
    return microseconds


def decode_duration(field: int) -> float:
    """Duration/ID field → seconds."""
    if not 0 <= field <= _DURATION_MAX_US:
        raise ValueError("not a duration value")
    return field * 1e-6


def _with_fcs(body: bytes) -> bytes:
    return body + struct.pack("<I", crc32(body))


def _check_fcs(raw: bytes) -> bytes:
    if len(raw) < 4:
        raise FcsError("frame too short for an FCS")
    body, fcs = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    if crc32(body) != fcs:
        raise FcsError("FCS mismatch")
    return body


@dataclass(frozen=True)
class DataFrame:
    """A three-address 802.11 data frame."""

    receiver: MacAddress
    transmitter: MacAddress
    bssid: MacAddress
    payload: bytes
    duration: float = 0.0
    sequence: int = 0

    def __post_init__(self):
        if not 0 <= self.sequence < (1 << 12):
            raise ValueError("sequence number is 12 bits")

    def to_bytes(self) -> bytes:
        """Serialise with FCS."""
        header = struct.pack("<HH", _FC_DATA, encode_duration(self.duration))
        header += bytes(self.receiver) + bytes(self.transmitter) + bytes(self.bssid)
        header += struct.pack("<H", self.sequence << 4)
        return _with_fcs(header + self.payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DataFrame":
        """Parse and FCS-verify."""
        body = _check_fcs(raw)
        fc, duration = struct.unpack("<HH", body[:4])
        if fc != _FC_DATA:
            raise ValueError("not a data frame")
        receiver = MacAddress(body[4:10])
        transmitter = MacAddress(body[10:16])
        bssid = MacAddress(body[16:22])
        (seq_ctl,) = struct.unpack("<H", body[22:24])
        return cls(
            receiver=receiver,
            transmitter=transmitter,
            bssid=bssid,
            payload=body[24:],
            duration=decode_duration(duration),
            sequence=seq_ctl >> 4,
        )


@dataclass(frozen=True)
class AckFrame:
    """An ACK; the sequential-ACK design sets its NAV (§4.2)."""

    receiver: MacAddress
    duration: float = 0.0

    def to_bytes(self) -> bytes:
        """Serialise with FCS."""
        body = struct.pack("<HH", _FC_ACK, encode_duration(self.duration))
        return _with_fcs(body + bytes(self.receiver))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AckFrame":
        """Parse and FCS-verify."""
        body = _check_fcs(raw)
        fc, duration = struct.unpack("<HH", body[:4])
        if fc != _FC_ACK:
            raise ValueError("not an ACK")
        return cls(receiver=MacAddress(body[4:10]), duration=decode_duration(duration))


@dataclass(frozen=True)
class RtsFrame:
    """A request-to-send; Carpool's variant carries an A-HDR (§4.2)."""

    receiver: MacAddress
    transmitter: MacAddress
    duration: float = 0.0

    def to_bytes(self) -> bytes:
        """Serialise with FCS."""
        body = struct.pack("<HH", _FC_RTS, encode_duration(self.duration))
        return _with_fcs(body + bytes(self.receiver) + bytes(self.transmitter))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RtsFrame":
        """Parse and FCS-verify."""
        body = _check_fcs(raw)
        fc, duration = struct.unpack("<HH", body[:4])
        if fc != _FC_RTS:
            raise ValueError("not an RTS")
        return cls(
            receiver=MacAddress(body[4:10]),
            transmitter=MacAddress(body[10:16]),
            duration=decode_duration(duration),
        )


@dataclass(frozen=True)
class CtsFrame:
    """A clear-to-send; its NAV shields the rest of the exchange."""

    receiver: MacAddress
    duration: float = 0.0

    def to_bytes(self) -> bytes:
        """Serialise with FCS."""
        body = struct.pack("<HH", _FC_CTS, encode_duration(self.duration))
        return _with_fcs(body + bytes(self.receiver))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CtsFrame":
        """Parse and FCS-verify."""
        body = _check_fcs(raw)
        fc, duration = struct.unpack("<HH", body[:4])
        if fc != _FC_CTS:
            raise ValueError("not a CTS")
        return cls(receiver=MacAddress(body[4:10]), duration=decode_duration(duration))


_PARSERS = {
    _FC_DATA: (FrameType.DATA, DataFrame),
    _FC_ACK: (FrameType.ACK, AckFrame),
    _FC_RTS: (FrameType.RTS, RtsFrame),
    _FC_CTS: (FrameType.CTS, CtsFrame),
}


def parse_frame(raw: bytes):
    """Dispatch on the frame-control field; returns ``(type, frame)``.

    Raises :class:`FcsError` for corrupt frames and ``ValueError`` for
    unknown types.
    """
    if len(raw) < 8:
        raise ValueError("frame too short")
    (fc,) = struct.unpack("<H", raw[:2])
    if fc not in _PARSERS:
        raise ValueError(f"unknown frame control {fc:#06x}")
    kind, cls = _PARSERS[fc]
    return kind, cls.from_bytes(raw)
