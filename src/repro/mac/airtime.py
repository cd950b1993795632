"""Airtime of every frame and exchange the MAC simulator sends.

This module is the only place the simulator's durations are written: the
protocols' builds, the engine's RTS/CTS handshake and abort windows, and
the analytic budget in :mod:`repro.analysis.efficiency` all call it, so
the MAC benchmarks and the analytic overhead checks (§3's 59 µs-vs-20 µs
example) share one source of truth.
"""

from __future__ import annotations

from repro.mac.parameters import PhyMacParameters

__all__ = [
    "frame_airtime",
    "single_frame_airtime",
    "ack_airtime",
    "ack_train_airtime",
    "rts_airtime",
    "cts_airtime",
    "rts_cts_overhead",
]

_RTS_BYTES = 20
_CTS_BYTES = 14


def frame_airtime(n_symbols: int, params: PhyMacParameters) -> float:
    """A PHY frame: PLCP header + ``n_symbols`` OFDM symbols.

    ``n_symbols`` counts everything after the PLCP header: payload
    symbols plus any A-HDR and per-subframe SIG symbols.
    """
    return params.plcp_header_time + n_symbols * params.symbol_duration


def single_frame_airtime(payload_bytes: int, params: PhyMacParameters) -> float:
    """PLCP header + ``payload_bytes`` at the data rate (not symbol-rounded)."""
    if payload_bytes < 0:
        raise ValueError("negative payload")
    return params.plcp_header_time + 8 * payload_bytes / params.phy_rate_bps


def ack_airtime(params: PhyMacParameters) -> float:
    """An ACK frame: PLCP header + 14 bytes at the basic rate."""
    return params.plcp_header_time + 8 * params.ack_bytes / params.basic_rate_bps


def ack_train_airtime(num_receivers: int, params: PhyMacParameters) -> float:
    """N × (SIFS + ACK): the ACK tail of an exchange (Eq. 1; N = 1 for unicast)."""
    return num_receivers * (params.sifs + ack_airtime(params))


def rts_airtime(params: PhyMacParameters) -> float:
    """One multicast RTS at the data rate."""
    return single_frame_airtime(_RTS_BYTES, params)


def cts_airtime(params: PhyMacParameters) -> float:
    """One CTS at the basic rate."""
    return params.plcp_header_time + 8 * _CTS_BYTES / params.basic_rate_bps


def rts_cts_overhead(num_receivers: int, params: PhyMacParameters) -> float:
    """Multicast RTS followed by per-receiver CTSs (§4.2, Fig. 7)."""
    return (rts_airtime(params)
            + max(1, num_receivers) * (params.sifs + cts_airtime(params))
            + params.sifs)
