"""The Carpool frame: preamble + A-HDR + a train of per-receiver subframes.

Symbol layout (Fig. 4):

    [STF, STF, LTF, LTF, A-HDR₀, A-HDR₁,
     SIG¹, payload¹₀ … payload¹ₖ,          ← subframe 1
     SIG², payload²₀ … ,                   ← subframe 2
     …]

Each subframe is a complete (SIG + MAC data) unit for exactly one receiver
and may use its own MCS. Pilot-polarity indices run continuously from the
first A-HDR symbol; side-channel phase injection applies to payload symbols
only, referenced differentially to the subframe's own (uninjected) SIG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ahdr import AHDR_SYMBOLS, MAX_RECEIVERS, encode_ahdr
from repro.core.mac_address import MacAddress
from repro.core.symbol_crc import DEFAULT_CRC_CONFIG, SymbolCrcConfig
from repro.phy import payload_codec
from repro.phy.constants import pilot_values
from repro.phy.mcs import Mcs
from repro.phy.ofdm import assemble_symbol
from repro.phy.preamble import ltf_symbol, stf_symbol
from repro.phy.sig import SigField, encode_sig
from repro.phy.transceiver import PREAMBLE_SYMBOLS

__all__ = ["SubframeSpec", "TxSubframe", "CarpoolTxFrame", "CarpoolTransmitter", "AHDR_SYMBOL_OFFSET"]

AHDR_SYMBOL_OFFSET = PREAMBLE_SYMBOLS  # A-HDR sits right after the preamble


@dataclass(frozen=True)
class SubframeSpec:
    """What the AP wants to send to one receiver."""

    receiver: MacAddress
    payload: bytes
    mcs: Mcs

    def __post_init__(self):
        if not self.payload:
            raise ValueError("empty subframe payload")


@dataclass
class TxSubframe:
    """A built subframe with ground truth for instrumentation."""

    spec: SubframeSpec
    position: int  # subframe index within the frame (hash-set index)
    sig_symbol_index: int  # absolute symbol index of this subframe's SIG
    bit_matrix: np.ndarray  # (n_payload_symbols, n_cbps) mapped data bits
    side_bits: np.ndarray  # (n_payload_symbols, scheme bits) CRC side bits
    injected_phases: np.ndarray  # cumulative injected phase per payload symbol

    @property
    def n_payload_symbols(self) -> int:
        """Payload OFDM symbols of this subframe."""
        return self.bit_matrix.shape[0]

    @property
    def payload_start(self) -> int:
        """Absolute symbol index of the first payload symbol."""
        return self.sig_symbol_index + 1

    @property
    def end_symbol(self) -> int:
        """One past this subframe's last symbol."""
        return self.payload_start + self.n_payload_symbols


@dataclass
class CarpoolTxFrame:
    """A fully-assembled Carpool transmission."""

    symbols: np.ndarray  # (n_total, 52)
    subframes: list = field(default_factory=list)
    coded: bool = True
    crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG

    @property
    def receivers(self) -> list:
        """Receiver MAC addresses in subframe order."""
        return [sf.spec.receiver for sf in self.subframes]

    @property
    def n_symbols(self) -> int:
        """Total OFDM symbols in the frame (preamble included)."""
        return self.symbols.shape[0]

    def subframe_for(self, receiver: MacAddress):
        """The subframe destined to ``receiver`` (None if absent)."""
        for sf in self.subframes:
            if sf.spec.receiver == receiver:
                return sf
        return None


class CarpoolTransmitter:
    """Builds Carpool frames: PHY aggregation for up to 8 receivers.

    Args:
        coded: Whether subframe payloads use the full 802.11
            scramble/code/interleave chain (True for transport, False for
            symbol-level BER instrumentation).
        crc_config: Side-channel CRC layout; the paper's default is a
            CRC-2 per symbol via the 2-bit phase-offset scheme.
        inject_side_channel: Disable to build "MU-Aggregation"-style frames
            that aggregate without the side channel / RTE (the baseline of
            §7.2).
    """

    def __init__(
        self,
        coded: bool = True,
        crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
        inject_side_channel: bool = True,
    ):
        self.coded = coded
        self.crc_config = crc_config
        self.inject_side_channel = inject_side_channel

    def build_frame(self, specs: list) -> CarpoolTxFrame:
        """Aggregate one subframe per spec into a single Carpool frame.

        Receivers must be distinct; order defines subframe positions and
        therefore both hash-set indices and the sequential-ACK order.
        """
        if not specs:
            raise ValueError("need at least one subframe")
        if len(specs) > MAX_RECEIVERS:
            raise ValueError(f"at most {MAX_RECEIVERS} receivers per Carpool frame")
        receivers = [s.receiver for s in specs]
        if len(set(receivers)) != len(receivers):
            raise ValueError("duplicate receiver in Carpool frame")

        symbol_rows = [stf_symbol(), stf_symbol(), ltf_symbol(), ltf_symbol()]
        symbol_rows.extend(encode_ahdr(receivers, first_pilot_index=0))
        pilot_index = AHDR_SYMBOLS  # pilot indices 0..1 consumed by A-HDR
        subframes = []

        for position, spec in enumerate(specs):
            sig_symbol_index = len(symbol_rows)
            sig_points = encode_sig(SigField(mcs=spec.mcs, length_bytes=len(spec.payload)))
            symbol_rows.append(assemble_symbol(sig_points, pilot_values(pilot_index)))
            pilot_index += 1

            bit_matrix = payload_codec.encode_payload_bits(
                spec.payload, spec.mcs, self.coded
            )
            n_payload = bit_matrix.shape[0]
            if self.inject_side_channel:
                side_bits = self.crc_config.side_bits_for(bit_matrix)
                phases = self.crc_config.scheme.encode_phases(side_bits.reshape(-1))
            else:
                side_bits = np.zeros(
                    (n_payload, self.crc_config.scheme.bits_per_symbol), dtype=np.uint8
                )
                phases = np.zeros(n_payload)
            payload_symbols = payload_codec.bits_to_symbols(
                bit_matrix, spec.mcs, first_pilot_index=pilot_index, phases=phases
            )
            symbol_rows.extend(payload_symbols)
            pilot_index += n_payload

            subframes.append(
                TxSubframe(
                    spec=spec,
                    position=position,
                    sig_symbol_index=sig_symbol_index,
                    bit_matrix=bit_matrix,
                    side_bits=side_bits,
                    injected_phases=np.asarray(phases, dtype=np.float64),
                )
            )

        return CarpoolTxFrame(
            symbols=np.vstack([np.atleast_2d(row) for row in symbol_rows]),
            subframes=subframes,
            coded=self.coded,
            crc_config=self.crc_config,
        )
