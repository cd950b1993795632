"""The standard (non-Carpool) OFDM transmitter and receiver chains.

Frame layout, in OFDM symbols:

    [STF, STF, LTF, LTF, SIG, payload₀, payload₁, …]

The receiver implements exactly the behaviour whose failure mode the paper
demonstrates: channel estimated once from the LTF, CFO corrected from the
LTF repetition, per-symbol pilot phase tracking — and *no* update of the
channel estimate during the payload (the "standard" curves in Figs. 3/13/14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.phy import payload_codec
from repro.phy.channel_estimation import equalize
from repro.phy.frontend import acquire
from repro.phy.mcs import Mcs
from repro.phy.pilots import track_and_compensate, track_and_compensate_block
from repro.phy.preamble import ltf_symbol, stf_symbol
from repro.phy.sig import SigDecodeError, SigField, decode_sig, encode_sig
from repro.phy.ofdm import assemble_symbol, split_symbol
from repro.phy.constants import pilot_values

__all__ = [
    "PREAMBLE_SYMBOLS",
    "SIG_SYMBOL_OFFSET",
    "PAYLOAD_SYMBOL_OFFSET",
    "TxFrame",
    "RxResult",
    "PhyTransmitter",
    "PhyReceiver",
]

PREAMBLE_SYMBOLS = 4  # STF ×2, LTF ×2
SIG_SYMBOL_OFFSET = PREAMBLE_SYMBOLS
PAYLOAD_SYMBOL_OFFSET = PREAMBLE_SYMBOLS + 1

_STF_SLOTS = (0, 1)
_LTF_SLOTS = (2, 3)


@lru_cache(maxsize=1)
def _preamble_block() -> np.ndarray:
    """The fixed STF/STF/LTF/LTF preamble as a cached (4, 52) block."""
    block = np.vstack([stf_symbol(), stf_symbol(), ltf_symbol(), ltf_symbol()])
    block.setflags(write=False)
    return block


@dataclass
class TxFrame:
    """A transmitted frame with ground truth kept for instrumentation.

    Attributes:
        symbols: (n_total, 52) frequency-domain used-subcarrier vectors.
        mcs: Payload modulation-and-coding scheme.
        payload: The original payload bytes.
        payload_bit_matrix: (n_payload_symbols, N_CBPS) bits actually mapped
            onto the data subcarriers of each payload symbol (ground truth
            for per-symbol BER measurement).
        injected_phases: (n_payload_symbols,) cumulative side-channel phase
            per symbol; all zeros for a standard frame.
        coded: Whether the 802.11 scramble/code/interleave chain was used.
    """

    symbols: np.ndarray
    mcs: Mcs
    payload: bytes
    payload_bit_matrix: np.ndarray
    injected_phases: np.ndarray
    coded: bool

    @property
    def n_payload_symbols(self) -> int:
        """Payload OFDM symbols in the frame."""
        return self.payload_bit_matrix.shape[0]

    @property
    def n_symbols(self) -> int:
        """Total OFDM symbols (preamble + SIG + payload)."""
        return self.symbols.shape[0]


@dataclass
class RxResult:
    """Receiver output plus diagnostics.

    Attributes:
        payload: Decoded payload bytes (may contain bit errors in uncoded
            mode; coded mode errors are whatever survives Viterbi).
        sig: Decoded SIG field.
        bit_matrix: Hard-decision per-symbol payload bits.
        symbol_phases: Tracked total phase offset per payload symbol.
        channel_estimate: The final channel estimate used.
        cfo_hz: Estimated carrier frequency offset.
        equalized: (n_payload_symbols, 52) equalized, phase-compensated
            symbols (pre-demodulation) for constellation inspection.
    """

    payload: bytes
    sig: SigField
    bit_matrix: np.ndarray
    symbol_phases: np.ndarray
    channel_estimate: np.ndarray
    cfo_hz: float
    equalized: np.ndarray | None = field(repr=False, default=None)


class PhyTransmitter:
    """Builds standard single-destination OFDM frames."""

    def __init__(self, mcs: Mcs, coded: bool = True):
        self.mcs = mcs
        self.coded = coded

    def build_frame(self, payload: bytes, phases: np.ndarray | None = None) -> TxFrame:
        """Assemble the full symbol sequence for ``payload``.

        ``phases`` optionally rotates each payload symbol — the hook the
        Carpool side-channel encoder uses. Standard frames pass None.
        """
        if not payload:
            raise ValueError("payload must be non-empty")
        bit_matrix = payload_codec.encode_payload_bits(payload, self.mcs, self.coded)
        n_payload = bit_matrix.shape[0]
        if phases is None:
            phases = np.zeros(n_payload)
        payload_symbols = payload_codec.bits_to_symbols(
            bit_matrix, self.mcs, first_pilot_index=1, phases=phases
        )
        sig_points = encode_sig(SigField(mcs=self.mcs, length_bytes=len(payload)))
        sig_symbol = assemble_symbol(sig_points, pilot_values(0))
        symbols = np.vstack(
            [
                _preamble_block(),
                sig_symbol[None, :],
                payload_symbols,
            ]
        )
        return TxFrame(
            symbols=symbols,
            mcs=self.mcs,
            payload=payload,
            payload_bit_matrix=bit_matrix,
            injected_phases=np.asarray(phases, dtype=np.float64),
            coded=self.coded,
        )


class PhyReceiver:
    """The standard receiver: preamble-only channel estimation."""

    def __init__(self, coded: bool = True):
        self.coded = coded

    def receive(self, received_symbols: np.ndarray) -> RxResult:
        """Decode a received frame (same symbol layout as the transmitter).

        Args:
            received_symbols: (n_total, 52) received used-subcarrier vectors.

        Raises:
            SigDecodeError: If the SIG symbol fails its validity checks.
        """
        received_symbols = np.asarray(received_symbols, dtype=np.complex128)
        front = acquire(received_symbols)
        derotated = front.derotated
        channel = front.channel_estimate
        cfo_hz = front.cfo_hz

        sig_eq = equalize(derotated[SIG_SYMBOL_OFFSET], channel)
        sig_eq, _sig_phase = track_and_compensate(sig_eq, 0)
        sig_data, _ = split_symbol(sig_eq)
        sig = decode_sig(sig_data)

        payload_len = sig.length_bytes
        mcs = sig.mcs
        n_payload = payload_codec.num_payload_symbols(payload_len, mcs, self.coded)
        available = received_symbols.shape[0] - PAYLOAD_SYMBOL_OFFSET
        if n_payload > available:
            raise SigDecodeError(
                f"SIG claims {n_payload} payload symbols but only {available} received"
            )

        payload_rx = derotated[PAYLOAD_SYMBOL_OFFSET : PAYLOAD_SYMBOL_OFFSET + n_payload]
        # The channel estimate is frozen for the whole payload (that is the
        # "standard receiver" the paper critiques), so the per-symbol
        # equalize/track/compensate chain batches over all symbols at once.
        equalized, phases = track_and_compensate_block(
            equalize(payload_rx, channel), 1
        )
        bit_matrix = payload_codec.symbols_to_bits(equalized, mcs)
        payload = payload_codec.decode_payload_bits(
            bit_matrix, payload_len, mcs, self.coded
        )
        return RxResult(
            payload=payload,
            sig=sig,
            bit_matrix=bit_matrix,
            symbol_phases=phases,
            channel_estimate=channel,
            cfo_hz=cfo_hz,
            equalized=equalized,
        )
