"""Payload bit processing: bytes ⇄ per-OFDM-symbol bit matrices ⇄ symbols.

Two operating modes:

* **coded** — the full 802.11 chain: 16-bit SERVICE prefix, scramble,
   6 tail bits, pad to a whole symbol, convolutional-encode, per-symbol
  interleave. This is what frame-level transport (MAC payloads, A-HDR,
  SIG) uses.
* **uncoded** — raw bits mapped straight onto constellations. This is the
  mode the paper's BER experiments report (raw symbol BER vs. symbol index
  and vs. power), and the granularity at which the phase-offset side channel
  attaches a CRC to each symbol.

All functions work on "bit matrices": shape (n_symbols, bits_per_symbol)
uint8 arrays, one row per OFDM symbol.
"""

from __future__ import annotations

import numpy as np

from repro.phy.coding import conv_encode, viterbi_decode
from repro.phy.interleaver import deinterleave_block, interleave_block
from repro.phy.mcs import Mcs
from repro.phy.ofdm import DATA_POSITIONS, PILOT_POSITIONS
from repro.phy.pilots import pilot_reference_matrix
from repro.phy.scrambler import descramble, scramble
from repro.util.bits import bits_to_bytes, bytes_to_bits

__all__ = [
    "SERVICE_BITS",
    "TAIL_BITS",
    "num_payload_symbols",
    "encode_payload_bits",
    "decode_payload_bits",
    "bits_to_symbols",
    "symbols_to_bits",
]

SERVICE_BITS = 16
TAIL_BITS = 6


def num_payload_symbols(payload_bytes: int, mcs: Mcs, coded: bool = True) -> int:
    """Number of OFDM symbols needed for a payload of ``payload_bytes``."""
    if payload_bytes <= 0:
        raise ValueError("payload must be non-empty")
    if coded:
        total_bits = SERVICE_BITS + 8 * payload_bytes + TAIL_BITS
        per_symbol = mcs.data_bits_per_symbol
    else:
        total_bits = 8 * payload_bytes
        per_symbol = mcs.coded_bits_per_symbol
    return -(-total_bits // per_symbol)


def encode_payload_bits(payload: bytes, mcs: Mcs, coded: bool = True,
                        scrambler_seed: int = 0b1011101) -> np.ndarray:
    """Encode payload bytes into a per-symbol bit matrix ready for mapping.

    Returns shape (n_symbols, N_CBPS) — the bits that land on the data
    subcarriers of each OFDM symbol, after scrambling/coding/interleaving
    in coded mode, or the zero-padded raw bits in uncoded mode.
    """
    raw = bytes_to_bits(payload)
    n_symbols = num_payload_symbols(len(payload), mcs, coded)
    n_cbps = mcs.coded_bits_per_symbol
    if not coded:
        padded = np.zeros(n_symbols * n_cbps, dtype=np.uint8)
        padded[: raw.size] = raw
        return padded.reshape(n_symbols, n_cbps)

    n_dbps = mcs.data_bits_per_symbol
    data = np.concatenate([np.zeros(SERVICE_BITS, dtype=np.uint8), raw])
    padded = np.zeros(n_symbols * n_dbps, dtype=np.uint8)
    padded[: data.size] = data
    scrambled = scramble(padded, scrambler_seed)
    # Tail bits are zeroed *after* scrambling so the decoder trellis terminates.
    tail_start = data.size
    scrambled[tail_start : tail_start + TAIL_BITS] = 0
    coded_bits = conv_encode(scrambled, mcs.code_rate)
    matrix = coded_bits.reshape(n_symbols, n_cbps)
    return interleave_block(matrix, mcs.modulation.bits_per_symbol)


def decode_payload_bits(bit_matrix: np.ndarray, payload_len: int, mcs: Mcs,
                        coded: bool = True, scrambler_seed: int = 0b1011101) -> bytes:
    """Invert :func:`encode_payload_bits` back to payload bytes.

    ``bit_matrix`` is the received per-symbol hard bits; decoding errors are
    *not* detected here (that is the MAC FCS's job) — this just runs the
    inverse pipeline.
    """
    bit_matrix = np.asarray(bit_matrix, dtype=np.uint8)
    if not coded:
        flat = bit_matrix.reshape(-1)[: 8 * payload_len]
        return bits_to_bytes(flat)

    n_symbols = bit_matrix.shape[0]
    n_dbps = mcs.data_bits_per_symbol
    deint = deinterleave_block(bit_matrix, mcs.modulation.bits_per_symbol)
    decoded = viterbi_decode(
        deint.reshape(-1), n_symbols * n_dbps, mcs.code_rate, terminated=False
    )
    descrambled = descramble(decoded, scrambler_seed)
    payload_bits = descrambled[SERVICE_BITS : SERVICE_BITS + 8 * payload_len]
    return bits_to_bytes(payload_bits)


def bits_to_symbols(bit_matrix: np.ndarray, mcs: Mcs, first_pilot_index: int,
                    phases: np.ndarray | None = None) -> np.ndarray:
    """Map a bit matrix onto (n_symbols, 52) used-subcarrier vectors.

    Args:
        first_pilot_index: Pilot-polarity index of the first symbol (SIG is
            index 0, so the first payload symbol of a plain frame is 1).
        phases: Optional per-symbol injected phase rotations (radians) —
            Carpool's side channel. The *entire* symbol (data + pilots) is
            rotated, preserving the pilot/data phase relationship.
    """
    bit_matrix = np.asarray(bit_matrix, dtype=np.uint8)
    n_symbols = bit_matrix.shape[0]
    if phases is None:
        phases = np.zeros(n_symbols)
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size != n_symbols:
        raise ValueError("one phase per symbol required")
    data_points = mcs.modulation.modulate(bit_matrix.reshape(-1))
    out = np.zeros((n_symbols, 52), dtype=np.complex128)
    out[:, DATA_POSITIONS] = data_points.reshape(n_symbols, -1)
    out[:, PILOT_POSITIONS] = pilot_reference_matrix(first_pilot_index, n_symbols)
    out *= np.exp(1j * phases)[:, None]
    return out


def symbols_to_bits(equalized_symbols: np.ndarray, mcs: Mcs) -> np.ndarray:
    """Hard-demodulate (..., n_symbols, 52) equalized symbols to bits.

    Returns (..., n_symbols, coded_bits_per_symbol): one bit row per symbol,
    with any leading axes (e.g. a stack of trials) kept.
    """
    equalized_symbols = np.asarray(equalized_symbols, dtype=np.complex128)
    data_points = equalized_symbols[..., DATA_POSITIONS]
    bits = mcs.modulation.demodulate(data_points.reshape(-1))
    return bits.reshape(*equalized_symbols.shape[:-1], mcs.coded_bits_per_symbol)
