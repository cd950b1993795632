"""IEEE 802.11-style OFDM PHY substrate.

A software reimplementation of the DSP blocks the paper's GNURadio/USRP
prototype is built from: constellation mapping, scrambling, convolutional
coding, interleaving, OFDM symbol assembly, preamble, SIG field, LTF channel
estimation, CFO correction and pilot phase tracking.
"""

from repro.phy.coding import RATE_1_2, RATE_2_3, RATE_3_4, conv_encode, viterbi_decode
from repro.phy.constants import (
    CP_LENGTH,
    DATA_SUBCARRIER_INDICES,
    FFT_SIZE,
    NUM_DATA_SUBCARRIERS,
    NUM_PILOT_SUBCARRIERS,
    PILOT_SUBCARRIER_INDICES,
    SYMBOL_DURATION_20MHZ,
    USED_SUBCARRIER_INDICES,
    pilot_values,
)
from repro.phy.crc import crc1_bits, crc2_bits, crc8_bits, crc32, crc32_bits
from repro.phy.mcs import BASIC_MCS, MCS_TABLE, Mcs, mcs_by_name, mcs_by_rate_bits
from repro.phy.modulation import BPSK, MODULATIONS, QAM16, QAM64, QPSK, Modulation, get_modulation
from repro.phy.sig import SigDecodeError, SigField, decode_sig, encode_sig
from repro.phy.timedomain import (
    TimeDomainChannel,
    coarse_cfo_estimate,
    detect_frame,
    frame_to_samples,
    samples_to_symbols,
)
from repro.phy.transceiver import (
    PAYLOAD_SYMBOL_OFFSET,
    PREAMBLE_SYMBOLS,
    SIG_SYMBOL_OFFSET,
    PhyReceiver,
    PhyTransmitter,
    RxResult,
    TxFrame,
)

__all__ = [
    "RATE_1_2",
    "RATE_2_3",
    "RATE_3_4",
    "conv_encode",
    "viterbi_decode",
    "CP_LENGTH",
    "FFT_SIZE",
    "NUM_DATA_SUBCARRIERS",
    "NUM_PILOT_SUBCARRIERS",
    "DATA_SUBCARRIER_INDICES",
    "PILOT_SUBCARRIER_INDICES",
    "USED_SUBCARRIER_INDICES",
    "SYMBOL_DURATION_20MHZ",
    "pilot_values",
    "crc32",
    "crc32_bits",
    "crc8_bits",
    "crc2_bits",
    "crc1_bits",
    "Mcs",
    "MCS_TABLE",
    "BASIC_MCS",
    "mcs_by_name",
    "mcs_by_rate_bits",
    "Modulation",
    "MODULATIONS",
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "get_modulation",
    "SigField",
    "SigDecodeError",
    "encode_sig",
    "decode_sig",
    "PhyTransmitter",
    "PhyReceiver",
    "TxFrame",
    "RxResult",
    "PREAMBLE_SYMBOLS",
    "SIG_SYMBOL_OFFSET",
    "PAYLOAD_SYMBOL_OFFSET",
    "TimeDomainChannel",
    "coarse_cfo_estimate",
    "detect_frame",
    "frame_to_samples",
    "samples_to_symbols",
]
