"""Pinned outputs of every caller of the frozen-estimate PHY decode.

Each case runs one small decode and hashes its whole output. The set
covers the three PHY Monte-Carlo experiments (``ber_by_symbol_index``
frozen and with RTE under three CRC layouts, one with a partial trailing
group; ``data_ber_with_side_channel`` with and without injection;
``side_channel_vs_data_ber`` for both schemes), a multi-subframe
``CarpoolReceiver`` that decodes every subframe with a frozen estimate,
the MU-MIMO receiver and the standard ``PhyReceiver``.
A change to any decode step, to the order of RNG draws or to how trials
are stacked shows up as a digest change.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.phy_experiments import (
    LinkConfig,
    ber_by_symbol_index,
    data_ber_with_side_channel,
    side_channel_vs_data_ber,
)
from repro.channel import ChannelModel, FadingProfile
from repro.core import CarpoolReceiver, CarpoolTransmitter, MacAddress, SubframeSpec
from repro.core.mimo import MuMimoCarpoolReceiver, MuMimoCarpoolTransmitter
from repro.core.side_channel import ONE_BIT_SCHEME, TWO_BIT_SCHEME
from repro.core.symbol_crc import DEFAULT_CRC_CONFIG, SymbolCrcConfig
from repro.phy import mcs_by_name
from repro.phy.mimo import MimoChannel
from repro.phy.transceiver import PhyReceiver, PhyTransmitter
from repro.util.rng import RngStream


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


_CRC = {
    "default": DEFAULT_CRC_CONFIG,
    "1bit-g2": SymbolCrcConfig(scheme=ONE_BIT_SCHEME, granularity=2),
    "2bit-g3": SymbolCrcConfig(scheme=TWO_BIT_SCHEME, granularity=3),
}


def _ber_case(crc_name, use_rte):
    # 13 QAM16 payload symbols: the g=2 and g=3 layouts end in a partial group.
    result = ber_by_symbol_index(
        "QAM16-3/4", 300, trials=3, use_rte=use_rte,
        link=LinkConfig(seed=5, power_magnitude=0.1),
        crc_config=_CRC[crc_name])
    return _digest(result.ber_per_symbol, result.mean_ber,
                   result.crc_pass_rate, result.side_bit_error_rate,
                   result.trials, result.scheme)


def _carpool_case():
    rng = np.random.default_rng(3)
    specs = [
        SubframeSpec(MacAddress.from_int(i),
                     bytes(rng.integers(0, 256, size, dtype=np.uint8)),
                     mcs_by_name(mcs))
        for i, (size, mcs) in enumerate(
            ((200, "QAM16-3/4"), (120, "QPSK-1/2"), (260, "QAM64-2/3")))
    ]
    frame = CarpoolTransmitter(coded=True).build_frame(specs)
    channel = ChannelModel(
        snr_db=24.0, rng=RngStream(4),
        profile=FadingProfile(num_taps=2, ricean_k_db=10.0,
                              coherence_time=5e-3))
    received = channel.transmit(frame.symbols)
    result = CarpoolReceiver(MacAddress.from_int(1), use_rte=False,
                             decode_all=True).receive(received)
    parts = [result.matched_positions, result.num_subframes_seen,
             result.cfo_hz, result.channel_estimate, result.walk_error]
    for sf in result.subframes:
        parts += [sf.position, sf.sig, sf.payload, sf.bit_matrix,
                  sf.side_bits, sf.crc_pass, sf.phases, sf.rte_updates]
    return _digest(*parts)


def _mimo_case():
    rng = np.random.default_rng(8)
    mcs = mcs_by_name("QPSK-1/2")
    specs = [
        SubframeSpec(MacAddress.from_int(i),
                     bytes(rng.integers(0, 256, 150, dtype=np.uint8)), mcs)
        for i in range(4)
    ]
    channel = MimoChannel(4, 2, RngStream(7))
    frame = MuMimoCarpoolTransmitter(channel).build_frame(specs)
    received = channel.propagate(frame.antenna_streams, snr_db=25.0,
                                 rng=RngStream(9))
    parts = []
    for i, spec in enumerate(specs):
        result = MuMimoCarpoolReceiver(spec.receiver).receive(
            received[i], frame.layout)
        parts += [result.matched_groups, result.stream_index, result.sig,
                  result.payload, result.bit_matrix, result.error]
    return _digest(*parts)


def _phy_receiver_case():
    payload = bytes(np.random.default_rng(2).integers(0, 256, 400,
                                                      dtype=np.uint8))
    frame = PhyTransmitter(mcs_by_name("QAM16-1/2"), coded=True).build_frame(
        payload)
    channel = ChannelModel(
        snr_db=20.0, rng=RngStream(6),
        profile=FadingProfile(num_taps=3, ricean_k_db=6.0,
                              coherence_time=5e-3))
    rx = PhyReceiver(coded=True).receive(channel.transmit(frame.symbols))
    return _digest(rx.payload, rx.sig, rx.bit_matrix, rx.symbol_phases,
                   rx.channel_estimate, rx.cfo_hz, rx.equalized)


CASES = {
    **{f"ber-{crc}-{'rte' if rte else 'frozen'}":
       (lambda crc=crc, rte=rte: _ber_case(crc, rte))
       for crc in _CRC for rte in (False, True)},
    **{f"data-ber-inject-{inject}":
       (lambda inject=inject: _digest(data_ber_with_side_channel(
           "QAM16-1/2", 0.05, trials=3, payload_bytes=300, inject=inject)))
       for inject in (True, False)},
    **{f"side-vs-data-{bits}bit":
       (lambda bits=bits: _digest(*side_channel_vs_data_ber(
           bits, 0.02, trials=3, payload_bytes=200)))
       for bits in (1, 2)},
    "carpool-frozen-hard": _carpool_case,
    "mu-mimo": _mimo_case,
    "phy-receiver": _phy_receiver_case,
}

PINS = {
    "ber-1bit-g2-frozen":
        "99fe6304512b9db7d0603335573adbf4bd4757eaf1113eada36167a21c50cc7c",
    "ber-1bit-g2-rte":
        "2fa455de455025fbedb558256f5e6a099729b1b85a7af3bf78acd9ba6971f056",
    "ber-2bit-g3-frozen":
        "43c5c38cacb250175feddc2cca39db4e8b2a197023bf714700bdd8dba7b6a4c8",
    "ber-2bit-g3-rte":
        "83f8434a0eb4b01003d133bd117c10fffd4dc0ee5f33d12f9a3c93cfda22fd6d",
    "ber-default-frozen":
        "2798d49e53825a017fb4f6430808ab4ba4b0c106937523f5b327fa70d766d42f",
    "ber-default-rte":
        "d749cf1d842844fb0166046aa7b55d345f6977460beb271f917df9933c5b278d",
    "carpool-frozen-hard":
        "6a386d263db38457cd6fe827bbf16329bbb278ead24823a80d1fda9bc8eecc2f",
    "data-ber-inject-False":
        "bca55e0071984f54f026e5ff1cb1c0f440bf60740ef6676c6f1ebbb321a4db0c",
    "data-ber-inject-True":
        "063123eeea921fdd7aaf7651b1a29dc7f30b3e15c0d2f09283b20521ac9cd3a9",
    "mu-mimo":
        "bc6cbc2fd5125fbd1c4d2913a216457a7dd4313f2a756cf78a810f4cdb6934a1",
    "phy-receiver":
        "892499fa52e3b720eaa1e53a6b1c4106bcb19dc4fe44715b0839c7e376d03ae0",
    "side-vs-data-1bit":
        "3c67eefc32436d809c0ca425ca104e671a8f3c0244369c7739216f041165127e",
    "side-vs-data-2bit":
        "a245f77cdaee6d6e3239971d5698cefd0179334113885fe4c178313e5def060b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    assert CASES[name]() == PINS[name]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
