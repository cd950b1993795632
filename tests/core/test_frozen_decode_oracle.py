"""The stacked frozen-estimate decoder against a per-symbol reference.

``decode_subframe_symbols_frozen_batch`` is the only frozen-estimate
subframe decoder. ``_reference`` decodes one frame symbol by symbol with
the scalar primitives (``equalize``, ``track_and_compensate``,
``demodulate``, then ``check_group`` per group); every trial of a stack
must match it exactly, in all four outputs. The block CRC helpers the
stacked decoder uses are checked row by row against their scalar forms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receiver import decode_subframe_symbols_frozen_batch
from repro.core.side_channel import ONE_BIT_SCHEME, TWO_BIT_SCHEME
from repro.core.symbol_crc import (
    SymbolCrcConfig,
    crc_checksum_bits,
    crc_checksum_bits_block,
)
from repro.phy.channel_estimation import equalize
from repro.phy.constants import pilot_values
from repro.phy.mcs import mcs_by_name
from repro.phy.ofdm import assemble_symbol, split_symbol
from repro.phy.pilots import track_and_compensate

MCS_NAMES = ("BPSK-1/2", "QPSK-1/2", "QAM16-1/2", "QAM64-3/4")


def _reference(received, estimate, mcs, first_pilot_index, reference_phase,
               crc_config):
    n_symbols = received.shape[0]
    phases = np.empty(n_symbols)
    bits, side_bits = [], []
    previous = reference_phase
    for i in range(n_symbols):
        equalized, phases[i] = track_and_compensate(
            equalize(received[i], estimate), first_pilot_index + i)
        bits.append(mcs.modulation.demodulate(split_symbol(equalized)[0]))
        delta = float(np.angle(np.exp(1j * (phases[i] - previous))))
        side_bits.append(crc_config.scheme.decode_deltas(np.array([delta])))
        previous = phases[i]
    bit_matrix, side_bits = np.array(bits), np.array(side_bits)
    crc_pass = np.array([
        crc_config.check_group(crc_config.group_of(i), bit_matrix, side_bits)
        for i in range(n_symbols)
    ])
    return bit_matrix, side_bits, crc_pass, phases


def _received_frame(rng, mcs, crc_config, first_pilot_index, n_symbols):
    """One frame with CRC side bits injected, through a noisy flat channel."""
    bits = rng.integers(0, 2, (n_symbols, mcs.coded_bits_per_symbol),
                        dtype=np.uint8)
    side = crc_config.side_bits_for(bits)
    injected = crc_config.scheme.encode_phases(side.reshape(-1))
    symbols = np.stack([
        assemble_symbol(mcs.modulation.modulate(bits[i]),
                        pilot_values(first_pilot_index + i))
        for i in range(n_symbols)
    ]) * np.exp(1j * (injected + rng.uniform(-np.pi, np.pi)))[:, None]
    channel = rng.normal(size=52) + 1j * rng.normal(size=52)
    channel[rng.integers(0, 52)] = 0.0  # one dead subcarrier
    noise = rng.uniform(0.0, 0.4) * (rng.normal(size=symbols.shape)
                                     + 1j * rng.normal(size=symbols.shape))
    estimate = channel * (1 + 0.05 * rng.normal(size=52))
    return symbols * channel + noise, estimate


@settings(max_examples=60, deadline=None)
@given(
    trials=st.integers(1, 5),
    n_symbols=st.integers(1, 40),
    granularity=st.integers(1, 3),
    scheme=st.sampled_from((ONE_BIT_SCHEME, TWO_BIT_SCHEME)),
    mcs_name=st.sampled_from(MCS_NAMES),
    first_pilot_index=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_decoder_matches_per_symbol_reference(
        trials, n_symbols, granularity, scheme, mcs_name, first_pilot_index,
        seed):
    rng = np.random.default_rng(seed)
    mcs = mcs_by_name(mcs_name)
    crc_config = SymbolCrcConfig(scheme=scheme, granularity=granularity)
    frames = [_received_frame(rng, mcs, crc_config, first_pilot_index,
                              n_symbols) for _ in range(trials)]
    received = np.stack([r for r, _ in frames])
    estimates = np.stack([e for _, e in frames])
    reference_phases = rng.uniform(-np.pi, np.pi, trials)

    stacked = decode_subframe_symbols_frozen_batch(
        received, estimates, mcs, first_pilot_index, reference_phases,
        crc_config)

    for t in range(trials):
        expected = _reference(received[t], estimates[t], mcs,
                              first_pilot_index, float(reference_phases[t]),
                              crc_config)
        assert len(stacked) == len(expected)
        for got, want in zip(stacked, expected):
            assert got[t].dtype == want.dtype
            assert np.array_equal(got[t], want)


@settings(max_examples=60, deadline=None)
@given(
    frames=st.integers(1, 5),
    n_symbols=st.integers(1, 12),
    granularity=st.integers(1, 3),
    scheme=st.sampled_from((ONE_BIT_SCHEME, TWO_BIT_SCHEME)),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_groups_block_matches_check_group(frames, n_symbols,
                                                granularity, scheme, seed):
    rng = np.random.default_rng(seed)
    crc_config = SymbolCrcConfig(scheme=scheme, granularity=granularity)
    bits = rng.integers(0, 2, (frames, n_symbols, 48), dtype=np.uint8)
    side = np.stack([crc_config.side_bits_for(b) for b in bits])
    # Flip some side bits so both verdicts occur.
    side ^= (rng.random(side.shape) < 0.1).astype(np.uint8)
    block = crc_config.check_groups_block(bits, side)
    for t in range(frames):
        for i in range(n_symbols):
            assert block[t, i] == crc_config.check_group(
                crc_config.group_of(i), bits[t], side[t])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    length=st.integers(1, 200),
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_crc_checksum_bits_block_matches_scalar(rows, length, width, seed):
    bits = np.random.default_rng(seed).integers(0, 2, (rows, length),
                                                dtype=np.uint8)
    block = crc_checksum_bits_block(bits, width)
    for r in range(rows):
        assert np.array_equal(block[r], crc_checksum_bits(bits[r], width))
