"""The vectorised coding paths must be bit-exact vs per-bit references.

``conv_encode``/``viterbi_decode`` are table-driven block operations; the
original per-bit implementations live here as ``*_reference`` oracles.
These property tests drive both through random messages, bit flips
standing in for channel errors, every puncturing rate, terminated and
open trellises, and degenerate tiny frames — and require exact agreement
everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import coding
from repro.phy.coding import (
    RATE_1_2,
    RATE_2_3,
    RATE_3_4,
    CodeRate,
    conv_encode,
    viterbi_decode,
)

RATES = {"1/2": RATE_1_2, "2/3": RATE_2_3, "3/4": RATE_3_4}


def conv_encode_reference(bits: np.ndarray, rate: CodeRate = RATE_1_2) -> np.ndarray:
    """The original per-bit table-walk encoder."""
    bits = np.asarray(bits, dtype=np.uint8)
    state = 0
    mother = np.empty((bits.size, 2), dtype=np.uint8)
    for i, bit in enumerate(bits):
        mother[i, 0] = coding._OUTPUTS[state, bit, 0]
        mother[i, 1] = coding._OUTPUTS[state, bit, 1]
        state = coding._NEXT_STATE[state, bit]
    period = rate.pattern.shape[1]
    if bits.size % period != 0:
        raise ValueError(
            f"input length {bits.size} not a multiple of puncture period {period}"
        )
    keep = np.tile(rate.pattern.T, (bits.size // period, 1)).astype(bool)
    return mother[keep.reshape(bits.size, 2)].reshape(-1)


def viterbi_decode_reference(
    coded: np.ndarray,
    data_bits: int,
    rate: CodeRate = RATE_1_2,
    terminated: bool = True,
) -> np.ndarray:
    """The original per-bit decoder."""
    coded = np.asarray(coded, dtype=np.uint8)
    expected = rate.coded_bits(data_bits)
    if coded.size != expected:
        raise ValueError(f"expected {expected} coded bits, got {coded.size}")
    grid, mask = coding._depuncture(coded, rate, data_bits)

    inf = np.float64(1e18)
    metrics = np.full(coding._NUM_STATES, inf)
    metrics[0] = 0.0
    survivors = np.empty((data_bits, coding._NUM_STATES), dtype=np.uint8)

    # Branch metrics: hamming distance between received pair and the branch
    # output, counting only non-erased positions.
    prev0 = coding._PREV_STATE[:, 0]
    prev1 = coding._PREV_STATE[:, 1]
    bit0 = coding._PREV_BIT[:, 0]
    bit1 = coding._PREV_BIT[:, 1]
    out0 = coding._OUTPUTS[prev0, bit0]  # (64, 2) outputs along first predecessor
    out1 = coding._OUTPUTS[prev1, bit1]

    for i in range(data_bits):
        rx = grid[i]
        ok = mask[i]
        bm0 = ((out0 != rx) & ok).sum(axis=1)
        bm1 = ((out1 != rx) & ok).sum(axis=1)
        cand0 = metrics[prev0] + bm0
        cand1 = metrics[prev1] + bm1
        choose1 = cand1 < cand0
        metrics = np.where(choose1, cand1, cand0)
        survivors[i] = choose1.astype(np.uint8)

    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.empty(data_bits, dtype=np.uint8)
    for i in range(data_bits - 1, -1, -1):
        which = survivors[i, state]
        decoded[i] = coding._PREV_BIT[state, which]
        state = coding._PREV_STATE[state, which]
    return decoded


def _message(rng: np.random.Generator, rate, max_periods: int) -> np.ndarray:
    period = rate.pattern.shape[1]
    n_bits = period * int(rng.integers(1, max_periods + 1))
    return rng.integers(0, 2, n_bits).astype(np.uint8)


@pytest.mark.parametrize("rate_name", sorted(RATES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_encoder_matches_reference(rate_name, seed):
    rate = RATES[rate_name]
    rng = np.random.default_rng(seed)
    message = _message(rng, rate, max_periods=200)
    assert np.array_equal(conv_encode(message, rate),
                          conv_encode_reference(message, rate))


@pytest.mark.parametrize("rate_name", sorted(RATES))
@pytest.mark.parametrize("terminated", [True, False])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_decoder_matches_reference(rate_name, terminated, seed):
    rate = RATES[rate_name]
    rng = np.random.default_rng(seed)
    message = _message(rng, rate, max_periods=60)
    if terminated:
        message[-coding.CONSTRAINT_LENGTH + 1 :] = 0
    coded = conv_encode(message, rate)
    # Random channel errors, up to a heavy 20 % flip rate.
    flips = rng.random(coded.size) < rng.uniform(0.0, 0.2)
    received = coded ^ flips.astype(np.uint8)
    fast = viterbi_decode(received, message.size, rate, terminated=terminated)
    reference = viterbi_decode_reference(received, message.size, rate,
                                         terminated=terminated)
    assert np.array_equal(fast, reference)


@pytest.mark.parametrize("rate_name", sorted(RATES))
def test_tiny_frames_match_reference(rate_name):
    """Frames shorter than the constraint length exercise degenerate paths."""
    rate = RATES[rate_name]
    period = rate.pattern.shape[1]
    rng = np.random.default_rng(7)
    for n_periods in (1, 2):
        n_bits = period * n_periods
        for _ in range(20):
            received = rng.integers(0, 2, rate.coded_bits(n_bits)).astype(np.uint8)
            for terminated in (True, False):
                fast = viterbi_decode(received, n_bits, rate,
                                      terminated=terminated)
                ref = viterbi_decode_reference(received, n_bits, rate,
                                               terminated=terminated)
                assert np.array_equal(fast, ref), (rate_name, n_bits, terminated)


def test_all_zero_and_all_one_inputs():
    """Adversarial constant inputs create massive metric ties — the
    tie-break rule must match the reference exactly."""
    for rate in RATES.values():
        period = rate.pattern.shape[1]
        n_bits = period * 40
        for value in (0, 1):
            received = np.full(rate.coded_bits(n_bits), value, dtype=np.uint8)
            for terminated in (True, False):
                fast = viterbi_decode(received, n_bits, rate,
                                      terminated=terminated)
                ref = viterbi_decode_reference(received, n_bits, rate,
                                               terminated=terminated)
                assert np.array_equal(fast, ref)


def test_clean_roundtrip_all_rates():
    rng = np.random.default_rng(3)
    for rate in RATES.values():
        message = _message(rng, rate, max_periods=100)
        message[-coding.CONSTRAINT_LENGTH + 1 :] = 0
        decoded = viterbi_decode(conv_encode(message, rate), message.size, rate)
        assert np.array_equal(decoded, message)
