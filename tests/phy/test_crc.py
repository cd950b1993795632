import binascii

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.crc import crc32, crc_bits
from repro.util.bits import bytes_to_bits


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def crc32_bits(bits: np.ndarray) -> int:
    """CRC-32 over a byte-aligned bit array — the 802.11/Ethernet FCS.

    Uses the standard *reflected* convention (bits of each byte processed
    LSB first, output bit-reversed), matching ``binascii.crc32``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8 != 0:
        raise ValueError("CRC-32 input must be byte-aligned")
    reflected = bits.reshape(-1, 8)[:, ::-1].reshape(-1)
    register = crc_bits(reflected, poly=0x04C11DB7, width=32, init=0xFFFFFFFF)
    return _reflect(register, 32) ^ 0xFFFFFFFF


def crc8_bits(bits: np.ndarray) -> int:
    """CRC-8 with polynomial x^8 + x^2 + x + 1 (0x07)."""
    return crc_bits(bits, poly=0x07, width=8)


def crc2_bits(bits: np.ndarray) -> int:
    """CRC-2 with polynomial x^2 + x + 1 (0x3) — Carpool's per-symbol checksum."""
    return crc_bits(bits, poly=0x3, width=2)


def crc1_bits(bits: np.ndarray) -> int:
    """CRC-1: plain parity — the 1-bit side-channel variant."""
    return int(np.asarray(bits, dtype=np.uint8).sum() & 1)


class TestCrc32:
    @given(st.binary(min_size=0, max_size=64))
    def test_matches_zlib(self, data):
        """The bit-level oracle agrees with the stdlib (which ``crc32`` is)."""
        assert crc32_bits(bytes_to_bits(data)) == binascii.crc32(data)

    def test_known_vector(self):
        # The classic check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_detects_single_bit_flip(self):
        data = bytes(range(32))
        bits = bytes_to_bits(data)
        reference = crc32_bits(bits)
        for pos in (0, 100, bits.size - 1):
            flipped = bits.copy()
            flipped[pos] ^= 1
            assert crc32_bits(flipped) != reference


class TestSmallCrcs:
    def test_crc1_is_parity(self):
        assert crc1_bits(np.array([1, 1, 0], dtype=np.uint8)) == 0
        assert crc1_bits(np.array([1, 0, 0], dtype=np.uint8)) == 1

    def test_crc2_range(self):
        rng = np.random.default_rng(0)
        values = {crc2_bits(rng.integers(0, 2, 100, dtype=np.uint8)) for _ in range(50)}
        assert values <= {0, 1, 2, 3}
        assert len(values) > 1

    def test_crc2_detects_all_single_bit_errors(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        ref = crc2_bits(bits)
        for pos in range(bits.size):
            flipped = bits.copy()
            flipped[pos] ^= 1
            assert crc2_bits(flipped) != ref, f"missed flip at {pos}"

    def test_crc8_detects_all_single_bit_errors(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        ref = crc8_bits(bits)
        for pos in range(bits.size):
            flipped = bits.copy()
            flipped[pos] ^= 1
            assert crc8_bits(flipped) != ref

    def test_crc2_random_error_miss_rate_near_quarter(self):
        """A 2-bit CRC passes a random corruption with probability ≈ 1/4."""
        rng = np.random.default_rng(3)
        misses = 0
        trials = 2000
        for _ in range(trials):
            bits = rng.integers(0, 2, 48, dtype=np.uint8)
            corrupted = rng.integers(0, 2, 48, dtype=np.uint8)
            if np.array_equal(bits, corrupted):
                continue
            if crc2_bits(bits) == crc2_bits(corrupted):
                misses += 1
        assert misses / trials == pytest.approx(0.25, abs=0.05)
