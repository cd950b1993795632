import binascii

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.crc import crc1_bits, crc2_bits, crc8_bits, crc32, crc32_bits
from repro.util.bits import bytes_to_bits


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
