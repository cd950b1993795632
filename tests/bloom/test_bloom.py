import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import (
    HashSet,
    PositionalBloomFilter,
    false_positive_ratio,
    hash_positions,
    optimal_num_hashes,
)


class TestHashing:
    def test_deterministic(self):
        assert hash_positions(b"key", 0, 4, 48) == hash_positions(b"key", 0, 4, 48)

    def test_set_index_changes_positions(self):
        assert hash_positions(b"key", 0, 4, 48) != hash_positions(b"key", 1, 4, 48)

    def test_positions_in_range(self):
        for i in range(8):
            for pos in hash_positions(b"key%d" % i, i, 4, 48):
                assert 0 <= pos < 48

    def test_uniformity(self):
        counts = np.zeros(48)
        for i in range(3000):
            for pos in hash_positions(b"key%d" % i, 0, 1, 48):
                counts[pos] += 1
        # Each bit should receive ≈ 3000/48 = 62.5 hits.
        assert counts.min() > 30
        assert counts.max() < 100

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            hash_positions(b"k", 0, 0, 48)
        with pytest.raises(ValueError):
            hash_positions(b"k", 0, 4, 0)
        with pytest.raises(ValueError):
            HashSet(-1, 4, 48)


class TestPositionalBloom:
    def test_position_encoded(self):
        pbf = PositionalBloomFilter()
        macs = [b"\x02\x00\x00\x00\x00%c" % i for i in range(4)]
        for pos, mac in enumerate(macs):
            pbf.insert(mac, pos)
        for pos, mac in enumerate(macs):
            assert pbf.matches(mac, pos)

    def test_wrong_position_usually_no_match(self):
        pbf = PositionalBloomFilter()
        pbf.insert(b"abcdef", 0)
        # Hash set 5 was never used: matching would be a false positive
        # (possible but rare with a single insertion).
        assert not pbf.matches(b"abcdef", 5)

    def test_matching_positions_includes_truth(self):
        pbf = PositionalBloomFilter()
        macs = [b"%06d" % i for i in range(8)]
        for pos, mac in enumerate(macs):
            pbf.insert(mac, pos)
        for pos, mac in enumerate(macs):
            assert pos in pbf.matching_positions(mac, 8)

    def test_round_trip_bits(self):
        pbf = PositionalBloomFilter()
        pbf.insert(b"abcdef", 2)
        clone = PositionalBloomFilter.from_bits(pbf.to_bits())
        assert clone.matches(b"abcdef", 2)


class TestFalsePositiveAnalysis:
    def test_paper_range_for_4_to_8_receivers(self):
        """§4.1: the FP ratio ranges from ≈0.31 % (N=4, optimal h=8) to
        ≈5.59 % (N=8, h=4)."""
        assert false_positive_ratio(8, 4) == pytest.approx(0.0031, abs=0.0005)
        assert false_positive_ratio(4, 8) == pytest.approx(0.0559, abs=0.005)

    def test_optimal_h_formula(self):
        # h* = (48/N)·ln2: ≈ 4.16 for N=8.
        assert optimal_num_hashes(8) == pytest.approx(4.16, abs=0.01)

    def test_optimal_h_minimises(self):
        n = 8
        h_star = round(optimal_num_hashes(n))
        fp_star = false_positive_ratio(h_star, n)
        assert fp_star <= false_positive_ratio(h_star - 2, n)
        assert fp_star <= false_positive_ratio(h_star + 2, n)

    def test_zero_keys_zero_fp(self):
        assert false_positive_ratio(4, 0) == 0.0

    def test_monte_carlo_agrees_with_formula(self):
        """Empirical FP rate of the real filter matches the analysis."""
        rng = np.random.default_rng(0)
        n, h, trials = 8, 4, 400
        false_positives = 0
        probes = 0
        for t in range(trials):
            pbf = PositionalBloomFilter(num_hashes=h)
            for pos in range(n):
                pbf.insert(rng.bytes(6), pos)
            outsider = rng.bytes(6)
            for pos in range(n):
                probes += 1
                if pbf.matches(outsider, pos):
                    false_positives += 1
        expected = false_positive_ratio(h, n)
        assert false_positives / probes == pytest.approx(expected, abs=0.02)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            false_positive_ratio(0, 4)
        with pytest.raises(ValueError):
            optimal_num_hashes(0)
