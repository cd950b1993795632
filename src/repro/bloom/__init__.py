"""Bloom filters: the data structure behind Carpool's aggregation header."""

from repro.bloom.coded import PositionalBloomFilter, false_positive_ratio, optimal_num_hashes
from repro.bloom.hashing import HashSet, hash_positions

__all__ = [
    "PositionalBloomFilter",
    "false_positive_ratio",
    "optimal_num_hashes",
    "HashSet",
    "hash_positions",
]
