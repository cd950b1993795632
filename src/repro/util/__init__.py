"""Shared utilities: seeded RNG streams, bit packing, unit constants.

Append-only JSONL files (one torn-tail rule) live in :mod:`repro.util.jsonl`.
"""

from repro.util.bits import (
    bits_to_bytes,
    bytes_to_bits,
    bits_to_int,
    int_to_bits,
    hamming_distance,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.units import (
    KILO,
    MEGA,
    GIGA,
    MICROSECOND,
    MILLISECOND,
    db_to_linear,
    linear_to_db,
    dbm_to_watts,
    watts_to_dbm,
)

__all__ = [
    "bits_to_bytes",
    "bytes_to_bits",
    "bits_to_int",
    "int_to_bits",
    "hamming_distance",
    "RngStream",
    "derive_seed",
    "KILO",
    "MEGA",
    "GIGA",
    "MICROSECOND",
    "MILLISECOND",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
]
