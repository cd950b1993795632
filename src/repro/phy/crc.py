"""CRC generators used across the frame formats.

* CRC-32 — the 802.11 frame check sequence appended to MAC payloads
  (:func:`crc32`, over bytes).
* The tiny per-symbol checksums Carpool carries in the phase-offset side
  channel (paper §5.2: a 2-bit CRC per OFDM symbol gives the best
  reliability/granularity trade-off): :func:`crc_bits` and its batched
  form :func:`crc_contribution_table`, which operate on 0/1 bit arrays so
  they compose directly with the PHY bit pipeline.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

__all__ = [
    "crc_bits",
    "crc_contribution_table",
    "crc32",
]


def crc_bits(bits: np.ndarray, poly: int, width: int, init: int = 0) -> int:
    """Generic MSB-first CRC over a bit array.

    Args:
        bits: 0/1 input bits.
        poly: Generator polynomial without the leading x^width term.
        width: CRC width in bits.
        init: Initial register value.
    """
    register = init & ((1 << width) - 1)
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    for bit in np.asarray(bits, dtype=np.uint8):
        fed = ((register & top) >> (width - 1)) ^ int(bit)
        register = ((register << 1) & mask)
        if fed:
            register ^= poly
    return register


@lru_cache(maxsize=None)
def _contribution_cached(length: int, poly: int, width: int) -> np.ndarray:
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    shifts = np.arange(width - 1, 0 - 1, -1)
    table = np.empty((length, width), dtype=np.uint8)
    # CRC (init=0) of the single bit stream [1]: feeding a 1 into an empty
    # register leaves exactly the polynomial. Moving that 1 one position
    # earlier in the stream appends a trailing zero, i.e. one zero-feed
    # step of the LFSR — so the table fills from the last position back.
    register = poly & mask
    for position in range(length - 1, -1, -1):
        table[position] = (register >> shifts) & 1
        register = ((register << 1) & mask) ^ (poly if register & top else 0)
    table.setflags(write=False)
    return table


def crc_contribution_table(length: int, poly: int, width: int) -> np.ndarray:
    """Per-bit CRC contributions for ``length``-bit inputs (init = 0).

    Row ``j`` is ``crc_bits(e_j, poly, width)`` as a width-bit MSB-first
    array, where ``e_j`` is the unit input with a single 1 at position
    ``j``. With a zero initial register the CRC is GF(2)-linear, so the
    checksum of any input is the XOR of the rows its set bits select —
    which turns a whole batch of CRCs into one integer matmul::

        checksums = (bits_matrix.astype(np.int64) @ table) & 1

    bit-identical to calling :func:`crc_bits` per row. Cached per
    ``(length, poly, width)``; returned read-only.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return _contribution_cached(int(length), int(poly), int(width))


def crc32(data: bytes) -> int:
    """CRC-32 over bytes — the 802.11 FCS.

    The stdlib's table-driven CRC-32; the tests check it against a
    bit-level oracle built on :func:`crc_bits`.
    """
    return zlib.crc32(data)
