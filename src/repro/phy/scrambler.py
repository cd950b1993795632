"""The 802.11 frame-synchronous data scrambler (x^7 + x^4 + 1).

The scrambler whitens the payload bit stream so long runs of identical bits
do not produce spectral lines. It is self-inverse: scrambling twice with the
same seed recovers the input, which is also how descrambling works.

Carpool relies on one property of the standard: the SIG field is *not*
scrambled, so a receiver can decode any subframe's SIG (to learn its length)
without knowing the scrambler state of earlier payload — see paper §4.1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["SCRAMBLER_SEED", "scramble", "descramble", "scrambler_sequence"]

_ORDER = 7
_PERIOD = (1 << _ORDER) - 1  # maximal-length LFSR: period 127 for any seed

#: The initial LFSR state every payload is scrambled with: the example
#: seed from the standard's Annex (state bit 6 is x^7).
SCRAMBLER_SEED = 0b1011101


@lru_cache(maxsize=None)
def _one_period(seed: int) -> np.ndarray:
    """One 127-bit period of the LFSR output for ``seed`` (read-only)."""
    state = [(seed >> i) & 1 for i in range(_ORDER)]  # state[6] = x^7 tap
    out = np.empty(_PERIOD, dtype=np.uint8)
    for i in range(_PERIOD):
        fed_back = state[6] ^ state[3]
        out[i] = fed_back
        state = [fed_back] + state[:-1]
    out.setflags(write=False)
    return out


def scrambler_sequence(length: int, seed: int = SCRAMBLER_SEED) -> np.ndarray:
    """Generate ``length`` bits of the x^7 + x^4 + 1 LFSR output.

    ``seed`` is the initial 7-bit state, state bit 6 being x^7; any
    non-zero 7-bit value is legal. The LFSR is maximal-length (period 127),
    so one cached period per seed is tiled to any requested length.
    """
    if not 0 < seed < (1 << _ORDER):
        raise ValueError("seed must be a non-zero 7-bit value")
    base = _one_period(seed)
    if length <= _PERIOD:
        return base[:length].copy()
    repeats = -(-length // _PERIOD)
    return np.tile(base, repeats)[:length]


def scramble(bits: np.ndarray, seed: int = SCRAMBLER_SEED) -> np.ndarray:
    """XOR ``bits`` with the scrambler sequence."""
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ scrambler_sequence(bits.size, seed)


def descramble(bits: np.ndarray, seed: int = SCRAMBLER_SEED) -> np.ndarray:
    """Inverse of :func:`scramble` (same operation, by construction)."""
    return scramble(bits, seed)
