"""Pilot insertion and pilot-based phase tracking.

Every payload OFDM symbol carries four known pilot tones. The receiver uses
them to estimate the common phase rotation of the symbol (residual CFO plus
— in Carpool — the injected side-channel offset) and de-rotates the whole
symbol before demodulation. This is the "inherent phase tracking ability"
the paper's phase-offset side channel piggybacks on (§5.2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.phy.constants import PILOT_BASE_VALUES, PILOT_POLARITY, pilot_values
from repro.phy.ofdm import PILOT_POSITIONS

__all__ = [
    "insert_pilots",
    "estimate_phase_offset",
    "estimate_phase_offsets",
    "compensate_phase",
    "track_and_compensate",
    "track_and_compensate_block",
    "pilot_reference_matrix",
]


def insert_pilots(symbol_index: int) -> np.ndarray:
    """Pilot tone values for the given OFDM symbol index (0 = SIG)."""
    return pilot_values(symbol_index).astype(np.complex128)


def estimate_phase_offset(equalized_used: np.ndarray, symbol_index: int) -> float:
    """Estimate the common phase rotation of one equalized symbol.

    Correlates the received pilot tones against their known values; the
    angle of the coherent sum is the maximum-likelihood common phase. The
    estimate's accuracy depends on pilot SNR only — not on the amount of
    rotation — which is why Carpool's injected offsets do not degrade it.
    """
    expected = insert_pilots(symbol_index)
    received = np.asarray(equalized_used)[PILOT_POSITIONS]
    correlation = np.sum(received * np.conj(expected))
    return float(np.angle(correlation))


def compensate_phase(used: np.ndarray, phase: float) -> np.ndarray:
    """De-rotate a used-subcarrier vector by ``phase`` radians."""
    return np.asarray(used) * np.exp(-1j * phase)


def track_and_compensate(equalized_used: np.ndarray, symbol_index: int):
    """Estimate and remove the common phase; returns ``(compensated, phase)``."""
    phase = estimate_phase_offset(equalized_used, symbol_index)
    return compensate_phase(equalized_used, phase), phase


@lru_cache(maxsize=None)
def _pilot_reference_cached(first_index: int, n_symbols: int) -> np.ndarray:
    indices = (first_index + np.arange(n_symbols)) % PILOT_POLARITY.size
    reference = (
        PILOT_BASE_VALUES[None, :] * PILOT_POLARITY[indices][:, None]
    ).astype(np.complex128)
    reference.setflags(write=False)
    return reference

def pilot_reference_matrix(first_index: int, n_symbols: int) -> np.ndarray:
    """Expected pilot values for ``n_symbols`` consecutive OFDM symbols.

    Row ``i`` equals :func:`insert_pilots`\\ ``(first_index + i)``. Cached
    (the polarity sequence has period 127, so the cache stays small) and
    returned read-only.
    """
    return _pilot_reference_cached(int(first_index) % PILOT_POLARITY.size,
                                   int(n_symbols))


def estimate_phase_offsets(equalized_block: np.ndarray, first_index: int) -> np.ndarray:
    """Common-phase estimates for a whole block of equalized symbols.

    Vectorised :func:`estimate_phase_offset` over an (..., n_symbols, 52)
    block whose rows have consecutive pilot-polarity indices starting at
    ``first_index`` (any leading axes, e.g. a stack of trials, share that
    indexing); returns (..., n_symbols) phases, bit-identical to the
    per-symbol loop.
    """
    equalized_block = np.asarray(equalized_block)
    expected = pilot_reference_matrix(first_index, equalized_block.shape[-2])
    # Fancy indexing leaves the pilot axis outermost in memory; made
    # contiguous, every row sums its four pilots in the same order as the
    # per-symbol form, whatever the leading shape.
    received = np.ascontiguousarray(equalized_block[..., PILOT_POSITIONS])
    correlation = np.sum(received * np.conj(expected), axis=-1)
    return np.angle(correlation)


def track_and_compensate_block(equalized_block: np.ndarray, first_index: int):
    """Block form of :func:`track_and_compensate`.

    Returns ``(compensated, phases)`` for an (..., n_symbols, 52) block;
    each row is de-rotated by its own estimated common phase.
    """
    equalized_block = np.asarray(equalized_block)
    phases = estimate_phase_offsets(equalized_block, first_index)
    compensated = equalized_block * np.exp(-1j * phases)[..., None]
    return compensated, phases
