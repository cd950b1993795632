"""Carrier frequency offset (CFO) estimation and compensation.

A CFO of Δf Hz rotates every OFDM symbol by an extra 2π·Δf·T_sym radians
relative to the previous one. The receiver estimates this per-symbol phase
step from the two identical LTF symbols and de-rotates subsequent symbols.
What survives the correction — the *residual* frequency error — accumulates
phase across the frame and is what the per-symbol pilot phase tracking (and
Carpool's differential side-channel encoding) must absorb (paper §5.2).
"""

from __future__ import annotations

import numpy as np

from repro.phy.constants import SYMBOL_DURATION_20MHZ

__all__ = [
    "estimate_cfo_from_ltf",
    "phase_step_from_cfo",
    "cfo_from_phase_step",
]


def estimate_cfo_from_ltf(ltf1: np.ndarray, ltf2: np.ndarray,
                          symbol_duration: float = SYMBOL_DURATION_20MHZ) -> float:
    """Estimate CFO in Hz from two received repetitions of the LTF.

    Both repetitions see the same channel, so the angle of the coherent
    cross-correlation is the inter-symbol phase step caused by CFO.
    Unambiguous up to ±1/(2·T_sym) (±125 kHz at 20 MHz), far beyond the
    ±40 ppm oscillator spec.
    """
    correlation = np.sum(np.asarray(ltf2) * np.conj(np.asarray(ltf1)))
    phase_step = float(np.angle(correlation))
    return cfo_from_phase_step(phase_step, symbol_duration)


def phase_step_from_cfo(cfo_hz: float, symbol_duration: float = SYMBOL_DURATION_20MHZ) -> float:
    """Per-OFDM-symbol phase increment (radians) for a given CFO."""
    return 2.0 * np.pi * cfo_hz * symbol_duration


def cfo_from_phase_step(phase_step: float, symbol_duration: float = SYMBOL_DURATION_20MHZ) -> float:
    """Inverse of :func:`phase_step_from_cfo`."""
    return phase_step / (2.0 * np.pi * symbol_duration)
