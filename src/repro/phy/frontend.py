"""Receiver front-end: preamble acquisition shared by all receivers.

Both the standard receiver and the Carpool receiver start the same way:
estimate CFO from the repeated LTF, de-rotate the whole frame, and take the
least-squares channel estimate from the LTF. Everything after that (SIG
walk, A-HDR, RTE) differs per receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.channel_estimation import estimate_from_ltf
from repro.phy.cfo import cfo_from_phase_step

__all__ = ["Acquisition", "acquire", "LTF_SLOTS"]

LTF_SLOTS = (2, 3)


@dataclass
class Acquisition:
    """Front-end output: CFO-corrected symbols and the preamble estimate."""

    derotated: np.ndarray  # (n_symbols, 52), CFO ramp removed
    channel_estimate: np.ndarray  # length-52 LTF estimate
    cfo_hz: float
    cfo_phase_step: float


def acquire(received_symbols: np.ndarray, symbol_duration: float | None = None) -> Acquisition:
    """Run CFO estimation + LTF channel estimation on a received frame.

    Args:
        received_symbols: (n_total, 52) with the standard preamble layout
            (STF at symbols 0–1, LTF at 2–3).
        symbol_duration: For reporting ``cfo_hz`` only; defaults to 20 MHz
            timing.
    """
    received_symbols = np.asarray(received_symbols, dtype=np.complex128)
    ltf1 = received_symbols[LTF_SLOTS[0]]
    ltf2 = received_symbols[LTF_SLOTS[1]]
    phase_step = float(np.angle(np.sum(ltf2 * np.conj(ltf1))))

    indices = np.arange(received_symbols.shape[0]) - LTF_SLOTS[0]
    derotated = received_symbols * np.exp(-1j * phase_step * indices)[:, None]
    channel = estimate_from_ltf(derotated[list(LTF_SLOTS)])
    if symbol_duration is None:
        cfo_hz = cfo_from_phase_step(phase_step)
    else:
        cfo_hz = cfo_from_phase_step(phase_step, symbol_duration)
    return Acquisition(
        derotated=derotated,
        channel_estimate=channel,
        cfo_hz=cfo_hz,
        cfo_phase_step=phase_step,
    )
