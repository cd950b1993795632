"""Carpool: multi-receiver PHY aggregation with RTE and sequential ACK."""

from __future__ import annotations

from repro.core.ahdr import AHDR_SYMBOLS
from repro.mac.protocols.multi_receiver import MultiReceiverProtocol

__all__ = ["CarpoolProtocol"]


class CarpoolProtocol(MultiReceiverProtocol):
    """The paper's scheme.

    * Frame-level header: the 2-symbol Bloom-filter A-HDR.
    * Per-subframe header: one SIG symbol (length + MCS).
    * Receivers decode with real-time channel estimation, so long
      aggregates stay reliable (the ``rte=True`` flag routes subframe
      error draws to the flat RTE curve).
    * ACKs return sequentially, one slot per receiver.
    """

    name = "Carpool"
    uses_rte = True
    header_symbols = AHDR_SYMBOLS
    subframe_header_symbols = 1  # each subframe's SIG
    subframe_header_bytes = 0
