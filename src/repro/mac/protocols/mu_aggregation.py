"""MU-Aggregation: multi-receiver MAC aggregation *without* RTE.

The multi-user frame-aggregation proposals the paper compares against
([8], [13]): frames for several receivers share one transmission, with
each receiver indicated by an explicit per-subframe MAC header, and the
receivers decode with standard (preamble-only) channel estimation.

Two costs separate it from Carpool (§7.2.1):
* explicit addressing — each subframe carries a full MAC header
  (destination + length + sequence control ≈ 14 bytes) instead of sharing
  one 48-bit Bloom filter;
* no RTE — the long aggregated frame suffers the BER bias, so tail
  subframes fail disproportionately often and get retransmitted.
"""

from __future__ import annotations

from repro.mac.protocols.multi_receiver import MultiReceiverProtocol

__all__ = ["MuAggregationProtocol", "SUBFRAME_MAC_HEADER_BYTES"]

SUBFRAME_MAC_HEADER_BYTES = 14


class MuAggregationProtocol(MultiReceiverProtocol):
    """The "MU-Aggregation" baseline of Figs. 15–16."""

    name = "MU-Aggregation"
    uses_rte = False
    header_symbols = 0
    subframe_header_symbols = 0
    subframe_header_bytes = SUBFRAME_MAC_HEADER_BYTES
    # One Block Ack window shared across all receivers of the aggregate.
    max_total_frames = 64
