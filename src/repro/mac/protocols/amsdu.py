"""A-MSDU: MAC service-unit aggregation with a single FCS.

The other 802.11n aggregation flavour (§9): sub-MSDUs for one receiver
share one MPDU and therefore one frame check sequence — a single symbol
error anywhere voids the *entire* aggregate, and everything retransmits.
The standard caps an A-MSDU at 7935 bytes.

This is the scheme whose goodput the paper's §7.2.2 text describes as
"tapering off quickly": without per-MPDU CRCs, the BER bias of long
frames under standard channel estimation is fatal rather than partial.
"""

from __future__ import annotations

from repro.mac.airtime import ack_train_airtime, frame_airtime
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.protocols.base import Protocol, SubframeTx, Transmission

__all__ = ["AmsduProtocol", "AMSDU_MAX_BYTES", "SUBHEADER_BYTES"]

AMSDU_MAX_BYTES = 7935
SUBHEADER_BYTES = 14  # per-MSDU subframe header (DA/SA/length)


class AmsduProtocol(Protocol):
    """Single-receiver aggregation, one CRC for the whole aggregate."""

    name = "A-MSDU"
    uses_rte = False

    def build(self, node: Node, now: float) -> Transmission:
        """Aggregate the head destination's frames under a single FCS."""
        head: MacFrame = node.queue[0]
        destination = head.destination
        chosen = []
        total = 0
        remaining = []
        for frame in node.queue:
            cost = frame.size_bytes + SUBHEADER_BYTES
            if frame.destination == destination and (
                not chosen or total + cost <= AMSDU_MAX_BYTES
            ):
                chosen.append(frame)
                total += cost
            else:
                remaining.append(frame)
        node.queue.clear()
        node.queue.extend(remaining)

        # One subframe = one CRC: all frames live or die together.
        n_symbols = self.payload_symbols(total, destination)
        return Transmission(
            node_name=node.name,
            airtime=frame_airtime(n_symbols, self.params),
            ack_time=ack_train_airtime(1, self.params),
            subframes=[
                SubframeTx(
                    destination=destination,
                    frames=chosen,
                    start_symbol=0,
                    n_symbols=n_symbols,
                    rte=False,
                )
            ],
        )
