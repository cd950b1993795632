"""A-MPDU: IEEE 802.11n MAC aggregation for a single receiver.

The AP merges the queued frames of *one* destination — the head of the
FIFO — into one PHY frame (up to 64 KB / the latency deadline), answered by
a single block ACK. Each MPDU has its own delimiter+CRC, so decode failures
are per-MPDU and only failed MPDUs are retransmitted.

The single-receiver restriction is the scheme's weakness in large audience
environments: with many STAs each holding a few small frames, aggregates
stay short and every other STA's traffic waits for its own channel access
(§7.2.2).
"""

from __future__ import annotations

from repro.mac.airtime import ack_train_airtime, frame_airtime
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.protocols.base import Protocol, SubframeTx, Transmission

__all__ = ["AmpduProtocol", "MPDU_DELIMITER_BYTES"]

MPDU_DELIMITER_BYTES = 4


class AmpduProtocol(Protocol):
    """The "A-MPDU" baseline of Figs. 15–17."""

    name = "A-MPDU"
    uses_rte = False

    def build(self, node: Node, now: float) -> Transmission:
        """Aggregate the head destination's frames into one A-MPDU."""
        head: MacFrame = node.queue[0]
        destination = head.destination
        chosen = []
        total = 0
        remaining = []
        for frame in node.queue:
            cost = frame.size_bytes + MPDU_DELIMITER_BYTES
            if (
                frame.destination == destination
                and len(chosen) < self.limits.max_mpdus
                and (not chosen or total + cost <= self.limits.max_frame_bytes)
            ):
                chosen.append(frame)
                total += cost
            else:
                remaining.append(frame)
        node.queue.clear()
        node.queue.extend(remaining)

        subframes = []
        cursor = 0
        for frame in chosen:
            n_symbols = self.payload_symbols(
                frame.size_bytes + MPDU_DELIMITER_BYTES, destination
            )
            subframes.append(
                SubframeTx(
                    destination=destination,
                    frames=[frame],
                    start_symbol=cursor,
                    n_symbols=n_symbols,
                    rte=False,
                )
            )
            cursor += n_symbols
        return Transmission(
            node_name=node.name,
            airtime=frame_airtime(cursor, self.params),
            ack_time=ack_train_airtime(1, self.params),
            subframes=subframes,
        )
