"""Shared machinery for multi-receiver aggregation (Carpool, MU-Aggregation).

Both schemes feed frames for several receivers into one PHY transmission
and collect sequential ACKs; they differ in header format and in whether
receivers decode with RTE.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.mac.airtime import ack_train_airtime, frame_airtime
from repro.mac.node import Node
from repro.mac.protocols.base import AggregationLimits, Protocol, SubframeTx, Transmission

__all__ = ["select_multi_receiver_batch", "MultiReceiverProtocol"]


def default_selection_key(frame):
    """Delay-sensitive first, then FIFO — the §8 default priority rule."""
    return (not frame.delay_sensitive, frame.arrival_time, frame.frame_id)


def select_multi_receiver_batch(node: Node, limits: AggregationLimits,
                                max_total_frames: int | None = None,
                                selection_key=default_selection_key) -> "OrderedDict":
    """Pop up to ``max_receivers`` destinations' worth of frames.

    Delay-sensitive frames first, then FIFO — the §8 priority rule. The
    first frame always ships so an oversized head can never wedge the
    queue. Per-subframe limits honour the 12-bit SIG LENGTH
    (``max_subframe_bytes``) and the per-receiver Block Ack window
    (``max_mpdus``); ``max_total_frames`` additionally caps the whole
    aggregate (MU-Aggregation shares one Block Ack window across receivers).
    Returns destination → [frames] in subframe order.
    """
    ordered = sorted(node.queue, key=selection_key)
    chosen: "OrderedDict[str, list]" = OrderedDict()
    per_destination_bytes: dict = {}
    total = 0
    count = 0
    taken = set()
    for frame in ordered:
        if max_total_frames is not None and count >= max_total_frames and chosen:
            break
        is_new = frame.destination not in chosen
        if is_new and len(chosen) >= limits.max_receivers:
            continue
        if chosen and total + frame.size_bytes > limits.max_frame_bytes:
            continue
        dest_bytes = per_destination_bytes.get(frame.destination, 0)
        if chosen and dest_bytes + frame.size_bytes > limits.max_subframe_bytes:
            continue
        if frame.destination in chosen and len(chosen[frame.destination]) >= limits.max_mpdus:
            continue
        chosen.setdefault(frame.destination, []).append(frame)
        per_destination_bytes[frame.destination] = dest_bytes + frame.size_bytes
        taken.add(frame.frame_id)
        total += frame.size_bytes
        count += 1
    kept = [f for f in node.queue if f.frame_id not in taken]
    node.queue.clear()
    node.queue.extend(kept)
    return chosen


class MultiReceiverProtocol(Protocol):
    """Base for schemes that aggregate across receivers.

    Subclasses set :attr:`uses_rte`, :attr:`header_symbols` (frame-level
    header, e.g. Carpool's 2-symbol A-HDR), :attr:`subframe_header_symbols`
    (per-subframe symbols, e.g. Carpool's SIG) and
    :attr:`subframe_header_bytes` (per-subframe byte overhead at the data
    rate, e.g. MU-Aggregation's explicit address headers).
    """

    header_symbols: int = 0
    subframe_header_symbols: int = 0
    subframe_header_bytes: int = 0
    #: Cap on frames per aggregate, across receivers (None = per-subframe
    #: limits only). MU-Aggregation shares one Block Ack window.
    max_total_frames: int | None = None

    def ready_time(self, ap: Node, now: float) -> float:
        """Hold back until the aggregate fills or its oldest frame's deadline (§7.2)."""
        if ap.pending_bytes >= self.limits.max_frame_bytes:
            return now
        if len({f.destination for f in ap.queue}) >= self.limits.max_receivers:
            return now
        return max(now, ap.oldest_arrival() + self.limits.max_latency)

    def selection_key(self, frame):
        """Frame-ordering hook; fairness-aware subclasses override this."""
        return default_selection_key(frame)

    def build(self, ap: Node, now: float) -> Transmission:
        """Select a multi-receiver batch and lay it out as subframes."""
        batch = select_multi_receiver_batch(
            ap, self.limits, self.max_total_frames, self.selection_key
        )
        subframes = []
        cursor = self.header_symbols
        for destination, frames in batch.items():
            cursor += self.subframe_header_symbols
            nbytes = sum(f.size_bytes for f in frames) + self.subframe_header_bytes
            n_symbols = self.payload_symbols(nbytes, destination)
            subframes.append(
                SubframeTx(
                    destination=destination,
                    frames=frames,
                    start_symbol=cursor,
                    n_symbols=n_symbols,
                    rte=self.uses_rte,
                )
            )
            cursor += n_symbols
        return Transmission(
            node_name=ap.name,
            airtime=frame_airtime(cursor, self.params),
            ack_time=ack_train_airtime(len(subframes), self.params),
            subframes=subframes,
        )
