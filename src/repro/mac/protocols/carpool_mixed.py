"""Carpool in a mixed network: Carpool STAs + legacy STAs on one AP (§4.3).

The AP speaks Carpool only to stations that negotiated it at association
time, and plain 802.11 to everyone else. The oldest pending frame decides
the mode of the next access: if it belongs to a legacy station the AP
sends a single legacy frame; otherwise it builds a Carpool aggregate over
the Carpool-capable backlog (legacy frames stay queued — their turn comes
when one of them becomes the oldest).
"""

from __future__ import annotations

from repro.mac.node import Node
from repro.mac.protocols.base import Transmission
from repro.mac.protocols.carpool import CarpoolProtocol

__all__ = ["CarpoolMixedProtocol"]


class CarpoolMixedProtocol(CarpoolProtocol):
    """Carpool for capable stations, 802.11 unicast for legacy ones."""

    name = "Carpool-mixed"

    def __init__(self, params, limits=None, carpool_stations=()):
        super().__init__(params, limits)
        self.carpool_stations = set(carpool_stations)

    def is_carpool(self, destination: str) -> bool:
        """Does ``destination`` currently speak Carpool?

        The single capability gate: subclasses (e.g. the fault-hardened
        fallback protocol) override this to demote degraded receivers.
        """
        return destination in self.carpool_stations

    def _oldest_is_legacy(self, node: Node) -> bool:
        oldest = min(node.queue, key=lambda f: (not f.delay_sensitive, f.arrival_time))
        return not self.is_carpool(oldest.destination)

    def ready_time(self, ap: Node, now: float) -> float:
        """Legacy-headed queues contend immediately; Carpool backlogs may wait."""
        if self._oldest_is_legacy(ap):
            return now  # legacy frames never wait for aggregation
        return super().ready_time(ap, now)

    def build(self, node: Node, now: float) -> Transmission:
        """Serve the oldest frame's population: legacy unicast or Carpool batch."""
        if self._oldest_is_legacy(node):
            # Pop the oldest legacy frame specifically, then ship it alone.
            oldest = min(
                node.queue, key=lambda f: (not f.delay_sensitive, f.arrival_time)
            )
            node.queue.remove(oldest)
            node.queue.appendleft(oldest)
            return self.build_single(node)
        # Aggregate only the Carpool-capable backlog: hide legacy frames
        # from the selector, then put every unshipped frame back in its
        # original order.
        queued = list(node.queue)
        node.queue.clear()
        node.queue.extend(f for f in queued if self.is_carpool(f.destination))
        transmission = super().build(node, now)
        shipped = {id(f) for sf in transmission.subframes for f in sf.frames}
        node.queue.clear()
        node.queue.extend(f for f in queued if id(f) not in shipped)
        return transmission
