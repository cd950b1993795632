"""WiFox: adaptive downlink prioritisation (no aggregation).

WiFox (Gupta, Min & Rhee, CoNEXT'12) attacks the traffic-asymmetry problem
purely by scheduling: when the AP's queue builds up, the AP contends with
higher priority (a smaller contention window), draining the downlink
backlog faster. It changes neither the PHY nor the frame format — each
channel access still carries one frame for one receiver — which is why it
beats plain 802.11 in the paper's Fig. 15 but stays well below the
aggregation schemes, and below Carpool in particular.

We model the priority as a contention-window scale stepped down as the AP
backlog grows, re-evaluated every engine round (:meth:`on_round`), before
any access — the queue-length-driven adaptive priority the WiFox paper
describes.
"""

from __future__ import annotations

from repro.mac.protocols.dot11 import Dot11Protocol

__all__ = ["WifoxProtocol"]


class WifoxProtocol(Dot11Protocol):
    """The "WiFox" baseline of Figs. 15–16."""

    name = "WiFox"
    uses_rte = False

    #: backlog (frames) → CW scale; deeper backlog, stronger priority.
    PRIORITY_STEPS = ((40, 0.125), (20, 0.25), (8, 0.5))

    def on_round(self, aps, now: float) -> None:
        """Re-evaluate each AP's priority from its backlog."""
        for ap in aps:
            backlog = len(ap.queue)
            scale = 1.0
            for threshold, step_scale in self.PRIORITY_STEPS:
                if backlog >= threshold:
                    scale = step_scale
                    break
            if scale != ap.cw_scale:
                ap.set_priority_scale(scale)
