"""Graceful degradation: Carpool that demotes struggling receivers.

Carpool's aggregate is a single point of failure under impairments its
design never anticipated — a corrupted A-HDR loses *every* subframe, a
bursty channel kills long aggregates disproportionately, and a lost
sequential ACK can desynchronise the whole ACK train. When that happens a
receiver is better served by plain 802.11 unicast, which carries none of
that shared-fate risk.

:class:`FallbackCarpoolProtocol` watches per-receiver subframe outcomes
through the engine's :meth:`on_exchange` event. When a
receiver's recent failure rate crosses ``failure_threshold`` the AP
*demotes* it to legacy unicast (exactly the coexistence path
:class:`CarpoolMixedProtocol` already implements for never-capable
stations). After ``cooldown`` seconds the receiver is re-promoted and
Carpool service resumes — if the impairment persists it will simply be
demoted again, giving a bounded duty cycle of probing.
"""

from __future__ import annotations

from collections import deque

from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.obs.trace import active_recorder

__all__ = ["FallbackCarpoolProtocol"]


class FallbackCarpoolProtocol(CarpoolMixedProtocol):
    """Carpool with per-receiver demotion to 802.11 unicast.

    Args:
        params: PHY/MAC constants.
        limits: Aggregation stop conditions.
        failure_threshold: Demote when the windowed subframe failure rate
            exceeds this.
        window: Number of recent subframe outcomes tracked per receiver.
        min_attempts: Outcomes required before the rate is trusted (avoids
            demoting on one unlucky subframe).
        fail_fast: Demote immediately after this many *consecutive*
            failures, regardless of the windowed rate. This is the path
            that reacts to outages: a receiver with a long success history
            would otherwise need ``window/2`` failures to move the rate,
            by which time the frame has burned its whole retry budget.
        cooldown: Seconds a demoted receiver stays on unicast before the
            AP probes Carpool again.
        carpool_stations: Optional capability whitelist; empty means every
            station negotiated Carpool (the pure-Carpool deployment).
    """

    name = "Carpool-fallback"

    def __init__(self, params, limits=None, failure_threshold=0.5,
                 window=20, min_attempts=4, fail_fast=3, cooldown=0.25,
                 carpool_stations=()):
        super().__init__(params, limits, carpool_stations=carpool_stations)
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_attempts = min_attempts
        self.fail_fast = fail_fast
        self.cooldown = cooldown
        self._history: dict = {}  # destination -> deque of bool outcomes
        self._streak: dict = {}  # destination -> consecutive failures
        self._demoted: dict = {}  # destination -> demotion time
        self.demotions = 0
        self.repromotions = 0

    # --- capability gate ---------------------------------------------------

    def is_carpool(self, destination: str) -> bool:
        """Capable AND not currently demoted."""
        if self.carpool_stations and destination not in self.carpool_stations:
            return False
        return destination not in self._demoted

    # --- engine events -----------------------------------------------------

    def on_exchange(self, transmission, acked: list, now: float) -> None:
        """Track each subframe's outcome; demote receivers whose failure rate spikes."""
        for subframe, ok in zip(transmission.subframes, acked):
            self._record(subframe.destination, ok, now)

    def on_round(self, aps, now: float) -> None:
        """Re-promote receivers whose cooldown has elapsed."""
        if not self._demoted:
            return
        expired = [d for d, t in self._demoted.items() if now - t >= self.cooldown]
        for destination in expired:
            del self._demoted[destination]
            self.repromotions += 1
            rec = active_recorder()
            if rec is not None:
                rec.emit("mac", "repromote", t=round(now, 9),
                         node=destination, demoted=len(self._demoted))

    def _record(self, destination: str, ok: bool, now: float) -> None:
        if destination in self._demoted:
            return  # already on unicast; the cooldown owns re-promotion
        history = self._history.get(destination)
        if history is None:
            history = self._history[destination] = deque(maxlen=self.window)
        history.append(ok)
        streak = 0 if ok else self._streak.get(destination, 0) + 1
        self._streak[destination] = streak
        if self.fail_fast and streak >= self.fail_fast:
            self._demote(destination, now)
            return
        if len(history) < self.min_attempts:
            return
        failure_rate = 1.0 - sum(history) / len(history)
        if failure_rate > self.failure_threshold:
            self._demote(destination, now)

    def _demote(self, destination: str, now: float) -> None:
        self._demoted[destination] = now
        self.demotions += 1
        self._history[destination].clear()
        self._streak[destination] = 0
        # Transitions are rare (bounded by the cooldown duty cycle), so the
        # ambient lookup here costs nothing on the per-subframe path.
        rec = active_recorder()
        if rec is not None:
            rec.emit("mac", "demote", t=round(now, 9), node=destination,
                     demoted=len(self._demoted))

    def demoted_stations(self) -> set:
        """Receivers currently served by plain 802.11 unicast."""
        return set(self._demoted)
