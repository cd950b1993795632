"""Time-fairness control on top of Carpool (§8, "Fairness").

The paper: "time fairness control can be implemented on Carpool by
maintaining a time occupancy table for all STAs. The scheduling module in
AP periodically checks the time occupancy table and assigns higher
priority to STAs with smaller time occupancy."

:class:`TimeOccupancyTable` is that table; :class:`FairCarpoolProtocol`
plugs it into the aggregation selector so under-served stations go to the
front of the batch (and therefore also to the earlier, more reliable
positions of the aggregated frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mac.protocols.base import AggregationLimits, Transmission
from repro.mac.protocols.carpool import CarpoolProtocol

__all__ = ["TimeOccupancyTable", "FairCarpoolProtocol"]


@dataclass
class TimeOccupancyTable:
    """Cumulative downlink airtime served to each station."""

    _airtime: dict = field(default_factory=dict)

    def charge(self, station: str, airtime: float) -> None:
        """Add served airtime to a station's tally."""
        if airtime < 0:
            raise ValueError("airtime must be non-negative")
        self._airtime[station] = self._airtime.get(station, 0.0) + airtime

    def occupancy(self, station: str) -> float:
        """Cumulative airtime served to a station (0 for unknown)."""
        return self._airtime.get(station, 0.0)

    def rank(self, stations) -> list:
        """Stations ordered by ascending occupancy (least-served first)."""
        return sorted(stations, key=lambda s: (self.occupancy(s), s))

    def jain_index(self) -> float:
        """Jain's fairness index of the served airtimes (1.0 = equal)."""
        values = list(self._airtime.values())
        if not values:
            return 1.0
        total = sum(values)
        squares = sum(v * v for v in values)
        if squares == 0:
            return 1.0
        return total * total / (len(values) * squares)


class FairCarpoolProtocol(CarpoolProtocol):
    """Carpool whose aggregation order follows the time-occupancy table.

    Under-served destinations sort first, so when the receiver/byte limits
    bind they win the contested aggregation slots; each exchange that
    reaches its receivers charges its subframes' airtime back into the
    table (:meth:`on_exchange`), so collided aggregates cost nothing.
    """

    name = "Carpool-fair"

    def __init__(self, params, limits: AggregationLimits | None = None,
                 occupancy: TimeOccupancyTable | None = None):
        super().__init__(params, limits)
        self.occupancy = occupancy or TimeOccupancyTable()

    def selection_key(self, frame):
        """Delay-sensitive first, then least-served destination, then FIFO."""
        return (
            not frame.delay_sensitive,
            self.occupancy.occupancy(frame.destination),
            frame.arrival_time,
            frame.frame_id,
        )

    def on_exchange(self, transmission: Transmission, acked: list, now: float) -> None:
        """Charge the served subframes' airtime back into the table."""
        for subframe in transmission.subframes:
            duration = subframe.n_symbols * self.params.symbol_duration
            self.occupancy.charge(subframe.destination, duration)
