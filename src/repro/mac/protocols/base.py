"""Protocol interface for the MAC simulator.

A protocol is the AP's downlink policy: when a backlogged AP contends,
and what it transmits when it wins the channel — how many queued frames
ride in the PHY frame, for how many receivers, what the header/ACK
overheads are, and whether the receivers decode with RTE. STAs send
plain 802.11 frames in every scheme, so the engine handles them itself:
a STA contends whenever it is backlogged and sends
:meth:`Protocol.build_single`. The engine also handles contention,
collisions and error draws.

The engine asks two pure queries, of APs only:

* :meth:`Protocol.ready_time` — of a backlogged AP; reads state and
  changes nothing, so the engine may ask it as often as it likes;
* :meth:`Protocol.build` — of the AP that won (or, to size a collision,
  of each colliding AP); it only pops the frames it ships.

Policy state changes at two named engine events:

* :meth:`Protocol.on_round` — once per event-loop round, after that
  round's arrivals are queued and before any readiness query, with every
  AP, backlogged or not (WiFox adapts its priority, Carpool-fallback
  re-promotes receivers);
* :meth:`Protocol.on_exchange` — after each AP exchange that reached its
  receivers, with the per-subframe ACK outcomes (Carpool-fallback tracks
  failures, Carpool-fair charges served airtime). Collided and destroyed
  exchanges never reach it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.mac.airtime import ack_train_airtime, frame_airtime
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import PhyMacParameters

__all__ = ["SubframeTx", "Transmission", "Protocol", "AggregationLimits"]


@dataclass(frozen=True)
class AggregationLimits:
    """Aggregation stop conditions (mirrors §7.2's policy knobs).

    ``max_subframe_bytes`` reflects Carpool's 12-bit SIG LENGTH field: one
    subframe carries at most 4095 bytes (§4.1's frame structure).
    ``max_mpdus`` is 802.11n's Block Ack window: an A-MPDU carries at most
    64 MPDUs regardless of byte budget.
    """

    max_frame_bytes: int = 65535
    max_latency: float = 0.010
    max_receivers: int = 8
    max_subframe_bytes: int = 4095
    max_mpdus: int = 64


@dataclass
class SubframeTx:
    """One per-receiver slice of a PHY transmission."""

    destination: str
    frames: list
    start_symbol: int
    n_symbols: int
    rte: bool

    @property
    def payload_bytes(self) -> int:
        """Payload bytes this subframe carries."""
        return sum(f.size_bytes for f in self.frames)


@dataclass
class Transmission:
    """A fully-specified channel occupation: data frame + ACK sequence."""

    node_name: str
    airtime: float
    ack_time: float
    subframes: list = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        """Data airtime plus the ACK tail."""
        return self.airtime + self.ack_time

    @property
    def total_payload_bytes(self) -> int:
        """Payload bytes across all subframes."""
        return sum(sf.payload_bytes for sf in self.subframes)


class Protocol(ABC):
    """Downlink transmission policy of one evaluated scheme."""

    name: str = "base"
    uses_rte: bool = False

    def __init__(self, params: PhyMacParameters, limits: AggregationLimits | None = None,
                 rate_table=None):
        self.params = params
        self.limits = limits or AggregationLimits()
        #: Optional per-station rate adaptation (repro.mac.rate_control.
        #: RateTable); stations without an SNR report use the default rate.
        self.rate_table = rate_table

    # --- engine queries (pure) --------------------------------------------

    def ready_time(self, ap: Node, now: float) -> float:
        """Earliest time the backlogged ``ap`` should contend.

        Default: at once. Aggregating protocols override it to wait for
        the aggregation deadline. Reads state only.
        """
        return now

    @abstractmethod
    def build(self, ap: Node, now: float) -> Transmission:
        """Pop the frames ``ap`` ships and shape one transmission."""

    # --- engine events -----------------------------------------------------

    def on_round(self, aps, now: float) -> None:
        """Once per event-loop round, before readiness is asked. Default: no-op."""

    def on_exchange(self, transmission: Transmission, acked: list, now: float) -> None:
        """After an AP exchange reached its receivers; ``acked[i]`` is
        subframe ``i``'s ACK outcome. Default: no-op."""

    # --- shared helpers ------------------------------------------------------

    def rate_for(self, destination: str | None) -> float:
        """Data rate (bit/s) toward ``destination``.

        With a rate table, the station's MCS scales the configured PHY
        rate (the table's top rate, QAM64-3/4, maps to ``phy_rate_bps``);
        without one — or for unreported stations — the default applies.
        """
        if self.rate_table is None or destination is None:
            return self.params.phy_rate_bps
        if self.rate_table.snr_of(destination) is None:
            return self.params.phy_rate_bps
        mcs = self.rate_table.mcs_for(destination)
        return self.params.phy_rate_bps * mcs.rate_mbps / 54.0

    def payload_symbols(self, nbytes: int, destination: str | None = None) -> int:
        """OFDM symbols needed for ``nbytes`` at the destination's rate."""
        bits_per_symbol = self.rate_for(destination) * self.params.symbol_duration
        return max(1, math.ceil(8 * nbytes / bits_per_symbol))

    def build_single(self, node: Node) -> Transmission:
        """A plain 802.11 single-frame exchange: what every STA sends."""
        frame: MacFrame = node.queue.popleft()
        n_symbols = self.payload_symbols(frame.size_bytes, frame.destination)
        return Transmission(
            node_name=node.name,
            airtime=frame_airtime(n_symbols, self.params),
            ack_time=ack_train_airtime(1, self.params),
            subframes=[
                SubframeTx(
                    destination=frame.destination,
                    frames=[frame],
                    start_symbol=0,
                    n_symbols=n_symbols,
                    rte=False,
                )
            ],
        )
