"""Analytic MAC-efficiency model (the §1/§2 motivation).

The paper's opening argument: per-frame overheads (DIFS, backoff, PLCP
preamble, SIFS, ACK) are fixed in *time*, so as PHY rates climb from
54 Mbit/s to 600 Mbit/s the payload shrinks to a sliver of each exchange
and "MAC efficiency of Wi-Fi networks degrades rapidly". Carpool attacks
exactly this: one set of overheads amortised over up to eight receivers.

These closed forms compute the airtime budget of one channel access per
scheme and the resulting efficiency (payload airtime / total airtime).
The frame and ACK-train terms come from :mod:`repro.mac.airtime`, as the
simulator's do. When every payload fills whole OFDM symbols, the
simulator's time per uncontended, collision-free exchange equals
``budget.total - budget.contention`` (the simulator pays the contention
term as idle time, not as busy airtime); otherwise the simulator rounds
each subframe up to whole symbols and the budget does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.ahdr import AHDR_SYMBOLS
from repro.mac.airtime import ack_train_airtime
from repro.mac.parameters import PhyMacParameters

__all__ = ["ExchangeBudget", "single_frame_exchange", "carpool_exchange", "mac_efficiency"]


@dataclass(frozen=True)
class ExchangeBudget:
    """Airtime decomposition of one channel access."""

    contention: float  # DIFS + mean backoff
    headers: float  # PLCP preamble(s), A-HDR, SIGs
    payload: float
    acks: float  # SIFS gaps + ACK frames

    @property
    def total(self) -> float:
        """Whole-exchange airtime."""
        return self.contention + self.headers + self.payload + self.acks

    @property
    def efficiency(self) -> float:
        """Fraction of the exchange spent moving payload bits."""
        return self.payload / self.total


def _mean_backoff(params: PhyMacParameters) -> float:
    """Expected idle backoff of an uncontended access: CWmin/2 slots."""
    return params.cw_min / 2.0 * params.slot_time


def single_frame_exchange(payload_bytes: int, params: PhyMacParameters) -> ExchangeBudget:
    """One legacy 802.11 exchange: DIFS + backoff + frame + SIFS + ACK."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    return ExchangeBudget(
        contention=params.difs + _mean_backoff(params),
        headers=params.plcp_header_time,
        payload=8 * payload_bytes / params.phy_rate_bps,
        acks=ack_train_airtime(1, params),
    )


def carpool_exchange(payload_bytes_per_receiver: int, num_receivers: int,
                     params: PhyMacParameters) -> ExchangeBudget:
    """One Carpool exchange serving ``num_receivers`` stations.

    One contention + one preamble + the 2-symbol A-HDR + one SIG per
    subframe, then the sequential-ACK train (Eq. 1).
    """
    if payload_bytes_per_receiver <= 0 or num_receivers < 1:
        raise ValueError("invalid payload or receiver count")
    headers = (
        params.plcp_header_time
        + AHDR_SYMBOLS * params.symbol_duration
        + num_receivers * params.symbol_duration  # SIGs
    )
    return ExchangeBudget(
        contention=params.difs + _mean_backoff(params),
        headers=headers,
        payload=8 * payload_bytes_per_receiver * num_receivers / params.phy_rate_bps,
        acks=ack_train_airtime(num_receivers, params),
    )


def mac_efficiency(payload_bytes: int, phy_rate_bps: float,
                   params: PhyMacParameters | None = None,
                   carpool_receivers: int | None = None) -> float:
    """Efficiency of one exchange at a given PHY rate.

    ``carpool_receivers=None`` gives the legacy per-frame exchange; a
    receiver count gives the Carpool exchange carrying ``payload_bytes``
    *per receiver*.
    """
    base = params or PhyMacParameters()
    scaled = replace(base, phy_rate_bps=phy_rate_bps)
    if carpool_receivers is None:
        return single_frame_exchange(payload_bytes, scaled).efficiency
    return carpool_exchange(payload_bytes, carpool_receivers, scaled).efficiency
