"""Carpool: multi-receiver PHY frame aggregation for public WLANs.

A from-scratch Python reproduction of "Less Transmissions, More
Throughput: Bringing Carpool to Public WLANs" (ICDCS 2015): the Carpool
PHY/MAC design plus every substrate it is evaluated on — an 802.11-style
OFDM PHY, a time-varying indoor channel, Bloom filters, an event-driven
CSMA/CA MAC simulator with all baseline protocols, and trace-statistics
traffic models.

Packages:
    repro.core     — Carpool itself: A-HDR, side channel, RTE, energy
                     model.
    repro.phy      — OFDM PHY: modulation, coding, interleaving, preamble,
                     SIG, pilots, channel estimation, CFO, transceivers.
    repro.channel  — fading/AWGN/CFO/SFO link models, power calibration.
    repro.bloom    — (positional) Bloom filters.
    repro.mac      — CSMA/CA simulator, protocols, scenarios, metrics.
    repro.traffic  — VoIP (Brady), SIGCOMM/library trace synthesizers.
    repro.analysis — measurement harness.
    repro.util     — seeded RNG trees, bit packing, units.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
