"""Wireless channel substrate: fading, noise, CFO, path loss, power calibration."""

from repro.channel.awgn import add_awgn, noise_variance_for_snr
from repro.channel.fading import (
    FadingProcess,
    FadingProfile,
    doppler_from_coherence_time,
    jakes_correlation,
)
from repro.channel.model import ChannelModel, ChannelTrace
from repro.channel.path_loss import LogDistancePathLoss, link_snr_db
from repro.channel.power import POWER_MAGNITUDES, SNR_AT_UNIT_POWER_DB, snr_for_power

__all__ = [
    "add_awgn",
    "noise_variance_for_snr",
    "FadingProfile",
    "FadingProcess",
    "doppler_from_coherence_time",
    "jakes_correlation",
    "ChannelModel",
    "ChannelTrace",
    "LogDistancePathLoss",
    "link_snr_db",
    "POWER_MAGNITUDES",
    "SNR_AT_UNIT_POWER_DB",
    "snr_for_power",
]
