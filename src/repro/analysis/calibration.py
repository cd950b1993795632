"""Trace-driven calibration: PHY measurements → MAC error model.

The paper feeds USRP decoding traces into its MAC simulator (§7.2.1). Our
equivalent: run this package's PHY over the office channel, measure the
per-symbol decode-failure curves under standard estimation and RTE, and
fit the :class:`~repro.mac.error_model.BerCurveErrorModel` the MAC
simulator draws subframe outcomes from.

Calibration is the expensive input of every system-level sweep — seconds
of PHY decoding per point, against milliseconds of MAC simulation — and
sweep points sharing an SNR/MCS need the *same* model. Results therefore
go through :class:`repro.runtime.cache.ResultCache`: keyed on every
calibration input plus a fingerprint of the PHY/analysis source code (so
code changes invalidate stale entries), bypassed with ``cache=False`` or
``REPRO_NO_CACHE=1``, cleared with :func:`clear_calibration_cache`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index
from repro.mac.error_model import BerCurveErrorModel, fit_ber_curve
from repro.obs.log import get_logger
from repro.runtime.cache import ResultCache, code_fingerprint, content_key

log = get_logger(__name__)

__all__ = [
    "symbol_failure_from_ber",
    "calibrate_error_model",
    "clear_calibration_cache",
]

# Everything whose behaviour shapes the fitted curves: the PHY chain, the
# channel, the measurement harness, and this module's own conversion.
_FINGERPRINT_MODULES = (
    "repro.analysis.calibration",
    "repro.analysis.phy_experiments",
    "repro.channel",
    "repro.core",
    "repro.mac.error_model",
    "repro.phy",
)

_CACHE = ResultCache(namespace="calibration")


def clear_calibration_cache() -> None:
    """Drop every cached calibration (memory and disk)."""
    _CACHE.clear()


def symbol_failure_from_ber(
    ber_per_symbol: np.ndarray,
    coding_gain: float = 20.0,
    bits_per_symbol: int = 288,
) -> np.ndarray:
    """Convert raw per-symbol BER into post-FEC symbol-decode-failure rates.

    A symbol "fails" when its coded block cannot be recovered. The K=7
    convolutional code corrects scattered errors, so only a fraction of
    the raw error mass survives decoding; we model the failure probability
    as 1 − (1 − BER)^(bits/coding_gain): the chance that any of the
    symbol's *effective* (post-correction) bit positions is wrong.
    ``coding_gain`` is the error-mass reduction factor of rate-1/2..3/4
    Viterbi at the BERs of interest. Capped at 0.5 like the curve model.
    """
    ber = np.clip(np.asarray(ber_per_symbol, dtype=float), 0.0, 0.999)
    effective_bits = bits_per_symbol / coding_gain
    failure = 1.0 - np.power(1.0 - ber, effective_bits)
    return np.minimum(failure, 0.5)


def _calibration_key(mcs_name, payload_bytes, trials, link, coding_gain) -> str:
    return content_key(
        "calibrate_error_model",
        {
            "mcs": mcs_name,
            "payload_bytes": payload_bytes,
            "trials": trials,
            "link": repr(link),  # dataclass repr: every field, deterministic
            "coding_gain": coding_gain,
        },
        fingerprint=code_fingerprint(*_FINGERPRINT_MODULES),
    )


def calibrate_error_model(
    mcs_name: str = "QAM64-3/4",
    payload_bytes: int = 4090,
    trials: int = 30,
    link: LinkConfig | None = None,
    coding_gain: float = 20.0,
    cache: bool = True,
    n_workers: int | None = 1,
) -> BerCurveErrorModel:
    """Measure the PHY and fit the MAC-layer error model from it.

    Runs the Fig. 13 experiment twice (standard vs RTE decoding of the
    same channel draws), converts raw BER to symbol-failure probabilities,
    and fits the linear bias curve.

    ``cache=True`` (the default) memoises the fitted model on disk keyed
    by every input and the PHY source fingerprint; repeated sweep points
    at the same SNR/MCS then skip the PHY chain entirely. Links carrying
    a fault plan are never cached (plans have no stable content key).
    """
    link = link or LinkConfig()
    use_cache = cache and link.fault_plan is None
    key = _calibration_key(mcs_name, payload_bytes, trials, link, coding_gain)
    if use_cache:
        stored = _CACHE.get(key)
        if stored is not None:
            return BerCurveErrorModel(**stored)
    log.info("calibrating error model: %s, %d B, %d trials (cache miss)",
             mcs_name, payload_bytes, trials)
    standard = ber_by_symbol_index(
        mcs_name, payload_bytes, trials, use_rte=False, link=link,
        n_workers=n_workers,
    )
    rte = ber_by_symbol_index(
        mcs_name, payload_bytes, trials, use_rte=True, link=link,
        n_workers=n_workers,
    )
    std_fail = symbol_failure_from_ber(standard.ber_per_symbol, coding_gain)
    rte_fail = symbol_failure_from_ber(rte.ber_per_symbol, coding_gain)
    model = fit_ber_curve(std_fail, rte_fail)
    if use_cache:
        _CACHE.put(key, dataclasses.asdict(model))
    return model
