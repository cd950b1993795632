"""Real-time channel estimation (RTE, paper §5).

The standard receiver equalizes every payload symbol with the channel
measured at the preamble; on long frames the channel drifts and the tail
symbols rot (BER bias, Fig. 3). RTE treats each *correctly decoded* symbol
as a full-band training symbol — a "data pilot" — and folds it into a
running estimate:

    H̃ₙ = (H̃ₙ₋₁ + Ĥₙ)/2    if symbol n decoded correctly (CRC pass)
    H̃ₙ = H̃ₙ₋₁             otherwise                        (Eq. 3)

where Ĥₙ = Dₙ/Yₙ: the received symbol (after de-rotating the tracked common
phase) divided by the re-modulated decisions. Correctness comes from the
symbol-level CRC carried in the phase-offset side channel.

``update_rule`` exposes the paper's averaging rule plus two ablation
variants (EWMA with configurable memory, and replace-with-latest) used by
the design-choice benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import active_recorder
from repro.phy.channel_estimation import estimate_from_known_symbol

__all__ = ["RealTimeEstimator", "RteGuard", "HARDENED_GUARD", "UPDATE_RULES"]


def _rule_average(previous: np.ndarray, latest: np.ndarray) -> np.ndarray:
    return 0.5 * (previous + latest)


def _rule_replace(previous: np.ndarray, latest: np.ndarray) -> np.ndarray:
    return latest


def _make_ewma(alpha: float):
    def _rule_ewma(previous: np.ndarray, latest: np.ndarray) -> np.ndarray:
        return (1.0 - alpha) * previous + alpha * latest

    return _rule_ewma


UPDATE_RULES = {
    "average": _rule_average,  # the paper's Eq. (3)
    "replace": _rule_replace,
    "ewma": _make_ewma(0.25),
}


@dataclass(frozen=True)
class RteGuard:
    """Outlier-rejection policy protecting the running estimate.

    The 2-bit side-channel CRC has a 1/4 false-positive rate, so a
    burst-corrupted symbol can *pass* its CRC and poison H̃ₙ; with the
    estimate poisoned, every later symbol in the frame decodes against
    garbage. The guard filters data pilots at two granularities:

    * ``outlier_threshold`` — per-subcarrier: ignore subcarriers whose new
      estimate jumps by more than this relative amount (a genuine channel
      moves a tiny fraction per symbol).
    * ``symbol_reject_fraction`` — whole-symbol: if more than this fraction
      of subcarriers are flagged as outliers, the "pilot" is almost surely
      a falsely-passing corrupted symbol; reject it entirely (the surviving
      minority of subcarriers would otherwise still leak corruption in).
    * ``recover_after`` — bounded-state recovery: a *real* channel change
      also trips the whole-symbol test, and with a stale estimate every
      good pilot then looks like an outlier forever. After this many
      consecutive whole-symbol rejects the guard assumes the channel moved
      and snaps the estimate to the next pilot (replace rule), restoring
      tracking in bounded time.
    """

    outlier_threshold: float | None = 0.5
    symbol_reject_fraction: float | None = None
    recover_after: int = 3

    def __post_init__(self):
        if self.outlier_threshold is not None and self.outlier_threshold <= 0:
            raise ValueError("outlier_threshold must be positive or None")
        fraction = self.symbol_reject_fraction
        if fraction is not None and not 0.0 <= fraction < 1.0:
            raise ValueError("symbol_reject_fraction must be in [0, 1) or None")
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")


#: The impairment-hardened receiver profile used by the fault benchmarks.
HARDENED_GUARD = RteGuard(
    outlier_threshold=0.5, symbol_reject_fraction=0.25, recover_after=3
)


class RealTimeEstimator:
    """Running channel estimate calibrated by data pilots.

    Args:
        initial_estimate: The LTF (preamble) estimate, length 52.
        update_rule: One of ``UPDATE_RULES`` or a callable
            ``(previous, latest) -> updated``.
        outlier_threshold: Legacy per-subcarrier guard knob (superseded by
            ``guard``; kept so existing callers stay bit-identical).
        guard: Full :class:`RteGuard` policy; overrides
            ``outlier_threshold`` when given.
    """

    def __init__(self, initial_estimate: np.ndarray, update_rule="average",
                 outlier_threshold: float | None = 0.5,
                 guard: RteGuard | None = None):
        estimate = np.asarray(initial_estimate, dtype=np.complex128)
        if estimate.ndim != 1:
            raise ValueError("channel estimate must be a vector")
        self._estimate = estimate.copy()
        if callable(update_rule):
            self._rule = update_rule
        else:
            if update_rule not in UPDATE_RULES:
                raise KeyError(f"unknown update rule {update_rule!r}")
            self._rule = UPDATE_RULES[update_rule]
        self.guard = guard if guard is not None else RteGuard(
            outlier_threshold=outlier_threshold
        )
        self.outlier_threshold = self.guard.outlier_threshold
        self.updates = 0
        self.skips = 0
        #: Data pilots discarded wholesale by the symbol-level guard.
        self.rejected_symbols = 0
        self._consecutive_rejects = 0
        # The ambient recorder, bound once per estimator (one per subframe).
        self._rec = active_recorder()

    @property
    def estimate(self) -> np.ndarray:
        """The current calibrated channel estimate H̃ₙ."""
        return self._estimate

    def update(self, received_derotated: np.ndarray, known_transmitted: np.ndarray) -> None:
        """Fold a correctly-decoded symbol into the estimate.

        Args:
            received_derotated: The received used-subcarrier vector after
                removing the tracked common phase (Dₙ·e^{−jφₙ}).
            known_transmitted: The reconstructed transmitted vector Yₙ
                (re-modulated data decisions + known pilots), *without* the
                injected side-channel phase — it was removed along with the
                rest of the common phase.
        """
        latest = estimate_from_known_symbol(received_derotated, known_transmitted)
        finite = ~np.isnan(latest)
        valid = finite.copy()
        if self.outlier_threshold is not None:
            reference = np.abs(self._estimate)
            deviation = np.abs(latest - self._estimate)
            with np.errstate(invalid="ignore"):
                valid &= deviation <= self.outlier_threshold * np.maximum(reference, 1e-6)
        fraction = self.guard.symbol_reject_fraction
        if fraction is not None and finite.any():
            outlier_share = 1.0 - valid.sum() / finite.sum()
            if outlier_share > fraction:
                if self._consecutive_rejects >= self.guard.recover_after:
                    # Bounded-state recovery: this many wholesale rejects in
                    # a row means the channel itself moved — snap to the
                    # pilot instead of rejecting good updates forever.
                    updated = self._estimate.copy()
                    updated[finite] = latest[finite]
                    self._estimate = updated
                    self._consecutive_rejects = 0
                    self.updates += 1
                    if self._rec is not None:
                        self._rec.emit("phy", "rte_recover",
                                       after_rejects=self.guard.recover_after)
                    return
                self.rejected_symbols += 1
                self._consecutive_rejects += 1
                if self._rec is not None:
                    self._rec.emit("phy", "rte_reject",
                                   outlier_share=round(float(outlier_share), 6),
                                   consecutive=self._consecutive_rejects)
                return
        self._consecutive_rejects = 0
        updated = self._estimate.copy()
        updated[valid] = self._rule(self._estimate[valid], latest[valid])
        self._estimate = updated
        self.updates += 1

    def skip(self) -> None:
        """Record a symbol that failed its CRC (estimate unchanged)."""
        self.skips += 1
