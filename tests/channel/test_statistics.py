"""Statistical validation of the fading substrate.

The trustworthiness of every PHY experiment rests on the channel model
actually having the advertised statistics. The estimators here measure,
from realised processes, the quantities the model is parameterised by,
and the tests check them against theory:

* temporal autocorrelation (→ Jakes' J₀ shape, coherence time),
* power-delay profile (→ exponential decay, delay spread),
* Ricean K-factor (→ LOS dominance, via the moment estimator),
* envelope level-crossing rate (→ Doppler spread, by Rice's formula).
"""

import numpy as np
import pytest

from repro.channel.fading import FadingProcess, FadingProfile, jakes_correlation
from repro.util.rng import RngStream


def realise_tap_series(profile: FadingProfile, symbol_duration: float,
                       n_samples: int, rng: RngStream, tap: int = 0) -> np.ndarray:
    """One tap's complex time series over ``n_samples`` symbol intervals."""
    process = FadingProcess(profile, symbol_duration, rng)
    process.reset()
    series = np.empty(n_samples, dtype=np.complex128)
    for i in range(n_samples):
        series[i] = process.taps()[tap]
        process.step()
    return series


def temporal_autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalised autocorrelation R(τ)/R(0) of a complex process.

    The mean (LOS component) is removed first so the result describes the
    scattered part — the quantity Jakes' J₀ models.
    """
    series = np.asarray(series, dtype=np.complex128)
    if max_lag >= series.size:
        raise ValueError("max_lag must be smaller than the series")
    centred = series - series.mean()
    r0 = float(np.mean(np.abs(centred) ** 2))
    if r0 <= 0:
        raise ValueError("series has no scattered power")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(
            np.real(np.mean(centred[lag:] * np.conj(centred[: centred.size - lag])))
        ) / r0
    return out


def empirical_pdp(profile: FadingProfile, rng: RngStream,
                  realisations: int = 500) -> np.ndarray:
    """Average per-tap power over many independent realisations."""
    process = FadingProcess(profile, symbol_duration=4e-6, rng=rng)
    acc = np.zeros(profile.num_taps)
    for _ in range(realisations):
        process.reset()
        acc += np.abs(process.taps()) ** 2
    return acc / realisations


def estimate_ricean_k(envelope_power: np.ndarray) -> float:
    """Moment-based K-factor estimator from |h|² samples.

    K̂ = sqrt(1 − var(P)/mean(P)²) mapped through K = sqrt(1−γ)/(1−sqrt(1−γ));
    returns 0 for Rayleigh-like data and ``inf`` for a constant envelope.
    """
    power = np.asarray(envelope_power, dtype=float)
    if power.size < 2:
        raise ValueError("need at least two samples")
    mean = power.mean()
    if mean <= 0:
        raise ValueError("power samples must be positive on average")
    gamma = power.var() / (mean * mean)
    if gamma <= 0:
        return float("inf")
    if gamma >= 1:
        return 0.0
    root = np.sqrt(1.0 - gamma)
    return float(root / (1.0 - root))


def level_crossing_rate(envelope: np.ndarray, threshold: float,
                        sample_interval: float) -> float:
    """Upward crossings of ``threshold`` per second (Rice's LCR)."""
    envelope = np.asarray(envelope, dtype=float)
    if envelope.size < 2:
        raise ValueError("need at least two samples")
    below = envelope[:-1] < threshold
    above = envelope[1:] >= threshold
    crossings = int(np.count_nonzero(below & above))
    return crossings / ((envelope.size - 1) * sample_interval)


RAYLEIGH = FadingProfile(num_taps=1, ricean_k_db=-np.inf, coherence_time=10e-3)


def _series(profile, n=4000, dt=40e-6, seed=0):
    return realise_tap_series(profile, dt, n, RngStream(seed).child("s"))


class TestAutocorrelation:
    def test_unity_at_zero_lag(self):
        series = _series(RAYLEIGH)
        acf = temporal_autocorrelation(series, 10)
        assert acf[0] == pytest.approx(1.0)

    def test_matches_jakes_shape(self):
        """The realised process's ACF must track J₀(2π f_d τ)."""
        dt = 40e-6
        profile = RAYLEIGH
        fd = profile.doppler_hz()
        acfs = []
        for seed in range(6):
            acfs.append(temporal_autocorrelation(_series(profile, 6000, dt, seed), 200))
        acf = np.mean(acfs, axis=0)
        for lag in (50, 100, 200):
            expected = jakes_correlation(fd, lag * dt)
            assert acf[lag] == pytest.approx(expected, abs=0.12)

    def test_decays_for_finite_coherence(self):
        acf = temporal_autocorrelation(_series(RAYLEIGH, 6000), 300)
        assert acf[300] < 0.8 * acf[0]

    def test_lag_bounds(self):
        with pytest.raises(ValueError):
            temporal_autocorrelation(np.ones(10, dtype=complex), 10)


class TestPdp:
    def test_matches_profile(self):
        profile = FadingProfile(num_taps=4, delay_spread_taps=1.2,
                                ricean_k_db=-np.inf, coherence_time=np.inf)
        measured = empirical_pdp(profile, RngStream(1), realisations=800)
        expected = profile.tap_powers()
        np.testing.assert_allclose(measured, expected, rtol=0.2)

    def test_total_power_unity(self):
        profile = FadingProfile(num_taps=3)
        measured = empirical_pdp(profile, RngStream(2), realisations=800)
        assert measured.sum() == pytest.approx(1.0, rel=0.1)


class TestRiceanK:
    def test_rayleigh_near_zero(self):
        rng = RngStream(3).child("r")
        h = rng.complex_normal(scale=1.0, size=20000)
        k = estimate_ricean_k(np.abs(h) ** 2)
        assert k < 0.2

    def test_strong_los_high_k(self):
        rng = RngStream(4).child("r")
        k_true = 10.0  # linear
        los = np.sqrt(k_true / (k_true + 1))
        scatter = rng.complex_normal(scale=np.sqrt(1 / (k_true + 1)), size=20000)
        h = los + scatter
        k = estimate_ricean_k(np.abs(h) ** 2)
        assert k == pytest.approx(k_true, rel=0.3)

    def test_constant_envelope_infinite(self):
        assert estimate_ricean_k(np.ones(100)) == float("inf")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_ricean_k(np.array([1.0]))


class TestLevelCrossing:
    def test_counts_upward_crossings(self):
        envelope = np.array([0.5, 1.5, 0.5, 1.5, 0.5])
        rate = level_crossing_rate(envelope, threshold=1.0, sample_interval=1.0)
        assert rate == pytest.approx(2 / 4)

    def test_faster_fading_more_crossings(self):
        slow = FadingProfile(num_taps=1, ricean_k_db=-np.inf, coherence_time=50e-3)
        fast = FadingProfile(num_taps=1, ricean_k_db=-np.inf, coherence_time=5e-3)
        dt = 40e-6
        lcr_slow = level_crossing_rate(
            np.abs(_series(slow, 8000, dt, 5)), 1.0, dt
        )
        lcr_fast = level_crossing_rate(
            np.abs(_series(fast, 8000, dt, 5)), 1.0, dt
        )
        assert lcr_fast > 2 * lcr_slow
