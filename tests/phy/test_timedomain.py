"""Sample-level PHY path: waveforms, synchronization, time-domain channel.

The frequency-domain path every experiment uses applies the channel per
OFDM symbol, which is exact while the delay spread fits the cyclic prefix
and the receiver is symbol-aligned. This file holds the sample-level
oracle a GNURadio flowgraph lives in, and the tests that check the
frequency-domain path against it:

* :func:`frame_to_samples` / :func:`samples_to_symbols` — (de)framing of
  the 80-sample OFDM waveform.
* :class:`TimeDomainChannel` — tap convolution, sample-level CFO rotation
  and AWGN on the waveform itself.
* :func:`detect_frame` — Schmidl&Cox-style packet detection and coarse
  timing from the periodic short training field.
* :func:`coarse_cfo_estimate` — CFO from the STF repetition at sample
  level (±period/2 unambiguous range far beyond the LTF-based estimator).

Together these transmit a frame as raw samples with unknown arrival
offset, synchronize, and hand perfectly aligned symbols to the standard
frequency-domain receiver.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import MCS_TABLE, PhyReceiver, PhyTransmitter, mcs_by_name
from repro.phy.constants import CP_LENGTH, FFT_SIZE, SYMBOL_SAMPLES
from repro.phy.ofdm import map_subcarriers, ofdm_demodulate, ofdm_modulate, unmap_subcarriers
from repro.util.rng import RngStream

# The L-STF occupies every 4th subcarrier, so its time-domain waveform is
# periodic with period 16 samples — the property packet detection exploits.
STF_PERIOD = FFT_SIZE // 4


def frame_to_samples(symbols: np.ndarray) -> np.ndarray:
    """Serialise (n_symbols, 52) used-subcarrier vectors into a waveform."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    grids = map_subcarriers(symbols)
    waves = ofdm_modulate(grids)
    return waves.reshape(-1)


def samples_to_symbols(samples: np.ndarray, n_symbols: int | None = None) -> np.ndarray:
    """Deserialise an aligned waveform back into used-subcarrier vectors.

    ``samples`` must start exactly at the first sample of the first
    symbol's cyclic prefix.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if n_symbols is None:
        n_symbols = samples.size // SYMBOL_SAMPLES
    needed = n_symbols * SYMBOL_SAMPLES
    if samples.size < needed:
        raise ValueError(f"need {needed} samples, got {samples.size}")
    blocks = samples[:needed].reshape(n_symbols, SYMBOL_SAMPLES)
    grids = ofdm_demodulate(blocks)
    return unmap_subcarriers(grids)


@dataclass
class TimeDomainChannel:
    """A static multipath channel applied at sample level.

    Args:
        taps: Complex channel impulse response (length ≤ CP).
        snr_db: Per-sample SNR relative to unit signal power.
        cfo_hz: Carrier frequency offset, applied as a continuous phase
            ramp across samples.
        sample_rate: Waveform sample rate (20 MHz default timing).
        delay_samples: Extra integer delay (leading noise-only samples),
            modelling an unknown arrival time.
    """

    taps: np.ndarray
    snr_db: float = 30.0
    cfo_hz: float = 0.0
    sample_rate: float = 20e6
    delay_samples: int = 0

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.complex128)
        if self.taps.size < 1 or self.taps.size > CP_LENGTH:
            raise ValueError("taps must fit inside the cyclic prefix")
        if self.delay_samples < 0:
            raise ValueError("delay must be non-negative")

    def transmit(self, samples: np.ndarray, rng: RngStream) -> np.ndarray:
        """Propagate a waveform: delay, convolve, rotate, add noise."""
        samples = np.asarray(samples, dtype=np.complex128)
        delayed = np.concatenate([np.zeros(self.delay_samples, dtype=complex), samples])
        faded = np.convolve(delayed, self.taps)
        n = faded.size
        if self.cfo_hz:
            t = np.arange(n) / self.sample_rate
            faded = faded * np.exp(2j * np.pi * self.cfo_hz * t)
        noise_sigma = np.sqrt(10.0 ** (-self.snr_db / 10.0))
        noise = rng.complex_normal(scale=noise_sigma, size=n)
        return faded + noise


def detect_frame(samples: np.ndarray, threshold: float = 0.6,
                 min_run: int = 3 * STF_PERIOD) -> int | None:
    """Find the start of a frame from the STF's 16-sample periodicity.

    Computes the normalised autocorrelation C(d) between the waveform and
    itself delayed by one STF period; inside the STF the metric plateaus
    near 1. Returns the index of the first sample of the detected frame,
    or None when nothing crosses the threshold for ``min_run`` samples.

    This is the Schmidl & Cox timing metric restricted to the legacy STF,
    as implemented by the GNURadio 802.11 receivers the paper builds on.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    d = STF_PERIOD
    if samples.size < 2 * d + min_run:
        return None
    lagged = samples[d:]
    base = samples[:-d]
    corr = lagged * np.conj(base)
    power = np.abs(lagged) ** 2
    window = d
    kernel = np.ones(window)
    corr_sum = np.convolve(corr, kernel, mode="valid")
    power_sum = np.convolve(power, kernel, mode="valid") + 1e-12
    metric = np.abs(corr_sum) / power_sum

    above = metric > threshold
    run = 0
    for i, flag in enumerate(above):
        run = run + 1 if flag else 0
        if run >= min_run:
            return i - run + 1
    return None


def coarse_cfo_estimate(samples: np.ndarray, start: int,
                        sample_rate: float = 20e6) -> float:
    """CFO estimate from the STF periodicity at ``start``.

    Correlates one STF period against the next across the first 1.5
    symbols of short training; unambiguous to ±sample_rate/(2·16) =
    ±625 kHz at 20 MHz.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    d = STF_PERIOD
    span = 6 * d  # stay well inside the two STF symbols
    if start + span + d > samples.size:
        raise ValueError("not enough samples after start for CFO estimation")
    segment = samples[start : start + span]
    lagged = samples[start + d : start + span + d]
    angle = np.angle(np.sum(lagged * np.conj(segment)))
    return float(angle * sample_rate / (2.0 * np.pi * d))


def _frame(payload=b"sample-level path!" * 8, mcs_name="QPSK-1/2"):
    return PhyTransmitter(mcs_by_name(mcs_name), coded=True).build_frame(payload)


class TestSerialisation:
    def test_round_trip(self):
        frame = _frame()
        samples = frame_to_samples(frame.symbols)
        assert samples.size == frame.n_symbols * SYMBOL_SAMPLES
        symbols = samples_to_symbols(samples, frame.n_symbols)
        np.testing.assert_allclose(symbols, frame.symbols, atol=1e-10)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            samples_to_symbols(np.zeros(10, dtype=complex), 2)

    def test_stf_waveform_periodic(self):
        """The L-STF's 16-sample periodicity is what sync relies on."""
        frame = _frame()
        samples = frame_to_samples(frame.symbols)
        stf_body = samples[16 : 16 + 64]  # first STF symbol, after its CP
        np.testing.assert_allclose(stf_body[:STF_PERIOD], stf_body[STF_PERIOD:2 * STF_PERIOD],
                                   atol=1e-9)


class TestTimeDomainChannel:
    def test_taps_must_fit_cp(self):
        with pytest.raises(ValueError):
            TimeDomainChannel(taps=np.ones(20))

    def test_identity_channel_transparent(self):
        frame = _frame()
        channel = TimeDomainChannel(taps=np.array([1.0]), snr_db=80.0)
        received = channel.transmit(frame_to_samples(frame.symbols), RngStream(0).child("n"))
        symbols = samples_to_symbols(received, frame.n_symbols)
        np.testing.assert_allclose(symbols, frame.symbols, atol=1e-3)

    def test_equivalence_with_frequency_domain(self):
        """Time-domain convolution == per-subcarrier multiplication by the
        tap FFT, for in-CP delay spreads (aside from the one-symbol edge)."""
        frame = _frame()
        taps = np.array([0.8, 0.3 - 0.2j, 0.1j])
        channel = TimeDomainChannel(taps=taps, snr_db=200.0)
        received = channel.transmit(frame_to_samples(frame.symbols), RngStream(1).child("n"))
        symbols_td = samples_to_symbols(received, frame.n_symbols)

        from repro.phy.constants import FFT_SIZE, USED_SUBCARRIER_INDICES
        from repro.phy.ofdm import logical_to_fft_bins

        h = np.fft.fft(taps, FFT_SIZE)[logical_to_fft_bins(USED_SUBCARRIER_INDICES)]
        symbols_fd = frame.symbols * h[None, :]
        np.testing.assert_allclose(symbols_td, symbols_fd, atol=1e-6)

    def test_delay_shifts_frame(self):
        frame = _frame()
        channel = TimeDomainChannel(taps=np.array([1.0]), snr_db=80.0, delay_samples=37)
        received = channel.transmit(frame_to_samples(frame.symbols), RngStream(2).child("n"))
        symbols = samples_to_symbols(received[37:], frame.n_symbols)
        np.testing.assert_allclose(symbols, frame.symbols, atol=1e-3)


class TestSynchronization:
    def _received(self, delay, snr_db=20.0, cfo_hz=0.0, seed=3):
        frame = _frame()
        channel = TimeDomainChannel(
            taps=np.array([1.0, 0.15 - 0.1j]), snr_db=snr_db, cfo_hz=cfo_hz,
            delay_samples=delay,
        )
        samples = channel.transmit(frame_to_samples(frame.symbols),
                                   RngStream(seed).child("n"))
        return frame, samples

    @pytest.mark.parametrize("delay", [0, 23, 160, 401])
    def test_detects_start_within_cp(self, delay):
        frame, samples = self._received(delay)
        start = detect_frame(samples)
        assert start is not None
        # Timing within the CP is recoverable by the equalizer; require it.
        assert abs(start - delay) <= 12

    def test_no_detection_on_noise(self):
        noise = RngStream(4).child("n").complex_normal(scale=1.0, size=4000)
        assert detect_frame(noise) is None

    def test_coarse_cfo(self):
        frame, samples = self._received(delay=100, snr_db=25.0, cfo_hz=80e3)
        start = detect_frame(samples)
        cfo = coarse_cfo_estimate(samples, start)
        assert cfo == pytest.approx(80e3, abs=8e3)

    def test_cfo_needs_enough_samples(self):
        with pytest.raises(ValueError):
            coarse_cfo_estimate(np.zeros(50, dtype=complex), 0)


class TestEndToEndSampleLevel:
    def test_full_chain_through_waveform(self):
        """TX symbols → waveform → channel+delay → detect → align →
        standard receiver → payload."""
        payload = bytes(np.random.default_rng(5).integers(0, 256, 240, dtype=np.uint8))
        frame = PhyTransmitter(mcs_by_name("QAM16-1/2"), coded=True).build_frame(payload)
        channel = TimeDomainChannel(
            taps=np.array([0.9, 0.2 + 0.1j]), snr_db=28.0, cfo_hz=1500.0,
            delay_samples=211,
        )
        waveform = channel.transmit(frame_to_samples(frame.symbols),
                                    RngStream(6).child("n"))
        start = detect_frame(waveform)
        assert start is not None
        # Back off a few samples into the CP to avoid ISI from late taps.
        aligned = waveform[max(start - 4, 0):]
        symbols = samples_to_symbols(aligned, frame.n_symbols)
        rx = PhyReceiver(coded=True).receive(symbols)
        assert rx.payload == payload


class TestSynchronizationProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 600), st.integers(0, 2**16))
    def test_detection_within_cp_for_any_delay(self, delay, seed):
        frame = PhyTransmitter(MCS_TABLE[2]).build_frame(b"sync" * 30)
        channel = TimeDomainChannel(taps=np.array([1.0]), snr_db=22.0,
                                    delay_samples=delay)
        samples = channel.transmit(frame_to_samples(frame.symbols),
                                   RngStream(seed).child("n"))
        start = detect_frame(samples)
        assert start is not None
        assert abs(start - delay) <= 12
