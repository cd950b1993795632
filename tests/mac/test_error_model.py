import numpy as np
import pytest

from repro.mac.error_model import BerCurveErrorModel, FixedFerModel, fit_ber_curve
from repro.util.rng import RngStream


class TestBerCurve:
    def test_standard_error_grows_with_index(self):
        model = BerCurveErrorModel()
        assert model.symbol_error(500, rte=False) > model.symbol_error(0, rte=False)

    def test_rte_error_flat(self):
        model = BerCurveErrorModel()
        assert model.symbol_error(500, rte=True) == model.symbol_error(0, rte=True)

    def test_error_capped(self):
        model = BerCurveErrorModel(base_symbol_error=0.1, bias_growth=1.0)
        assert model.symbol_error(10_000, rte=False) == 0.5

    def test_success_probability_decreases_with_length(self):
        model = BerCurveErrorModel()
        p_short = model.subframe_success_probability(0, 10, rte=False)
        p_long = model.subframe_success_probability(0, 500, rte=False)
        assert p_long < p_short <= 1.0

    def test_tail_subframes_fail_more_without_rte(self):
        """The mechanism that penalises MU-Aggregation: same subframe
        length, later position, lower success."""
        model = BerCurveErrorModel()
        head = model.subframe_success_probability(0, 100, rte=False)
        tail = model.subframe_success_probability(900, 100, rte=False)
        assert tail < 0.8 * head

    def test_rte_position_independent(self):
        model = BerCurveErrorModel()
        head = model.subframe_success_probability(0, 100, rte=True)
        tail = model.subframe_success_probability(900, 100, rte=True)
        assert head == pytest.approx(tail)

    def test_draw_statistics(self):
        model = BerCurveErrorModel(base_symbol_error=5e-3)
        rng = RngStream(0).child("e")
        p = model.subframe_success_probability(0, 50, rte=False)
        draws = [model.draw_subframe(rng, 0, 50, rte=False) for _ in range(3000)]
        assert np.mean(draws) == pytest.approx(p, abs=0.03)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BerCurveErrorModel(base_symbol_error=2.0)
        with pytest.raises(ValueError):
            BerCurveErrorModel(bias_growth=-1.0)
        with pytest.raises(ValueError):
            BerCurveErrorModel().subframe_success_probability(0, 0, rte=False)


class TestFastPaths:
    """The memo and the array ``symbol_error`` agree with the originals."""

    def test_scalar_memo_returns_exact_original_float(self):
        model = BerCurveErrorModel()
        for start, n, rte in [(0, 1, False), (7, 113, False), (500, 40, True)]:
            exact = model._success_probability_exact(start, n, rte)
            assert model.subframe_success_probability(start, n, rte) == exact
            # Second lookup serves the memo — still the identical float.
            assert model.subframe_success_probability(start, n, rte) == exact

    def test_array_symbol_error_matches_scalar(self):
        model = BerCurveErrorModel(base_symbol_error=1e-3, bias_growth=0.3)
        indices = np.arange(0, 1200, 7)
        for rte in (False, True):
            vectorised = np.asarray(model.symbol_error(indices, rte))
            scalar = np.array([model.symbol_error(int(i), rte) for i in indices])
            np.testing.assert_array_equal(vectorised, scalar)


class TestFixedFer:
    def test_zero_fer_always_succeeds(self):
        model = FixedFerModel(0.0)
        rng = RngStream(1).child("e")
        assert all(model.draw_subframe(rng, 0, 10, False) for _ in range(100))

    def test_certain_failure(self):
        model = FixedFerModel(1.0)
        rng = RngStream(2).child("e")
        assert not any(model.draw_subframe(rng, 0, 10, False) for _ in range(100))


class TestFit:
    def test_recovers_linear_curve(self):
        true = BerCurveErrorModel(base_symbol_error=3e-4, bias_growth=0.05,
                                  rte_symbol_error=2.5e-4)
        n = np.arange(120)
        standard = np.asarray(true.symbol_error(n, rte=False))
        rte = np.asarray(true.symbol_error(n, rte=True))
        fitted = fit_ber_curve(standard, rte)
        assert fitted.base_symbol_error == pytest.approx(3e-4, rel=0.05)
        assert fitted.bias_growth == pytest.approx(0.05, rel=0.05)
        assert fitted.rte_symbol_error == pytest.approx(2.5e-4, rel=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_ber_curve(np.array([1e-3]), np.array([1e-3]))
