import pytest

from repro.analysis.efficiency import (
    carpool_exchange,
    mac_efficiency,
    single_frame_exchange,
)
from repro.mac import (
    AggregationLimits,
    CarpoolProtocol,
    Dot11Protocol,
    FixedFerModel,
    WlanSimulator,
)
from repro.mac.engine import AP_NAME
from repro.mac.frames import Arrival
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.util.rng import RngStream


class TestBudgets:
    def test_components_positive(self):
        budget = single_frame_exchange(300, DEFAULT_PARAMETERS)
        assert budget.contention > 0
        assert budget.headers > 0
        assert budget.payload > 0
        assert budget.acks > 0
        assert budget.total == pytest.approx(
            budget.contention + budget.headers + budget.payload + budget.acks
        )

    def test_efficiency_in_unit_interval(self):
        for nbytes in (50, 300, 1500):
            assert 0 < single_frame_exchange(nbytes, DEFAULT_PARAMETERS).efficiency < 1

    def test_larger_frames_more_efficient(self):
        small = single_frame_exchange(100, DEFAULT_PARAMETERS).efficiency
        large = single_frame_exchange(1500, DEFAULT_PARAMETERS).efficiency
        assert large > small

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            single_frame_exchange(0, DEFAULT_PARAMETERS)
        with pytest.raises(ValueError):
            carpool_exchange(300, 0, DEFAULT_PARAMETERS)


class TestCarpoolAmortisation:
    def test_more_receivers_more_efficient(self):
        effs = [
            carpool_exchange(300, n, DEFAULT_PARAMETERS).efficiency
            for n in (1, 2, 4, 8)
        ]
        assert effs == sorted(effs)

    def test_single_receiver_carpool_close_to_legacy(self):
        """With one receiver Carpool only adds the A-HDR + SIG symbols."""
        legacy = single_frame_exchange(1500, DEFAULT_PARAMETERS)
        carpool = carpool_exchange(1500, 1, DEFAULT_PARAMETERS)
        assert carpool.efficiency == pytest.approx(legacy.efficiency, rel=0.1)
        assert carpool.efficiency < legacy.efficiency  # strictly pays A-HDR

    def test_paper_motivating_trend(self):
        """§1: efficiency degrades rapidly from 54 to 600 Mbit/s."""
        eff_54 = mac_efficiency(300, 54e6)
        eff_600 = mac_efficiency(300, 600e6)
        assert eff_600 < 0.2 * eff_54

    def test_carpool_gain_grows_with_rate(self):
        gains = [
            mac_efficiency(300, rate, carpool_receivers=8) / mac_efficiency(300, rate)
            for rate in (54e6, 600e6)
        ]
        assert gains[1] > gains[0] > 1.0


#: 650 B fill exactly 20 OFDM symbols at 65 Mbit/s (260 bits per symbol).
_WHOLE_SYMBOL_BYTES = 650


def _engine_time_per_exchange(protocol, n_receivers, n_exchanges=20, spacing=3e-3):
    """Busy seconds per exchange of one AP serving ``n_receivers`` at a time.

    Each round's frames arrive together, ``spacing`` apart — longer than
    an 8-receiver exchange plus its contention — so no queue builds and
    every exchange carries exactly one 650 B frame per receiver.
    """
    arrivals = [
        Arrival(time=spacing * (k + 1), source=AP_NAME, destination=f"sta{i}",
                size_bytes=_WHOLE_SYMBOL_BYTES)
        for k in range(n_exchanges) for i in range(n_receivers)
    ]
    sim = WlanSimulator(protocol, n_receivers, arrivals,
                        error_model=FixedFerModel(0.0), rng=RngStream(7))
    summary = sim.run(spacing * (n_exchanges + 1))
    assert summary.collisions == 0
    assert sim.metrics.transmissions == n_exchanges
    return sim.metrics.busy_time / sim.metrics.transmissions


class TestEngineAgreement:
    """With one sender and no collisions, the simulator's busy time per
    exchange is the analytic budget without its contention term."""

    def test_dot11(self):
        budget = single_frame_exchange(_WHOLE_SYMBOL_BYTES, DEFAULT_PARAMETERS)
        measured = _engine_time_per_exchange(Dot11Protocol(DEFAULT_PARAMETERS), 1)
        assert measured == pytest.approx(budget.total - budget.contention, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_carpool(self, n):
        budget = carpool_exchange(_WHOLE_SYMBOL_BYTES, n, DEFAULT_PARAMETERS)
        protocol = CarpoolProtocol(DEFAULT_PARAMETERS, AggregationLimits(max_receivers=n))
        measured = _engine_time_per_exchange(protocol, n)
        assert measured == pytest.approx(budget.total - budget.contention, rel=1e-12)
