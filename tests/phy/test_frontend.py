import numpy as np
import pytest

from repro.phy import PhyTransmitter, mcs_by_name
from repro.phy.cfo import phase_step_from_cfo
from repro.phy.frontend import Acquisition, acquire


def _frame():
    return PhyTransmitter(mcs_by_name("QPSK-1/2")).build_frame(b"front end" * 20)


class TestAcquire:
    def test_clean_frame_transparent(self):
        frame = _frame()
        front = acquire(frame.symbols)
        assert isinstance(front, Acquisition)
        assert abs(front.cfo_hz) < 1.0
        np.testing.assert_allclose(front.channel_estimate, np.ones(52), atol=1e-9)

    def test_cfo_removed_from_derotated(self):
        frame = _frame()
        step = phase_step_from_cfo(2000.0)
        n = frame.n_symbols
        ramp = np.exp(1j * step * np.arange(n))[:, None]
        front = acquire(frame.symbols * ramp)
        # After de-rotation the LTF repeats must agree again.
        np.testing.assert_allclose(front.derotated[2], front.derotated[3], atol=1e-9)

    def test_derotation_anchored_at_first_ltf(self):
        frame = _frame()
        front = acquire(frame.symbols)
        np.testing.assert_allclose(front.derotated, frame.symbols, atol=1e-12)

    def test_symbol_duration_scales_cfo_report(self):
        frame = _frame()
        step = phase_step_from_cfo(1000.0)  # at 4 µs symbols
        ramp = np.exp(1j * step * np.arange(frame.n_symbols))[:, None]
        received = frame.symbols * ramp
        at_20mhz = acquire(received).cfo_hz
        at_2mhz = acquire(received, symbol_duration=40e-6).cfo_hz
        assert at_20mhz == pytest.approx(10.0 * at_2mhz, rel=1e-6)
