"""Hard-decision BER over AWGN against the exact Gray-mapped closed form.

Random bits are mapped with ``Modulation.modulate``, pass through
``channel.awgn.add_awgn`` at a fixed Es/N0 (the constellations have unit
average power, so the channel's SNR is Es/N0), and are decided with
``Modulation.demodulate``, the demapper ``payload_codec.symbols_to_bits``
calls. The measured BER must sit within a binomial bound of theory:

* BPSK: Q(√(2·Es/N0));
* square M-QAM with L = √M Gray-coded levels per axis (QPSK is M = 4):
  the per-axis PAM sum of erfc terms of K. Cho and D. Yoon, "On the
  general BER expression of one- and two-dimensional amplitude
  modulations", IEEE Trans. Commun. 50(7), 2002, Eq. (14).
"""

import math

import numpy as np
import pytest

from repro.channel.awgn import add_awgn
from repro.phy.modulation import BPSK, QAM16, QAM64, QPSK
from repro.util.rng import RngStream

#: About 400k bits, a multiple of every constellation's bits per point.
BITS_PER_POINT = 399_996
#: Allowed |measured − theory| in binomial standard deviations.
Z_BOUND = 4.5


def _ber_bpsk(es_n0: float) -> float:
    return 0.5 * math.erfc(math.sqrt(es_n0))


def _ber_square_qam(m: int, es_n0: float) -> float:
    """Cho & Yoon Eq. (14): mean BER over the bits of one PAM axis."""
    levels = math.isqrt(m)
    bits_per_axis = int(math.log2(levels))
    scale = math.sqrt(3.0 * es_n0 / (2.0 * (m - 1)))
    total = 0.0
    for k in range(1, bits_per_axis + 1):
        weight = 2 ** (k - 1)
        for i in range(int((1 - 2.0 ** -k) * levels)):
            sign = (-1) ** (i * weight // levels)
            multiplicity = weight - math.floor(i * weight / levels + 0.5)
            total += sign * multiplicity * math.erfc((2 * i + 1) * scale)
    return total / (levels * bits_per_axis)


def _theory(mod, es_n0: float) -> float:
    if mod is BPSK:
        return _ber_bpsk(es_n0)
    return _ber_square_qam(mod.points.size, es_n0)


# Three Es/N0 points per modulation, spanning BER ≈ 1e-1 … 5e-4.
CASES = [
    (BPSK, 0.0), (BPSK, 4.0), (BPSK, 7.0),
    (QPSK, 3.0), (QPSK, 7.0), (QPSK, 10.0),
    (QAM16, 10.0), (QAM16, 14.0), (QAM16, 17.0),
    (QAM64, 16.0), (QAM64, 20.0), (QAM64, 23.0),
]


@pytest.mark.parametrize(("mod", "es_n0_db"), CASES,
                         ids=[f"{m.name}-{s:g}dB" for m, s in CASES])
def test_hard_decision_ber_matches_closed_form(mod, es_n0_db):
    seed = 1000 * mod.bits_per_symbol + int(es_n0_db)
    bits = np.random.default_rng(seed).integers(
        0, 2, BITS_PER_POINT, dtype=np.uint8)
    received = add_awgn(mod.modulate(bits), es_n0_db, RngStream(seed))
    measured = float(np.mean(mod.demodulate(received) != bits))

    expected = _theory(mod, 10.0 ** (es_n0_db / 10.0))
    assert 5e-4 <= expected <= 1e-1
    sigma = math.sqrt(expected * (1.0 - expected) / BITS_PER_POINT)
    assert abs(measured - expected) <= Z_BOUND * sigma, (
        f"measured {measured:.4e}, theory {expected:.4e}, "
        f"z = {(measured - expected) / sigma:+.2f}")


class TestClosedForm:
    """The closed form itself, at points with a known answer."""

    def test_qpsk_reduces_to_q_function(self):
        # Gray QPSK is two independent BPSK axes at half the symbol energy.
        for es_n0 in (0.5, 2.0, 8.0):
            assert _ber_square_qam(4, es_n0) == pytest.approx(
                _ber_bpsk(es_n0 / 2.0), rel=1e-12)

    def test_16qam_matches_textbook_expression(self):
        # Gray 16-QAM: (3/8)·erfc(√(γ/10)) + (1/4)·erfc(3√(γ/10))
        # − (1/8)·erfc(5√(γ/10)), γ = Es/N0.
        for es_n0 in (5.0, 20.0, 50.0):
            a = math.sqrt(es_n0 / 10.0)
            textbook = (0.375 * math.erfc(a) + 0.25 * math.erfc(3 * a)
                        - 0.125 * math.erfc(5 * a))
            assert _ber_square_qam(16, es_n0) == pytest.approx(textbook,
                                                               rel=1e-12)
