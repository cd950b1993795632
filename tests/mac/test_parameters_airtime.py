import pytest

from repro.core.ahdr import AHDR_SYMBOLS
from repro.mac.airtime import (
    ack_airtime,
    ack_train_airtime,
    frame_airtime,
    single_frame_airtime,
)
from repro.mac.parameters import DEFAULT_PARAMETERS, PhyMacParameters


class TestParameters:
    def test_table2_values(self):
        """Paper Table 2."""
        p = DEFAULT_PARAMETERS
        assert p.slot_time == 9e-6
        assert p.sifs == 10e-6
        assert p.difs == 28e-6
        assert p.cw_min == 15
        assert p.cw_max == 1023
        assert p.plcp_header_time == 28e-6
        assert p.propagation_delay == 1e-6

    def test_difs_relation(self):
        """DIFS = SIFS + 2 slots in 802.11n 2.4 GHz."""
        p = DEFAULT_PARAMETERS
        assert p.difs == pytest.approx(p.sifs + 2 * p.slot_time)

    def test_invalid_cw_rejected(self):
        with pytest.raises(ValueError):
            PhyMacParameters(cw_min=31, cw_max=15)

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError):
            PhyMacParameters(slot_time=0.0)

    def test_eifs_larger_than_difs(self):
        assert DEFAULT_PARAMETERS.eifs > DEFAULT_PARAMETERS.difs


class TestAirtime:
    def test_payload_scales_with_rate(self):
        p = DEFAULT_PARAMETERS
        assert single_frame_airtime(1500, p) - p.plcp_header_time \
            == pytest.approx(1500 * 8 / p.phy_rate_bps)

    def test_single_frame_includes_plcp(self):
        p = DEFAULT_PARAMETERS
        assert single_frame_airtime(100, p) == pytest.approx(
            p.plcp_header_time + 100 * 8 / p.phy_rate_bps
        )

    def test_ack_at_basic_rate(self):
        p = DEFAULT_PARAMETERS
        assert ack_airtime(p) == pytest.approx(p.plcp_header_time + 14 * 8 / p.basic_rate_bps)

    def test_carpool_overhead_is_small(self):
        """A Carpool frame for 8 receivers adds 2 A-HDR symbols + 8 SIGs =
        10 OFDM symbols over the bare aggregate — tens of µs, not the
        59 µs-per-8-addresses of explicit PHY-header addressing (§3)."""
        p = DEFAULT_PARAMETERS
        payload = 8 * 20  # eight 650 B subframes, 20 whole symbols each
        carpool = frame_airtime(AHDR_SYMBOLS + 8 + payload, p)
        bare = frame_airtime(payload, p)
        overhead = carpool - bare
        assert overhead == pytest.approx(10 * p.symbol_duration)
        assert overhead < 59e-6

    def test_sequential_ack_linear_in_receivers(self):
        p = DEFAULT_PARAMETERS
        one = ack_train_airtime(1, p)
        eight = ack_train_airtime(8, p)
        assert one == p.sifs + ack_airtime(p)
        assert eight == pytest.approx(8 * one)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            single_frame_airtime(-1, DEFAULT_PARAMETERS)

    def test_carpool_beats_per_frame_transmissions(self):
        """One Carpool frame for 8 STAs costs far less air than 8 separate
        exchanges — the contention-reduction argument of §2."""
        p = DEFAULT_PARAMETERS
        n_symbols = 10  # 325 B per receiver: whole symbols at 65 Mbit/s
        carpool = (frame_airtime(AHDR_SYMBOLS + 8 * (1 + n_symbols), p)
                   + ack_train_airtime(8, p))
        separate = 8 * (frame_airtime(n_symbols, p) + ack_train_airtime(1, p) + p.difs)
        # ~30 % less air even before counting the 8× fewer backoffs.
        assert carpool < 0.75 * separate
