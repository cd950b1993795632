"""Sequential ACK (§4.2, Eqs. 1–2): an explicit timetable as the oracle.

All receivers of a Carpool frame decode it at (nearly) the same instant;
simultaneous ACKs would collide at the AP. Carpool serialises them with
modified NAV values:

* the data frame reserves the medium for the whole sequence:
      NAV_data = t_payload + N·(t_ACK + t_SIFS)
* the receiver of subframe i waits out the earlier ACKs:
      NAV_i = (i−1)·(t_ACK + t_SIFS)          (1-based i)
* the j-th ACK advertises the remaining sequence:
      NAV of ACK_j = NAV_{N−j+1}, so the last ACK carries NAV 0 — exactly
      a legacy ACK.

The simulator charges the whole train as one duration,
:func:`repro.mac.airtime.ack_train_airtime`. :class:`SequentialAckPlan`
spells out every slot of it; `TestAgreesWithAirtime` holds the two
together.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.airtime import ack_airtime, ack_train_airtime
from repro.mac.engine import AP_NAME
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols import AggregationLimits, CarpoolProtocol
from repro.util.rng import RngStream


@dataclass(frozen=True)
class AckTiming:
    """Durations involved in the ACK sequence (seconds)."""

    ack_duration: float
    sifs: float

    @property
    def slot(self) -> float:
        """One ACK slot: SIFS gap plus the ACK itself."""
        return self.ack_duration + self.sifs


class SequentialAckPlan:
    """The timetable of a Carpool frame's ACK sequence.

    Time zero is the end of the data frame.
    """

    def __init__(self, num_receivers: int, timing: AckTiming):
        if num_receivers < 1:
            raise ValueError("need at least one receiver")
        self.num_receivers = num_receivers
        self.timing = timing

    def nav_data(self, payload_duration: float) -> float:
        """NAV carried by the data frame (Eq. 1)."""
        return payload_duration + self.num_receivers * self.timing.slot

    def receiver_nav(self, position: int) -> float:
        """NAV_i set by the receiver of subframe ``position`` (0-based) (Eq. 2)."""
        self._check(position)
        return position * self.timing.slot

    def ack_nav(self, position: int) -> float:
        """NAV carried *inside* the ACK of subframe ``position`` (0-based).

        The j-th ACK (1-based) sets NAV_{N−j+1}; the last ACK's NAV is 0.
        """
        self._check(position)
        remaining = self.num_receivers - (position + 1)
        return remaining * self.timing.slot

    def ack_start_time(self, position: int) -> float:
        """When the ACK of subframe ``position`` starts, after the data frame."""
        self._check(position)
        return self.timing.sifs + position * self.timing.slot

    def ack_end_time(self, position: int) -> float:
        """When the ACK of subframe ``position`` ends."""
        return self.ack_start_time(position) + self.timing.ack_duration

    def sequence_duration(self) -> float:
        """Total time from end of data to end of the last ACK."""
        return self.ack_end_time(self.num_receivers - 1)

    def match_ack_to_subframe(self, arrival_time: float, tolerance: float = 2e-6) -> int:
        """Identify which subframe an ACK belongs to from its arrival time.

        Propagation/processing deltas are far smaller than an ACK slot.
        Raises ``ValueError`` if the timestamp matches no slot.
        """
        for position in range(self.num_receivers):
            if abs(arrival_time - self.ack_start_time(position)) <= tolerance:
                return position
        raise ValueError(f"ACK at t={arrival_time} matches no slot")

    def _check(self, position: int) -> None:
        if not 0 <= position < self.num_receivers:
            raise ValueError(
                f"position {position} out of range 0..{self.num_receivers - 1}"
            )


TIMING = AckTiming(ack_duration=44e-6, sifs=10e-6)
#: The ACK and SIFS durations the simulator runs with.
RUN_TIMING = AckTiming(ack_airtime(DEFAULT_PARAMETERS), DEFAULT_PARAMETERS.sifs)


class TestAckTiming:
    def test_slot(self):
        assert TIMING.slot == pytest.approx(54e-6)


class TestPlan:
    def test_nav_data_eq1(self):
        """Eq. (1): NAV_data = t_payload + N·(t_ACK + t_SIFS)."""
        plan = SequentialAckPlan(3, TIMING)
        assert plan.nav_data(500e-6) == pytest.approx(500e-6 + 3 * 54e-6)

    def test_receiver_nav_eq2(self):
        """Eq. (2): NAV_i = (i−1)·(t_ACK + t_SIFS) with 1-based i."""
        plan = SequentialAckPlan(4, TIMING)
        assert plan.receiver_nav(0) == 0.0
        assert plan.receiver_nav(2) == pytest.approx(2 * 54e-6)

    def test_last_ack_nav_zero_like_legacy(self):
        plan = SequentialAckPlan(5, TIMING)
        assert plan.ack_nav(4) == 0.0
        assert plan.ack_nav(0) == pytest.approx(4 * 54e-6)

    def test_acks_do_not_overlap(self):
        plan = SequentialAckPlan(8, TIMING)
        for i in range(7):
            assert plan.ack_end_time(i) < plan.ack_start_time(i + 1)

    def test_acks_spaced_by_sifs(self):
        plan = SequentialAckPlan(4, TIMING)
        for i in range(3):
            gap = plan.ack_start_time(i + 1) - plan.ack_end_time(i)
            assert gap == pytest.approx(TIMING.sifs)

    def test_sequence_duration_matches_nav(self):
        plan = SequentialAckPlan(6, TIMING)
        assert plan.sequence_duration() == pytest.approx(6 * TIMING.slot)
        assert plan.nav_data(0.0) == pytest.approx(plan.sequence_duration())

    def test_match_ack_by_timestamp(self):
        plan = SequentialAckPlan(4, TIMING)
        for i in range(4):
            arrival = plan.ack_start_time(i) + 0.5e-6  # small propagation delay
            assert plan.match_ack_to_subframe(arrival) == i

    def test_unmatched_timestamp_raises(self):
        plan = SequentialAckPlan(2, TIMING)
        with pytest.raises(ValueError):
            plan.match_ack_to_subframe(plan.ack_start_time(0) + 20e-6)

    def test_position_bounds_checked(self):
        plan = SequentialAckPlan(2, TIMING)
        with pytest.raises(ValueError):
            plan.receiver_nav(2)
        with pytest.raises(ValueError):
            plan.ack_nav(-1)

    def test_single_receiver_degenerates_to_legacy(self):
        plan = SequentialAckPlan(1, TIMING)
        assert plan.ack_nav(0) == 0.0
        assert plan.ack_start_time(0) == pytest.approx(TIMING.sifs)

    def test_zero_receivers_rejected(self):
        with pytest.raises(ValueError):
            SequentialAckPlan(0, TIMING)


class TestSequentialAckProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8))
    def test_nav_consistency(self, n):
        """Eq. (1) equals the actual end of the ACK sequence, the last ACK
        carries NAV 0, and slots never overlap — for every receiver count."""
        plan = SequentialAckPlan(n, TIMING)
        assert plan.nav_data(0.0) == pytest.approx(plan.sequence_duration())
        assert plan.ack_nav(n - 1) == 0.0
        for i in range(n - 1):
            assert plan.ack_end_time(i) < plan.ack_start_time(i + 1)
            # Each ACK's NAV covers exactly the remaining sequence.
            remaining = plan.sequence_duration() - plan.ack_end_time(i)
            assert plan.ack_nav(i) == pytest.approx(remaining)


class TestAgreesWithAirtime:
    """The timetable and the durations the simulator charges are one model."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sequence_is_the_ack_train(self, n):
        plan = SequentialAckPlan(n, RUN_TIMING)
        assert plan.sequence_duration() == pytest.approx(
            ack_train_airtime(n, DEFAULT_PARAMETERS), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_carpool_exchange_is_nav_data(self, n):
        """A Carpool build over N stations occupies the channel for
        exactly the NAV its data frame carries (Eq. 1)."""
        ap = Node(AP_NAME, DEFAULT_PARAMETERS, RngStream(0).child(AP_NAME), is_ap=True)
        for i in range(n):
            ap.enqueue(MacFrame(destination=f"sta{i}", size_bytes=300, arrival_time=0.0))
        protocol = CarpoolProtocol(DEFAULT_PARAMETERS, AggregationLimits(max_receivers=n))
        tx = protocol.build(ap, 0.0)
        assert len(tx.subframes) == n
        plan = SequentialAckPlan(n, RUN_TIMING)
        assert tx.total_duration == pytest.approx(plan.nav_data(tx.airtime), rel=1e-12)
