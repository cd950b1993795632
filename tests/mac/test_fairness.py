import pytest

from repro.mac.engine import _BlockErrorDraws
from repro.mac.fairness import FairCarpoolProtocol, TimeOccupancyTable
from repro.mac.frames import Direction, MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.base import AggregationLimits
from repro.mac.scenarios import VoipScenario
from repro.util.rng import RngStream


def _ap():
    return Node("ap", DEFAULT_PARAMETERS, RngStream(0).child("ap"), is_ap=True)


def _frame(dest, t=0.0, size=300):
    return MacFrame(destination=dest, size_bytes=size, arrival_time=t)


class TestTimeOccupancyTable:
    def test_charge_accumulates(self):
        table = TimeOccupancyTable()
        table.charge("sta0", 1e-3)
        table.charge("sta0", 2e-3)
        assert table.occupancy("sta0") == pytest.approx(3e-3)

    def test_unknown_station_zero(self):
        assert TimeOccupancyTable().occupancy("ghost") == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeOccupancyTable().charge("sta0", -1.0)

    def test_rank_least_served_first(self):
        table = TimeOccupancyTable()
        table.charge("a", 5e-3)
        table.charge("b", 1e-3)
        assert table.rank({"a", "b", "c"}) == ["c", "b", "a"]

    def test_jain_index(self):
        table = TimeOccupancyTable()
        assert table.jain_index() == 1.0
        table.charge("a", 1.0)
        table.charge("b", 1.0)
        assert table.jain_index() == pytest.approx(1.0)
        table.charge("a", 8.0)
        assert table.jain_index() < 0.8


class TestFairCarpool:
    def _proto(self):
        return FairCarpoolProtocol(
            DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.005)
        )

    def test_least_served_goes_first(self):
        proto = self._proto()
        proto.occupancy.charge("sta0", 10e-3)  # heavily served already
        ap = _ap()
        ap.enqueue(_frame("sta0", t=0.0))
        ap.enqueue(_frame("sta1", t=0.1))
        tx = proto.build(ap, 1.0)
        assert [sf.destination for sf in tx.subframes] == ["sta1", "sta0"]

    def test_symbol_positions_follow_new_order(self):
        proto = self._proto()
        proto.occupancy.charge("sta0", 10e-3)
        ap = _ap()
        ap.enqueue(_frame("sta0", t=0.0, size=1000))
        ap.enqueue(_frame("sta1", t=0.1, size=200))
        tx = proto.build(ap, 1.0)
        starts = [sf.start_symbol for sf in tx.subframes]
        assert starts == sorted(starts)
        assert tx.subframes[0].destination == "sta1"

    def test_served_airtime_charged(self):
        proto = self._proto()
        ap = _ap()
        ap.enqueue(_frame("sta0"))
        tx = proto.build(ap, 1.0)
        assert proto.occupancy.occupancy("sta0") == 0  # build is pure
        proto.on_exchange(tx, [False], 1.0)
        assert proto.occupancy.occupancy("sta0") > 0

    def test_rotation_evens_out_service(self):
        """Serving rounds under the fair policy keeps Jain's index high
        even when one station has far more traffic queued first."""
        proto = self._proto()
        ap = _ap()
        limits_receivers = 8
        for round_ in range(20):
            for i in range(10):
                ap.enqueue(_frame(f"sta{i}", t=round_ * 0.01 + i * 1e-4))
            while ap.queue:
                tx = proto.build(ap, 10.0)
                proto.on_exchange(tx, [True] * len(tx.subframes), 10.0)
        assert all(proto.occupancy.occupancy(f"sta{i}") > 0 for i in range(10))
        assert proto.occupancy.jain_index() > 0.95


def test_table_charges_only_exchanges_that_were_sent(monkeypatch):
    """Collided aggregates are sized by a trial ``build`` and never sent:
    the table holds exactly the airtime of the AP exchanges that were."""
    # The error draw runs once per sent exchange, after every abort path;
    # AP exchanges are the ones carrying downlink frames.
    sent: dict = {}
    draw = _BlockErrorDraws.draw

    def record(draws, subframes):
        if subframes[0].frames[0].direction == Direction.DOWNLINK:
            for subframe in subframes:
                sent[subframe.destination] = (
                    sent.get(subframe.destination, 0.0)
                    + subframe.n_symbols * DEFAULT_PARAMETERS.symbol_duration)
        return draw(draws, subframes)

    monkeypatch.setattr(_BlockErrorDraws, "draw", record)
    protocols = []

    def factory(params, limits):
        protocols.append(FairCarpoolProtocol(params, limits))
        return protocols[0]

    result = VoipScenario(num_stations=10, num_aps=2, duration=2.0,
                          seed=3).run(factory)
    assert result.collisions > 0
    table = protocols[0].occupancy
    assert sent and {s: table.occupancy(s) for s in sent} == sent
