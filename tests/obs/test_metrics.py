"""MetricsRegistry: instruments, scopes, merging, and serialisation."""

import pickle

import pytest

from repro.obs.metrics import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    Timer,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        other = Counter(2)
        c.merge(other)
        assert c.value == 7

    def test_timer_records_spans(self):
        t = Timer()
        with t.time():
            pass
        t.observe(0.5)
        assert t.count == 2
        assert t.max >= 0.5
        assert 0 <= t.min <= 0.5
        assert t.mean == pytest.approx(t.total / 2)

    def test_timer_merge(self):
        a, b = Timer(), Timer()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2 and a.total == 4.0
        assert a.min == 1.0 and a.max == 3.0

    def test_empty_timer_serialises_cleanly(self):
        t = Timer()
        data = t.to_value()
        assert data["min"] == 0.0  # not inf — must stay JSON-clean
        restored = Timer.from_value(data)
        restored.observe(2.0)
        assert restored.min == 2.0  # inf sentinel restored


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.timer("a")

    def test_scope_prefixes_into_shared_store(self):
        reg = MetricsRegistry()
        reg.scope("phy").counter("crc").inc()
        reg.scope("phy").scope("rte").counter("x").inc(2)
        assert reg.counter("phy.crc").value == 1
        assert reg.counter("phy.rte.x").value == 2
        assert reg.names() == ["phy.crc", "phy.rte.x"]

    def test_merge_sums_and_copies(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("n").inc()
        worker.counter("n").inc(2)
        worker.timer("t").observe(1.5)
        parent.merge(worker)
        assert parent.counter("n").value == 3
        assert parent.timer("t").count == 1
        # The merged-in instrument is a copy: later worker mutations must
        # not alias into the parent.
        worker.timer("t").observe(9.0)
        assert parent.timer("t").count == 1

    def test_merge_kind_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.timer("x").observe(1.0)
        with pytest.raises(TypeError, match="cannot merge"):
            a.merge(b)

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.timer("t").observe(0.25)
        restored = MetricsRegistry.from_dict(reg.to_dict())
        assert restored.to_dict() == reg.to_dict()

    def test_merge_dict(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("w").inc(7)
        parent.merge_dict(worker.to_dict())
        assert parent.counter("w").value == 7

    def test_pickle_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.timer("t").observe(0.5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.to_dict() == reg.to_dict()


class TestNullFastPath:
    def test_null_registry_hands_out_shared_noop(self):
        assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
        assert NULL_REGISTRY.timer("x") is NULL_INSTRUMENT
        assert NULL_REGISTRY.scope("phy") is NULL_REGISTRY
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.to_dict() == {}

    def test_null_instrument_is_inert(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.inc(5)
        with NULL_INSTRUMENT.time():
            pass

    def test_null_registry_merge_is_noop(self):
        real = MetricsRegistry()
        real.counter("x").inc()
        NULL_REGISTRY.merge(real)
        NULL_REGISTRY.merge_dict(real.to_dict())
        assert NULL_REGISTRY.to_dict() == {}
