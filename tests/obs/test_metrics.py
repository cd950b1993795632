"""MetricsRegistry: the runtime's pool and IPC counters."""

import pytest

from repro.obs.metrics import (
    COUNTER_NAMES,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestRegistry:
    def test_holds_the_runtime_counters_at_zero(self):
        reg = MetricsRegistry()
        assert reg.names() == sorted(COUNTER_NAMES) == [
            "runtime.ipc_result_bytes", "runtime.pool_reused",
            "runtime.pool_spawned"]
        assert len(reg) == 3
        assert reg.counter("runtime.pool_spawned") is reg.get(
            "runtime.pool_spawned")
        assert all(reg.get(name).value == 0 for name in COUNTER_NAMES)

    def test_other_names_are_refused(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.counter("mac.collisions")
        assert reg.get("mac.collisions") is None

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("runtime.ipc_result_bytes").inc(300)
        reg.counter("runtime.pool_spawned").inc()
        assert reg.to_dict() == {"counters": {
            "runtime.ipc_result_bytes": 300,
            "runtime.pool_reused": 0,
            "runtime.pool_spawned": 1,
        }}


class TestNullFastPath:
    def test_null_registry_hands_out_shared_noop(self):
        assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.to_dict() == {}

    def test_null_instrument_is_inert(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.inc(5)

