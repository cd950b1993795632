"""The metrics registry: the runtime's pool and IPC counters.

Every simulation fact — a collision, an A-HDR miss, an RTE reject, a
demotion, a CRC pass — is recorded once, in the run's results or as a
trace event (``repro report`` counts those). The registry holds only
what nothing else records, all counted in the parent process by
:mod:`repro.runtime.trials`:

* ``runtime.pool_spawned`` — persistent worker pools started,
* ``runtime.pool_reused`` — runs served by an already-live pool,
* ``runtime.ipc_result_bytes`` — pickled bytes of the chunk results the
  parent received from its workers.

Observability is off by default; the ambient registry is then
:data:`NULL_REGISTRY`, whose counters are one shared no-op
:data:`NULL_INSTRUMENT`, so a counting site pays one empty method call.
"""

from __future__ import annotations

__all__ = [
    "COUNTER_NAMES",
    "Counter",
    "MetricsRegistry",
    "NullInstrument",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
]

#: The registry's counters, in report order.
COUNTER_NAMES = (
    "runtime.ipc_result_bytes",
    "runtime.pool_reused",
    "runtime.pool_spawned",
)


class NullInstrument:
    """The disabled fast path: a counter whose ``inc`` does nothing."""

    __slots__ = ()

    def inc(self, amount=1):
        pass


NULL_INSTRUMENT = NullInstrument()


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class MetricsRegistry:
    """The :data:`COUNTER_NAMES` counters, each starting at zero.

    >>> reg = MetricsRegistry()
    >>> reg.counter("runtime.pool_spawned").inc()
    >>> reg.get("runtime.pool_spawned").value
    1
    """

    def __init__(self):
        self._counters = {name: Counter() for name in COUNTER_NAMES}

    def counter(self, name: str) -> Counter:
        """The counter ``name``; ``KeyError`` for a name not in
        :data:`COUNTER_NAMES`."""
        return self._counters[name]

    def get(self, name: str):
        """The counter registered under ``name``, or ``None``."""
        return self._counters.get(name)

    def names(self) -> list:
        """Registered counter names, sorted."""
        return sorted(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot: ``{"counters": {name: value}}``."""
        return {"counters": {name: self._counters[name].value
                             for name in self.names()}}


class NullRegistry:
    """Registry stand-in when metrics are disabled: every counter is the
    shared :data:`NULL_INSTRUMENT`. One shared instance
    (:data:`NULL_REGISTRY`)."""

    __slots__ = ()

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def to_dict(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
