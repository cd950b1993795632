"""Process-local, zero-dependency metrics registry.

Two instrument kinds cover everything the stack reports:

* :class:`Counter` — monotonically increasing event counts (cache hits,
  pool reuses, CRC passes).
* :class:`Timer` — accumulated wall-time spans with count/min/max (the
  per-layer timer table ``repro report`` renders).

Design constraints, in priority order:

1. **Disabled is free.** Observability is off by default; every accessor
   then returns a shared :class:`NullInstrument` whose methods are empty
   — instrumented hot paths pay one no-op method call, no allocation, no
   branching on configuration.
2. **Picklable and mergeable.** ``runtime.trials`` workers build their own
   registries; :meth:`MetricsRegistry.merge` (or ``merge_dict`` on the
   ``to_dict`` form) reduces them into the parent's, summing counters
   and timers. Instruments are plain-``__slots__`` objects, so
   a registry round-trips through pickle and JSON.
3. **Named scopes.** ``registry.scope("phy")`` returns a view whose
   instruments land in the same store under a ``phy.`` prefix, so a layer
   can be handed one object and stay oblivious to global naming.
"""

from __future__ import annotations

import time

__all__ = [
    "Counter",
    "Timer",
    "MetricsRegistry",
    "NullInstrument",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
]


class _NullContext:
    """Reusable no-op context manager (the disabled ``Timer.time()``)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullInstrument:
    """The disabled fast path: every instrument method is a no-op.

    A single shared instance stands in for every instrument kind, so code
    can hoist ``registry.counter("x")`` once and call ``inc()`` in a hot
    loop with no conditional.
    """

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def time(self):
        return _NULL_CONTEXT


NULL_INSTRUMENT = NullInstrument()


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: float = 0):
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_value(self):
        return self.value

    @classmethod
    def from_value(cls, value) -> "Counter":
        return cls(value)


class _TimerContext:
    """One timed span; created per ``with timer.time():`` block."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer"):
        self._timer = timer

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._timer.observe(time.perf_counter() - self._start)
        return False


class Timer:
    """Accumulated wall-time spans (count, total, min, max)."""

    __slots__ = ("count", "total", "min", "max")
    kind = "timer"

    def __init__(self, count: int = 0, total: float = 0.0,
                 min_s: float = float("inf"), max_s: float = 0.0):
        self.count = count
        self.total = total
        self.min = min_s
        self.max = max_s

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def time(self) -> _TimerContext:
        return _TimerContext(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_value(self):
        return {
            "count": self.count, "total": self.total,
            "min": self.min if self.count else 0.0, "max": self.max,
        }

    @classmethod
    def from_value(cls, data) -> "Timer":
        min_s = data["min"] if data["count"] else float("inf")
        return cls(data["count"], data["total"], min_s, data["max"])


_KINDS = {"counter": Counter, "timer": Timer}


class MetricsRegistry:
    """A named store of instruments; picklable, mergeable, scopable.

    >>> reg = MetricsRegistry()
    >>> reg.counter("runtime.cache_hits").inc()
    >>> reg.scope("runtime").counter("cache_hits").inc()
    >>> reg.counter("runtime.cache_hits").value
    2
    """

    def __init__(self):
        self._metrics: dict = {}  # name -> instrument

    # -- instrument accessors (get-or-create) --------------------------------

    def _get(self, name: str, factory):
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = self._metrics[name] = factory()
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {factory.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        return self._get(name, Timer)

    def scope(self, prefix: str) -> "_ScopedRegistry":
        """A view of this registry that prefixes every name with ``prefix.``."""
        return _ScopedRegistry(self, prefix)

    # -- introspection / reduction -------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (sums counters and timers)."""
        for name, instrument in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                # Re-create rather than alias: the other registry may keep
                # mutating its instruments (e.g. the next chunk).
                self._metrics[name] = _KINDS[instrument.kind].from_value(
                    instrument.to_value()
                )
            elif mine.kind != instrument.kind:
                raise TypeError(
                    f"metric {name!r}: cannot merge {instrument.kind} "
                    f"into {mine.kind}"
                )
            else:
                mine.merge(instrument)

    def merge_dict(self, data: dict) -> None:
        """Fold a ``to_dict`` snapshot (e.g. from a pool worker) in."""
        self.merge(MetricsRegistry.from_dict(data))

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot: ``{kind: {name: value}}``."""
        out: dict = {}
        for name in sorted(self._metrics):
            instrument = self._metrics[name]
            out.setdefault(instrument.kind + "s", {})[name] = instrument.to_value()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        for plural, entries in data.items():
            kind = _KINDS[plural[:-1]]
            for name, value in entries.items():
                registry._metrics[name] = kind.from_value(value)
        return registry


class _ScopedRegistry:
    """A prefixing view over a parent registry (shares the store)."""

    __slots__ = ("_parent", "_prefix")

    def __init__(self, parent, prefix: str):
        self._parent = parent
        self._prefix = prefix.rstrip(".") + "."

    def counter(self, name: str):
        return self._parent.counter(self._prefix + name)

    def timer(self, name: str):
        return self._parent.timer(self._prefix + name)

    def scope(self, prefix: str) -> "_ScopedRegistry":
        return _ScopedRegistry(self._parent, self._prefix + prefix)


class NullRegistry:
    """Registry stand-in when metrics are disabled: every accessor returns
    the shared :data:`NULL_INSTRUMENT`, scopes return ``self``, reductions
    are no-ops. One shared instance (:data:`NULL_REGISTRY`)."""

    __slots__ = ()

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def timer(self, name: str):
        return NULL_INSTRUMENT

    def scope(self, prefix: str):
        return self

    def merge(self, other):
        pass

    def merge_dict(self, data):
        pass

    def to_dict(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
