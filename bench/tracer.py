"""Outside-in span tracer for the benchmark's traced runs.

Nothing under ``src/`` knows it is being traced: :func:`install_layers`
rebinds the public entry points of each layer (a module attribute, "as
bound in" the calling module, or a class attribute) to wrappers that
record spans, and :meth:`Tracer.uninstall` puts the originals back.

* A *timed* wrapper records one span — name, start, end and the index of
  the enclosing span — into flat in-memory arrays. Timed wrappers sit
  only on boundaries crossed at most about once per simulated
  transmission.
* A *counted* wrapper only increments a counter. It is used on the
  per-event boundaries (``ready_time`` and the error-model draws), where
  even a span would distort the loop it measures. Its cost is
  ``calls x per-call cost``, with the per-call cost measured at start-up
  by :func:`measure_overhead`, and :func:`ledger` books it to the
  ``bench.trace`` row instead of the enclosing ``mac.engine`` span.

A layer's self time is the duration of its spans minus the part their
child spans cover. Span names may carry a ``/detail`` suffix; ledger rows
group by the part before the slash.
"""

from __future__ import annotations

import array
import functools
import os
import sys
import time

import numpy as np

#: Every ledger row, in print order. ``bench.trace`` is the tracer's own
#: cost; ``other`` is the part of the wall no span covers.
LAYERS = (
    "traffic",
    "net.plan",
    "phy.crc",
    "mac.engine",
    "mac.protocols",
    "channel",
    "phy.rx",
    "runtime.trials",
    "net.aggregate",
    "serve.checkpoint",
    "obs.telemetry",
    "serve",
    "bench.trace",
    "other",
)

#: Counted (not timed) boundaries whose wrapper cost is booked away from
#: the engine span that encloses every one of their calls.
COUNTED_IN_ENGINE = ("mac.protocols.ready_time", "mac.error_model.draws")

# Tracers whose wrappers are live. A forked pool worker inherits them;
# the fork hook restores the originals there, so in a multi-process run
# only the parent records spans.
_INSTALLED: list = []
_FORK_HOOK_REGISTERED = False


def _uninstall_in_child() -> None:
    for tracer in list(_INSTALLED):
        tracer.uninstall()


class Tracer:
    """Span and counter store plus the patch bookkeeping to undo it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self._patches: list = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def counter(self, name: str) -> list:
        """The one-slot list a counted wrapper increments."""
        return self.counts.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(value)`` sees each return."""
        nid = self.name_id(name)
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return span

    def counted(self, name: str, fn):
        """``fn`` wrapped in a bare call counter."""
        cell = self.counter(name)

        @functools.wraps(fn)
        def count(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return count

    def timed_iterator(self, name: str, fn):
        """``fn`` timed, and each ``next()`` on the iterator it returns."""
        call = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(call(*args, **kwargs))
            return _SpannedIterator(self.timed(name, iterator.__next__))

        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Rebind ``owner.attr`` to ``make(original)``.

        Class attributes are looked up through the MRO; classmethods and
        staticmethods are unwrapped and rewrapped, so the descriptor kind
        is preserved.
        """
        own = attr in vars(owner)
        raw = _raw_attribute(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def patch_exact(self, classes, attr: str, wrap) -> None:
        """Wrap ``attr`` on each class for instances of exactly that class.

        ``super()`` chains between the classes then cross the wrappers of
        the parent classes without recording, so a subclass call that
        delegates upwards counts once. Originals are all resolved before
        the first rebinding.
        """
        originals = [(cls, _raw_attribute(cls, attr)) for cls in classes]
        for cls, fn in originals:
            wrapped = wrap(fn)

            def exact(obj, *args, _cls=cls, _fn=fn, _wrapped=wrapped,
                      **kwargs):
                if type(obj) is _cls:
                    return _wrapped(obj, *args, **kwargs)
                return _fn(obj, *args, **kwargs)

            self.patch(cls, attr, lambda _raw, _exact=exact: _exact)

    def install(self) -> None:
        """Mark this tracer live; forked children undo its wrappers."""
        global _FORK_HOOK_REGISTERED
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_uninstall_in_child)
            _FORK_HOOK_REGISTERED = True
        _INSTALLED.append(self)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, own, previous = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # -- export ---------------------------------------------------------

    def spans(self, first: int = 0, last: int | None = None) -> dict:
        """Columnar copy of spans ``[first, last)`` (parents re-based)."""
        last = len(self.start) if last is None else last
        parent = np.array(self.parent[first:last], dtype=np.int64)
        parent[parent >= 0] -= first
        return {
            "name": np.array(self.name[first:last], dtype=np.int32),
            "parent": parent,
            "start": np.array(self.start[first:last], dtype=np.float64),
            "end": np.array(self.end[first:last], dtype=np.float64),
        }

    def write(self, path: str, units: list) -> None:
        """Write every span, the name table and the unit boundaries."""
        spans = self.spans()
        np.savez(path, names=np.array(self.names), units=np.array(units),
                 **spans)


class _SpannedIterator:
    __slots__ = ("_next",)

    def __init__(self, timed_next):
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _raw_attribute(owner, attr: str):
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)


# --------------------------------------------------------------------------- #
# The layer map.
# --------------------------------------------------------------------------- #


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer the ledger reports."""
    import repro.analysis.deployment_sweep as deployment_sweep
    import repro.analysis.phy_experiments as phy_experiments
    import repro.mac.association as association
    import repro.mac.frame_formats as frame_formats
    import repro.net.deployment as deployment
    import repro.runtime.trials as trials
    import repro.serve.service as service
    from repro.channel.model import ChannelModel
    from repro.mac.engine import WlanSimulator
    from repro.mac.error_model import BerCurveErrorModel
    from repro.mac.protocols import PROTOCOLS
    from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
    from repro.mac.scenarios import CbrScenario, VoipScenario
    from repro.net.aggregate import DeploymentAggregate
    from repro.obs.slo import SloWatchdog

    def timed(name, on_result=None):
        return lambda fn: tracer.timed(name, fn, on_result)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    tracer.install()

    # traffic
    for cls in (CbrScenario, VoipScenario):
        tracer.patch(cls, "build_arrivals", timed("traffic"))
    for attr in ("cbr_downlink_arrivals", "background_uplink_arrivals",
                 "merge_arrivals"):
        tracer.patch(deployment, attr, timed("traffic"))
    tracer.patch(service, "iter_epoch_arrivals",
                 lambda fn: tracer.timed_iterator("traffic", fn))

    # net.plan
    tracer.patch(deployment, "build_topology", timed("net.plan/topology"))
    for attr in ("build_association_timeline", "coupling_fault_plans"):
        tracer.patch(deployment, attr, timed("net.plan"))
    for module in (service, deployment_sweep):
        tracer.patch(module, "simulate_deployment", counted("deployments"))

    # phy.crc
    for module in (association, frame_formats):
        tracer.patch(module, "crc32", timed("phy.crc"))

    # mac.engine, mac.protocols, mac.error_model
    mac_tx = tracer.counter("mac.tx")

    def add_tx(summary):
        mac_tx[0] += summary.transmissions

    tracer.patch(WlanSimulator, "run", timed("mac.engine", add_tx))
    protocols = list(dict.fromkeys([*PROTOCOLS.values(),
                                    CarpoolMixedProtocol]))
    tracer.patch_exact(protocols, "build", timed("mac.protocols"))
    tracer.patch_exact(protocols, "ready_time",
                       counted("mac.protocols.ready_time"))
    for attr in ("draw_subframe", "subframe_success_probability"):
        tracer.patch(BerCurveErrorModel, attr,
                     counted("mac.error_model.draws"))

    # channel, phy.rx
    tracer.patch(ChannelModel, "transmit", timed("channel"))
    frozen_frames = tracer.counter("phy.rx.frozen_frames")

    def add_frames(decoded):
        frozen_frames[0] += len(decoded[0])

    tracer.patch(phy_experiments, "acquire", timed("phy.rx/acquire"))
    tracer.patch(phy_experiments, "decode_subframe_symbols",
                 timed("phy.rx/rte"))
    tracer.patch(phy_experiments, "decode_subframe_symbols_frozen_batch",
                 timed("phy.rx/frozen", add_frames))

    # runtime.trials: run_trials wherever a loaded module bound it.
    run_trials = trials.run_trials
    for name, module in sorted(sys.modules.items()):
        if (name.startswith("repro.") and module is not trials
                and getattr(module, "run_trials", None) is run_trials):
            tracer.patch(module, "run_trials", timed("runtime.trials"))
    tracer.patch(trials, "autotune_chunk_size",
                 timed("runtime.trials/autotune"))

    # net.aggregate
    for attr in ("observe_cell", "merge", "to_dict", "from_dict"):
        tracer.patch(DeploymentAggregate, attr, timed("net.aggregate"))

    # serve.checkpoint, obs.telemetry
    for attr in ("save_state", "append_epoch_record", "write_manifest"):
        tracer.patch(service, attr, timed("serve.checkpoint"))
    for attr in ("append_telemetry_record", "write_health"):
        tracer.patch(service, attr, timed("obs.telemetry"))
    tracer.patch(SloWatchdog, "observe", timed("obs.telemetry"))

    # serve: the driver calls run_soak through this binding.
    tracer.patch(service, "run_soak", timed("serve"))
    return tracer


# --------------------------------------------------------------------------- #
# Wrapper cost and the ledger.
# --------------------------------------------------------------------------- #


class _Probe:
    def method(self, value):
        return value


def _noop(value):
    return value


def _best_loop(fn, calls: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        best = min(best, time.perf_counter() - t0)
    return best / calls


def measure_overhead(calls: int = 50_000) -> dict:
    """Per-call cost of each wrapper kind on this machine, in seconds.

    ``span_inner`` is the part of a span's cost that falls between its own
    two clock reads (so it sits in the span's self time); ``span_outer``
    is the rest, which lands in the enclosing span.
    """
    probe_tracer = Tracer()
    probe = _Probe()
    direct_method = _best_loop(probe.method, calls)
    probe_tracer.patch_exact([_Probe], "method",
                             lambda fn: probe_tracer.counted("probe", fn))
    counted = _best_loop(probe.method, calls)
    probe_tracer.uninstall()

    direct = _best_loop(_noop, calls)
    spanned = probe_tracer.timed("probe", _noop)
    timed_cost = _best_loop(spanned, calls)
    spans = probe_tracer.spans()
    inner = float(np.median(spans["end"] - spans["start"]))
    total = max(timed_cost - direct, 0.0)
    return {
        "counted": max(counted - direct_method, 0.0),
        "span_inner": min(inner, total),
        "span_outer": max(total - inner, 0.0),
    }


def self_by_name(spans: dict, names: list, overhead: dict) -> np.ndarray:
    """Self seconds per span name, net of the wrappers' own cost.

    Each span loses its inner wrapper cost, and each parent loses the
    outer cost of its children's wrappers.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    n = len(duration)
    self_time = (duration
                 - np.bincount(parent[nested], weights=duration[nested],
                               minlength=n)
                 - overhead["span_inner"]
                 - overhead["span_outer"] * np.bincount(parent[nested],
                                                        minlength=n))
    return np.bincount(spans["name"], weights=self_time, minlength=len(names))


def ledger(spans: dict, names: list, wall: float, counted_calls: int,
           overhead: dict) -> dict:
    """Self seconds per ledger row for one traced unit of ``wall`` seconds.

    Wrapper costs move from the rows they inflated to ``bench.trace``:
    each span's inner cost from its own row, its outer cost from its
    parent's row (or ``other`` at top level), and the counted calls'
    cost from ``mac.engine``. The rows therefore sum to ``wall``, unless
    a correction is larger than the row it comes from, which
    :func:`check_coverage` reports.
    """
    rows = dict.fromkeys(LAYERS, 0.0)
    n = len(spans["start"])
    for name, value in zip(names, self_by_name(spans, names, overhead)):
        rows[name.split("/")[0]] += float(value)
    top = spans["parent"] < 0
    rows["other"] = (wall - float((spans["end"] - spans["start"])[top].sum())
                     - overhead["span_outer"] * int(top.sum()))
    rows["bench.trace"] = n * (overhead["span_inner"] + overhead["span_outer"])
    engine_share = counted_calls * overhead["counted"]
    rows["mac.engine"] -= engine_share
    rows["bench.trace"] += engine_share
    return rows


def check_coverage(rows: dict, wall: float,
                   tolerance: float = 0.05) -> str | None:
    """Why the ledger fails to account for ``wall``, or ``None``.

    Negative rows are counted as zero, so a correction larger than the
    row it was taken from shows up as a sum above the wall.
    """
    total = sum(max(v, 0.0) for v in rows.values())
    if abs(total - wall) > tolerance * wall:
        return f"rows sum to {total:.4f} s of a {wall:.4f} s wall"
    return None
