"""The event-driven CSMA/CA simulator.

One AP and N STAs share a single collision domain (all nodes within
carrier-sense range, as in the paper's §7.2.1 setup). The engine advances
time between three kinds of events — traffic arrivals, backoff expiries and
busy periods — using standard slot-jumping DCF simulation:

* every backlogged node holds a backoff counter drawn from its CW;
* the medium stays idle for DIFS + k slots where k is the smallest counter;
* the node(s) reaching zero transmit; simultaneous zeros collide;
* after any busy period, a fresh DIFS precedes the next countdown.

Frame-decoding outcomes come from the pluggable error model (trace-driven
from this package's PHY); failed subframes are retransmitted with priority,
frames exceeding the retry limit are dropped. Every duration the engine
charges (frames, ACK trains, the RTS/CTS handshake) comes from
:mod:`repro.mac.airtime`, and the channel's busy time is recorded in
:class:`MetricsCollector`; the engine keeps no per-node radio ledger
(§8's energy result is the analytic :mod:`repro.core.energy` model).

The protocol is the APs' downlink policy only. STAs are the engine's: a
STA contends exactly when it is backlogged and sends
``protocol.build_single(sta)``. Each round of the event loop queues the
arrivals due, calls ``protocol.on_round(aps, now)`` with every AP, then
asks the pure ``protocol.ready_time(ap, now)`` of each backlogged AP. A
winning AP's exchange comes from ``protocol.build(ap, now)``, and once it
has reached its receivers ``protocol.on_exchange(transmission, acked,
now)`` reports the per-subframe ACK outcomes.
"""

from __future__ import annotations

from copy import copy

from repro.mac.airtime import cts_airtime, rts_airtime, rts_cts_overhead
from repro.mac.error_model import DEFAULT_ERROR_MODEL
from repro.mac.frames import Arrival, MacFrame
from repro.mac.metrics import MetricsCollector, MetricsSummary
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS, PhyMacParameters
from repro.mac.protocols.base import Protocol
from repro.obs.trace import active_recorder
from repro.util.rng import RngStream

__all__ = ["WlanSimulator", "AP_NAME"]

AP_NAME = "ap"

class _BlockErrorDraws:
    """Subframe decode outcomes from block-drawn uniforms.

    Each subframe consumes exactly one uniform from the ``errors`` stream,
    in subframe order, and decodes iff that uniform falls below the error
    model's ``subframe_success_probability``. Uniforms are drawn ``block``
    at a time: a block ``uniform(size=k)`` reads the same stream values as
    ``k`` scalar draws, so outcomes equal sequential
    ``model.draw_subframe`` calls on that stream. The unconsumed tail of
    the last block is invisible, because the ``errors`` child stream
    feeds nothing else.
    """

    def __init__(self, error_model, rng: RngStream, block: int = 1024):
        self._model = error_model
        self._rng = rng
        self._block = block
        self._buffer: list = []
        self._pos = 0

    def _take(self, n: int) -> list:
        # Fast path: serve straight out of the current block (Python
        # floats via tolist — cheaper than boxing np.float64 per element).
        end = self._pos + n
        if end <= len(self._buffer):
            out = self._buffer[self._pos:end]
            self._pos = end
            return out
        out = []
        while len(out) < n:
            if self._pos >= len(self._buffer):
                self._buffer = self._rng.uniform(size=self._block).tolist()
                self._pos = 0
            take = min(n - len(out), len(self._buffer) - self._pos)
            out.extend(self._buffer[self._pos:self._pos + take])
            self._pos += take
        return out

    def draw(self, subframes: list) -> list:
        """Decode outcomes for one transmission's subframes (ordered)."""
        prob = self._model.subframe_success_probability
        return [
            u < prob(sf.start_symbol, sf.n_symbols, sf.rte)
            for u, sf in zip(self._take(len(subframes)), subframes)
        ]


class WlanSimulator:
    """Runs one scenario: a protocol, a station population, a workload.

    Args:
        protocol: The APs' downlink transmission policy (one of the five
            schemes); STAs always send single 802.11 frames.
        num_stations: STAs associated with the AP.
        arrivals: Time-sorted iterable of :class:`Arrival`. Downlink
            arrivals name the AP as source; uplink arrivals name a STA.
        params: PHY/MAC constants (Table 2 defaults).
        error_model: Subframe decode-failure model.
        rng: Root random stream (backoff and error draws use children).
        use_rts_cts: Prepend an RTS/CTS(-sequence) exchange to every
            downlink transmission (§4.2's hidden-terminal mechanism).
        faults: Optional :class:`repro.faults.FaultPlan` (or a pre-built
            :class:`repro.faults.mac.MacFaultInjector`). MAC faults draw
            from a dedicated ``faults`` child stream — with ``None`` the
            engine performs zero extra draws and runs bit-identically to
            the pre-fault-framework simulator.
        sequential_ack_recovery: Harden the AP's sequential-ACK handling:
            with timestamp-based slot matching a lost ACK costs only its
            own subframe; without it (the naive ordinal matcher) the first
            unexplained ACK gap desynchronises the rest of the sequence
            and every later subframe is conservatively retransmitted.

    The engine asks the error model for one thing only:
    ``subframe_success_probability(start_symbol, n_symbols, rte) -> float``.
    Each subframe decodes iff its uniform, drawn in blocks from the
    ``errors`` child stream, falls below that probability.
    """

    def __init__(
        self,
        protocol: Protocol,
        num_stations: int,
        arrivals,
        params: PhyMacParameters = DEFAULT_PARAMETERS,
        error_model=DEFAULT_ERROR_MODEL,
        rng: RngStream | None = None,
        use_rts_cts: bool = False,
        num_aps: int = 1,
        station_names: list | None = None,
        hidden_pairs: set | None = None,
        faults=None,
        sequential_ack_recovery: bool = False,
    ):
        if num_stations < 1 and not station_names:
            raise ValueError("need at least one station")
        if num_aps < 1:
            raise ValueError("need at least one AP")
        self.protocol = protocol
        self.params = params
        self.error_model = error_model
        self.use_rts_cts = use_rts_cts
        rng = rng or RngStream(seed=0)
        self._error_draws = _BlockErrorDraws(error_model, rng.child("errors"))
        # AP names: "ap", "ap1", "ap2", … — the first is the measured AP;
        # extras model co-channel APs sharing the collision domain (the
        # paper's §7.2.1 setup has two APs in carrier-sense range).
        ap_names = [AP_NAME] + [f"ap{i}" for i in range(1, num_aps)]
        self.aps = {
            name: Node(name, params, rng.child(f"backoff-{name}"), is_ap=True)
            for name in ap_names
        }
        self.ap = self.aps[AP_NAME]
        if station_names is None:
            station_names = [f"sta{i}" for i in range(num_stations)]
        self.stations = {
            name: Node(name, params, rng.child(f"backoff-{name}"))
            for name in station_names
        }
        self.nodes = {**self.aps, **self.stations}
        self._ap_nodes = tuple(self.aps.values())
        self._arrivals = iter(arrivals)
        self._pending_arrival: Arrival | None = None
        self.metrics = MetricsCollector()
        self.now = 0.0
        self._difs_pending = False
        self._consecutive_failures: dict = {}
        # Hidden-terminal topology: unordered name pairs that cannot carrier-
        # sense each other. Everyone else shares one collision domain.
        self._hidden: set = set()
        for pair in hidden_pairs or ():
            a, b = pair
            self._hidden.add(frozenset((a, b)))
        self._hidden_rng = rng.child("hidden")
        self.hidden_collisions = 0
        # Fault injection: a dedicated child stream, never shared with the
        # backoff/error/hidden streams above, so enabling a plan cannot
        # perturb the baseline trajectory of unaffected trials.
        self._faults = None
        self.sequential_ack_recovery = sequential_ack_recovery
        if faults is not None:
            from repro.faults.mac import MacFaultInjector

            if isinstance(faults, MacFaultInjector):
                self._faults = faults
            else:
                self._faults = MacFaultInjector(faults, rng.child("faults"))
        # The ambient recorder, looked up once per run() so disabled runs
        # pay a single None check per logged event.
        self._rec = None

    # ------------------------------------------------------------------ #

    def _log(self, event: str, node: str, detail: str = "") -> None:
        if self._rec is not None:
            self._rec.emit("mac", event, t=round(self.now, 9), node=node,
                           detail=detail)

    def run(self, duration: float) -> MetricsSummary:
        """Simulate ``duration`` seconds and return the metrics summary."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._rec = active_recorder()
        while self.now < duration:
            self._inject_arrivals()
            self.protocol.on_round(self._ap_nodes, self.now)
            ready, wake_time = self._ready_nodes()
            if not ready:
                next_time = self._next_event_time(wake_time)
                if next_time is None or next_time >= duration:
                    break
                self.now = max(self.now, next_time)
                continue
            self._contend(ready, duration)
        return self.metrics.summary(duration)

    # ------------------------------------------------------------------ #

    def _inject_arrivals(self) -> None:
        while True:
            arrival = self._peek_arrival()
            if arrival is None or arrival.time > self.now:
                return
            self._pop_arrival()
            node = self.nodes.get(arrival.source)
            if node is None:
                raise KeyError(f"arrival for unknown node {arrival.source!r}")
            node.enqueue(MacFrame.from_arrival(arrival))
            self.metrics.record_offered()
            self._log("arrival", node.name, f"{arrival.size_bytes} B")

    def _peek_arrival(self) -> Arrival | None:
        if self._pending_arrival is None:
            self._pending_arrival = next(self._arrivals, None)
        return self._pending_arrival

    def _pop_arrival(self) -> None:
        self._pending_arrival = None

    def _ready_nodes(self):
        """Nodes allowed to contend now, plus the earliest future AP wake time.

        Backlogged APs contend once the protocol's ``ready_time`` has
        passed; backlogged STAs contend at once. APs come first, so the
        order matches ``self.nodes``.
        """
        ready = []
        wake = None
        now = self.now
        for ap in self._ap_nodes:
            if not ap.queue:
                continue
            t = self.protocol.ready_time(ap, now)
            if t <= now:
                ready.append(ap)
            else:
                wake = t if wake is None else min(wake, t)
        ready.extend(sta for sta in self.stations.values() if sta.queue)
        return ready, wake

    def _next_event_time(self, wake_time):
        arrival = self._peek_arrival()
        candidates = [t for t in (wake_time, arrival.time if arrival else None) if t is not None]
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------ #

    def _contend(self, ready: list, duration: float) -> None:
        for node in ready:
            node.ensure_backoff()
        k = min(node.backoff_slots for node in ready)
        difs = self.params.difs if self._difs_pending else 0.0
        tx_start = self.now + difs + k * self.params.slot_time

        arrival = self._peek_arrival()
        if arrival is not None and arrival.time < tx_start:
            # An arrival lands mid-countdown: credit the elapsed idle slots
            # and re-enter with the new frame in its queue.
            idle = arrival.time - self.now - difs
            if idle >= 0:
                self._difs_pending = False
                elapsed_slots = min(k, int(idle // self.params.slot_time))
                for node in ready:
                    node.consume_slots(elapsed_slots)
            self.now = arrival.time
            return

        for node in ready:
            node.consume_slots(k)
        self.now = tx_start
        winners = [node for node in ready if node.backoff_slots == 0]
        if len(winners) > 1:
            self._collide(winners)
        else:
            self._transmit(winners[0])
        self._difs_pending = True

    # ------------------------------------------------------------------ #

    def _collide(self, winners: list) -> None:
        busy = max(self._estimate_airtime(node) for node in winners)
        self._log("collision", "+".join(sorted(n.name for n in winners)),
                  f"busy={busy * 1e6:.0f}us")
        self.metrics.record_collision(busy)
        for node in winners:
            failures = self._consecutive_failures.get(node.name, 0) + 1
            if failures > self.params.retry_limit and node.queue:
                dropped = node.queue.popleft()
                self.metrics.record_drop(dropped)
                self._consecutive_failures[node.name] = 0
                node.on_success()  # CW resets after a drop per the standard
            else:
                self._consecutive_failures[node.name] = failures
                node.on_collision()
        self.now += busy

    def _build(self, node: Node):
        """The node's next exchange: the protocol's for an AP, one frame for a STA."""
        if node.is_ap:
            return self.protocol.build(node, self.now)
        return self.protocol.build_single(node)

    def _estimate_airtime(self, node: Node) -> float:
        """Airtime the node's next transmission would occupy (no side effects)."""
        saved_queue = copy(node.queue)
        try:
            return self._build(node).airtime
        finally:
            node.queue.clear()
            node.queue.extend(saved_queue)

    def _hidden_interferers(self, node: Node) -> list:
        if not self._hidden:
            return []
        return [
            other for other in self.nodes.values()
            if other is not node
            and other.backlogged
            and frozenset((node.name, other.name)) in self._hidden
        ]

    def _hidden_hit(self, interferers: list, vulnerable: float) -> Node | None:
        """Does a hidden node start transmitting inside the window?

        Each hidden backlogged node fires after roughly DIFS plus half its
        contention window (it cannot sense the victim, so it counts down
        freely); the chance of overlap scales with the window length.
        """
        for other in interferers:
            mean_access = self.params.difs + 0.5 * other.cw * self.params.slot_time
            probability = min(1.0, vulnerable / max(mean_access, 1e-9))
            if self._hidden_rng.uniform() < probability:
                return other
        return None

    def _transmit(self, node: Node) -> None:
        transmission = self._build(node)
        protected = self.use_rts_cts and node.is_ap
        overhead = (rts_cts_overhead(len(transmission.subframes), self.params)
                    if protected else 0.0)

        # Injected hidden-terminal window: interference the carrier-sense
        # (and RTS/CTS) machinery cannot suppress destroys the whole
        # exchange, like an unprotected hidden-node collision.
        if self._faults is not None and self._faults.hidden_window_hit(self.now):
            self.hidden_collisions += 1
            self._abort(node, transmission,
                        overhead + transmission.total_duration, whole=True,
                        event="fault-hidden")
            return

        interferers = self._hidden_interferers(node)
        if interferers:
            if protected:
                # Only the short RTS is vulnerable; a CTS sequence then
                # silences the hidden nodes (§4.2, Fig. 7).
                rts_time = rts_airtime(self.params)
                culprit = self._hidden_hit(interferers, rts_time)
                busy = rts_time + self.params.difs
                whole = False
            else:
                culprit = self._hidden_hit(
                    interferers, overhead + transmission.airtime
                )
                busy = overhead + transmission.total_duration
                whole = True
            if culprit is not None:
                self.hidden_collisions += 1
                culprit.on_collision()
                self._abort(node, transmission, busy, whole,
                            event="hidden-collision")
                return

        # Injected RTS/CTS failure: a lost CTS aborts the exchange after
        # the RTS + one CTS slot's worth of airtime.
        if protected and self._faults is not None and self._faults.cts_lost(self.now):
            busy = (rts_airtime(self.params) + self.params.sifs
                    + cts_airtime(self.params) + self.params.difs)
            self._abort(node, transmission, busy, whole=False,
                        event="fault-cts-loss")
            return

        total = overhead + transmission.total_duration
        self.metrics.record_transmission(total)
        self._log("transmit", node.name,
                  f"{len(transmission.subframes)} subframes, "
                  f"{transmission.total_payload_bytes} B")
        self._consecutive_failures[node.name] = 0

        data_end = self.now + overhead + transmission.airtime
        decoded = self._error_draws.draw(transmission.subframes)
        if self._faults is not None:
            decoded = self._apply_subframe_faults(transmission, decoded, overhead)
            acked = self._apply_ack_faults(transmission, decoded)
        else:
            acked = decoded

        failed_frames = []
        for subframe, ok, ack_ok in zip(transmission.subframes, decoded, acked):
            if ok:
                for frame in subframe.frames:
                    if not frame.delivered:
                        self.metrics.record_delivery(frame, data_end, source=node.name)
                        frame.delivered = True
            if ack_ok:
                continue
            # No (attributable) ACK: the AP must assume the subframe was
            # lost and retransmit — even if it was in fact delivered.
            self.metrics.record_retransmission()
            for frame in subframe.frames:
                frame.retries += 1
                if frame.retries > self.params.retry_limit:
                    if not frame.delivered:
                        self.metrics.record_drop(frame)
                else:
                    failed_frames.append(frame)
        if node.is_ap:
            self.protocol.on_exchange(transmission, acked, self.now)
        node.requeue_front(failed_frames)
        if any(acked) or not transmission.subframes:
            node.on_success()
        else:
            node.on_collision()  # no ACK at all: double CW like a collision
        self.now += total

    def _apply_subframe_faults(self, transmission, decoded: list, overhead: float) -> list:
        """Overlay A-HDR corruption and bursty-loss outcomes on decode draws."""
        t_sym = self.params.symbol_duration
        plcp = self.params.plcp_header_time
        # Only Carpool-style aggregates carry an A-HDR (their subframes
        # decode with RTE); plain unicast / legacy frames are immune.
        ahdr_spec = None
        if any(sf.rte for sf in transmission.subframes):
            ahdr_spec = self._faults.ahdr_corrupted(self.now)
        outcomes = []
        data_start = self.now + overhead + plcp
        for subframe, ok in zip(transmission.subframes, decoded):
            if ok and ahdr_spec is not None and self._faults.ahdr_subframe_missed(ahdr_spec):
                # The intended STA never finds its subframe in the
                # corrupted header — an undecoded subframe from the AP's
                # point of view.
                ok = False
                if self._rec is not None:
                    self._rec.emit("mac", "ahdr_miss", t=round(self.now, 9),
                                   node=subframe.destination)
            if ok:
                t0 = data_start + subframe.start_symbol * t_sym
                t1 = t0 + subframe.n_symbols * t_sym
                if self._faults.subframe_burst_failed(t0, t1):
                    ok = False
            outcomes.append(ok)
        if ahdr_spec is not None:
            self._charge_false_matches(transmission, ahdr_spec)
        return outcomes

    def _charge_false_matches(self, transmission, ahdr_spec) -> None:
        """Count the bystanders that falsely match a corrupted A-HDR."""
        subframes = transmission.subframes
        if not subframes:
            return
        addressed = {sf.destination for sf in subframes}
        for name in self.stations:
            if name in addressed:
                continue
            if self._faults.ahdr_false_match(ahdr_spec):
                if self._rec is not None:
                    self._rec.emit("mac", "ahdr_false_match",
                                   t=round(self.now, 9), node=name)

    def _apply_ack_faults(self, transmission, decoded: list) -> list:
        """Overlay ACK loss; model the sequential-ACK desync failure mode.

        Each decoded subframe's ACK is lost independently. With
        ``sequential_ack_recovery`` the AP loses only the subframe whose
        ACK was lost. Without it, in a multi-receiver sequence, every
        subframe from the first gap on counts as lost.
        """
        acked = list(decoded)
        first_gap = None
        for i, ok in enumerate(decoded):
            if ok and self._faults.ack_lost(self.now):
                acked[i] = False
                if first_gap is None:
                    first_gap = i
                if self._rec is not None:
                    self._rec.emit(
                        "mac", "ack_lost", t=round(self.now, 9),
                        node=transmission.subframes[i].destination, slot=i)
        if (
            first_gap is not None
            and len(transmission.subframes) > 1
            and not self.sequential_ack_recovery
        ):
            for i in range(first_gap, len(acked)):
                acked[i] = False
            if self._rec is not None:
                self._rec.emit(
                    "mac", "ack_desync", t=round(self.now, 9),
                    first_gap=first_gap,
                    slots_lost=len(acked) - first_gap - 1)
        return acked

    def _abort(self, node: Node, transmission, busy: float, whole: bool,
               event: str) -> None:
        """The exchange was destroyed: ``busy`` seconds of channel, no ACKs.

        ``whole=True`` means the data itself was lost: every subframe
        counts as retransmitted and every frame is charged a retry (and
        dropped past the retry limit). ``whole=False`` means only the
        RTS/CTS handshake failed: the frames go back exactly as they were.
        Either way they return to the queue head.
        """
        self._log(event, node.name, f"busy={busy * 1e6:.0f}us")
        self.metrics.record_collision(busy)
        if whole:
            self.metrics.record_retransmission(len(transmission.subframes))
        frames = []
        for subframe in transmission.subframes:
            for frame in subframe.frames:
                if whole:
                    frame.retries += 1
                    if frame.retries > self.params.retry_limit:
                        self.metrics.record_drop(frame)
                        continue
                frames.append(frame)
        node.requeue_front(frames)
        node.on_collision()
        self.now += busy

    # Convenience ------------------------------------------------------------

    def station_names(self) -> list:
        """Names of all non-AP nodes."""
        return list(self.stations)

