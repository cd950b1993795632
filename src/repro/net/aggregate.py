"""Mergeable, exactly-associative deployment-level aggregation.

:class:`DeploymentAggregate` folds per-cell result dicts (the wire form
``run_cell`` ships) into deployment-wide metrics — goodput/airtime sums,
per-cell moments, Jain fairness, coupling and error counters, and
fixed-bin histograms — using the exactly-associative primitives from
:mod:`repro.runtime.reduction`. That gives the streaming guarantee the
sharded deployment path rests on::

    shard merge ≡ single-shot, bit for bit, at any worker count or
    shard size.

Every float statistic is finalised from exact sums (Shewchuk partials) or
exact integer sums, so *when* and *in what grouping* cells were folded
cannot leak into the result. Jain fairness follows the
:class:`repro.mac.fairness.TimeOccupancyTable` conventions (only stations
that delivered bytes count; empty or all-zero → 1.0) but accumulates
per-station delivered bytes as exact integers:

* static deployments — each station lives in exactly one cell, so its
  per-station total is final the moment its cell is folded and only three
  integers (count, Σv, Σv²) ride in the accumulator;
* mobility deployments (``track_stations=True``) — a roaming station
  delivers through several cells, so per-station integer totals are kept
  and squared only at finalisation.

The accumulator pickles compactly (plain ints and partials lists): it is
the only thing that crosses the worker pipe in a sharded run, and
``runtime.ipc_result_bytes`` in the ``bench/run.py --traced`` ledger
reads that traffic per layer.
"""

from __future__ import annotations

from repro.runtime.reduction import ExactSum, MergeableHistogram, StreamMoments

__all__ = [
    "BUSY_FRACTION_EDGES",
    "GOODPUT_EDGES_BPS",
    "DeploymentAggregate",
    "aggregate_factory",
    "reduce_cell",
]

#: Per-cell downlink goodput buckets (bps), log-spaced across the regimes
#: a hotspot cell can land in — idle, trickle, saturated single-cell.
GOODPUT_EDGES_BPS = (
    1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8,
)

#: Per-cell channel-busy-fraction buckets.
BUSY_FRACTION_EDGES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class DeploymentAggregate:
    """Streaming deployment aggregate over per-cell result dicts."""

    __slots__ = (
        "track_stations", "n_cells", "n_coupled_cells",
        "collisions", "transmissions", "retransmitted_subframes",
        "dropped_frames", "demotions", "repromotions",
        "goodput", "useful_goodput", "busy_airtime",
        "cell_goodput", "busy_fraction",
        "goodput_hist", "busy_hist",
        "fair_n", "fair_total", "fair_squares", "delivered_by_sta",
    )

    def __init__(self, track_stations: bool = False):
        self.track_stations = bool(track_stations)
        self.n_cells = 0
        self.n_coupled_cells = 0
        self.collisions = 0
        self.transmissions = 0
        self.retransmitted_subframes = 0
        self.dropped_frames = 0
        self.demotions = 0
        self.repromotions = 0
        self.goodput = ExactSum()
        self.useful_goodput = ExactSum()
        self.busy_airtime = ExactSum()
        self.cell_goodput = StreamMoments()
        self.busy_fraction = StreamMoments()
        self.goodput_hist = MergeableHistogram(GOODPUT_EDGES_BPS)
        self.busy_hist = MergeableHistogram(BUSY_FRACTION_EDGES)
        # Static mode: (count, Σbytes, Σbytes²) as exact integers.
        self.fair_n = 0
        self.fair_total = 0
        self.fair_squares = 0
        # Mobility mode: station name → delivered bytes (exact integer).
        self.delivered_by_sta: dict = {}

    # -- folding -------------------------------------------------------------

    def observe_cell(self, cell: dict) -> "DeploymentAggregate":
        """Fold one cell's wire dict (``CellResult.to_dict`` form) in."""
        self.n_cells += 1
        goodput = float(cell["goodput_bps"])
        busy = float(cell["channel_busy_fraction"])
        self.goodput.add(goodput)
        self.useful_goodput.add(float(cell["useful_goodput_bps"]))
        self.busy_airtime.add(float(cell["busy_airtime_s"]))
        self.cell_goodput.observe(goodput)
        self.busy_fraction.observe(busy)
        self.goodput_hist.observe(goodput)
        self.busy_hist.observe(busy)
        self.collisions += int(cell["collisions"])
        self.transmissions += int(cell["transmissions"])
        self.retransmitted_subframes += int(cell["retransmitted_subframes"])
        self.dropped_frames += int(cell["dropped_frames"])
        # .get(): wire dicts cached before the counters existed lack them.
        self.demotions += int(cell.get("demotions", 0))
        self.repromotions += int(cell.get("repromotions", 0))
        if cell["coupled"]:
            self.n_coupled_cells += 1
        for sta, delivered in cell["delivered_bytes_by_sta"].items():
            delivered = int(delivered)
            if self.track_stations:
                self.delivered_by_sta[sta] = (
                    self.delivered_by_sta.get(sta, 0) + delivered
                )
            else:
                # Static cells partition the stations, so this station's
                # per-deployment total is final right here — square it
                # now and never carry the name across the pipe.
                self.fair_n += 1
                self.fair_total += delivered
                self.fair_squares += delivered * delivered
        return self

    def merge(self, other: "DeploymentAggregate") -> "DeploymentAggregate":
        """Fold another shard's accumulator in (exact, any grouping)."""
        if self.track_stations != other.track_stations:
            raise ValueError("cannot merge aggregates of different modes")
        self.n_cells += other.n_cells
        self.n_coupled_cells += other.n_coupled_cells
        self.collisions += other.collisions
        self.transmissions += other.transmissions
        self.retransmitted_subframes += other.retransmitted_subframes
        self.dropped_frames += other.dropped_frames
        self.demotions += other.demotions
        self.repromotions += other.repromotions
        self.goodput.merge(other.goodput)
        self.useful_goodput.merge(other.useful_goodput)
        self.busy_airtime.merge(other.busy_airtime)
        self.cell_goodput.merge(other.cell_goodput)
        self.busy_fraction.merge(other.busy_fraction)
        self.goodput_hist.merge(other.goodput_hist)
        self.busy_hist.merge(other.busy_hist)
        self.fair_n += other.fair_n
        self.fair_total += other.fair_total
        self.fair_squares += other.fair_squares
        for sta, delivered in other.delivered_by_sta.items():
            self.delivered_by_sta[sta] = (
                self.delivered_by_sta.get(sta, 0) + delivered
            )
        return self

    # -- finalisation --------------------------------------------------------

    def jain_fairness(self) -> float:
        """Jain index over per-station delivered bytes (conventions of
        :meth:`repro.mac.fairness.TimeOccupancyTable.jain_index`)."""
        if self.track_stations:
            values = self.delivered_by_sta.values()
            n = len(self.delivered_by_sta)
            total = sum(values)
            squares = sum(v * v for v in values)
        else:
            n, total, squares = self.fair_n, self.fair_total, self.fair_squares
        if n == 0 or squares == 0:
            return 1.0
        # Exact integers right up to the single final division.
        return (total * total) / (n * squares)

    def total_goodput_bps(self) -> float:
        return self.goodput.value()

    def total_useful_goodput_bps(self) -> float:
        return self.useful_goodput.value()

    def busy_airtime_s(self) -> float:
        return self.busy_airtime.value()

    # -- transport -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the full accumulator state.

        Everything is plain ints, floats in Shewchuk-partial lists, and
        strings, so ``json.dumps`` of the dict round-trips the aggregate
        exactly: ``from_dict(json.loads(json.dumps(a.to_dict())))`` folds
        on bit-identically to ``a``. This is the soak checkpoint format —
        a resumed run restores the rolling aggregate from it and must end
        byte-identical to an uninterrupted one.
        """
        return {
            "track_stations": self.track_stations,
            "n_cells": self.n_cells,
            "n_coupled_cells": self.n_coupled_cells,
            "collisions": self.collisions,
            "transmissions": self.transmissions,
            "retransmitted_subframes": self.retransmitted_subframes,
            "dropped_frames": self.dropped_frames,
            "demotions": self.demotions,
            "repromotions": self.repromotions,
            "goodput": self.goodput.to_dict(),
            "useful_goodput": self.useful_goodput.to_dict(),
            "busy_airtime": self.busy_airtime.to_dict(),
            "cell_goodput": self.cell_goodput.to_dict(),
            "busy_fraction": self.busy_fraction.to_dict(),
            "goodput_hist": self.goodput_hist.to_dict(),
            "busy_hist": self.busy_hist.to_dict(),
            "fair_n": self.fair_n,
            "fair_total": self.fair_total,
            "fair_squares": self.fair_squares,
            "delivered_by_sta": dict(self.delivered_by_sta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentAggregate":
        """Rebuild an aggregate from :meth:`to_dict` output (exact)."""
        out = cls(track_stations=data["track_stations"])
        out.n_cells = int(data["n_cells"])
        out.n_coupled_cells = int(data["n_coupled_cells"])
        out.collisions = int(data["collisions"])
        out.transmissions = int(data["transmissions"])
        out.retransmitted_subframes = int(data["retransmitted_subframes"])
        out.dropped_frames = int(data["dropped_frames"])
        # .get(): checkpoints written before the counters existed.
        out.demotions = int(data.get("demotions", 0))
        out.repromotions = int(data.get("repromotions", 0))
        out.goodput = ExactSum.from_dict(data["goodput"])
        out.useful_goodput = ExactSum.from_dict(data["useful_goodput"])
        out.busy_airtime = ExactSum.from_dict(data["busy_airtime"])
        out.cell_goodput = StreamMoments.from_dict(data["cell_goodput"])
        out.busy_fraction = StreamMoments.from_dict(data["busy_fraction"])
        out.goodput_hist = MergeableHistogram.from_dict(data["goodput_hist"])
        out.busy_hist = MergeableHistogram.from_dict(data["busy_hist"])
        out.fair_n = int(data["fair_n"])
        out.fair_total = int(data["fair_total"])
        out.fair_squares = int(data["fair_squares"])
        out.delivered_by_sta = {
            sta: int(v) for sta, v in data["delivered_by_sta"].items()
        }
        return out

    def __reduce__(self):
        # One restore call over plain ints/lists: the accumulator *is*
        # the sharded path's IPC traffic, so its pickle stays minimal.
        return (_restore, (
            self.track_stations, self.n_cells, self.n_coupled_cells,
            self.collisions, self.transmissions,
            self.retransmitted_subframes, self.dropped_frames,
            self.demotions, self.repromotions,
            self.goodput.to_dict()["partials"],
            self.useful_goodput.to_dict()["partials"],
            self.busy_airtime.to_dict()["partials"],
            self.cell_goodput.to_dict(),
            self.busy_fraction.to_dict(),
            self.goodput_hist.counts,
            self.busy_hist.counts,
            self.fair_n, self.fair_total, self.fair_squares,
            self.delivered_by_sta,
        ))


def _restore(track_stations, n_cells, n_coupled, collisions, transmissions,
             retx, dropped, demotions, repromotions, goodput, useful,
             airtime, cell_goodput, busy_fraction, goodput_counts,
             busy_counts, fair_n, fair_total, fair_squares, delivered):
    out = DeploymentAggregate(track_stations=track_stations)
    out.n_cells = n_cells
    out.n_coupled_cells = n_coupled
    out.collisions = collisions
    out.transmissions = transmissions
    out.retransmitted_subframes = retx
    out.dropped_frames = dropped
    out.demotions = demotions
    out.repromotions = repromotions
    out.goodput = ExactSum.from_dict({"partials": goodput})
    out.useful_goodput = ExactSum.from_dict({"partials": useful})
    out.busy_airtime = ExactSum.from_dict({"partials": airtime})
    out.cell_goodput = StreamMoments.from_dict(cell_goodput)
    out.busy_fraction = StreamMoments.from_dict(busy_fraction)
    out.goodput_hist.counts = list(goodput_counts)
    out.busy_hist.counts = list(busy_counts)
    out.fair_n = fair_n
    out.fair_total = fair_total
    out.fair_squares = fair_squares
    out.delivered_by_sta = delivered
    return out


def reduce_cell(acc: DeploymentAggregate, trial_index: int,
                result: dict) -> DeploymentAggregate:
    """``run_trials`` reduce_fn: fold one cell's wire dict into ``acc``."""
    return acc.observe_cell(result)


class aggregate_factory:
    """Picklable ``reduce_init``: builds a mode-matched empty aggregate."""

    __slots__ = ("track_stations",)

    def __init__(self, track_stations: bool = False):
        self.track_stations = bool(track_stations)

    def __call__(self) -> DeploymentAggregate:
        return DeploymentAggregate(track_stations=self.track_stations)

    def __reduce__(self):
        return (aggregate_factory, (self.track_stations,))
