"""E-F15: Fig. 15 — goodput and latency for VoIP traffic, 10–30 STAs.

Two co-channel APs, per-STA conversational VoIP (Brady model), all five
schemes. Expected shape: Carpool's goodput keeps growing with the STA
count while A-MPDU tapers and 802.11 collapses; Carpool's delay stays low
while the others' explode.
"""

from _report import Report, fmt_mbps, fmt_ms
from repro.mac import (
    AmpduProtocol,
    CarpoolProtocol,
    Dot11Protocol,
    MuAggregationProtocol,
    WifoxProtocol,
)
from repro.mac.scenarios import VoipScenario
from repro.runtime import run_trials

PROTOCOLS = (Dot11Protocol, AmpduProtocol, MuAggregationProtocol,
             WifoxProtocol, CarpoolProtocol)
STA_COUNTS = (10, 14, 18, 22, 26, 30)
DURATION = 8.0


def _run_cell(index, rng, cells):
    n, cls = cells[index]
    scenario = VoipScenario(num_stations=n, duration=DURATION)
    return (n, cls.name), scenario.run(cls)


def _run(n_workers=None):
    # Every (STA count, protocol) cell is an independent, self-seeded
    # simulation, so the sweep fans out over the worker pool (serial==
    # parallel; set REPRO_WORKERS to scale). The runner's per-trial RNG
    # goes unused.
    cells = [(n, cls) for n in STA_COUNTS for cls in PROTOCOLS]
    return dict(run_trials(_run_cell, len(cells), seed=0,
                           n_workers=n_workers, args=(cells,)))


def test_fig15_voip_goodput_latency(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    report = Report(
        "E-F15",
        "Fig. 15 — VoIP goodput (a) and latency (b) vs number of STAs",
        "Carpool grows ~linearly to ≈2.5+ Mbit/s at 30 STAs with flat low "
        "delay; A-MPDU tapers (≈2→1 Mbit/s), MU-Aggregation slightly below "
        "A-MPDU, WiFox between 802.11 and the aggregation schemes, 802.11 "
        "collapses (0.55→0.18 Mbit/s, >1 s delay)",
    )
    report.line("(a) downlink goodput of the measured AP (Mbit/s, within 400 ms bound):")
    names = [cls.name for cls in PROTOCOLS]
    rows = [[n] + [fmt_mbps(results[(n, name)].measured_ap_useful_goodput_bps)
                   for name in names] for n in STA_COUNTS]
    report.table(["STAs"] + list(names), rows)
    report.line()
    report.line("(b) downlink latency (ms):")
    rows = [[n] + [fmt_ms(results[(n, name)].downlink_mean_delay) for name in names]
            for n in STA_COUNTS]
    report.table(["STAs"] + list(names), rows)
    report.save_and_print("fig15_voip")

    top = STA_COUNTS[-1]
    carpool = results[(top, "Carpool")]
    ampdu = results[(top, "A-MPDU")]
    dot11 = results[(top, "802.11")]
    wifox = results[(top, "WiFox")]

    # Carpool wins goodput at high contention, by a large factor over
    # A-MPDU (paper: up to 3.2×) and over everything else.
    assert carpool.measured_ap_useful_goodput_bps > 1.5 * ampdu.measured_ap_useful_goodput_bps
    assert carpool.measured_ap_useful_goodput_bps > 5 * dot11.measured_ap_useful_goodput_bps
    assert wifox.measured_ap_useful_goodput_bps > dot11.measured_ap_useful_goodput_bps
    # Carpool delay stays far below A-MPDU's (paper: ~75 % reduction).
    assert carpool.downlink_mean_delay < 0.5 * ampdu.downlink_mean_delay
    # Carpool goodput grows with STA count (paper: "keeps increasing").
    series = [results[(n, "Carpool")].measured_ap_useful_goodput_bps for n in STA_COUNTS]
    assert series[-1] > series[0]
