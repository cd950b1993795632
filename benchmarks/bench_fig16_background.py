"""E-F16: Fig. 16 — VoIP with SIGCOMM'08 UDP/TCP uplink background traffic.

Same as Fig. 15 plus per-STA background uplink (TCP every 47 ms, UDP every
88 ms, SIGCOMM frame sizes). Expected: background contention drags every
baseline down; Carpool is least affected (paper: 1.12–3.2× A-MPDU goodput
between 20 and 30 STAs; delay <0.2 s vs 0.8 s/1.5 s for A-MPDU/802.11).
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
STA_COUNTS = (10, 16, 20, 25, 30)
DURATION = 8.0


def _run_cell(index, rng, cells):
    n, cls = cells[index]
    scenario = VoipScenario(num_stations=n, duration=DURATION, with_background=True)
    return (n, cls.name), scenario.run(cls)


def _run(n_workers=None):
    # Independent, self-seeded cells — identical results for any worker
    # count (set REPRO_WORKERS to scale the sweep out over cores). The
    # runner's per-trial RNG goes unused.
    cells = [(n, cls) for n in STA_COUNTS for cls in PROTOCOLS]
    return dict(run_trials(_run_cell, len(cells), seed=0,
                           n_workers=n_workers, args=(cells,)))


def test_fig16_background_traffic(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    report = Report(
        "E-F16",
        "Fig. 16 — goodput/latency with UDP/TCP uplink background traffic",
        "Carpool 1.12–3.2× the A-MPDU goodput from 20→30 STAs; Carpool "
        "delay <0.2 s while A-MPDU/802.11 reach 0.8 s/1.5 s",
    )
    names = [cls.name for cls in PROTOCOLS]
    report.line("(a) downlink goodput (Mbit/s, within 400 ms bound):")
    rows = [[n] + [fmt_mbps(results[(n, name)].measured_ap_useful_goodput_bps)
                   for name in names] for n in STA_COUNTS]
    report.table(["STAs"] + list(names), rows)
    report.line()
    report.line("(b) downlink latency (ms):")
    rows = [[n] + [fmt_ms(results[(n, name)].downlink_mean_delay) for name in names]
            for n in STA_COUNTS]
    report.table(["STAs"] + list(names), rows)
    report.line()
    ratio20 = (results[(20, "Carpool")].measured_ap_useful_goodput_bps
               / max(results[(20, "A-MPDU")].measured_ap_useful_goodput_bps, 1.0))
    ratio30 = (results[(30, "Carpool")].measured_ap_useful_goodput_bps
               / max(results[(30, "A-MPDU")].measured_ap_useful_goodput_bps, 1.0))
    report.line(f"Carpool/A-MPDU goodput ratio: {ratio20:.2f}× @20 STAs, "
                f"{ratio30:.2f}× @30 STAs (paper: 1.12–3.2×)")
    report.save_and_print("fig16_background")

    assert ratio20 >= 1.0
    assert ratio30 > 1.5
    carpool30 = results[(30, "Carpool")]
    ampdu30 = results[(30, "A-MPDU")]
    dot30 = results[(30, "802.11")]
    # Delay ordering of Fig. 16(b).
    assert carpool30.downlink_mean_delay < 0.25
    assert ampdu30.downlink_mean_delay > carpool30.downlink_mean_delay
    assert dot30.downlink_mean_delay > ampdu30.downlink_mean_delay
