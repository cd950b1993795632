"""Quickstart: one Carpool frame, three receivers, one transmission.

Builds a Carpool PHY frame carrying payloads for three stations,
propagates it through the simulated indoor channel once, and lets every
station (plus one bystander) run the full Carpool receive pipeline:
check the A-HDR Bloom filter, skip foreign subframes via their SIG
symbols, decode the own subframe with real-time channel estimation, and
schedule the sequential ACK.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.channel import ChannelModel
from repro.core import (
    CarpoolReceiver,
    CarpoolTransmitter,
    MacAddress,
    SubframeSpec,
)
from repro.mac.airtime import ack_airtime
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.phy import mcs_by_name
from repro.util.rng import RngStream


def main():
    rng = np.random.default_rng(7)

    # Three stations, three payloads, per-subframe MCS.
    stations = [MacAddress.from_int(i) for i in range(3)]
    specs = [
        SubframeSpec(stations[0], rng.bytes(300), mcs_by_name("QAM16-1/2")),
        SubframeSpec(stations[1], rng.bytes(800), mcs_by_name("QAM64-2/3")),
        SubframeSpec(stations[2], rng.bytes(150), mcs_by_name("QPSK-1/2")),
    ]

    # The AP aggregates everything into a single PHY frame.
    frame = CarpoolTransmitter(coded=True).build_frame(specs)
    print(f"Carpool frame: {frame.n_symbols} OFDM symbols, "
          f"{len(frame.subframes)} subframes, receivers: "
          f"{', '.join(str(m) for m in frame.receivers)}")

    # One pass through the simulated office channel.
    channel = ChannelModel(snr_db=28, rng=RngStream(42))
    received = channel.transmit(frame.symbols)

    # Every STA (and a bystander) processes the same reception.
    for mac in stations + [MacAddress.from_int(99)]:
        result = CarpoolReceiver(mac, coded=True).receive(received)
        if not result.matched_positions:
            print(f"  {mac}: no subframe for me "
                  f"(walked {result.num_subframes_seen} subframes, dropped frame)")
            continue
        sf = result.subframes[0]
        original = frame.subframe_for(mac).spec.payload
        ok = sf.payload == original
        print(f"  {mac}: subframe {sf.position} "
              f"({sf.sig.mcs.name}, {sf.sig.length_bytes} B) "
              f"decoded {'OK' if ok else 'with errors'}; "
              f"RTE updates: {sf.rte_updates}, "
              f"symbol-CRC pass rate: {sf.crc_pass.mean():.0%}")

    # Sequential ACK schedule (Eq. 1/2): one SIFS + ACK slot per receiver.
    sifs = DEFAULT_PARAMETERS.sifs
    slot = sifs + ack_airtime(DEFAULT_PARAMETERS)
    print("\nSequential ACK timetable (after end of data frame):")
    for i, mac in enumerate(stations):
        remaining = len(stations) - 1 - i
        print(f"  {mac}: ACK at t+{(sifs + i * slot) * 1e6:.0f} µs, "
              f"NAV in ACK = {remaining * slot * 1e6:.0f} µs")


if __name__ == "__main__":
    main()
