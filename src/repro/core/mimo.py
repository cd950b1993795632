"""Carpool over MU-MIMO (§8 "Extension on MIMO", Fig. 18).

802.11ac MU-MIMO serves at most as many streams per transmission as the
AP has antennas. Carpool's extension aggregates *multiple precoder groups*
behind one shared legacy preamble and A-HDR: a two-antenna AP with data
for four stations sends

    stream 1: [L-Pre, A-HDR, VHT(A,B), Subframe A, VHT(C,D), Subframe C]
    stream 2: [L-Pre, A-HDR, VHT(A,B), Subframe B, VHT(C,D), Subframe D]

where the (A,B) section is zero-forcing-precoded for stations A and B and
the (C,D) section for C and D. The A-HDR Bloom filter indexes *groups*:
A and B hash under position 0, C and D under position 1 (the paper's
"indices of A,B are 1 and C,D are 2", zero-based here). Within its group a
station identifies its stream from the per-stream VHT training — ZF makes
foreign streams arrive nulled.

The legacy preamble and A-HDR are broadcast unprecoded (antenna 0), so
every station — including bystanders — can detect the frame and check the
filter exactly as in SISO Carpool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ahdr import MAX_RECEIVERS, encode_ahdr
from repro.core.frame import SubframeSpec
from repro.core.mac_address import MacAddress
from repro.bloom.coded import PositionalBloomFilter
from repro.core.ahdr import decode_ahdr, AHDR_SYMBOLS
from repro.phy import payload_codec
from repro.phy.channel_estimation import equalize, estimate_from_known_symbol
from repro.phy.constants import pilot_values
from repro.phy.frontend import acquire
from repro.phy.mimo import MimoChannel, zero_forcing_precoder
from repro.phy.ofdm import assemble_symbol, split_symbol
from repro.phy.pilots import track_and_compensate, track_and_compensate_block
from repro.phy.preamble import LTF_SEQUENCE, ltf_symbol, stf_symbol
from repro.phy.sig import SigDecodeError, SigField, decode_sig, encode_sig
from repro.phy.transceiver import PREAMBLE_SYMBOLS
from repro.util.rng import RngStream

__all__ = [
    "GroupLayout",
    "MuMimoFrameLayout",
    "MuMimoTxFrame",
    "MuMimoCarpoolTransmitter",
    "MuMimoCarpoolReceiver",
    "MuMimoRxResult",
    "transmissions_required",
]


def transmissions_required(num_stations: int, num_antennas: int,
                           carpool: bool) -> int:
    """How many channel accesses serve ``num_stations`` single-antenna users.

    Plain 802.11ac MU-MIMO fits ``num_antennas`` streams per access;
    Carpool-MU-MIMO fits ``num_antennas × MAX_RECEIVERS`` per access
    (groups share the preamble, the Bloom filter indexes up to 8 groups).
    """
    if num_stations < 1 or num_antennas < 1:
        raise ValueError("need at least one station and one antenna")
    per_access = num_antennas * (MAX_RECEIVERS if carpool else 1)
    return -(-num_stations // per_access)


@dataclass
class GroupLayout:
    """Symbol spans of one precoder group inside the frame."""

    users: list  # MacAddress, stream order
    vht_start: int  # absolute symbol index of the first VHT training symbol
    sig_index: int  # per-stream SIG symbol (one OFDM symbol, all streams)
    payload_start: int
    n_payload_symbols: int  # max over the group's streams

    @property
    def num_streams(self) -> int:
        """Beamformed streams in this group."""
        return len(self.users)

    @property
    def end(self) -> int:
        """One past this group's last symbol."""
        return self.payload_start + self.n_payload_symbols


@dataclass
class MuMimoFrameLayout:
    """The group structure a receiver needs to walk the frame.

    In a full implementation this rides in an extended SIG; we carry it as
    explicit metadata since the extension's contribution is the frame
    structure, not its header encoding.
    """

    groups: list = field(default_factory=list)
    n_symbols: int = 0


@dataclass
class MuMimoTxFrame:
    """Per-antenna symbol streams plus ground truth."""

    antenna_streams: np.ndarray  # (num_antennas, n_symbols, 52)
    layout: MuMimoFrameLayout
    specs: list
    bit_matrices: dict  # MacAddress → (n_payload, n_cbps)

    @property
    def n_symbols(self) -> int:
        """Frame length in OFDM symbols."""
        return self.antenna_streams.shape[1]


class MuMimoCarpoolTransmitter:
    """Builds Carpool MU-MIMO frames with zero-forcing precoding.

    Args:
        channel: The downlink MIMO channel (the AP's CSI — assumed ideal,
            as the extension's argument is structural).
        coded: Payload coding mode, as in the SISO transmitter.
    """

    def __init__(self, channel: MimoChannel, coded: bool = True):
        self.channel = channel
        self.coded = coded

    @property
    def num_antennas(self) -> int:
        """AP transmit antennas (streams per precoder group)."""
        return self.channel.num_antennas

    def build_frame(self, specs: list) -> MuMimoTxFrame:
        """Group specs into ≤num_antennas streams per precoder group and build
        the Fig. 18 frame (shared preamble + A-HDR, per-group VHT + payload)."""
        if not specs:
            raise ValueError("need at least one subframe")
        groups = [
            specs[i : i + self.num_antennas]
            for i in range(0, len(specs), self.num_antennas)
        ]
        if len(groups) > MAX_RECEIVERS:
            raise ValueError(
                f"at most {MAX_RECEIVERS} precoder groups per Carpool frame"
            )
        receivers = [s.receiver for s in specs]
        if len(set(receivers)) != len(receivers):
            raise ValueError("duplicate receiver")

        # --- pass 1: layout ------------------------------------------------
        layout = MuMimoFrameLayout()
        cursor = PREAMBLE_SYMBOLS + AHDR_SYMBOLS
        bit_matrices = {}
        for group in groups:
            lengths = []
            for spec in group:
                matrix = payload_codec.encode_payload_bits(
                    spec.payload, spec.mcs, self.coded
                )
                bit_matrices[spec.receiver] = matrix
                lengths.append(matrix.shape[0])
            n_payload = max(lengths)
            vht_start = cursor
            sig_index = vht_start + len(group)
            payload_start = sig_index + 1
            layout.groups.append(
                GroupLayout(
                    users=[s.receiver for s in group],
                    vht_start=vht_start,
                    sig_index=sig_index,
                    payload_start=payload_start,
                    n_payload_symbols=n_payload,
                )
            )
            cursor = payload_start + n_payload
        layout.n_symbols = cursor

        # --- pass 2: build per-antenna streams ------------------------------
        streams = np.zeros((self.num_antennas, cursor, 52), dtype=np.complex128)
        # Shared legacy preamble + A-HDR, broadcast from antenna 0.
        user_indices = {spec.receiver: i for i, spec in enumerate(specs)}
        shared = [stf_symbol(), stf_symbol(), ltf_symbol(), ltf_symbol()]
        ahdr = self._group_indexed_ahdr(groups)
        for i, row in enumerate(shared):
            streams[0, i] = row
        streams[0, PREAMBLE_SYMBOLS : PREAMBLE_SYMBOLS + AHDR_SYMBOLS] = ahdr

        for group_layout, group in zip(layout.groups, groups):
            user_ids = [user_indices[spec.receiver] for spec in group]
            precoder = zero_forcing_precoder(self.channel, user_ids)
            n_streams = len(group)
            # VHT training: one symbol per stream, LTF sequence beamed to
            # that stream alone.
            for s in range(n_streams):
                symbol_index = group_layout.vht_start + s
                for a in range(self.num_antennas):
                    streams[a, symbol_index] = precoder[a, s] * LTF_SEQUENCE
            # SIG + payload, all streams in parallel.
            pilot_index = AHDR_SYMBOLS + (group_layout.sig_index - PREAMBLE_SYMBOLS - AHDR_SYMBOLS)
            for s, spec in enumerate(group):
                sig_points = encode_sig(
                    SigField(mcs=spec.mcs, length_bytes=len(spec.payload))
                )
                sig_used = assemble_symbol(sig_points, pilot_values(pilot_index))
                for a in range(self.num_antennas):
                    streams[a, group_layout.sig_index] += precoder[a, s] * sig_used

                matrix = bit_matrices[spec.receiver]
                payload_symbols = payload_codec.bits_to_symbols(
                    matrix, spec.mcs, first_pilot_index=pilot_index + 1
                )
                for t in range(matrix.shape[0]):
                    symbol_index = group_layout.payload_start + t
                    for a in range(self.num_antennas):
                        streams[a, symbol_index] += precoder[a, s] * payload_symbols[t]

        return MuMimoTxFrame(
            antenna_streams=streams,
            layout=layout,
            specs=list(specs),
            bit_matrices=bit_matrices,
        )

    @staticmethod
    def _group_indexed_ahdr(groups: list) -> np.ndarray:
        """A-HDR where every member of group g hashes under position g."""
        pbf_receivers = []
        # encode_ahdr inserts receiver i at position i; emulate group
        # indexing by building the filter directly.
        pbf = PositionalBloomFilter()
        for position, group in enumerate(groups):
            for spec in group:
                pbf.insert(bytes(spec.receiver), position)
        # Re-encode via the shared codec path.
        from repro.core import ahdr as ahdr_module
        from repro.phy.coding import RATE_1_2, conv_encode
        from repro.phy.interleaver import interleave
        from repro.phy.modulation import BPSK

        coded = conv_encode(pbf.to_bits(), RATE_1_2)
        symbols = np.empty((AHDR_SYMBOLS, 52), dtype=np.complex128)
        for i in range(AHDR_SYMBOLS):
            chunk = coded[i * 48 : (i + 1) * 48]
            chunk = interleave(chunk, BPSK.bits_per_symbol)
            symbols[i] = assemble_symbol(BPSK.modulate(chunk), pilot_values(i))
        return symbols


@dataclass
class MuMimoRxResult:
    """What one station decoded from a MU-MIMO Carpool frame."""

    matched_groups: list
    stream_index: int | None = None
    sig: SigField | None = None
    payload: bytes | None = None
    bit_matrix: np.ndarray | None = None
    error: str | None = None


class MuMimoCarpoolReceiver:
    """A single-antenna station's receive pipeline for MU-MIMO Carpool."""

    def __init__(self, mac: MacAddress, coded: bool = True):
        self.mac = mac
        self.coded = coded

    def receive(self, received: np.ndarray, layout: MuMimoFrameLayout) -> MuMimoRxResult:
        """Decode this station's subframe from its received symbol stream.

        Args:
            received: (n_symbols, 52) — what this station's antenna heard.
            layout: The frame's group structure (extended-SIG metadata).
        """
        received = np.asarray(received, dtype=np.complex128)
        front = acquire(received)
        derotated = front.derotated
        legacy_channel = front.channel_estimate

        ahdr_rx = derotated[PREAMBLE_SYMBOLS : PREAMBLE_SYMBOLS + AHDR_SYMBOLS]
        ahdr_eq, _ = track_and_compensate_block(equalize(ahdr_rx, legacy_channel), 0)
        bloom = decode_ahdr(ahdr_eq)

        matched = [
            g for g in range(len(layout.groups))
            if bloom.matches(bytes(self.mac), g)
        ]
        result = MuMimoRxResult(matched_groups=matched)
        if not matched:
            return result

        group = layout.groups[matched[0]]
        # Effective per-stream channels from the VHT training.
        effective = []
        for s in range(group.num_streams):
            est = estimate_from_known_symbol(
                derotated[group.vht_start + s], LTF_SEQUENCE
            )
            effective.append(est)
        powers = [float(np.nanmean(np.abs(h) ** 2)) for h in effective]
        own = int(np.argmax(powers))
        # ZF nulls foreign streams: require a clear margin before trusting.
        others = [p for i, p in enumerate(powers) if i != own]
        if others and max(others) > 0.5 * powers[own]:
            result.error = "ambiguous stream identification"
            return result
        result.stream_index = own
        h_own = effective[own]

        pilot_index = AHDR_SYMBOLS + (group.sig_index - PREAMBLE_SYMBOLS - AHDR_SYMBOLS)
        sig_eq = equalize(derotated[group.sig_index], h_own)
        sig_eq, _ = track_and_compensate(sig_eq, pilot_index)
        sig_points, _ = split_symbol(sig_eq)
        try:
            sig = decode_sig(sig_points)
        except SigDecodeError as exc:
            result.error = f"SIG: {exc}"
            return result
        result.sig = sig

        n_payload = payload_codec.num_payload_symbols(
            sig.length_bytes, sig.mcs, self.coded
        )
        if group.payload_start + n_payload > derotated.shape[0]:
            result.error = "SIG length overruns frame"
            return result
        payload_rx = derotated[group.payload_start : group.payload_start + n_payload]
        payload_eq, _ = track_and_compensate_block(
            equalize(payload_rx, h_own), pilot_index + 1
        )
        bit_matrix = payload_codec.symbols_to_bits(payload_eq, sig.mcs)
        result.bit_matrix = bit_matrix
        result.payload = payload_codec.decode_payload_bits(
            bit_matrix, sig.length_bytes, sig.mcs, self.coded
        )
        return result
