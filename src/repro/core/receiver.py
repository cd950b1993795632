"""The Carpool receiver (STA side).

Per the paper's architecture (Fig. 2): check the A-HDR, skip over foreign
subframes by decoding only their SIG symbols, and decode every *matched*
subframe — with real-time channel estimation driven by the phase-offset
side channel's per-symbol CRC.

False positives in the A-HDR are handled exactly as §4.1 prescribes: every
matched subframe is decoded; the MAC layer discards payloads whose
destination address turns out not to be ours (we surface each decoded
subframe with its position so the caller can do that check).

A subframe decodes one of two ways. With RTE, :func:`decode_subframe_symbols`
walks the frame symbol by symbol, because each CRC-passing group updates
the estimate the next symbol is equalized with. Without RTE (the paper's
"standard" receiver, estimate frozen at the preamble), every symbol is
independent, and the frame decodes as a stack of one through
:func:`decode_subframe_symbols_frozen_batch` — the same stacked decoder the
PHY Monte-Carlo experiments run across trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ahdr import AHDR_SYMBOLS, decode_ahdr
from repro.core.frame import AHDR_SYMBOL_OFFSET
from repro.core.mac_address import MacAddress
from repro.core.rte import RealTimeEstimator
from repro.core.symbol_crc import DEFAULT_CRC_CONFIG, SymbolCrcConfig
from repro.obs.trace import active_recorder
from repro.phy import payload_codec
from repro.phy.channel_estimation import equalize
from repro.phy.constants import pilot_values
from repro.phy.frontend import acquire
from repro.phy.mcs import Mcs
from repro.phy.ofdm import assemble_symbol, split_symbol
from repro.phy.pilots import track_and_compensate, track_and_compensate_block
from repro.phy.sig import SigDecodeError, SigField, decode_sig

__all__ = [
    "SubframeRx",
    "CarpoolRxResult",
    "CarpoolReceiver",
    "decode_subframe_symbols",
    "decode_subframe_symbols_frozen_batch",
]


@dataclass
class SubframeRx:
    """One decoded subframe.

    Attributes:
        position: Subframe index in the frame (matches the hash-set index).
        sig: The subframe's decoded SIG.
        payload: Decoded payload bytes.
        bit_matrix: Hard-decision data bits per symbol.
        side_bits: Decoded side-channel bits per symbol.
        crc_pass: Per-symbol boolean: did the symbol's CRC group verify?
        phases: Tracked total phase per payload symbol.
        rte_updates: Number of data-pilot calibrations applied.
    """

    position: int
    sig: SigField
    payload: bytes
    bit_matrix: np.ndarray
    side_bits: np.ndarray
    crc_pass: np.ndarray
    phases: np.ndarray
    rte_updates: int


@dataclass
class CarpoolRxResult:
    """Everything a Carpool STA learned from one frame."""

    matched_positions: list
    subframes: list = field(default_factory=list)
    num_subframes_seen: int = 0
    cfo_hz: float = 0.0
    channel_estimate: np.ndarray | None = None
    walk_error: str | None = None

    def payload_for(self, position: int):
        """Decoded payload of the subframe at ``position`` (None if absent)."""
        for sf in self.subframes:
            if sf.position == position:
                return sf.payload
        return None


def decode_subframe_symbols(
    received: np.ndarray,
    channel_estimate: np.ndarray,
    mcs: Mcs,
    first_pilot_index: int,
    reference_phase: float,
    crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
    use_rte: bool = True,
    rte_rule="average",
    rte_guard=None,
):
    """Decode one subframe's payload symbols with (optionally) RTE.

    This is the heart of Carpool reception: equalize with the running
    estimate, track and remove the common phase, demodulate, read the
    side-channel CRC from the phase-difference, and — on CRC pass — fold
    the symbol back into the channel estimate as a data pilot.

    Args:
        received: (n_payload, 52) received symbols of this subframe, CFO
            ramp already removed by the front-end.
        channel_estimate: Estimate at the start of the subframe (LTF, or
            the running estimate from earlier subframes).
        first_pilot_index: Pilot-polarity index of the first payload symbol.
        reference_phase: Tracked phase of the subframe's SIG symbol (the
            side channel's differential reference).
        use_rte: False reproduces the "standard" baseline (estimate
            frozen): the frame decodes through
            :func:`decode_subframe_symbols_frozen_batch` as a stack of one,
            and the returned estimator only counts failed CRC groups in
            ``skips``.
        rte_guard: Optional :class:`repro.core.rte.RteGuard` outlier policy
            (defaults to the per-subcarrier-only legacy guard).

    Returns:
        (bit_matrix, side_bits, crc_pass, phases, estimator)
    """
    received = np.asarray(received, dtype=np.complex128)
    n_symbols = received.shape[0]
    scheme = crc_config.scheme
    estimator = RealTimeEstimator(channel_estimate, update_rule=rte_rule,
                                  guard=rte_guard)
    if not use_rte:
        # The estimate never changes without RTE (CRC failures only bump a
        # counter), so the frame decodes as a stack of one.
        bit_matrix, side_bits, crc_pass, phases = (
            decode_subframe_symbols_frozen_batch(
                received[None], estimator.estimate[None], mcs,
                first_pilot_index, np.array([reference_phase]), crc_config,
            )
        )
        estimator.skips = crc_config.num_groups(n_symbols) - int(
            crc_pass[0, ::crc_config.granularity].sum())
        return bit_matrix[0], side_bits[0], crc_pass[0], phases[0], estimator
    rec = active_recorder()

    bit_matrix = np.empty((n_symbols, mcs.coded_bits_per_symbol), dtype=np.uint8)
    side_bits = np.zeros((n_symbols, scheme.bits_per_symbol), dtype=np.uint8)
    crc_pass = np.zeros(n_symbols, dtype=bool)
    phases = np.empty(n_symbols)
    prev_phase = reference_phase

    group: list = []  # (symbol_idx, derotated_rx, equalized) of current CRC group
    for i in range(n_symbols):
        eq = equalize(received[i], estimator.estimate)
        eq, phase = track_and_compensate(eq, first_pilot_index + i)
        phases[i] = phase

        data_points, _ = split_symbol(eq)
        bit_matrix[i] = mcs.modulation.demodulate(data_points)

        if rec is not None and rec.sample(i):
            # Sampled per-symbol snapshot: EVM against the hard decisions
            # and the running estimate's mean magnitude. Pure observation —
            # nothing decoded below depends on it.
            decided = mcs.modulation.remodulate(data_points)
            evm = float(np.mean(np.abs(data_points - decided) ** 2))
            rec.emit("phy", "symbol", index=i, evm=round(evm, 8),
                     est_mag=round(float(np.mean(np.abs(estimator.estimate))), 8),
                     phase=round(float(phase), 8))

        delta = float(np.angle(np.exp(1j * (phase - prev_phase))))
        side_bits[i] = scheme.decode_deltas(np.array([delta]))
        prev_phase = phase

        group.append((i, received[i] * np.exp(-1j * phase), data_points))

        group_index = crc_config.group_of(i)
        group_complete = (i + 1) % crc_config.granularity == 0 or i == n_symbols - 1
        if not group_complete:
            continue
        ok = crc_config.check_group(group_index, bit_matrix, side_bits)
        if rec is not None and rec.sample(group_index):
            rec.emit("phy", "crc", group=group_index, ok=bool(ok),
                     symbols=len(group))
        for j, _, _ in group:
            crc_pass[j] = ok
        if ok:
            for j, derotated, points in group:
                decided = mcs.modulation.remodulate(points)
                known = assemble_symbol(decided, pilot_values(first_pilot_index + j))
                estimator.update(derotated, known)
        else:
            estimator.skip()
        group = []

    return bit_matrix, side_bits, crc_pass, phases, estimator


def decode_subframe_symbols_frozen_batch(
    received_stack: np.ndarray,
    channel_estimates: np.ndarray,
    mcs: Mcs,
    first_pilot_index: int,
    reference_phases: np.ndarray,
    crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
):
    """Frozen-estimate decode of a whole stack of independent subframes.

    The one frozen-estimate decoder: :func:`decode_subframe_symbols` with
    ``use_rte=False`` calls it on a stack of one. ``received_stack[t]`` is
    one trial's (n_symbols, 52) payload block, ``channel_estimates[t]`` its
    channel estimate and ``reference_phases[t]`` its SIG phase reference.
    Every step — :func:`equalize`, :func:`track_and_compensate_block`,
    :func:`payload_codec.symbols_to_bits`, side-bit extraction, group CRC —
    is elementwise (or a fixed-order reduction) per trial, so stacking
    trials along a leading axis is bit-identical to decoding each trial on
    its own. All trials must share ``n_symbols`` and ``first_pilot_index``
    (true for Monte-Carlo repeats of one frame).

    No per-symbol trace events are emitted (only the RTE loop samples
    symbols), so a traced decode runs exactly as a plain one.

    Returns:
        (bit_matrix, side_bits, crc_pass, phases) — each the per-trial
        result stacked along axis 0.
    """
    scheme = crc_config.scheme
    estimates = np.asarray(channel_estimates, dtype=np.complex128)[:, None, :]
    equalized, phases = track_and_compensate_block(
        equalize(received_stack, estimates), first_pilot_index
    )
    bit_matrix = payload_codec.symbols_to_bits(equalized, mcs)
    n_trials, n_symbols = phases.shape

    references = np.asarray(reference_phases, dtype=np.float64)[:, None]
    previous = np.concatenate([references, phases[:, :-1]], axis=1)
    deltas = np.angle(np.exp(1j * (phases - previous)))
    side_bits = (
        scheme.decode_deltas(deltas.reshape(-1))
        .reshape(n_trials, n_symbols, scheme.bits_per_symbol)
    )

    crc_pass = crc_config.check_groups_block(bit_matrix, side_bits)
    return bit_matrix, side_bits, crc_pass, phases


class CarpoolReceiver:
    """A Carpool STA's full receive pipeline for one frame.

    Args:
        mac: This station's address (the A-HDR probe key).
        coded: Must match the transmitter's payload coding mode.
        use_rte: Disable to model an aggregation-only receiver
            (the MU-Aggregation baseline).
        decode_all: Decode every subframe regardless of the A-HDR — used
            by instrumentation to measure all-receiver BER from one frame.
    """

    def __init__(
        self,
        mac: MacAddress,
        coded: bool = True,
        crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
        use_rte: bool = True,
        decode_all: bool = False,
    ):
        self.mac = mac
        self.coded = coded
        self.crc_config = crc_config
        self.use_rte = use_rte
        self.decode_all = decode_all

    def receive(self, received_symbols: np.ndarray) -> CarpoolRxResult:
        """Process one received Carpool frame (frequency-domain symbols)."""
        front = acquire(received_symbols)
        derotated = front.derotated
        channel = front.channel_estimate

        ahdr_rx = derotated[AHDR_SYMBOL_OFFSET : AHDR_SYMBOL_OFFSET + AHDR_SYMBOLS]
        ahdr_eq, _ = track_and_compensate_block(equalize(ahdr_rx, channel), 0)
        bloom = decode_ahdr(ahdr_eq)

        result = CarpoolRxResult(
            matched_positions=[],
            cfo_hz=front.cfo_hz,
            channel_estimate=channel,
        )

        cursor = AHDR_SYMBOL_OFFSET + AHDR_SYMBOLS
        pilot_index = AHDR_SYMBOLS
        position = 0
        running_estimate = channel
        n_total = derotated.shape[0]

        while cursor < n_total:
            sig_eq = equalize(derotated[cursor], running_estimate)
            sig_eq, sig_phase = track_and_compensate(sig_eq, pilot_index)
            sig_points, _ = split_symbol(sig_eq)
            try:
                sig = decode_sig(sig_points)
            except SigDecodeError as exc:
                result.walk_error = f"subframe {position}: {exc}"
                break
            n_payload = payload_codec.num_payload_symbols(
                sig.length_bytes, sig.mcs, self.coded
            )
            payload_end = cursor + 1 + n_payload
            if payload_end > n_total:
                result.walk_error = (
                    f"subframe {position}: SIG length overruns frame "
                    f"({payload_end} > {n_total})"
                )
                break

            matched = bloom.matches(bytes(self.mac), position)
            if matched:
                result.matched_positions.append(position)
            if matched or self.decode_all:
                bit_matrix, side_bits, crc_pass, phases, estimator = decode_subframe_symbols(
                    derotated[cursor + 1 : payload_end],
                    running_estimate,
                    sig.mcs,
                    first_pilot_index=pilot_index + 1,
                    reference_phase=sig_phase,
                    crc_config=self.crc_config,
                    use_rte=self.use_rte,
                )
                payload = payload_codec.decode_payload_bits(
                    bit_matrix, sig.length_bytes, sig.mcs, self.coded
                )
                result.subframes.append(
                    SubframeRx(
                        position=position,
                        sig=sig,
                        payload=payload,
                        bit_matrix=bit_matrix,
                        side_bits=side_bits,
                        crc_pass=crc_pass,
                        phases=phases,
                        rte_updates=estimator.updates,
                    )
                )
                if self.use_rte:
                    running_estimate = estimator.estimate

            cursor = payload_end
            pilot_index += 1 + n_payload
            position += 1

        result.num_subframes_seen = position
        rec = active_recorder()
        if rec is not None:
            rec.emit(
                "phy", "frame_rx",
                subframes_seen=position,
                matched=list(result.matched_positions),
                decoded=len(result.subframes),
                crc_pass=int(sum(int(sf.crc_pass.sum()) for sf in result.subframes)),
                crc_total=int(sum(sf.crc_pass.size for sf in result.subframes)),
                rte_updates=int(sum(sf.rte_updates for sf in result.subframes)),
                walk_error=result.walk_error,
            )
        return result
