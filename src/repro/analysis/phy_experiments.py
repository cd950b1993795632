"""PHY measurement harness: the software twin of the paper's USRP tests.

Each function transmits real frames through the full PHY + channel stack
and measures bit errors, reproducing the methodology of §7.1: identical
frames decoded offline under different schemes, BER per symbol index, BER
per power setting, side-channel vs data-channel reliability.

All experiments run their trials through :mod:`repro.runtime`: every trial
owns an independently seeded channel realisation (via
``np.random.SeedSequence.spawn``), so results are bit-identical whether the
trials run serially or across a process pool — pass ``n_workers`` to any
experiment to fan trials out over cores.

Every experiment runs one executor, :func:`_decode_batch`: it transmits a
chunk of trials and decodes them in tiles — one stacked
:func:`decode_subframe_symbols_frozen_batch` call per tile for the
standard receiver, one :func:`decode_subframe_symbols` call per trial with
RTE. A traced run hands the same executor one trial at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.channel.fading import FadingProfile
from repro.channel.model import ChannelModel
from repro.core.receiver import (
    decode_subframe_symbols,
    decode_subframe_symbols_frozen_batch,
)
from repro.core.symbol_crc import DEFAULT_CRC_CONFIG, SymbolCrcConfig
from repro.phy import payload_codec
from repro.phy.frontend import acquire
from repro.phy.channel_estimation import equalize
from repro.phy.mcs import Mcs, mcs_by_name
from repro.phy.pilots import track_and_compensate
from repro.phy.transceiver import (
    PAYLOAD_SYMBOL_OFFSET,
    SIG_SYMBOL_OFFSET,
    PhyTransmitter,
)
from repro.runtime.trials import run_trials
from repro.util.rng import RngStream, derive_seed

__all__ = [
    "LinkConfig",
    "OFFICE_PROFILE",
    "ber_by_symbol_index",
    "data_ber_with_side_channel",
    "side_channel_vs_data_ber",
]

# The canonical "office link" standing in for the paper's 10 m × 10 m room
# at a fixed 3 m TX–RX distance: a dominant LOS tap with a weak scattered
# echo (delay spread well inside the CP) and a coherence time in the tens
# of milliseconds. Calibrated so the Fig. 3/13 experiment lands in the
# paper's BER decade (head ≈ 1e-3, tail ≈ a few 1e-2 for QAM64 at the
# maximum power setting).
OFFICE_PROFILE = FadingProfile(
    num_taps=2, delay_spread_taps=0.35, ricean_k_db=18.0, coherence_time=30e-3
)


@dataclass(frozen=True)
class LinkConfig:
    """One point-to-point measurement configuration.

    ``symbol_duration`` defaults to the "2M channel" of Fig. 13 (40 µs
    symbols — ten times 20 MHz timing), which the paper uses to emulate
    10× longer frames; pass 4e-6 for standard 20 MHz links.
    """

    snr_db: float | None = None
    power_magnitude: float | None = 0.2
    profile: FadingProfile = OFFICE_PROFILE
    symbol_duration: float = 40e-6
    cfo_hz: float = 300.0
    sfo_ppm: float = 8.0
    seed: int = 0
    #: Optional :class:`repro.faults.FaultPlan`; its PHY specs become
    #: channel impairments on every instantiated channel.
    fault_plan: object = None

    def channel(self, rng_name: str = "channel") -> ChannelModel:
        """Instantiate the configured channel (independent RNG per name)."""
        impairments = self.fault_plan.phy_impairments() if self.fault_plan else ()
        return ChannelModel(
            snr_db=self.snr_db,
            power_magnitude=self.power_magnitude,
            profile=self.profile,
            cfo_hz=self.cfo_hz,
            sfo_ppm=self.sfo_ppm,
            symbol_duration=self.symbol_duration,
            rng=RngStream(self.seed).child(rng_name),
            impairments=impairments,
        )

    def with_power(self, power_magnitude: float) -> "LinkConfig":
        """A copy of this config at a different USRP power setting."""
        return replace(self, snr_db=None, power_magnitude=power_magnitude)


@dataclass
class SymbolBerResult:
    """Per-symbol-index BER plus side-channel bookkeeping."""

    ber_per_symbol: np.ndarray
    mean_ber: float
    crc_pass_rate: float
    side_bit_error_rate: float
    trials: int
    scheme: str = ""


def _make_frame(payload_bytes: int, mcs: Mcs, crc_config: SymbolCrcConfig,
                inject: bool, seed: int):
    rng = np.random.default_rng(seed)
    payload = bytes(rng.integers(0, 256, payload_bytes, dtype=np.uint8))
    tx = PhyTransmitter(mcs, coded=False)
    if inject:
        bit_matrix = payload_codec.encode_payload_bits(payload, mcs, coded=False)
        side_bits = crc_config.side_bits_for(bit_matrix)
        phases = crc_config.scheme.encode_phases(side_bits.reshape(-1))
        frame = tx.build_frame(payload, phases=phases)
        return frame, side_bits
    frame = tx.build_frame(payload)
    return frame, np.zeros(
        (frame.n_payload_symbols, crc_config.scheme.bits_per_symbol), dtype=np.uint8
    )


def _trial_channel(link: LinkConfig, stream_name: str,
                   rng: np.random.Generator) -> ChannelModel:
    """A fresh, independently seeded channel realisation for one trial."""
    trial_seed = int(rng.integers(0, np.iinfo(np.int64).max))
    return replace(link, seed=trial_seed).channel(stream_name)


#: Trials decoded per stacked call; bounds the working set of the
#: (n_trials, n_symbols, 52) intermediates without changing results (the
#: decode is independent per trial).
_BATCH_TILE = 64


def _frame_tables(frame, true_side_bits) -> dict:
    """The read-only per-run arrays every trial needs; they travel to the
    workers in ``run_trials(args=...)`` with every chunk."""
    return {
        "frame_symbols": frame.symbols,
        "payload_bits": frame.payload_bit_matrix,
        "side_bits": np.asarray(true_side_bits),
    }


def _front_end(received):
    """Acquire one frame: (payload block, channel estimate, SIG phase)."""
    front = acquire(received)
    sig_eq = equalize(front.derotated[SIG_SYMBOL_OFFSET], front.channel_estimate)
    _, sig_phase = track_and_compensate(sig_eq, 0)
    return front.derotated[PAYLOAD_SYMBOL_OFFSET:], front.channel_estimate, sig_phase


def _decode_batch(start, rngs, tables, link, stream_name, mcs, crc_config,
                  use_rte, rte_rule, rte_guard, tally):
    """The executor of every PHY experiment: transmit, decode, tally.

    Each trial sends the shared frame through its own channel realisation
    (drawn from its RNG alone), so a chunk's results do not depend on how
    trials are grouped. Trials decode in tiles of ``_BATCH_TILE``: one
    stacked frozen call per tile, or — RTE being sequential within a
    frame — one :func:`decode_subframe_symbols` call per trial. ``tally``
    turns a tile's (bit_matrix, side_bits, crc_pass) stacks into one
    outcome per trial.
    """
    outcomes = []
    for tile_start in range(0, len(rngs), _BATCH_TILE):
        fronts = [
            _front_end(_trial_channel(link, stream_name, rng).transmit(
                tables["frame_symbols"]))
            for rng in rngs[tile_start:tile_start + _BATCH_TILE]
        ]
        if use_rte:
            decoded = [
                decode_subframe_symbols(
                    payload, estimate, mcs, first_pilot_index=1,
                    reference_phase=sig_phase, crc_config=crc_config,
                    use_rte=True, rte_rule=rte_rule, rte_guard=rte_guard,
                )[:3]
                for payload, estimate, sig_phase in fronts
            ]
            stacks = [np.stack(column) for column in zip(*decoded)]
        else:
            payloads, estimates, sig_phases = (
                np.stack(column) for column in zip(*fronts))
            stacks = decode_subframe_symbols_frozen_batch(
                payloads, estimates, mcs, first_pilot_index=1,
                reference_phases=sig_phases, crc_config=crc_config,
            )[:3]
        outcomes.extend(tally(tables, *stacks))
    return outcomes


def _decode_trial(trial_index, rng, *args):
    """One trial: :func:`_decode_batch` on a chunk of one.

    The per-trial executor ``run_trials`` uses when a trace recorder is
    active, so a traced run decodes through the same code as a plain one.
    """
    return _decode_batch(trial_index, [rng], *args)[0]


def _run_experiment(trials, link, stream_name, frame, true_side_bits, mcs,
                    crc_config, tally, n_workers, use_rte=False,
                    rte_rule="average", rte_guard=None) -> list:
    """Run ``trials`` trials of one experiment; one ``tally`` outcome each."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return run_trials(
        _decode_trial,
        trials,
        seed=derive_seed(link.seed, stream_name),
        n_workers=n_workers,
        args=(_frame_tables(frame, true_side_bits), link, stream_name, mcs,
              crc_config, use_rte, rte_rule, rte_guard, tally),
        batch_fn=_decode_batch,
    )


def _symbol_errors(tables, bit_matrix, side_bits, crc_pass):
    """Fig. 3/13 tally: (per-symbol bit errors, CRC passes, side errors)."""
    data_errors = (bit_matrix != tables["payload_bits"]).sum(axis=2)
    side_errors = (side_bits != tables["side_bits"]).sum(axis=(1, 2))
    return zip(data_errors, crc_pass.sum(axis=1).tolist(), side_errors.tolist())


def _data_errors(tables, bit_matrix, side_bits, crc_pass):
    """Fig. 11 tally: data-bit errors per trial."""
    return (bit_matrix != tables["payload_bits"]).sum(axis=(1, 2)).tolist()


def _side_and_data_errors(tables, bit_matrix, side_bits, crc_pass):
    """Fig. 12 tally: (side-bit errors, data-bit errors) per trial."""
    side_errors = (side_bits != tables["side_bits"]).sum(axis=(1, 2))
    return zip(side_errors.tolist(), _data_errors(tables, bit_matrix, side_bits, crc_pass))


def ber_by_symbol_index(
    mcs_name: str = "QAM64-3/4",
    payload_bytes: int = 4090,
    trials: int = 50,
    use_rte: bool = False,
    link: LinkConfig = LinkConfig(),
    crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
    rte_rule="average",
    rte_guard=None,
    n_workers: int | None = 1,
) -> SymbolBerResult:
    """BER as a function of OFDM-symbol index within a long frame.

    This is the Fig. 3 / Fig. 13 experiment: 4 KB uncoded frames over the
    time-varying office channel, decoded with either the standard
    (preamble-only) estimator or Carpool's RTE. The same frame is sent
    through a fresh channel realisation per trial, mirroring the paper's
    repeated measurements at different times/locations.

    ``n_workers`` fans the trials out over a process pool (``None``
    auto-detects the core count); results are identical for any value.
    """
    mcs = mcs_by_name(mcs_name)
    frame, true_side_bits = _make_frame(payload_bytes, mcs, crc_config, True, link.seed)
    outcomes = _run_experiment(
        trials, link, "ber-by-symbol", frame, true_side_bits, mcs,
        crc_config, _symbol_errors, n_workers, use_rte, rte_rule, rte_guard,
    )
    n_symbols = frame.n_payload_symbols
    bit_errors = np.zeros(n_symbols)
    crc_passes = 0
    side_errors = 0
    for symbol_errors, passes, side in outcomes:
        bit_errors += symbol_errors
        crc_passes += passes
        side_errors += side
    side_bits_total = trials * true_side_bits.size
    bits_per_symbol = frame.payload_bit_matrix.shape[1]
    ber = bit_errors / (trials * bits_per_symbol)
    return SymbolBerResult(
        ber_per_symbol=ber,
        mean_ber=float(ber.mean()),
        crc_pass_rate=crc_passes / (trials * n_symbols),
        side_bit_error_rate=side_errors / max(side_bits_total, 1),
        trials=trials,
        scheme="RTE" if use_rte else "Standard",
    )


def data_ber_with_side_channel(
    mcs_name: str,
    power_magnitude: float,
    trials: int = 40,
    payload_bytes: int = 1000,
    inject: bool = True,
    link: LinkConfig | None = None,
    crc_config: SymbolCrcConfig = DEFAULT_CRC_CONFIG,
    n_workers: int | None = 1,
) -> float:
    """Raw data BER of a link with or without phase-offset injection.

    The Fig. 11 experiment: identical static-office layouts, standard
    receiver, sweep the power knob, compare the PHY with the side channel
    against the unmodified PHY. Both arms draw their trials from the one
    stream ``fig11-{mcs_name}``, so they see the same channel realisations
    and the comparison isolates the phase injection.
    """
    base = link or LinkConfig(
        profile=FadingProfile(num_taps=2, ricean_k_db=15.0, coherence_time=np.inf),
        symbol_duration=4e-6,
    )
    cfg = base.with_power(power_magnitude)
    mcs = mcs_by_name(mcs_name)
    frame, _ = _make_frame(payload_bytes, mcs, crc_config, inject, cfg.seed)
    errors = _run_experiment(
        trials, cfg, f"fig11-{mcs_name}", frame,
        np.zeros(0, dtype=np.uint8), mcs, crc_config, _data_errors, n_workers,
    )
    total = trials * frame.payload_bit_matrix.size
    return sum(errors) / total


def side_channel_vs_data_ber(
    scheme_bits: int,
    power_magnitude: float,
    trials: int = 40,
    payload_bytes: int = 1000,
    link: LinkConfig | None = None,
    n_workers: int | None = 1,
) -> tuple:
    """(side-channel BER, data BER) for one power setting — Fig. 12.

    The 1-bit offset scheme rides on BPSK frames, the 2-bit scheme on QPSK
    frames, so each side channel is compared against the phase-shift-keyed
    data modulation of equal order.
    """
    from repro.core.side_channel import ONE_BIT_SCHEME, TWO_BIT_SCHEME

    if scheme_bits == 1:
        crc_config = SymbolCrcConfig(scheme=ONE_BIT_SCHEME, granularity=2)
        mcs_name = "BPSK-1/2"
    elif scheme_bits == 2:
        crc_config = SymbolCrcConfig(scheme=TWO_BIT_SCHEME, granularity=1)
        mcs_name = "QPSK-1/2"
    else:
        raise ValueError("scheme_bits must be 1 or 2")

    base = link or LinkConfig(
        profile=FadingProfile(num_taps=2, ricean_k_db=15.0, coherence_time=np.inf),
        symbol_duration=4e-6,
    )
    cfg = base.with_power(power_magnitude)
    mcs = mcs_by_name(mcs_name)
    frame, true_side_bits = _make_frame(payload_bytes, mcs, crc_config, True, cfg.seed)
    outcomes = _run_experiment(
        trials, cfg, f"fig12-{scheme_bits}bit", frame, true_side_bits, mcs,
        crc_config, _side_and_data_errors, n_workers,
    )
    side_errors = sum(side for side, _ in outcomes)
    data_errors = sum(data for _, data in outcomes)
    side_total = trials * true_side_bits.size
    data_total = trials * frame.payload_bit_matrix.size
    return side_errors / side_total, data_errors / data_total
