"""Carpool core: the paper's primary contribution.

Multi-receiver PHY frame aggregation (A-HDR Bloom-filter header), the
phase-offset side channel with per-symbol CRC, real-time channel estimation
(RTE) and the energy model. The AP's batch-selection rule
(:func:`repro.mac.protocols.multi_receiver.select_multi_receiver_batch`)
and the sequential ACK's airtime (:mod:`repro.mac.airtime`) live in the MAC.
"""

from repro.core.ahdr import (
    AHDR_BITS,
    AHDR_NUM_HASHES,
    AHDR_SYMBOLS,
    MAX_RECEIVERS,
    ahdr_overhead_ratio,
    build_ahdr_filter,
    decode_ahdr,
    encode_ahdr,
    naive_header_bits,
)
from repro.core.energy import (
    WPC55AG,
    DevicePowerModel,
    EnergyBreakdown,
    carpool_energy_overhead,
)
from repro.core.frame import (
    AHDR_SYMBOL_OFFSET,
    CarpoolTransmitter,
    CarpoolTxFrame,
    SubframeSpec,
    TxSubframe,
)
from repro.core.mac_address import MacAddress
from repro.core.receiver import (
    CarpoolReceiver,
    CarpoolRxResult,
    SubframeRx,
    decode_subframe_symbols,
)
from repro.core.rte import HARDENED_GUARD, UPDATE_RULES, RealTimeEstimator, RteGuard
from repro.core.side_channel import (
    ONE_BIT_SCHEME,
    SCHEMES,
    TWO_BIT_SCHEME,
    PhaseOffsetScheme,
    wrap_phase,
)
from repro.core.compat import (
    AssociationTable,
    Capability,
    DualModeReceiver,
    FrameFormat,
    classify_frame,
)
from repro.core.mimo import (
    MuMimoCarpoolReceiver,
    MuMimoCarpoolTransmitter,
    MuMimoFrameLayout,
    transmissions_required,
)
from repro.core.mac_payload import pack_mpdus, unpack_mpdus
from repro.core.transport import CarpoolLink, DeliveryReport, StationEndpoint
from repro.core.symbol_crc import DEFAULT_CRC_CONFIG, SymbolCrcConfig, crc_checksum_bits

__all__ = [
    "AHDR_BITS",
    "AHDR_NUM_HASHES",
    "AHDR_SYMBOLS",
    "MAX_RECEIVERS",
    "ahdr_overhead_ratio",
    "build_ahdr_filter",
    "decode_ahdr",
    "encode_ahdr",
    "naive_header_bits",
    "WPC55AG",
    "DevicePowerModel",
    "EnergyBreakdown",
    "carpool_energy_overhead",
    "AHDR_SYMBOL_OFFSET",
    "CarpoolTransmitter",
    "CarpoolTxFrame",
    "SubframeSpec",
    "TxSubframe",
    "MacAddress",
    "CarpoolReceiver",
    "CarpoolRxResult",
    "SubframeRx",
    "decode_subframe_symbols",
    "UPDATE_RULES",
    "RealTimeEstimator",
    "RteGuard",
    "HARDENED_GUARD",
    "ONE_BIT_SCHEME",
    "TWO_BIT_SCHEME",
    "SCHEMES",
    "PhaseOffsetScheme",
    "wrap_phase",
    "DEFAULT_CRC_CONFIG",
    "SymbolCrcConfig",
    "crc_checksum_bits",
    "AssociationTable",
    "Capability",
    "DualModeReceiver",
    "FrameFormat",
    "classify_frame",
    "MuMimoCarpoolReceiver",
    "MuMimoCarpoolTransmitter",
    "MuMimoFrameLayout",
    "transmissions_required",
    "pack_mpdus",
    "unpack_mpdus",
    "CarpoolLink",
    "DeliveryReport",
    "StationEndpoint",
]
