"""Event-driven CSMA/CA MAC simulator and the five evaluated protocols."""

from repro.mac.airtime import (
    ack_airtime,
    ack_train_airtime,
    frame_airtime,
    single_frame_airtime,
)
from repro.mac.engine import AP_NAME, WlanSimulator
from repro.mac.error_model import (
    DEFAULT_ERROR_MODEL,
    BerCurveErrorModel,
    FixedFerModel,
    fit_ber_curve,
)
from repro.mac.frames import Arrival, Direction, MacFrame
from repro.mac.metrics import MetricsCollector, MetricsSummary
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS, PhyMacParameters
from repro.mac.association import ApAssociationService, AssocRequest, AssocResponse, Beacon
from repro.mac.block_ack import BLOCK_ACK_WINDOW, BlockAck, ReorderScoreboard, missing_sequences
from repro.mac.frame_formats import AckFrame, CtsFrame, DataFrame, RtsFrame, parse_frame
from repro.mac.fairness import FairCarpoolProtocol, TimeOccupancyTable
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.mac.protocols.fallback import FallbackCarpoolProtocol
from repro.mac.rate_control import RateTable, select_mcs
from repro.mac.scenarios import CbrScenario, ScenarioResult, VoipScenario
from repro.mac.protocols import (
    PROTOCOLS,
    AggregationLimits,
    AmpduProtocol,
    CarpoolProtocol,
    Dot11Protocol,
    MuAggregationProtocol,
    Protocol,
    SubframeTx,
    Transmission,
    WifoxProtocol,
)

__all__ = [
    "ack_airtime",
    "ack_train_airtime",
    "frame_airtime",
    "single_frame_airtime",
    "AP_NAME",
    "WlanSimulator",
    "DEFAULT_ERROR_MODEL",
    "BerCurveErrorModel",
    "FixedFerModel",
    "fit_ber_curve",
    "Arrival",
    "Direction",
    "MacFrame",
    "MetricsCollector",
    "MetricsSummary",
    "Node",
    "DEFAULT_PARAMETERS",
    "PhyMacParameters",
    "PROTOCOLS",
    "AggregationLimits",
    "AmpduProtocol",
    "CarpoolProtocol",
    "Dot11Protocol",
    "MuAggregationProtocol",
    "Protocol",
    "SubframeTx",
    "Transmission",
    "WifoxProtocol",
    "CarpoolMixedProtocol",
    "FallbackCarpoolProtocol",
    "FairCarpoolProtocol",
    "TimeOccupancyTable",
    "DataFrame",
    "AckFrame",
    "RtsFrame",
    "CtsFrame",
    "parse_frame",
    "ApAssociationService",
    "AssocRequest",
    "AssocResponse",
    "Beacon",
    "BLOCK_ACK_WINDOW",
    "BlockAck",
    "ReorderScoreboard",
    "missing_sequences",
    "RateTable",
    "select_mcs",
    "VoipScenario",
    "CbrScenario",
    "ScenarioResult",
]
