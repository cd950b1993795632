"""Measurement harness for the reproduction experiments."""

from repro.analysis.calibration import calibrate_error_model, symbol_failure_from_ber
from repro.analysis.degradation import (
    DegradationPoint,
    RteResilienceResult,
    degradation_sweep,
    make_degradation_plan,
    rte_burst_resilience,
)
from repro.analysis.phy_experiments import (
    LinkConfig,
    OFFICE_PROFILE,
    ber_by_symbol_index,
    data_ber_with_side_channel,
    side_channel_vs_data_ber,
)
from repro.analysis.deployment_sweep import (
    DEPLOYMENT_PROTOCOLS,
    airtime_saved_s,
    deployment_protocol_sweep,
    format_deployment_table,
)
from repro.analysis.efficiency import carpool_exchange, mac_efficiency, single_frame_exchange
from repro.analysis.location_sweep import LocationSweepResult, ber_across_locations
from repro.analysis.testbed import Location, OfficeTestbed

__all__ = [
    "DegradationPoint",
    "RteResilienceResult",
    "degradation_sweep",
    "make_degradation_plan",
    "rte_burst_resilience",
    "calibrate_error_model",
    "symbol_failure_from_ber",
    "LinkConfig",
    "OFFICE_PROFILE",
    "ber_by_symbol_index",
    "data_ber_with_side_channel",
    "side_channel_vs_data_ber",
    "Location",
    "OfficeTestbed",
    "carpool_exchange",
    "mac_efficiency",
    "single_frame_exchange",
    "LocationSweepResult",
    "ber_across_locations",
    "DEPLOYMENT_PROTOCOLS",
    "airtime_saved_s",
    "deployment_protocol_sweep",
    "format_deployment_table",
]
