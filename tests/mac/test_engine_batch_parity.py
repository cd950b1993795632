"""The batched draw path is a pure optimisation: metrics must be identical.

``WlanSimulator.simulate_batch`` pre-draws subframe outcomes in blocks
from the same ``errors`` child stream the scalar path consumes one
uniform at a time. These tests pin the contract: for ANY scenario,
protocol, seed, and fault plan, batched and scalar runs produce the same
``ScenarioResult`` float for float (not merely statistically equivalent).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.mac import PROTOCOLS
from repro.mac.scenarios import CbrScenario, VoipScenario


def _paired_results(scenario, protocol_cls):
    scalar = dataclasses.replace(scenario, batched=False).run(protocol_cls)
    batched = dataclasses.replace(scenario, batched=True).run(protocol_cls)
    return scalar, batched


class TestBatchedScalarParity:
    @settings(max_examples=10, deadline=None)
    @given(
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        stations=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        uplink=st.booleans(),
    )
    def test_voip_scenarios(self, protocol, stations, seed, uplink):
        scenario = VoipScenario(
            num_stations=stations, num_aps=1, duration=0.5, seed=seed,
            include_uplink=uplink,
        )
        scalar, batched = _paired_results(scenario, PROTOCOLS[protocol])
        assert scalar == batched

    @settings(max_examples=8, deadline=None)
    @given(
        protocol=st.sampled_from(["Carpool", "802.11", "MU-Aggregation"]),
        stations=st.integers(1, 5),
        frame_bytes=st.integers(64, 4095),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_cbr_scenarios(self, protocol, stations, frame_bytes, seed):
        scenario = CbrScenario(
            num_stations=stations, num_aps=1, duration=0.5, seed=seed,
            frame_bytes=frame_bytes, with_background=False,
        )
        scalar, batched = _paired_results(scenario, PROTOCOLS[protocol])
        assert scalar == batched

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        probability=st.floats(0.05, 0.9),
        kind=st.sampled_from(["ack_loss", "mac_burst", "ahdr_corruption"]),
    )
    def test_fault_plans(self, seed, probability, kind):
        # Faults draw from their own child stream; batching the error
        # draws must not shift the fault draws (or vice versa).
        plan = FaultPlan(specs=(
            FaultSpec(kind=kind, start=0.0, stop=5.0, probability=probability),
        ))
        scenario = VoipScenario(
            num_stations=3, num_aps=1, duration=0.5, seed=seed,
            fault_plan=plan,
        )
        scalar, batched = _paired_results(scenario, PROTOCOLS["Carpool"])
        assert scalar == batched

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), stations=st.integers(1, 5))
    def test_fallback_protocol_with_ahdr_faults(self, seed, stations):
        # Carpool-fallback switches modes off decode failures, so any
        # drift in draw order would change its whole trajectory.
        plan = FaultPlan(specs=(
            FaultSpec(kind="ahdr_corruption", start=0.0, stop=5.0,
                      probability=0.5),
        ))
        scenario = VoipScenario(
            num_stations=stations, num_aps=1, duration=0.5, seed=seed,
            fault_plan=plan,
        )
        scalar, batched = _paired_results(
            scenario, PROTOCOLS["Carpool-fallback"]
        )
        assert scalar == batched

    def test_simulate_batch_equals_run(self):
        from repro.mac.engine import WlanSimulator
        from repro.mac.parameters import DEFAULT_PARAMETERS
        from repro.traffic.flows import merge_arrivals
        from repro.traffic.voip import voip_downlink_arrivals
        from repro.util.rng import RngStream

        def build(batched):
            arrivals = voip_downlink_arrivals(
                ["sta0", "sta1"], 1.0, RngStream(5).child("down"))
            return WlanSimulator(
                PROTOCOLS["Carpool"](DEFAULT_PARAMETERS),
                num_stations=2,
                arrivals=merge_arrivals(arrivals),
                rng=RngStream(5).child("sim"),
                station_names=["sta0", "sta1"],
                batched=batched,
            )

        scalar_sim = build(False)
        scalar = scalar_sim.run(1.0)
        batched_sim = build(True)
        batched = batched_sim.simulate_batch(1.0)
        assert scalar == batched
        assert scalar_sim.metrics.goodput_of_source("ap", 1.0) == \
            batched_sim.metrics.goodput_of_source("ap", 1.0)


@pytest.mark.parametrize("receivers, payloads", [
    ((2,), (256,)),
    pytest.param((2, 4), (256, 1024), marks=pytest.mark.slow),
])
def test_sweep_batched_cached_parity(receivers, payloads, tmp_path,
                                     monkeypatch):
    """The full sweep path: batched+cached == scalar+uncached, cell by
    cell, with the calibration cache cold and warm."""
    import repro.analysis.calibration as calibration
    from repro.mac.sweep import SweepConfig, goodput_airtime_sweep
    from repro.runtime.cache import ResultCache

    monkeypatch.setattr(
        calibration, "_CACHE",
        ResultCache(directory=str(tmp_path), namespace="calibration"),
    )
    fast = SweepConfig(
        receiver_counts=receivers, payload_bytes=payloads, trials=2,
        duration=0.3, calibration_payload=400, calibration_trials=2,
        batched=True, cache=True,
    )
    slow = dataclasses.replace(fast, batched=False, cache=False)
    slow_cells = goodput_airtime_sweep(slow)
    cold_cells = goodput_airtime_sweep(fast)
    warm_cells = goodput_airtime_sweep(fast)
    assert calibration._CACHE.hits >= 1
    for cells in (cold_cells, warm_cells):
        assert [c.per_trial_goodput for c in cells] == \
            [c.per_trial_goodput for c in slow_cells]
        assert [c.goodput_bps for c in cells] == \
            [c.goodput_bps for c in slow_cells]
