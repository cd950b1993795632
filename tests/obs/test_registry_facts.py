"""One record per simulation fact: the registry holds runtime facts only."""


class TestOnlyRuntimeFacts:
    """Simulation facts live in results and trace events, never in the
    registry: a pooled deployment, a faulty MAC run and an RTE decode
    leave nothing in it but the runtime's counters."""

    def test_simulations_leave_only_runtime_counters(self):
        from repro.analysis.phy_experiments import ber_by_symbol_index
        from repro.faults import FaultPlan, FaultSpec
        from repro.mac import (
            DEFAULT_PARAMETERS,
            FallbackCarpoolProtocol,
            FixedFerModel,
            WlanSimulator,
        )
        from repro.mac.protocols.base import AggregationLimits
        from repro.net.deployment import DeploymentConfig, simulate_deployment
        from repro.obs.trace import TraceRecorder, collecting, set_recorder
        from repro.traffic import (
            merge_arrivals,
            voip_downlink_arrivals,
            voip_uplink_arrivals,
        )
        from repro.util.rng import RngStream

        stations = [f"sta{i}" for i in range(6)]
        rng = RngStream(11)
        arrivals = merge_arrivals(
            voip_downlink_arrivals(stations, 1.0, rng.child("down")),
            voip_uplink_arrivals(stations, 1.0, rng.child("up")),
        )
        plan = FaultPlan.of(
            FaultSpec.make("ack_loss", probability=0.3),
            FaultSpec.make("ahdr_corruption", probability=1.0,
                           miss_probability=1.0, start=0.3, stop=0.4),
        )
        recorder = TraceRecorder(None, deterministic=True)
        previous = set_recorder(recorder)
        try:
            with collecting() as registry:
                simulate_deployment(
                    DeploymentConfig(n_aps=2, stas_per_ap=2, duration=0.5,
                                     with_background=False),
                    n_workers=2, use_cache=False)
                WlanSimulator(
                    FallbackCarpoolProtocol(
                        DEFAULT_PARAMETERS,
                        AggregationLimits(max_latency=0.005)),
                    len(stations), arrivals,
                    error_model=FixedFerModel(0.0), rng=RngStream(3),
                    faults=plan).run(1.0)
                ber_by_symbol_index(payload_bytes=300, trials=2,
                                    use_rte=True, n_workers=1)
        finally:
            set_recorder(previous)
        events = {record["event"] for record in recorder.events}
        assert {"collision", "ack_lost", "demote"} <= events
        assert registry.get("runtime.pool_spawned").value + registry.get(
            "runtime.pool_reused").value >= 1
        assert set(registry.names()) <= {"runtime.pool_spawned",
                                         "runtime.pool_reused",
                                         "runtime.ipc_result_bytes"}
