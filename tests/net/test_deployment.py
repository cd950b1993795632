"""The deployment layer is a composition, not a fork, of the single-cell
engine: a degenerate deployment must reproduce the existing machinery bit
for bit, and results must be invariant to worker count and cache replay.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.protocols import PROTOCOLS
from repro.mac.scenarios import CbrScenario
from repro.net.aggregate import DeploymentAggregate
from repro.net.deployment import (
    CellResult,
    DeploymentConfig,
    DeploymentResult,
    _deployment_plan,
    _spec_source,
    cell_seed,
    run_cell,
    simulate_deployment,
)
from repro.runtime.cache import ResultCache


def build_cell_specs(config):
    """(specs, timeline, fault_plans): a config's cells, minted but not run."""
    plan = _deployment_plan(config)
    specs = _spec_source(config, plan)(0, len(plan.ap_order))
    return specs, plan.timeline, plan.plans


def _fast_config(**overrides):
    base = dict(
        n_aps=4, stas_per_ap=2, duration=0.4, seed=42,
        protocol="Carpool", channels=1, arena_width_m=30.0,
        arena_height_m=30.0,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(directory=str(tmp_path), namespace="deployment")


class TestConfigValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DeploymentConfig(n_aps=0)
        with pytest.raises(ValueError):
            DeploymentConfig(stas_per_ap=-1)
        with pytest.raises(ValueError):
            DeploymentConfig(duration=0.0)
        with pytest.raises(ValueError):
            DeploymentConfig(protocol="Token-Ring")
        with pytest.raises(ValueError):
            DeploymentConfig(legacy_fraction=2.0)

    def test_payload_is_json_stable(self):
        import json

        payload = _fast_config().to_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestSingleCellParity:
    """The acceptance gate: a 1-AP, coupling-off deployment IS the
    existing single-cell machinery (same style as
    tests/mac/test_engine_batch_parity.py — exact equality, no tolerance).
    """

    @settings(max_examples=6, deadline=None)
    @given(
        protocol=st.sampled_from(["Carpool", "802.11", "A-MPDU"]),
        stations=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_degenerate_deployment_is_cbr_scenario(self, protocol, stations,
                                                   seed):
        import tempfile

        config = DeploymentConfig(
            n_aps=1, stas_per_ap=stations, duration=0.4, seed=seed,
            protocol=protocol, coupling=False,
        )
        with tempfile.TemporaryDirectory() as scratch:
            deployment = simulate_deployment(
                config, n_workers=1, use_cache=False,
                cache=ResultCache(directory=scratch, namespace="deployment"),
            )
        reference = CbrScenario(
            num_stations=stations,
            num_aps=1,
            duration=config.duration,
            seed=cell_seed(seed, 0),
            frame_bytes=config.frame_bytes,
            frames_per_second=config.frames_per_second,
            latency_requirement=config.latency_requirement,
            with_background=config.with_background,
            background_intensity=config.background_intensity,
        ).run(PROTOCOLS[protocol])

        (cell,) = deployment.cells
        assert cell.goodput_bps == reference.measured_ap_goodput_bps
        assert cell.useful_goodput_bps == reference.measured_ap_useful_goodput_bps
        assert cell.mean_delay_s == reference.downlink_mean_delay
        assert cell.p95_delay_s == reference.downlink_p95_delay
        assert cell.collisions == reference.collisions
        assert cell.transmissions == reference.transmissions
        assert cell.retransmitted_subframes == reference.retransmitted_subframes
        assert cell.dropped_frames == reference.dropped_frames
        assert cell.channel_busy_fraction == reference.channel_busy_fraction
        assert deployment.total_goodput_bps == reference.measured_ap_goodput_bps
        assert deployment.n_coupled_cells == 0

    def test_coupling_off_cells_are_independent_single_cell_runs(self):
        # Multi-AP generalisation: with coupling disabled, EVERY cell is
        # exactly the standalone scenario under its derived seed.
        config = _fast_config(coupling=False)
        specs, _timeline, plans = build_cell_specs(config)
        assert all(plan is None for plan in plans.values())
        for spec in specs:
            if spec.n_stations == 0:
                continue
            got = run_cell(spec)
            reference = CbrScenario(
                num_stations=spec.n_stations,
                num_aps=1,
                duration=spec.duration,
                seed=cell_seed(config.seed, spec.ap_index),
                frame_bytes=spec.frame_bytes,
                frames_per_second=spec.frames_per_second,
                latency_requirement=spec.latency_requirement,
                with_background=spec.with_background,
                background_intensity=spec.background_intensity,
            ).run(PROTOCOLS[config.protocol])
            assert got.goodput_bps == reference.measured_ap_goodput_bps
            assert got.collisions == reference.collisions
            assert got.channel_busy_fraction == reference.channel_busy_fraction


class TestDeterminism:
    def test_worker_count_invariance(self, cache):
        config = _fast_config()
        serial = simulate_deployment(config, n_workers=1, use_cache=False,
                                     cache=cache)
        parallel = simulate_deployment(config, n_workers=3, use_cache=False,
                                       cache=cache)
        assert serial.to_dict() == parallel.to_dict()

    def test_same_seed_same_result(self, cache):
        config = _fast_config()
        a = simulate_deployment(config, n_workers=1, use_cache=False, cache=cache)
        b = simulate_deployment(config, n_workers=1, use_cache=False, cache=cache)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self, cache):
        a = simulate_deployment(_fast_config(seed=1), n_workers=1,
                                use_cache=False, cache=cache)
        b = simulate_deployment(_fast_config(seed=2), n_workers=1,
                                use_cache=False, cache=cache)
        assert a.to_dict() != b.to_dict()

    def test_mobility_worker_count_invariance(self, cache):
        config = _fast_config(mobility=True, duration=0.6)
        serial = simulate_deployment(config, n_workers=1, use_cache=False,
                                     cache=cache)
        parallel = simulate_deployment(config, n_workers=2, use_cache=False,
                                       cache=cache)
        assert serial.to_dict() == parallel.to_dict()


class TestCache:
    def test_replay_hits_cache_and_matches(self, cache):
        config = _fast_config()
        cold = simulate_deployment(config, n_workers=1, cache=cache)
        warm = simulate_deployment(config, n_workers=1, cache=cache)
        assert cache.hits >= 1
        assert cold.to_dict() == warm.to_dict()

    def test_result_round_trips_through_json(self, cache):
        import json

        config = _fast_config(mobility=True)
        result = simulate_deployment(config, n_workers=1, use_cache=False,
                                     cache=cache)
        rebuilt = DeploymentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()
        assert isinstance(rebuilt.cells[0], CellResult)


class TestDeploymentBehaviour:
    def test_aggregates_are_consistent_with_cells(self, cache):
        result = simulate_deployment(_fast_config(), n_workers=1,
                                     use_cache=False, cache=cache)
        assert len(result.cells) == 4
        assert result.total_goodput_bps == pytest.approx(
            sum(c.goodput_bps for c in result.cells))
        assert result.busy_airtime_s == pytest.approx(
            sum(c.busy_airtime_s for c in result.cells))
        assert 0.0 < result.jain_fairness <= 1.0
        assert result.total_goodput_bps > 0.0

    def test_coupling_marks_cells_and_changes_outcomes(self, cache):
        coupled = simulate_deployment(_fast_config(coupling=True),
                                      n_workers=1, use_cache=False, cache=cache)
        isolated = simulate_deployment(_fast_config(coupling=False),
                                       n_workers=1, use_cache=False, cache=cache)
        assert coupled.n_coupled_cells > 0
        assert isolated.n_coupled_cells == 0
        assert sum(c.coupled for c in coupled.cells) == coupled.n_coupled_cells
        assert {c.coupled for c in isolated.cells} == {False}

    def test_empty_cells_report_zeroes(self, cache):
        result = simulate_deployment(
            _fast_config(stas_per_ap=0, with_background=False),
            n_workers=1, use_cache=False, cache=cache,
        )
        assert result.total_goodput_bps == 0.0
        assert all(c.n_stations == 0 for c in result.cells)

    def test_mobility_roams_and_still_delivers(self, cache):
        result = simulate_deployment(
            _fast_config(mobility=True, hysteresis_db=1.0, duration=1.0,
                         arena_width_m=25.0, arena_height_m=25.0),
            n_workers=1, use_cache=False, cache=cache,
        )
        assert result.total_goodput_bps > 0.0
        assert result.interruption_time_s >= 0.0
        assert result.n_roams >= 0

    def test_mixed_legacy_cells_use_mixed_protocol(self, cache):
        config = _fast_config(legacy_fraction=0.5, seed=9)
        specs, timeline, _plans = build_cell_specs(config)
        assert any(spec.carpool_stations is not None for spec in specs)
        carpool_total = sum(
            len(spec.carpool_stations or ()) for spec in specs
        )
        assert 0 < carpool_total < config.n_stas
        result = simulate_deployment(config, n_workers=1, use_cache=False,
                                     cache=cache)
        assert result.total_goodput_bps > 0.0

    def test_protocols_share_one_deployment_layout(self, cache):
        # Same seed, different protocol: the topology, membership, and
        # coupling plans are identical — only the MAC behaviour differs.
        a_specs, _, a_plans = build_cell_specs(_fast_config(protocol="802.11"))
        b_specs, _, b_plans = build_cell_specs(_fast_config(protocol="Carpool"))
        assert [s.n_stations for s in a_specs] == [s.n_stations for s in b_specs]
        assert [s.seed for s in a_specs] == [s.seed for s in b_specs]
        assert a_plans == b_plans


_WIRE_FLOAT = st.floats(min_value=0.0, max_value=1e9,
                        allow_nan=False, allow_infinity=False)
_WIRE_COUNT = st.integers(0, 10_000)

#: A synthetic per-cell wire dict covering every key `observe_cell` reads.
_CELL_WIRE = st.fixed_dictionaries({
    "goodput_bps": _WIRE_FLOAT,
    "useful_goodput_bps": _WIRE_FLOAT,
    "busy_airtime_s": st.floats(0.0, 100.0, allow_nan=False),
    "channel_busy_fraction": st.floats(0.0, 1.0, allow_nan=False),
    "collisions": _WIRE_COUNT,
    "transmissions": _WIRE_COUNT,
    "retransmitted_subframes": _WIRE_COUNT,
    "dropped_frames": _WIRE_COUNT,
    "coupled": st.booleans(),
    "delivered_bytes_by_sta": st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=3),
        st.integers(0, 10**9), max_size=4,
    ),
})


@st.composite
def _sharding_plan(draw):
    cells = draw(st.lists(_CELL_WIRE, min_size=1, max_size=10))
    order = draw(st.permutations(range(len(cells))))
    n_shards = draw(st.integers(1, len(cells)))
    track = draw(st.booleans())
    return cells, order, n_shards, track


def _finalized(agg):
    """Every externally visible number the aggregate finalises to."""
    return {
        "n_cells": agg.n_cells,
        "n_coupled_cells": agg.n_coupled_cells,
        "collisions": agg.collisions,
        "transmissions": agg.transmissions,
        "retransmitted_subframes": agg.retransmitted_subframes,
        "dropped_frames": agg.dropped_frames,
        "total_goodput_bps": agg.total_goodput_bps(),
        "total_useful_goodput_bps": agg.total_useful_goodput_bps(),
        "busy_airtime_s": agg.busy_airtime_s(),
        "jain_fairness": agg.jain_fairness(),
        "mean_cell_goodput": agg.cell_goodput.mean(),
        "stddev_cell_goodput": agg.cell_goodput.stddev(),
        "mean_busy_fraction": agg.busy_fraction.mean(),
        "goodput_hist": agg.goodput_hist.to_dict(),
        "busy_hist": agg.busy_hist.to_dict(),
    }


class TestAggregateAssociativity:
    """The streaming guarantee, stated directly on the accumulator: any
    partition of the cells into shards, folded in any order and merged in
    any grouping, finalises bit-identically to one sequential fold.
    """

    @settings(max_examples=40, deadline=None)
    @given(plan=_sharding_plan())
    def test_any_partition_and_order_matches_single_shot(self, plan):
        cells, order, n_shards, track = plan

        single = DeploymentAggregate(track_stations=track)
        for cell in cells:
            single.observe_cell(cell)

        # Fold a *permutation* of the cells, split into contiguous shards,
        # then merge the shard accumulators left to right.
        permuted = [cells[i] for i in order]
        size = -(-len(permuted) // n_shards)
        shards = []
        for start in range(0, len(permuted), size):
            shard = DeploymentAggregate(track_stations=track)
            for cell in permuted[start:start + size]:
                shard.observe_cell(cell)
            shards.append(shard)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)

        assert _finalized(merged) == _finalized(single)

    @settings(max_examples=15, deadline=None)
    @given(cells=st.lists(_CELL_WIRE, min_size=1, max_size=6),
           track=st.booleans())
    def test_pickle_round_trip_preserves_everything(self, cells, track):
        # The accumulator is the sharded path's IPC payload; the trip
        # through the pipe must be lossless.
        import pickle

        agg = DeploymentAggregate(track_stations=track)
        for cell in cells:
            agg.observe_cell(cell)
        rebuilt = pickle.loads(pickle.dumps(agg))
        assert _finalized(rebuilt) == _finalized(agg)
        assert rebuilt.track_stations == agg.track_stations

    def test_refuses_to_merge_mismatched_modes(self):
        with pytest.raises(ValueError):
            DeploymentAggregate(track_stations=True).merge(
                DeploymentAggregate(track_stations=False))

    def test_empty_aggregate_finalises_to_neutral_values(self):
        agg = DeploymentAggregate()
        assert agg.n_cells == 0
        assert agg.total_goodput_bps() == 0.0
        assert agg.jain_fairness() == 1.0
        assert agg.goodput_hist.total == 0


class TestShardedDeployment:
    def test_rejects_bad_shards(self, cache):
        with pytest.raises(ValueError):
            simulate_deployment(_fast_config(), n_workers=1, use_cache=False,
                                cache=cache, shards=0)

    def test_sharded_matches_unsharded_aggregates(self, cache):
        config = _fast_config()
        full = simulate_deployment(config, n_workers=1, use_cache=False,
                                   cache=cache)
        sharded = simulate_deployment(config, n_workers=2, use_cache=False,
                                      cache=cache, shards=2)
        assert sharded.cells == []
        assert sharded.n_cells == config.n_aps
        assert dict(sharded.to_dict(), cells=None) == \
            dict(full.to_dict(), cells=None)

    def test_sharded_and_unsharded_cache_separately(self, cache):
        # A sharded result has no per-cell breakdown; it must never
        # satisfy (or be satisfied by) the unsharded cache entry.
        config = _fast_config()
        full = simulate_deployment(config, n_workers=1, cache=cache)
        assert full.cells != []
        sharded = simulate_deployment(config, n_workers=1, cache=cache,
                                      shards=2)
        assert cache.hits == 0
        assert sharded.cells == []
        warm = simulate_deployment(config, n_workers=1, cache=cache, shards=2)
        assert cache.hits == 1
        assert warm.to_dict() == sharded.to_dict()

    def test_sharded_result_round_trips_through_json(self, cache):
        import json

        result = simulate_deployment(_fast_config(mobility=True), n_workers=1,
                                     use_cache=False, cache=cache, shards=3)
        rebuilt = DeploymentResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.cells == []

    @pytest.mark.parametrize("shards", [None, 3])
    def test_plan_is_built_once_in_the_parent(self, cache, monkeypatch,
                                              shards):
        import os

        from repro.net import deployment
        from repro.runtime import shutdown_pools

        parent = os.getpid()
        builds = []
        build = deployment._deployment_plan

        def parent_only(config):
            if os.getpid() != parent:
                raise AssertionError("a pool worker built the plan")
            builds.append(config)
            return build(config)

        monkeypatch.setattr(deployment, "_deployment_plan", parent_only)
        # Fresh workers fork after the patch, so they would run the
        # raising wrapper if they ever built the plan. The second
        # deployment runs on workers forked during the first, which
        # inherited no plan of it.
        shutdown_pools()
        try:
            for seed in (1, 2):
                result = simulate_deployment(
                    _fast_config(mobility=True, seed=seed), n_workers=2,
                    use_cache=False, cache=cache, shards=shards)
                assert result.n_cells == 4
        finally:
            shutdown_pools()
        assert [config.seed for config in builds] == [1, 2]

    def test_protocol_sweep_spawns_at_most_one_pool(self):
        from repro.analysis.deployment_sweep import deployment_protocol_sweep
        from repro.obs.trace import collecting

        with collecting() as registry:
            sweep = deployment_protocol_sweep(_fast_config(mobility=True),
                                              n_workers=2, use_cache=False)
        assert len(sweep) == 3
        assert all(len(result.cells) == 4 for result in sweep.values())
        assert registry.counter("runtime.pool_spawned").value <= 1

    def test_aggregate_fields_consistent_with_cells(self, cache):
        # The new deployment-level statistics must agree with the
        # retained per-cell breakdown on the unsharded path.
        result = simulate_deployment(_fast_config(), n_workers=1,
                                     use_cache=False, cache=cache)
        goodputs = [c.goodput_bps for c in result.cells]
        assert result.n_cells == len(result.cells)
        assert result.mean_cell_goodput_bps == pytest.approx(
            sum(goodputs) / len(goodputs))
        assert result.mean_cell_busy_fraction == pytest.approx(
            sum(c.channel_busy_fraction for c in result.cells)
            / len(result.cells))
        assert sum(result.goodput_histogram["counts"]) == result.n_cells
        assert sum(result.busy_fraction_histogram["counts"]) == result.n_cells


@pytest.mark.slow
def test_large_grid_deployment(tmp_path):
    """A 9-AP hotspot floor: parallel fan-out, coupling, full aggregation."""
    config = DeploymentConfig(
        n_aps=9, stas_per_ap=4, duration=1.0, seed=7, channels=1,
        protocol="Carpool",
    )
    cache = ResultCache(directory=str(tmp_path), namespace="deployment")
    serial = simulate_deployment(config, n_workers=1, use_cache=False,
                                 cache=cache)
    parallel = simulate_deployment(config, n_workers=4, use_cache=False,
                                   cache=cache)
    assert serial.to_dict() == parallel.to_dict()
    assert len(serial.cells) == 9
    assert serial.n_coupled_cells > 0
    assert serial.total_goodput_bps > 0.0
