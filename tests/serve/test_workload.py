"""Epoch workload streams: deterministic, random-access, and lazy.

The soak service never materialises a whole-run arrival list. These tests
pin the properties that make that safe: epoch seeds are a pure function
of (root seed, epoch index) reachable without iterating, epoch specs are
bit-stable across processes, and the lazy per-station CBR generators
mirror the eager :func:`repro.traffic.cbr_downlink_arrivals` draw for
draw.
"""

import dataclasses
import itertools

import pytest

from repro.serve.workload import (
    TRAFFIC_MODES,
    SoakWorkload,
    deployment_config,
    epoch_seed,
    epoch_spec,
    iter_epoch_arrivals,
    iter_epochs,
)
from repro.traffic import cbr_downlink_arrivals
from repro.util.rng import RngStream

_SMALL = SoakWorkload(seed=7, n_aps=3, max_stas_per_ap=6,
                      target_active_stas=2.5, epoch_duration=0.5)


class TestEpochSeeds:
    def test_deterministic(self):
        assert epoch_seed(42, 17) == epoch_seed(42, 17)

    def test_distinct_across_epochs(self):
        seeds = {epoch_seed(42, i) for i in range(200)}
        assert len(seeds) == 200

    def test_distinct_across_roots(self):
        assert epoch_seed(1, 5) != epoch_seed(2, 5)

    def test_random_access_equals_iteration(self):
        # Jumping straight to epoch k (what --resume does) must mint the
        # same seed as walking there from epoch 0.
        walked = [spec.seed for spec in
                  itertools.islice(iter_epochs(_SMALL), 8)]
        jumped = [epoch_spec(_SMALL, i).seed for i in range(8)]
        assert walked == jumped


class TestEpochSpecs:
    def test_spec_is_deterministic(self):
        assert epoch_spec(_SMALL, 3) == epoch_spec(_SMALL, 3)

    def test_population_within_bounds(self):
        for i in range(30):
            spec = epoch_spec(_SMALL, i)
            assert 1 <= spec.stas_per_ap <= _SMALL.max_stas_per_ap

    def test_population_varies_with_churn(self):
        sizes = {epoch_spec(_SMALL, i).stas_per_ap for i in range(40)}
        assert len(sizes) > 1

    def test_iter_epochs_start_offset(self):
        from_three = next(iter(iter_epochs(_SMALL, start=3)))
        assert from_three == epoch_spec(_SMALL, 3)

    @pytest.mark.parametrize("traffic", TRAFFIC_MODES)
    def test_traffic_modes_mint_specs(self, traffic):
        workload = dataclasses.replace(_SMALL, traffic=traffic)
        spec = epoch_spec(workload, 0)
        assert spec.frame_bytes >= 40
        assert spec.frames_per_second > 0

    def test_invalid_traffic_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_SMALL, traffic="bursty")

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_SMALL, target_active_stas=99.0)


class TestLazyArrivals:
    def test_is_a_lazy_iterator(self):
        stream = iter_epoch_arrivals(_SMALL, epoch_spec(_SMALL, 0))
        assert iter(stream) is stream
        assert not isinstance(stream, (list, tuple))

    def test_time_sorted(self):
        times = [a.time for a in
                 iter_epoch_arrivals(_SMALL, epoch_spec(_SMALL, 1))]
        assert times == sorted(times)
        assert all(0.0 <= t for t in times)

    def test_deterministic_replay(self):
        spec = epoch_spec(_SMALL, 2)
        first = list(iter_epoch_arrivals(_SMALL, spec))
        second = list(iter_epoch_arrivals(_SMALL, spec))
        assert first == second

    def test_mirrors_eager_cbr_generator(self):
        # The preview is the one CBR generator under the cell's
        # ``preview-cell{k}`` stream: same child-stream names, same
        # uniform sequence, equal timestamps in station order.
        spec = epoch_spec(_SMALL, 4)
        lazy = list(iter_epoch_arrivals(_SMALL, spec, cell_index=2))
        names = [f"sta{i}" for i in range(spec.stas_per_ap)]
        eager = cbr_downlink_arrivals(
            names, spec.duration, spec.frame_bytes,
            spec.frames_per_second,
            RngStream(spec.seed).child("preview-cell2"),
        )
        assert lazy == eager

    def test_cells_draw_independent_streams(self):
        spec = epoch_spec(_SMALL, 0)
        cell0 = list(iter_epoch_arrivals(_SMALL, spec, cell_index=0))
        cell1 = list(iter_epoch_arrivals(_SMALL, spec, cell_index=1))
        assert cell0 != cell1


class TestDeploymentConfig:
    def test_config_carries_epoch_identity(self):
        spec = epoch_spec(_SMALL, 5)
        config = deployment_config(_SMALL, spec)
        assert config.seed == spec.seed
        assert config.stas_per_ap == spec.stas_per_ap
        assert config.duration == spec.duration
        assert config.n_aps == _SMALL.n_aps
        assert config.protocol == _SMALL.protocol

    def test_extra_faults_attached(self):
        from repro.serve.scheduler import rolling_fault_plan

        plan = rolling_fault_plan("mixed", 0, _SMALL.epoch_duration)
        spec = epoch_spec(_SMALL, 0)
        config = deployment_config(_SMALL, spec, extra_faults=plan)
        assert config.extra_faults is plan
        assert deployment_config(_SMALL, spec).extra_faults is None
