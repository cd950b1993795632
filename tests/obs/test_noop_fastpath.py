"""Observability must be invisible when off — and inert when on.

Two guarantees, per the acceptance criteria:

* Disabled (the default) costs nothing measurable: the ambient
  accessors hand out shared no-op singletons and a hot loop of
  instrument calls stays within a generous per-call bound.
* Enabled instrumentation never perturbs physics: running the same
  PHY / MAC / deployment workload with a recorder and live metrics
  registry installed yields bit-identical results to a plain run,
  including under worker pools and fault plans.
"""

import time

import numpy as np
import pytest

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import ObsSession, active_recorder, metrics


def _assert_obs_disabled():
    assert active_recorder() is None
    assert metrics() is NULL_REGISTRY


class TestDisabledFastPath:
    def test_disabled_is_the_default(self):
        _assert_obs_disabled()

    def test_noop_instrument_calls_are_cheap(self):
        """~200k disabled-path calls; generous bound so CI noise can't
        flake it, tight enough to catch an accidental allocation per call."""
        n = 200_000
        counter = metrics().counter  # what instrumented call-sites do
        start = time.perf_counter()
        for _ in range(n):
            counter("phy.crc_checks").inc()
        elapsed = time.perf_counter() - start
        assert elapsed / n < 10e-6, f"{elapsed / n * 1e6:.2f}us per no-op call"


def _traced(tmp_path, fn):
    """Run ``fn`` with a recorder + metrics registry installed, asserting
    instrumentation actually fired (otherwise the test proves nothing)."""
    with ObsSession(trace_path=tmp_path / "run.jsonl", metrics_on=True) as session:
        result = fn()
    assert len(session.recorder) > 0
    return result


class TestBitExactness:
    def test_phy_symbol_ber(self, tmp_path):
        from repro.analysis.phy_experiments import ber_by_symbol_index

        def run():
            return ber_by_symbol_index(payload_bytes=500, trials=3,
                                       use_rte=True, n_workers=1)

        plain, traced = run(), _traced(tmp_path, run)
        np.testing.assert_array_equal(plain.ber_per_symbol,
                                      traced.ber_per_symbol)
        assert plain.mean_ber == traced.mean_ber
        assert plain.crc_pass_rate == traced.crc_pass_rate
        assert plain.side_bit_error_rate == traced.side_bit_error_rate

    def test_phy_symbol_ber_worker_pool(self, tmp_path):
        from repro.analysis.phy_experiments import ber_by_symbol_index

        plain = ber_by_symbol_index(payload_bytes=500, trials=4, n_workers=1)
        traced = _traced(
            tmp_path,
            lambda: ber_by_symbol_index(payload_bytes=500, trials=4,
                                        n_workers=2),
        )
        np.testing.assert_array_equal(plain.ber_per_symbol,
                                      traced.ber_per_symbol)
        assert plain.mean_ber == traced.mean_ber

    def test_mac_degradation_under_faults(self, tmp_path):
        from repro.analysis.degradation import degradation_sweep

        def run():
            return degradation_sweep(ack_loss_rates=[0.1], bursty=True,
                                     num_stations=3, duration=1.0,
                                     trials=2, n_workers=2)

        plain, traced = run(), _traced(tmp_path, run)
        assert plain.keys() == traced.keys()
        for protocol in plain:
            assert plain[protocol] == traced[protocol], protocol

    def test_deployment(self, tmp_path):
        from repro.net.deployment import DeploymentConfig, simulate_deployment

        config = DeploymentConfig(n_aps=2, stas_per_ap=2, duration=1.0,
                                  with_background=False)

        def run():
            return simulate_deployment(config, n_workers=1, use_cache=False)

        plain, traced = run(), _traced(tmp_path, run)
        assert plain.to_dict() == traced.to_dict()

    def test_trace_sampling_does_not_perturb(self, tmp_path):
        """Per-symbol sampling emits extra events; physics must not move."""
        from repro.analysis.phy_experiments import ber_by_symbol_index

        def run():
            return ber_by_symbol_index(payload_bytes=500, trials=2,
                                       n_workers=1)

        plain = run()
        with ObsSession(trace_path=tmp_path / "s.jsonl", sample_every=1) as s:
            sampled = run()
        assert len(s.recorder) > 0
        np.testing.assert_array_equal(plain.ber_per_symbol,
                                      sampled.ber_per_symbol)

    @pytest.fixture(autouse=True)
    def _check_restored(self):
        yield
        _assert_obs_disabled()
