"""Bit-identity at any worker count, with and without tracing.

The contract the zero-copy/batched execution layer must keep: every
experiment entry point — PHY Monte-Carlo and deployments —
returns the exact same numbers at 1, 2, or 4 workers, and an instrumented
run produces byte-identical traces while matching the plain run's
results.
"""

import json

import numpy as np
import pytest

from repro.obs.trace import TraceRecorder, disable_metrics, set_recorder
from repro.runtime.trials import shutdown_pools

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _fresh_pools():
    shutdown_pools()
    set_recorder(None)
    disable_metrics()
    yield
    shutdown_pools()
    set_recorder(None)
    disable_metrics()


def _traced(fn):
    recorder = TraceRecorder(None, deterministic=True)
    set_recorder(recorder)
    try:
        result = fn()
    finally:
        set_recorder(None)
    return result, json.dumps(recorder.events, sort_keys=True)


class TestPhyMonteCarlo:
    def _run(self, n_workers, **kwargs):
        from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index

        return ber_by_symbol_index("QPSK-1/2", 400, trials=12,
                                   link=LinkConfig(seed=11),
                                   n_workers=n_workers, **kwargs)

    def test_identical_across_worker_counts(self):
        # One worker decodes one stack of 12 trials; two and four workers
        # get chunks of 2 and 1 trials, so each decodes smaller stacks.
        serial = self._run(1)
        for w in WORKER_COUNTS[1:]:
            result = self._run(w)
            assert np.array_equal(serial.ber_per_symbol,
                                  result.ber_per_symbol), w
            assert serial.crc_pass_rate == result.crc_pass_rate, w
            assert serial.side_bit_error_rate == result.side_bit_error_rate, w

    def test_traced_runs_match_plain_at_any_worker_count(self):
        plain = self._run(1)
        reference_trace = None
        for w in (1, 2):
            result, trace = _traced(lambda: self._run(w))
            assert np.array_equal(plain.ber_per_symbol, result.ber_per_symbol)
            if reference_trace is None:
                reference_trace = trace
            assert trace == reference_trace, w


class TestDeployment:
    def _config(self):
        from repro.net.deployment import DeploymentConfig

        return DeploymentConfig(n_aps=4, stas_per_ap=2, duration=0.3,
                                seed=17, channels=1)

    def _run(self, n_workers):
        from repro.net.deployment import simulate_deployment

        return simulate_deployment(self._config(), n_workers=n_workers,
                                   use_cache=False)

    def test_identical_across_worker_counts(self):
        serial = self._run(1)
        for w in WORKER_COUNTS:
            assert self._run(w).to_dict() == serial.to_dict(), w

    def test_traced_runs_match_plain_at_any_worker_count(self):
        plain = self._run(1)
        reference_trace = None
        for w in (1, 2):
            result, trace = _traced(lambda: self._run(w))
            assert result.to_dict() == plain.to_dict(), w
            if reference_trace is None:
                reference_trace = trace
            assert trace == reference_trace, w

    def _run_sharded(self, n_workers, shards):
        from repro.net.deployment import simulate_deployment

        return simulate_deployment(self._config(), n_workers=n_workers,
                                   use_cache=False, shards=shards)

    def test_sharded_identical_to_unsharded_at_any_worker_count(self):
        # The streaming contract: worker-side reduction changes what
        # crosses the pipe, never the deployment-level numbers. Only the
        # per-cell breakdown (cells) is traded away.
        serial = self._run(1)
        expected = dict(serial.to_dict(), cells=None)
        for w in WORKER_COUNTS:
            for shards in (1, 2, 4):
                result = self._run_sharded(w, shards)
                assert result.cells == [], (w, shards)
                got = dict(result.to_dict(), cells=None)
                assert got == expected, (w, shards)

    def test_sharded_traced_runs_match_unsharded_trace(self):
        # Tracing bypasses worker-side reduction (per-cell results cross
        # the pipe so every cell event is captured); the trace must be
        # byte-identical to the unsharded run's, and the aggregate
        # numbers must still match the plain run.
        plain = self._run(1)
        expected = dict(plain.to_dict(), cells=None)
        _, reference_trace = _traced(lambda: self._run(1))
        for w in (1, 2):
            result, trace = _traced(lambda: self._run_sharded(w, 2))
            assert dict(result.to_dict(), cells=None) == expected, w
            assert trace == reference_trace, w
