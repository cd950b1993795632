"""The parallel trial runner must be deterministic for any worker count."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.runtime import (
    autotune_chunk_size,
    persistent_pool,
    resolve_workers,
    run_trials,
    shutdown_pools,
    trial_rngs,
    trials,
)


def _toy_trial(trial_index, rng, offset):
    # Top-level so it pickles into pool workers.
    return (trial_index, offset + float(rng.random()))


def _worker_pid(trial_index, rng):
    return os.getpid()


def _lookup_trial(trial_index, rng, payload, scale):
    return float(payload["table"][trial_index]) * scale + payload["scalar"]


def _item_trial(trial_index, rng, item):
    return (item, os.getpid())


def _draw_trial(trial_index, rng, scale):
    return round(float(rng.random()) * scale, 9)


def _draw_batch(start, rngs, scale):
    # Same per-RNG draws as _draw_trial, executed for a whole chunk.
    return [round(float(rng.random()) * scale, 9) for rng in rngs]


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_beats_autodetect(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_autodetect_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestRunTrials:
    def test_serial_equals_parallel(self):
        serial = run_trials(_toy_trial, 17, seed=123, n_workers=1, args=(5.0,))
        parallel = run_trials(_toy_trial, 17, seed=123, n_workers=4, args=(5.0,))
        assert serial == parallel

    def test_chunk_size_does_not_change_results(self):
        baseline = run_trials(_toy_trial, 11, seed=9, n_workers=1, args=(0.0,))
        for chunk_size in (1, 2, 5, 11):
            chunked = run_trials(_toy_trial, 11, seed=9, n_workers=3,
                                 chunk_size=chunk_size, args=(0.0,))
            assert chunked == baseline

    def test_results_are_ordered(self):
        results = run_trials(_toy_trial, 9, seed=0, n_workers=3, args=(0.0,))
        assert [index for index, _ in results] == list(range(9))

    def test_zero_trials(self):
        assert run_trials(_toy_trial, 0, seed=0, n_workers=2, args=(0.0,)) == []

    def test_trial_rngs_match_runner(self):
        rngs = trial_rngs(42, 5)
        expected = [float(rng.random()) for rng in rngs]
        observed = [v for _, v in run_trials(_toy_trial, 5, seed=42,
                                             n_workers=1, args=(0.0,))]
        assert observed == expected


class TestPersistentPools:
    def test_pool_is_reused_across_calls(self):
        shutdown_pools()
        first = set(run_trials(_worker_pid, 6, seed=0, n_workers=2))
        second = set(run_trials(_worker_pid, 6, seed=1, n_workers=2))
        # The same worker processes serve both calls (start-up paid once);
        # scheduling may skew chunks, so require overlap, not equality.
        assert first & second
        shutdown_pools()

    def test_shutdown_pools_spawns_fresh_workers(self):
        shutdown_pools()
        first = set(run_trials(_worker_pid, 4, seed=0, n_workers=2))
        shutdown_pools()
        second = set(run_trials(_worker_pid, 4, seed=0, n_workers=2))
        assert first.isdisjoint(second)
        shutdown_pools()

    def test_persistent_pool_identity(self):
        shutdown_pools()
        assert persistent_pool(2) is persistent_pool(2)
        shutdown_pools()

    def test_results_identical_with_and_without_reuse(self):
        shutdown_pools()
        fresh = run_trials(_toy_trial, 13, seed=3, n_workers=2, args=(1.0,))
        reused = run_trials(_toy_trial, 13, seed=3, n_workers=2, args=(1.0,))
        assert reused == fresh
        shutdown_pools()

    def test_spawn_workers_match_serial(self, monkeypatch):
        # Without fork every chunk's arguments are pickled, arrays included.
        shutdown_pools()
        monkeypatch.setattr(
            trials, "_mp_context",
            lambda: multiprocessing.get_context("spawn"))
        payload = {"table": np.linspace(0.0, 1.0, 2048), "scalar": 7}
        try:
            parallel = run_trials(_lookup_trial, 4, seed=9, n_workers=2,
                                  args=(payload, 1.5))
        finally:
            shutdown_pools()
        serial = run_trials(_lookup_trial, 4, seed=9, n_workers=1,
                            args=(payload, 1.5))
        assert parallel == serial

    def test_one_pool_per_worker_count(self):
        from repro.obs.trace import collecting

        shutdown_pools()
        try:
            with collecting() as registry:
                first = persistent_pool(2)
                for seed in range(3):
                    run_trials(_toy_trial, 6, seed=seed, n_workers=2,
                               args=(float(seed),))
                assert persistent_pool(2) is first
                assert persistent_pool(3) is not first
                # Fewer chunks than workers still reuse the worker
                # count's pool rather than sizing a new one to the chunks.
                run_trials(_toy_trial, 3, seed=0, n_workers=3, chunk_size=3,
                           args=(0.0,))
            assert registry.counter("runtime.pool_spawned").value == 2
        finally:
            shutdown_pools()


class TestTrialSource:
    def test_closure_source_works_at_two_workers(self):
        # A closure cannot pickle; the items it builds can.
        prefix = "cell"
        source = lambda start, stop: [f"{prefix}{i}"  # noqa: E731
                                      for i in range(start, stop)]
        got = run_trials(_item_trial, 7, seed=0, n_workers=2, chunk_size=2,
                         trial_source=source)
        assert [item for item, _ in got] == [f"cell{i}" for i in range(7)]
        assert {pid for _, pid in got} != {os.getpid()}

    def test_source_is_called_in_the_parent(self):
        calls = []

        def source(start, stop):
            calls.append((start, stop, os.getpid()))
            return list(range(start, stop))

        run_trials(_item_trial, 7, seed=0, n_workers=2, chunk_size=3,
                   trial_source=source)
        assert calls == [(0, 3, os.getpid()), (3, 6, os.getpid()),
                         (6, 7, os.getpid())]


class TestBatchFn:
    def test_batch_path_matches_scalar(self):
        shutdown_pools()
        scalar = run_trials(_draw_trial, 14, seed=8, n_workers=1, args=(2.0,))
        for kwargs in ({"n_workers": 1}, {"n_workers": 2},
                       {"n_workers": 4, "chunk_size": 3}):
            batched = run_trials(_draw_trial, 14, seed=8, args=(2.0,),
                                 batch_fn=_draw_batch, **kwargs)
            assert batched == scalar, kwargs
        shutdown_pools()

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(RuntimeError, match="batch"):
            run_trials(_draw_trial, 5, seed=0, n_workers=1, args=(1.0,),
                       batch_fn=lambda start, rngs, scale: [0.0])


class TestAutotune:
    def test_bounds_and_serial_shortcut(self):
        assert autotune_chunk_size(_toy_trial, 1, seed=0, n_workers=4,
                                   args=(0.0,)) == 1
        assert autotune_chunk_size(_toy_trial, 40, seed=0, n_workers=1,
                                   args=(0.0,)) == 40
        size = autotune_chunk_size(_toy_trial, 40, seed=0, n_workers=4,
                                   args=(0.0,))
        assert 1 <= size <= 10  # ceil(40/4): at least one chunk per worker

    def test_auto_chunking_does_not_change_results(self):
        baseline = run_trials(_toy_trial, 11, seed=9, n_workers=1, args=(0.0,))
        auto = run_trials(_toy_trial, 11, seed=9, n_workers=3,
                          chunk_size="auto", args=(0.0,))
        assert auto == baseline


class TestExperimentDeterminism:
    def test_ber_by_symbol_index_serial_equals_parallel(self):
        from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index

        link = LinkConfig(seed=5)
        serial = ber_by_symbol_index("QPSK-1/2", 400, trials=4, link=link,
                                     n_workers=1)
        parallel = ber_by_symbol_index("QPSK-1/2", 400, trials=4, link=link,
                                       n_workers=3)
        assert np.array_equal(serial.ber_per_symbol, parallel.ber_per_symbol)
        assert serial.crc_pass_rate == parallel.crc_pass_rate
        assert serial.side_bit_error_rate == parallel.side_bit_error_rate


def _emitting_trial(trial_index, rng, scale):
    # Emits through the ambient recorder so trace determinism can be
    # asserted across worker counts.
    from repro.obs.trace import active_recorder

    value = round(float(rng.random()) * scale, 9)
    rec = active_recorder()
    if rec is not None:
        rec.emit("test", "trial_done", value=value)
    return (trial_index, value)


def _silent_batch(start, rngs, scale):
    # Correct values but no events: using it under tracing would lose
    # the per-trial emissions (and the test would catch it).
    return [(start + t, round(float(rng.random()) * scale, 9))
            for t, rng in enumerate(rngs)]


class TestTraceDeterminism:
    """Correlation ids derive from the run seed and the trial's spawn
    position — never ``id()`` or the clock — so an instrumented run
    produces the exact same trace at any worker count or chunking."""

    @pytest.fixture(autouse=True)
    def _pristine_obs(self):
        from repro.obs.trace import disable_metrics, set_recorder

        set_recorder(None)
        disable_metrics()
        yield
        set_recorder(None)
        disable_metrics()

    def _traced_run(self, **kwargs):
        import json

        from repro.obs.trace import TraceRecorder, set_recorder

        recorder = TraceRecorder(None, deterministic=True)
        set_recorder(recorder)
        try:
            results = run_trials(_emitting_trial, 8, seed=5, args=(2.0,),
                                 **kwargs)
        finally:
            set_recorder(None)
        return results, json.dumps(recorder.events, sort_keys=True)

    def test_trace_byte_identical_across_worker_counts(self):
        shutdown_pools()
        serial_results, serial_trace = self._traced_run(n_workers=1)
        for kwargs in ({"n_workers": 3}, {"n_workers": 2, "chunk_size": 3},
                       {"n_workers": 3, "chunk_size": 1}):
            results, trace = self._traced_run(**kwargs)
            assert results == serial_results, kwargs
            assert trace == serial_trace, kwargs
        shutdown_pools()

    def test_traced_runs_bypass_the_batch_path(self):
        # A batch executor skips per-trial instrumentation, so a traced
        # run must fall back to the scalar oracle — same results, same
        # trace bytes as an untraced-equivalent scalar run, any workers.
        shutdown_pools()
        _, serial_trace = self._traced_run(n_workers=1)
        for n_workers in (1, 3):
            results, trace = self._traced_run(n_workers=n_workers,
                                              batch_fn=_silent_batch)
            assert trace == serial_trace
            assert results == [(i, v) for i, (_, v) in enumerate(results)]
        shutdown_pools()

    def test_cids_derive_from_seed_and_position(self):
        from repro.obs.trace import trial_correlation_id

        _, trace = self._traced_run(n_workers=1)
        import json

        events = json.loads(trace)
        assert [e["cid"] for e in events] == [
            trial_correlation_id(5, i) for i in range(8)
        ]
        # A different run seed yields different ids for the same slots.
        assert trial_correlation_id(6, 0) != trial_correlation_id(5, 0)
