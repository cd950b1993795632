"""Worker-side reduction: exact associativity and the run_trials contract."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    TraceRecorder,
    disable_metrics,
    enable_metrics,
    set_recorder,
)
from repro.runtime import (
    ExactSum,
    MergeableHistogram,
    StreamMoments,
    run_trials,
    shutdown_pools,
)

# Floats that stress rounding: huge/tiny magnitudes, cancellation.
_NASTY_FLOATS = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e18, max_value=1e18
)


@pytest.fixture(autouse=True)
def _pristine_runtime():
    shutdown_pools()
    set_recorder(None)
    disable_metrics()
    yield
    shutdown_pools()
    set_recorder(None)
    disable_metrics()


class TestExactSum:
    def test_matches_fsum(self):
        values = [1e16, 1.0, -1e16, 0.5, 1e-8, -0.25]
        acc = ExactSum(values)
        assert acc.value() == math.fsum(values)

    def test_plain_sum_would_differ(self):
        # The canonical case exact summation exists for.
        values = [1e16, 1.0, -1e16]
        assert sum(values) != math.fsum(values)
        assert ExactSum(values).value() == 1.0

    def test_rejects_non_finite(self):
        acc = ExactSum()
        with pytest.raises(ValueError):
            acc.add(float("nan"))
        with pytest.raises(ValueError):
            acc.add(float("inf"))

    def test_round_trip(self):
        acc = ExactSum([1e16, 1.0, -1e16])
        clone = ExactSum.from_dict(acc.to_dict())
        assert clone.value() == acc.value()

    @given(st.lists(_NASTY_FLOATS, max_size=40), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_any_partition_any_order_is_bit_identical(self, values, rng):
        single = ExactSum(values)
        shuffled = list(values)
        rng.shuffle(shuffled)
        # Random partition into accumulators, merged in shuffled order.
        parts = []
        i = 0
        while i < len(shuffled):
            width = rng.randint(1, len(shuffled) - i)
            parts.append(ExactSum(shuffled[i:i + width]))
            i += width
        rng.shuffle(parts)
        merged = ExactSum()
        for part in parts:
            merged.merge(part)
        assert merged.value() == single.value()


class TestStreamMoments:
    def test_mean_and_variance(self):
        m = StreamMoments()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            m.observe(v)
        assert m.n == 8
        assert m.mean() == 5.0
        assert m.variance() == 4.0
        assert m.stddev() == 2.0

    def test_empty(self):
        m = StreamMoments()
        assert (m.n, m.mean(), m.variance()) == (0, 0.0, 0.0)

    def test_round_trip(self):
        m = StreamMoments()
        for v in (1.5, -2.25, 1e12):
            m.observe(v)
        clone = StreamMoments.from_dict(m.to_dict())
        assert (clone.n, clone.mean(), clone.variance()) == (
            m.n, m.mean(), m.variance())

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6), max_size=30),
           st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_merge_order_independent(self, values, rng):
        single = StreamMoments()
        for v in values:
            single.observe(v)
        shuffled = list(values)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        a, b = StreamMoments(), StreamMoments()
        for v in shuffled[:half]:
            a.observe(v)
        for v in shuffled[half:]:
            b.observe(v)
        b.merge(a)
        assert b.n == single.n
        assert b.mean() == single.mean()
        assert b.variance() == single.variance()


class TestMergeableHistogram:
    def test_bucketing(self):
        h = MergeableHistogram([1.0, 2.0, 4.0])
        for v in (0.5, 1.0, 1.9, 3.0, 4.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 2]
        assert h.total == 6

    def test_merge_requires_equal_edges(self):
        with pytest.raises(ValueError):
            MergeableHistogram([1.0]).merge(MergeableHistogram([2.0]))

    def test_merge_equals_single_shot(self):
        edges = [0.0, 10.0, 20.0]
        values = [random.Random(7).uniform(-5, 30) for _ in range(50)]
        single = MergeableHistogram(edges)
        for v in values:
            single.observe(v)
        a, b = MergeableHistogram(edges), MergeableHistogram(edges)
        for v in values[:20]:
            a.observe(v)
        for v in values[20:]:
            b.observe(v)
        assert a.merge(b).counts == single.counts

    def test_round_trip(self):
        h = MergeableHistogram([1.0, 2.0])
        h.observe(1.5)
        assert MergeableHistogram.from_dict(h.to_dict()).counts == h.counts

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            MergeableHistogram([])
        with pytest.raises(ValueError):
            MergeableHistogram([2.0, 1.0])


# --------------------------------------------------------------------------- #
# run_trials(reduce_fn=...) — module-level so everything pickles.
# --------------------------------------------------------------------------- #


def _draw(trial_index, rng, scale):
    return float(rng.random()) * scale


def _draw_item(trial_index, rng, item, scale):
    return (item, float(rng.random()) * scale)


def _span_items(start, stop):
    # Lazy trial source: items derive from the requested span alone.
    return [f"cell{i}" for i in range(start, stop)]


def _fold_sum(acc, trial_index, result):
    acc.add(result)
    return acc


def _fold_tagged(acc, trial_index, result):
    acc.add(result[1])
    return acc


def _draw_batch(start, rngs, scale):
    return [float(rng.random()) * scale for rng in rngs]


def _wide_trial(trial_index, rng, scale):
    # A realistically wide per-trial record (what a deployment cell
    # ships): reduction exists to keep payloads like this off the pipe.
    return {f"metric_{k}": float(rng.random()) * scale for k in range(24)}


def _fold_wide(acc, trial_index, result):
    acc.add(result["metric_0"])
    return acc


class TestRunTrialsReduce:
    def _oracle(self, n=16, scale=3.0, seed=11):
        results = run_trials(_draw, n, seed=seed, n_workers=1, args=(scale,))
        oracle = ExactSum(results)
        return results, oracle.value()

    def test_reduced_matches_scalar_oracle_any_workers(self):
        _, expected = self._oracle()
        for kwargs in ({"n_workers": 1}, {"n_workers": 2},
                       {"n_workers": 4, "chunk_size": 3},
                       {"n_workers": 2, "chunk_size": 1}):
            acc = run_trials(_draw, 16, seed=11, args=(3.0,),
                             reduce_fn=_fold_sum, reduce_init=ExactSum,
                             **kwargs)
            assert isinstance(acc, ExactSum)
            assert acc.value() == expected, kwargs

    def test_trial_source_generates_items_per_chunk(self):
        expected = run_trials(_draw_item, 10, seed=3, n_workers=1,
                              args=(2.0,), trial_source=_span_items)
        assert [item for item, _ in expected] == [f"cell{i}" for i in range(10)]
        for n_workers in (2, 4):
            got = run_trials(_draw_item, 10, seed=3, n_workers=n_workers,
                             chunk_size=3, args=(2.0,),
                             trial_source=_span_items)
            assert got == expected

    def test_trial_source_with_reduction(self):
        plain = run_trials(_draw_item, 12, seed=5, n_workers=1, args=(1.0,),
                           trial_source=_span_items)
        expected = ExactSum(v for _, v in plain).value()
        acc = run_trials(_draw_item, 12, seed=5, n_workers=3, chunk_size=4,
                         args=(1.0,), trial_source=_span_items,
                         reduce_fn=_fold_tagged, reduce_init=ExactSum)
        assert acc.value() == expected

    def test_batch_fn_with_reduction(self):
        _, expected = self._oracle()
        acc = run_trials(_draw, 16, seed=11, n_workers=2, chunk_size=4,
                         args=(3.0,), batch_fn=_draw_batch,
                         reduce_fn=_fold_sum, reduce_init=ExactSum)
        assert acc.value() == expected

    def test_zero_trials_returns_fresh_accumulator(self):
        acc = run_trials(_draw, 0, seed=0, n_workers=2, args=(1.0,),
                         reduce_fn=_fold_sum, reduce_init=ExactSum)
        assert isinstance(acc, ExactSum)
        assert acc.value() == 0.0

    def test_reduce_requires_init(self):
        with pytest.raises(ValueError, match="reduce_init"):
            run_trials(_draw, 4, seed=0, n_workers=1, args=(1.0,),
                       reduce_fn=_fold_sum)

    def test_init_without_reduce_rejected(self):
        with pytest.raises(ValueError, match="reduce_fn"):
            run_trials(_draw, 4, seed=0, n_workers=1, args=(1.0,),
                       reduce_init=ExactSum)

    def test_traced_runs_fold_in_the_worker_same_result(self):
        # A traced chunk folds its results where it runs, as an untraced
        # one does; the fold emits no events, so only the accumulator
        # crosses the pipe. The final accumulator must not change.
        _, expected = self._oracle()
        recorder = TraceRecorder(None, deterministic=True)
        set_recorder(recorder)
        try:
            acc = run_trials(_draw, 16, seed=11, n_workers=2, chunk_size=4,
                             args=(3.0,), reduce_fn=_fold_sum,
                             reduce_init=ExactSum)
        finally:
            set_recorder(None)
        assert acc.value() == expected

    def test_ipc_bytes_counted_and_smaller_when_reduced(self):
        registry = enable_metrics()
        run_trials(_wide_trial, 64, seed=2, n_workers=2, chunk_size=8,
                   args=(1.0,))
        plain_bytes = registry.counter("runtime.ipc_result_bytes").value
        disable_metrics()
        shutdown_pools()

        registry = enable_metrics()
        run_trials(_wide_trial, 64, seed=2, n_workers=2, chunk_size=8,
                   args=(1.0,), reduce_fn=_fold_wide, reduce_init=ExactSum)
        reduced_bytes = registry.counter("runtime.ipc_result_bytes").value
        disable_metrics()

        assert plain_bytes > 0
        assert 0 < reduced_bytes < plain_bytes / 5
