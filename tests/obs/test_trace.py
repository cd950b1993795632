"""TraceRecorder, ambient state, worker capture, and ObsSession."""

import json

import pytest

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import (
    ObsChunk,
    ObsSession,
    TraceRecorder,
    active_recorder,
    chunk_capture,
    collecting,
    disable_metrics,
    enable_metrics,
    ingest_chunk,
    metrics,
    metrics_enabled,
    set_recorder,
    suspended,
    trial_correlation_id,
    worker_spec,
)


class TestRecorder:
    def test_emit_sequences_and_fields(self):
        rec = TraceRecorder(None, deterministic=True)
        rec.emit("mac", "demote", node="sta1")
        rec.emit("mac", "repromote", node="sta1")
        assert [e["seq"] for e in rec.events] == [0, 1]
        assert rec.events[0]["layer"] == "mac"
        assert rec.events[0]["event"] == "demote"
        assert rec.events[0]["node"] == "sta1"
        assert len(rec) == 2

    def test_deterministic_omits_wall_clock(self):
        det = TraceRecorder(None, deterministic=True)
        det.emit("phy", "crc")
        assert "ts" not in det.events[0]
        wall = TraceRecorder(None)
        wall.emit("phy", "crc")
        assert wall.events[0]["ts"] >= 0

    def test_correlate_nests_and_restores(self):
        rec = TraceRecorder(None, deterministic=True)
        with rec.correlate("outer"):
            rec.emit("a", "x")
            with rec.correlate("inner"):
                rec.emit("a", "y")
            rec.emit("a", "z")
        rec.emit("a", "w")
        cids = [e.get("cid") for e in rec.events]
        assert cids == ["outer", "inner", "outer", None]

    def test_sampling(self):
        rec = TraceRecorder(None, sample_every=3)
        assert [i for i in range(9) if rec.sample(i)] == [0, 3, 6]
        unsampled = TraceRecorder(None)  # sample_every=0: never
        assert not any(unsampled.sample(i) for i in range(10))

    def test_ingest_restamps_seq(self):
        parent = TraceRecorder(None, deterministic=True)
        parent.emit("a", "first")
        parent.ingest([{"seq": 7, "layer": "b", "event": "x", "k": 1}])
        assert [e["seq"] for e in parent.events] == [0, 1]
        assert parent.events[1]["k"] == 1

    def test_flush_appends_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(path, deterministic=True)
        rec.emit("a", "x")
        rec.flush()
        rec.emit("a", "y")
        rec.flush()
        rec.flush()  # idempotent: nothing pending
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["event"] == "y"

    def test_forked_child_emissions_dropped(self):
        rec = TraceRecorder(None)
        rec._pid = rec._pid + 1  # simulate fork inheritance
        rec.emit("a", "x")
        assert rec.events == []


class TestAmbientState:
    def test_disabled_by_default(self):
        assert active_recorder() is None
        assert metrics() is NULL_REGISTRY
        assert not metrics_enabled()

    def test_set_recorder_returns_previous(self):
        rec = TraceRecorder(None)
        assert set_recorder(rec) is None
        assert active_recorder() is rec
        assert set_recorder(None) is rec

    def test_enable_disable_metrics(self):
        reg = enable_metrics()
        assert metrics() is reg
        assert metrics_enabled()
        disable_metrics()
        assert metrics() is NULL_REGISTRY

    def test_collecting_installs_and_restores(self):
        outer = enable_metrics()
        outer.counter("outer").inc()
        with collecting() as inner:
            metrics().counter("inner").inc()
            assert metrics() is inner
        assert metrics() is outer
        assert inner.counter("inner").value == 1
        assert "inner" not in outer.names()
        disable_metrics()

    def test_suspended_blanks_everything(self, recorder, registry):
        with suspended():
            assert active_recorder() is None
            assert metrics() is NULL_REGISTRY
            recorder_inside = active_recorder()
        assert recorder_inside is None
        assert active_recorder() is recorder
        assert metrics() is registry


class TestWorkerCapture:
    def test_worker_spec_none_when_disabled(self):
        assert worker_spec() is None

    def test_worker_spec_ships_trace_config(self, recorder):
        recorder.sample_every = 5
        spec = worker_spec()
        assert spec == {"trace": True, "metrics": False,
                        "sample_every": 5, "deterministic": True}

    def test_worker_spec_ships_metrics_only_when_asked(self):
        enable_metrics()  # default: parent-side only
        assert worker_spec() is None
        disable_metrics()
        enable_metrics(ship_to_workers=True)
        spec = worker_spec()
        assert spec == {"trace": False, "metrics": True,
                        "sample_every": 0, "deterministic": False}
        disable_metrics()

    def test_chunk_capture_none_is_identity(self):
        with chunk_capture(None) as wrap:
            assert wrap([1, 2]) == [1, 2]

    def test_chunk_capture_collects_events_and_metrics(self):
        spec = {"trace": True, "metrics": True, "sample_every": 0,
                "deterministic": True}
        with chunk_capture(spec) as wrap:
            active_recorder().emit("t", "e", k=1)
            metrics().counter("t.n").inc(3)
            chunk = wrap(["r0"])
        assert isinstance(chunk, ObsChunk)
        assert chunk.results == ["r0"]
        assert chunk.events[0]["event"] == "e"
        assert chunk.metrics["counters"]["t.n"] == 3
        # Prior (disabled) state restored.
        assert active_recorder() is None
        assert metrics() is NULL_REGISTRY

    def test_ingest_chunk_folds_into_parent(self, recorder, registry):
        chunk = ObsChunk(results=[1, 2],
                         events=[{"seq": 0, "layer": "w", "event": "x"}],
                         metrics={"counters": {"w.n": 4}})
        assert ingest_chunk(chunk) == [1, 2]
        assert recorder.events[-1]["event"] == "x"
        assert registry.counter("w.n").value == 4

    def test_ingest_chunk_passes_plain_results_through(self):
        assert ingest_chunk([3, 4]) == [3, 4]

    def test_trial_correlation_id_deterministic(self):
        a = trial_correlation_id(42, 3)
        assert a == trial_correlation_id(42, 3)
        assert a.startswith("t00003-")
        assert a != trial_correlation_id(42, 4)
        assert a != trial_correlation_id(43, 3)


class TestObsSession:
    def test_writes_trace_and_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ObsSession(trace_path=path, manifest_kind="test",
                        manifest_config={"k": 1}, seed=7) as session:
            active_recorder().emit("mac", "demote", node="sta0")
            metrics().counter("mac.demotions").inc()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["event"] == "demote"
        # Final event carries the merged metrics snapshot.
        assert events[-1]["layer"] == "obs"
        assert events[-1]["metrics"]["counters"]["mac.demotions"] == 1
        manifest = json.loads((tmp_path / "run.jsonl.manifest.json").read_text())
        assert manifest["kind"] == "test"
        assert manifest["seed"] == 7
        assert manifest["n_events"] == 2
        assert session.manifest_path.endswith(".manifest.json")
        # Ambient state restored.
        assert active_recorder() is None
        assert not metrics_enabled()

    def test_truncates_stale_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("stale\n")
        with ObsSession(trace_path=path):
            pass
        assert "stale" not in path.read_text()

    def test_metrics_only_session_writes_nothing(self, tmp_path):
        with ObsSession(metrics_on=True) as session:
            metrics().counter("x").inc()
        assert session.registry.counter("x").value == 1
        assert session.manifest_path is None
        assert list(tmp_path.iterdir()) == []

    def test_no_manifest_on_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with ObsSession(trace_path=path):
                raise RuntimeError("boom")
        assert not (tmp_path / "run.jsonl.manifest.json").exists()
        assert active_recorder() is None
