"""The trace renderer behind `repro report`."""

import json

import pytest

from repro.obs.report import (
    event_counts,
    fallback_transitions,
    fault_timeline,
    final_metrics,
    format_report,
    load_events,
)


def _write_trace(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return path


@pytest.fixture
def trace(tmp_path):
    """A synthetic but representative trace: MAC faults, a fallback
    demote/re-promote cycle, and the final registry-snapshot event."""
    events = [
        {"seq": 0, "layer": "mac", "event": "transmit", "node": "ap"},
        {"seq": 1, "layer": "phy", "event": "ahdr_miss", "node": "sta1",
         "cid": "t00000-aa"},
        {"seq": 2, "layer": "mac", "event": "ack_desync", "first_gap": 0},
        {"seq": 3, "layer": "mac", "event": "demote", "node": "sta1",
         "t": 0.4},
        {"seq": 4, "layer": "phy", "event": "rte_reject",
         "outlier_share": 0.8},
        {"seq": 5, "layer": "mac", "event": "repromote", "node": "sta1",
         "t": 0.7},
        {"seq": 6, "layer": "obs", "event": "metrics", "metrics": {
            "counters": {"runtime.ipc_result_bytes": 512,
                         "runtime.pool_reused": 0,
                         "runtime.pool_spawned": 1},
        }},
    ]
    return _write_trace(tmp_path / "run.jsonl", events)


class TestLoaders:
    def test_load_events(self, trace):
        events = load_events(trace)
        assert len(events) == 7
        assert events[3]["event"] == "demote"

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_events(path)

    def test_final_metrics(self, trace):
        metrics = final_metrics(load_events(trace))
        assert metrics["counters"]["runtime.pool_spawned"] == 1

    def test_final_metrics_empty_without_snapshot(self):
        assert final_metrics([{"layer": "mac", "event": "transmit"}]) == {}

    def test_event_counts(self, trace):
        counts = event_counts(load_events(trace))
        assert counts[("phy", "ahdr_miss")] == 1
        assert counts[("obs", "metrics")] == 1


class TestTables:
    def test_fault_timeline(self, trace):
        names = [e["event"] for e in fault_timeline(load_events(trace))]
        assert names == ["ahdr_miss", "ack_desync", "rte_reject"]
        capped = fault_timeline(load_events(trace), limit=2)
        assert len(capped) == 2

    def test_fallback_transitions(self, trace):
        events = fallback_transitions(load_events(trace))
        assert [e["event"] for e in events] == ["demote", "repromote"]


class TestFormatReport:
    def test_renders_all_sections(self, trace):
        text = format_report(trace)
        assert "7 events" in text
        assert "Event counts by layer" in text
        assert "Counters" in text
        assert "runtime.ipc_result_bytes" in text
        assert "Fault timeline" in text
        assert "Fallback transitions (1 demote, 1 repromote)" in text
        assert "mac.demote" in text

    def test_empty_trace(self, tmp_path):
        path = _write_trace(tmp_path / "empty.jsonl", [])
        assert "(empty trace)" in format_report(path)
