"""The telemetry stream's contracts: segregation, crash tails.

* ``det``/``wall`` segregation — the deterministic view carries only
  the epoch key and the ``det`` namespace, canonically serialised.
* Crash discipline — a truncated final line (what a hard kill leaves
  mid-append) is tolerated by readers and trimmed on resume; malformed
  lines anywhere else are corruption and raise.
* Disabled path — a soak without telemetry writes no telemetry
  artifacts and its record helpers stay off the hot path entirely.
"""

import json

import pytest

from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    append_telemetry_record,
    deterministic_view,
    deterministic_view_bytes,
    fault_occupancy,
    make_record,
    read_telemetry_records,
    telemetry_paths,
    trim_telemetry_records,
)


def _record(epoch, goodput=1e6, wall_s=0.5):
    return make_record(
        epoch=epoch,
        det={"goodput_bps": goodput, "transmissions": 10 * (epoch + 1)},
        wall={"wall_seconds": wall_s, "n_workers": 2},
    )


class TestRecordShape:
    def test_namespaces_are_segregated(self):
        record = _record(3)
        assert record["schema_version"] == TELEMETRY_SCHEMA
        assert record["epoch"] == 3
        assert set(record) == {"schema_version", "epoch", "det", "wall"}

    def test_deterministic_view_drops_wall(self):
        view = deterministic_view([_record(0), _record(1)])
        for entry in view:
            assert "wall" not in entry
            assert set(entry) == {"schema_version", "epoch", "det"}

    def test_det_bytes_ignore_wall_fields(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        append_telemetry_record(a, _record(0, wall_s=0.1))
        append_telemetry_record(b, _record(0, wall_s=99.9))
        assert deterministic_view_bytes(a) == deterministic_view_bytes(b)

    def test_det_bytes_differ_on_det_fields(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        append_telemetry_record(a, _record(0, goodput=1e6))
        append_telemetry_record(b, _record(0, goodput=2e6))
        assert deterministic_view_bytes(a) != deterministic_view_bytes(b)


class TestAppendReadTrim:
    def test_round_trip_in_order(self, tmp_path):
        for epoch in range(4):
            append_telemetry_record(tmp_path, _record(epoch))
        records = list(read_telemetry_records(tmp_path))
        assert [r["epoch"] for r in records] == [0, 1, 2, 3]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert list(read_telemetry_records(tmp_path)) == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        append_telemetry_record(tmp_path, _record(0))
        path = telemetry_paths(tmp_path)["telemetry"]
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "epoch": 1, "de')
        records = list(read_telemetry_records(tmp_path))
        assert [r["epoch"] for r in records] == [0]

    def test_garbage_tail_raises(self, tmp_path):
        append_telemetry_record(tmp_path, _record(0))
        path = telemetry_paths(tmp_path)["telemetry"]
        with open(path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            list(read_telemetry_records(tmp_path))

    def test_malformed_middle_raises(self, tmp_path):
        path = telemetry_paths(tmp_path)["telemetry"]
        append_telemetry_record(tmp_path, _record(0))
        with open(path, "a") as handle:
            handle.write('{"trunc\n')
        append_telemetry_record(tmp_path, _record(1))
        with pytest.raises(ValueError, match="malformed"):
            list(read_telemetry_records(tmp_path))

    def test_trim_drops_orphans_past_cursor(self, tmp_path):
        for epoch in range(5):
            append_telemetry_record(tmp_path, _record(epoch))
        assert trim_telemetry_records(tmp_path, 3) == 2
        assert [r["epoch"] for r in read_telemetry_records(tmp_path)] \
            == [0, 1, 2]

    def test_trim_drops_truncated_tail(self, tmp_path):
        append_telemetry_record(tmp_path, _record(0))
        path = telemetry_paths(tmp_path)["telemetry"]
        with open(path, "a") as handle:
            handle.write('{"epo')
        assert trim_telemetry_records(tmp_path, 5) == 1
        assert [r["epoch"] for r in read_telemetry_records(tmp_path)] == [0]

    def test_trim_missing_file_is_noop(self, tmp_path):
        assert trim_telemetry_records(tmp_path, 0) == 0


class TestFaultOccupancy:
    def test_no_episodes_is_zero(self):
        assert fault_occupancy({"episodes": ()}, 1.0) == 0.0

    def test_single_window(self):
        schedule = {"episodes": [{"window": (0.2, 0.5)}]}
        assert fault_occupancy(schedule, 1.0) == pytest.approx(0.3)

    def test_overlapping_windows_union(self):
        schedule = {"episodes": [{"window": (0.0, 0.6)},
                                 {"window": (0.4, 0.8)}]}
        assert fault_occupancy(schedule, 1.0) == pytest.approx(0.8)

    def test_clamped_to_one(self):
        schedule = {"episodes": [{"window": (0.0, 5.0)}]}
        assert fault_occupancy(schedule, 1.0) == 1.0

    def test_canonical_json_is_stable(self):
        """The det view serialisation the identity gates byte-compare
        must be canonical: key order of the input dict cannot leak."""
        a = make_record(epoch=0, det={"b": 1, "a": 2}, wall={})
        b = make_record(epoch=0, det={"a": 2, "b": 1}, wall={})
        assert json.dumps(deterministic_view([a]), sort_keys=True) \
            == json.dumps(deterministic_view([b]), sort_keys=True)
