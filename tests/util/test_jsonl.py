"""One torn-tail rule for every append-only JSONL file."""

import pytest

from repro.util.jsonl import append_record, read_records, trim_records


def _file(tmp_path, *lines):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_append_writes_sorted_key_lines(tmp_path):
    path = tmp_path / "sub" / "records.jsonl"
    append_record(path, {"b": 1, "a": 2})
    append_record(path, {"epoch": 0})
    assert path.read_text() == '{"a": 2, "b": 1}\n{"epoch": 0}\n'
    assert list(read_records(path)) == [{"a": 2, "b": 1}, {"epoch": 0}]


def test_torn_final_line_is_dropped_by_read_and_trim(tmp_path):
    path = _file(tmp_path, '{"epoch": 0}\n', '\n', '{"epoch": 1}\n',
                 '{"epoch": 3, "x"')
    assert [r["epoch"] for r in read_records(path)] == [0, 1]
    assert trim_records(path, 1) == 2
    assert path.read_text() == '{"epoch": 0}\n'


@pytest.mark.parametrize("lines, bad_line", [
    (('{"epoch": 0}\n', '{"epoch": 1, "x"\n', '{"epoch": 2}\n'), 2),
    (('{"epoch": 0}\n', 'not json\n'), 2),
    (('[1, \n',), 1),
])
def test_any_other_bad_line_raises_naming_file_and_line(tmp_path, lines,
                                                        bad_line):
    path = _file(tmp_path, *lines)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=f"records.jsonl:{bad_line}:"):
        list(read_records(path))
    with pytest.raises(ValueError, match=f"records.jsonl:{bad_line}:"):
        trim_records(path, 0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_trim_copies_kept_lines_byte_for_byte(tmp_path):
    path = _file(tmp_path, '{"epoch":0,  "v": 1.50}\n', '{"epoch": 1}\n')
    assert trim_records(path, 1) == 1
    assert path.read_text() == '{"epoch":0,  "v": 1.50}\n'


def test_trim_of_missing_file_is_noop(tmp_path):
    assert trim_records(tmp_path / "absent.jsonl", 0) == 0
