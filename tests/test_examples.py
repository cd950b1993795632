"""Smoke tests: every shipped example must run to completion."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name, argv=None):
    saved = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


def test_quickstart(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "decoded OK" in out
    assert "Sequential ACK timetable" in out


def test_ber_bias_demo(capsys):
    _run("ber_bias_demo.py")
    out = capsys.readouterr().out
    assert "standard" in out and "RTE" in out


def test_side_channel_demo(capsys):
    _run("side_channel_demo.py")
    out = capsys.readouterr().out
    assert "carpool!" in out


@pytest.mark.slow
def test_crowded_hotspot_small(capsys):
    _run("crowded_hotspot.py", ["6"])
    out = capsys.readouterr().out
    assert "Carpool" in out and "802.11" in out


def test_mixed_network(capsys):
    _run("mixed_network.py")
    out = capsys.readouterr().out
    assert "classified as carpool" in out
    assert "classified as legacy" in out


def test_mu_mimo_demo(capsys):
    _run("mu_mimo_demo.py")
    out = capsys.readouterr().out
    assert out.count("decoded OK") == 4


def test_trace_explorer(capsys):
    _run("trace_explorer.py")
    out = capsys.readouterr().out
    assert "7.63" in out


def test_rate_adaptation_demo(capsys):
    _run("rate_adaptation_demo.py")
    out = capsys.readouterr().out
    assert "QAM64" in out and "BPSK" in out
