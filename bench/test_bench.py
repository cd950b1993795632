"""Self-test of the benchmark harness: ``python -m pytest bench -q``.

Every workload runs at ``--size smoke`` (tiny units, one cold start), so
the whole file takes well under half a minute. The tier-1 suite collects
only ``tests/``; this file checks the benchmark, not the simulator.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import COUNT_METRICS
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--size", "smoke",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def _summary(*args) -> dict:
    proc = _run(*args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def plain():
    return _summary()


@pytest.fixture(scope="module")
def traced_twice():
    return _summary("--traced"), _summary("--traced")


@pytest.fixture(scope="module")
def other_seed():
    return _summary("--seed", "1")


def test_spec_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == ["soak", "net", "voip", "phy"]


def _emitted(summary: dict, section: str):
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, runs in summary["runs"].items():
        for run in runs:
            assert run["correct"], workload
            got = {name: m["unit"] for name, m in run["metrics"].items()}
            assert got == wanted, workload


def test_every_end_to_end_metric_with_its_unit(plain):
    _emitted(plain, "end_to_end")
    for runs in plain["runs"].values():
        assert all(m["value"] > 0 for m in runs[0]["metrics"].values())


def test_every_per_layer_metric_with_its_unit(traced_twice):
    for summary in traced_twice:
        _emitted(summary, "per_layer")


def test_counts_and_digests_repeat(plain, traced_twice):
    first, second = traced_twice
    assert first["digests"] == second["digests"] == plain["digests"]
    for workload in first["runs"]:
        a = first["runs"][workload][0]["metrics"]
        b = second["runs"][workload][0]["metrics"]
        for name in COUNT_METRICS:
            assert a[name]["value"] == b[name]["value"], (workload, name)


def test_seed_changes_digests(plain, other_seed):
    for workload, digests in plain["digests"].items():
        assert digests != other_seed["digests"][workload], workload


def test_shares_sum_to_one(traced_twice):
    for runs in traced_twice[0]["runs"].values():
        metrics = runs[0]["metrics"]
        total = sum(metrics[f"{layer}.share"]["value"] for layer in LAYERS)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "soak", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
