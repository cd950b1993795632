"""Run the benchmark: every metric in BENCHMARK.json, by name and unit.

    python3 bench/run.py                       # all four workloads, plain
    python3 bench/run.py --traced              # the per-layer ledger
    python3 bench/run.py --workload net --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload soak --repeat 5

Each workload runs in its own fresh process (``bench/workloads.py``):
a build step, then (plain runs only) five cold starts timed from
interpreter spawn to the end of a warm-up unit, then the measured
process. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output digest checked out and no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK_DIR = ROOT / ".bench_build"
WORKLOADS = ("soak", "net", "voip", "phy")
#: The root seeds of the paper-figure benches each workload comes from.
DEFAULT_SEEDS = {"soak": 11, "net": 7, "voip": 42, "phy": 14}
COLD_STARTS = {"full": 5, "smoke": 1}
#: Per-layer metrics that count work rather than time it: a run of the
#: same commit and seed must reproduce them exactly.
COUNT_METRICS = (
    "mac.protocols.ready_polls_per_tx",
    "mac.protocols.builds_per_tx",
    "mac.error_model.draws_per_tx",
    "net.plan.builds_per_deployment",
    "phy.crc.crc32_calls",
    "runtime.pool_spawned",
    "serve.checkpoint.fsyncs_per_epoch",
    "serve.checkpoint.renames_per_epoch",
    "serve.checkpoint.subprocesses_per_epoch",
)
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_NO_CKERNEL", "REPRO_WORKERS",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Set iteration order, and so the interpreter's work, is then the
        # same in every run.
        PYTHONHASHSEED="0",
        # Results are recomputed, never read from or written to the
        # on-disk result cache.
        REPRO_NO_CACHE="1",
        # The compiled PHY kernel is cached inside the checkout.
        XDG_CACHE_HOME=str(WORK_DIR / "xdg"),
        # The manifest's `git rev-parse` looks no further up than the
        # checkout.
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    return env


class Runner:
    """Starts the workload processes and enforces the run's time budget."""

    def __init__(self, size: str):
        self.size = size
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = _child_env()

    def _command(self, mode: str, *args: str) -> list:
        return [sys.executable, str(BENCH / "workloads.py"), mode,
                "--size", self.size, *args]

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def _popen(self, command: list) -> subprocess.Popen:
        return subprocess.Popen(command, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)

    def _finish(self, proc: subprocess.Popen, what: str) -> str:
        """Wait for ``proc``; on timeout stop its whole process group."""
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except (subprocess.TimeoutExpired, BenchError):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")
        return out

    def build(self) -> None:
        self._finish(self._popen(self._command("build")), "the build step")

    def cold_start(self, workload: str, seed: int) -> float:
        """Seconds from interpreter spawn to the end of the warm-up unit."""
        t0 = time.perf_counter()
        proc = self._popen(self._command("warmup", "--workload", workload,
                                         "--seed", str(seed)))
        ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        self._finish(proc, f"the {workload} cold start")
        if line.strip() != "ready":
            raise BenchError(f"the {workload} cold start did not warm up")
        return elapsed

    def measure(self, workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
        out = self._finish(self._popen(self._command(
            "measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)))),
            f"the {workload} workload")
        return json.loads(out.strip().splitlines()[-1])


def run_workload(runner: Runner, spec: dict, expected: dict, workload: str,
                 seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: its result object plus what to print."""
    runner.build()
    setup = ([runner.cold_start(workload, seed)
              for _ in range(COLD_STARTS[runner.size])] if not trace else [])
    report = runner.measure(workload, seed, seconds, trace)
    units = report["units"] + report["traced_units"]
    ops_per_unit = report["ops_per_unit"]
    attempted = ops_per_unit * (len(units) + len(report["errors"]))
    failed = ops_per_unit * len(report["errors"])
    problems = [error.strip().splitlines()[-1] for error in report["errors"]]

    digests = {unit["digest"] for unit in units}
    digest = next(iter(digests)) if len(digests) == 1 else None
    if len(digests) > 1:
        problems.append("units of one run gave different outputs")
    want = expected["digests"][runner.size].get(workload)
    digest_note = "not recorded for this seed"
    if seed == DEFAULT_SEEDS[workload] and want:
        digest_note = "matches the recorded digest"
        if digest != want:
            digest_note = "DIFFERS from the recorded digest"
            problems.append(f"digest {digest} != recorded {want}")
    if problems and not failed:
        failed = attempted  # a wrong output fails every op of the run
    problems += report.get("coverage_errors", [])

    if trace:
        values = report.get("per_layer", {})
        wanted = spec["per_layer"]
    else:
        plain = report["units"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(u["wall"] for u in plain)
            if plain else 0.0,
            "tx_per_s": statistics.median(u["tx"] / u["wall"] for u in plain)
            if plain else 0.0,
            "peak_rss_mb": report["peak_rss_mb"] or 0.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "units": len(units),
        "digest": digest,
        "digest_note": digest_note,
        "trace_file": report.get("trace_file"),
        "problems": problems,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _print_run(run: dict) -> None:
    print(f"[{run['workload']}] seed {run['seed']}, {run['units']} unit(s), "
          f"digest {run['digest']} ({run['digest_note']})")
    for name, metric in run["result"]["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if run["trace_file"]:
        print(f"  spans written to {os.path.relpath(run['trace_file'], ROOT)}")
    for problem in run["problems"]:
        print(f"  PROBLEM: {problem}")


def _print_repeats(workload: str, runs: list) -> list:
    """Median, quartiles and spread per metric; what failed to repeat."""
    print(f"[{workload}] {len(runs)} runs")
    failures = []
    if len({run["digest"] for run in runs}) != 1:
        failures.append(f"{workload}: digests differ between runs")
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        if name in COUNT_METRICS and len(set(values)) != 1:
            failures.append(f"{workload}: {name} differs between runs")
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:<44} median {median:>12.6g} q1 {q1:>12.6g} "
              f"q3 {q3:>12.6g} spread {spread:6.2%} {metric['unit']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:6]))
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int,
                        help="root seed of the inputs (default: each "
                             "workload's paper-figure seed)")
    parser.add_argument("--seconds", type=float,
                        help="measure at least this long (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times, each in fresh "
                             "processes, and report medians and spreads")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny units, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: no src/repro here; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        spec = _load_json(ROOT / "BENCHMARK.json")
        expected = _load_json(BENCH / "expected.json")
        trace = bool(args.trace or args.traced)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        workloads = args.workload or list(WORKLOADS)
        results, digests = {}, {}
        repeat_failures = []
        for workload in workloads:
            seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
            runs = []
            for _ in range(max(1, args.repeat)):
                run = run_workload(Runner(args.size), spec, expected, workload,
                                   seed, seconds, trace)
                _print_run(run)
                runs.append(run)
            if args.repeat > 1:
                repeat_failures += _print_repeats(workload, runs)
            results[workload] = [run["result"] for run in runs]
            digests[workload] = [run["digest"] for run in runs]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for failure in repeat_failures:
        print(f"PROBLEM: {failure}")
    every = [r for runs in results.values() for r in runs]
    correct = all(r["correct"] for r in every) and not repeat_failures
    if len(every) == 1:
        print(json.dumps(every[0]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "runs": results,
            "digests": digests,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
