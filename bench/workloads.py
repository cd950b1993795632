"""The benchmark's four workloads and the process that runs one of them.

``run.py`` starts this file in a fresh interpreter, with ``src`` on the
path, in one of three modes:

``build``
    Import everything the workloads use, which compiles the PHY's C
    kernel into its cache and writes the bytecode, then exit.
``warmup``
    Run the workload's warm-up unit, print ``ready`` and exit. ``run.py``
    times this from spawn to ``ready``: one cold start.
``measure``
    Run the warm-up unit untimed, then whole units of the workload's
    fixed work until ``--seconds`` have passed, and print one JSON report
    of per-unit walls, transmissions and output digests. With
    ``--trace 1``, plain units fill the first half of the time and the
    same unit with the layer spans of :mod:`tracer` installed fills the
    second, and the report adds the per-layer metrics.

Each unit repeats the same inputs, which are made from ``--seed`` alone,
so every unit of a run must produce the same digest.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.analysis.deployment_sweep as deployment_sweep
import repro.analysis.phy_experiments as phy_experiments
import repro.serve.service as service
from repro.mac import (
    AmpduProtocol,
    CarpoolProtocol,
    Dot11Protocol,
    MuAggregationProtocol,
    WifoxProtocol,
)
from repro.mac.scenarios import VoipScenario
from repro.net.deployment import DeploymentConfig, simulate_deployment
from repro.obs.telemetry import deterministic_view_bytes
from repro.obs.trace import collecting
from repro.phy import coding  # noqa: F401  (compiles the C kernel on import)
from repro.serve.workload import SoakWorkload
from repro.util.rng import derive_seed

import tracer as tracing

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_build"

# --------------------------------------------------------------------------- #
# Unit sizes. "full" is the benchmark; "smoke" is the self-test's.
# --------------------------------------------------------------------------- #

SIZES = {
    "full": {
        "soak_epochs": 40, "soak_disk_epochs": 20,
        "net_duration": 0.5, "net_stas": (25, 15), "net_aps": 9,
        "net_topologies": 2,
        "voip_stas": (10, 20, 30), "voip_duration": 0.5, "voip_calls": 4,
        "phy_trials": 20, "phy_payload": 4090,
    },
    "smoke": {
        "soak_epochs": 2, "soak_disk_epochs": 2,
        "net_duration": 0.2, "net_stas": (5, 3), "net_aps": 4,
        "net_topologies": 1,
        "voip_stas": (4,), "voip_duration": 0.2, "voip_calls": 1,
        "phy_trials": 2, "phy_payload": 500,
    },
}


@dataclass
class Unit:
    """One unit of a workload's fixed work, as measured."""

    wall: float
    tx: int
    digest: str


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


@contextlib.contextmanager
def _fresh_dir(tag: str):
    directory = WORK_DIR / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    directory.mkdir(parents=True)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@contextlib.contextmanager
def memory_backed_files():
    """Give file writes the cost they have on tmpfs, on any filesystem.

    ``os.fsync`` returns at once, and ``os.replace`` unlinks its target
    before renaming: on ext4, replacing an existing file flushes the new
    one to disk first, which costs as much as the fsync. The soak's
    checkpoint then measures the service, not the shared disk; the files
    it writes are byte-for-byte the same.
    """
    fsync, replace = os.fsync, os.replace

    def replace_unlinked(src, dst, **kwargs):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(dst)
        os.rename(src, dst, **kwargs)

    os.fsync = lambda fd: None
    os.replace = replace_unlinked
    try:
        yield
    finally:
        os.fsync, os.replace = fsync, replace


# --------------------------------------------------------------------------- #
# soak: the resumable service, one epoch loop per unit.
# --------------------------------------------------------------------------- #

def _soak_config(seed: int, directory: Path,
                 epochs: int) -> service.SoakConfig:
    # 9 APs of about 6 stations, as in repro soak's default workload, but
    # with nearly every station active and 0.5 s epochs: the epoch's work
    # then hardly depends on the seed, and one unit averages over many
    # topologies. Checkpoint, telemetry and an SLO that never trips run
    # every per-epoch write path.
    return service.SoakConfig(
        workload=SoakWorkload(seed=seed, max_stas_per_ap=6,
                              target_active_stas=5.9, epoch_duration=0.5),
        fault_profile="mixed",
        checkpoint_dir=str(directory),
        epochs=epochs,
        n_workers=1,
        shards=3,
        telemetry=True,
        slos=("goodput_bps<1",),
    )


def _soak_digest(directory: Path) -> str:
    return _sha256((directory / "state.json").read_bytes(),
                   (directory / "metrics.jsonl").read_bytes(),
                   deterministic_view_bytes(directory))


def soak_warmup(seed: int, size: dict) -> None:
    with _fresh_dir("soak-warmup") as directory, memory_backed_files():
        service.run_soak(_soak_config(seed, directory, 1))


def soak_unit(seed: int, size: dict) -> Unit:
    epochs = size["soak_epochs"]
    with _fresh_dir("soak") as directory:
        with memory_backed_files():
            t0 = time.perf_counter()
            summary = service.run_soak(_soak_config(seed, directory, epochs))
            wall = time.perf_counter() - t0
        records = [json.loads(line) for line in
                   (directory / "metrics.jsonl").read_text().splitlines()]
        if (summary.epochs_completed != epochs or len(records) != epochs
                or sum(r["transmissions"] for r in records)
                != summary.cumulative_frames):
            raise ValueError("soak checkpoint disagrees with its summary")
        digest = _soak_digest(directory)
    return Unit(wall, summary.cumulative_frames, digest)


def soak_disk_leg(seed: int, size: dict, overhead: dict) -> dict:
    """The soak on the real disk: checkpoint cost and syscall counts."""
    epochs = size["soak_disk_epochs"]
    disk = tracing.install_layers(tracing.Tracer())
    for owner, attr, name in ((os, "fsync", "disk.fsync"),
                              (os, "replace", "disk.rename"),
                              (subprocess, "run", "disk.subprocess")):
        disk.patch(owner, attr, lambda fn, name=name: disk.counted(name, fn))
    try:
        with _fresh_dir("soak-disk") as directory:
            t0 = time.perf_counter()
            service.run_soak(_soak_config(seed, directory, epochs))
            wall = time.perf_counter() - t0
    finally:
        disk.uninstall()
    rows = tracing.ledger(disk.spans(), disk.names, wall,
                          _engine_counted(disk), overhead)
    return {
        "serve.checkpoint.fsyncs_per_epoch":
            disk.count("disk.fsync") / epochs,
        "serve.checkpoint.renames_per_epoch":
            disk.count("disk.rename") / epochs,
        "serve.checkpoint.subprocesses_per_epoch":
            disk.count("disk.subprocess") / epochs,
        "serve.checkpoint.disk_ms_per_epoch":
            1e3 * (rows["serve.checkpoint"] + rows["obs.telemetry"]) / epochs,
    }


# --------------------------------------------------------------------------- #
# net: E-NET, the 9-AP roaming deployment under three protocols.
# --------------------------------------------------------------------------- #

def _net_configs(seed: int, size: dict) -> list:
    """E-NET's saturated and moderate configs, each on several topologies.

    Which cell straggles, and how much traffic the topology carries,
    varies with the seed; averaging over topologies within a unit keeps
    that variation out of the run-to-run spread.
    """
    saturated_stas, moderate_stas = size["net_stas"]
    saturated = DeploymentConfig(
        n_aps=size["net_aps"], stas_per_ap=saturated_stas,
        duration=size["net_duration"], seed=seed, channels=1,
        frames_per_second=200.0, frame_bytes=300,
        mobility=True, hysteresis_db=2.0,
    )
    moderate = dataclasses.replace(saturated, stas_per_ap=moderate_stas,
                                   frames_per_second=150.0)
    return [
        dataclasses.replace(config, seed=derive_seed(seed, f"net-topology{k}"))
        for config in (saturated, moderate)
        for k in range(size["net_topologies"])
    ]


def net_warmup(seed: int, size: dict) -> None:
    config = dataclasses.replace(_net_configs(seed, size)[0], n_aps=2,
                                 stas_per_ap=2, duration=0.2)
    simulate_deployment(config, n_workers=2, use_cache=False)


def net_unit(seed: int, size: dict) -> Unit:
    configs = _net_configs(seed, size)
    t0 = time.perf_counter()
    sweeps = [deployment_sweep.deployment_protocol_sweep(
        config, use_cache=False, n_workers=2) for config in configs]
    wall = time.perf_counter() - t0
    for config, sweep in zip(configs, sweeps):
        if (len({r.n_roams for r in sweep.values()}) != 1
                or any(len(r.cells) != config.n_aps for r in sweep.values())):
            raise ValueError("protocols saw different deployments")
    results = [[name, result.to_dict()]
               for sweep in sweeps for name, result in sweep.items()]
    tx = sum(cell["transmissions"] for _, result in results
             for cell in result["cells"])
    return Unit(wall, tx, _sha256(_json_bytes(results)))


# --------------------------------------------------------------------------- #
# voip: the E-F15 grid, two co-channel APs with uplink and downlink VoIP.
# --------------------------------------------------------------------------- #

VOIP_PROTOCOLS = (Dot11Protocol, AmpduProtocol, MuAggregationProtocol,
                  WifoxProtocol, CarpoolProtocol)


def voip_warmup(seed: int, size: dict) -> None:
    VoipScenario(num_stations=2, duration=0.2, seed=seed).run(CarpoolProtocol)


def voip_unit(seed: int, size: dict) -> Unit:
    # Each grid point runs as several short independent calls: one long
    # call's cost swings with its random load, which saturated queues
    # amplify, and the average over calls does not.
    seeds = [derive_seed(seed, f"voip-call{k}")
             for k in range(size["voip_calls"])]
    t0 = time.perf_counter()
    results = [
        VoipScenario(num_stations=n, duration=size["voip_duration"],
                     seed=call_seed).run(protocol)
        for n in size["voip_stas"] for protocol in VOIP_PROTOCOLS
        for call_seed in seeds
    ]
    wall = time.perf_counter() - t0
    if any(r.transmissions <= 0 for r in results):
        raise ValueError("a VoIP scenario sent nothing")
    return Unit(wall, sum(r.transmissions for r in results),
                _sha256(_json_bytes([dataclasses.asdict(r) for r in results])))


# --------------------------------------------------------------------------- #
# phy: the E-F14 grid, standard (batched frozen) vs RTE (sequential) decode.
# --------------------------------------------------------------------------- #

PHY_MODULATIONS = ("BPSK-1/2", "QPSK-1/2", "QAM16-3/4", "QAM64-3/4")
PHY_POWERS = (0.05, 0.2)


def phy_warmup(seed: int, size: dict) -> None:
    phy_experiments.ber_by_symbol_index(
        "QAM16-3/4", 500, 2, use_rte=True,
        link=phy_experiments.LinkConfig(seed=seed), n_workers=1)


def phy_unit(seed: int, size: dict) -> Unit:
    trials = size["phy_trials"]
    t0 = time.perf_counter()
    results = []
    for power in PHY_POWERS:
        link = phy_experiments.LinkConfig(seed=seed).with_power(power)
        for mcs in PHY_MODULATIONS:
            for use_rte in (False, True):
                results.append(phy_experiments.ber_by_symbol_index(
                    mcs, size["phy_payload"], trials, use_rte=use_rte,
                    link=link, n_workers=1))
    wall = time.perf_counter() - t0
    chunks = []
    for r in results:
        if not np.all((r.ber_per_symbol >= 0) & (r.ber_per_symbol <= 1)):
            raise ValueError("a BER outside [0, 1]")
        chunks += [r.ber_per_symbol.astype("<f8").tobytes(),
                   _json_bytes([r.crc_pass_rate, r.side_bit_error_rate])]
    return Unit(wall, trials * len(results), _sha256(*chunks))


#: name -> (warm-up unit, unit); run.py holds the default seeds.
WORKLOADS = {
    "soak": (soak_warmup, soak_unit),
    "net": (net_warmup, net_unit),
    "voip": (voip_warmup, voip_unit),
    "phy": (phy_warmup, phy_unit),
}


def ops_per_unit(name: str, size: dict) -> int:
    return {
        "soak": size["soak_epochs"],
        "net": 2 * size["net_topologies"]
        * len(deployment_sweep.DEPLOYMENT_PROTOCOLS),
        "voip": len(size["voip_stas"]) * len(VOIP_PROTOCOLS)
        * size["voip_calls"],
        "phy": 2 * len(PHY_POWERS) * len(PHY_MODULATIONS),
    }[name]


# --------------------------------------------------------------------------- #
# The measure loop.
# --------------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def _engine_counted(t: tracing.Tracer) -> int:
    return sum(t.count(name) for name in tracing.COUNTED_IN_ENGINE)


def _try_unit(unit_fn, seed: int, size: dict):
    """(Unit, None) or (None, traceback) — an op fails if it raises."""
    try:
        return unit_fn(seed, size), None
    except Exception:  # the report counts the unit's ops as failed
        return None, traceback.format_exc()


@dataclass
class Traced:
    """A unit run with the spans installed, and what it left behind."""

    unit: Unit
    first_span: int
    last_span: int
    #: Calls through the count-only wrappers inside the engine.
    counted: int
    #: The program's own pool counters for the unit.
    pool: dict


def _traced_unit(unit_fn, seed: int, size: dict, t: tracing.Tracer):
    """(Traced, None) or (None, traceback)."""
    first, counted = len(t.start), _engine_counted(t)
    tracing.install_layers(t)
    try:
        with collecting() as registry:
            unit, error = _try_unit(unit_fn, seed, size)
    finally:
        t.uninstall()
    if error:
        return None, error
    pool = {name: (inst.value if (inst := registry.get(name)) else 0)
            for name in ("runtime.pool_spawned", "runtime.ipc_result_bytes")}
    return Traced(unit, first, len(t.start), _engine_counted(t) - counted,
                  pool), None


def per_layer(t: tracing.Tracer, traced: list, plain_walls: list,
              overhead: dict, rss_growth: float, disk: dict) -> dict:
    """The per-layer metrics of every traced unit, folded together."""
    rows = dict.fromkeys(tracing.LAYERS, 0.0)
    coverage_errors = []
    for one in traced:
        spans = t.spans(one.first_span, one.last_span)
        unit_rows = tracing.ledger(spans, t.names, one.unit.wall, one.counted,
                                   overhead)
        problem = tracing.check_coverage(unit_rows, one.unit.wall)
        if problem:
            coverage_errors.append(problem)
        for key, value in unit_rows.items():
            rows[key] += value
    n = len(traced)
    walls = [one.unit.wall for one in traced]
    wall = sum(walls)
    spans = t.spans()
    ids = {name: i for i, name in enumerate(t.names)}
    span_counts = np.bincount(spans["name"], minlength=len(t.names))

    def spans_of(name):
        return int(span_counts[ids[name]])

    def seconds_in(name):
        mask = spans["name"] == ids[name]
        return float((spans["end"][mask] - spans["start"][mask]).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    tx = t.count("mac.tx")
    # install_layers registers every span name, so each lookup succeeds.
    by_name = dict(zip(t.names,
                       tracing.self_by_name(spans, t.names, overhead)))
    rte_frames = spans_of("phy.rx/rte")
    frozen_frames = t.count("phy.rx.frozen_frames")
    # acquire runs once per frame on both decode paths, so each path is
    # charged its frames' share of it.
    acquire_per_frame = ratio(by_name["phy.rx/acquire"],
                              rte_frames + frozen_frames)

    def ms_per_frame(name, frames):
        if not frames:
            return 0.0
        return 1e3 * (by_name[name] / frames + acquire_per_frame)

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = ratio(rows[layer], n)
        metrics[f"{layer}.share"] = ratio(rows[layer], wall)
    metrics.update({
        "mac.protocols.ready_polls_per_tx":
            ratio(t.count("mac.protocols.ready_time"), tx),
        "mac.protocols.builds_per_tx": ratio(spans_of("mac.protocols"), tx),
        "mac.engine.us_per_tx": 1e6 * ratio(rows["mac.engine"], tx),
        "mac.error_model.draws_per_tx":
            ratio(t.count("mac.error_model.draws"), tx),
        "net.plan.builds_per_deployment":
            ratio(spans_of("net.plan/topology"), t.count("deployments")),
        "phy.crc.crc32_calls": ratio(spans_of("phy.crc"), n),
        "runtime.trials.autotune_s":
            ratio(seconds_in("runtime.trials/autotune"), n),
        "runtime.pool_spawned":
            ratio(sum(one.pool["runtime.pool_spawned"] for one in traced), n),
        "runtime.ipc_result_bytes": ratio(
            sum(one.pool["runtime.ipc_result_bytes"] for one in traced), n),
        "channel.ms_per_frame":
            1e3 * ratio(rows["channel"], spans_of("channel")),
        "phy.rx.ms_per_frame_rte": ms_per_frame("phy.rx/rte", rte_frames),
        "phy.rx.ms_per_frame_frozen":
            ms_per_frame("phy.rx/frozen", frozen_frames),
        "serve.rss_growth": rss_growth,
        "bench.trace_overhead": ratio(
            statistics.median(walls),
            statistics.median(plain_walls) if plain_walls else 0.0),
        "serve.checkpoint.fsyncs_per_epoch": 0.0,
        "serve.checkpoint.renames_per_epoch": 0.0,
        "serve.checkpoint.subprocesses_per_epoch": 0.0,
        "serve.checkpoint.disk_ms_per_epoch": 0.0,
    })
    metrics.update(disk)
    return {"metrics": metrics, "coverage_errors": coverage_errors}


def measure(name: str, seed: int, seconds: float, trace: bool,
            size_name: str) -> dict:
    warmup_fn, unit_fn = WORKLOADS[name]
    size = SIZES[size_name]
    WORK_DIR.mkdir(exist_ok=True)
    warmup_fn(seed, size)
    rss_warm = peak_rss_mb()
    overhead = tracing.measure_overhead() if trace else None
    t = tracing.Tracer()
    units, traced, errors = [], [], []
    rss_first = None
    start = time.perf_counter()
    # Traced runs measure plain units for the first half and traced ones
    # for the second, so the spans held in memory do not count towards
    # the plain units' RSS.
    plain_seconds = seconds / 2 if trace else seconds
    while True:
        unit, error = _try_unit(unit_fn, seed, size)
        if error:
            errors.append(error)
        else:
            units.append(unit)
        if rss_first is None:
            rss_first = peak_rss_mb()
        if time.perf_counter() - start >= plain_seconds:
            break
    rss_plain = peak_rss_mb()
    while trace:
        one, error = _traced_unit(unit_fn, seed, size, t)
        if error:
            errors.append(error)
        else:
            traced.append(one)
        if time.perf_counter() - start >= seconds:
            break
    report = {
        "workload": name,
        "seed": seed,
        "size": size_name,
        "ops_per_unit": ops_per_unit(name, size),
        "units": [dataclasses.asdict(u) for u in units],
        "traced_units": [dataclasses.asdict(one.unit) for one in traced],
        "errors": errors,
        "peak_rss_mb": rss_first,
    }
    if trace and traced:
        disk = (soak_disk_leg(seed, size, overhead)
                if name == "soak" else {})
        layer = per_layer(t, traced, [u.wall for u in units], overhead,
                          rss_plain / rss_warm, disk)
        report["per_layer"] = layer["metrics"]
        report["coverage_errors"] = layer["coverage_errors"]
        trace_path = WORK_DIR / f"trace-{name}-{seed}.npz"
        t.write(str(trace_path), [[one.unit.wall, one.first_span,
                                   one.last_span] for one in traced])
        report["trace_file"] = str(trace_path)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build", "warmup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.mode == "build":
        return 0
    if args.workload is None or args.seed is None:
        parser.error(f"{args.mode} needs --workload and --seed")
    if args.mode == "warmup":
        WORK_DIR.mkdir(exist_ok=True)
        WORKLOADS[args.workload][0](args.seed, SIZES[args.size])
        print("ready", flush=True)
        return 0
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
