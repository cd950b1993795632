"""Constant-memory gate for sharded deployments (run in a fresh process).

Runs the same sharded deployment at growing AP counts inside *this*
process and records the parent's peak RSS (``ru_maxrss``) after each leg.
Because sharded runs never materialise the spec list or per-cell results,
the peak must stay essentially flat as the deployment grows — and must
stay under a committed budget, so a regression that starts accumulating
per-cell state in the parent fails CI even if it is "flat" at a higher
level.

The script starts from a fresh interpreter, so the recorded budget means
something across runs.

Usage::

    PYTHONPATH=src python benchmarks/check_memory_ceiling.py            # gate
    PYTHONPATH=src python benchmarks/check_memory_ceiling.py --update   # re-record
    PYTHONPATH=src python benchmarks/check_memory_ceiling.py --out curve.json

Exits non-zero when peak RSS exceeds the recorded budget by more than
``--tolerance`` (default 20 %), or when the RSS curve grows by more than
the flatness bound across the AP sweep.
"""

import argparse
import json
import os
import sys
import tempfile

# Platform-aware ru_maxrss -> MiB conversion lives in one place so the
# committed absolute budgets mean the same thing on Linux and macOS.
from repro.obs.telemetry import rss_mb


def run_curve(ap_counts, stas_per_ap, duration, shards, workers, seed):
    """AP count -> parent peak RSS (MiB) after a sharded deployment run."""
    from repro.net.deployment import DeploymentConfig, simulate_deployment
    from repro.runtime.cache import ResultCache
    from repro.runtime.trials import shutdown_pools

    cache = ResultCache(
        directory=tempfile.mkdtemp(prefix="repro-memceil-"),
        namespace="deployment",
    )
    curve = {}
    for n_aps in ap_counts:
        config = DeploymentConfig(
            n_aps=n_aps, stas_per_ap=stas_per_ap, duration=duration,
            seed=seed, channels=1,
        )
        simulate_deployment(config, n_workers=workers, use_cache=False,
                            cache=cache, shards=shards)
        curve[n_aps] = rss_mb()
    shutdown_pools()
    return curve


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--aps", type=int, nargs="*", default=[5, 15, 25],
                        help="AP counts to sweep (peak gate uses the last)")
    parser.add_argument("--stas-per-ap", type=int, default=2)
    parser.add_argument("--duration", type=float, default=0.4)
    parser.add_argument("--shards", type=int, default=5)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--budget", default=os.path.join(here, "memory_budget.json"),
                        help="committed budget JSON to gate against")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional growth over the budget")
    parser.add_argument("--flatness", type=float, default=0.25,
                        help="allowed fractional RSS growth across the sweep")
    parser.add_argument("--update", action="store_true",
                        help="re-record the budget instead of gating")
    parser.add_argument("--out", default=None,
                        help="write the measured RSS curve JSON here")
    args = parser.parse_args(argv)

    curve = run_curve(args.aps, args.stas_per_ap, args.duration,
                      args.shards, args.workers, args.seed)
    smallest, largest = args.aps[0], args.aps[-1]
    peak = curve[largest]
    growth = curve[largest] / curve[smallest] if curve[smallest] else float("inf")
    for n_aps, rss in curve.items():
        print(f"{n_aps:4d} APs (shards={args.shards}): peak RSS {rss:8.1f} MB")
    print(f"sweep growth {smallest} -> {largest} APs: x{growth:.3f} "
          f"(flatness bound x{1 + args.flatness:.2f})")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "ap_counts": list(args.aps),
                "stas_per_ap": args.stas_per_ap,
                "duration": args.duration,
                "shards": args.shards,
                "workers": args.workers,
                "peak_rss_mb_by_aps": {str(k): v for k, v in curve.items()},
                "growth_factor": growth,
            }, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.update:
        with open(args.budget, "w") as handle:
            json.dump({
                "ap_counts": list(args.aps),
                "stas_per_ap": args.stas_per_ap,
                "duration": args.duration,
                "shards": args.shards,
                "peak_rss_mb": peak,
            }, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded budget: {peak:.1f} MB -> {args.budget}")
        return 0

    status = 0
    if growth > 1 + args.flatness:
        print(f"FAIL: RSS grew x{growth:.3f} across the sweep "
              f"(bound x{1 + args.flatness:.2f}) — the parent is "
              "accumulating per-cell state", file=sys.stderr)
        status = 1
    if not os.path.exists(args.budget):
        print(f"no budget at {args.budget}; run with --update to record one",
              file=sys.stderr)
        return status or 2
    with open(args.budget) as handle:
        budget = json.load(handle)
    ceiling = budget["peak_rss_mb"] * (1 + args.tolerance)
    print(f"budget {budget['peak_rss_mb']:.1f} MB "
          f"(+{args.tolerance:.0%} -> ceiling {ceiling:.1f} MB): "
          f"measured {peak:.1f} MB")
    if peak > ceiling:
        print(f"FAIL: peak RSS {peak:.1f} MB exceeds the ceiling "
              f"{ceiling:.1f} MB (budget {budget['peak_rss_mb']:.1f} MB "
              f"+{args.tolerance:.0%})", file=sys.stderr)
        status = 1
    if status == 0:
        print("OK: constant-memory ceiling holds")
    return status


if __name__ == "__main__":
    sys.exit(main())
