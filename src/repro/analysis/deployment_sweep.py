"""Deployment-scale protocol comparison (the paper's thesis at N APs).

The single-cell benchmarks show Carpool beating the baselines inside one
collision domain. This sweep asks the deployment-level question the title
poses — *less transmissions, more throughput in public WLANs* — by
running the same multi-BSS deployment (:mod:`repro.net`) under each
protocol and comparing:

* total and useful (deadline-respecting) downlink goodput,
* channel busy airtime summed over cells — "less transmissions" shows up
  directly as airtime saved vs the 802.11 / A-MPDU baselines,
* deployment-wide Jain fairness over per-station delivered bytes,
* roam counts and handoff interruption (identical across protocols: the
  association timeline depends on geometry and mobility, not on the MAC).

Each (config, protocol) cell is one cached :func:`simulate_deployment`
call, so re-running a sweep after editing plotting/reporting code is
free, and every protocol sees the *identical* topology, association
timeline, arrival streams, and interference windows.
"""

from __future__ import annotations

import dataclasses

from repro.net.deployment import (
    DeploymentConfig,
    DeploymentResult,
    simulate_deployment,
)

__all__ = [
    "DEPLOYMENT_PROTOCOLS",
    "deployment_protocol_sweep",
    "airtime_saved_s",
    "format_deployment_table",
]

#: The deployment comparison set: legacy unicast, the strongest standard
#: aggregation baseline, and Carpool.
DEPLOYMENT_PROTOCOLS = ("802.11", "A-MPDU", "Carpool")


def deployment_protocol_sweep(
    config: DeploymentConfig,
    protocols=DEPLOYMENT_PROTOCOLS,
    n_workers: int | None = None,
    use_cache: bool = True,
    shards: int | None = None,
) -> dict:
    """Run one deployment under each protocol; name → DeploymentResult.

    Only ``config.protocol`` varies between runs — placement, association,
    mobility, and interference windows are seed-derived and therefore
    byte-identical across protocols, which is what makes the goodput and
    airtime columns directly comparable.

    ``shards=k`` streams each deployment through worker-side reduction
    (constant parent memory, no per-cell breakdown); deployment-level
    columns are bit-identical either way.
    """
    return {
        name: simulate_deployment(
            dataclasses.replace(config, protocol=name),
            n_workers=n_workers, use_cache=use_cache, shards=shards,
        )
        for name in protocols
    }


def airtime_saved_s(results: dict, protocol: str = "Carpool",
                    baseline: str = "802.11") -> float:
    """Busy airtime ``baseline`` burns that ``protocol`` does not (seconds).

    Positive = the protocol occupies the medium for less time while
    carrying the same offered load — the paper's "less transmissions"
    translated to deployment scale.
    """
    return results[baseline].busy_airtime_s - results[protocol].busy_airtime_s


def format_deployment_table(results: dict, baseline: str = "802.11") -> str:
    """Human-readable comparison table for one protocol sweep."""
    lines = [
        f"{'scheme':<14s} {'goodput':>10s} {'useful':>10s} "
        f"{'airtime':>9s} {'saved':>8s} {'Jain':>6s} {'roams':>6s}"
    ]
    for name, result in results.items():
        saved = (
            airtime_saved_s(results, protocol=name, baseline=baseline)
            if baseline in results else 0.0
        )
        lines.append(
            f"{name:<14s} "
            f"{result.total_goodput_bps / 1e6:8.3f} M "
            f"{result.total_useful_goodput_bps / 1e6:8.3f} M "
            f"{result.busy_airtime_s:8.2f}s "
            f"{saved:7.2f}s "
            f"{result.jain_fairness:6.3f} "
            f"{result.n_roams:>6d}"
        )
    return "\n".join(lines)
