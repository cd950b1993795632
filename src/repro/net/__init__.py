"""Multi-BSS deployment simulation: public WLANs at hotspot scale.

The paper's claim is about *public WLANs* — dense deployments where many
APs, each serving many bursty clients, share spectrum. The single-cell
engine (:mod:`repro.mac.engine`) reproduces one collision domain; this
package layers the deployment on top of it:

* :mod:`repro.net.topology` — AP/STA placement over an arena and the
  per-link SNR budget (path loss + shadowing).
* :mod:`repro.net.roaming` — strongest-signal association with
  hysteresis, random-waypoint mobility, and the byte-exact §4.3
  association handshake on every (re-)association.
* :mod:`repro.net.interference` — co-channel coupling between
  overlapping BSSs, expressed as :class:`repro.faults.FaultPlan`
  hidden-terminal windows so each cell still runs the proven
  single-cell engine unmodified.
* :mod:`repro.net.deployment` — :func:`simulate_deployment`, sharding
  cells over the :mod:`repro.runtime` pools and aggregating
  deployment-level metrics (goodput, fairness, airtime, roam stats).
"""

from repro.net.deployment import (
    CellResult,
    CellSpec,
    DeploymentConfig,
    DeploymentResult,
    cell_seed,
    run_cell,
    simulate_deployment,
)
from repro.net.interference import carrier_sense_range, coupling_fault_plans, overlap_factor
from repro.net.roaming import (
    AssociationSegment,
    AssociationTimeline,
    RandomWaypointMobility,
    RoamEvent,
    build_association_timeline,
)
from repro.net.topology import (
    ApSite,
    Arena,
    DeploymentTopology,
    StaSite,
    build_topology,
    place_aps_grid,
    place_aps_poisson,
    place_stas_clustered,
    place_stas_hotspot,
    place_stas_uniform,
)

__all__ = [
    "ApSite",
    "Arena",
    "AssociationSegment",
    "AssociationTimeline",
    "CellResult",
    "CellSpec",
    "DeploymentConfig",
    "DeploymentResult",
    "DeploymentTopology",
    "RandomWaypointMobility",
    "RoamEvent",
    "StaSite",
    "build_association_timeline",
    "build_topology",
    "carrier_sense_range",
    "cell_seed",
    "coupling_fault_plans",
    "overlap_factor",
    "place_aps_grid",
    "place_aps_poisson",
    "place_stas_clustered",
    "place_stas_hotspot",
    "place_stas_uniform",
    "run_cell",
    "simulate_deployment",
]
