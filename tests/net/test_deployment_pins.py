"""Pinned outputs of ``simulate_deployment`` across its execution modes.

Each case runs one small deployment and hashes the whole
``DeploymentResult.to_dict()``. The set covers static and roaming
deployments, a mixed Carpool/legacy deployment and one with
deployment-wide extra faults, each unsharded and with ``shards=3``, at
one and at two workers. The digest of a case must not depend on the
worker count; a change to how cells are planned, shipped, run or folded
shows up as a digest change. ``ber_by_symbol_index`` is pinned at two
workers too, because its per-run frame tables travel to the pool the
same way.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.phy_experiments import LinkConfig, ber_by_symbol_index
from repro.net.deployment import DeploymentConfig, simulate_deployment
from repro.runtime.cache import ResultCache
from repro.serve.scheduler import rolling_fault_plan


def _config(name: str) -> DeploymentConfig:
    base = dict(n_aps=4, stas_per_ap=2, duration=0.3, seed=7, channels=1,
                arena_width_m=30.0, arena_height_m=30.0)
    if name == "mobility":
        base.update(mobility=True, hysteresis_db=2.0)
    elif name == "mobility-legacy":
        base.update(mobility=True, hysteresis_db=2.0, legacy_fraction=0.3)
    elif name == "extra-faults":
        base.update(extra_faults=rolling_fault_plan("mixed", 0, 0.3))
    return DeploymentConfig(**base)


def _digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_DEPLOYMENT_PINS = {
    ("static", None):
        "7c63984c20eba6158f9ab3179670dc880cb3c1b64a29d78538c4df988318005f",
    ("static", 3):
        "dd2b8a9b23a69d91591f83871a16c4be5404bcb3b05c69f066f906602a72d53f",
    ("mobility", None):
        "36144686c0a650bb8e04b6d87a6385b0010799ac40d57870b5fe76f772e781bf",
    ("mobility", 3):
        "1e5bc528525015c52533f2569bd470808799bb3480930ee890244882af3abb88",
    ("mobility-legacy", None):
        "1058d856f9c0b2bffa075e53f94bf87da7cf638dc7e3f5c25f53dbeedffae13f",
    ("mobility-legacy", 3):
        "8dc07d0a850ae16be905dc1faa94acb735aed3ffe3517fc646885b51d8000a6d",
    ("extra-faults", None):
        "e9491ed0b793d17ab04f63df4e4cfa907cc23f9163957c88f4156e4fc7c83031",
    ("extra-faults", 3):
        "97da40dd69739d04cdb166cff536689693f454c1fed320487377b5664971735e",
}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("case,shards", sorted(_DEPLOYMENT_PINS,
                                               key=lambda k: (k[0], k[1] or 0)))
def test_deployment_output_is_pinned(tmp_path, case, shards, n_workers):
    result = simulate_deployment(
        _config(case), n_workers=n_workers, shards=shards, use_cache=False,
        cache=ResultCache(directory=str(tmp_path), namespace="deployment"))
    assert _digest(result.to_dict()) == _DEPLOYMENT_PINS[(case, shards)]


_BER_PINS = {
    False:
        "428919efe4744d9a1f419aa59db9bd2a093ccaf43ae53a0e957df57372ec3015",
    True:
        "ebd1fb4509ee30e9d470398420eee48134ee6c2479de2d673dcf9101f8f0458c",
}


@pytest.mark.parametrize("use_rte", [False, True])
def test_ber_by_symbol_index_at_two_workers_is_pinned(use_rte):
    result = ber_by_symbol_index(
        "QAM16-3/4", 300, trials=3, use_rte=use_rte,
        link=LinkConfig(seed=5, power_magnitude=0.1), n_workers=2)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.ber_per_symbol).tobytes())
    h.update(repr((result.mean_ber, result.crc_pass_rate,
                   result.side_bit_error_rate, result.trials,
                   result.scheme)).encode())
    assert h.hexdigest() == _BER_PINS[use_rte]
