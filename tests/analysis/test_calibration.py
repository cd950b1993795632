"""``calibrate_error_model``: the fitted curve and its result cache."""

from pathlib import Path

import pytest

import repro.analysis.calibration as calibration
from repro.analysis.phy_experiments import LinkConfig
from repro.faults import FaultPlan, FaultSpec
from repro.runtime.cache import ResultCache

SMALL = dict(payload_bytes=400, trials=2)


@pytest.fixture
def phy_calls(tmp_path, monkeypatch):
    """A private cache directory, and a count of PHY measurement runs."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(
        calibration, "_CACHE",
        ResultCache(directory=str(tmp_path), namespace="calibration"),
    )
    calls = []
    measure = calibration.ber_by_symbol_index

    def counted(*args, **kwargs):
        calls.append(kwargs.get("use_rte"))
        return measure(*args, **kwargs)

    monkeypatch.setattr(calibration, "ber_by_symbol_index", counted)
    return calls


def _stored_entries():
    """Keys in the memory tier, and entry files in the disk tier."""
    cache = calibration._CACHE
    return list(cache._memory), list(Path(cache.directory).glob("*.json"))


def test_fitted_model_is_a_valid_curve(phy_calls):
    model = calibration.calibrate_error_model(**SMALL)
    assert 0 < model.base_symbol_error < 1
    assert model.bias_growth >= 0
    assert phy_calls == [False, True]  # standard, then RTE


def test_second_cached_call_skips_the_phy(phy_calls):
    first = calibration.calibrate_error_model(**SMALL)
    measured = len(phy_calls)
    second = calibration.calibrate_error_model(**SMALL, cache=True)
    assert second == first
    assert len(phy_calls) == measured


def test_cache_false_recomputes(phy_calls):
    cached = calibration.calibrate_error_model(**SMALL)
    measured = len(phy_calls)
    recomputed = calibration.calibrate_error_model(**SMALL, cache=False)
    assert len(phy_calls) == measured + 2
    assert recomputed == cached


def test_fault_plan_links_are_never_stored(phy_calls):
    plan = FaultPlan(specs=(FaultSpec(kind="ack_loss", probability=0.1),))
    link = LinkConfig(fault_plan=plan)
    calibration.calibrate_error_model(**SMALL, link=link)
    assert _stored_entries() == ([], [])
    calibration.calibrate_error_model(**SMALL, link=link)
    assert len(phy_calls) == 4
