"""Pinned MAC engine outputs, plus the block-draw helper against its oracle.

Every case runs one short scenario and hashes its whole
``ScenarioResult``. The digests pin the engine's exact trajectory: a
change to the order or number of uniforms drawn from any stream, to a
protocol's decisions or to a fault injector shows up as a digest change.
The set covers every protocol in ``PROTOCOLS`` under VoIP (with uplink)
and CBR traffic, one fault plan each for ACK loss, A-HDR corruption and
bursty loss, and ``Carpool-fallback`` under A-HDR faults. Two-AP VoIP
cases run ``WiFox`` (one AP's priority adapts while the other contends)
and ``Carpool-fallback`` under A-HDR faults (demote and re-promote with a
second AP polling); ``Carpool-mixed`` runs CBR with background uplink and
half its stations legacy, and ``Carpool-fair`` runs downlink-only CBR on
one AP.

The property test checks the engine's block-buffered error draws against
the scalar reference ``model.draw_subframe`` on an identically seeded
stream, for both built-in error models.
"""

import dataclasses
import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.mac import PROTOCOLS
from repro.mac.engine import _BlockErrorDraws
from repro.mac.error_model import BerCurveErrorModel, FixedFerModel
from repro.mac.fairness import FairCarpoolProtocol
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.mac.protocols.base import SubframeTx
from repro.mac.scenarios import CbrScenario, VoipScenario
from repro.util.rng import RngStream

_NOISY = BerCurveErrorModel(base_symbol_error=2e-3)


def _voip():
    return VoipScenario(num_stations=4, num_aps=1, duration=1.0, seed=7,
                        include_uplink=True, error_model=_NOISY)


def _cbr():
    return CbrScenario(num_stations=6, num_aps=1, duration=2.0, seed=7,
                       frame_bytes=1200, with_background=False)


def _faulted(kind, probability, num_aps=1, duration=0.5):
    plan = FaultPlan(specs=(
        FaultSpec(kind=kind, start=0.0, stop=5.0, probability=probability),
    ))
    return VoipScenario(num_stations=3, num_aps=num_aps, duration=duration,
                        seed=7, fault_plan=plan)


def _two_ap_voip():
    return VoipScenario(num_stations=4, num_aps=2, duration=1.0, seed=7,
                        include_uplink=True, error_model=_NOISY)


def _two_ap_fallback():
    return _faulted("ahdr_corruption", 0.5, num_aps=2, duration=1.0)


def _cbr_with_background():
    return CbrScenario(num_stations=6, num_aps=1, duration=2.0, seed=7,
                       frame_bytes=1200, with_background=True)


_MIXED = functools.partial(CarpoolMixedProtocol,
                           carpool_stations=("sta0", "sta2", "sta4"))


def _cases():
    """Case name -> (scenario factory, protocol class or factory)."""
    cases = {}
    for protocol in sorted(PROTOCOLS):
        cases[f"voip-{protocol}"] = (_voip, PROTOCOLS[protocol])
        cases[f"cbr-{protocol}"] = (_cbr, PROTOCOLS[protocol])
    for kind, probability in (("ack_loss", 0.3), ("ahdr_corruption", 0.5),
                              ("mac_burst", 0.5)):
        cases[f"fault-{kind}"] = (
            lambda kind=kind, p=probability: _faulted(kind, p),
            PROTOCOLS["Carpool"])
    cases["fallback-ahdr_corruption"] = (
        lambda: _faulted("ahdr_corruption", 0.5), PROTOCOLS["Carpool-fallback"])
    cases["voip-2ap-WiFox"] = (_two_ap_voip, PROTOCOLS["WiFox"])
    cases["fallback-2ap-ahdr_corruption"] = (
        _two_ap_fallback, PROTOCOLS["Carpool-fallback"])
    cases["cbr-Carpool-mixed-half-legacy"] = (_cbr_with_background, _MIXED)
    cases["cbr-Carpool-fair"] = (_cbr, FairCarpoolProtocol)
    return cases


CASES = _cases()

PINS = {
    "cbr-802.11":
        "3b13c34116259c2903584ba141d6300593c240d824fadac89a2326dcffd7e678",
    "cbr-A-MPDU":
        "728d6b8f412dafeb918ab20151e66dd0b5830f54a5b0e86a988a5be5978833f4",
    "cbr-A-MSDU":
        "4ff7988f680dbdb9d8d738c94fe136e670dc82d1ca6ca8ae085a5e1cfb257680",
    "cbr-Carpool":
        "e36282dc92576dcb9cba4043667a54b2d7a39359c38e3ad9a6f638150e5a54e4",
    "cbr-Carpool-fair":
        "ab539436a568ad4ceb6c678f806b7c88fc38ebbb85613d72edcc0cae7bafcacc",
    "cbr-Carpool-mixed-half-legacy":
        "3249fd48bc28708a41d8302b54cf944af26ff62d3252e895bdd164c1eb93043f",
    "cbr-Carpool-fallback":
        "e67188facc418513701fbb3500c79ad3318fd757696e55f8992474800b16bf01",
    "cbr-MU-Aggregation":
        "25f512c7affd3160932e13ea00909297ca15c7538e1042dff703326e5a684cba",
    "cbr-WiFox":
        "cae79c5d4dbb59835bc72dfdfb643173ef44cafa49f0915cee4d6ef103d0d3ce",
    "fallback-ahdr_corruption":
        "7c357bc49e2edd35a5a3022026d2b679d828b6c8cdae1ecc609e912356de4530",
    "fallback-2ap-ahdr_corruption":
        "2be7d2de486c04eaa2ea267f375f7221cf57350ba02aa49c7a9517c6f5b9471f",
    "fault-ack_loss":
        "10f5989a31a08d36f668ee4e9337509673b97453296aa1ab28326f1d573495bc",
    "fault-ahdr_corruption":
        "5468e6471a33ab16dd106e51a7493629ab5b2853bfb39173faad75ff688f6278",
    "fault-mac_burst":
        "a4458c47ff0c9eb6fa675bd8cc72c92dbbf25fe97c751d82bf65476813476936",
    "voip-2ap-WiFox":
        "a9de00827c29d120fb0403d4beed37258dea159e6af95214c1d73bf9cdddc6d2",
    "voip-802.11":
        "eb3a45af5128ac65154dd8a16724032dd20ecba313182813aeb83205ab0e3264",
    "voip-A-MPDU":
        "e3aa01fe7b4fb9d0775bddf1ccd823e6dc03b52bfb2a644419963bc9e91eadaa",
    "voip-A-MSDU":
        "2eb54c47af9ae9c8b1595a3f5ea757128e0d13bec24518e325e99bb5296b09b5",
    "voip-Carpool":
        "1f7732b64af3002040688bdc71345da660b7c4a0464e1b251b947188d3810c83",
    "voip-Carpool-fallback":
        "f577365b98d7a92d93cefd394c67b8eea4047f64f5e630184b27649a82a41774",
    "voip-MU-Aggregation":
        "f8af6e2e12937d9002baaa46ae0cffd5b0c5106651e1b434872b85da4f39aa3f",
    "voip-WiFox":
        "04fd703b3a15ba19d2a0e0409b54da0e295e29e84635e6ca59fe04b886c19814",
}


def result_digest(result) -> str:
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_pins_cover_every_case():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_result_matches_pin(name):
    build, protocol = CASES[name]
    result = build().run(protocol)
    assert result_digest(result) == PINS[name]


def test_two_ap_fallback_case_repromotes():
    result = _two_ap_fallback().run(PROTOCOLS["Carpool-fallback"])
    assert result.demotions > 0
    assert result.repromotions > 0


_subframe = st.builds(
    lambda start, n, rte: SubframeTx(destination="sta0", frames=[],
                                     start_symbol=start, n_symbols=n, rte=rte),
    st.integers(0, 400), st.integers(1, 120), st.booleans(),
)


@pytest.mark.parametrize("model", [
    BerCurveErrorModel(base_symbol_error=2e-3),
    FixedFerModel(fer=0.3),
], ids=["ber-curve", "fixed-fer"])
@settings(max_examples=25, deadline=None)
@given(
    transmissions=st.lists(st.lists(_subframe, max_size=12), min_size=1,
                           max_size=40),
    block=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 1),
)
def test_block_draws_equal_sequential_scalar_draws(model, transmissions,
                                                   block, seed):
    draws = _BlockErrorDraws(model, RngStream(seed).child("errors"),
                             block=block)
    reference = RngStream(seed).child("errors")
    for subframes in transmissions:
        expected = [
            model.draw_subframe(reference, sf.start_symbol, sf.n_symbols,
                                sf.rte)
            for sf in subframes
        ]
        assert draws.draw(subframes) == expected


def test_block_draws_cross_the_default_block():
    model = BerCurveErrorModel(base_symbol_error=2e-3)
    subframes = [SubframeTx(destination="sta0", frames=[],
                            start_symbol=i % 50, n_symbols=30,
                            rte=bool(i % 3)) for i in range(700)]
    draws = _BlockErrorDraws(model, RngStream(3).child("errors"))
    reference = RngStream(3).child("errors")
    for _ in range(3):  # 2100 draws: two refills of the 1024 block
        expected = [model.draw_subframe(reference, sf.start_symbol,
                                        sf.n_symbols, sf.rte)
                    for sf in subframes]
        assert draws.draw(subframes) == expected
