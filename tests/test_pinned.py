"""Byte-level pins on every bundled scenario's run artifacts.

A refactor that claims to keep behaviour must keep these sha256 values:
report, trace and ledger bytes for each bundled scenario under both
payment modes.  A change that alters behaviour on purpose updates the
table and says why.
"""

import hashlib
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from tollroute.scenario import load_scenario
from tollroute.simnet import run_scenario

BUNDLED = Path(str(resources.files("tollroute") / "scenarios"))

# (scenario, payment mode) -> sha256 of (report, trace, ledger) bytes.
PINNED = {
    ("fig1.scn", "hopbyhop"): (
        "6915f617f72a1877e5f6be60761824ff9bf6ec3f64d1135024686e4e16bdebc4",
        "67029041c636a37bf0e7fe79f711bd3164a2aa9fca869623ad0a58eb8c51db07",
        "fd9e272487e897d7c33ce69090330ff4030e81aafb44b152dbde2b5c5eb8594c",
    ),
    ("fig1.scn", "payall"): (
        "35a67e9931cbf7847c79b2ba212096e4a481868b44d14b2d86eb0f3a3f5c1fbd",
        "3d27ef8ac949c22daabfe61e5f8f993cad9f656fe56bcc1e62c6c61e39b7601b",
        "3674c4cdc7b38250b31f2336afecdc578236751f76159d34e31468d3ac85c572",
    ),
    ("fig6.scn", "hopbyhop"): (
        "c89a203a404d440b40afe7e56b2702d84039b5c88273d7d5a8281e3e93c3f71e",
        "46df360114f75e5284f4fddee0f5d1c04c2f86b5dd72af2ef8986092bf8e84da",
        "80ca3f5e6cc5c84af3b0dd8b535e50db072187e343eed7748b4ad63f943fef7e",
    ),
    ("fig6.scn", "payall"): (
        "99fc8f60da2044b70dd30908b3c02866f747106487467644e682a6c189884daf",
        "c585b2c12240ab9422d634adbe3be9627a1ab2724675e8dcf46229d170227a9b",
        "b6073aaaf32c3d5e690de0bfc2bf76ef09fcdf261642affeb7c3f7184df07fe3",
    ),
    ("diamond.scn", "hopbyhop"): (
        "cf2e7847599c29a975be076509fc42baf0a2862ebc1579bc743ab8d4404fca38",
        "e8b9f9837f0c8dca04b306f19dcff408d4236adef2aadb78493a1e7c7594e302",
        "95f97a5a95cf905d62cb4316743d2570d9d33b6ac6ab9574afe4cc331c2ece93",
    ),
    ("diamond.scn", "payall"): (
        "b556a6de38a6e9044429e3260ca7f827b1bcd65bbc10e9a24ee733d03d050a0a",
        "30e807b7da1d47a1a9ed6de0e5ebd089e44f8a3603f8512b7f971b7fc10b9c11",
        "147d59df48702210ac2d4a783707a3867c5373148dea83bec6c08f19d764ff67",
    ),
    ("churn.scn", "hopbyhop"): (
        "04b99fd762ae547260f36cbec523ab836fa3bf7e2343a0d070e93ee42da49a82",
        "5b316f737119fd5bcf640a0bc5d26c64b8a81e39629c6235300e28f970dc7967",
        "d792e4bb9cb92f4b87c4359407dfd49f9eafdaaf2577edb039c07ee6c9d40832",
    ),
    ("churn.scn", "payall"): (
        "98a19d552f15a615e2ac8f3e97f70c7667a1a7ad59b49c627e32ac2c989bfaa3",
        "4a61a4aa3be1d753628696190535aa36f1afcddff9ce0d5ac497d9cd540b9806",
        "440974d637a3773708ad898b5f1c06ff19daf802e99ffe2fe4c609998f70d4e1",
    ),
    ("mesh10.scn", "hopbyhop"): (
        "aafe307b060ca68c8e06276d2f4e7553310f58303386ff00dabb343737d21526",
        "7969bd72ea0ad7e32c7f8a6022cf14dab20f964e52eec2a5a9e7cb430e1488dc",
        "01d377e0eda75617f37474eef07f85f775c4f326a3205cb4ede9432e014492a6",
    ),
    ("mesh10.scn", "payall"): (
        "316c6115f8bdf75d11d7186fd34fbcfbc6feb4c5e2728a629f8f98ff91fb681e",
        "88f6db404460e3206c9b170f8762af3f5d87b10813266ddd1c0332d1bd41dce9",
        "366b5258615b0a4f12a7a44f825f0870e3f44f3fec436988a47215fe383d0793",
    ),
}


@pytest.mark.parametrize("name,mode", sorted(PINNED))
def test_artifact_bytes_pinned(name, mode):
    scenario = load_scenario(str(BUNDLED / name))
    scenario = replace(scenario, defaults=replace(scenario.defaults, payment_mode=mode))
    result = run_scenario(scenario)
    digests = tuple(
        hashlib.sha256(blob).hexdigest()
        for blob in (result.report_bytes(), result.trace_bytes(), result.ledger_bytes())
    )
    assert digests == PINNED[(name, mode)]


def test_every_bundled_scenario_is_pinned():
    bundled = {p.name for p in BUNDLED.glob("*.scn")}
    assert {name for name, _mode in PINNED} == bundled
