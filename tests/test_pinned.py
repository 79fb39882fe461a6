"""Byte-level pins on every bundled scenario's run artifacts.

A refactor that claims to keep behaviour must keep these sha256 values:
report, trace and ledger bytes for each bundled scenario, and for a few
larger generated scenarios, under both payment modes.  A change that
alters behaviour on purpose updates the table and says why.

The simulator hands each receiver the packet object its sender sent,
and encodes only a frame that a corrupting link alters.  Every run here
also encodes and decodes each packet handed to the medium and checks
that it comes back as that packet, so the pins also prove that every
packet survives the wire.
"""

import hashlib
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from tollroute import simnet
from tollroute.scenario import load_scenario, parse_scenario
from tollroute.simnet import run_scenario
from tollroute.wire import decode_packet, encode_packet

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
        "1eaa0fe4e9d77267fefedc7981618f53377531eb3f8f9aaf7a4d138b7688be11",
        "03a7a39f4703fc21a39994c4b182ba721f79cd58ccef309c963b400778e1af1d",
        "95f97a5a95cf905d62cb4316743d2570d9d33b6ac6ab9574afe4cc331c2ece93",
    ),
    ("diamond.scn", "payall"): (
        "b556a6de38a6e9044429e3260ca7f827b1bcd65bbc10e9a24ee733d03d050a0a",
        "30e807b7da1d47a1a9ed6de0e5ebd089e44f8a3603f8512b7f971b7fc10b9c11",
        "147d59df48702210ac2d4a783707a3867c5373148dea83bec6c08f19d764ff67",
    ),
    ("churn.scn", "hopbyhop"): (
        "3f1bfcf064403b14b50ae12f6bf5ca21ec82ef17656f651e0ce14661ffae4327",
        "4e5df8de58d16ca51c7e2f15db33a75fc31af59491a730299f6abd64552973a1",
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




def _addr(hi: int, lo: int) -> str:
    return f"02-00-00-00-{hi:02x}-{lo:02x}"


# Every generated scenario uses a link latency equal to the send
# interval: a shorter interval pipelines two offers on one channel,
# which the relay rejects.
def _doc(seed, duration_ms, defaults, nodes, links, fetches):
    return {
        "version": 1,
        "seed": seed,
        "duration_ms": duration_ms,
        "defaults": {"link_latency_ms": 1, "send_interval_ms": 1, **defaults},
        "nodes": nodes,
        "links": links,
        "schedule": [
            {"at_ms": at, "action": "fetch", "node": node, "name": name, "packets": packets}
            for at, node, name, packets in fetches
        ],
    }


def _line(packets: int, drop_rate: float) -> dict:
    """Consumer, relay and producer (costs 1/2/3); 100 B packets, 8 per
    chunk.  A short Interest lifetime keeps a lossy run's retransmits
    inside the run."""
    consumer, relay, producer = _addr(1, 1), _addr(1, 2), _addr(1, 3)
    deposit = 6 * packets
    serve = {"prefix": "/line/bulk", "packet_size": 100, "packets_per_chunk": 8,
             "chunks": packets // 8}
    pairs = [[consumer, relay], [relay, producer]]
    return _doc(
        11, 3000,
        {"interest_lifetime_ms": 200, "channel_deposit": deposit,
         "account_balance": 2 * deposit},
        [{"addr": consumer, "cost": 1}, {"addr": relay, "cost": 2},
         {"addr": producer, "cost": 3, "serves": [serve]}],
        [pair + [1, drop_rate] for pair in pairs] if drop_rate else pairs,
        [(100, consumer, "/line/bulk", packets)],
    )


def _grid(n: int = 4) -> dict:
    """n x n four-neighbour grid, producer in one corner; two of the other
    corners, the farthest first, fetch one after the other, with content
    stores that hold two of the object's four chunks."""
    grid = [[_addr(0x10 + x, y) for y in range(n)] for x in range(n)]
    serve = {"prefix": "/grid/obj", "packet_size": 500, "packets_per_chunk": 8, "chunks": 4}
    nodes = []
    for x in range(n):
        for y in range(n):
            node = {"addr": grid[x][y], "cost": 1 + (x * n + y) % 3}
            if (x, y) == (0, 0):
                node["serves"] = [serve]
            nodes.append(node)
    links = [[grid[x][y], grid[x + 1][y]] for x in range(n - 1) for y in range(n)]
    links += [[grid[x][y], grid[x][y + 1]] for x in range(n) for y in range(n - 1)]
    return _doc(
        12, 2000,
        {"channel_deposit": 1000, "account_balance": 8000, "cs_capacity_bytes": 2 * 8 * 500},
        nodes, links,
        [(100, grid[n - 1][n - 1], "/grid/obj", 32), (900, grid[n - 1][0], "/grid/obj", 32)],
    )


# line-256-lossy ends with its flow still fetching, all 256 packets
# received: for two chunks the relay, missing a packet, passed the proof
# through, the proof-carrying Data was then lost, and the retransmit was
# answered from the relay's content store without a proof, so those
# chunks never verify.
GENERATED = {
    "line-512": lambda: _line(512, 0.0),
    "line-256-lossy": lambda: _line(256, 0.05),
    "grid-4x4": _grid,
}

# (generated scenario, payment mode) -> sha256 of (report, trace, ledger).
PINNED_GENERATED = {
    ("line-512", "hopbyhop"): (
        "5f926166e37115538f622866a5532a9e8f373cb2c986a04676ea398acd4257be",
        "8fc9c65f6d9c634811007308326523742cc23579a688e0bd7036c2c89127fcf1",
        "fb8084bc0f91dbce8642fafc781b23c91942c30fb55d7f8952c95343629d3ebc",
    ),
    ("line-512", "payall"): (
        "66cd74dca7d26b40a66c7007bdfe39cdecaebdfb5490a54f188e63dca0a2c35c",
        "43e67a80eb305da865a5413da25d9189ceb7ee16eb49614cd905b49293a9e55a",
        "bedbbfa3d13bc0eb063f0e823a003884bf8f85f353d08346f9c25a9e17319520",
    ),
    ("line-256-lossy", "hopbyhop"): (
        "e2c325cf2e7fd3520a39a4cb6916a1b525b0493552da9904ec3a658b4fd610b2",
        "58fc3a117170de9b3d39584d6fba0edd24ab1699eff2d22d1d8e879c89d801da",
        "eed78618068e872fa25846d9e03e5e8a0e7802afbef5baed0925673517b1d648",
    ),
    ("line-256-lossy", "payall"): (
        "9beeaf52ab7b74fc2756594bbbf0c3b34c9b8092e21930453f0367fe7af2e885",
        "f5e46aa9fbae7f2e1a371ddb7f7f43879cb9053e55b1f834abcb7c2d5d09f209",
        "6199b06918b5f9a15b28f36a6091809ed9977db07304f48120cb6bf79edd9aca",
    ),
    ("grid-4x4", "hopbyhop"): (
        "0e6d2509ee8edde7112542c6ee2d136059e76ef2069cec5f1562821c0c855208",
        "c7056250fbf02597c26fca6d5edf4b2a856d36a61b144fcffd9106eec46e6d7f",
        "d9451b428c768d64622e3c7fe0a6782769695189f75978d29a316c73eb40a2d1",
    ),
    ("grid-4x4", "payall"): (
        "7a3fc328c4545f600ae61c6b40889e0c92f37bf947cfe280432c194cae794386",
        "33d251292e560050f7b5d83abe56ccab380f52f41947688b0957503963049ecc",
        "985d9a527600ca06b4817109917c3743268ad8786019ff4984a01a3ef25d7632",
    ),
}


@pytest.fixture(autouse=True)
def every_sent_packet_survives_the_wire(monkeypatch):
    transmit = simnet.Simulator.transmit

    def check_and_transmit(sim, src, action):
        decoded = decode_packet(encode_packet(action.packet))
        assert decoded == action.packet and type(decoded) is type(action.packet)
        transmit(sim, src, action)

    monkeypatch.setattr(simnet.Simulator, "transmit", check_and_transmit)


def _digests(result) -> tuple[str, str, str]:
    return tuple(
        hashlib.sha256(blob).hexdigest()
        for blob in (result.report_bytes(), result.trace_bytes(), result.ledger_bytes())
    )


@pytest.mark.parametrize("name,mode", sorted(PINNED))
def test_artifact_bytes_pinned(name, mode):
    scenario = load_scenario(str(BUNDLED / name))
    scenario = replace(scenario, defaults=replace(scenario.defaults, payment_mode=mode))
    assert _digests(run_scenario(scenario)) == PINNED[(name, mode)]


@pytest.mark.parametrize("name,mode", sorted(PINNED_GENERATED))
def test_generated_bytes_pinned(name, mode):
    doc = GENERATED[name]()
    doc["defaults"]["payment_mode"] = mode
    scenario = parse_scenario(doc, source=f"{name}.scn")
    assert _digests(run_scenario(scenario)) == PINNED_GENERATED[(name, mode)]


def test_every_bundled_scenario_is_pinned():
    bundled = {p.name for p in BUNDLED.glob("*.scn")}
    assert {name for name, _mode in PINNED} == bundled
    assert set(PINNED_GENERATED) == {
        (name, mode) for name in GENERATED for mode in ("hopbyhop", "payall")
    }
