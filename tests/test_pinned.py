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
        "86bb497dd738a709ecefb5e3a3e7e30b4a4118e747a0c845240150be4c8cd09c",
    ),
    ("fig1.scn", "payall"): (
        "35a67e9931cbf7847c79b2ba212096e4a481868b44d14b2d86eb0f3a3f5c1fbd",
        "3d27ef8ac949c22daabfe61e5f8f993cad9f656fe56bcc1e62c6c61e39b7601b",
        "ab67b2d210972676a4a16bf8e7abded415b646cf6e2afa43d2109436badd5553",
    ),
    ("fig6.scn", "hopbyhop"): (
        "c89a203a404d440b40afe7e56b2702d84039b5c88273d7d5a8281e3e93c3f71e",
        "46df360114f75e5284f4fddee0f5d1c04c2f86b5dd72af2ef8986092bf8e84da",
        "c4705b8c7a0e332922abb72f0e74ce1e0705b5d7c04b9a30f3f5c8dc39f56c0f",
    ),
    ("fig6.scn", "payall"): (
        "99fc8f60da2044b70dd30908b3c02866f747106487467644e682a6c189884daf",
        "c585b2c12240ab9422d634adbe3be9627a1ab2724675e8dcf46229d170227a9b",
        "c8d2c3578c533bc0616c6b70f2b2965ecfa783e67d13ce625399db567fc30728",
    ),
    ("diamond.scn", "hopbyhop"): (
        "1eaa0fe4e9d77267fefedc7981618f53377531eb3f8f9aaf7a4d138b7688be11",
        "03a7a39f4703fc21a39994c4b182ba721f79cd58ccef309c963b400778e1af1d",
        "dabbc88f8cd80f3e62ec30536da764fe241360b59b4b870321e905886c2fbb9b",
    ),
    ("diamond.scn", "payall"): (
        "b556a6de38a6e9044429e3260ca7f827b1bcd65bbc10e9a24ee733d03d050a0a",
        "30e807b7da1d47a1a9ed6de0e5ebd089e44f8a3603f8512b7f971b7fc10b9c11",
        "8cbc9858ca2f45c47d31c7a513f30930735f30ce9f1f28545513a5f01e96c109",
    ),
    ("churn.scn", "hopbyhop"): (
        "2fd78d5ba341dd46db70bceb37d33feb6a7ea315a86ae37806da377254cc163a",
        "bc6e659c0c48f279217a908edbe9c352c06de4660adf120c288999d3020fb343",
        "a709d27ef3925b44c24b04e1d53251664f74cbf127bfa8eebb8e514c734f21e2",
    ),
    ("churn.scn", "payall"): (
        "f74b8a07b4225eb80646d59a1cc5e886cfe107de439f463a5c56bbb09253cf47",
        "6b463881ae3617f987417193cb2402f76d32ff53ab221391b8abe4bee9daf968",
        "3c8ba63bdce4fbaa80e92e1aeed1a4777aeff29dec843c8298375c03c54b7ddc",
    ),
    ("mesh10.scn", "hopbyhop"): (
        "aafe307b060ca68c8e06276d2f4e7553310f58303386ff00dabb343737d21526",
        "7969bd72ea0ad7e32c7f8a6022cf14dab20f964e52eec2a5a9e7cb430e1488dc",
        "48ea03c5a5ee35efe6266c978fdedc62f2d1309164ef49d6697e01c7abb86ce2",
    ),
    ("mesh10.scn", "payall"): (
        "316c6115f8bdf75d11d7186fd34fbcfbc6feb4c5e2728a629f8f98ff91fb681e",
        "88f6db404460e3206c9b170f8762af3f5d87b10813266ddd1c0332d1bd41dce9",
        "33228408d3f6ac4cae0e51f73b439d73d6b0c222ed30b2178132145ba61a5a92",
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


def _line(packets: int, *rates: float) -> dict:
    """Consumer, relay and producer (costs 1/2/3); 100 B packets, 8 per
    chunk.  `rates` are both links' drop rate and then corrupt rate.  A
    short Interest lifetime keeps a lossy run's retransmits inside the
    run."""
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
        [pair + [1, *rates] for pair in pairs] if rates else pairs,
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


# line-256-lossy runs on the route through the relay to the producer,
# priced 5, and ends with its flow still fetching, all 256 packets
# received: for two chunks the relay, missing a packet, passed the proof
# through, the proof-carrying Data was then lost, and the retransmit was
# answered from the relay's content store without a proof, so those
# chunks never verify.
# line-256-corrupt alters about one frame in twenty on each link, and
# the relay caches an altered payload before any proof check (the
# poisoned-store FOUND: line in CHANGES.md), so a chunk that fails its
# check is refetched from that store and fails again.  Under hop-by-hop
# an altered offer draws an insufficient-payment Nack, and each Nack
# sends the consumer back to discovery; the run ends with the flow
# discovering, 163 packets received, after a link altered the
# producer's answer to its last discovery.  Under pay-all the flow ends
# still fetching, all 256 packets received: a refetch answered from the
# relay's store carries no proof when the relay passed that chunk's
# proof through unsigned (the unsigned pass-through FOUND: line), so
# those chunks never verify.
GENERATED = {
    "line-512": lambda: _line(512),
    "line-256-lossy": lambda: _line(256, 0.05),
    "line-256-corrupt": lambda: _line(256, 0.0, 0.05),
    "grid-4x4": _grid,
}

# (generated scenario, payment mode) -> sha256 of (report, trace, ledger).
PINNED_GENERATED = {
    ("line-512", "hopbyhop"): (
        "5f926166e37115538f622866a5532a9e8f373cb2c986a04676ea398acd4257be",
        "8fc9c65f6d9c634811007308326523742cc23579a688e0bd7036c2c89127fcf1",
        "1aa222fed3e2a3ea43ed1e945e9345ec58b56bd22463a75551bb7ec51a11b253",
    ),
    ("line-512", "payall"): (
        "66cd74dca7d26b40a66c7007bdfe39cdecaebdfb5490a54f188e63dca0a2c35c",
        "43e67a80eb305da865a5413da25d9189ceb7ee16eb49614cd905b49293a9e55a",
        "b2236e4b8cd2e173809f6c63f02da444930b488c66bafa759a7467fdb6cfd19a",
    ),
    ("line-256-lossy", "hopbyhop"): (
        "fb482f3ce9252257dcdbbb75ba990b1990c0bbbd14f13decbf13402dcfdb5958",
        "66fb6a17c9d97f0b5b2b5e5f856fb080b06b9c6b9e6900dc0ba40d280e53b30e",
        "c60bf44631b6421f103614c724119b5df66cbf054a40cb0473b14074e6f86129",
    ),
    ("line-256-lossy", "payall"): (
        "b18b5181ae14965e70d4723e6e240ce7fc275049cda1fc0b37d1b8e1da58f24d",
        "0c228837ba6a7d728b8e18d1344e2a27f5caa8c199018d7784a7cbe1af39d9ad",
        "71e96ce271e7044852741c3f26f1e84e280ffb2aa911fde2a5956dd96e80ff87",
    ),
    ("line-256-corrupt", "hopbyhop"): (
        "0bb91802f72d95a26835698e3077d624f55d14f48097525f609c520f3f84e361",
        "74db458c73267790563560d81443b45b38e2a3468c1b920595467b8701726b8a",
        "bae7871c8c24e41e57c9173b2b299461c650b7ae38d565d89425702514f1bc56",
    ),
    ("line-256-corrupt", "payall"): (
        "a64b59884843349e76d08225ebc2bc8cdbb71bbc87d79715b70b927ed08b6dde",
        "c6e9186d6623934baaae5abc3f0143faa26efc8fbf11368a4b8b20e44b4852ec",
        "644ba13922e8e819b3565ac08e7df6d9badc75167fb9fd6d61d2fa6483a422b2",
    ),
    ("grid-4x4", "hopbyhop"): (
        "0e6d2509ee8edde7112542c6ee2d136059e76ef2069cec5f1562821c0c855208",
        "c7056250fbf02597c26fca6d5edf4b2a856d36a61b144fcffd9106eec46e6d7f",
        "00fae2447988fad8079c5f51692e7a11b7c947546e8f42f7e899ef2e5b8dea1c",
    ),
    ("grid-4x4", "payall"): (
        "7a3fc328c4545f600ae61c6b40889e0c92f37bf947cfe280432c194cae794386",
        "33d251292e560050f7b5d83abe56ccab380f52f41947688b0957503963049ecc",
        "060ad40e2df0f6baaf4490f93d4b798d0bac199c572e97623b6acf1ef99d19d7",
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
