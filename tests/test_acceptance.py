"""Release acceptance checks, one per shipped guarantee.

Every test prints a single `ACCEPTANCE <n> PASS|FAIL` verdict line
(outside capture, so it shows under plain `pytest -v`) and then asserts
the same condition, so a red line and a red test always travel together.
Timing bounds use wall-clock time on the machine running the suite.
"""

import copy
import json
import random
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from tollroute.cli import main as cli_main
from tollroute.keys import KeyPair, VerifiedLinks
from tollroute.payment import ChannelBook, Ledger, PaymentError
from tollroute.proof import make_chunk, sign_chunk, verify_chain
from tollroute.scenario import load_scenario, parse_scenario
from tollroute.simnet import Simulator, run_scenario
from tollroute.wire import DecodeError, Name, NodeAddr, decode_packet, encode_packet

from test_wire import random_packet

BUNDLED = Path(str(resources.files("tollroute") / "scenarios"))
ALL_SCENARIOS = ("fig1.scn", "fig6.scn", "diamond.scn", "churn.scn", "mesh10.scn")


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail}")


def run_bundled(name: str):
    return run_scenario(load_scenario(str(BUNDLED / name)))


def flows_by_status(report: dict) -> dict:
    return {f["name"]: f["status"] for f in report["flows"]}


class TestAcceptance:
    def test_1_single_path_discovery_with_priced_fib(self, capsys):
        t0 = time.perf_counter()
        sim = Simulator(load_scenario(str(BUNDLED / "fig1.scn")))
        result = sim.run()
        elapsed = time.perf_counter() - t0

        flow = result.report["flows"][0]
        route_ok = flow["route"] == [
            "02-00-00-00-00-0a",
            "02-00-00-00-00-0b",
            "02-00-00-00-00-0c",
        ]
        incomes = result.report["ledger"]["incomes"]
        decomposition_ok = (
            incomes.get("02-00-00-00-00-0b") == 3
            and incomes.get("02-00-00-00-00-0c") == 12
        )
        state = [line.strip() for line in sim.dump_state()]
        b_start = state.index("node 02-00-00-00-00-0b")
        fib_at_b = next(
            (
                line
                for line in state[b_start + 1 :]
                if line.startswith("fib prefix=/video/clip")
            ),
            "",
        )
        fib_ok = "hop=02-00-00-00-00-0c" in fib_at_b and "enabled=true" in fib_at_b

        ok = (
            flow["paths_found"] == 1
            and flow["price"] == 15
            and route_ok
            and decomposition_ok
            and fib_ok
            and elapsed < 1.0
        )
        verdict(
            capsys,
            1,
            ok,
            f"one path, price=15 (12+3), next hop at relay recorded, {elapsed:.2f}s",
        )
        assert flow["paths_found"] == 1
        assert flow["price"] == 15
        assert route_ok
        assert decomposition_ok, incomes
        assert fib_ok, fib_at_b
        assert elapsed < 1.0

    def test_2_per_hop_incomes_from_settled_ledger(self, capsys):
        t0 = time.perf_counter()
        result = run_bundled("fig6.scn")
        elapsed = time.perf_counter() - t0

        report = result.report
        incomes = report["ledger"]["incomes"]
        want = {
            "02-00-00-00-00-1a": -10,
            "02-00-00-00-00-1b": 5,
            "02-00-00-00-00-1c": 2,
            "02-00-00-00-00-1d": 3,
        }
        settled_all = (
            report["payments"]["settlements"] == report["payments"]["channels_opened"]
        )
        ok = (
            incomes == want
            and settled_all
            and report["ledger"]["conserved"] is True
            and elapsed < 1.0
        )
        verdict(
            capsys,
            2,
            ok,
            f"10u split 5/2/3 across hops after settlement, {elapsed:.2f}s",
        )
        assert incomes == want
        assert settled_all
        assert report["ledger"]["conserved"] is True
        assert elapsed < 1.0

    def test_3_all_three_forwarding_modes_in_one_run(self, capsys):
        report = run_bundled("diamond.scn").report
        modes = report["modes"]
        statuses = flows_by_status(report)
        ok = (
            modes["source_routed"] > 0
            and modes["min_cost"] > 0
            and modes["rediscovery"] > 0
            and all(s == "done" for s in statuses.values())
        )
        verdict(
            capsys,
            3,
            ok,
            "source-routed={source_routed} min-cost={min_cost} "
            "rediscovery={rediscovery}, all flows done".format(**modes),
        )
        assert modes["source_routed"] > 0, modes
        assert modes["min_cost"] > 0, modes
        assert modes["rediscovery"] > 0, modes
        assert all(s == "done" for s in statuses.values()), statuses

    def test_4_proof_chain_rejects_every_single_byte_mutation(self, capsys):
        t0 = time.perf_counter()
        path = tuple(
            NodeAddr.parse(f"02-00-00-00-00-{o}") for o in ("10", "20", "30")
        )
        # The keys record their signatures in the memo the checks use, as
        # in a run, so every mutation attacks the memo's fast path.
        memo = VerifiedLinks()
        keys = {addr: KeyPair.from_seed(addr, b"acceptance", memo) for addr in path}
        directory = {addr: key.public for addr, key in keys.items()}

        rng = random.Random(4)
        payload = rng.randbytes(4 * 1500)
        proof = make_chunk(keys[path[0]], 0, payload, 1500)
        for relay in path[1:]:
            proof = sign_chunk(keys[relay], proof, payload, memo)
        honest_ok = bool(verify_chain(proof, payload, path, directory, memo))

        mutations = 0
        false_valids = 0

        def check(mutated, mutated_payload=payload) -> None:
            nonlocal mutations, false_valids
            mutations += 1
            if verify_chain(mutated, mutated_payload, path, directory, memo):
                false_valids += 1

        def flip(blob: bytes, i: int) -> bytes:
            return blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1 :]

        for i in range(len(payload)):
            check(proof, flip(payload, i))
        for i in range(len(proof.digest)):
            check(replace(proof, digest=flip(proof.digest, i)))
        for h, hop in enumerate(proof.chain):
            fields = (
                ("signer", hop.signer.octets),
                ("signer_pub", hop.signer_pub),
                ("sig", hop.sig),
            )
            for field, blob in fields:
                for i in range(len(blob)):
                    raw = flip(blob, i)
                    value = NodeAddr(raw) if field == "signer" else raw
                    bad_hop = replace(hop, **{field: value})
                    bad_chain = proof.chain[:h] + (bad_hop,) + proof.chain[h + 1 :]
                    check(replace(proof, chain=bad_chain))
        elapsed = time.perf_counter() - t0

        ok = honest_ok and mutations >= 6000 and false_valids == 0 and elapsed < 60.0
        verdict(
            capsys,
            4,
            ok,
            f"{mutations} mutations, 0 false accepts, honest chunk valid, "
            f"{elapsed:.1f}s",
        )
        assert honest_ok
        assert mutations >= 6000, mutations
        assert false_valids == 0, false_valids
        assert elapsed < 60.0

    def test_5_signature_batching_without_forwarding_delay(self, capsys):
        argv = ["bench-pof", "--chunk-bytes", "96000", "--packet-bytes", "1500"]
        for group in (1, 4, 16, 64):
            argv += ["--group", str(group)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            if line.startswith("group="):
                kv = dict(part.split("=") for part in line.split())
                rows[int(kv["group"])] = kv
        factors_ok = all(rows[n]["factor"] == str(n) for n in (1, 4, 16, 64))
        ops_ok = all(
            int(rows[1]["ops_per_hop"]) == n * int(rows[n]["ops_per_hop"])
            for n in (1, 4, 16, 64)
        )

        cut_delays, sf_delays = {}, {}
        for packets in (4, 16, 64):
            for mode, delays in (("cutthrough", cut_delays), ("storeforward", sf_delays)):
                rx, tx = self._relay_times(mode, packets)
                delays[packets] = max(tx[seg] - rx[seg] for seg in rx)
        # Signing whole chunks must not reintroduce store-and-forward
        # latency: the signing relay still forwards each packet the tick
        # it arrives, while an actual buffering relay holds the first
        # packet for the rest of the chunk.
        cut_ok = all(d == 0 for d in cut_delays.values())
        sf_ok = all(sf_delays[n] == (n - 1) * 10_000 for n in (4, 16, 64))

        ok = factors_ok and ops_ok and cut_ok and sf_ok
        verdict(
            capsys,
            5,
            ok,
            "signing ops cut by exactly the group factor; relay delay flat "
            f"(cutthrough {sorted(set(cut_delays.values()))}us) vs linear "
            f"buffering ({[sf_delays[n] for n in (4, 16, 64)]}us)",
        )
        assert factors_ok, rows
        assert ops_ok, rows
        assert cut_ok, cut_delays
        assert sf_ok, sf_delays

    @staticmethod
    def _relay_times(mode: str, packets: int):
        consumer, relay, producer = (
            "02-00-00-00-05-0a",
            "02-00-00-00-05-0b",
            "02-00-00-00-05-0c",
        )
        doc = {
            "version": 1,
            "seed": 5,
            "duration_ms": 4000,
            "defaults": {"send_interval_ms": 10},
            "nodes": [
                {"addr": consumer, "cost": 0},
                {"addr": relay, "cost": 1, "relay_mode": mode},
                {
                    "addr": producer,
                    "cost": 2,
                    "serves": [
                        {
                            "prefix": "/bulk/data",
                            "packet_size": 600,
                            "packets_per_chunk": packets,
                            "chunks": 1,
                        }
                    ],
                },
            ],
            "links": [[consumer, relay], [relay, producer]],
            "schedule": [
                {
                    "at_ms": 100,
                    "action": "fetch",
                    "node": consumer,
                    "name": "/bulk/data",
                    "packets": packets,
                }
            ],
        }
        result = run_scenario(parse_scenario(doc, source="inline.scn"))
        assert result.report["flows"][0]["status"] == "done"
        rx, tx = {}, {}
        for ev in result.trace:
            if ev["node"] != relay or ev.get("kind") != "data" or ev.get("discovery"):
                continue
            seg = int(ev["name"].rsplit("=", 1)[1])
            if ev["event"] == "rx" and seg not in rx:
                rx[seg] = ev["t"]
            if ev["event"] == "tx" and seg not in tx:
                tx[seg] = ev["t"]
        return rx, tx

    def test_6_random_channel_storm_conserves_tokens(self, capsys):
        rng = random.Random(0xC6)
        parties = [NodeAddr.parse(f"02-00-00-00-06-{i:02x}") for i in range(1, 9)]
        ledger = Ledger()
        memo = VerifiedLinks()
        keys = {party: KeyPair.from_seed(party, b"storm", memo) for party in parties}
        directory = {party: key.public for party, key in keys.items()}
        book = ChannelBook(ledger, directory, memo)
        for party in parties:
            ledger.mint(party, 100_000)

        open_cids: list[bytes] = []
        snapshots: dict[bytes, object] = {}
        counts = {"open": 0, "update": 0, "settle": 0, "rejected": 0}
        stale_attempts = stale_rejections = 0
        now = 0

        for op_index in range(10_000):
            now += 1_000
            book.purge_expired(now)
            kind = rng.choices(("open", "update", "settle"), (15, 70, 15))[0]
            if kind != "open" and not open_cids:
                kind = "open"
            try:
                if kind == "open":
                    a, b = rng.sample(parties, 2)
                    cid = f"storm-{op_index:05d}".encode()
                    ledger.open_channel(a, b, rng.randint(50, 400), rng.randint(50, 400), cid)
                    open_cids.append(cid)
                elif kind == "update":
                    cid = rng.choice(open_cids)
                    state = book.state(cid)
                    payer = rng.choice((state.party_a, state.party_b))
                    tag = (Name.parse("/storm"), op_index.to_bytes(8, "big"))
                    offer = book.make_offer(
                        keys[payer], cid, rng.randint(1, 40), tag, now, lifetime_us=30_000
                    )
                    if rng.random() < 0.05:
                        # Simulated packet loss: the offer never reaches
                        # the payee and must dissolve without trace.
                        pass
                    else:
                        committed = book.commit_offer(
                            keys[state.peer_of(payer)], payer, offer
                        )
                        snapshots.setdefault(cid, committed)
                else:
                    cid = rng.choice(open_cids)
                    current = book.state(cid)
                    snapshot = snapshots.get(cid)
                    if snapshot is not None and snapshot.sequence < current.sequence:
                        stale_attempts += 1
                        with pytest.raises(PaymentError, match="stale-sequence"):
                            ledger.settle(snapshot, directory, memo)
                        stale_rejections += 1
                    ledger.settle(current, directory, memo)
                    open_cids.remove(cid)
                    book.pending.pop(cid, None)
                counts[kind] += 1
            except PaymentError:
                counts["rejected"] += 1
            assert ledger.conserved(), f"drift after op {op_index} ({kind})"

        for cid in open_cids:
            ledger.settle(book.state(cid), directory, memo)
        replayed = 0
        for cid, snapshot in snapshots.items():
            with pytest.raises(PaymentError):
                ledger.settle(snapshot, directory, memo)
            replayed += 1

        total = sum(ledger.balance(p) for p in parties)
        ok = (
            total == 8 * 100_000
            and ledger.conserved()
            and stale_attempts > 0
            and stale_rejections == stale_attempts
        )
        verdict(
            capsys,
            6,
            ok,
            f"10000 ops ({counts['open']} opens, {counts['update']} updates, "
            f"{counts['settle']} settles), tokens constant, "
            f"{stale_attempts + replayed} replays all rejected",
        )
        assert total == 8 * 100_000
        assert ledger.conserved()
        assert stale_attempts > 0 and stale_rejections == stale_attempts
        assert replayed == len(snapshots)

    def test_7_every_scenario_replays_byte_identical(self, capsys):
        diverged = []
        for name in ALL_SCENARIOS:
            first, second = run_bundled(name), run_bundled(name)
            same = (
                first.trace_bytes() == second.trace_bytes()
                and first.report_bytes() == second.report_bytes()
                and first.ledger_bytes() == second.ledger_bytes()
            )
            if not same:
                diverged.append(name)
        ok = not diverged
        verdict(
            capsys,
            7,
            ok,
            f"{len(ALL_SCENARIOS)} scenarios, trace/report/ledger byte-identical "
            f"across reruns" + (f"; diverged: {diverged}" if diverged else ""),
        )
        assert not diverged, diverged

    def test_8_codec_roundtrip_canonical_and_fuzz_safe(self, capsys):
        rng = random.Random(8)
        noncanonical = 0
        for _ in range(100_000):
            packet = random_packet(rng)
            buf = encode_packet(packet)
            decoded = decode_packet(buf)
            assert decoded == packet
            if encode_packet(decoded) != buf:
                noncanonical += 1

        crashes = 0
        fuzz_rounds = 50_000
        for i in range(fuzz_rounds):
            if i % 2 == 0:
                blob = rng.randbytes(rng.randint(0, 64))
            else:
                blob = bytearray(encode_packet(random_packet(rng)))
                blob[rng.randrange(len(blob))] ^= rng.randint(1, 255)
                blob = bytes(blob)
            try:
                decode_packet(blob)
            except DecodeError:
                pass
            except Exception:
                crashes += 1

        ok = noncanonical == 0 and crashes == 0
        verdict(
            capsys,
            8,
            ok,
            f"100000 packets round-tripped canonically, {fuzz_rounds} fuzz "
            f"decodes, {crashes} crashes",
        )
        assert noncanonical == 0
        assert crashes == 0
