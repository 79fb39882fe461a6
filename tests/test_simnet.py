"""Simulator behavior: determinism, loss and churn handling, relay
buffering modes, payment modes, and the post-run invariant auditor."""

import copy
import functools
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from tollroute import forwarding, payment, proof, simnet
from tollroute import scenario as scenario_module
from tollroute.audit import audit_run
from tollroute.keys import KeyPair
from tollroute.scenario import ScenarioError, content_bytes, load_scenario, parse_scenario
from tollroute.simnet import Simulator, run_scenario
from tollroute.wire import (
    Data, HopInfo, Interest, Nack, NackReason, Name, NodeAddr, RouteStack, encode_packet,
)

BUNDLED = Path(str(resources.files("tollroute") / "scenarios"))

A = "02-00-00-00-00-aa"
R = "02-00-00-00-00-ab"
P = "02-00-00-00-00-ac"


def line_doc(**overrides):
    """3-node line: consumer A, relay R (cost 1), producer P (cost 2)."""
    doc = {
        "version": 1,
        "seed": 7,
        "duration_ms": 3000,
        "defaults": {"send_interval_ms": 10},
        "nodes": [
            {"addr": A, "cost": 0},
            {"addr": R, "cost": 1},
            {
                "addr": P,
                "cost": 2,
                "serves": [
                    {
                        "prefix": "/line/data",
                        "packet_size": 600,
                        "packets_per_chunk": 4,
                        "chunks": 4,
                    }
                ],
            },
        ],
        "links": [[A, R], [R, P]],
        "schedule": [
            {"at_ms": 100, "action": "fetch", "node": A, "name": "/line/data", "packets": 8}
        ],
    }
    doc.update(copy.deepcopy(overrides))
    return doc


def run_doc(doc):
    return run_scenario(parse_scenario(copy.deepcopy(doc), source="inline.scn"))


def flow_of(result):
    assert len(result.report["flows"]) == 1
    return result.report["flows"][0]


def paid_channels(records):
    """The channels a ledger settles at other balances than their open funded."""
    opened = {rec["channel"]: (rec["deposit_a"], rec["deposit_b"])
              for rec in records if rec["op"] == "open"}
    return {rec["channel"] for rec in records if rec["op"] == "settle"
            and (rec["balance_a"], rec["balance_b"]) != opened[rec["channel"]]}


class TestDeterminism:
    def test_identical_runs_yield_identical_artifacts(self):
        doc = line_doc()
        first, second = run_doc(doc), run_doc(doc)
        assert first.trace_bytes() == second.trace_bytes()
        assert first.report_bytes() == second.report_bytes()
        assert first.ledger_bytes() == second.ledger_bytes()

    def test_seed_changes_nonces_but_not_outcome(self):
        base = run_doc(line_doc())
        reseeded = run_doc(line_doc(seed=8))
        assert base.trace_bytes() != reseeded.trace_bytes()
        assert flow_of(base)["status"] == flow_of(reseeded)["status"] == "done"

    def test_event_time_is_integral_microseconds(self):
        result = run_doc(line_doc())
        assert all(isinstance(ev["t"], int) for ev in result.trace)

    def test_json_lines_match_one_dumps_per_record(self):
        payall = line_doc()
        payall["defaults"]["payment_mode"] = "payall"
        records = run_doc(line_doc()).trace + run_doc(payall).ledger_records + [
            {"z": [1, 2.5, None], "a": {"y": True, "b": "é\u2028\n"}, "m": -0.0},
            {},
            {2: "two", True: "yes", False: [False]},
            {"big": 2**70, "neg": -(2**70)},
            {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
            {"hops": [{"b": 1, "a": [{}]}, {"c": None}]},
            {"näme": "/vidéo", "\u6f22": 1},
        ]
        expected = b"".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            for rec in records
        )
        assert simnet._json_lines(records) == expected
        assert simnet._json_lines([]) == b""

    def test_json_lines_refuse_an_unserializable_value_as_json_does(self):
        record = {"ok": 1, "bad": {1, 2}}
        with pytest.raises(TypeError) as ours:
            simnet._json_lines([record])
        with pytest.raises(TypeError) as theirs:
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert str(ours.value) == str(theirs.value) == "Object of type set is not JSON serializable"


class TestKeyDirectory:
    def test_honest_run_verifies_no_signature_by_hand(self, monkeypatch):
        # Every signature of an honest run was made by one of its keys,
        # which recorded it in the run's memo, so no check reaches Ed25519.
        real = []
        monkeypatch.setattr(proof, "verify", lambda *link: real.append(("proof", link)))
        monkeypatch.setattr(payment, "verify", lambda *link: real.append(("payment", link)))
        per_run = []
        for _ in range(2):
            result = run_scenario(load_scenario(str(BUNDLED / "mesh10.scn")))
            assert [f["status"] for f in result.report["flows"]] == ["done"] * 10
            per_run.append([f["signatures_verified"] for f in result.report["flows"]])
        assert real == []
        # Ten consumers each check eight chain links.
        assert per_run[0] == per_run[1] == [8] * 10

    def test_relay_memo_cannot_vouch_for_a_substituted_key(self, monkeypatch):
        # The producer's link is signed under a key that is not its own.
        # The relay checks it against that embedded key, so the link
        # verifies and enters the memo; the consumer checks the directory.
        real_make_chunk = forwarding.make_chunk
        impostor = KeyPair.from_seed(NodeAddr.parse(P), b"impostor")
        monkeypatch.setattr(
            forwarding, "make_chunk", lambda _key, *args: real_make_chunk(impostor, *args)
        )
        sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
        result = sim.run()
        assert any(ev["event"] == "chunk_signed" and ev["node"] == R for ev in result.trace)
        assert any(p == impostor.public for (p, _m), _s in sim.keys._seen.items())
        faults = [ev["fault"] for ev in result.trace if ev["event"] == "chunk_verify_failed"]
        assert faults and set(faults) == {"unexpected-signer"}
        assert flow_of(result)["fail_reason"] == "proof"


    def test_two_runs_of_one_scenario_share_no_memo(self):
        """Each Simulator keeps its own memos, so a second run of the same
        scenario in one process starts cold and makes the same artifacts."""
        scenario = load_scenario(str(BUNDLED / "diamond.scn"))
        first, second = Simulator(scenario), Simulator(scenario)
        one = first.run()
        assert second.keys._seen == {} and second.keys.chains == {}
        assert not any(engine._payloads for engine in second.nodes.values())
        two = second.run()
        assert (one.report, one.trace, one.ledger_records) == (
            two.report, two.trace, two.ledger_records)

    def test_the_chain_table_holds_each_live_chain_once(self, monkeypatch):
        """After a run the directory holds one chain per (channel id,
        direction) paid over: the one its payer's latest offer there was
        made on, and no chain the payer replaced."""
        built, latest = [], {}
        real_hash_chain, real_chain_word = KeyPair.hash_chain, payment.chain_word

        def chain_word(key, state, direction, *args):
            word, chain = real_chain_word(key, state, direction, *args)
            latest[state.channel_id, direction] = chain
            return word, chain

        monkeypatch.setattr(
            KeyPair,
            "hash_chain",
            lambda key, *args: built.append(real_hash_chain(key, *args)) or built[-1],
        )
        monkeypatch.setattr(payment, "chain_word", chain_word)
        sim = Simulator(load_scenario(str(BUNDLED / "diamond.scn")))
        sim.run()
        assert latest and sim.keys.chains.keys() == latest.keys()
        assert all(sim.keys.chains[slot][0] is chain for slot, chain in latest.items())
        assert {words[:32] for words in built} - {chain.root for chain in latest.values()}

    def test_the_payload_memo_stays_within_its_bound(self, monkeypatch):
        """A producer generates each payload once while its memo holds it.
        Past its bound the oldest payloads go first and are generated again,
        with the same bytes."""
        generated = []
        real_content = content_bytes
        monkeypatch.setattr(
            scenario_module, "content_bytes", lambda *args: generated.append(args) or real_content(*args)
        )
        clean = run_doc(line_doc())
        assert forwarding.ForwardingEngine.PAYLOAD_MEMO_BYTES == 1 << 20
        assert len(generated) == len(set(generated)) == 8
        held = []
        real = forwarding.ForwardingEngine._payload

        def payload(engine, serve, index):
            out = real(engine, serve, index)
            held.append((engine._payload_bytes, sum(map(len, engine._payloads.values()))))
            return out

        monkeypatch.setattr(forwarding.ForwardingEngine, "PAYLOAD_MEMO_BYTES", 1_500)
        monkeypatch.setattr(forwarding.ForwardingEngine, "_payload", payload)
        bounded = run_doc(line_doc())
        assert (bounded.report, bounded.trace) == (clean.report, clean.trace)
        assert held and all(size == summed <= 1_500 for size, summed in held)
        assert len(generated) > 16


class TestFlows:
    def test_line_fetch_completes_and_pays(self):
        result = run_doc(line_doc())
        flow = flow_of(result)
        assert flow["status"] == "done"
        assert flow["received"] == 8 and flow["price"] == 3
        assert flow["route"] == [A, R, P]
        incomes = result.report["ledger"]["incomes"]
        # 8 packets at price 3: relay keeps 1 each, producer 2 each.
        assert incomes[A] == -24 and incomes[R] == 8 and incomes[P] == 16
        assert result.report["ledger"]["conserved"] is True

    def test_payload_bytes_are_the_served_content(self):
        result = run_doc(line_doc())
        assert flow_of(result)["verified_spans"] == 2
        # Spot-check the deterministic payload generator agrees.
        assert content_bytes("/line/data", 0, 600) != content_bytes("/line/data", 1, 600)

    def test_producer_local_fetch_touches_no_network(self):
        doc = line_doc()
        doc["schedule"][0]["node"] = P
        result = run_doc(doc)
        flow = flow_of(result)
        assert flow["status"] == "done" and flow["price"] == 0
        assert not [ev for ev in result.trace if ev["event"] in ("tx", "rx")]
        assert all(v == 0 for v in result.report["ledger"]["incomes"].values())

    def test_zero_price_route_completes_without_payment(self):
        doc = line_doc()
        for node in doc["nodes"]:
            node["cost"] = 0
        doc["schedule"][0]["packets"] = 16
        scenario = parse_scenario(copy.deepcopy(doc), source="inline.scn")
        result = run_scenario(scenario)
        flow = flow_of(result)
        assert (flow["status"], flow["received"], flow["price"]) == ("done", 16, 0)
        assert result.report["payments"]["updates"] == 0
        assert audit_run(scenario, result.trace, result.ledger_records) == []

    def test_unserved_fetch_fails_with_no_route(self):
        doc = line_doc()
        doc["nodes"][2]["serves"] = []
        doc["schedule"][0]["name"] = "/line/data"
        with pytest.raises(ScenarioError):
            run_doc(doc)


class TestPaymentErrors:
    """The consumer cannot fund a packet: its flow fails with the payment's
    reason (a 3-node line whose relay costs more than a channel holds)."""

    def run_underfunded(self, payment_mode):
        doc = line_doc(defaults={
            "send_interval_ms": 10, "channel_deposit": 10, "account_balance": 100,
            "payment_mode": payment_mode,
        })
        doc["nodes"][1]["cost"] = 20
        doc["schedule"][0]["packets"] = 4
        result = run_doc(doc)
        errors = [(e["name"], e["reason"]) for e in result.trace if e["event"] == "flow_error"]
        return flow_of(result), errors

    def test_hop_by_hop_offer_beyond_the_channel_fails_the_first_packet(self):
        flow, errors = self.run_underfunded("hopbyhop")
        assert (flow["status"], flow["received"], flow["requested"]) == ("failed", 0, 4)
        assert flow["fail_reason"] == "payment:insufficient-funds"
        assert errors == [("/line/data/seg=0", "insufficient-funds")]

    def test_pay_all_fails_once_the_first_packet_drains_the_direct_channel(self):
        flow, errors = self.run_underfunded("payall")
        assert (flow["status"], flow["received"], flow["requested"]) == ("failed", 0, 4)
        assert flow["fail_reason"] == "payment:insufficient-payment"
        assert errors == [("/line/data/seg=1", "insufficient-payment")]


class TestContentPath:
    """Fetches of whole and partial chunks from 4 chunks of 4 x 100 B:
    only whole chunks inside the request are verified, and every held
    payload is the served content."""

    def fetch(self, packets, payment_mode, at):
        doc = line_doc()
        doc["defaults"]["payment_mode"] = payment_mode
        doc["nodes"][2]["serves"][0]["packet_size"] = 100
        doc["schedule"][0].update(node=at, packets=packets)
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        result = sim.run()
        (flow,) = sim.flows.values()
        return flow_of(result), flow

    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    @pytest.mark.parametrize("packets", [3, 6, 16])
    def test_fetch_verifies_whole_chunks_only(self, packets, payment_mode):
        report, flow = self.fetch(packets, payment_mode, A)
        assert (report["status"], report["received"]) == ("done", packets)
        assert report["verified_spans"] == report["required_spans"] == packets // 4
        assert flow.received == {
            i: content_bytes(Name.parse("/line/data"), i, 100) for i in range(packets)
        }

    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    @pytest.mark.parametrize("packets", [3, 6, 16])
    def test_producer_local_fetch_marks_whole_chunks_local(self, packets, payment_mode):
        report, flow = self.fetch(packets, payment_mode, P)
        assert (report["status"], report["received"]) == ("done", packets)
        assert report["verified_spans"] == report["required_spans"] == packets // 4
        assert flow.verified == {4 * k: "local" for k in range(packets // 4)}
        assert flow.received == {
            i: content_bytes(Name.parse("/line/data"), i, 100) for i in range(packets)
        }


class TestLossAndChurn:
    def test_lossy_link_recovered_by_retransmission(self):
        doc = line_doc(duration_ms=10000)
        doc["defaults"]["interest_lifetime_ms"] = 400
        doc["links"][1] = [R, P, 5, 0.2]
        result = run_doc(doc)
        flow = flow_of(result)
        assert flow["status"] == "done"
        assert flow["retransmits"] > 0

    def test_undecodable_frame_counts_as_drop(self):
        scenario = parse_scenario(line_doc(), source="inline.scn")
        sim = Simulator(scenario)
        frame = encode_packet(Interest(
            name=Name.parse("/line/data/seg=0"),
            nonce=b"\x01" * 8,
            hop_info=HopInfo(NodeAddr.parse(A)),
            lifetime_ms=1000,
        ))
        # Cutting 3 bytes off the last field (lifetime: 3-byte header and
        # 8-byte value) makes it overrun the frame.
        sim.at(400_000, sim._arrive, NodeAddr.parse(R), NodeAddr.parse(A), frame[:-3])
        result = sim.run()
        corrupt = [ev for ev in result.trace if ev["event"] == "rx_corrupt"]
        assert corrupt == [{
            "t": 400_000, "node": R, "event": "rx_corrupt", "src": A,
            "offset": len(frame) - 11,
            "reason": "field 0x15 length overruns its container",
        }]
        assert result.report["nodes"][R]["dropped_corrupt"] == 1
        assert "dropped_corrupt" not in result.report["nodes"][A]
        assert flow_of(result)["status"] == "done"
        assert audit_run(scenario, result.trace, result.ledger_records) == []

    def test_packet_the_wire_cannot_carry_fails_its_send(self):
        # The medium never encodes an intact frame: a payload over the
        # 2-byte TLV length fails where its Data is built, so no such
        # packet reaches a send, and the largest one goes out whole.
        sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
        a, r = NodeAddr.parse(A), NodeAddr.parse(R)
        name, hop_info = Name.parse("/line/data/seg=0"), HopInfo(a, r)
        with pytest.raises(ValueError, match="payload of 70000 bytes exceeds 65535"):
            Data(name=name, payload=b"x" * 70_000, hop_info=hop_info)
        largest = Data(name=name, payload=b"x" * 65_535, hop_info=hop_info)
        sim.transmit(a, forwarding.Send(r, largest))
        assert sim.trace[-1]["event"] == "tx"
        arrivals = [args for _t, _seq, fn, args in sim._heap if fn == sim._arrive]
        assert [args[:3] for args in arrivals] == [(r, a, largest)]

    @pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
    def test_corrupting_link_alters_frames_reproducibly(self, mode, monkeypatch):
        encoded, altered = [], []
        encode, corrupt = simnet.encode_packet, simnet.Link.corrupt

        def counting_encode(pkt):
            encoded.append(pkt)
            return encode(pkt)

        def recording_corrupt(link, pkt):
            frame = corrupt(link, pkt)
            altered.append((encode(pkt), frame))
            return frame

        monkeypatch.setattr(simnet, "encode_packet", counting_encode)
        monkeypatch.setattr(simnet.Link, "corrupt", recording_corrupt)
        doc = line_doc(duration_ms=10000)
        doc["defaults"].update(interest_lifetime_ms=400, payment_mode=mode)
        doc["links"] = [[A, R, 5, 0.0, 0.2], [R, P, 5, 0.0, 0.2]]
        first = run_doc(doc)
        assert len(encoded) == len(altered) > 0
        for sent, frame in altered:
            assert len(frame) == len(sent)
            assert sum(x != y for x, y in zip(sent, frame)) == 1
        second = run_doc(doc)
        assert first.trace_bytes() == second.trace_bytes()
        assert first.report_bytes() == second.report_bytes()
        assert first.ledger_bytes() == second.ledger_bytes()
        undecodable = [ev for ev in first.trace if ev["event"] == "rx_corrupt"]
        counted = sum(n.get("dropped_corrupt", 0) for n in first.report["nodes"].values())
        # Some altered frames fail to decode, and the rest are delivered.
        assert 0 < len(undecodable) == counted < len(altered)
        assert first.report["ledger"]["conserved"]

    def test_zero_corrupt_rate_draws_nothing(self):
        doc = line_doc()
        doc["links"] = [[A, R, 5, 0, 0], [R, P, 5, 0.0, 0.0]]
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        result = sim.run()
        # A generator is seeded on its first draw: no link here ever
        # seeds one, and only the consumer draws nonces.
        assert not any(
            "rng" in vars(link) for peers in sim.neighbors.values() for link in peers.values()
        )
        assert list(sim._rngs) == [NodeAddr.parse(A)]
        assert result.trace_bytes() == run_doc(line_doc()).trace_bytes()

    def test_a_generator_seeded_on_first_draw_is_the_derived_one(self):
        doc = line_doc()
        doc["links"] = [[A, R, 5, 0.2, 0.1], [R, P, 5]]
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        sim.run()
        a, r = NodeAddr.parse(A), NodeAddr.parse(R)
        lossy, clean = sim.link_between(a, r), sim.link_between(r, NodeAddr.parse(P))
        assert "rng" in vars(lossy) and "rng" not in vars(clean)
        fresh = Simulator(parse_scenario(doc, source="inline.scn"))
        assert fresh.fresh_nonce(a) == (
            simnet.derive_rng(7, "node", A).getrandbits(64).to_bytes(8, "big"))
        assert fresh.link_between(a, r).rng.getstate() == (
            simnet.derive_rng(7, "link", A, R).getstate())

    def test_altered_route_through_an_unknown_node_is_no_candidate(self):
        # Pay-all pays every hop with that node's key, so a route naming
        # a node the run does not have cannot be paid.
        doc = line_doc()
        doc["defaults"]["payment_mode"] = "payall"
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        flow = simnet.Flow(NodeAddr.parse(A), Name.parse("/line/data"), 8,
                           sim.nodes[NodeAddr.parse(P)].serves[0], 0)
        ghost = NodeAddr.parse("02-00-00-00-00-ff")
        answer = Data(name=flow.name, payload=b"", hop_info=HopInfo(NodeAddr.parse(R)),
                      route=RouteStack((NodeAddr.parse(A), NodeAddr.parse(R), ghost)),
                      price=3)
        assert sim._on_path(flow, answer) is False
        assert flow.candidates == []

    def test_downed_link_loses_frames_silently(self):
        # Cut the link mid-flow: Interests already committed to it are
        # transmitted but never arrive, with no error signal anywhere.
        doc = line_doc(duration_ms=1500)
        doc["schedule"].append(
            {"at_ms": 400, "action": "link", "a": R, "b": P, "up": False}
        )
        result = run_doc(doc)
        sent_up = [
            ev for ev in result.trace
            if ev["event"] == "tx" and ev["node"] == R and ev.get("to") == P
        ]
        arrived = [
            ev for ev in result.trace
            if ev["event"] == "rx" and ev["node"] == P and ev.get("src") == R
        ]
        assert len(arrived) < len(sent_up)
        assert not [ev for ev in result.trace if ev["event"] == "nack_sent"]

    def test_outage_and_recovery_completes_flow(self):
        doc = line_doc(duration_ms=9000)
        doc["schedule"] += [
            {"at_ms": 150, "action": "link", "a": R, "b": P, "up": False},
            {"at_ms": 5200, "action": "link", "a": R, "b": P, "up": True},
        ]
        result = run_doc(doc)
        assert flow_of(result)["status"] == "done"

    def discovery_outage(self, payment_mode, link_up_ms):
        # The relay-producer link is down before the fetch, so every
        # discovery round finds nothing.  A send interval equal to the
        # link latency keeps the fetch clear of the pipelined-offer
        # fault (ROADMAP item 8).
        doc = line_doc()
        doc["defaults"].update(send_interval_ms=5, payment_mode=payment_mode)
        doc["schedule"] = [
            {"at_ms": 0, "action": "link", "a": R, "b": P, "up": False},
            {"at_ms": 10, "action": "fetch", "node": A, "name": "/line/data", "packets": 8},
        ]
        if link_up_ms is not None:
            doc["schedule"].append(
                {"at_ms": link_up_ms, "action": "link", "a": R, "b": P, "up": True}
            )
        return flow_of(run_doc(doc))

    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    def test_fruitless_discovery_rounds_end_in_no_route(self, payment_mode):
        flow = self.discovery_outage(payment_mode, None)
        # Four rounds of discovery_wait_ms (250 ms) from the fetch at 10 ms.
        assert (flow["status"], flow["fail_reason"]) == ("failed", "no-route")
        assert (flow["rediscoveries"], flow["done_ms"]) == (3, 1010)

    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    def test_rediscovery_finds_a_path_after_the_link_returns(self, payment_mode):
        flow = self.discovery_outage(payment_mode, 600)
        assert (flow["status"], flow["rediscoveries"]) == ("done", 3)

    def test_neighbor_death_detected_within_bound(self):
        doc = line_doc(duration_ms=4000)
        doc["schedule"].append(
            {"at_ms": 500, "action": "link", "a": R, "b": P, "up": False}
        )
        result = run_doc(doc)
        deaths = [ev for ev in result.trace if ev["event"] == "neighbor_dead"]
        assert deaths
        # period 100ms + timeout 300ms: detection within 400ms of the
        # last beacon that got through.
        for ev in deaths:
            assert ev["detected_us"] - ev["last_seen_us"] <= 400_000


class TestSendChain:
    def test_queued_index_whose_data_arrived_is_skipped(self):
        """The relay-producer link eats packet 0 twice, so its second
        timeout demotes the route while seg=19's Data is still in flight.
        The new route queues both 0 and 19; by the chain's next turn 19
        has arrived, so it is skipped and the chain stops there."""
        B2 = "02-00-00-00-00-ad"
        doc = line_doc(duration_ms=3000)
        doc["defaults"].update(retries=1, interest_lifetime_ms=105)
        doc["nodes"][2]["serves"][0]["chunks"] = 5
        doc["nodes"].insert(2, {"addr": B2, "cost": 2})
        doc["links"] = [[A, R], [R, P], [A, B2], [B2, P]]
        doc["schedule"][0]["packets"] = 20
        for down in (354, 464):  # as packet 0 and its retransmission cross
            doc["schedule"] += [
                {"at_ms": down, "action": "link", "a": R, "b": P, "up": False},
                {"at_ms": down + 2, "action": "link", "a": R, "b": P, "up": True},
            ]
        result = run_doc(doc)
        flow = flow_of(result)
        assert (flow["status"], flow["route"], flow["retransmits"]) == ("done", [A, B2, P], 1)
        (demoted,) = [ev["t"] for ev in result.trace if ev["event"] == "route_exhausted"]
        sent_after = [
            ev["name"] for ev in result.trace
            if ev["event"] == "tx" and ev["node"] == A and ev["routed"] and ev["t"] >= demoted
        ]
        assert sent_after == ["/line/data/seg=0"]
        (late,) = [
            ev["t"] for ev in result.trace
            if ev["event"] == "rx" and ev["node"] == A and ev["name"] == "/line/data/seg=19"
        ]
        assert demoted < late < demoted + 10_000  # inside one send interval


def chunk_final_data(sim, index, payload=None):
    """R hands A the Data for P's packet `index` with the producer's proof
    of the chunk that ends there; `payload` replaces the packet's bytes."""
    serve = sim.nodes[NodeAddr.parse(P)].serves[0]
    first = serve.chunk(index).start
    chunk = b"".join(serve.payload(i) for i in range(first, index + 1))
    return Data(
        name=serve.prefix.with_index(index),
        hop_info=HopInfo(NodeAddr.parse(R), NodeAddr.parse(A)),
        payload=serve.payload(index) if payload is None else payload,
        proof=proof.make_chunk(sim.nodes[NodeAddr.parse(P)].key, first, chunk, serve.packet_size),
    )


def inject(sim, at_ms, pkt):
    sim.at(at_ms * 1_000, sim._arrive, NodeAddr.parse(A), NodeAddr.parse(R), pkt)


class TestUnsolicited:
    """A flow takes only the Data and Nacks it sent for; the consumer's
    engine counts the rest as unsolicited and caches none of it."""

    def test_data_before_the_route_is_chosen_is_dropped(self):
        # seg=3 with chunk 0's proof arrives while the flow still
        # discovers; kept, its proof would be checked against no route.
        sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
        inject(sim, 150, chunk_final_data(sim, 3))
        result = sim.run()
        flow = flow_of(result)
        assert (flow["status"], flow["received"], flow["verified_spans"]) == ("done", 8, 2)
        assert result.report["nodes"][A]["dropped_unsolicited"] == 1

    def test_data_for_an_index_never_requested_is_not_cached(self):
        doc = line_doc()
        doc["defaults"]["send_interval_ms"] = 5
        doc["nodes"][2]["serves"][0].update(prefix="/z", packet_size=50)
        doc["schedule"][0]["name"] = "/z"
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        inject(sim, 2_000, chunk_final_data(sim, 12))
        result = sim.run()
        assert flow_of(result)["status"] == "done"
        assert result.report["nodes"][A]["dropped_unsolicited"] == 1
        assert sim.nodes[NodeAddr.parse(A)].tables.cs.lookup(Name.parse("/z/seg=12")) is None

    def test_nack_for_a_nonce_never_sent_moves_no_flow_counter(self):
        clean = run_doc(line_doc())
        sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
        inject(sim, 400, Nack(Name.parse("/line/data/seg=0"), b"\x99" * 8, NackReason.NO_ROUTE))
        result = sim.run()
        assert result.report["flows"] == clean.report["flows"]
        assert result.report["nodes"][A]["dropped_unsolicited"] == 1

    def test_discovery_round_ending_after_the_flow_failed_does_nothing(self):
        """With no retries, the cut link's first timeout sends the flow
        back to discovery; a tampered packet then fails it on its proof,
        and the pending round's end must leave that reason alone."""
        doc = line_doc()
        doc["defaults"]["interest_lifetime_ms"] = 200
        doc["nodes"][2]["serves"][0].update(packets_per_chunk=1, chunks=8)
        doc["schedule"].append({"at_ms": 300, "action": "link", "a": R, "b": P, "up": False})
        scenario = parse_scenario(doc, source="inline.scn")
        sim = Simulator(replace(scenario, defaults=replace(scenario.defaults, retries=0)))
        inject(sim, 600, chunk_final_data(sim, 0, payload=b"EVIL" * 150))
        result = sim.run()
        flow = flow_of(result)
        assert (flow["status"], flow["fail_reason"], flow["done_ms"]) == ("failed", "proof", 600)
        assert flow["rediscoveries"] == 1
        steps = {"path_selected", "route_exhausted", "discovery_originated", "flow_failed"}
        assert [ev["event"] for ev in result.trace if ev["event"] in steps] == [
            "discovery_originated", "path_selected", "route_exhausted",
            "discovery_originated", "flow_failed",
        ]


    def test_a_proof_that_claims_another_span_is_not_held(self, monkeypatch):
        """A corrupting link may alter a proof's `first`, and a relay could
        forge a span that still ends on the packet it rides.  The consumer
        files a proof only from its chunk's final packet, and only when it
        covers exactly that chunk, so neither is ever held."""
        real = Simulator._on_flow_data
        for shift, shrink in ((1_000, 0), (1, 1)):
            altered = []

            def alter_span(sim, flow, pkt):
                if pkt.proof is not None and not altered:
                    proof = pkt.proof
                    pkt = replace(pkt, proof=replace(
                        proof, first=proof.first + shift, count=proof.count - shrink
                    ))
                    altered.append(pkt.proof.first)
                return real(sim, flow, pkt)

            monkeypatch.setattr(Simulator, "_on_flow_data", alter_span)
            sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
            result = sim.run()
            (flow,) = sim.flows.values()
            assert altered and flow.proofs == {}
            assert not [
                ev for ev in result.trace
                if ev["event"] == "chunk_verify_failed" and ev["first"] == altered[0]
            ]

    def test_a_proof_that_arrives_first_is_verified_by_the_chunk_last_missing_packet(
        self, monkeypatch
    ):
        """Packet 0 is overtaken by the rest of its chunk, so the proof on
        packet 3 is held until packet 0 arrives and completes the chunk."""
        real = Simulator._on_flow_data
        late = []

        def hold_back_packet_0(sim, flow, pkt):
            if pkt.name.chunk_index == 0 and not late:
                late.append(sim.now + 50_000)
                sim.at(late[0], real, sim, flow, pkt)
                return True
            return real(sim, flow, pkt)

        monkeypatch.setattr(Simulator, "_on_flow_data", hold_back_packet_0)
        sim = Simulator(parse_scenario(line_doc(), source="inline.scn"))
        result = sim.run()
        (flow,) = sim.flows.values()
        rx_3 = next(
            ev["t"] for ev in result.trace
            if ev["event"] == "rx" and ev["node"] == A and ev["name"] == "/line/data/seg=3"
        )
        (verified,) = [
            ev for ev in result.trace if ev["event"] == "chunk_verified" and ev["first"] == 0
        ]
        assert rx_3 < late[0] == verified["t"]
        assert flow_of(result)["status"] == "done" and flow.proofs == {}


class TestNestedPrefixes:
    @pytest.mark.parametrize("consumer", [A, R], ids=["far-consumer", "serves-parent"])
    def test_each_serve_owns_exactly_its_prefix(self, consumer):
        """R serves /a and P serves /a/b: a fetch of /a/b must reach P
        and hold /a/b's bytes, never /a's."""
        doc = line_doc()
        doc["defaults"]["send_interval_ms"] = 5
        serve = {"packet_size": 100, "packets_per_chunk": 4, "chunks": 2}
        doc["nodes"][1]["serves"] = [{"prefix": "/a", **serve}]
        doc["nodes"][2]["serves"] = [{"prefix": "/a/b", **serve}]
        doc["schedule"][0].update(node=consumer, name="/a/b", packets=8)
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        result = sim.run()
        report = flow_of(result)
        assert (report["status"], report["route"][-1]) == ("done", P)
        assert report["route"] == ([A, R, P] if consumer == A else [R, P])
        (flow,) = sim.flows.values()
        assert flow.received == {i: content_bytes(Name.parse("/a/b"), i, 100) for i in range(8)}


class TestRelayModes:
    def relay_times(self, mode, packets):
        doc = line_doc(duration_ms=4000)
        doc["nodes"][1]["relay_mode"] = mode
        doc["nodes"][2]["serves"][0]["packets_per_chunk"] = packets
        doc["nodes"][2]["serves"][0]["chunks"] = 1
        doc["schedule"][0]["packets"] = packets
        result = run_doc(doc)
        assert flow_of(result)["status"] == "done"
        rx, tx = {}, {}
        for ev in result.trace:
            if ev["node"] != R or ev.get("kind") != "data" or ev.get("discovery"):
                continue
            seg = int(ev["name"].rsplit("=", 1)[1])
            if ev["event"] == "rx" and seg not in rx:
                rx[seg] = ev["t"]
            if ev["event"] == "tx" and seg not in tx:
                tx[seg] = ev["t"]
        return rx, tx

    def test_cutthrough_forwards_each_packet_at_arrival(self):
        for packets in (4, 16):
            rx, tx = self.relay_times("cutthrough", packets)
            assert all(tx[seg] == rx[seg] for seg in rx)

    def test_storeforward_first_packet_delay_grows_with_chunk(self):
        delays = {}
        for packets in (4, 16):
            rx, tx = self.relay_times("storeforward", packets)
            # Nothing leaves until the whole chunk arrived, so the first
            # packet waits for the last one's arrival.
            assert tx[0] == rx[packets - 1]
            delays[packets] = tx[0] - rx[0]
        # Consumer paces Interests every 10ms, so replies arrive every
        # 10ms: delay is exactly (packets-1) intervals, linear in size.
        assert delays[4] == 3 * 10_000
        assert delays[16] == 15 * 10_000


class TestLedgerBound:
    """The ledger logs what a chain would: mints, and one open and one
    settle per channel.  A committed offer moves tokens off the log, so
    the log's size follows the channels, not the packets."""

    @staticmethod
    def check(result):
        records = result.ledger_records
        assert {rec["op"] for rec in records} <= {"mint", "open", "settle"}
        settled = [rec["channel"] for rec in records if rec["op"] == "settle"]
        assert sorted(settled) == sorted(rec["channel"] for rec in records if rec["op"] == "open")
        if paid_channels(records):
            assert result.report["payments"]["updates"] > 0

    @pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
    @pytest.mark.parametrize("name", sorted(p.name for p in BUNDLED.glob("*.scn")))
    def test_bundled_scenario(self, name, mode):
        scenario = load_scenario(str(BUNDLED / name))
        defaults = replace(scenario.defaults, payment_mode=mode)
        result = run_scenario(replace(scenario, defaults=defaults))
        self.check(result)
        assert paid_channels(result.ledger_records)

    @pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
    def test_record_count_does_not_grow_with_packets(self, mode):
        counts = {}
        for packets in (8, 16):
            doc = line_doc()
            doc["defaults"]["payment_mode"] = mode
            doc["schedule"][0]["packets"] = packets
            result = run_doc(doc)
            assert flow_of(result)["status"] == "done"
            self.check(result)
            counts[packets] = (len(result.ledger_records), result.report["payments"]["updates"])
        assert counts[8][0] == counts[16][0]
        assert (counts[8][1], counts[16][1]) == (16, 32)


class TestCaching:
    """Only the producer answers discovery, so a consumer that fetches
    what a relay already holds still selects the route to the producer:
    the relay serves it from its store, and every chunk verifies against
    that route."""

    @pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
    def test_later_consumer_behind_a_cache_fetches_through_it(self, mode):
        later = "02-00-00-00-00-ad"
        doc = line_doc(
            defaults={"send_interval_ms": 5, "account_balance": 3000, "payment_mode": mode},
            nodes=[
                {"addr": A, "cost": 0}, {"addr": later, "cost": 0}, {"addr": R, "cost": 1},
                {"addr": P, "cost": 1, "serves": [
                    {"prefix": "/line/data", "packet_size": 100, "packets_per_chunk": 4,
                     "chunks": 4},
                ]},
            ],
            links=[[A, R], [later, R], [R, P]],
            schedule=[
                {"at_ms": at, "action": "fetch", "node": node, "name": "/line/data",
                 "packets": 16}
                for at, node in ((100, A), (1000, later))
            ],
        )
        result = run_doc(doc)
        flow = next(f for f in result.report["flows"] if f["node"] == later)
        assert (flow["status"], flow["received"], flow["price"]) == ("done", 16, 2)
        assert flow["route"] == [later, R, P] and flow["verified_strict"] == 4
        # The producer served the first consumer; the relay's store served
        # the second.
        assert result.report["nodes"][R]["data_served"] == 16
        assert result.report["nodes"][P]["data_served"] == 16
        assert not [e for e in result.trace if e["event"] == "chunk_verify_failed"]

    @pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
    def test_a_spread_out_swarm_is_served_by_its_relays(self, mode):
        producer, core = "02-00-00-00-02-00", "02-00-00-00-02-01"
        access = ["02-00-00-00-03-00", "02-00-00-00-03-01"]
        groups = [[f"02-00-00-00-04-{3 * a + i:02x}" for i in range(3)] for a in range(2)]
        # The consumers take turns between the two access relays.
        consumers = [groups[i % 2][i // 2] for i in range(6)]
        serve = {"prefix": "/swarm/obj", "packet_size": 100, "packets_per_chunk": 8,
                 "chunks": 2}
        doc = {
            "version": 1,
            "seed": 5,
            "duration_ms": 3500,
            "defaults": {"send_interval_ms": 5, "account_balance": 3000, "payment_mode": mode},
            "nodes": [{"addr": c, "cost": 0} for c in consumers]
            + [{"addr": a, "cost": 1} for a in access]
            + [{"addr": core, "cost": 1}, {"addr": producer, "cost": 1, "serves": [serve]}],
            "links": [[c, a] for a, group in zip(access, groups) for c in group]
            + [[a, core] for a in access] + [[core, producer]],
            "schedule": [
                {"at_ms": 100 + 400 * i, "action": "fetch", "node": c, "name": "/swarm/obj",
                 "packets": 16}
                for i, c in enumerate(consumers)
            ],
        }
        scenario = parse_scenario(copy.deepcopy(doc), source="inline.scn")
        result = run_scenario(scenario)
        flows = result.report["flows"]
        assert [(f["status"], f["verified_strict"]) for f in flows] == [("done", 2)] * 6
        assert audit_run(scenario, result.trace, result.ledger_records) == []
        served = {node: counters.get("data_served", 0)
                  for node, counters in result.report["nodes"].items()}
        assert served[producer] == 16
        assert sum(served[node] for node in [core, *access]) == 5 * 16


@functools.cache
def bundled_run(name, mode):
    scenario = load_scenario(str(BUNDLED / name))
    scenario = replace(scenario, defaults=replace(scenario.defaults, payment_mode=mode))
    return scenario, run_scenario(scenario)


@pytest.mark.parametrize("mode", ["hopbyhop", "payall"])
@pytest.mark.parametrize("name", sorted(p.name for p in BUNDLED.glob("*.scn")))
class TestBundledRuns:
    def test_every_flow_ends_done(self, name, mode):
        _scenario, result = bundled_run(name, mode)
        statuses = [(f["name"], f["node"], f["status"]) for f in result.report["flows"]]
        assert statuses == [(fname, node, "done") for fname, node, _status in statuses]

    def test_only_a_node_serving_the_name_answers_discovery(self, name, mode):
        scenario, result = bundled_run(name, mode)
        serving = {(str(node.addr), str(s.prefix)) for node in scenario.nodes for s in node.serves}
        answers = {(e["node"], str(Name.parse(e["name"]).prefix))
                   for e in result.trace if e["event"] == "discovery_answered"}
        assert answers and answers <= serving


class TestPaymentModes:
    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    def test_one_signature_per_committed_offer_and_chain_link(self, payment_mode, monkeypatch):
        # A payer signs once per payment chain, not per offer; the payee
        # commits unsigned.  Each channel here is paid one way by one chain.
        signed = []
        real_sign = KeyPair.sign

        def counting_sign(key, message):
            signed.append(message)
            return real_sign(key, message)

        monkeypatch.setattr(KeyPair, "sign", counting_sign)
        doc = line_doc()
        doc["defaults"]["payment_mode"] = payment_mode
        result = run_doc(doc)
        assert flow_of(result)["status"] == "done"
        commits = result.report["payments"]["updates"]
        links = sum(ev["event"] == "chunk_signed" for ev in result.trace)
        chains = len(paid_channels(result.ledger_records))
        assert commits == 16 and links == 4 and chains == 2
        assert len(signed) == chains + links

    @pytest.mark.parametrize("payment_mode", ["hopbyhop", "payall"])
    def test_no_pending_entry_outlives_the_fetch(self, payment_mode):
        doc = line_doc()
        doc["defaults"]["payment_mode"] = payment_mode
        sim = Simulator(parse_scenario(doc, source="inline.scn"))
        result = sim.run()
        assert flow_of(result)["status"] == "done"
        assert sim.book.pending == {}

    def test_payall_opens_consumer_channels_to_every_hop(self):
        hop = run_doc(line_doc())
        doc = line_doc()
        doc["defaults"]["payment_mode"] = "payall"
        payall = run_doc(doc)
        assert flow_of(payall)["status"] == "done"
        # Line topology: two links, so hop-by-hop needs 2 channels; the
        # consumer paying every path node needs one per hop too, but
        # they are consumer-anchored.
        assert hop.report["payments"]["channels_opened"] == 2
        assert payall.report["payments"]["channels_opened"] == 2
        assert payall.report["ledger"]["conserved"] is True
        assert payall.report["ledger"]["incomes"] == hop.report["ledger"]["incomes"]

    def test_payall_skips_a_zero_cost_relay(self):
        doc = line_doc()
        doc["defaults"]["payment_mode"] = "payall"
        doc["nodes"][1]["cost"] = 0
        doc["schedule"][0]["packets"] = 16
        result = run_doc(doc)
        flow = flow_of(result)
        assert (flow["status"], flow["received"], flow["price"]) == ("done", 16, 2)
        # The consumer opens a channel to the producer only.
        opened = [rec["channel"] for rec in result.ledger_records if rec["op"] == "open"]
        direct = payment.channel_id_for(NodeAddr.parse(A), NodeAddr.parse(P), kind="pay")
        assert opened == [direct.decode()]
        assert result.report["ledger"]["incomes"] == {A: -32, R: 0, P: 32}

    def test_hopbyhop_needs_fewer_channels_with_many_consumers(self):
        consumers = [f"02-00-00-00-01-{i:02x}" for i in range(1, 5)]
        doc = {
            "version": 1,
            "seed": 5,
            "duration_ms": 3000,
            "defaults": {"send_interval_ms": 10, "channel_deposit": 100},
            "nodes": [{"addr": c, "cost": 0} for c in consumers]
            + [
                {"addr": R, "cost": 1},
                {
                    "addr": P,
                    "cost": 2,
                    "serves": [
                        {
                            "prefix": "/line/data",
                            "packet_size": 600,
                            "packets_per_chunk": 4,
                            "chunks": 1,
                        }
                    ],
                },
            ],
            "links": [[c, R] for c in consumers] + [[R, P]],
            "schedule": [
                {
                    "at_ms": 100 + 40 * i,
                    "action": "fetch",
                    "node": c,
                    "name": "/line/data",
                    "packets": 4,
                }
                for i, c in enumerate(consumers)
            ],
        }
        hop = run_doc(doc)
        doc["defaults"]["payment_mode"] = "payall"
        payall = run_doc(doc)
        assert all(f["status"] == "done" for f in hop.report["flows"])
        assert all(f["status"] == "done" for f in payall.report["flows"])
        assert (
            hop.report["payments"]["channels_opened"]
            < payall.report["payments"]["channels_opened"]
        )


_LINK_DOWN = {"at_ms": 200, "action": "link", "a": A, "b": R, "up": False}

# One defect per document, applied to line_doc() plus a link action at
# schedule[1], and the exact problem list the loader reports for it.
SINGLE_DEFECTS = {
    "top-unknown-key": (
        lambda d: d.update(bogus=1),
        ["top: unknown key 'bogus'"],
    ),
    "defaults-unknown-key": (
        lambda d: d["defaults"].update(bogus=1),
        ["defaults: unknown key 'bogus'"],
    ),
    "node-unknown-key": (
        lambda d: d["nodes"][1].update(bogus=1),
        ["nodes[1]: unknown key 'bogus'"],
    ),
    "serve-unknown-key": (
        lambda d: d["nodes"][2]["serves"][0].update(bogus=1),
        ["nodes[2].serves[0]: unknown key 'bogus'"],
    ),
    "fetch-unknown-key": (
        lambda d: d["schedule"][0].update(bogus=1),
        ["schedule[0]: unknown key 'bogus'"],
    ),
    "link-action-unknown-key": (
        lambda d: d["schedule"][1].update(bogus=1),
        ["schedule[1]: unknown key 'bogus'"],
    ),
    "default-not-positive": (
        lambda d: d["defaults"].update(retries=0),
        ["defaults.retries must be >= 1, got 0"],
    ),
    "default-not-int": (
        lambda d: d["defaults"].update(send_interval_ms="x"),
        ["defaults.send_interval_ms must be an integer, got 'x'"],
    ),
    "default-bad-payment-mode": (
        lambda d: d["defaults"].update(payment_mode="barter"),
        ["defaults.payment_mode must be one of ('hopbyhop', 'payall')"],
    ),
    "default-bad-relay-mode": (
        lambda d: d["defaults"].update(relay_mode="teleport"),
        ["defaults.relay_mode must be one of ('cutthrough', 'storeforward')"],
    ),
    "node-bad-relay-mode": (
        lambda d: d["nodes"][1].update(relay_mode="teleport"),
        ["nodes[1].relay_mode must be one of ('cutthrough', 'storeforward')"],
    ),
    "serve-prefix-with-seg": (
        # The fetch goes too: with the serve refused it would fail as well.
        lambda d: (d["nodes"][2]["serves"][0].update(prefix="/line/data/seg=3"),
                   d.update(schedule=[])),
        ["nodes[2].serves[0].prefix must not carry a seg= index"],
    ),
    "serve-packet-size-over-bound": (
        lambda d: (d["nodes"][2]["serves"][0].update(packet_size=60_001),
                   d.update(schedule=[])),
        ["nodes[2].serves[0].packet_size 60001 exceeds the wire payload bound"],
    ),
    "serve-differs-from-another-node": (
        # Identical descriptions may repeat; this one halves the chunk.
        lambda d: d["nodes"][1].update(
            serves=[dict(d["nodes"][2]["serves"][0], packets_per_chunk=2)]
        ),
        [f"nodes[2].serves[0]: {R} and {P} serve /line/data differently"],
    ),
    "fetch-unserved-name": (
        lambda d: d["schedule"][0].update(name="/other/data"),
        ["schedule[0]: nobody serves /other/data"],
    ),
    "fetch-name-not-string": (
        lambda d: d["schedule"][0].update(name=7),
        ["schedule[0].name must be a string name, got 7"],
    ),
    "fetch-name-unparsable": (
        lambda d: d["schedule"][0].update(name="line data"),
        ["schedule[0].name: name 'line data' must start with '/'"],
    ),
    "fetch-node-not-string": (
        lambda d: d["schedule"][0].update(node=["x"]),
        ["schedule[0].node must be a string address, got ['x']"],
    ),
    "link-action-bad-address": (
        lambda d: d["schedule"][1].update(a="zz-00"),
        ["schedule[1].a: bad address 'zz-00': want six dash-separated octets"],
    ),
    "link-action-signed-octet": (
        lambda d: d["schedule"][1].update(a="+2-00-00-00-00-aa"),
        ["schedule[1].a: bad address '+2-00-00-00-00-aa': non-hex octet"],
    ),
    "link-bad-address": (
        lambda d: d["links"].append([R, "02-00-00-00-00"]),
        ["links[2][1]: bad address '02-00-00-00-00': want six dash-separated octets"],
    ),
    "defaults-not-mapping": (
        lambda d: d.update(defaults=[1]),
        ["defaults must be a mapping"],
    ),
    "default-keepalive-timeout-below-period": (
        lambda d: d["defaults"].update(keepalive_timeout_ms=50),
        ["defaults: keepalive_timeout_ms must be >= keepalive_period_ms"],
    ),
    "serve-not-mapping": (
        lambda d: (d["nodes"][2].update(serves=["x"]), d.update(schedule=[])),
        ["nodes[2].serves[0] must be a mapping"],
    ),
    "serve-missing-field": (
        lambda d: (d["nodes"][2]["serves"][0].pop("chunks"), d.update(schedule=[])),
        ["nodes[2].serves[0].chunks must be an integer, got None"],
    ),
    "nodes-empty": (
        lambda d: d.update(nodes=[], links=[], schedule=[]),
        ["nodes must be a non-empty list"],
    ),
    "node-not-mapping": (
        lambda d: d["nodes"].append(7),
        ["nodes[3] must be a mapping"],
    ),
    "node-missing-addr": (
        lambda d: d["nodes"].append({"cost": 1}),
        ["nodes[3].addr must be a string address, got None"],
    ),
    "node-broadcast-addr": (
        lambda d: d["nodes"].append({"addr": "ff-ff-ff-ff-ff-ff"}),
        ["nodes[3].addr must not be the broadcast address"],
    ),
    "node-duplicate": (
        lambda d: d["nodes"].append({"addr": R}),
        [f"nodes[3]: duplicate node {R}"],
    ),
    "node-serves-not-list": (
        lambda d: d["nodes"][1].update(serves="x"),
        ["nodes[1].serves must be a list"],
    ),
    "links-not-list": (
        # The link action then names a link nobody declared.
        lambda d: d.update(links={}),
        ["links must be a list", f"schedule[1]: no declared link {A} <-> {R}"],
    ),
    "link-bad-shape": (
        lambda d: d["links"].append([A]),
        ["links[2] must be [a, b], [a, b, latency_ms], [a, b, latency_ms, drop]"
         " or [a, b, latency_ms, drop, corrupt]"],
    ),
    "link-unknown-node": (
        lambda d: d["links"].append([A, "02-00-00-00-00-ff"]),
        ["links[2]: unknown node 02-00-00-00-00-ff"],
    ),
    "link-bad-latency": (
        lambda d: d["links"][1].append(0),
        ["links[1] latency_ms must be >= 1, got 0"],
    ),
    "link-bad-drop": (
        lambda d: d["links"][1].extend([5, 1.0]),
        ["links[1] drop rate must be in [0, 1)"],
    ),
    "link-bad-corrupt": (
        lambda d: d["links"][1].extend([5, 0.0, 1.0]),
        ["links[1] corrupt rate must be in [0, 1)"],
    ),
    "link-duplicate": (
        lambda d: d["links"].append([R, A]),
        [f"links[2]: duplicate link {R} <-> {A}"],
    ),
    "schedule-not-list": (
        lambda d: d.update(schedule={}),
        ["schedule must be a list"],
    ),
    "schedule-entry-not-mapping": (
        lambda d: d["schedule"].append(3),
        ["schedule[2] must be a mapping"],
    ),
    "schedule-missing-at": (
        lambda d: d["schedule"][0].pop("at_ms"),
        ["schedule[0].at_ms must be an integer, got None"],
    ),
    "fetch-unknown-node": (
        lambda d: d["schedule"][0].update(node="02-00-00-00-00-ff"),
        ["schedule[0]: unknown node 02-00-00-00-00-ff"],
    ),
    "fetch-single-packet": (
        lambda d: d["schedule"][0].update(name="/line/data/seg=1"),
        ["schedule[0].name must be a prefix, not a single packet"],
    ),
    "fetch-duplicate": (
        lambda d: d["schedule"].append(dict(d["schedule"][0], at_ms=300)),
        [f"schedule[2]: duplicate fetch of /line/data at {A}"],
    ),
    "link-action-up-not-bool": (
        lambda d: d["schedule"][1].update(up="no"),
        ["schedule[1].up must be true or false"],
    ),
    "link-action-undeclared-link": (
        lambda d: d["schedule"][1].update(b=P),
        [f"schedule[1]: no declared link {A} <-> {P}"],
    ),
    "schedule-bad-action": (
        lambda d: d["schedule"][1].update(action="warp"),
        ["schedule[1].action must be 'fetch' or 'link', got 'warp'"],
    ),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(SINGLE_DEFECTS))
    def test_single_defect_problems_are_exact(self, case):
        edit, problems = SINGLE_DEFECTS[case]
        doc = line_doc()
        doc["schedule"].append(dict(_LINK_DOWN))
        parse_scenario(copy.deepcopy(doc))  # the base document is clean
        edit(doc)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc, source="defect.scn")
        assert err.value.problems == problems

    def test_all_problems_reported_at_once(self):
        doc = line_doc()
        doc["version"] = 3
        doc["nodes"][0]["bogus"] = True
        doc["links"].append([A, A])
        doc["schedule"].append(
            {"at_ms": 99999, "action": "fetch", "node": A, "name": "/line/data", "packets": 1}
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc, source="broken.scn")
        text = "\n".join(err.value.problems)
        assert len(err.value.problems) >= 4
        assert "version" in text and "bogus" in text
        assert "self-link" in text and "99999" in text

    def test_identical_serves_on_two_nodes_load(self):
        doc = line_doc()
        doc["nodes"][1]["serves"] = copy.deepcopy(doc["nodes"][2]["serves"])
        assert flow_of(run_doc(doc))["status"] == "done"

    def test_fetch_beyond_served_packets_rejected(self):
        doc = line_doc()
        doc["schedule"][0]["packets"] = 999
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc, source="over.scn")
        assert any("999" in p for p in err.value.problems)

    def test_insufficient_deposit_funding_rejected(self):
        doc = line_doc()
        doc["defaults"]["account_balance"] = 10
        doc["defaults"]["channel_deposit"] = 500
        with pytest.raises(ScenarioError) as err:
            parse_scenario(copy.deepcopy(doc), source="poor.scn")
        assert err.value.problems == [
            f"node {A} must fund 500 in channel deposits but holds 10",
            f"node {R} must fund 1000 in channel deposits but holds 10",
            f"node {P} must fund 500 in channel deposits but holds 10",
        ]
        # Pay-all opens no adjacency channels; switching the loaded
        # scenario to hop-by-hop checks the rule again.
        doc["defaults"]["payment_mode"] = "payall"
        poor = parse_scenario(doc, source="poor.scn")
        with pytest.raises(ScenarioError) as err:
            replace(poor, defaults=replace(poor.defaults, payment_mode="hopbyhop"))
        assert len(err.value.problems) == 3

    def test_a_document_must_be_a_mapping(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario([line_doc()])
        assert err.value.problems == ["scenario must be a mapping"]

    def test_links_and_schedule_may_be_absent(self):
        doc = line_doc()
        del doc["links"], doc["schedule"]
        scenario = parse_scenario(doc)
        assert (scenario.links, scenario.schedule) == ((), ())

    def test_an_unreadable_or_malformed_file_is_one_problem(self, tmp_path):
        missing = tmp_path / "missing.scn"
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(missing))
        assert err.value.problems == [f"cannot read {missing}: No such file or directory"]
        broken = tmp_path / "broken.scn"
        broken.write_text("nodes: [unclosed\n", encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(broken))
        [problem] = err.value.problems
        assert problem.startswith(f"{broken}: not valid YAML: ")


class TestAuditor:
    def clean_run(self):
        doc = line_doc()
        scenario = parse_scenario(copy.deepcopy(doc), source="inline.scn")
        return scenario, run_scenario(scenario)

    def scenario(self):
        return parse_scenario(line_doc(), source="inline.scn")

    def test_clean_run_passes_every_check(self):
        scenario, result = self.clean_run()
        assert audit_run(scenario, result.trace, result.ledger_records) == []

    def test_broadcast_data_is_flagged(self):
        trace = [BROADCAST_DATA]
        assert audit_run(self.scenario(), trace, []) == [
            f"t=5 node={R}: data /line/data/seg=0 sent to broadcast"
        ]

    def test_wrong_discovery_price_is_flagged(self):
        scenario, result = self.clean_run()
        trace = copy.deepcopy(result.trace)
        expected = []
        for ev in trace:
            if ev["event"] == "tx" and ev.get("kind") == "data" and ev.get("discovery"):
                ev["price"] += 1
                expected.append(
                    f"t={ev['t']} node={ev['node']}: discovery {ev['name']} "
                    f"price {ev['price']} != {ev['price'] - 1} for route {ev['route']}"
                )
        assert expected
        assert audit_run(scenario, trace, []) == expected

    def test_discovery_route_through_an_unknown_node_is_flagged(self):
        # A corrupting link can alter a route hop into an address no node has.
        ghost = "02-00-00-00-00-ff"
        reply = {"t": 4, "node": R, "event": "tx", "kind": "data", "name": "/line/data",
                 "discovery": True, "to": A, "route": [A, R, ghost], "price": 3}
        assert audit_run(self.scenario(), [reply], []) == [
            f"t=4 node={R}: discovery /line/data route names unknown nodes {[ghost]}"
        ]

    def test_looping_route_is_flagged(self):
        trace = [LOOPING_INTEREST]
        assert audit_run(self.scenario(), trace, []) == [
            f"t=9 node={R}: looping route {[P, R, P]} on interest /line/data/seg=0"
        ]

    def test_late_death_detection_is_flagged(self):
        trace = [LATE_DEATH]
        assert audit_run(self.scenario(), trace, []) == [
            f"t=1 node={R}: neighbor {P} declared dead after 500000us (bound 400000us)"
        ]

    def test_mislabeled_mode_is_flagged(self):
        trace = MISLABELED_DECISIONS
        assert audit_run(self.scenario(), trace, []) == [
            f"t=2 node={R}: source-routed decision for /line/data/seg=0 with named hop not alive",
            f"t=3 node={R}: min-cost decision for /line/data/seg=1 while named hop {P} is alive",
        ]

    def test_one_walk_over_a_one_shot_iterator_reports_every_kind(self):
        """The audit reads each record once, so a trace that can only be
        walked once (a stream) still gets every check, in trace order."""
        scenario, result = self.clean_run()
        trace = copy.deepcopy(result.trace)
        reply = next(
            ev for ev in trace
            if ev["event"] == "tx" and ev.get("kind") == "data" and ev.get("discovery")
        )
        reply["price"] += 1
        doctored = [LATE_DEATH, *MISLABELED_DECISIONS, BROADCAST_DATA, *trace, LOOPING_INTEREST]
        violations = audit_run(scenario, iter(doctored), result.ledger_records)
        assert violations == [
            f"t=1 node={R}: neighbor {P} declared dead after 500000us (bound 400000us)",
            f"t=2 node={R}: source-routed decision for /line/data/seg=0 with named hop not alive",
            f"t=3 node={R}: min-cost decision for /line/data/seg=1 while named hop {P} is alive",
            f"t=5 node={R}: data /line/data/seg=0 sent to broadcast",
            f"t={reply['t']} node={reply['node']}: discovery {reply['name']} "
            f"price {reply['price']} != {reply['price'] - 1} for route {reply['route']}",
            f"t=9 node={R}: looping route {[P, R, P]} on interest /line/data/seg=0",
        ]


BROADCAST_DATA = {
    "t": 5,
    "node": R,
    "event": "tx",
    "kind": "data",
    "name": "/line/data/seg=0",
    "discovery": False,
    "to": "ff-ff-ff-ff-ff-ff",
}
LOOPING_INTEREST = {
    "t": 9,
    "node": R,
    "event": "tx",
    "kind": "interest",
    "name": "/line/data/seg=0",
    "route": [P, R, P],
    "to": P,
}
LATE_DEATH = {
    "t": 1,
    "node": R,
    "event": "neighbor_dead",
    "neighbor": P,
    "last_seen_us": 0,
    "detected_us": 500_000,
}
MISLABELED_DECISIONS = [
    {
        "t": 2,
        "node": R,
        "event": "decision",
        "name": "/line/data/seg=0",
        "mode": "source-routed",
        "named_hop": P,
        "named_hop_alive": False,
    },
    {
        "t": 3,
        "node": R,
        "event": "decision",
        "name": "/line/data/seg=1",
        "mode": "min-cost",
        "named_hop": P,
        "named_hop_alive": True,
    },
]
