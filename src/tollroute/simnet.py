"""Deterministic discrete-event simulator for the toll-route protocol.

One `Simulator` owns a topology of protocol nodes joined by scripted
point-to-point links, a shared broadcast medium per node neighborhood,
and the consumer-side flow logic that drives discovery, paced fetching,
retransmission, path fallback, and chunk verification.

Determinism rules, enforced throughout:

* time is integer microseconds; floats never touch the clock
* every event carries a (time, seq) key, seq assigned at scheduling
* all randomness flows from per-identity generators derived by hashing
  the scenario seed, never from shared or global state
* a sent packet arrives as itself: every wire bound holds where a
  packet is built, and the codec is canonical, so encoding it would
  change nothing; only a frame that a corrupting link alters is encoded,
  and its receiver decodes the altered bytes
* no artifact depends on hash or set order: addresses and names hash
  as their bytes and fields, which PYTHONHASHSEED varies, and
  tests/test_hashseed.py runs bundled scenarios under two seeds

Run twice with the same scenario, the simulator produces byte-identical
traces, reports, and ledger logs.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from functools import cached_property, partial

from .forwarding import ForwardingEngine, Send
from .keys import KeyDirectory, KeyPair
from .payment import (
    ChannelBook,
    Ledger,
    PaymentError,
    channel_id_for,
    consumer_pay_all,
)
from .proof import verify_chain
from .scenario import FetchAction, LinkAction, Scenario, ServeSpec
from .wire import (
    Data,
    DecodeError,
    HopInfo,
    Interest,
    Nack,
    Name,
    NodeAddr,
    Packet,
    RouteStack,
    decode_packet,
    encode_packet,
)

MS = 1_000  # microseconds per millisecond
_NO_FRAME: dict = {}  # the frame fields of a record that is not a frame's; never written


def derive_rng(seed: int, *parts: str) -> random.Random:
    material = hashlib.sha256(("|".join([str(seed), *parts])).encode()).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


@dataclass
class Link:
    a: NodeAddr
    b: NodeAddr
    latency_us: int
    drop_rate: float
    corrupt_rate: float
    up: bool
    seed: int  # the scenario's

    @cached_property
    def rng(self) -> random.Random:
        # Seeded on the first draw, so a link that never drops or
        # corrupts never seeds a generator.
        return derive_rng(self.seed, "link", str(self.a), str(self.b))

    def drops(self) -> bool:
        return self.drop_rate > 0.0 and self.rng.random() < self.drop_rate

    def corrupts(self) -> bool:
        return self.corrupt_rate > 0.0 and self.rng.random() < self.corrupt_rate

    def corrupt(self, pkt: Packet) -> bytes:
        """pkt's frame with one byte XORed by a non-zero mask; the offset
        and the mask come from the link's generator."""
        frame = bytearray(encode_packet(pkt))
        frame[self.rng.randrange(len(frame))] ^= self.rng.randrange(1, 256)
        return bytes(frame)


@dataclass
class Candidate:
    hops: tuple[NodeAddr, ...]  # next hop first, producer last
    price: int
    failed: bool = False


@dataclass
class Flow:
    node: NodeAddr
    name: Name  # prefix
    requested: int
    serve: ServeSpec
    start_us: int
    state: str = "discovering"
    generation: int = 0
    discovery_attempts: int = 1  # consecutive fruitless rounds; resets on selection
    discoveries: int = 0  # lifetime total, for the report
    candidates: list[Candidate] = field(default_factory=list)
    active: Candidate | None = None
    received: dict[int, bytes] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    send_queue: list[int] = field(default_factory=list)  # while fetching: armed iff non-empty
    nonces: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    sent_route: dict[int, tuple[NodeAddr, ...]] = field(default_factory=dict)
    proofs: dict[int, tuple] = field(default_factory=dict)  # first -> (proof, route), unverified
    verified: dict[int, str] = field(default_factory=dict)  # first -> "strict"|"rerouted"
    chunk_attempts: dict[int, int] = field(default_factory=dict)
    done_us: int | None = None
    fail_reason: str | None = None
    retransmits: int = 0
    nacks: int = 0
    refetches: int = 0
    signatures_verified: int = 0

    def required_spans(self) -> range:
        """First packets of the whole chunks inside the requested range;
        only these ever see a proof packet, so only these can be verified.
        A trailing partial chunk is the chunk of packet `requested`."""
        return range(0, self.serve.chunk(self.requested).start, self.serve.packets_per_chunk)

    def missing(self) -> list[int]:
        return [i for i in range(self.requested) if i not in self.received]

    def is_complete(self) -> bool:
        # received only ever holds indexes below requested, so a count
        # stands in for missing().
        return len(self.received) == self.requested and all(
            first in self.verified for first in self.required_spans()
        )


@dataclass
class RunResult:
    report: dict
    trace: list[dict]
    ledger_records: list[dict]

    def trace_bytes(self) -> bytes:
        return _json_lines(self.trace)

    def report_bytes(self) -> bytes:
        return json.dumps(self.report, sort_keys=True, indent=2).encode() + b"\n"

    def ledger_bytes(self) -> bytes:
        return _json_lines(self.ledger_records)


# One C encoder for every JSON line, built as json.dumps(sort_keys=True,
# separators=(",", ":")) builds one per call.  No cycle markers: a record
# is a tree the simulator built.
_json_line = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True,
)


def _json_lines(records: list[dict]) -> bytes:
    return "".join(["".join(_json_line(rec, 0)) + "\n" for rec in records]).encode()


class Simulator:
    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.defaults = scenario.defaults
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.trace: list[dict] = []

        # The nodes' public keys and the signatures known valid in this run:
        # every node's key records the ones it makes, and every check reads it.
        self.keys = KeyDirectory()
        self.ledger = Ledger(self.keys)
        self.book = ChannelBook(self.ledger)

        self.nodes: dict[NodeAddr, ForwardingEngine] = {}
        self._rngs: dict[NodeAddr, random.Random] = {}  # seeded on a node's first nonce
        for spec in scenario.nodes:
            self.ledger.mint(spec.addr, self.defaults.account_balance)
            key = KeyPair.from_seed(spec.addr, str(scenario.seed).encode(), self.keys)
            self.keys.public[spec.addr] = key.public
            self.nodes[spec.addr] = ForwardingEngine(
                spec, self.defaults, key, self.book, partial(self.emit, str(spec.addr)),
                partial(self._deliver, spec.addr),
            )

        # Each node's links by peer, in address order: in key order, a node's
        # links to lower peers come first, each in order, then its higher ones.
        self.neighbors: dict[NodeAddr, dict[NodeAddr, Link]] = {
            spec.addr: {} for spec in scenario.nodes
        }
        hopbyhop = self.defaults.payment_mode == "hopbyhop"
        deposit = self.defaults.channel_deposit
        for ls in sorted(scenario.links, key=lambda l: l.key):
            a, b = ls.key
            self.neighbors[a][b] = self.neighbors[b][a] = Link(
                a=a,
                b=b,
                latency_us=ls.latency_ms * MS,
                drop_rate=ls.drop_rate,
                corrupt_rate=ls.corrupt_rate,
                up=True,
                seed=scenario.seed,
            )
            if hopbyhop:
                # The scenario has checked that every node can fund these.
                self.ledger.open_channel(a, b, deposit, deposit)

        self.flows: dict[tuple[NodeAddr, tuple[bytes, ...]], Flow] = {}

        # Prime the schedule: keep-alive ticks, then scripted actions.
        for addr in sorted(self.nodes):
            self.at(0, self._tick_keepalive, addr)
        for action in scenario.schedule:
            if isinstance(action, LinkAction):
                self.at(action.at_ms * MS, self._do_link_change, action)
            elif isinstance(action, FetchAction):
                self.at(action.at_ms * MS, self._do_fetch, action)

    # -- plumbing ------------------------------------------------------

    def at(self, time_us: int, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, fn, args))

    def emit(self, origin: NodeAddr | str, event: str, frame: dict = _NO_FRAME, /,
             **fields) -> None:
        # Events about a specific node pass node=... in fields, which
        # wins over the origin tag; "sim" marks global happenings.  A
        # frame's tx and rx records also carry its shared `frame` fields.
        self.trace.append({"t": self.now, "node": str(origin), "event": event, **fields, **frame})

    def link_between(self, a: NodeAddr, b: NodeAddr) -> Link | None:
        return self.neighbors[a].get(b)

    def fresh_nonce(self, addr: NodeAddr) -> bytes:
        rng = self._rngs.get(addr)
        if rng is None:
            rng = self._rngs[addr] = derive_rng(self.scenario.seed, "node", str(addr))
        return rng.getrandbits(64).to_bytes(8, "big")

    # -- the medium ----------------------------------------------------

    def transmit(self, src: NodeAddr, action: Send) -> None:
        pkt = action.packet
        # Every record of this frame, sent or received intact, shares one
        # set of fields.
        fields = _frame_fields(pkt)
        self.emit(src, "tx", fields, to=str(action.to))
        if action.to.is_broadcast:
            targets = self.neighbors[src].items()
        else:
            # No link, or a link that is down, loses the frame silently:
            # exactly the failure keep-alives exist to surface.
            link = self.link_between(src, action.to)
            targets = () if link is None else ((action.to, link),)
        for peer, link in targets:
            if not link.up or link.drops():
                continue
            arrival = self.now + link.latency_us
            if link.corrupts():
                self.at(arrival, self._arrive, peer, src, link.corrupt(pkt))
            else:
                self.at(arrival, self._arrive, peer, src, pkt, fields)

    def _arrive(
        self, dst: NodeAddr, src: NodeAddr, pkt: Packet | bytes, fields: dict | None = None
    ) -> None:
        """`fields` are the sender's trace fields of an intact frame; a
        frame that a link altered arrives as bytes, without them."""
        if isinstance(pkt, bytes):
            # Whatever still decodes is delivered: proof chains and payment
            # words are what catch an alteration.
            try:
                pkt = decode_packet(pkt)
            except DecodeError as err:
                # An undecodable frame is lost like a dropped one.
                self.nodes[dst].counters["dropped_corrupt"] += 1
                self.emit(dst, "rx_corrupt", src=str(src), offset=err.offset, reason=err.reason)
                return
        if fields is None:
            fields = _frame_fields(pkt)
        self.emit(dst, "rx", fields, src=str(src))
        for action in self.nodes[dst].on_packet(pkt, self.now):
            self.transmit(dst, action)

    def _tick_keepalive(self, addr: NodeAddr) -> None:
        self.nodes[addr].keepalive_tick(self.now)
        for peer, link in self.neighbors[addr].items():
            if link.up and not link.drops():
                arrival = self.now + link.latency_us
                self.at(arrival, self.nodes[peer].on_keepalive, addr, arrival)
        nxt = self.now + self.defaults.keepalive_period_ms * MS
        if nxt <= self.scenario.duration_ms * MS:
            self.at(nxt, self._tick_keepalive, addr)

    # -- scripted actions ------------------------------------------------

    def _do_link_change(self, action: LinkAction) -> None:
        link = self.link_between(action.a, action.b)
        link.up = action.up
        self.emit("sim", "link_change", a=str(action.a), b=str(action.b), up=action.up)

    def _do_fetch(self, action: FetchAction) -> None:
        serve = next(s for n in self.scenario.nodes for s in n.serves if s.owns(action.name))
        flow = Flow(
            node=action.node,
            name=action.name,
            requested=action.packets,
            serve=serve,
            start_us=self.now,
        )
        self.flows[(flow.node, flow.name.components)] = flow
        self.emit("sim", "fetch", node=str(action.node), name=str(action.name),
                  packets=action.packets)
        if serve in self.nodes[action.node].serves:
            # Producer-local fetch: served from the node's own store, no
            # tokens move and nothing touches the network.
            for i in range(action.packets):
                flow.received[i] = serve.payload(i)
            for first in flow.required_spans():
                flow.verified[first] = "local"
            flow.state = "done"
            flow.active = Candidate(hops=(), price=0)
            flow.done_us = self.now
            self.emit("sim", "flow_local", node=str(action.node), name=str(action.name))
            return
        self._start_discovery(flow)

    # -- consumer flow logic ---------------------------------------------

    def _start_discovery(self, flow: Flow) -> None:
        flow.state = "discovering"
        flow.discoveries += 1
        nonce = self.fresh_nonce(flow.node)
        for action in self.nodes[flow.node].originate_discovery(flow.name, nonce, self.now):
            self.transmit(flow.node, action)
        self.at(self.now + self.defaults.discovery_wait_ms * MS, self._discovery_done, flow)

    def _discovery_done(self, flow: Flow) -> None:
        # The one pending round ends; the flow may have failed meanwhile.
        if flow.state != "discovering":
            return
        # Only a fetching flow demotes candidates, so none here has failed.
        self._select_candidate(flow)

    def _deliver(self, addr: NodeAddr, pkt: Data | Nack) -> bool:
        """A packet that ends at `addr`'s own application; True when one
        of its flows was waiting for it."""
        flow = self.flows.get((addr, pkt.name.components))
        if flow is None:
            return False
        if isinstance(pkt, Nack):
            return self._on_flow_nack(flow, pkt)
        if pkt.is_discovery:
            return self._on_path(flow, pkt)
        return self._on_flow_data(flow, pkt)

    def _on_path(self, flow: Flow, pkt: Data) -> bool:
        if flow.state in ("done", "failed"):
            return False
        # The route below the consumer: next hop first, producer last.
        hops = pkt.route.hops[1:]
        if not all(hop in self.nodes for hop in hops):
            # Only an altered frame names a node the run does not have,
            # and a route through one can be neither paid nor used.
            return False
        if any(c.hops == hops for c in flow.candidates):
            return True
        if len(flow.candidates) < self.defaults.candidate_paths:
            flow.candidates.append(Candidate(hops=hops, price=pkt.price))
        return True

    def _select_candidate(self, flow: Flow) -> None:
        live = [c for c in flow.candidates if not c.failed]
        if not live:
            self._rediscover(flow)
            return
        flow.active = min(live, key=lambda c: (c.price, c.hops))
        flow.state = "fetching"
        flow.generation += 1
        flow.send_queue = []
        # Finding a usable path resets discovery patience: the retry
        # budget bounds consecutive fruitless rounds, not a lifetime.
        flow.discovery_attempts = 0
        self.emit(
            "sim", "path_selected",
            node=str(flow.node), name=str(flow.name),
            route=[str(h) for h in flow.active.hops], price=flow.active.price,
        )
        self._schedule_sends(flow, flow.missing())

    def _schedule_sends(self, flow: Flow, indexes: list[int]) -> None:
        # Sends are chained, one event arming the next, rather than all
        # pre-scheduled.  The chain guarantees that packet i's frames
        # (and the channel commit its offer triggers) are processed
        # before packet i+1's offer is made, keeping consecutive
        # offers on a shared channel from racing each other.  A send is
        # armed exactly while the queue is non-empty: only _send_next
        # pops it, and _select_candidate empties it with a new generation.
        was_empty = not flow.send_queue
        flow.send_queue = sorted(set(flow.send_queue).union(indexes))
        if was_empty and flow.send_queue:
            self.at(self.now, self._send_next, flow, flow.generation)

    def _send_next(self, flow: Flow, generation: int) -> None:
        if generation != flow.generation or flow.state != "fetching":
            return
        while flow.send_queue and flow.send_queue[0] in flow.received:
            flow.send_queue.pop(0)
        if not flow.send_queue:
            return
        self._send_packet(flow, flow.send_queue.pop(0))
        # _send_packet never changes the generation, but a payment error
        # fails the flow.
        if flow.send_queue and flow.state == "fetching":
            self.at(
                self.now + self.defaults.send_interval_ms * MS,
                self._send_next, flow, generation,
            )

    def _send_packet(self, flow: Flow, idx: int) -> None:
        name = flow.name.with_index(idx)
        nonce = self.fresh_nonce(flow.node)
        hops = flow.active.hops
        key = self.nodes[flow.node].key
        lifetime_us = self.defaults.interest_lifetime_ms * MS
        payment = None
        try:
            if self.defaults.payment_mode == "payall":
                # The simulator plays every node: each recipient commits with its own key.
                consumer_pay_all(
                    self.book, key,
                    [(self.nodes[hop].key, self.nodes[hop].cost) for hop in hops],
                    (name, nonce), self.now, self.defaults.channel_deposit, lifetime_us,
                )
            elif flow.active.price > 0:  # a zero-price route carries no payment
                payment = self.book.make_offer(
                    key, channel_id_for(flow.node, hops[0]), flow.active.price,
                    (name, nonce), self.now, lifetime_us,
                )
        except PaymentError as err:
            self.emit("sim", "flow_error", node=str(flow.node), name=str(name),
                      reason=err.reason)
            self._fail_flow(flow, f"payment:{err.reason}")
            return
        pkt = Interest(
            name=name,
            nonce=nonce,
            hop_info=HopInfo(flow.node, hops[0]),
            lifetime_ms=self.defaults.interest_lifetime_ms,
            route=RouteStack(hops),
            payment=payment,
        )
        flow.nonces[nonce] = (idx, flow.generation)
        flow.sent_route[idx] = hops
        attempt = flow.attempts.get(idx, 0)
        for action in self.nodes[flow.node].originate_interest(pkt):
            self.transmit(flow.node, action)
        self.at(self.now + lifetime_us, self._packet_timeout, flow, idx, flow.generation, attempt)

    def _packet_timeout(self, flow: Flow, idx: int, generation: int, attempt: int) -> None:
        if (
            flow.state != "fetching"
            or generation != flow.generation
            or idx in flow.received
            or flow.attempts.get(idx, 0) != attempt
        ):
            return
        if attempt + 1 > self.defaults.retries:
            self.emit("sim", "route_exhausted", node=str(flow.node),
                      name=str(flow.name.with_index(idx)))
            self._demote_active(flow)
            return
        flow.attempts[idx] = attempt + 1
        flow.retransmits += 1
        # Retransmits ride the same send chain so they cannot land on
        # the wire in the middle of another packet's offer/commit pair.
        self._schedule_sends(flow, [idx])

    def _demote_active(self, flow: Flow) -> None:
        if flow.active is not None:
            flow.active.failed = True
        self._cancel_outstanding_offers(flow)
        flow.attempts.clear()
        self._select_candidate(flow)

    def _cancel_outstanding_offers(self, flow: Flow) -> None:
        for nonce, (idx, gen) in flow.nonces.items():
            if gen == flow.generation and idx not in flow.received:
                self.book.cancel_tag((flow.name.with_index(idx), nonce))

    def _rediscover(self, flow: Flow) -> None:
        if flow.discovery_attempts > self.defaults.retries:
            self._fail_flow(flow, "no-route")
            return
        flow.discovery_attempts += 1
        # Fresh epoch: the topology has visibly changed, so previously
        # failed routes get another chance.
        flow.candidates.clear()
        self._start_discovery(flow)

    def _fail_flow(self, flow: Flow, reason: str) -> None:
        flow.state = "failed"
        flow.fail_reason = reason
        flow.done_us = self.now
        self.emit("sim", "flow_failed", node=str(flow.node), name=str(flow.name),
                  reason=reason)

    def _on_flow_data(self, flow: Flow, pkt: Data) -> bool:
        idx = pkt.name.chunk_index
        route = flow.sent_route.get(idx)
        if route is None:  # the flow never asked for this packet
            return False
        if flow.state in ("done", "failed") or idx in flow.received:
            return True
        flow.received[idx] = pkt.payload
        proof = pkt.proof
        span = flow.serve.chunk(idx)
        # A proof rides only its chunk's final packet and covers exactly
        # that chunk; one that claims another span is not held.
        if proof is not None and idx == span[-1] and proof.span == span:
            flow.proofs[span.start] = (proof, route)
        self._try_verify(flow, span)
        self._check_complete(flow)
        return True

    def _try_verify(self, flow: Flow, span: range) -> None:
        # The chunk's held proof is checked once its last missing packet
        # arrives; a verified proof leaves flow.proofs.
        held = flow.proofs.get(span.start)
        if held is None or any(i not in flow.received for i in span):
            return
        proof, route = held
        payload = b"".join(flow.received[i] for i in span)
        expected = tuple(reversed(route))
        result = verify_chain(proof, payload, expected, self.keys)
        flow.signatures_verified += len(proof.chain)
        how = "strict"
        if not result.valid:
            # A relay may have repaired the path mid-flow; accept the
            # chain it actually took when it anchors at the same
            # producer and every signature checks out.
            observed = tuple(h.signer for h in proof.chain)
            if observed and expected and observed[0] == expected[0]:
                result = verify_chain(proof, payload, observed, self.keys)
                flow.signatures_verified += len(proof.chain)
                how = "rerouted"
        if result.valid:
            del flow.proofs[span.start]
            flow.verified[span.start] = how
            self.emit("sim", "chunk_verified", node=str(flow.node),
                      name=str(flow.name), first=span.start, how=how)
        else:
            self._chunk_failed(flow, span.start, result)

    def _chunk_failed(self, flow: Flow, first: int, result) -> None:
        self.emit(
            "sim", "chunk_verify_failed",
            node=str(flow.node), name=str(flow.name), first=first,
            fault=result.fault.value if result.fault else "unknown",
        )
        attempts = flow.chunk_attempts.get(first, 0) + 1
        flow.chunk_attempts[first] = attempts
        if attempts > self.defaults.retries:
            self._fail_flow(flow, "proof")
            return
        proof, _route = flow.proofs.pop(first)
        # A failed span was wholly received, so wholly sent, so below requested.
        span = list(proof.span)
        for i in span:
            flow.received.pop(i, None)
            flow.attempts[i] = 0
        flow.refetches += 1
        self._schedule_sends(flow, span)

    def _check_complete(self, flow: Flow) -> None:
        if flow.state == "fetching" and flow.is_complete():
            flow.state = "done"
            flow.done_us = self.now
            self.emit("sim", "flow_complete", node=str(flow.node), name=str(flow.name),
                      latency_ms=(self.now - flow.start_us) // MS)

    def _on_flow_nack(self, flow: Flow, pkt: Nack) -> bool:
        entry = flow.nonces.get(pkt.nonce)
        if entry is None:
            return False
        idx, gen = entry
        if flow.state != "fetching" or gen != flow.generation or idx in flow.received:
            return True
        flow.nacks += 1
        self.emit("sim", "flow_nacked", node=str(flow.node),
                  name=str(flow.name.with_index(idx)), reason=pkt.reason.name)
        self._demote_active(flow)
        return True

    # -- run and report ----------------------------------------------------

    def run(self) -> RunResult:
        horizon = self.scenario.duration_ms * MS
        while self._heap:
            time_us, _seq, fn, args = heapq.heappop(self._heap)
            if time_us > horizon:
                break
            self.now = time_us
            fn(*args)
        self.now = horizon
        settled = self.book.settle_all()
        self.emit("sim", "settled", channels=settled)
        return RunResult(
            report=self._report(),
            trace=self.trace,
            ledger_records=list(self.ledger.log),
        )

    def _report(self) -> dict:
        flows = []
        for flow in sorted(self.flows.values(), key=lambda f: (str(f.node), str(f.name))):
            complete = flow.state == "done"
            flows.append({
                "node": str(flow.node),
                "name": str(flow.name),
                "status": flow.state,
                "requested": flow.requested,
                "received": len(flow.received),
                "verified_spans": len(flow.verified),
                "required_spans": len(flow.required_spans()),
                "price": flow.active.price if flow.active else None,
                "route": [str(flow.node)] + [str(h) for h in flow.active.hops]
                if flow.active else None,
                "paths_found": len(flow.candidates),
                "start_ms": flow.start_us // MS,
                "done_ms": flow.done_us // MS if flow.done_us is not None else None,
                "latency_ms": (flow.done_us - flow.start_us) // MS if complete else None,
                "retransmits": flow.retransmits,
                "nacks": flow.nacks,
                "refetches": flow.refetches,
                "rediscoveries": max(flow.discoveries - 1, 0),
                "signatures_verified": flow.signatures_verified,
                "verified_strict": sum(1 for v in flow.verified.values() if v == "strict"),
                "verified_rerouted": sum(1 for v in flow.verified.values() if v == "rerouted"),
                "fail_reason": flow.fail_reason,
            })

        node_counters = {
            str(addr): dict(sorted(self.nodes[addr].counters.items()))
            for addr in sorted(self.nodes)
        }
        fib = {
            str(addr): self.nodes[addr].tables.fib.dump()
            for addr in sorted(self.nodes)
        }
        def total(key: str) -> int:
            return sum(n.counters.get(key, 0) for n in self.nodes.values())

        ops = {"mint": 0, "open": 0, "update": 0, "settle": 0}
        for rec in self.ledger.log:
            ops[rec["op"]] = ops.get(rec["op"], 0) + 1
        initial = self.defaults.account_balance
        incomes = {
            str(addr): self.ledger.balance(addr) - initial for addr in sorted(self.nodes)
        }
        return {
            "scenario": self.scenario.source.rsplit("/", 1)[-1],
            "seed": self.scenario.seed,
            "duration_ms": self.scenario.duration_ms,
            "payment_mode": self.defaults.payment_mode,
            "flows": flows,
            "nodes": node_counters,
            "fib": fib,
            "modes": {
                "source_routed": total("mode_source_routed"),
                "min_cost": total("mode_min_cost"),
                "rediscovery": total("mode_rediscovery"),
            },
            "broadcast": {
                "rebroadcasts": total("rebroadcasts"),
                "suppressed": total("broadcast_suppressed"),
            },
            "signatures": {
                "produced": total("signatures_produced"),
                "verified": sum(f.signatures_verified for f in self.flows.values()),
            },
            "payments": {
                "channels_opened": ops["open"],
                "updates": ops["update"],
                "settlements": ops["settle"],
            },
            "ledger": {
                "minted": self.ledger.minted,
                "conserved": self.ledger.conserved(),
                "accounts": {
                    str(addr): self.ledger.balance(addr) for addr in sorted(self.nodes)
                },
                "incomes": incomes,
            },
        }

    def dump_state(self) -> list[str]:
        lines = []
        for addr in sorted(self.nodes):
            lines.append(f"node {addr}")
            for line in self.nodes[addr].tables.dump(self.now):
                lines.append(f"  {line}")
        return lines


def _frame_fields(pkt) -> dict:
    if isinstance(pkt, Interest):
        fields = {
            "kind": "interest",
            "name": str(pkt.name),
            "nonce": pkt.nonce.hex(),
            "routed": not pkt.is_discovery,
        }
        if pkt.route is not None:
            fields["route"] = [str(h) for h in pkt.route.hops]
        if pkt.payment is not None:
            fields["amount"] = pkt.payment.amount
        return fields
    if isinstance(pkt, Data):
        fields = {
            "kind": "data",
            "name": str(pkt.name),
            "discovery": pkt.is_discovery,
        }
        if pkt.is_discovery:
            fields["route"] = [str(h) for h in pkt.route.hops]
            fields["price"] = pkt.price
        else:
            fields["proof"] = pkt.proof is not None
        return fields
    return {
        "kind": "nack",
        "name": str(pkt.name),
        "nonce": pkt.nonce.hex(),
        "reason": pkt.reason.name,
    }


def run_scenario(scenario: Scenario) -> RunResult:
    return Simulator(scenario).run()


def format_report(report: dict) -> str:
    """Stable human-readable summary; the golden CLI tests pin this."""
    lines = [
        f"run {report['scenario']} seed={report['seed']} "
        f"duration_ms={report['duration_ms']} payment={report['payment_mode']}"
    ]
    for flow in report["flows"]:
        route = "->".join(flow["route"]) if flow["route"] else "-"
        latency = flow["latency_ms"] if flow["latency_ms"] is not None else "-"
        price = flow["price"] if flow["price"] is not None else "-"
        lines.append(
            f"flow {flow['name']} @ {flow['node']}: {flow['status']} "
            f"{flow['received']}/{flow['requested']} price={price} "
            f"latency_ms={latency} route={route}"
        )
    modes = report["modes"]
    lines.append(
        f"modes source_routed={modes['source_routed']} "
        f"min_cost={modes['min_cost']} rediscovery={modes['rediscovery']}"
    )
    sig = report["signatures"]
    lines.append(f"signatures produced={sig['produced']} verified={sig['verified']}")
    pay = report["payments"]
    ledger = report["ledger"]
    lines.append(
        f"payments channels={pay['channels_opened']} updates={pay['updates']} "
        f"settlements={pay['settlements']} conserved={str(ledger['conserved']).lower()}"
    )
    income = " ".join(
        f"{addr}={delta:+d}" for addr, delta in sorted(ledger["incomes"].items())
    )
    lines.append(f"income {income}")
    return "\n".join(lines)
