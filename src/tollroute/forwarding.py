"""Per-node forwarding logic.

One ForwardingEngine instance is a node's control plane: packets go in,
a list of link actions comes out, and all state lives in the node's
tables, its payment book, and a couple of engine-local caches.  The
engine is event-driven and clockless; callers pass `now` (microseconds).

Strategy ladder for routed content Interests, in order:

  source-routed   the packet's own route names the next hop and it is
                  believed alive;
  min-cost        the named hop is dead or the route ran dry, so the
                  cheapest enabled FIB hop (excluding the sender) takes
                  over and the route is rewritten to just that hop;
  rediscovery     no usable FIB hop either: the Interest is converted
                  back to discovery form (same name, same nonce, no
                  route, no payment) and broadcast, subject to a
                  round-robin grant across flows; flows not granted get
                  a no-route Nack.

Discovery Interests flood with per-node duplicate suppression and a
one-rebroadcast budget per nonce.  Discovery Data retraces the reverse
path, growing its route stack and adding each relay's forwarding cost
to the carried price.  Content Data follows PIT state only and is never
broadcast.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .keys import KeyPair
from .payment import ChannelBook, PaymentError, relay_process_payment
from .proof import ProofError, make_chunk, sign_chunk
from .scenario import Defaults, NodeSpec, ServeSpec
from .tables import NodeTables, PitResult
from .wire import (
    BROADCAST,
    ChunkProof,
    Data,
    HopInfo,
    Interest,
    Nack,
    NackReason,
    Name,
    NodeAddr,
    Packet,
    Payment,
    RouteStack,
)


@dataclass(frozen=True)
class Send:
    to: NodeAddr
    packet: Packet


def _each_once(pending: list[tuple[NodeAddr, bytes]]) -> dict[NodeAddr, None]:
    """Each PIT downstream address once, in PIT order: a neighbor that
    asked under several nonces still gets a single reply."""
    return dict.fromkeys(addr for addr, _nonce in pending)


class RediscoveryScheduler:
    """Round-robin grants across flows that want rediscovery.

    A flow is denied only when it asks twice in a row while another flow
    is known; the denial yields its turn, so a lone greedy flow still
    makes progress every other request and nobody starves.
    """

    def __init__(self) -> None:
        self._known: set[tuple[bytes, ...]] = set()
        self._last: tuple[bytes, ...] | None = None

    def request(self, prefix: Name) -> bool:
        key = prefix.components
        self._known.add(key)
        if self._last == key and len(self._known) > 1:
            self._last = None
            return False
        self._last = key
        return True


class ForwardingEngine:
    """One node, built from its scenario entry and the scenario-wide
    defaults; the scenario has already checked both.  `trace(event,
    **fields)` records one of the node's trace events; `deliver` takes a
    packet that ends at this node's own application and returns True when
    the node was waiting for it."""

    def __init__(
        self,
        spec: NodeSpec,
        defaults: Defaults,
        key: KeyPair,
        book: ChannelBook,
        trace: Callable[..., None],
        deliver: Callable[[Data | Nack], bool],
    ) -> None:
        self.addr = spec.addr
        self.cost = spec.cost
        self.relay_mode = spec.relay_mode or defaults.relay_mode
        self.payment_mode = defaults.payment_mode
        self.interest_lifetime_ms = defaults.interest_lifetime_ms  # wire lifetimes are ms
        self.tables = NodeTables(defaults)
        self.key = key
        self.book = book
        self.trace = trace
        self.deliver = deliver
        self.serves = spec.serves
        self.counters: defaultdict[str, int] = defaultdict(int)
        # Discovery nonces already rebroadcast: each gets one rebroadcast.
        self._rebroadcast: set[bytes] = set()
        self._rediscovery = RediscoveryScheduler()
        self._own_nonces: set[bytes] = set()
        # Newest chain per chunk this node signed, as producer or relay,
        # keyed by (prefix components, index of the chunk's final packet):
        # the packet that carries the proof.
        self._proofs: dict[tuple[tuple[bytes, ...], int], ChunkProof] = {}
        # Store-and-forward: content Data held back until the chunk's
        # proof packet arrives, keyed by prefix.
        self._sf_buffers: dict[tuple[bytes, ...], dict[int, Data]] = {}

    # -- helpers -----------------------------------------------------

    def _source_for(self, name: Name) -> ServeSpec | None:
        for serve in self.serves:
            if serve.covers(name):
                return serve
        return None

    def _serves_prefix(self, name: Name) -> bool:
        return any(s.owns(name) for s in self.serves)

    def _nack(self, to: NodeAddr, name: Name, nonce: bytes, reason: NackReason) -> Send:
        """Refuse one Interest.  Its PIT slot goes too, so a retry from
        the same neighbor is a fresh request, not an aggregated one."""
        self.tables.pit.release(name, to, nonce)
        self.counters["nacks_sent"] += 1
        self.trace("nack_sent", name=str(name), to=str(to), reason=reason.name)
        return Send(to, Nack(name=name, nonce=nonce, reason=reason))

    def _discovery(self, name: Name, nonce: bytes, lifetime_ms: int) -> Send:
        """A discovery Interest from this node: no route, no payment."""
        return Send(BROADCAST, Interest(
            name=name, nonce=nonce, hop_info=HopInfo(self.addr), lifetime_ms=lifetime_ms
        ))

    def _trace_decision(
        self, name: Name, mode: str, next_hop: NodeAddr | None,
        named_hop: NodeAddr | None, named_alive: bool,
    ) -> None:
        self.trace(
            "decision",
            name=str(name),
            mode=mode,
            next_hop=None if next_hop is None else str(next_hop),
            named_hop=None if named_hop is None else str(named_hop),
            named_hop_alive=named_alive,
        )

    # -- keep-alive --------------------------------------------------

    def on_keepalive(self, neighbor: NodeAddr, now: int) -> None:
        if self.tables.keepalive_heard(neighbor, now):
            self.trace("neighbor_revived", neighbor=str(neighbor), last_seen_us=now)

    def keepalive_tick(self, now: int) -> list[NodeAddr]:
        newly_dead = self.tables.keepalive_sweep(now)
        for neighbor in newly_dead:
            self.trace(
                "neighbor_dead",
                neighbor=str(neighbor),
                last_seen_us=self.tables.liveness.last_seen(neighbor),
                detected_us=now,
            )
        self.book.purge_expired(now)
        return newly_dead

    # -- origination (consumer side) ---------------------------------

    def originate_discovery(self, name: Name, nonce: bytes, now: int) -> list[Send]:
        self._own_nonces.add(nonce)
        self.trace("discovery_originated", name=str(name), nonce=nonce.hex())
        return [self._discovery(name, nonce, self.interest_lifetime_ms)]

    def originate_interest(self, pkt: Interest) -> list[Send]:
        """Send an app-built routed Interest toward its route top."""
        if pkt.route is None:
            raise ValueError("originated content Interests must be source-routed")
        self._own_nonces.add(pkt.nonce)
        return [Send(pkt.route.top, pkt)]

    # -- Interest handling -------------------------------------------

    def on_interest(self, pkt: Interest, now: int) -> list[Send]:
        self.counters["interests_in"] += 1
        if pkt.nonce in self._own_nonces:
            # Our own flood came back around a loop.
            self.counters["dropped_own_nonce"] += 1
            return []
        if pkt.is_discovery:
            return self._on_discovery_interest(pkt, now)
        if pkt.hop_info.remote != self.addr:
            self.counters["dropped_malformed"] += 1
            return []
        return self._on_routed_interest(pkt, now)

    def _on_discovery_interest(self, pkt: Interest, now: int) -> list[Send]:
        sender = pkt.hop_info.local
        result = self.tables.pit.insert(
            pkt.name, sender, pkt.nonce, now, pkt.lifetime_ms * 1_000
        )
        if result is PitResult.DUPLICATE_NONCE:
            self.counters["dropped_duplicate"] += 1
            return []
        if self._serves_prefix(pkt.name):
            # Authoritative: nothing upstream can outbid the origin.
            return self._answer_discovery(pkt.name, now)
        actions: list[Send] = []
        if self._can_serve(pkt.name):
            # A cache answer is an offer, not the origin; the search
            # keeps travelling so the consumer also learns a path that
            # can serve packets this cache never held.
            actions.extend(self._answer_discovery(pkt.name, now, consume=False))
        # AGGREGATED with a fresh nonce is a retransmitted discovery: the
        # first broadcast may have died on a partitioned link, so it is
        # forwarded again like any retransmitted Interest.
        if pkt.nonce not in self._rebroadcast:
            self._rebroadcast.add(pkt.nonce)
            self.counters["rebroadcasts"] += 1
            self.trace("rebroadcast", name=str(pkt.name), nonce=pkt.nonce.hex())
            actions.append(self._discovery(pkt.name, pkt.nonce, pkt.lifetime_ms))
            return actions
        self.counters["broadcast_suppressed"] += 1
        return actions

    def _answer_discovery(self, name: Name, now: int, consume: bool = True) -> list[Send]:
        """Producer (or caching relay) answers: one discovery Data per
        pending downstream, route seeded [downstream, self].  A cache
        answer passes consume=False so the PIT entry stays alive for the
        reply that may still come back from the true origin."""
        actions: list[Send] = []
        pit = self.tables.pit
        pending = pit.consume(name, now) if consume else pit.peek(name, now)
        for downstream, _nonce in pending:
            data = Data(
                name=name,
                hop_info=HopInfo(self.addr, downstream),
                route=RouteStack((downstream, self.addr)),
                payload=b"",
                price=self.cost,
            )
            self.counters["discovery_answers"] += 1
            self.trace(
                "discovery_answered",
                name=str(name),
                to=str(downstream),
                price=self.cost,
            )
            actions.append(Send(downstream, data))
        return actions

    def _can_serve(self, name: Name) -> bool:
        if self._source_for(name) is not None:
            return True
        if self.tables.cs.lookup(name) is not None:
            return True
        # Discovery names may omit the packet index; holding the first
        # packet is good enough to answer for the prefix.
        if name.chunk_index is None:
            return self.tables.cs.lookup(name.with_index(0)) is not None
        return False

    def _on_routed_interest(self, pkt: Interest, now: int) -> list[Send]:
        sender = pkt.hop_info.local
        after_me = pkt.route.pop()
        result = self.tables.pit.insert(
            pkt.name, sender, pkt.nonce, now, pkt.lifetime_ms * 1_000
        )
        if result is PitResult.DUPLICATE_NONCE:
            self.counters["dropped_duplicate"] += 1
            return []

        if self._can_serve(pkt.name):
            return self._serve_content(pkt, sender, now)

        if result is PitResult.AGGREGATED:
            # Already fetching this name for someone else; this payment is
            # margin for work already paid for upstream.
            accepted, _ = self._settle_incoming(pkt, None, now)
            if not accepted:
                return [self._nack(sender, pkt.name, pkt.nonce, NackReason.INSUFFICIENT_PAYMENT)]
            self.counters["aggregated"] += 1
            return []

        # Strategy ladder.
        named_hop = after_me.top if after_me is not None else None
        named_alive = named_hop is not None and self.tables.liveness.is_alive(named_hop, now)
        if named_alive:
            mode, next_hop, out_route = "source-routed", named_hop, after_me
        else:
            exclude = (sender,) if named_hop is None else (sender, named_hop)
            fallback = self.tables.fib.lookup_min_cost(pkt.name, exclude=exclude)
            if fallback is not None:
                hop, _price = fallback
                mode, next_hop, out_route = "min-cost", hop, RouteStack((hop,))
            else:
                return self._rediscover_or_refuse(pkt, sender, named_hop, now)
        self._trace_decision(pkt.name, mode, next_hop, named_hop, named_alive)
        self.counters[f"mode_{mode.replace('-', '_')}"] += 1

        accepted, payment = self._settle_incoming(pkt, next_hop, now)
        if not accepted:
            return [self._nack(sender, pkt.name, pkt.nonce, NackReason.INSUFFICIENT_PAYMENT)]
        out = Interest(
            name=pkt.name,
            nonce=pkt.nonce,
            hop_info=HopInfo(self.addr, next_hop),
            route=out_route,
            payment=payment,
            lifetime_ms=pkt.lifetime_ms,
        )
        return [Send(next_hop, out)]

    def _rediscover_or_refuse(
        self, pkt: Interest, sender: NodeAddr, named_hop: NodeAddr | None, now: int
    ) -> list[Send]:
        self._trace_decision(pkt.name, "rediscovery", None, named_hop, False)
        if self._rediscovery.request(pkt.name):
            self.counters["mode_rediscovery"] += 1
            self.trace("rediscovery", name=str(pkt.name), nonce=pkt.nonce.hex())
            # Keep the nonce: replies correlate upstream and back.
            return [self._discovery(pkt.name, pkt.nonce, pkt.lifetime_ms)]
        self.counters["rediscovery_refused"] += 1
        return [self._nack(sender, pkt.name, pkt.nonce, NackReason.NO_ROUTE)]

    def _settle_incoming(
        self, pkt: Interest, upstream: NodeAddr | None, now: int
    ) -> tuple[bool, Payment | None]:
        """Commit the payment riding an Interest and, when forwarding to
        `upstream`, make the onward offer.  Returns (accepted, onward
        offer); payall-mode Interests carry no payment and are always
        accepted."""
        if self.payment_mode != "hopbyhop":
            return True, None
        try:
            kept, offer = relay_process_payment(
                self.book,
                self.key,
                pkt.hop_info.local,
                pkt.payment,
                self.cost,
                upstream,
                (pkt.name, pkt.nonce),
                now,
                pkt.lifetime_ms * 1_000,
            )
        except PaymentError as err:
            self.counters["payment_rejects"] += 1
            self.trace("payment_rejected", name=str(pkt.name), reason=err.reason)
            return False, None
        self.counters["tokens_kept"] += kept
        return True, offer

    def _serve_content(self, pkt: Interest, sender: NodeAddr, now: int) -> list[Send]:
        # A cache or producer hit keeps the full remaining payment; no
        # upstream does any work for it.
        accepted, _ = self._settle_incoming(pkt, None, now)
        if not accepted:
            return [self._nack(sender, pkt.name, pkt.nonce, NackReason.INSUFFICIENT_PAYMENT)]
        actions: list[Send] = []
        for downstream, _nonce in self.tables.pit.consume(pkt.name, now):
            data = self._build_content(pkt.name, downstream)
            if data is None:
                actions.append(self._nack(downstream, pkt.name, pkt.nonce, NackReason.NO_ROUTE))
                continue
            self.counters["data_served"] += 1
            actions.append(Send(downstream, data))
        return actions

    def _build_content(self, name: Name, downstream: NodeAddr) -> Data | None:
        serve = self._source_for(name)
        if serve is not None:
            payload = serve.payload(name.chunk_index)
            proof = self._producer_proof(serve, name.chunk_index)
        else:
            payload = self.tables.cs.lookup(name)
            if payload is None:
                return None
            proof = self._proofs.get((name.components, name.chunk_index))
        return Data(
            name=name,
            hop_info=HopInfo(self.addr, downstream),
            payload=payload,
            proof=proof,
        )

    def _producer_proof(self, serve: ServeSpec, index: int) -> ChunkProof | None:
        count = serve.packets_per_chunk
        first = serve.chunk_first(index)
        if index != first + count - 1:
            return None  # proof rides only the chunk's final packet
        key = (serve.prefix.components, index)
        proof = self._proofs.get(key)
        if proof is None:
            payload = b"".join(serve.payload(i) for i in range(first, first + count))
            proof = make_chunk(self.key, first, payload, serve.packet_size)
            self._proofs[key] = proof
            self.counters["signatures_produced"] += 1
            self.trace("chunk_signed", prefix=str(serve.prefix), first=first, count=count)
        return proof

    # -- Data handling -----------------------------------------------

    def on_data(self, pkt: Data, now: int) -> list[Send]:
        self.counters["data_in"] += 1
        if pkt.hop_info.remote != self.addr:
            self.counters["dropped_malformed"] += 1
            return []
        if pkt.is_discovery:
            return self._on_discovery_data(pkt, now)
        return self._on_content_data(pkt, now)

    def _on_discovery_data(self, pkt: Data, now: int) -> list[Send]:
        sender = pkt.hop_info.local
        # Price observation first, unconditionally: even a misaddressed
        # reply is a genuine price signal from this neighbor.
        self.tables.fib.update(pkt.name, sender, pkt.price)
        self.trace(
            "fib_update", prefix=str(pkt.name.prefix), hop=str(sender), price=pkt.price
        )
        if pkt.route.top != self.addr or len(pkt.route.hops) == 1:
            # Misaddressed, or a route of just ourselves: no path back to anyone.
            self.counters["dropped_malformed"] += 1
            return []
        # The route below this node runs next-hop-first to producer-last:
        # exactly the stack a content Interest from here must carry.
        consumed = self.deliver(pkt)
        if consumed:
            self.trace("path_recorded", name=str(pkt.name), price=pkt.price)
        actions: list[Send] = []
        for downstream in _each_once(self.tables.pit.consume(pkt.name, now)):
            if downstream in pkt.route.hops:
                # The recorded path already visits that neighbor; handing
                # the reply back would advertise a looping route.
                self.counters["reply_loop_suppressed"] += 1
                continue
            out = Data(
                name=pkt.name,
                hop_info=HopInfo(self.addr, downstream),
                route=pkt.route.push(downstream),
                payload=b"",
                price=pkt.price + self.cost,
            )
            self.counters["discovery_forwarded"] += 1
            actions.append(Send(downstream, out))
        if not consumed and not actions:
            self.counters["dropped_unsolicited"] += 1
        return actions

    def _on_content_data(self, pkt: Data, now: int) -> list[Send]:
        if (
            self.relay_mode == "storeforward"
            and pkt.name.chunk_index is not None
            and pkt.name in self.tables.pit
        ):
            return self._store_and_forward(pkt, now)
        return self._relay_content(pkt, now)

    def _relay_content(self, pkt: Data, now: int) -> list[Send]:
        downstreams = self.tables.pit.consume(pkt.name, now)
        if not downstreams:
            if self.deliver(pkt):
                self.tables.cs.insert(pkt.name, pkt.payload)
                return []
            self.counters["dropped_unsolicited"] += 1
            return []
        proof = None if pkt.proof is None else self._extend_proof(pkt)
        self.tables.cs.insert(pkt.name, pkt.payload)
        once = _each_once(downstreams)
        self.counters["data_forwarded"] += len(once)
        return [
            Send(downstream, Data(
                name=pkt.name,
                hop_info=HopInfo(self.addr, downstream),
                payload=pkt.payload,
                proof=proof,
            ))
            for downstream in once
        ]

    def _extend_proof(self, pkt: Data) -> ChunkProof:
        """Cut-through signing: pull the chunk's earlier packets from the
        content store, reassemble, and append our signature.  If the
        chunk cannot be reassembled or fails validation the arriving
        proof is returned untouched (the consumer will notice the gap)."""
        proof = pkt.proof
        last = proof.first + proof.count - 1
        parts: list[bytes] = []
        try:
            for index in range(proof.first, last + 1):
                if index == pkt.name.chunk_index:
                    part = pkt.payload
                else:
                    part = self.tables.cs.lookup(pkt.name.with_index(index))
                    if part is None:
                        raise ProofError(f"packet {index} not in content store")
                parts.append(part)
            extended = sign_chunk(self.key, proof, b"".join(parts))
        except ProofError as err:
            self.counters["proof_forwarded_unsigned"] += 1
            self.trace("proof_pass_through", name=str(pkt.name), reason=str(err))
            return proof
        self.counters["signatures_produced"] += 1
        self.trace(
            "chunk_signed", prefix=str(pkt.name.prefix), first=proof.first, count=proof.count
        )
        # Remember the extended chain so a later cache hit on this chunk
        # can hand out the same proof.
        self._proofs[(pkt.name.components, last)] = extended
        return extended

    def _store_and_forward(self, pkt: Data, now: int) -> list[Send]:
        """Hold content packets until their chunk's proof packet arrives,
        then validate and flush the whole chunk in order."""
        key = pkt.name.components
        buffer = self._sf_buffers.setdefault(key, {})
        buffer[pkt.name.chunk_index] = pkt
        if pkt.proof is None:
            self.counters["sf_buffered"] += 1
            return []
        proof = pkt.proof
        wanted = range(proof.first, proof.first + proof.count)
        if any(i not in buffer for i in wanted):
            # Chunk has holes; keep waiting (upstream retransmits will
            # carry the proof again on the final packet).
            self.counters["sf_buffered"] += 1
            return []
        actions: list[Send] = []
        self.counters["sf_flushes"] += 1
        for index in wanted:
            actions.extend(self._relay_content(buffer.pop(index), now))
        return actions

    # -- Nack handling -----------------------------------------------

    def on_nack(self, pkt: Nack, now: int) -> list[Send]:
        # Nacks carry no hop header; link-level delivery already
        # guaranteed this node is the addressee.
        self.counters["nacks_in"] += 1
        cancelled = self.book.cancel_tag((pkt.name, pkt.nonce))
        if cancelled:
            self.trace(
                "offer_cancelled", name=str(pkt.name), nonce=pkt.nonce.hex(), count=cancelled
            )
        downstreams = self.tables.pit.consume(pkt.name, now)
        if not downstreams:
            if not self.deliver(pkt):
                self.counters["dropped_unsolicited"] += 1
            return []
        actions: list[Send] = []
        for downstream, dnonce in downstreams:
            actions.append(Send(downstream, Nack(name=pkt.name, nonce=dnonce, reason=pkt.reason)))
            self.counters["nacks_forwarded"] += 1
        return actions

    # -- dispatch ----------------------------------------------------

    def on_packet(self, pkt: Packet, now: int) -> list[Send]:
        if isinstance(pkt, Interest):
            return self.on_interest(pkt, now)
        if isinstance(pkt, Data):
            return self.on_data(pkt, now)
        return self.on_nack(pkt, now)
