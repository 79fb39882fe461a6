"""Forwarding engine behavior: discovery flood and reply, the strategy
ladder, payments riding Interests, and proof handling on content Data."""

import random

import pytest

from tollroute.forwarding import ForwardingEngine, RediscoveryScheduler, Send
from tollroute.keys import KeyPair, VerifiedLinks
from tollroute.payment import ChannelBook, Ledger, channel_id_for
from tollroute.proof import verify_chain
from tollroute.scenario import Defaults, NodeSpec, ServeSpec
from tollroute.wire import (
    BROADCAST,
    ChunkProof,
    Data,
    HopInfo,
    HopSignature,
    Interest,
    Nack,
    NackReason,
    Name,
    NodeAddr,
    Payment,
    RouteStack,
)

A = NodeAddr.parse("00-0a-00-00-00-01")  # consumer
B = NodeAddr.parse("00-0a-00-00-00-02")  # relay, cost 3
C = NodeAddr.parse("00-0a-00-00-00-03")  # producer, cost 12
D = NodeAddr.parse("00-0a-00-00-00-04")  # spare relay
PREFIX = Name((b"video", b"clip"))
NONCE = b"\x11" * 8
LIFETIME_US = 4_000_000


def interest(name, nonce, local, remote=None, route=None, payment=None, lifetime_ms=4_000):
    return Interest(
        name=name,
        nonce=nonce,
        hop_info=HopInfo(local, remote),
        lifetime_ms=lifetime_ms,
        route=route,
        payment=payment,
    )


class Capture:
    """The node's application side: records trace events and every
    packet the engine delivers, and claims a delivery only when `accept`
    is set."""

    def __init__(self):
        self.events = []
        self.delivered = []
        self.accept = False

    def trace(self, event, **fields):
        self.events.append({"event": event, **fields})

    def deliver(self, pkt):
        self.delivered.append(pkt)
        return self.accept


def make_node(
    addr, cost=0, book=None, relay_mode=None, payment_mode="hopbyhop", serves=(), **defaults
):
    """An engine for one node; without a shared book it gets a private one.
    Extra keywords override scenario defaults."""
    if book is None:
        book = ChannelBook(Ledger(), {}, VerifiedLinks())
    key = KeyPair.from_seed(addr, b"fwd-tests", book.memo)
    cap = Capture()
    engine = ForwardingEngine(
        NodeSpec(addr, cost, relay_mode, serves),
        Defaults(payment_mode=payment_mode, **defaults), key, book,
        cap.trace, cap.deliver,
    )
    book.directory[addr] = key.public
    return engine, cap


def payment_fabric(*addrs, balance=1_000):
    ledger = Ledger()
    book = ChannelBook(ledger, {}, VerifiedLinks())
    for addr in addrs:
        ledger.mint(addr, balance)
    return ledger, book


def served(total=4, ppc=4):
    """PREFIX as `total` packets of 100 B in chunks of `ppc`."""
    return (ServeSpec(PREFIX, packet_size=100, packets_per_chunk=ppc, chunks=total // ppc),)


class TestDiscovery:
    def test_flood_answer_and_price_accumulation(self):
        """Consumer floods, relay rebroadcasts once, producer answers, and
        the reply retraces with the route growing and the price summing."""
        ledger, book = payment_fabric(A, B, C)
        # Only the consumer's lifetime differs from the default, so the
        # relay's rebroadcast shows whose lifetime it carries.
        consumer, cap_a = make_node(A, 0, book, interest_lifetime_ms=2_500)
        relay, _ = make_node(B, 3, book)
        producer, _ = make_node(C, 12, book, serves=served())
        cap_a.accept = True

        (bcast,) = consumer.originate_discovery(PREFIX, NONCE, now=0)
        assert bcast.to == BROADCAST
        assert bcast.packet.is_discovery and bcast.packet.payment is None
        assert bcast.packet.hop_info == HopInfo(A)
        assert bcast.packet.lifetime_ms == 2_500

        (rebcast,) = relay.on_interest(bcast.packet, now=5)
        assert rebcast.to == BROADCAST
        assert rebcast.packet.nonce == NONCE
        assert rebcast.packet.hop_info == HopInfo(B)
        assert rebcast.packet.lifetime_ms == 2_500

        (answer,) = producer.on_interest(rebcast.packet, now=10)
        assert isinstance(answer, Send) and answer.to == B
        assert answer.packet.route == RouteStack((B, C))
        assert answer.packet.price == 12 and answer.packet.payload == b""

        (reply,) = relay.on_data(answer.packet, now=15)
        assert reply.to == A
        assert reply.packet.route == RouteStack((A, B, C))
        assert reply.packet.price == 15

        assert consumer.on_data(reply.packet, now=20) == []
        (path,) = cap_a.delivered
        assert (path.name, path.price) == (PREFIX, 15)
        # The route below the consumer is ready to ride a content Interest:
        # next hop first, producer last.
        assert path.route.hops[1:] == (B, C)
        # Both relay and consumer learned prices from the reply.
        assert relay.tables.fib.lookup_min_cost(PREFIX) == (C, 12)
        assert consumer.tables.fib.lookup_min_cost(PREFIX) == (B, 15)

    def test_duplicate_nonce_dropped_and_aggregation_suppresses_rebroadcast(self):
        relay, _ = make_node(B, 3)
        first = interest(PREFIX, NONCE, A)
        assert len(relay.on_interest(first, now=0)) == 1
        # Same copy again: silent drop.
        assert relay.on_interest(first, now=1) == []
        assert relay.counters["dropped_duplicate"] == 1
        # Same nonce via another neighbor: aggregated, budget already spent.
        assert relay.on_interest(interest(PREFIX, NONCE, D), now=2) == []
        assert relay.counters["broadcast_suppressed"] == 1
        # A fresh nonce for the same name has a budget of its own.
        (again,) = relay.on_interest(interest(PREFIX, b"\x12" * 8, D), now=3)
        assert again.to == BROADCAST and again.packet.nonce == b"\x12" * 8
        assert relay.counters["rebroadcasts"] == 2

    def test_producer_answers_every_aggregated_downstream(self):
        producer, _ = make_node(C, 12, serves=served())
        producer.on_interest(interest(PREFIX, b"\x01" * 8, A), 0)
        # First arrival answered immediately; a later copy from another
        # neighbor gets its own answer.
        out = producer.on_interest(interest(PREFIX, b"\x02" * 8, B), 1)
        assert [a.to for a in out] == [B]
        assert all(a.packet.route == RouteStack((a.to, C)) for a in out)

    def test_own_flood_echo_dropped(self):
        consumer, _ = make_node(A, 0)
        consumer.originate_discovery(PREFIX, NONCE, now=0)
        assert consumer.on_interest(interest(PREFIX, NONCE, B), now=1) == []
        assert consumer.counters["dropped_own_nonce"] == 1

    def test_originate_interest_refuses_a_discovery_interest(self):
        consumer, _ = make_node(A, 0)
        with pytest.raises(ValueError, match="source-routed"):
            consumer.originate_interest(interest(PREFIX, NONCE, A))
        assert consumer.on_interest(interest(PREFIX, NONCE, B), now=1) != []

    def test_relay_forwards_discovery_reply_to_each_downstream_once(self):
        relay, _ = make_node(B, 3)
        for nonce, neighbor in ((b"\x01" * 8, A), (b"\x02" * 8, A), (b"\x03" * 8, D)):
            relay.on_interest(interest(PREFIX, nonce, neighbor), 0)
        answer = Data(
            name=PREFIX,
            hop_info=HopInfo(C, B),
            route=RouteStack((B, C)),
            payload=b"",
            price=12,
        )
        out = relay.on_data(answer, now=5)
        # A appears twice in the PIT but receives a single copy.
        assert sorted(str(a.to) for a in out) == sorted([str(A), str(D)])


class TestStrategyLadder:
    def _routed(self, index=0, nonce=NONCE, lifetime_ms=4_000):
        return interest(
            PREFIX.with_index(index), nonce, A, B, RouteStack((B, C)), lifetime_ms=lifetime_ms
        )

    def test_source_routed_when_named_hop_alive(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        (out,) = relay.on_interest(self._routed(), now=10)
        assert out.to == C
        assert out.packet.route == RouteStack((C,))
        assert relay.counters["mode_source_routed"] == 1

    def test_min_cost_takes_over_when_named_hop_dead(self):
        relay, cap = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        relay.tables.keepalive_heard(D, 0)
        relay.tables.fib.update(PREFIX, C, 12)
        relay.tables.fib.update(PREFIX, D, 14)
        relay.keepalive_tick(400_000)  # everyone quiet too long
        relay.tables.keepalive_heard(D, 400_000)  # D comes back
        (out,) = relay.on_interest(self._routed(), now=400_001)
        assert out.to == D
        assert out.packet.route == RouteStack((D,))
        assert relay.counters["mode_min_cost"] == 1
        decision = next(e for e in cap.events if e["event"] == "decision")
        assert decision["named_hop_alive"] is False
        assert decision["mode"] == "min-cost"

    def test_min_cost_never_returns_to_sender(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        # Only known hop for the prefix is the sender itself; named hop dead.
        relay.tables.fib.update(PREFIX, A, 2)
        relay.tables.keepalive_heard(C, 0)
        relay.keepalive_tick(800_000)
        out = relay.on_interest(self._routed(index=1, nonce=b"\x22" * 8), now=800_001)
        # No usable hop: falls through to rediscovery, not back to A.
        assert out[0].to == BROADCAST

    def test_rediscovery_keeps_name_and_nonce_strips_route_and_payment(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        relay.keepalive_tick(400_000)
        (out,) = relay.on_interest(self._routed(lifetime_ms=2_500), now=400_001)
        assert out.to == BROADCAST
        assert out.packet.name == PREFIX.with_index(0)
        assert out.packet.nonce == NONCE
        assert out.packet.route is None and out.packet.payment is None
        assert out.packet.hop_info == HopInfo(B)
        assert out.packet.lifetime_ms == 2_500
        assert relay.counters["mode_rediscovery"] == 1

    def test_round_robin_denial_nacks_no_route(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        relay.keepalive_tick(400_000)
        f1a = interest(Name((b"f1",), chunk_index=0), b"\x01" * 8, A, B, RouteStack((B, C)))
        f1b = interest(Name((b"f1",), chunk_index=1), b"\x03" * 8, A, B, RouteStack((B, C)))
        f2 = interest(Name((b"f2",), chunk_index=0), b"\x02" * 8, A, B, RouteStack((B, C)))
        assert relay.on_interest(f1a, 400_001)[0].to == BROADCAST
        assert relay.on_interest(f2, 400_002)[0].to == BROADCAST
        # f2 went last; an immediate repeat for f2's flow yields, but f1
        # took turns properly so it broadcasts again.
        assert relay.on_interest(f1b, 400_003)[0].to == BROADCAST
        f2b = interest(Name((b"f2",), chunk_index=1), b"\x04" * 8, A, B, RouteStack((B, C)))
        f2c = interest(Name((b"f2",), chunk_index=2), b"\x05" * 8, A, B, RouteStack((B, C)))
        assert relay.on_interest(f2b, 400_004)[0].to == BROADCAST
        (nack,) = relay.on_interest(f2c, 400_005)
        assert isinstance(nack.packet, Nack)
        assert nack.packet.reason is NackReason.NO_ROUTE
        assert nack.packet.nonce == b"\x05" * 8

    def test_malformed_remote_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        pkt = interest(PREFIX.with_index(0), NONCE, A, remote=D, route=RouteStack((D, C)))
        assert relay.on_interest(pkt, now=0) == []
        assert relay.counters["dropped_malformed"] == 1


class TestScheduler:
    def test_single_flow_always_granted(self):
        sched = RediscoveryScheduler()
        assert all(sched.request(Name((b"only",))) for _ in range(5))

    def test_two_flows_taking_turns_are_always_granted(self):
        sched = RediscoveryScheduler()
        f1, f2 = Name((b"f1",)), Name((b"f2",))
        assert [sched.request(f) for f in (f1, f2, f1, f2, f1, f2)] == [True] * 6

    def test_greedy_flow_yields_every_other_turn(self):
        sched = RediscoveryScheduler()
        f1, f2 = Name((b"f1",)), Name((b"f2",))
        assert sched.request(f1)
        assert sched.request(f2)
        assert [sched.request(f2) for _ in range(4)] == [False, True, False, True]


class TestPaymentsOnPath:
    def test_relay_keeps_cost_and_forwards_remainder(self):
        ledger, book = payment_fabric(A, B, C)
        consumer, _ = make_node(A, 0, book)
        relay, _ = make_node(B, 3, book)
        producer, _ = make_node(C, 12, book, serves=served())
        ledger.open_channel(A, B, 200, 200)
        ledger.open_channel(B, C, 200, 200)
        relay.tables.keepalive_heard(C, 0)

        name = PREFIX.with_index(0)
        offer = book.make_offer(
            consumer.key, channel_id_for(A, B), 15, (name, NONCE), 0, LIFETIME_US
        )
        pkt = interest(name, NONCE, A, remote=B, route=RouteStack((B, C)), payment=offer)
        (to_producer,) = relay.on_interest(pkt, now=1)
        assert to_producer.to == C
        assert to_producer.packet.payment.amount == 12
        (data,) = producer.on_interest(to_producer.packet, now=2)
        assert isinstance(data.packet, Data)
        # Committed balances: A paid 15 to B, B paid 12 on to C.
        assert book.state(channel_id_for(A, B)).balance_of(B) == 215
        assert book.state(channel_id_for(B, C)).balance_of(C) == 212
        assert book.settle_all() == 2
        assert ledger.balance(A) == 1_000 - 15
        assert ledger.balance(B) == 1_000 + 3
        assert ledger.balance(C) == 1_000 + 12
        assert ledger.conserved()

    def test_underpayment_rejected_with_nack_and_no_commit(self):
        ledger, book = payment_fabric(A, B, C)
        consumer, _ = make_node(A, 0, book)
        relay, _ = make_node(B, 3, book)
        make_node(C, 12, book)
        ledger.open_channel(A, B, 200, 200)
        ledger.open_channel(B, C, 200, 200)
        relay.tables.keepalive_heard(C, 0)
        name = PREFIX.with_index(0)
        offer = book.make_offer(
            consumer.key, channel_id_for(A, B), 2, (name, NONCE), 0, LIFETIME_US
        )
        pkt = interest(name, NONCE, A, remote=B, route=RouteStack((B, C)), payment=offer)
        (nack,) = relay.on_interest(pkt, now=1)
        assert isinstance(nack.packet, Nack)
        assert nack.packet.reason is NackReason.INSUFFICIENT_PAYMENT
        assert book.state(channel_id_for(A, B)).sequence == 0
        assert relay.counters["payment_rejects"] == 1

    @staticmethod
    def _refusals(cap):
        return [ev["reason"] for ev in cap.events if ev["event"] == "payment_rejected"]

    def test_payment_on_a_channel_that_does_not_exist_is_refused(self):
        ledger, book = payment_fabric(A, B, C)
        relay, cap = make_node(B, 3, book)
        make_node(C, 12, book)
        ledger.open_channel(B, C, 200, 200)
        relay.tables.keepalive_heard(C, 0)
        log = list(ledger.log)
        name = PREFIX.with_index(0)
        forged = Payment(channel_id=b"ch:nowhere", amount=15, sequence=1, word=b"\x01" * 32)
        pkt = interest(name, NONCE, A, remote=B, route=RouteStack((B, C)), payment=forged)
        (nack,) = relay.on_interest(pkt, now=1)
        assert nack.to == A
        assert nack.packet == Nack(name=name, nonce=NONCE, reason=NackReason.INSUFFICIENT_PAYMENT)
        assert self._refusals(cap) == ["unknown-channel"]
        assert ledger.log == log and not book.pending and name not in relay.tables.pit

    def test_next_hop_without_a_channel_is_refused_before_commit(self):
        ledger, book = payment_fabric(A, B, C)
        consumer, _ = make_node(A, 0, book)
        relay, cap = make_node(B, 3, book)
        ledger.open_channel(A, B, 200, 200)
        # B has no channel with C, and a neighbour it has never heard
        # from counts as alive, so the Interest reaches the payment step.
        name = PREFIX.with_index(0)
        offer = book.make_offer(
            consumer.key, channel_id_for(A, B), 15, (name, NONCE), 0, LIFETIME_US
        )
        log = list(ledger.log)
        pkt = interest(name, NONCE, A, remote=B, route=RouteStack((B, C)), payment=offer)
        (nack,) = relay.on_interest(pkt, now=1)
        assert nack.packet == Nack(name=name, nonce=NONCE, reason=NackReason.INSUFFICIENT_PAYMENT)
        assert self._refusals(cap) == ["unknown-channel"]
        assert book.state(channel_id_for(A, B)).sequence == 0 and ledger.log == log

    def test_aggregated_interest_pays_margin_without_forwarding(self):
        ledger, book = payment_fabric(A, B, D)
        relay, _ = make_node(B, 3, book)
        spare, _ = make_node(D, 0, book)
        ledger.open_channel(A, B, 200, 200)
        ledger.open_channel(D, B, 200, 200)
        relay.tables.keepalive_heard(C, 0)
        name = PREFIX.with_index(0)
        # First consumer's Interest is already pending (simulate by direct
        # PIT insert, as if forwarded upstream earlier).
        relay.tables.pit.insert(name, A, b"\x01" * 8, 0, 4_000_000)
        offer = book.make_offer(spare.key, channel_id_for(D, B), 15, (name, NONCE), 0, LIFETIME_US)
        pkt = interest(name, NONCE, D, remote=B, route=RouteStack((B, C)), payment=offer)
        assert relay.on_interest(pkt, now=1) == []
        assert relay.counters["aggregated"] == 1
        assert book.state(channel_id_for(D, B)).balance_of(B) == 215

    def test_refused_interest_leaves_no_pit_slot_at_the_producer(self):
        ledger, book = payment_fabric(A, C)
        consumer, _ = make_node(A, 0, book)
        producer, _ = make_node(C, 12, book, serves=served())
        ledger.open_channel(A, C, 200, 200)
        name = PREFIX.with_index(0)

        def ask(nonce, amount, now):
            offer = book.make_offer(
                consumer.key, channel_id_for(A, C), amount, (name, nonce), now, LIFETIME_US
            )
            pkt = interest(name, nonce, A, remote=C, route=RouteStack((C,)), payment=offer)
            return producer.on_interest(pkt, now=now)

        (nack,) = ask(b"\x01" * 8, 2, now=0)
        assert nack.packet.reason is NackReason.INSUFFICIENT_PAYMENT
        consumer.on_nack(nack.packet, now=1)  # the consumer cancels its offer
        (data,) = ask(b"\x02" * 8, 12, now=2)
        assert data.to == A and isinstance(data.packet, Data)
        assert producer.counters["data_served"] == 1

    def test_relay_forwards_a_paid_retry_after_refusing_the_first_try(self):
        ledger, book = payment_fabric(A, B, C)
        consumer, _ = make_node(A, 0, book)
        relay, _ = make_node(B, 3, book)
        producer, _ = make_node(C, 12, book, serves=served())
        ledger.open_channel(A, B, 200, 200)
        ledger.open_channel(B, C, 200, 200)
        relay.tables.keepalive_heard(C, 0)
        name = PREFIX.with_index(0)

        def ask(nonce, amount, now):
            offer = book.make_offer(
                consumer.key, channel_id_for(A, B), amount, (name, nonce), now, LIFETIME_US
            )
            pkt = interest(name, nonce, A, remote=B, route=RouteStack((B, C)), payment=offer)
            return relay.on_interest(pkt, now=now)

        (nack,) = ask(b"\x01" * 8, 2, now=0)
        consumer.on_nack(nack.packet, now=1)
        (onward,) = ask(b"\x02" * 8, 15, now=2)
        assert onward.to == C and onward.packet.payment.amount == 12
        assert relay.counters["aggregated"] == 0
        (data,) = producer.on_interest(onward.packet, now=3)
        (delivered,) = relay.on_data(data.packet, now=4)
        assert delivered.to == A

    def test_nack_cancels_pending_offer(self):
        ledger, book = payment_fabric(A, B)
        consumer, cap = make_node(A, 0, book)
        cap.accept = True  # the consumer's own offer rides this nonce
        make_node(B, 3, book)
        ledger.open_channel(A, B, 200, 200)
        name = PREFIX.with_index(0)
        book.make_offer(consumer.key, channel_id_for(A, B), 15, (name, NONCE), 0, LIFETIME_US)
        assert len(book.pending[channel_id_for(A, B)]) == 1
        consumer.on_nack(Nack(name=name, nonce=NONCE, reason=NackReason.NO_ROUTE), now=5)
        assert channel_id_for(A, B) not in book.pending
        assert cap.delivered and cap.delivered[0].reason is NackReason.NO_ROUTE


class TestContentPlane:
    def _chain(self, relay_mode="cutthrough"):
        producer, _ = make_node(C, 12, payment_mode="payall", serves=served())
        relay, _ = make_node(B, 3, payment_mode="payall", relay_mode=relay_mode)
        consumer, cap = make_node(A, 0, payment_mode="payall")
        cap.accept = True
        relay.tables.keepalive_heard(C, 0)
        return producer, relay, consumer, cap

    def _fetch(self, producer, relay, index, nonce):
        name = PREFIX.with_index(index)
        pkt = interest(name, nonce, A, remote=B, route=RouteStack((B, C)))
        (fwd,) = relay.on_interest(pkt, now=index * 10)
        (data,) = producer.on_interest(fwd.packet, now=index * 10 + 1)
        return data.packet

    def test_proof_rides_only_group_final_packet_and_relay_extends(self):
        producer, relay, consumer, cap = self._chain()
        for i in range(4):
            from_producer = self._fetch(producer, relay, i, bytes([i + 1]) * 8)
            if i < 3:
                assert from_producer.proof is None
            (to_consumer,) = relay.on_data(from_producer, now=i * 10 + 2)
            assert consumer.on_data(to_consumer.packet, now=i * 10 + 3) == []
        assert producer.counters["signatures_produced"] == 1
        assert relay.counters["signatures_produced"] == 1
        final = cap.delivered[-1]
        assert final.proof is not None
        assert [h.signer for h in final.proof.chain] == [C, B]
        # Consumer-side verification over its own received payloads.
        directory = {C: producer.key.public, B: relay.key.public}
        assert [pkt.name.chunk_index for pkt in cap.delivered] == [0, 1, 2, 3]
        payload = b"".join(pkt.payload for pkt in cap.delivered)
        assert verify_chain(final.proof, payload, (C, B), directory).valid

    def test_relay_missing_packet_forwards_proof_untouched(self):
        producer, relay, consumer, cap = self._chain()
        # Only the final packet ever transits the relay.
        from_producer = self._fetch(producer, relay, 3, b"\x09" * 8)
        (out,) = relay.on_data(from_producer, now=100)
        assert out.packet.proof is not None
        assert [h.signer for h in out.packet.proof.chain] == [C]
        assert relay.counters["proof_forwarded_unsigned"] == 1

    def test_store_and_forward_buffers_until_proof_then_flushes_in_order(self):
        producer, relay, consumer, cap = self._chain(relay_mode="storeforward")
        packets = [self._fetch(producer, relay, i, bytes([i + 1]) * 8) for i in range(4)]
        # Deliver out of order; nothing moves until the proof packet.
        assert relay.on_data(packets[2], now=50) == []
        assert relay.on_data(packets[0], now=51) == []
        assert relay.on_data(packets[1], now=52) == []
        assert relay.counters["sf_buffered"] == 3
        outs = relay.on_data(packets[3], now=53)
        assert [o.packet.name.chunk_index for o in outs] == [0, 1, 2, 3]
        assert outs[-1].packet.proof is not None
        assert [h.signer for h in outs[-1].packet.proof.chain] == [C, B]
        assert relay.counters["sf_flushes"] == 1

    def test_store_and_forward_waits_out_a_hole_until_the_proof_comes_again(self):
        producer, relay, consumer, cap = self._chain(relay_mode="storeforward")
        packets = [self._fetch(producer, relay, i, bytes([i + 1]) * 8) for i in range(4)]
        assert relay.on_data(packets[0], now=50) == []
        assert relay.on_data(packets[1], now=51) == []
        # The proof packet finds packet 2 missing, so the chunk waits.
        assert relay.on_data(packets[3], now=52) == []
        assert relay.on_data(packets[2], now=53) == []
        assert relay.counters["sf_buffered"] == 4
        assert relay.counters["sf_flushes"] == 0
        # A retransmitted proof packet finds the chunk whole and flushes it.
        outs = relay.on_data(packets[3], now=54)
        assert [o.packet.name.chunk_index for o in outs] == [0, 1, 2, 3]
        assert [h.signer for h in outs[-1].packet.proof.chain] == [C, B]
        assert relay.counters["sf_flushes"] == 1

    def test_two_nonces_from_one_downstream_get_one_data(self):
        producer, relay, consumer, cap = self._chain()
        name = PREFIX.with_index(0)
        first = interest(name, b"\x01" * 8, A, remote=B, route=RouteStack((B, C)))
        (fwd,) = relay.on_interest(first, now=0)
        # A retransmission with a fresh nonce joins the pending entry.
        again = interest(name, b"\x02" * 8, A, remote=B, route=RouteStack((B, C)))
        assert relay.on_interest(again, now=1) == []
        (data,) = producer.on_interest(fwd.packet, now=2)
        (out,) = relay.on_data(data.packet, now=3)
        assert out.to == A and out.packet.hop_info == HopInfo(B, A)
        assert out.packet.payload == data.packet.payload
        assert relay.counters["data_forwarded"] == 1

    def test_content_data_is_never_broadcast(self):
        producer, relay, consumer, cap = self._chain()
        for i in range(4):
            pkt = self._fetch(producer, relay, i, bytes([i + 1]) * 8)
            for action in relay.on_data(pkt, now=i * 10 + 2):
                assert isinstance(action, Send)
                assert not action.packet.hop_info.remote.is_broadcast

    def test_unsolicited_content_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        stray = Data(name=PREFIX.with_index(0), hop_info=HopInfo(C, B), payload=b"x")
        assert relay.on_data(stray, now=0) == []
        assert relay.counters["dropped_unsolicited"] == 1

    def test_cache_hit_serves_locally_with_cached_proof(self):
        producer, relay, consumer, cap = self._chain()
        for i in range(4):
            pkt = self._fetch(producer, relay, i, bytes([i + 1]) * 8)
            relay.on_data(pkt, now=i * 10 + 2)
        # A fresh consumer asks the relay directly; the relay serves from
        # its store, reusing the extended proof on the final packet.
        name = PREFIX.with_index(3)
        pkt = interest(name, b"\x77" * 8, D, remote=B, route=RouteStack((B, C)))
        (served,) = relay.on_interest(pkt, now=200)
        assert isinstance(served.packet, Data)
        assert served.to == D
        assert served.packet.proof is not None
        assert [h.signer for h in served.packet.proof.chain] == [C, B]
        assert relay.counters["data_served"] == 1

    def test_nack_propagates_to_all_downstreams(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        name = PREFIX.with_index(0)
        relay.tables.pit.insert(name, A, b"\x01" * 8, 0, 4_000_000)
        relay.tables.pit.insert(name, D, b"\x02" * 8, 0, 4_000_000)
        outs = relay.on_nack(Nack(name=name, nonce=b"\x09" * 8, reason=NackReason.NO_ROUTE), now=5)
        assert sorted(str(o.to) for o in outs) == sorted([str(A), str(D)])
        # Each downstream gets its own nonce back.
        assert {o.packet.nonce for o in outs} == {b"\x01" * 8, b"\x02" * 8}
        assert name not in relay.tables.pit


class TestRelayProofPassThrough:
    """A relay that cannot rebuild or validate a chunk forwards its proof
    unchanged, counts it and traces the exact reason."""

    def _relay(self, total, ppc):
        producer, _ = make_node(C, 12, payment_mode="payall", serves=served(total, ppc))
        relay, cap = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        return producer, relay, cap

    def _from_producer(self, producer, relay, index):
        name = PREFIX.with_index(index)
        pkt = interest(name, bytes([index + 1]) * 8, A, remote=B, route=RouteStack((B, C)))
        (fwd,) = relay.on_interest(pkt, now=index * 10)
        (data,) = producer.on_interest(fwd.packet, now=index * 10 + 1)
        return data.packet

    def _pass_through(self, relay, cap, final):
        (out,) = relay.on_data(final, now=1_000)
        assert out.packet.proof == final.proof
        assert out.packet.payload == final.payload
        assert relay.counters["proof_forwarded_unsigned"] == 1
        assert relay.counters["signatures_produced"] == 0
        (record,) = [e for e in cap.events if e["event"] == "proof_pass_through"]
        assert record["name"] == str(final.name)
        return record["reason"]

    def _relay_all_but_final(self, producer, relay, total):
        for i in range(total - 1):
            relay.on_data(self._from_producer(producer, relay, i), now=i * 10 + 2)
        return self._from_producer(producer, relay, total - 1)

    def test_missing_cached_packet(self):
        producer, relay, cap = self._relay(total=4, ppc=4)
        final = self._from_producer(producer, relay, 3)
        reason = self._pass_through(relay, cap, final)
        assert reason == "packet 0 not in content store"

    def _spoiled(self, total, ppc, cached=(), payload=None):
        """Relay a chunk of `total` packets up to its final one, overwrite
        the relay's copy of each cached (index, bytes) pair and swap the
        final payload for `payload`: however the packet sizes come out,
        the chunk digest is the one check that refuses the bytes."""
        producer, relay, cap = self._relay(total=total, ppc=ppc)
        final = self._relay_all_but_final(producer, relay, total)
        for index, part in cached:
            relay.tables.cs.insert(PREFIX.with_index(index), part)
        if payload is not None:
            final = Data(name=final.name, hop_info=final.hop_info, payload=payload,
                         proof=final.proof)
        assert self._pass_through(relay, cap, final) == "digest does not match payload"

    def test_non_final_cached_packet_of_wrong_size(self):
        self._spoiled(4, 4, cached=[(1, b"\x01" * 99)])

    def test_longer_first_cached_packet(self):
        self._spoiled(4, 4, cached=[(0, b"\x00" * 120)])

    def test_final_packet_longer_than_cached_first_packet(self):
        self._spoiled(2, 2, cached=[(0, b"\x00" * 40)])

    def test_arriving_final_packet_longer_than_packet_size(self):
        self._spoiled(4, 4, payload=b"\x03" * 101)

    def test_arriving_final_packet_empty(self):
        self._spoiled(4, 4, payload=b"")

    def test_single_packet_chunk_with_empty_payload(self):
        self._spoiled(1, 1, payload=b"")

    def test_cached_packet_of_right_size_but_wrong_bytes(self):
        self._spoiled(4, 4, cached=[(2, b"\xee" * 100)])

    def test_broken_producer_signature(self):
        producer, relay, cap = self._relay(total=4, ppc=4)
        final = self._relay_all_but_final(producer, relay, 4)
        (hop,) = final.proof.chain
        bad = HopSignature(hop.signer, hop.signer_pub, bytes([hop.sig[0] ^ 1]) + hop.sig[1:])
        forged = Data(
            name=final.name,
            hop_info=final.hop_info,
            payload=final.payload,
            proof=ChunkProof(final.proof.first, final.proof.count, final.proof.digest, (bad,)),
        )
        reason = self._pass_through(relay, cap, forged)
        assert reason == f"existing signature 0 by {C} does not verify"

    def test_chain_already_signed_by_this_relay(self):
        producer, relay, cap = self._relay(total=4, ppc=4)
        final = self._relay_all_but_final(producer, relay, 4)
        (signed,) = relay.on_data(final, now=500)
        assert [h.signer for h in signed.packet.proof.chain] == [C, B]
        relay.tables.pit.insert(final.name, A, b"\x55" * 8, 600, 4_000_000)
        again = Data(
            name=final.name, hop_info=final.hop_info, payload=final.payload,
            proof=signed.packet.proof,
        )
        (out,) = relay.on_data(again, now=1_000)
        assert out.packet.proof == signed.packet.proof
        assert relay.counters["proof_forwarded_unsigned"] == 1
        assert relay.counters["signatures_produced"] == 1
        (record,) = [e for e in cap.events if e["event"] == "proof_pass_through"]
        assert record["reason"] == "refusing to sign the same chunk twice"


class TestRefusalsAndDrops:
    """Packets the engine refuses or drops: each returns the exact
    actions and moves exactly its counter."""

    def test_routed_interest_with_duplicate_nonce_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.tables.keepalive_heard(C, 0)
        pkt = interest(PREFIX.with_index(0), NONCE, A, remote=B, route=RouteStack((B, C)))
        (out,) = relay.on_interest(pkt, now=10)
        assert out.to == C
        assert relay.on_interest(pkt, now=11) == []
        assert relay.counters["dropped_duplicate"] == 1
        assert relay.counters["mode_source_routed"] == 1

    def test_underpaid_aggregated_interest_nacked_without_commit(self):
        ledger, book = payment_fabric(A, B, D)
        relay, _ = make_node(B, 3, book)
        spare, _ = make_node(D, 0, book)
        ledger.open_channel(D, B, 200, 200)
        name = PREFIX.with_index(0)
        relay.tables.pit.insert(name, A, b"\x01" * 8, 0, 4_000_000)
        offer = book.make_offer(spare.key, channel_id_for(D, B), 2, (name, NONCE), 0, LIFETIME_US)
        pkt = interest(name, NONCE, D, remote=B, route=RouteStack((B, C)), payment=offer)
        (nack,) = relay.on_interest(pkt, now=1)
        assert nack.to == D
        assert nack.packet == Nack(name=name, nonce=NONCE, reason=NackReason.INSUFFICIENT_PAYMENT)
        assert relay.counters["payment_rejects"] == 1
        assert relay.counters["aggregated"] == 0
        assert book.state(channel_id_for(D, B)).sequence == 0

    def test_routed_interest_without_an_index_at_a_cache_gets_no_route_nack(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        # Holding packet 0 lets the relay answer for the bare prefix, but
        # a content Interest needs a packet the store can build.
        relay.tables.cs.insert(PREFIX.with_index(0), b"x" * 100)
        pkt = interest(PREFIX, NONCE, A, remote=B, route=RouteStack((B, C)))
        (nack,) = relay.on_interest(pkt, now=1)
        assert nack.to == A
        assert nack.packet == Nack(name=PREFIX, nonce=NONCE, reason=NackReason.NO_ROUTE)
        assert relay.counters["nacks_sent"] == 1
        assert relay.counters["data_served"] == 0
        assert PREFIX not in relay.tables.pit

    def test_misaddressed_data_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        name = PREFIX.with_index(0)
        relay.tables.pit.insert(name, A, b"\x01" * 8, 0, 4_000_000)
        stray = Data(name=name, hop_info=HopInfo(C, D), payload=b"x")
        assert relay.on_data(stray, now=5) == []
        assert relay.counters["dropped_malformed"] == 1
        assert name in relay.tables.pit

    def test_discovery_data_for_another_route_top_dropped_after_price_update(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.on_interest(interest(PREFIX, NONCE, A), now=0)
        answer = Data(
            name=PREFIX, hop_info=HopInfo(C, B), route=RouteStack((D, C)), payload=b"", price=12
        )
        assert relay.on_data(answer, now=5) == []
        assert relay.counters["dropped_malformed"] == 1
        assert relay.tables.fib.lookup_min_cost(PREFIX) == (C, 12)
        assert PREFIX in relay.tables.pit

    def test_discovery_data_whose_route_is_only_this_node_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        relay.on_interest(interest(PREFIX, NONCE, A), now=0)
        answer = Data(
            name=PREFIX, hop_info=HopInfo(C, B), route=RouteStack((B,)), payload=b"", price=12
        )
        assert relay.on_data(answer, now=5) == []
        assert relay.counters["dropped_malformed"] == 1
        assert relay.tables.fib.lookup_min_cost(PREFIX) == (C, 12)

    def test_unsolicited_nack_dropped(self):
        relay, _ = make_node(B, 3, payment_mode="payall")
        nack = Nack(name=PREFIX.with_index(0), nonce=NONCE, reason=NackReason.NO_ROUTE)
        assert relay.on_nack(nack, now=5) == []
        assert relay.counters["dropped_unsolicited"] == 1
        assert relay.counters["nacks_forwarded"] == 0


class TestPriceAdditivity:
    def test_price_sums_over_longer_chains(self):
        rng = random.Random(5)
        for trial in range(10):
            hops = rng.randrange(2, 6)
            costs = [rng.randrange(1, 20) for _ in range(hops)]
            addrs = [NodeAddr(bytes([0, 0x77, trial, 0, 0, i + 1])) for i in range(hops + 1)]
            consumer_addr, relays = addrs[0], addrs[1:]
            engines = []
            for addr, cost in zip(relays, costs):
                serves = served() if addr == relays[-1] else ()
                eng, _ = make_node(addr, cost, payment_mode="payall", serves=serves)
                engines.append(eng)
            producer = engines[-1]
            # Flood consumer -> chain -> producer.
            pkt = interest(PREFIX, bytes([trial + 1]) * 8, consumer_addr)
            for eng in engines[:-1]:
                (action,) = eng.on_interest(pkt, now=0)
                pkt = action.packet
            (reply,) = producer.on_interest(pkt, now=1)
            data = reply.packet
            for eng in reversed(engines[:-1]):
                (action,) = eng.on_data(data, now=2)
                data = action.packet
            assert data.price == sum(costs)
            assert data.route.hops[0] == consumer_addr
            assert data.route.hops[-1] == relays[-1]
