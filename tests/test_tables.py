"""Table behavior, including frozen examples computed by hand and
property checks against naive oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute.scenario import Defaults
from tollroute.tables import (
    ContentStore,
    Fib,
    NeighborLiveness,
    NodeTables,
    Pit,
    PitResult,
)
from tollroute.wire import Name, NodeAddr

A1 = NodeAddr.parse("00-10-00-00-00-01")
A2 = NodeAddr.parse("00-10-00-00-00-02")
A3 = NodeAddr.parse("00-10-00-00-00-03")
NAME = Name((b"video", b"clip"), chunk_index=4)
PREFIX = Name((b"video", b"clip"))


class TestPriceWindow:
    """A next hop's price window, seen through the FIB."""

    def test_minimum_over_samples(self):
        fib = Fib()
        for p in (9, 4, 7):
            fib.update(PREFIX, A1, p)
        assert fib.lookup_min_cost(PREFIX) == (A1, 4)

    def test_ascending_feed_evicts_oldest(self):
        # Capacity 8 fed 20 ascending samples keeps the last 8, so the
        # minimum is the 13th sample fed.
        fib = Fib(window_capacity=8)
        prices = list(range(101, 121))
        for p in prices:
            fib.update(PREFIX, A1, p)
        (line,) = fib.dump()
        assert line.endswith(" window_min=113 samples=8")
        assert fib.lookup_min_cost(PREFIX) == (A1, prices[12]) == (A1, 113)

    def test_descending_feed_tracks_latest(self):
        fib = Fib(window_capacity=8)
        for p in range(120, 100, -1):
            fib.update(PREFIX, A1, p)
        assert fib.lookup_min_cost(PREFIX) == (A1, 101)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Fib(window_capacity=0)
        fib = Fib()
        with pytest.raises(ValueError):
            fib.update(PREFIX, A1, -1)
        # A refused price leaves no hop behind.
        assert fib.dump() == []

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=64))
    def test_minimum_matches_naive_tail_scan(self, prices):
        fib = Fib(window_capacity=8)
        for p in prices:
            fib.update(PREFIX, A1, p)
        assert fib.lookup_min_cost(PREFIX) == (A1, min(prices[-8:]))


class TestPit:
    def test_insert_states(self):
        pit = Pit()
        assert pit.insert(NAME, A1, b"n" * 8, 0, 4_000_000) is PitResult.NEW
        assert pit.insert(NAME, A2, b"m" * 8, 10, 4_000_000) is PitResult.AGGREGATED
        assert pit.insert(NAME, A1, b"n" * 8, 20, 4_000_000) is PitResult.DUPLICATE_NONCE
        # Same downstream with a fresh nonce is a retransmit worth serving.
        assert pit.insert(NAME, A1, b"o" * 8, 30, 4_000_000) is PitResult.AGGREGATED

    def test_consume_returns_insertion_order_and_removes(self):
        pit = Pit()
        pit.insert(NAME, A2, b"a" * 8, 0, 4_000_000)
        pit.insert(NAME, A1, b"b" * 8, 1, 4_000_000)
        pit.insert(NAME, A3, b"c" * 8, 2, 4_000_000)
        got = pit.consume(NAME, 100)
        assert got == [(A2, b"a" * 8), (A1, b"b" * 8), (A3, b"c" * 8)]
        assert pit.consume(NAME, 100) == []
        assert NAME not in pit

    def test_reinsert_after_expiry_is_new_not_aggregated(self):
        pit = Pit()
        pit.insert(NAME, A1, b"\x01" * 8, now=0, lifetime_us=1_000)
        # Past the deadline the old entry must not swallow a retransmit
        # as aggregation; it is a fresh pending Interest.
        assert pit.insert(NAME, A1, b"\x02" * 8, now=2_000, lifetime_us=1_000) is PitResult.NEW
        assert pit.consume(NAME, now=2_100) == [(A1, b"\x02" * 8)]

    def test_consume_filters_expired_downstreams(self):
        pit = Pit()
        pit.insert(NAME, A1, b"a" * 8, 0, 1_000)
        pit.insert(NAME, A2, b"b" * 8, 600, 1_000)
        got = pit.consume(NAME, 1_200)
        assert got == [(A2, b"b" * 8)]

    def test_duplicate_refreshes_deadline(self):
        pit = Pit()
        pit.insert(NAME, A1, b"a" * 8, 0, 1_000)
        assert pit.insert(NAME, A1, b"a" * 8, 900, 1_000) is PitResult.DUPLICATE_NONCE
        assert pit.consume(NAME, 1_500) == [(A1, b"a" * 8)]

    def test_sweep_drops_dead_entries(self):
        pit = Pit()
        pit.insert(NAME, A1, b"a" * 8, 0, 1_000)
        other = Name((b"other",))
        pit.insert(other, A1, b"b" * 8, 5_000, 1_000)
        pit.sweep(2_000)
        assert NAME not in pit and other in pit

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(
                        st.just("insert"),
                        st.integers(min_value=0, max_value=1),
                        st.integers(min_value=0, max_value=2),
                        st.integers(min_value=0, max_value=2),
                        st.sampled_from([600, 1_000]),
                    ),
                    st.tuples(st.sampled_from(["consume", "peek", "in"]),
                              st.integers(min_value=0, max_value=1)),
                    st.tuples(
                        st.just("release"),
                        st.integers(min_value=0, max_value=1),
                        st.integers(min_value=0, max_value=2),
                        st.integers(min_value=0, max_value=2),
                    ),
                    st.tuples(st.just("sweep")),
                ),
                # Clock steps around the lifetimes.
                st.sampled_from([0, 1, 400, 599, 600, 999, 1_000, 1_500]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_random_ops_match_list_model(self, steps):
        # Two names, three neighbours, three nonces; the model keeps each
        # name's downstreams as an insertion-ordered list of
        # [addr, nonce, expires].
        names = [NAME, Name((b"other",), chunk_index=0)]
        addrs = [A1, A2, A3]
        nonces = [bytes([n]) * 8 for n in range(3)]
        pit = Pit()
        model: dict[Name, list[list]] = {}

        def live(entry, now):
            return [(a, n) for a, n, expires in entry or () if expires > now]

        now = 0
        for op, dt in steps:
            now += dt
            if op[0] == "insert":
                _, which, a, n, lifetime = op
                name, addr, nonce = names[which], addrs[a], nonces[n]
                entry = model.get(name)
                if entry is not None:
                    entry[:] = [ds for ds in entry if ds[2] > now]
                    if not entry:
                        entry = None
                        del model[name]
                if entry is None:
                    model[name] = [[addr, nonce, now + lifetime]]
                    expect = PitResult.NEW
                else:
                    same = [ds for ds in entry if ds[:2] == [addr, nonce]]
                    if same:
                        same[0][2] = max(same[0][2], now + lifetime)
                        expect = PitResult.DUPLICATE_NONCE
                    else:
                        entry.append([addr, nonce, now + lifetime])
                        expect = PitResult.AGGREGATED
                assert pit.insert(name, addr, nonce, now, lifetime) is expect
            elif op[0] == "consume":
                name = names[op[1]]
                assert pit.consume(name, now) == live(model.pop(name, None), now)
            elif op[0] == "peek":
                name = names[op[1]]
                assert pit.peek(name, now) == live(model.get(name), now)
            elif op[0] == "in":
                assert (names[op[1]] in pit) == (names[op[1]] in model)
            elif op[0] == "release":
                _, which, a, n = op
                name = names[which]
                pit.release(name, addrs[a], nonces[n])
                if name in model:
                    model[name] = [ds for ds in model[name] if ds[:2] != [addrs[a], nonces[n]]]
                    if not model[name]:
                        del model[name]
            else:
                pit.sweep(now)
                for name in [m for m, e in model.items() if all(ds[2] <= now for ds in e)]:
                    del model[name]
            assert pit.dump(now) == [
                f"pit name={name} downstream={a} nonce={n.hex()} expires_us={expires}"
                for name in sorted(model, key=str)
                for a, n, expires in model[name]
                if expires > now
            ]
            assert all((name in pit) == (name in model) for name in names)


class TestFib:
    def test_update_creates_entry_and_enables(self):
        fib = Fib()
        fib.update(NAME, A1, 15)
        # The packet index never reaches the FIB key.
        assert fib.dump() == [
            "fib prefix=/video/clip hop=00-10-00-00-00-01 enabled=true window_min=15 samples=1"
        ]
        assert fib.lookup_min_cost(PREFIX) == (A1, 15)

    def test_min_cost_prefers_cheapest_hop(self):
        fib = Fib()
        fib.update(PREFIX, A1, 20)
        fib.update(PREFIX, A2, 12)
        assert fib.lookup_min_cost(PREFIX) == (A2, 12)

    def test_min_cost_tie_breaks_by_address_order(self):
        fib = Fib()
        fib.update(PREFIX, A3, 15)
        fib.update(PREFIX, A1, 15)
        fib.update(PREFIX, A2, 15)
        assert fib.lookup_min_cost(PREFIX) == (A1, 15)

    def test_hop_quotes_window_minimum_not_latest(self):
        fib = Fib()
        fib.update(PREFIX, A1, 9)
        fib.update(PREFIX, A1, 14)
        assert fib.lookup_min_cost(PREFIX) == (A1, 9)

    def test_window_eviction_forgets_stale_lows(self):
        fib = Fib(window_capacity=8)
        fib.update(PREFIX, A1, 1)
        for i in range(8):
            fib.update(PREFIX, A1, 50 + i)
        assert fib.lookup_min_cost(PREFIX) == (A1, 50)

    def test_disabled_hops_are_skipped(self):
        fib = Fib()
        fib.update(PREFIX, A1, 5)
        fib.update(PREFIX, A2, 9)
        fib.set_neighbor_enabled(A1, False)
        assert fib.lookup_min_cost(PREFIX) == (A2, 9)
        fib.set_neighbor_enabled(A1, True)
        assert fib.lookup_min_cost(PREFIX) == (A1, 5)

    def test_update_reenables_disabled_hop(self):
        fib = Fib()
        fib.update(PREFIX, A1, 5)
        fib.set_neighbor_enabled(A1, False)
        fib.update(PREFIX, A1, 6)
        assert fib.lookup_min_cost(PREFIX) == (A1, 5)

    def test_exclusion(self):
        fib = Fib()
        fib.update(PREFIX, A1, 5)
        fib.update(PREFIX, A2, 9)
        assert fib.lookup_min_cost(PREFIX, exclude=(A1,)) == (A2, 9)
        assert fib.lookup_min_cost(PREFIX, exclude=(A1, A2)) is None

    def test_an_entry_routes_exactly_its_prefix(self):
        fib = Fib()
        fib.update(Name((b"video",)), A1, 30)
        fib.update(Name((b"video", b"clip")), A2, 10)
        assert fib.lookup_min_cost(Name((b"video", b"clip"), chunk_index=2)) == (A2, 10)
        # A shorter entry names another object and never routes.
        assert fib.lookup_min_cost(Name((b"video", b"clip", b"hd"), chunk_index=2)) is None
        assert fib.lookup_min_cost(Name((b"video", b"other"))) is None
        assert fib.lookup_min_cost(Name((b"audio",))) is None

    def test_a_disabled_entry_does_not_fall_back_to_a_shorter_one(self):
        fib = Fib()
        fib.update(Name((b"video",)), A1, 30)
        fib.update(Name((b"video", b"clip")), A2, 10)
        fib.set_neighbor_enabled(A2, False)
        # The entry exists but is unusable; a shorter match must not
        # silently take over.
        assert fib.lookup_min_cost(Name((b"video", b"clip"))) is None

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=99)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_min_cost_matches_naive_oracle(self, feed):
        addrs = [A1, A2, A3]
        fib = Fib(window_capacity=8)
        tails: dict[NodeAddr, list[int]] = {}
        for which, price in feed:
            fib.update(PREFIX, addrs[which], price)
            tails.setdefault(addrs[which], []).append(price)
        best = min(
            ((min(prices[-8:]), addr) for addr, prices in tails.items()),
        )
        assert fib.lookup_min_cost(PREFIX) == (best[1], best[0])


class TestNeighborLiveness:
    def test_timeout_walk(self):
        live = NeighborLiveness(timeout_us=300_000)
        live.heard(A1, 0)
        assert live.is_alive(A1, 250_000)
        assert not live.is_alive(A1, 310_000)
        assert live.sweep(310_000) == [A1]
        # Already-dead neighbors do not reappear in later sweeps.
        assert live.sweep(400_000) == []

    def test_heard_revives(self):
        live = NeighborLiveness()
        live.heard(A1, 0)
        live.sweep(500_000)
        assert live.heard(A1, 600_000) is True
        assert live.is_alive(A1, 700_000)
        assert live.heard(A1, 700_000) is False

    def test_unknown_neighbor_is_optimistically_alive(self):
        live = NeighborLiveness()
        assert live.is_alive(A1, 10**9)

    def test_sweep_reports_in_address_order(self):
        live = NeighborLiveness()
        live.heard(A3, 0)
        live.heard(A1, 0)
        live.heard(A2, 0)
        assert live.sweep(10**7) == [A1, A2, A3]


class TestContentStore:
    def test_insert_lookup(self):
        cs = ContentStore(capacity_bytes=100)
        assert cs.insert(NAME, b"x" * 40)
        assert cs.lookup(NAME) == b"x" * 40
        assert cs.lookup(Name((b"missing",))) is None

    def test_lru_eviction_by_bytes(self):
        cs = ContentStore(capacity_bytes=100)
        n1, n2, n3 = (Name((b"c", str(i).encode())) for i in range(3))
        cs.insert(n1, b"a" * 40)
        cs.insert(n2, b"b" * 40)
        cs.lookup(n1)  # refresh n1 so n2 is now oldest
        cs.insert(n3, b"c" * 40)
        assert cs.lookup(n2) is None
        assert cs.lookup(n1) is not None and cs.lookup(n3) is not None
        assert cs.used_bytes == 80

    def test_oversized_insert_is_noop(self):
        cs = ContentStore(capacity_bytes=100)
        cs.insert(NAME, b"y" * 10)
        assert not cs.insert(Name((b"big",)), b"z" * 101)
        assert cs.lookup(NAME) == b"y" * 10
        assert cs.used_bytes == 10

    def test_reinsert_replaces_and_accounts(self):
        cs = ContentStore(capacity_bytes=100)
        cs.insert(NAME, b"a" * 60)
        cs.insert(NAME, b"b" * 30)
        assert cs.used_bytes == 30
        assert cs.lookup(NAME) == b"b" * 30

    def test_random_ops_match_reference_model(self):
        rng = random.Random(7)
        cs = ContentStore(capacity_bytes=64)
        model: dict[Name, bytes] = {}
        order: list[Name] = []
        names = [Name((b"n", bytes([i]))) for i in range(6)]
        for _ in range(500):
            name = rng.choice(names)
            if rng.random() < 0.5:
                payload = bytes([rng.randrange(256)]) * rng.randrange(1, 40)
                if len(payload) <= 64:
                    if name in model:
                        order.remove(name)
                    model[name] = payload
                    order.append(name)
                    while sum(len(v) for v in model.values()) > 64:
                        victim = order.pop(0)
                        del model[victim]
                cs.insert(name, payload)
            else:
                expect = model.get(name)
                if expect is not None:
                    order.remove(name)
                    order.append(name)
                assert cs.lookup(name) == expect
        assert cs.used_bytes == sum(len(v) for v in model.values())


class TestNodeTables:
    def test_sweep_disables_and_heard_reenables_fib(self):
        tables = NodeTables(Defaults(keepalive_timeout_ms=300))
        tables.fib.update(PREFIX, A1, 5)
        tables.keepalive_heard(A1, 0)
        assert tables.keepalive_sweep(299_999) == []
        assert tables.keepalive_sweep(300_000) == [A1]
        assert tables.fib.lookup_min_cost(PREFIX) is None
        assert tables.keepalive_heard(A1, 400_000) is True
        assert tables.fib.lookup_min_cost(PREFIX) == (A1, 5)

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(
                        st.just("update"),
                        st.integers(min_value=0, max_value=1),
                        st.integers(min_value=0, max_value=2),
                        st.integers(min_value=0, max_value=20),
                    ),
                    st.tuples(st.just("heard"), st.integers(min_value=0, max_value=2)),
                    st.tuples(st.just("sweep")),
                ),
                # Clock steps around the 300 ms timeout.
                st.sampled_from([0, 1, 100_000, 299_999, 300_000, 450_000]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_fib_and_keepalives_match_naive_model(self, steps):
        # Two nested prefixes, the deeper one fed through a packet name;
        # three neighbors; a timeout of 300 ms and windows of 3 samples.
        prefixes = [Name((b"video",)), PREFIX]
        fed = [prefixes[0], NAME]
        addrs = [A1, A2, A3]
        tables = NodeTables(Defaults(keepalive_timeout_ms=300, window_capacity=3))
        prices: dict[tuple[int, NodeAddr], list[int]] = {}
        enabled: dict[tuple[int, NodeAddr], bool] = {}
        last_seen: dict[NodeAddr, int] = {}
        dead: set[NodeAddr] = set()

        def set_all(neighbor, value):
            for key in enabled:
                if key[1] == neighbor:
                    enabled[key] = value

        def model_lookup(depth, exclude):
            usable = [
                (min(v[-3:]), a) for (p, a), v in prices.items()
                if p == depth and enabled[(p, a)] and a not in exclude
            ]
            return (min(usable)[1], min(usable)[0]) if usable else None

        now = 0
        for op, dt in steps:
            now += dt
            if op[0] == "update":
                _, p, which, price = op
                tables.fib.update(fed[p], addrs[which], price)
                prices.setdefault((p, addrs[which]), []).append(price)
                enabled[(p, addrs[which])] = True
            elif op[0] == "heard":
                tables.keepalive_heard(addrs[op[1]], now)
                last_seen[addrs[op[1]]] = now
                dead.discard(addrs[op[1]])
                set_all(addrs[op[1]], True)
            else:
                newly_dead = [
                    a for a in sorted(last_seen)
                    if a not in dead and now - last_seen[a] >= 300_000
                ]
                assert tables.keepalive_sweep(now) == newly_dead
                dead.update(newly_dead)
                for a in newly_dead:
                    set_all(a, False)
            for depth, name in enumerate(fed):
                for exclude in [()] + [(a,) for a in addrs]:
                    assert tables.fib.lookup_min_cost(name, exclude) == model_lookup(depth, exclude)
            assert [line for line in tables.dump(now) if line.startswith("fib ")] == [
                f"fib prefix={prefixes[p]} hop={a} "
                f"enabled={'true' if enabled[(p, a)] else 'false'} "
                f"window_min={min(prices[(p, a)][-3:])} samples={len(prices[(p, a)][-3:])}"
                for p, a in sorted(prices)
            ]

    def test_dump_sections(self):
        tables = NodeTables()
        tables.pit.insert(NAME, A1, b"\x01" * 8, 0, 4_000_000)
        tables.fib.update(PREFIX, A2, 7)
        tables.cs.insert(NAME, b"payload")
        tables.keepalive_heard(A2, 50)
        lines = tables.dump(100)
        assert any(line.startswith("pit name=/video/clip/seg=4 ") for line in lines)
        assert "fib prefix=/video/clip hop=00-10-00-00-00-02 enabled=true window_min=7 samples=1" in lines
        assert "cs name=/video/clip/seg=4 bytes=7" in lines
        assert "liveness neighbor=00-10-00-00-00-02 last_seen_us=50 alive=true" in lines
