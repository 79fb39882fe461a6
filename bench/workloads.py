"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a `Workload`: the `.scn` document to write and
load, plus the facts the checks need (costs, links, fetches, served
objects), kept here so the checks never read them back from the
program under test.  The seed sets the scenario seed, draws every
node's cost from 1 to 3 and orders the fetches; the number of fetches
and packets and the route lengths do not depend on it.

Several constraints below keep the workloads clear of faults recorded
as FOUND lines in CHANGES.md, so that every fetch can succeed:

* every cost is at least 1 (FOUND: zero-price route),
* link latency equals the send interval (FOUND: pipelined offers on
  one channel),
* grid flows never overlap and the grid's content store holds at least
  one chunk but less than the object, and the swarm's cohort starts
  inside one discovery window (FOUND: cache-answered route).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Shared timing for all workloads.  The send interval equals the link
# latency: a shorter interval pipelines two offers on one channel, which
# a relay rejects with bad-signature (FOUND: pipelined offers).
LATENCY_MS = 1
DISCOVERY_WAIT_MS = 250
START_MS = 100
MAX_COST = 3


@dataclass(frozen=True)
class Fetch:
    node: str
    name: str
    packets: int
    at_ms: int


@dataclass(frozen=True)
class Served:
    producer: str
    prefix: str
    packet_size: int
    packets_per_chunk: int
    chunks: int

    @property
    def total_packets(self) -> int:
        return self.packets_per_chunk * self.chunks


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict
    costs: dict[str, int]
    links: frozenset[frozenset[str]]
    fetches: tuple[Fetch, ...]
    served: dict[str, Served]  # prefix -> object
    # Grid only: flows must run one after another.
    sequential: bool = False


@dataclass(frozen=True)
class Sizes:
    line_packets: int
    grid_side: int
    grid_consumers: int
    grid_chunks: int
    swarm_access: int
    swarm_per_access: int
    swarm_chunks: int


FULL = Sizes(
    line_packets=2048,
    grid_side=8,
    grid_consumers=5,
    grid_chunks=16,
    swarm_access=4,
    swarm_per_access=10,
    swarm_chunks=8,
)

# Tiny sizes that still take every code path the full runs take.
SMOKE = Sizes(
    line_packets=64,
    grid_side=4,
    grid_consumers=2,
    grid_chunks=4,
    swarm_access=2,
    swarm_per_access=3,
    swarm_chunks=2,
)


def addr(hi: int, lo: int) -> str:
    return f"02-00-00-00-{hi:02x}-{lo:02x}"


def _draw_cost(rng: random.Random) -> int:
    # Never 0: a route whose price is 0 fails every offer with
    # payment:bad-amount (FOUND: zero-price route).
    return rng.randint(1, MAX_COST)


def _document(
    seed: int,
    duration_ms: int,
    defaults: dict,
    nodes: list[tuple[str, int]],
    served: Served,
    links: list[tuple[str, str]],
    fetches: list[Fetch],
) -> dict:
    node_docs = []
    for a, cost in nodes:
        node = {"addr": a, "cost": cost}
        if a == served.producer:
            node["serves"] = [{
                "prefix": served.prefix,
                "packet_size": served.packet_size,
                "packets_per_chunk": served.packets_per_chunk,
                "chunks": served.chunks,
            }]
        node_docs.append(node)
    return {
        "version": 1,
        "seed": seed,
        "duration_ms": duration_ms,
        "defaults": {
            "link_latency_ms": LATENCY_MS,
            "send_interval_ms": LATENCY_MS,
            "discovery_wait_ms": DISCOVERY_WAIT_MS,
            **defaults,
        },
        "nodes": node_docs,
        "links": [[a, b] for a, b in links],
        "schedule": [
            {"at_ms": f.at_ms, "action": "fetch", "node": f.node, "name": f.name,
             "packets": f.packets}
            for f in fetches
        ],
    }


def _workload(name, seed, duration_ms, defaults, nodes, served, links, fetches,
              payment_mode, sequential=False) -> Workload:
    doc = _document(seed, duration_ms, {**defaults, "payment_mode": payment_mode},
                    nodes, served, links, fetches)
    return Workload(
        name=name,
        doc=doc,
        costs=dict(nodes),
        links=frozenset(frozenset(pair) for pair in links),
        fetches=tuple(fetches),
        served={served.prefix: served},
        sequential=sequential,
    )


def _fetch_span_ms(packets: int, hops: int) -> int:
    """Upper bound on one fetch's life: discovery, paced sends, the
    round trip of the last packet, and slack for keep-alive jitter."""
    return DISCOVERY_WAIT_MS + packets * LATENCY_MS + 2 * hops * LATENCY_MS + 200


def line_bulk(seed: int, sizes: Sizes = FULL) -> Workload:
    """Consumer, relay and producer in a line; many small packets."""
    rng = random.Random(f"line-bulk|{seed}")
    consumer, relay, producer = addr(1, 1), addr(1, 2), addr(1, 3)
    nodes = [(a, _draw_cost(rng)) for a in (consumer, relay, producer)]
    packets = sizes.line_packets
    served = Served(producer, "/bulk/data", 100, 8, packets // 8)
    price_bound = 2 * MAX_COST * packets
    fetch = Fetch(consumer, served.prefix, packets, START_MS)
    return _workload(
        "line-bulk", seed, START_MS + _fetch_span_ms(packets, 2),
        {"channel_deposit": price_bound, "account_balance": 2 * price_bound},
        nodes, served, [(consumer, relay), (relay, producer)], [fetch], "hopbyhop",
    )


def grid_relay(seed: int, sizes: Sizes = FULL) -> Workload:
    """n x n four-neighbour grid, producer in one corner, consumers on
    the far edges fetching one after another."""
    rng = random.Random(f"grid-relay|{seed}")
    n = sizes.grid_side
    grid = [[addr(0x10 + x, y) for y in range(n)] for x in range(n)]
    nodes = [(grid[x][y], _draw_cost(rng)) for x in range(n) for y in range(n)]
    links = []
    for x in range(n):
        for y in range(n):
            if x + 1 < n:
                links.append((grid[x][y], grid[x + 1][y]))
            if y + 1 < n:
                links.append((grid[x][y], grid[x][y + 1]))
    producer = grid[0][0]
    # Consumers sit at fixed far-edge positions, from the two corners
    # next to the producer's row and column (n - 1 hops) to the far
    # corner (2n - 2 hops); the seed only orders them.  Discovery keeps
    # the first answers, which come back over the fewest hops, so route
    # lengths and with them the work do not depend on the seed.
    k = sizes.grid_consumers
    along = [round(i * (2 * n - 2) / (k - 1)) for i in range(k)]
    consumers = [grid[n - 1][a] if a < n else grid[2 * n - 2 - a][n - 1] for a in along]
    rng.shuffle(consumers)
    ppc = 8
    served = Served(producer, "/grid/object", 1000, ppc, sizes.grid_chunks)
    packets = served.total_packets
    # Flows never overlap: each starts after the previous one has
    # certainly finished, so no two flows share a channel or a PIT entry
    # and no relay still caches the object when the next discovery
    # floods past it (FOUND: cache-answered route).
    gap = _fetch_span_ms(packets, len(nodes))
    fetches = [
        Fetch(c, served.prefix, packets, START_MS + i * gap) for i, c in enumerate(consumers)
    ]
    # Any one channel carries at most every flow's full price.
    price_bound = MAX_COST * len(nodes) * packets * len(consumers)
    defaults = {
        "channel_deposit": price_bound,
        "account_balance": 4 * price_bound,
        # At least one chunk, so a relay can reassemble and sign it, but
        # less than the object, so a later flow's discovery finds packet
        # 0 evicted everywhere and no relay answers from its cache
        # (FOUND: cache-answered route).
        "cs_capacity_bytes": 2 * ppc * served.packet_size,
    }
    return _workload(
        "grid-relay", seed, START_MS + len(consumers) * gap, defaults,
        nodes, served, links, fetches, "hopbyhop", sequential=True,
    )


def star_swarm(seed: int, sizes: Sizes = FULL) -> Workload:
    """Consumers behind access relays sharing a three-relay chain to one
    producer; everybody fetches the same object at about the same time,
    paying every node on the route directly."""
    rng = random.Random(f"star-swarm|{seed}")
    chain = [addr(0x21, i) for i in range(3)]
    producer = addr(0x22, 0)
    access = [addr(0x23, i) for i in range(sizes.swarm_access)]
    consumers = [
        [addr(0x30 + a, i) for i in range(sizes.swarm_per_access)]
        for a in range(sizes.swarm_access)
    ]
    everyone = [c for group in consumers for c in group] + access + chain + [producer]
    nodes = [(a, _draw_cost(rng)) for a in everyone]
    links = []
    for a, group in zip(access, consumers):
        links += [(c, a) for c in group]
        links.append((a, chain[0]))
    links += [(chain[0], chain[1]), (chain[1], chain[2]), (chain[2], producer)]
    served = Served(producer, "/swarm/object", 1000, 8, sizes.swarm_chunks)
    packets = served.total_packets
    # The whole cohort starts inside one discovery window: every flood
    # is over before the first Data reaches any cache, so no consumer
    # selects a route answered from a cache (FOUND: cache-answered
    # route).  The window leaves room for the flood's round trip.
    window_ms = DISCOVERY_WAIT_MS - 50
    # Start times are evenly spread over the window; the seed deals them
    # out to the consumers.
    flat = [c for group in consumers for c in group]
    rng.shuffle(flat)
    fetches = [
        Fetch(c, served.prefix, packets, START_MS + i * window_ms // len(flat))
        for i, c in enumerate(flat)
    ]
    hops = 5  # access, three relays, producer
    deposit = MAX_COST * packets
    defaults = {"channel_deposit": deposit, "account_balance": hops * deposit}
    return _workload(
        "star-swarm", seed, START_MS + window_ms + _fetch_span_ms(packets, hops), defaults,
        nodes, served, links, fetches, "payall",
    )


GENERATORS = {
    "line-bulk": line_bulk,
    "grid-relay": grid_relay,
    "star-swarm": star_swarm,
}
